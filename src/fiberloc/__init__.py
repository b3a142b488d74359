"""fiberloc: stochastic localization on holomorphic zero sets and
Gaussian measures of their tubular neighborhoods."""

from .errors import (
    DomainError,
    PathAbort,
    ProjectionError,
    StateError,
    ValidationError,
)
from .gaussgeom import (
    BoundedExp,
    CircledGeometry,
    HalfSpace,
    One,
    SqNorm,
    TiltCheck,
    affine_tube_measure,
    circled_norm_geometry,
    disc_measure,
    gaussian_expectation,
    tilt_inequality_check,
)
from .linalg import hermitianize
from .localize import (
    BatchResult,
    ComplexGaussian,
    LocalizationState,
    QuadraticPotential,
    path_rng,
    potential_eval,
    run_path,
    run_paths,
    standard_gaussian,
    terminal_gaussian,
)
from .mc import (
    CenterLawResult,
    MixtureReport,
    TubeResult,
    TubeRow,
    center_law_sample,
    confidence_interval,
    estimate_tube_grid,
    estimate_tube_measure,
    fiber_distances,
    mixture_check,
    waist_check,
)
from .polymap import (
    DistanceResult,
    PolynomialMap,
    affine_map,
    distance_to_origin,
    eval_jacobian,
    eval_map,
    hyperbola_map,
    paraboloid_map,
)

__version__ = "0.1.0"
