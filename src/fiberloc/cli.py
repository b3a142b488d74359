"""Experiment runner.

Subcommands: localize, tube, baseline, mixture, centerlaw, tilt, selftest.
Configs are JSON (complex numbers as [re, im] pairs); outputs are CSV for
time series and JSON for tables, plus gnuplot-ready column files. Every
output records the seed and a hash of the resolved config. Identical
(config, seed) pairs produce byte-identical outputs.

A config is checked against the Draft 7 schema CONFIG_SCHEMA by _conforms,
which implements only the keywords the schema uses. jsonschema is imported
only to explain a refused config, so a valid run never loads it.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure,
3 invariant or inequality-verdict violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import gaussgeom, localize, mc, polymap
from .errors import (
    DomainError,
    ProjectionError,
    StateError,
    ValidationError,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERDICT = 3

_COMPLEX_PAIR = {
    "type": "array", "items": {"type": "number"},
    "minItems": 2, "maxItems": 2,
}

MAP_SCHEMA = {
    "type": "object",
    "required": ["n", "k", "components", "base_point"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "k": {"type": "integer", "minimum": 1},
        "components": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["coeff", "exps"],
                    "properties": {
                        "coeff": _COMPLEX_PAIR,
                        "exps": {"type": "array",
                                 "items": {"type": "integer", "minimum": 0}},
                    },
                },
            },
        },
        "base_point": {"type": "array", "items": _COMPLEX_PAIR},
    },
}


def _object(required, **properties):
    """The schema of a JSON object with these keys and no others."""
    return {"type": "object", "required": required, "properties": properties,
            "additionalProperties": False}


_VECTOR = {"type": "array", "items": _COMPLEX_PAIR}
_FUNCTIONAL = {"anyOf": [
    {"enum": ["one", "sq_norm"]},
    _object(["half_space"], half_space=_object([], u=_VECTOR, c={"type": "number"})),
    _object(["bounded_exp"], bounded_exp=_object(
        ["u", "M"], u=_VECTOR, M={"type": "number", "exclusiveMinimum": 0})),
]}

# Draft 7 has every keyword used here, and _conforms implements each. The
# schema is a constant: the test suite checks it against its meta-schema,
# and _conforms against jsonschema, so no run pays for either check
CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "map": MAP_SCHEMA,
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "T": {"type": "number", "exclusiveMinimum": 0},
        "h": {"type": "number", "exclusiveMinimum": 0},
        "n_paths": {"type": "integer", "minimum": 1},
        "N": {"type": "integer", "minimum": 1},
        "r_grid": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "weights": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
        "rank_tol": {"type": "number", "exclusiveMinimum": 0},
        "distance": {"type": "number", "minimum": 0},
        "record_every": {"type": "integer", "minimum": 1},
        "functionals": {"type": "array", "items": _FUNCTIONAL},
        "n_instances": {"type": "integer", "minimum": 1},
        "k": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 1},
        "d_grid": {"type": "array", "items": {"type": "number", "minimum": 0}},
    },
    "additionalProperties": False,
}

_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: _TYPES["number"](x) and (isinstance(x, int) or x.is_integer()),
}


def _conforms(x, schema: dict) -> bool:
    """Whether x is valid under schema, for the Draft 7 keywords CONFIG_SCHEMA
    uses. As in jsonschema, a bool is no number, an integral float is an
    integer, enum compares type and value, and a NaN breaks no bound."""
    if "anyOf" in schema and not any(_conforms(x, s) for s in schema["anyOf"]):
        return False
    if "enum" in schema and not any(isinstance(x, bool) is isinstance(e, bool) and x == e
                                    for e in schema["enum"]):
        return False
    if "type" in schema and not _TYPES[schema["type"]](x):
        return False
    if isinstance(x, dict):
        props = schema.get("properties", {})
        return (all(k in x for k in schema.get("required", ()))
                and (schema.get("additionalProperties", True) or x.keys() <= props.keys())
                and all(_conforms(v, props[k]) for k, v in x.items() if k in props))
    if isinstance(x, list):
        return (schema.get("minItems", 0) <= len(x) <= schema.get("maxItems", math.inf)
                and all(_conforms(v, schema.get("items", {})) for v in x))
    if _TYPES["number"](x):
        return not (x < schema.get("minimum", -math.inf) or x > schema.get("maximum", math.inf)
                    or "exclusiveMinimum" in schema and x <= schema["exclusiveMinimum"])
    return True


def load_config(path: str | None, overrides: dict) -> dict:
    """The config file at path (none: an empty config), with the non-None
    overrides merged in, checked against CONFIG_SCHEMA as a whole.

    A config is hashed and echoed as JSON, so a NaN or an infinity anywhere
    in it is refused too.
    """
    cfg = {}
    if path is not None:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if isinstance(cfg, dict):
        cfg.update({k: v for k, v in overrides.items() if v is not None})
    if not _conforms(cfg, CONFIG_SCHEMA):
        from jsonschema import Draft7Validator, exceptions
        error = exceptions.best_match(Draft7Validator(CONFIG_SCHEMA).iter_errors(cfg))
        raise ValidationError(
            f"config schema violation at {error.json_path}: {error.message}"
        ) from error
    try:
        json.dumps(cfg, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"config holds a non-finite number: {exc}") from exc
    grid = cfg.get("r_grid")
    if grid is not None and any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("r_grid must be strictly increasing")
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _require(cfg, *keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ValidationError(f"config is missing required keys: {missing}")


def _map_from_config(cfg) -> polymap.PolynomialMap:
    _require(cfg, "map")
    m = cfg["map"]
    # Length constraints the JSON schema cannot express (they depend on n).
    n = m["n"]
    for j, comp in enumerate(m["components"]):
        for i, mono in enumerate(comp):
            if len(mono["exps"]) != n:
                raise ValidationError(
                    f"config schema violation at $.map.components[{j}][{i}].exps: "
                    f"expected {n} exponents, got {len(mono['exps'])}"
                )
    if len(m["base_point"]) != n:
        raise ValidationError(
            f"config schema violation at $.map.base_point: expected {n} entries"
        )
    return polymap.PolynomialMap.from_json(m)


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _functional_from_config(spec, n: int):
    """The functional of a spec that the config schema accepted."""
    if spec == "one":
        return gaussgeom.One()
    if spec == "sq_norm":
        return gaussgeom.SqNorm()
    if "half_space" in spec:
        hs = spec["half_space"]
        u = [complex(p[0], p[1]) for p in hs.get("u", [[1, 0]] + [[0, 0]] * (n - 1))]
        return gaussgeom.HalfSpace(u, hs.get("c", 0.0))
    be = spec["bounded_exp"]
    return gaussgeom.BoundedExp([complex(p[0], p[1]) for p in be["u"]], be["M"])


# ---------------------------------------------------------------------------
# Subcommands

def _trace_bound_ok(res: localize.BatchResult, n: int) -> bool:
    """Tr B_t <= n e^t at every recorded step of every path, compared in
    logs: e^t overflows long before Tr B does."""
    bound = np.log(n) + res.record_t[:, None] + np.log1p(1e-6)
    return bool(np.all(np.log(res.record_trace) <= bound))


def cmd_localize(cfg, out: Path) -> int:
    F = _map_from_config(cfg)
    _require(cfg, "T", "h", "seed")
    n_paths = cfg.get("n_paths", 1)
    res = localize.run_paths(F, cfg["T"], cfg["h"], cfg["seed"], n_paths,
                             record_every=cfg.get("record_every"))
    chash = config_hash(cfg)
    row = ",".join(["%.17g"] * 5)
    for i in range(n_paths):
        lines = [f"# config_hash={chash}", f"# seed={cfg['seed']} path={i}",
                 "t,fiber_residual,lambda_min_B,lambda_k1_B,trace_B"]
        lines += [row % r for r in zip(res.record_t, res.record_pre_residual[:, i],
                                       res.record_lambda_min[:, i], res.record_lambda_k1[:, i],
                                       res.record_trace[:, i])]
        (out / f"path_{i:04d}.csv").write_text("\n".join(lines) + "\n")

    trace_ok = _trace_bound_ok(res, F.n)
    summary = {
        "experiment": "localize",
        "config_hash": chash,
        "seed": cfg["seed"],
        "n_paths": n_paths,
        "n_aborted": res.n_aborted,
        "aborts": [{"path": i, **why} for i, why in enumerate(res.abort_reasons) if why],
        "T": res.t,
        "h": cfg["h"],
        "invariants": {
            "max_post_projection_residual": float(res.record_post_residual.max()),
            "max_pre_projection_residual": float(res.fiber_residual_max.max()),
            "min_lambda_min_B": float(res.record_lambda_min.min()),
            "trace_bound_ok": trace_ok,
        },
    }
    _write_json(out / "localize_summary.json", summary)
    ok = (summary["invariants"]["max_post_projection_residual"] <= polymap.FIBER_TOL
          and summary["invariants"]["min_lambda_min_B"] >= localize.LAMBDA_MIN_FLOOR
          and trace_ok)
    if res.n_aborted == n_paths:
        return EXIT_NUMERICAL
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_tube(cfg, out: Path) -> int:
    F = _map_from_config(cfg)
    _require(cfg, "r_grid", "N", "seed")
    weights = cfg.get("weights")
    if weights is None:
        res = mc.waist_check(F, cfg["r_grid"], cfg["N"], cfg["seed"],
                             distance=cfg.get("distance"))
    elif "distance" in cfg:
        raise ValidationError("weights and distance cannot be combined: a tube in "
                              "the circled norm has no affine baseline")
    else:
        res = mc.estimate_tube_grid(F, cfg["r_grid"], cfg["N"], cfg["seed"],
                                    norm_weights=weights)
    doc = {
        "experiment": "tube",
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
        "distance": res.distance,
        "distance_bounds": res.distance_bounds,
        "optimality_residual": res.optimality_residual,
        "rows": [dataclasses.asdict(row) for row in res.rows],
        "optimizer_failures": res.optimizer_failures,
        "unconverged": res.unconverged,
        "certified_misses": res.certified_misses,
        "decided_early": res.decided_early,
    }
    _write_json(out / "tube_results.json", doc)
    plot = ["# r p_hat stderr baseline"]
    for row in res.rows:
        base = row.baseline if row.baseline is not None else float("nan")
        plot.append(f"{row.r:.17g} {row.p_hat:.17g} {row.stderr:.17g} {base:.17g}")
    (out / "tube_plot.dat").write_text("\n".join(plot) + "\n")
    return EXIT_OK if res.passed else EXIT_VERDICT


def cmd_baseline(cfg, out: Path) -> int:
    _require(cfg, "k", "r_grid")
    k = cfg["k"]
    n = cfg.get("n", k)
    d_grid = cfg.get("d_grid", [0.0])
    rows = []
    for d in d_grid:
        for r in cfg["r_grid"]:
            rows.append({"k": k, "d": d, "r": r,
                         "measure": gaussgeom.affine_tube_measure(n, k, d, r)})
    doc = {
        "experiment": "baseline",
        "config_hash": config_hash(cfg),
        "seed": cfg.get("seed", 0),
        "rows": rows,
    }
    _write_json(out / "baseline_table.json", doc)
    plot = ["# d r measure"] + [
        f"{row['d']:.17g} {row['r']:.17g} {row['measure']:.17g}" for row in rows
    ]
    (out / "baseline_plot.dat").write_text("\n".join(plot) + "\n")
    return EXIT_OK


def cmd_mixture(cfg, out: Path) -> int:
    F = _map_from_config(cfg)
    _require(cfg, "T", "h", "n_paths", "seed")
    specs = cfg.get("functionals", ["one", "sq_norm", {"half_space": {}}])
    functionals = [_functional_from_config(s, F.n) for s in specs]
    rep = mc.mixture_check(F, cfg["T"], cfg["h"], cfg["n_paths"], functionals, cfg["seed"],
                           rank_tol=cfg.get("rank_tol", localize.DEFAULT_RANK_TRUNCATION))
    doc = {
        "experiment": "mixture",
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
        "n_paths": rep.n_paths,
        "n_aborted": rep.n_aborted,
        "valid": rep.valid,
        "T": rep.T,
        "h": rep.h,
        "rows": [dataclasses.asdict(r) for r in rep.rows],
    }
    _write_json(out / "mixture_report.json", doc)
    if not rep.valid:
        return EXIT_NUMERICAL
    ok = all(abs(r.z_score) <= 3 for r in rep.rows)
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_centerlaw(cfg, out: Path) -> int:
    F = _map_from_config(cfg)
    _require(cfg, "T", "h", "n_paths", "seed")
    res = mc.center_law_sample(F, cfg["T"], cfg["h"], cfg["n_paths"], cfg["seed"])
    chash = config_hash(cfg)
    header = [f"# config_hash={chash}", f"# seed={cfg['seed']}",
              ",".join(f"re_a{j},im_a{j}" for j in range(F.n))]
    # re a_0, im a_0, re a_1, ... per sample, as the complex array holds them
    row = ",".join(["%.17g"] * (2 * F.n))
    lines = header + [row % tuple(r) for r in np.ascontiguousarray(res.samples).view(float)]
    (out / "centerlaw_samples.csv").write_text("\n".join(lines) + "\n")
    doc = {
        "experiment": "centerlaw",
        "config_hash": chash,
        "seed": cfg["seed"],
        "n_samples": int(res.samples.shape[0]),
        "n_aborted": res.n_aborted,
        "mean_sq_norm": res.mean_sq_norm,
        "stderr_sq_norm": res.stderr_sq_norm,
        "coord_mean": [[z.real, z.imag] for z in res.coord_mean],
        "coord_abs_sq": [float(x) for x in res.coord_abs_sq],
        "coord_pseudo": [[z.real, z.imag] for z in res.coord_pseudo],
    }
    _write_json(out / "centerlaw_moments.json", doc)
    return EXIT_OK


def cmd_tilt(cfg, out: Path) -> int:
    seed = cfg.get("seed", 0)
    count = cfg.get("n_instances", 100)
    rng = localize.path_rng(seed, 0)
    rows = []
    all_hold = True
    for _ in range(count):
        b = 1.0 + 3.0 * rng.uniform()
        phase = rng.uniform(0, 2 * np.pi)
        v = rng.uniform(0, 2) * np.exp(1j * phase)
        R = rng.uniform(0.2, 2.0)
        chk = gaussgeom.tilt_inequality_check(np.array([[b]]), [v], R)
        all_hold = all_hold and chk.holds
        rows.append({"b": b, "v": [v.real, v.imag], "R": R,
                     "lhs": chk.lhs, "rhs": chk.rhs, "holds": chk.holds})
    doc = {
        "experiment": "tilt",
        "config_hash": config_hash(cfg),
        "seed": seed,
        "n_instances": count,
        "all_hold": all_hold,
        "rows": rows,
    }
    _write_json(out / "tilt_sweep.json", doc)
    return EXIT_OK if all_hold else EXIT_VERDICT


def cmd_selftest(cfg, out: Path) -> int:
    """Condensed invariant suite on built-in maps; fast by design."""
    seed = cfg.get("seed", 0)
    checks = {}

    checks["disc_central_closed_form"] = bool(abs(
        gaussgeom.disc_measure(1, 0.0, 1.0) - (1 - np.exp(-0.5))) < 1e-12)

    F = polymap.paraboloid_map()
    res = localize.run_paths(F, 1.0, 1e-3, seed, 8)
    checks["fiber_confinement"] = bool(res.record_post_residual.max() <= polymap.FIBER_TOL)
    checks["matrix_lower_bound"] = bool(
        res.record_lambda_min.min() >= localize.LAMBDA_MIN_FLOOR)
    checks["trace_bound"] = _trace_bound_ok(res, F.n)
    checks["no_aborts"] = res.n_aborted == 0

    chk = gaussgeom.tilt_inequality_check(np.eye(1), [0.5], 1.0)
    checks["tilt_identity_equality"] = bool(abs(chk.lhs - chk.rhs) < 1e-8)

    geom = gaussgeom.circled_norm_geometry([1.0, 2.0])
    checks["circled_inradius"] = bool(abs(geom.r_K - 0.5) < 1e-14)

    doc = {
        "experiment": "selftest",
        "config_hash": config_hash(cfg),
        "seed": seed,
        "checks": checks,
        "all_ok": all(checks.values()),
    }
    _write_json(out / "selftest.json", doc)
    return EXIT_OK if doc["all_ok"] else EXIT_VERDICT


COMMANDS = {
    "localize": cmd_localize,
    "tube": cmd_tube,
    "baseline": cmd_baseline,
    "mixture": cmd_mixture,
    "centerlaw": cmd_centerlaw,
    "tilt": cmd_tilt,
    "selftest": cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fiberloc",
                                description="zero-set localization experiments")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--h", type=float, help="override the step size")
    p.add_argument("--T", type=float, help="override the horizon")
    p.add_argument("--paths", type=int, help="override the path count")
    p.add_argument("--samples", type=int, help="override the sample count")
    return p


def _fail(exc: BaseException, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    overrides = {"seed": args.seed, "h": args.h, "T": args.T,
                 "n_paths": args.paths, "N": args.samples}
    try:
        cfg = load_config(args.config, overrides)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out)
    except (ValidationError, DomainError) as exc:
        return _fail(exc, EXIT_CONFIG)
    except (ProjectionError, StateError) as exc:
        return _fail(exc, EXIT_NUMERICAL)
    except ValueError as exc:
        return _fail(exc, EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
