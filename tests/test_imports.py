"""Every module-level import in the package modules and the test files is
used, the command line's set-up loads neither SciPy nor jsonschema, the
step kernels of the path
engine, the closest-point solver and the distance bound call no LAPACK
wrapper, and the mixture pipeline forms no B."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = (sorted(p for p in (ROOT / "src" / "fiberloc").glob("*.py")
                  if p.name != "__init__.py")
           + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list:
    """The names bound by the top-level imports of a module that no other
    line of it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b, c\nsys.exit(c)\n") \
        == ["b (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_command_line_loads_no_scipy(tmp_path):
    # The set-up of every invocation (bench/setup_probe.py): load a valid
    # config and build its map. Importing scipy.special would add 0.22-0.35 s
    # to it, and jsonschema, needed only to explain a refused config, about
    # 60 ms to the 0.22 s it took with it (2-core x86 VM)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"map": {
        "n": 2, "k": 1, "base_point": [[0.0, 0.0], [0.0, 0.0]],
        "components": [[{"coeff": [1.0, 0.0], "exps": [0, 1]},
                        {"coeff": [-1.0, 0.0], "exps": [2, 0]}]]},
        "seed": 1, "T": 0.1, "h": 2e-3, "n_paths": 10, "functionals": ["one", "sq_norm"]}))
    code = ("import sys; from fiberloc import cli, polymap; "
            "polymap.PolynomialMap.from_json(cli.load_config(sys.argv[1], {})['map']); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'jsonschema')))")
    out = subprocess.run([sys.executable, "-c", code, str(cfg)], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"


# The kernels that run once per step, iteration or sample batch, and the
# LAPACK wrappers and stacked products they leave to the P-last kernels of
# linalg
STEP_KERNELS = {"localize.py": ("_sigma_pieces", "_advance"),
                "polymap.py": ("project_batch", "_newton_step", "minimize_fiber_distance",
                               "fiber_lower_bound"),
                "linalg.py": ("_mm", "_gram", "_jacobi_eigh", "_one_sided_jacobi",
                              "_householder_qr", "_cholesky_update")}
LAPACK = {"inv", "solve", "cholesky", "eigh", "eigvalsh", "qr", "svd", "det", "slogdet",
          "lstsq", "dot", "matmul"}


def lapack_calls(func: ast.FunctionDef) -> list:
    """The LAPACK wrappers a function names and the @ products it makes."""
    found = []
    for node in ast.walk(func):
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name in LAPACK:
            found.append(f"{name} (line {node.lineno})")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            found.append(f"@ (line {node.lineno})")
    return found


def test_the_lapack_guard_sees_a_wrapper_and_a_product():
    func = ast.parse("def f(A, B):\n    return np.linalg.inv(A) @ solve(A, B)\n").body[0]
    assert sorted(lapack_calls(func)) == ["@ (line 2)", "inv (line 2)", "solve (line 2)"]


def function(module: str, name: str) -> ast.FunctionDef:
    """The top-level function of a package module."""
    tree = ast.parse((ROOT / "src" / "fiberloc" / module).read_text())
    func, = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return func


@pytest.mark.parametrize("module, name", [(m, f) for m, fs in STEP_KERNELS.items() for f in fs])
def test_step_kernels_call_no_lapack_wrapper(module, name):
    assert lapack_calls(function(module, name)) == []


# The path state leaves the engine as the factor L of B^{-1}, and the
# records and the terminal Gaussians read it through linalg's one-sided
# Jacobi kernel: B formed by an inverse loses the covariance's eigenvalues
# near 1 once B is large, so no pipeline from the engine to the mixture
# check forms it or reads it
@pytest.mark.parametrize("module, name", [("localize.py", "run_paths"),
                                          ("localize.py", "terminal_gaussian"),
                                          ("mc.py", "mixture_check")])
def test_the_mixture_pipeline_forms_no_inverse(module, name):
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(function(module, name))
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert named.isdisjoint({"inv", "pinv", "solve", "B"})


# LAPACK's svd bounds the error of L's small singular values only relative
# to the largest; the kernel's relative stop rule keeps those of a graded L
# to relative accuracy
@pytest.mark.parametrize("name", ["run_paths", "terminal_gaussian"])
def test_the_path_factor_is_read_by_no_lapack_wrapper(name):
    assert lapack_calls(function("localize.py", name)) == []
