"""Tests of the benchmark itself: the tracer and the harness.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fiberloc  # noqa: E402
from fiberloc import cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Sizes small enough for a unit test; the maps and commands are the workloads'.
SMALL = {
    "tube-waist": {"N": 40},
    "tube-circled": {"N": 30},
    "paths-batch": {"n_paths": 12, "T": 0.02},
    "paths-small": {"n_paths": 3, "T": 0.05},
}


def _fiberloc_functions():
    for name, mod in list(sys.modules.items()):
        if name == "fiberloc" or name.startswith("fiberloc."):
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType):
                    yield mod, attr, obj


def test_no_alias_left_unwrapped():
    tracer = Tracer()
    originals = tracer.targets()
    assert {"polymap.eval_map", "localize.run_paths", "linalg.stacked_sqrt_pair",
            "mc.fiber_distances", "gaussgeom.disc_measure",
            "cli.main"} <= set(originals.values())
    with tracer:
        left = [f"{mod.__name__}.{attr}" for mod, attr, obj in _fiberloc_functions()
                if obj in originals]
        assert left == []
        for alias in (fiberloc.localize.eval_jacobian,
                      fiberloc.mc.minimize_fiber_distance, fiberloc.waist_check):
            assert alias.__wrapped__ in originals
    assert not any(getattr(obj, "__wrapped__", None) in originals
                   for _, _, obj in _fiberloc_functions())


def _run(wl, cfg, out: Path) -> dict:
    out.mkdir()
    cfg_path = out.parent / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([wl.command, "--config", str(cfg_path), "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in wl.result_files(cfg, out)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_match_untraced_and_counts_repeat(name, tmp_path):
    wl = WORKLOADS[name]
    cfg = {**wl.config(seed=3), **SMALL[name]}
    plain = _run(wl, cfg, tmp_path / "plain")
    tracer = Tracer()
    summaries = []
    for rep in range(2):
        first = len(tracer.spans)
        with tracer:
            traced = _run(wl, cfg, tmp_path / f"traced{rep}")
        assert traced == plain
        summaries.append(tracer.summarize(first))
    counts = [{fn: {k: v for k, v in row.items() if not k.endswith("_s")}
               for fn, row in s.items()} for s in summaries]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main"]["calls"] == 1
    assert tracer.count_errors == 0
    for idx, (_, _, parent, t0, t1) in enumerate(tracer.spans):
        assert parent < idx and t0 <= t1
        if parent >= 0:
            _, _, _, p0, p1 = tracer.spans[parent]
            assert p0 <= t0 and t1 <= p1
    for row in summaries[0].values():
        assert row["self_s"] <= row["total_s"] + 1e-12


def test_gate_fails_whole_invocation_on_bad_exit_code(tmp_path):
    wl = WORKLOADS["paths-small"]
    cfg = {**wl.config(seed=3), **SMALL["paths-small"]}
    _run(wl, cfg, tmp_path / "out")
    good = wl.gate(cfg, tmp_path / "out", 0)
    assert good.problems == () and good.failed == 0
    bad = wl.gate(cfg, tmp_path / "out", 3)
    assert bad.problems and bad.failed == bad.attempted == cfg["n_paths"]
    missing = wl.gate(cfg, tmp_path / "nowhere", 0)
    assert missing.problems and missing.failed == missing.attempted


def test_at_nominal_scales_by_bracketing_references():
    from reference import NOMINAL_S, at_nominal
    assert at_nominal([1.0, 2.0], [NOMINAL_S, NOMINAL_S, NOMINAL_S]) == [1.0, 2.0]
    slow = 2 * NOMINAL_S
    assert at_nominal([1.0, 1.0], [NOMINAL_S, slow, slow]) == pytest.approx([2 / 3, 0.5])


def test_configs_depend_only_on_seed():
    for wl in WORKLOADS.values():
        assert wl.config(5) == wl.config(5)
        assert wl.config(5)["seed"] != wl.config(6)["seed"]


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for src in BENCH.glob("*.py"):
        (tmp_path / "bench" / src.name).write_bytes(src.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paths-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_uncounted_work_fails_the_traced_run(monkeypatch, capsys):
    import run
    import tracer

    def broken(a, kw, r):
        raise KeyError("n_paths")

    monkeypatch.setitem(tracer.COUNTERS, "localize.run_paths", broken)
    assert run.main(["--workload", "paths-small", "--seed", "3", "--seconds", "0",
                     "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
