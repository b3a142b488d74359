"""Benchmark of the fiberloc CLI.

    python3 bench/run.py --workload tube-waist --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports fiberloc from `src/`. One
client drives `fiberloc.cli.main` in-process in a closed loop: each
invocation starts after the previous one has finished and been checked.
Every invocation repeats the same config, which the workload seed
determines, and must pass its workload's correctness gate and write
result files byte-identical to the first invocation's.

With `--trace 0` the run reports the end-to-end metrics. The speed of
shared cores drifts by tens of percent within seconds and between minutes,
so a fixed reference kernel (bench/reference.py) runs before and after
every timed invocation, and a fresh interpreter importing fiberloc's
dependencies before and after every set-up probe. Each time is reported
at nominal speed: scaled by its reference's nominal time over the mean of
the two reference times around it. The raw figures are printed too.
After the timed loop, one more invocation runs under tracemalloc to
measure the memory an invocation allocates. With `--trace 1` it
alternates untraced and traced invocations and reports per-layer metrics
from the traced ones (see bench/tracer.py), plus the tracing overhead.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
environment record. Both, with per-invocation samples, also go
to `.bench_work/<workload>-seed<seed>-trace<0|1>/record.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60
# The matrices fiberloc factors are 2 x 2, so LAPACK has nothing to split;
# a second thread gave no resolvable gain on paths-batch (bench/README.md).
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed closed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def git_head() -> str:
    """HEAD of the checkout, read from .git without running git. The
    working tree may differ from it; src_sha256 identifies the code run."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def src_sha256() -> str:
    """Hash of the code under test: every file under src/, by relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, cfg) -> dict:
    return {
        "git_head": git_head(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "experiment_seed": cfg["seed"],
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(cfg_path: Path) -> tuple:
    """Wall times of fresh interpreters running the set-up probe, and the
    import reference times before and after each."""
    from reference import import_reference_seconds
    times, refs = [], [import_reference_seconds()]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(SETUP_PROBE), str(cfg_path)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr}")
        refs.append(import_reference_seconds())
    return times, refs


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        try:
            h.update(path.read_bytes())
        except OSError:
            h.update(b"\0missing\0")
    return h.hexdigest()


class Client:
    """One closed-loop client: runs and checks one invocation at a time."""

    def __init__(self, cli, wl, cfg, workdir: Path):
        self.cli, self.wl, self.cfg = cli, wl, cfg
        self.cfg_path = workdir / "config.json"
        self.out = workdir / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.first_digest = None

    def invoke(self) -> float:
        """Run one invocation, gate it, and return its wall time."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        argv = [self.wl.command, "--config", str(self.cfg_path), "--out", str(self.out)]
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:  # an escaped exception is a failed invocation
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - t0
        outcome = self.wl.gate(self.cfg, self.out, rc)
        problems = list(outcome.problems)
        files = digest(self.wl.result_files(self.cfg, self.out))
        if self.first_digest is None:
            self.first_digest = files
        elif files != self.first_digest:
            problems.append("result files differ from the first repetition")
        self.attempted += outcome.attempted
        self.failed += outcome.attempted if problems else outcome.failed
        self.problems += problems
        return wall

    def invoke_peak_bytes(self) -> int:
        """Run one checked invocation under tracemalloc and return the peak
        of the memory it allocated (NumPy buffers included)."""
        tracemalloc.start()
        try:
            self.invoke()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def layer_metrics(s: dict) -> dict:
    """Per-layer metrics of one traced invocation, from Tracer.summarize.

    self_s is self time; us_per_* is the inclusive span time per unit of
    work (for leaf functions the two agree); ratios are useful outcomes
    over attempts. A function that did not run reads 0.
    """
    def g(fn, key):
        return s.get(fn, {}).get(key, 0.0 if key.endswith("_s") else 0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for fn, count, per_name in (
            ("polymap.eval_map", "points", "us_per_point"),
            ("polymap.eval_jacobian", "points", "us_per_point"),
            ("localize.run_paths", "path_steps", "us_per_path_step"),
            ("linalg.stacked_sqrt_pair", "matrices", "us_per_matrix"),
            ("mc.fiber_distances", "samples", "us_per_sample")):
        m[f"{fn}.self_s"] = (g(fn, "self_s"), "s")
        m[f"{fn}.{count}"] = (g(fn, count), "count")
        m[f"{fn}.{per_name}"] = (per(g(fn, "total_s"), g(fn, count), 1e6), "us")
    fn = "polymap.project_batch"
    m[f"{fn}.self_s"] = (g(fn, "self_s"), "s")
    m[f"{fn}.calls"] = (g(fn, "calls"), "count")
    m[f"{fn}.points"] = (g(fn, "points"), "count")
    m[f"{fn}.converged_ratio"] = (per(g(fn, "converged"), g(fn, "points")), "ratio")
    fn = "polymap.minimize_fiber_distance"
    m[f"{fn}.self_s"] = (g(fn, "self_s"), "s")
    m[f"{fn}.starts"] = (g(fn, "starts"), "count")
    m[f"{fn}.feasible_ratio"] = (per(g(fn, "feasible"), g(fn, "starts")), "ratio")
    fn = "localize.terminal_gaussian"
    m[f"{fn}.calls"] = (g(fn, "calls"), "count")
    m[f"{fn}.self_s"] = (g(fn, "self_s"), "s")
    m["mc.estimate_tube_measure.calls"] = (g("mc.estimate_tube_measure", "calls"), "count")
    m["mc.mixture_check.self_s"] = (g("mc.mixture_check", "self_s"), "s")
    for fn in ("gaussgeom.disc_measure", "gaussgeom.gaussian_expectation"):
        m[f"{fn}.calls"] = (g(fn, "calls"), "count")
        m[f"{fn}.us_per_call"] = (per(g(fn, "total_s"), g(fn, "calls"), 1e6), "us")
    m["cli.main.self_s"] = (g("cli.main", "self_s"), "s")
    for layer in ("polymap", "localize", "linalg", "mc", "gaussgeom"):
        m[f"{layer}.self_s"] = (sum((row["self_s"] for name, row in s.items()
                                     if name.startswith(layer + ".")), 0.0), "s")
    return m


def exact_counts(s: dict) -> dict:
    """The counts of a summary, which must repeat exactly at one seed."""
    return {name: {k: v for k, v in row.items() if not k.endswith("_s")}
            for name, row in sorted(s.items())}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fiberloc" / "__init__.py").is_file():
        print(f"bench: no fiberloc sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    assert BLAS_THREADS <= (os.cpu_count() or 1)
    # BLAS reads its thread count once, when numpy is first imported.
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from fiberloc import cli
    from reference import IMPORT_NOMINAL_S, at_nominal, reference_seconds
    from tracer import Tracer

    wl = WORKLOADS[args.workload]
    cfg = wl.config(args.seed)
    workdir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    client = Client(cli, wl, cfg, workdir)
    client.cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")

    tracer = Tracer() if args.trace else None
    setup, setup_refs = ([], []) if tracer else measure_setup(client.cfg_path)
    client.invoke()                      # warm-up: lazy set-up, not timed
    walls, refs, traced_walls, summaries = [], [], [], []
    if tracer is None:
        refs.append(reference_seconds())
    deadline = time.perf_counter() + args.seconds
    while True:
        walls.append(client.invoke())
        if tracer is None:
            refs.append(reference_seconds())
        else:
            first = len(tracer.spans)
            tracer.invocation = len(summaries)
            with tracer:
                traced_walls.append(client.invoke())
            summaries.append(tracer.summarize(first))
        if time.perf_counter() >= deadline:
            break

    # tracemalloc slows allocation, so memory is measured after the timed loop.
    peak = None if tracer else client.invoke_peak_bytes()
    problems = list(dict.fromkeys(client.problems))
    raw = {}
    if tracer is None:
        work = wl.work(cfg)
        raw = {"work_per_s": statistics.median(work / w for w in walls),
               "setup_s": statistics.median(setup),
               "reference_s": statistics.median(refs),
               "setup_reference_s": statistics.median(setup_refs)}
        metrics = {
            "work_per_s": (statistics.median(work / t for t in at_nominal(walls, refs)),
                           "1/s"),
            "setup_s": (statistics.median(at_nominal(setup, setup_refs, IMPORT_NOMINAL_S)),
                        "s"),
            "peak_mem_mb": (peak / 2**20, "MB"),
            "success_ratio": (1 - client.failed / client.attempted, "ratio"),
        }
    else:
        counts = [exact_counts(s) for s in summaries]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("span counts differ between repetitions at one seed")
        per_inv = [layer_metrics(s) for s in summaries]
        # Counts repeat exactly (checked above); times take the median.
        metrics = {name: (value if unit == "count" else
                          statistics.median(m[name][0] for m in per_inv), unit)
                   for name, (value, unit) in per_inv[0].items()}
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls), "s")
        metrics["failed_ratio"] = (client.failed / client.attempted, "ratio")
        tracer.dump(workdir / "spans.jsonl.gz")
        if tracer.count_errors:
            problems.append(f"{tracer.count_errors} calls whose work could not be counted")

    for problem in problems:
        print(f"bench: {wl.name}: {problem}", file=sys.stderr)
    env = environment(args, cfg)
    result = {
        "correct": not problems,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"environment": env, "config": cfg, "result": result,
              "problems": problems, "setup_s": setup, "setup_reference_s": setup_refs,
              "peak_mem_bytes": peak,
              "walls_s": walls, "reference_s": refs, "traced_walls_s": traced_walls}
    if summaries:
        record["first_traced_summary"] = summaries[0]
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": env, "samples": {
        "invocations": len(walls), "traced_invocations": len(traced_walls),
        "setup_runs": len(setup)}, "raw": raw}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
