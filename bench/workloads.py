"""The four benchmark workloads: config generation and correctness gates.

Each workload is one `fiberloc` subcommand on one fixed map, with a fixed
problem size. The workload seed only chooses the experiment seed written
into the config, so every seed asks for the same amount of work and the
same seed always gives the same config.

The maps are written out as config JSON here rather than built through the
library, so the inputs do not depend on the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# f(z) = z1 z2 - 1 in C^2; its distance to the origin is sqrt(2).
HYPERBOLA = {
    "n": 2, "k": 1,
    "components": [[{"coeff": [1.0, 0.0], "exps": [1, 1]},
                    {"coeff": [-1.0, 0.0], "exps": [0, 0]}]],
    "base_point": [[1.0, 0.0], [1.0, 0.0]],
}

# f(z) = z2 - z1^2 in C^2; passes through the origin, never singular.
PARABOLOID = {
    "n": 2, "k": 1,
    "components": [[{"coeff": [1.0, 0.0], "exps": [0, 1]},
                    {"coeff": [-1.0, 0.0], "exps": [2, 0]}]],
    "base_point": [[0.0, 0.0], [0.0, 0.0]],
}


@dataclass(frozen=True)
class Outcome:
    """What one invocation achieved, as read back from its output files."""

    attempted: int          # operations: distance passes over samples, or paths
    failed: int             # operations that failed; all of them if a gate failed
    problems: tuple         # gate violations, empty when the invocation is correct


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                              # fiberloc subcommand
    params: dict                              # config keys besides map and seed
    map_json: dict
    gate: Callable[[dict, Path, int], Outcome]
    result_files: Callable[[dict, Path], list]
    work: Callable[[dict], int]               # units of work behind work_per_s

    def config(self, seed: int) -> dict:
        experiment_seed = random.Random(f"{self.name}/{seed}").getrandbits(32)
        return {"map": self.map_json, "seed": experiment_seed, **self.params}


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _outcome(rc: int, attempted: int, failed: int, problems: list) -> Outcome:
    if rc != 0:
        problems.insert(0, f"exit code {rc}")
    if problems:
        failed = attempted
    return Outcome(attempted=attempted, failed=failed, problems=tuple(problems))


def _read_or_fail(rc, attempted, path, check):
    try:
        return check(_load(path))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _outcome(rc, attempted, attempted,
                        [f"unreadable {path.name}: {exc!r}"])


# ---------------------------------------------------------------------------
# Gates

def _gate_tube_waist(cfg: dict, out: Path, rc: int) -> Outcome:
    attempted = cfg["N"]

    def check(doc):
        problems = [f"r={row['r']}: verdict {row['verdict']}"
                    for row in doc["rows"] if row["verdict"] != "pass"]
        if len(doc["rows"]) != len(cfg["r_grid"]):
            problems.append(f"{len(doc['rows'])} rows for {len(cfg['r_grid'])} radii")
        return _outcome(rc, attempted, doc["optimizer_failures"], problems)

    return _read_or_fail(rc, attempted, out / "tube_results.json", check)


def _gate_tube_circled(cfg: dict, out: Path, rc: int) -> Outcome:
    # Every radius re-estimates all N samples, so each is one distance pass.
    attempted = cfg["N"] * len(cfg["r_grid"])

    def check(doc):
        problems = [f"r={row['r']}: p_hat {row['p_hat']} outside [0, 1]"
                    for row in doc["rows"] if not 0.0 <= row["p_hat"] <= 1.0]
        if len(doc["rows"]) != len(cfg["r_grid"]):
            problems.append(f"{len(doc['rows'])} rows for {len(cfg['r_grid'])} radii")
        return _outcome(rc, attempted, doc["optimizer_failures"], problems)

    return _read_or_fail(rc, attempted, out / "tube_results.json", check)


def _gate_paths_batch(cfg: dict, out: Path, rc: int) -> Outcome:
    attempted = cfg["n_paths"]

    def check(doc):
        problems = [] if doc["valid"] else ["report marked invalid"]
        problems += [f"{row['functional']}: |z| = {abs(row['z_score']):.3f} > 3"
                     for row in doc["rows"] if not abs(row["z_score"]) <= 3]
        return _outcome(rc, attempted, doc["n_aborted"], problems)

    return _read_or_fail(rc, attempted, out / "mixture_report.json", check)


def _gate_paths_small(cfg: dict, out: Path, rc: int) -> Outcome:
    attempted = cfg["n_paths"]

    def check(doc):
        inv = doc["invariants"]
        problems = []
        if not inv["max_post_projection_residual"] <= 1e-10:
            problems.append(f"post-projection residual {inv['max_post_projection_residual']}")
        if not inv["min_lambda_min_B"] >= 1 - 1e-8:
            problems.append(f"lambda_min(B) {inv['min_lambda_min_B']}")
        if inv["trace_bound_ok"] is not True:
            problems.append("trace bound violated")
        n_csv = len(list(out.glob("path_*.csv")))
        if n_csv != attempted:
            problems.append(f"{n_csv} path CSVs for {attempted} paths")
        return _outcome(rc, attempted, doc["n_aborted"], problems)

    return _read_or_fail(rc, attempted, out / "localize_summary.json", check)


# ---------------------------------------------------------------------------
# Result files, hashed to check byte-identity across repetitions. Only the
# files named here count, so a later timing sidecar does not break the check.

def _tube_files(cfg: dict, out: Path) -> list:
    return [out / "tube_results.json", out / "tube_plot.dat"]


def _mixture_files(cfg: dict, out: Path) -> list:
    return [out / "mixture_report.json"]


def _localize_files(cfg: dict, out: Path) -> list:
    return [out / "localize_summary.json"] + sorted(out.glob("path_*.csv"))


def _samples(cfg: dict) -> int:
    return cfg["N"]


def _path_steps(cfg: dict) -> int:
    return cfg["n_paths"] * max(1, round(cfg["T"] / cfg["h"]))


# Sizes give invocations of roughly 0.5-1 s on a 2-core x86 VM, so a 20 s
# run holds 20-40 of them, and the machine's speed rarely changes within one.
WORKLOADS = {w.name: w for w in (
    Workload("tube-waist", "tube",
             {"r_grid": [0.5, 1.0, 2.0], "distance": 2 ** 0.5, "N": 1000},
             HYPERBOLA, _gate_tube_waist, _tube_files, _samples),
    Workload("tube-circled", "tube",
             {"r_grid": [0.5, 1.0], "weights": [1.0, 2.0], "N": 500},
             HYPERBOLA, _gate_tube_circled, _tube_files, _samples),
    Workload("paths-batch", "mixture",
             {"T": 0.1, "h": 2e-3, "n_paths": 1000},
             PARABOLOID, _gate_paths_batch, _mixture_files, _path_steps),
    Workload("paths-small", "localize",
             {"T": 1.5, "h": 2e-3, "n_paths": 8},
             PARABOLOID, _gate_paths_small, _localize_files, _path_steps),
)}
