"""Outside-in tracing of fiberloc, from the benchmark's own files.

`Tracer.install` replaces every public function of the library layers, and
`fiberloc.cli.main`, with a wrapper that records a span: name, start, end,
the enclosing span and the invocation it belongs to. Every module-level
alias of a wrapped function is rebound too (`localize.eval_jacobian`,
`mc.minimize_fiber_distance`, `fiberloc.waist_check`, ...), because a call
through a stale alias would escape the trace. Spans stay in memory until
`dump` writes them out.

Work counts (points, starts, path-steps, ...) are read from arguments and
results after the span has closed, so they do not inflate its duration.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("polymap", "localize", "linalg", "mc", "gaussgeom")
ENTRY = ("cli", "main")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(x) -> int:
    """Number of points in a single point (1-D) or a stack of them."""
    return 1 if np.ndim(x) < 2 else int(np.shape(x)[0])


def _path_steps(a, kw, r):
    T, h = _arg(a, kw, 1, "T"), _arg(a, kw, 2, "h")
    return {"path_steps": _arg(a, kw, 4, "n_paths") * max(1, int(round(T / h)))}


# Work done by one call, keyed by span name; the result is passed in too.
COUNTERS = {
    "polymap.eval_map": lambda a, kw, r: {"points": _rows(_arg(a, kw, 1, "z"))},
    "polymap.eval_jacobian": lambda a, kw, r: {"points": _rows(_arg(a, kw, 1, "z"))},
    "polymap.project_batch": lambda a, kw, r: {
        "points": len(r[0]), "converged": int(np.count_nonzero(r[2]))},
    "polymap.minimize_fiber_distance": lambda a, kw, r: {
        "starts": len(r[0]), "feasible": int(np.count_nonzero(r[2]))},
    "localize.run_paths": _path_steps,
    "linalg.stacked_sqrt_pair": lambda a, kw, r: {
        "matrices": int(np.prod(np.shape(_arg(a, kw, 0, "B"))[:-2]))},
    "mc.fiber_distances": lambda a, kw, r: {"samples": _rows(_arg(a, kw, 1, "points"))},
}


class Tracer:
    def __init__(self):
        # Span i is (invocation, name, parent index or -1, start, end).
        self.spans: list = []
        self.work: dict = {}                 # span index -> counts
        self.count_errors = 0
        self.invocation = 0
        self._stack: list = []
        self._wrappers: dict = {}            # original function -> wrapper
        self._rebound: list = []             # (module, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name):
        spans, work, stack = self.spans, self.work, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (self.invocation, name, parent, t0, t1)
            if counter is not None:
                try:
                    work[idx] = counter(args, kwargs, result)
                except (LookupError, TypeError, ValueError, AttributeError):
                    self.count_errors += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def targets(self) -> dict:
        """Public functions to trace, as {function: span name}."""
        out = {}
        for layer in LAYERS:
            mod = sys.modules[f"fiberloc.{layer}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    out[obj] = f"{layer}.{attr}"
        layer, attr = ENTRY
        out[getattr(sys.modules[f"fiberloc.{layer}"], attr)] = f"{layer}.{attr}"
        return out

    def install(self) -> None:
        """Wrap the targets and rebind every fiberloc module attribute that
        refers to one of them."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        import fiberloc.cli  # noqa: F401  (loads every layer)
        targets = self.targets()
        for fn, name in targets.items():
            if fn not in self._wrappers:
                self._wrappers[fn] = self._wrap(fn, name)
        for modname, mod in list(sys.modules.items()):
            if modname != "fiberloc" and not modname.startswith("fiberloc."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in targets:
                    setattr(mod, attr, self._wrappers[obj])
                    self._rebound.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- summaries ----------------------------------------------------------

    def summarize(self, first: int) -> dict:
        """Per span name: calls, total and self seconds, and summed counts,
        over the spans recorded from index `first` on. Self time is a span's
        duration minus the durations of its direct children (calls nest, so
        children never overlap)."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for _, _, parent, t0, t1 in spans:
            if parent >= first:
                child[parent] += t1 - t0
        agg: dict = defaultdict(lambda: defaultdict(float))
        for idx, (_, name, _, t0, t1) in enumerate(spans, start=first):
            row = agg[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[idx]
            for key, n in self.work.get(idx, {}).items():
                row[key] += n
        return {name: {k: v if k.endswith("_s") else int(v) for k, v in row.items()}
                for name, row in agg.items()}

    def dump(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for idx, (inv, name, parent, t0, t1) in enumerate(self.spans):
                rec = {"id": idx, "invocation": inv, "name": name,
                       "parent": parent, "start": t0, "end": t1}
                if idx in self.work:
                    rec["work"] = self.work[idx]
                fh.write(json.dumps(rec) + "\n")
