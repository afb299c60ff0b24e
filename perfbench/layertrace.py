"""Layer spans and counters for one CLI command, recorded from outside.

The tracer wraps public functions of the package's modules: it looks up
each function in its home module and replaces every module-level
reference to it (the home module and every module that imported it by
name), so calls between layers pass through a wrapper that records a
span (name, start, end, parent) and the work the call was given.
Nothing inside the package is edited.

Each thread keeps its own parent stack.  A span opened on a thread whose
stack is empty (a worker of the CLI's thread pool) takes the outermost
span of the command, the ``cli.run`` call, as its parent, so spans of a
threaded command still nest under the command that caused them.

Spans are kept in memory, appended to one list when they close (an
append is atomic, so the hot path takes no lock), and written out once,
by ``write``, after the command has finished.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np

LAYERS = ("model", "kernel", "search", "estimator", "cli")


def _one(args, kwargs, result) -> int:
    return 1


def _tol_miss(args, kwargs, result) -> int:
    return int(not getattr(result, "tol_ok", True))


def _radii(args, kwargs, result) -> int:
    return int(np.size(kwargs["rs"] if "rs" in kwargs else args[3]))


# (layer, home module, function, amount).  A span is recorded for every
# call; ``amount`` turns the call into the number its counter adds up.
SPANNED = (
    ("model", "morreyconst.model", "canonicalize", None),
    ("model", "morreyconst.model", "add", None),
    ("model", "morreyconst.model", "subtract", None),
    ("model", "morreyconst.model", "scale", None),
    ("model", "morreyconst.model", "truncate", None),
    ("model", "morreyconst.model", "parse_function", None),
    # one ball each; the amount is whether it missed its tolerance
    ("kernel", "morreyconst.integrate", "integrate_abs_pow_ball", _tol_miss),
    # one ball per radius of the row
    ("kernel", "morreyconst.integrate", "ball_integrals_n1", _radii),
    ("kernel", "morreyconst.integrate", "centered_integrals", _radii),
    ("search", "morreyconst.norms", "norm", None),
    ("estimator", "morreyconst.constants", "ratio", None),
    ("estimator", "morreyconst.constants", "estimate_constant", None),
    ("cli", "morreyconst.cli", "run", None),
    ("cli", "morreyconst.report", "render_json", None),
    ("cli", "morreyconst.report", "render_csv", None),
)

# Called once per adaptive quadrature round: its points are counted, but
# no span is recorded, to keep the tracing overhead off the kernel's
# inner loop.
POINTS = ("morreyconst.geometry", "cap_fraction_radii")


class Tracer:
    """Spans and counters of one process; install once, before the command."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._root = -1
        self.names: list[str] = []
        self._layer_of_name: list[int] = []
        self._name_id: dict[str, int] = {}
        # (id, name id, parent id, thread ident, start, end, amount)
        self.spans: list[tuple] = []
        self.points: list[int] = []
        self.present: set[str] = set()
        self.norm_requests = 0
        self.norm_distinct = 0
        self.ratio_requests = 0
        self.ratio_repeats = 0
        self._seen: set[tuple] = set()
        self._norm_signature = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, module, func, amount in SPANNED:
            original = self._find(module, func)
            if original is not None:
                self._replace(original, self._spanned(layer, func, original, amount))
        original = self._find(*POINTS)
        if original is not None:
            self._replace(original, self._counted(original))

    def _find(self, module_name: str, func: str):
        original = getattr(sys.modules.get(module_name), func, None)
        if original is not None:
            self.present.add(func)
        return original

    @staticmethod
    def _replace(original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "morreyconst" and not name.startswith("morreyconst."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _counted(self, original):
        points = self.points

        def wrapper(*args, **kwargs):
            points.append(int(np.size(kwargs["t"] if "t" in kwargs else args[1])))
            return original(*args, **kwargs)

        return wrapper

    def _spanned(self, layer: str, func: str, original, amount):
        name_id = len(self.names)
        self.names.append(f"{layer}.{func}")
        self._layer_of_name.append(LAYERS.index(layer))
        self._name_id[func] = name_id
        if func == "norm":
            self._norm_signature = inspect.signature(original)
            after = self._after_norm
        else:
            after = None
        local, ids, spans = self._local, self._ids, self.spans
        clock, ident = time.perf_counter, threading.get_ident

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            idx = next(ids)
            if stack:
                parent = stack[-1][0]
            else:
                parent = self._root
                if parent < 0:
                    self._root = idx
            stack.append((idx, name_id))
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans.append((idx, name_id, parent, ident(), start, clock(), 0))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans.append((idx, name_id, parent, ident(), start, end,
                          amount(args, kwargs, result) if amount else 0))
            if after is not None:
                after(args, kwargs, stack)
            return result

        return wrapper

    def _after_norm(self, args, kwargs, stack) -> None:
        bound = self._norm_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(bound.arguments.values())
        ratio_id = self._name_id.get("ratio")
        in_ratio = any(name == ratio_id for _, name in stack)
        with self._lock:
            repeat = key in self._seen
            self._seen.add(key)
            self.norm_requests += 1
            self.norm_distinct += not repeat
            if in_ratio:
                self.ratio_requests += 1
                self.ratio_repeats += repeat

    # -- summary and output --------------------------------------------------

    def _columns(self) -> dict[str, np.ndarray]:
        table = sorted(self.spans)
        cols = list(zip(*table)) if table else [()] * 7
        thread = np.unique(np.array(cols[3], dtype=np.int64), return_inverse=True)[1]
        return {
            "name": np.array(cols[1], dtype=np.int32),
            "parent": np.array(cols[2], dtype=np.int64),
            "thread": thread.astype(np.int32),
            "start": np.array(cols[4], dtype=float),
            "end": np.array(cols[5], dtype=float),
            "amount": np.array(cols[6], dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per-layer entries, busy and self time, and the counters.

        A span's self time is its duration minus the union of its child
        spans' intervals (children on pool threads may overlap).  A
        layer's busy time sums the spans entered from another layer, so
        a layer calling itself is not counted twice; with threads it can
        exceed the wall time.
        """
        c = self._columns()
        name, parent, start, end = c["name"], c["parent"], c["start"], c["end"]
        layer = np.array(self._layer_of_name, dtype=np.int32)[name] if name.size else name
        duration = end - start

        covered = [0.0] * len(start)
        starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
        reach, current = 0.0, -1
        for i in np.lexsort((start, parent)).tolist():
            p = parents[i]
            if p < 0:
                continue
            if p != current:
                current, reach = p, starts[i]
            lo = max(starts[i], reach)
            if ends[i] > lo:
                covered[p] += ends[i] - lo
                reach = ends[i]
        self_time = duration - np.array(covered)
        parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
        entry = parent_layer != layer

        def of(*funcs: str) -> np.ndarray:
            ids = [self._name_id[f] for f in funcs if f in self._name_id]
            return np.isin(name, ids)

        ball_calls = of("integrate_abs_pow_ball")
        kernel_parents = np.unique(parent[(layer == LAYERS.index("kernel")) & (parent >= 0)])
        out: dict = {
            "spans": int(len(start)),
            "kernel.balls": int(np.count_nonzero(ball_calls))
            + int(c["amount"][of("ball_integrals_n1", "centered_integrals")].sum()),
            "kernel.points": int(sum(self.points)),
            "kernel.tol_miss": int(c["amount"][ball_calls].sum()),
            "search.requests": self.norm_requests,
            "search.distinct": self.norm_distinct,
            # a norm request that reached the kernel computed its norm; the
            # others were answered by the norm cache or needed no quadrature
            "search.computed": int(np.count_nonzero(of("norm")[kernel_parents])),
            "estimator.ratios": int(np.count_nonzero(of("ratio"))),
            "estimator.requests": self.ratio_requests,
            "estimator.repeats": self.ratio_repeats,
            "report.render_s": float(duration[of("render_json", "render_csv")].sum()),
        }
        for k, layer_name in enumerate(LAYERS):
            mine = layer == k
            out[f"{layer_name}.calls"] = int(np.count_nonzero(mine & entry))
            out[f"{layer_name}.busy_s"] = float(duration[mine & entry].sum())
            out[f"{layer_name}.self_s"] = float(self_time[mine].sum())
        return out

    def write(self, path: str, summary: dict) -> None:
        """Spans as flat arrays (index = span id), with the summary as JSON."""
        c = self._columns()
        np.savez(
            path,
            **{f"span_{key}": value for key, value in c.items()},
            names=np.array(self.names),
            summary=np.array(json.dumps(summary, sort_keys=True)),
        )
