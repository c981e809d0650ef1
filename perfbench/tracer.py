"""In-memory span tracer that wraps afdmest's public functions from outside.

Every public function (a name in its defining module's ``__all__``) is
replaced, in every layer module that holds it, by a wrapper that records a
span: name, start, end, parent span, frame id and phase. Names imported
into other modules are wrapped too (``estimator.daft_matrix``,
``harness.apply_los_channel``, ``baselines.effective_column``), so calls
between layers are seen wherever they are looked up at call time. Nothing
under ``src/`` changes; ``restore`` puts every original attribute back.

Spans recorded inside pool worker processes stay in those processes and
are lost; only the calling process's spans are available.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
import types
from collections import defaultdict

class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []  # (name, start, end, parent, frame, phase)
        self.frame = None
        self.phase = "setup"
        self.installed = False
        self._stack: list = []
        self._plan: list = []  # (module, attribute, original, wrapper)
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                name = self._span_name(obj)
                if name is not None:
                    self._plan.append((mod, attr, obj, self._wrap(name, obj)))

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        for mod, attr, obj, wrapper in self._plan:
            if getattr(mod, attr) is not obj:
                raise RuntimeError(f"{mod.__name__}.{attr} changed since the tracer was made")
            setattr(mod, attr, wrapper)
        self.installed = True

    def restore(self) -> None:
        for mod, attr, obj, _ in self._plan:
            setattr(mod, attr, obj)
        self.installed = False

    def wrapped(self) -> list:
        """(module, attribute, original) for every attribute the tracer replaces."""
        return [(mod, attr, obj) for mod, attr, obj, _ in self._plan]

    def _span_name(self, obj) -> str | None:
        if not isinstance(obj, types.FunctionType):
            return None
        owner = obj.__module__ or ""
        layer = owner.rpartition(".")[2]
        if not owner.startswith("afdmest.") or layer not in self.modules:
            return None
        if obj.__name__ not in getattr(sys.modules[owner], "__all__", ()):
            return None
        return f"{layer}.{obj.__name__}"

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.frame, self.phase)

        return traced


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus its children's durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, child)]


def summarize(spans: list, phase: str, scaled=None) -> dict:
    """Per span name, over the spans of one phase: calls, self-time p50 in
    ms, total duration in s, and the call count per frame id. ``scaled``,
    given, maps an interval (t0, t1) to its duration at nominal speed."""
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"self": [], "dur": 0.0, "frames": defaultdict(int)})
    for (name, start, end, _, frame, ph), st in zip(spans, selfs):
        if ph != phase:
            continue
        rec = by_name[name]
        if scaled is not None:
            st, end = scaled(start, start + st), start + scaled(start, end)
        rec["self"].append(st)
        rec["dur"] += end - start
        if frame is not None:
            rec["frames"][frame] += 1
    out = {}
    for name, rec in by_name.items():
        per_frame = list(rec["frames"].values())
        out[name] = {
            "calls": len(rec["self"]),
            "self_ms_p50": 1e3 * statistics.median(rec["self"]),
            "total_s": rec["dur"],
            "calls_per_frame": statistics.median(per_frame) if per_frame else None,
        }
    return out


def root_totals(spans: list, phase: str, root: str) -> list:
    """Per span named ``root`` in ``phase``: its start, the sum of the self
    times of it and every span below it in s (equal to the root's traced
    duration), and the number of those spans."""
    selfs = self_times(spans)
    owner = [-1] * len(spans)
    totals, counts = {}, {}
    for i, (name, _, _, parent, _, ph) in enumerate(spans):
        # a parent is always recorded before its children
        if ph != phase:
            continue
        if name == root and (parent < 0 or owner[parent] < 0):
            owner[i] = i
            totals[i], counts[i] = 0.0, 0
        elif parent >= 0:
            owner[i] = owner[parent]
        if owner[i] >= 0:
            totals[owner[i]] += selfs[i]
            counts[owner[i]] += 1
    return [(spans[i][1], total, counts[i]) for i, total in totals.items()]


def span_cost_us(repeats: int = 20000) -> float:
    """Measured cost of one traced call over a bare call, in microseconds."""

    def noop():
        return None

    traced = Tracer({})._wrap("noop", noop)
    clock = time.perf_counter
    bare, wrapped = [], []
    for _ in range(5):
        for fn, times in ((noop, bare), (traced, wrapped)):
            t0 = clock()
            for _ in range(repeats):
                fn()
            times.append(clock() - t0)
    return 1e6 * (min(wrapped) - min(bare)) / repeats


def write_spans(spans: list, path) -> None:
    """Write spans as gzipped tab-separated lines: name, start, end, parent,
    frame, phase (times unscaled, in s)."""
    with gzip.open(path, "wt", compresslevel=1) as f:
        f.write("name\tstart_s\tend_s\tparent\tframe\tphase\n")
        for name, start, end, parent, frame, phase in spans:
            f.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{frame}\t{phase}\n")
