"""Spans around the calls into each pointpd layer, recorded from outside.

`Tracer.install` replaces each layer's public entry points at every module
attribute through which callers reach them (``pointpd.cli.build_complex``,
``pointpd.constructions.compute_pd``, ...) with a wrapper that records a
span: name, start, end, parent span and op id. Spans stay in memory and are
written out once at the end. A span's self time is its duration minus the
time covered by its child spans, so the self times of one op add up to the
op's wall time. Call results are counted right after each span closes,
so counting never runs inside a timed layer and keeps no result alive.
"""

from __future__ import annotations

import gc
import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable


def _arg(args: tuple, kwargs: dict, pos: int, key: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[key]


def _kind(args: tuple, kwargs: dict) -> str:
    kind = _arg(args, kwargs, 1, "kind")
    return str(getattr(kind, "value", kind))


# (defining module, function, span name or namer)
ENTRY_POINTS: list[tuple[str, str, str | Callable[[tuple, dict], str]]] = [
    ("pointpd.cli", "main", "cli.main"),
    ("pointpd.cloudfile", "read_cloud", "cloudfile.read"),
    ("pointpd.filtration", "build_complex", lambda a, k: "filtration.build_" + _kind(a, k)),
    ("pointpd.persistence", "compute_pd", lambda a, k: f"persistence.pd{_arg(a, k, 1, 'dim')}"),
    ("pointpd.persistence", "bottleneck_distance", "persistence.bottleneck"),
    ("pointpd.persistence", "diagram_equal", "persistence.diagram_equal"),
    ("pointpd.persistence", "gap_stats", "persistence.gap_stats"),
    ("pointpd.edges", "classify_all", "edges.classify"),
    ("pointpd.constructions", "generate_tail", "constructions.generate_tail"),
    ("pointpd.constructions", "attach_tail", "constructions.attach"),
    ("pointpd.constructions", "validate_tail", "constructions.verify"),
    ("pointpd.constructions", "verify_long_wedge", "constructions.verify"),
    ("pointpd.constructions", "verify_tail_theorem", "constructions.verify"),
    ("pointpd.experiments", "persistence_histogram", "experiments.run"),
    ("pointpd.experiments", "gap_ratio_sweep", "experiments.run"),
    ("pointpd.experiments", "derive_rng", "experiments.sample"),
    ("pointpd.experiments", "sample_uniform_cube", "experiments.sample_cloud"),
]

MODULES = [
    "pointpd.cli",
    "pointpd.cloudfile",
    "pointpd.constructions",
    "pointpd.edges",
    "pointpd.experiments",
    "pointpd.filtration",
    "pointpd.persistence",
]


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, op id, counting seconds inside]
        self.spans: list[list] = []
        self.raised: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[Any, str, Any]] = []
        self._gc_start: float | None = None

    # ---------------------------------------------------------- spans

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op, 0.0])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn: Callable[[], Any]) -> Any:
        """Run one op under a root span named ``op``."""
        self._op = op_id
        idx = self._open("op")
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, fn: Callable, namer: str | Callable[[tuple, dict], str]) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer._stack:  # outside an op, e.g. in a check
                return fn(*args, **kwargs)
            name = namer if isinstance(namer, str) else namer(args, kwargs)
            idx = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] += 1
                raise
            finally:
                tracer._close(idx)
                t0 = time.perf_counter()
                tracer._count(name, args, result)
                tracer.spans[tracer._stack[-1]][5] += time.perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------ install

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for home, attr, namer in ENTRY_POINTS:
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(original, namer)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        """Time collections that run inside an op; checks run outside."""
        if phase == "start":
            self._gc_start = time.perf_counter() if self._stack else None
        elif self._gc_start is not None:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # ------------------------------------------------------ results

    def _count(self, name: str, args: tuple, result: Any) -> None:
        """Add a call's work to the counters, from its arguments and result.

        A complex's edge and triangle lists are the public properties the
        package's own callers read next, so reading them here moves that
        filtering out of the next layer's span. Counting time is subtracted
        from the enclosing span and reported as unattributed.
        """
        c = self.counts
        if name == "persistence.bottleneck":
            c["persistence.bottleneck_pairs"] += sum(len(d.finite_pairs) for d in args[:2])
        elif result is None:
            return
        elif name.startswith("filtration.build_"):
            edges, triangles = len(result.edges), len(result.triangles)
            c["filtration.edges"] += edges
            c["filtration.triangles"] += triangles
            c["filtration.simplices"] += result.n_vertices + edges + triangles
        elif name in ("persistence.pd0", "persistence.pd1"):
            c["persistence.pairs" + name[-1]] += len(result)
        elif name == "edges.classify":
            for cls in result.values():
                c["edges." + cls.value] += 1
        elif name == "experiments.sample_cloud":
            c["experiments.trials"] += 1

    def self_times(self) -> dict[str, float]:
        """Duration minus child spans minus counting, summed per name; the
        counting time of all spans is reported under ``count``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _, counting), inner in zip(self.spans, child):
            out[name] += end - start - inner - counting
            out["count"] += counting
        return out

    def inclusive_times(self) -> dict[str, float]:
        """Summed duration of outermost spans of each name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent < 0 or self.spans[parent][0] != name:
                out[name] += end - start
        return out

    def count_under(self, prefix: str, ancestor_prefix: str) -> int:
        """Spans named prefix* that run inside a span named ancestor_prefix*."""
        total = 0
        for name, _, _, parent, _, _ in self.spans:
            if not name.startswith(prefix):
                continue
            while parent >= 0:
                if self.spans[parent][0].startswith(ancestor_prefix):
                    total += 1
                    break
                parent = self.spans[parent][3]
        return total

    def write(self, path: str, t0: float) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, counting in self.spans:
                record = {"name": name, "start": start - t0, "end": end - t0, "parent": parent, "op": op, "counting": counting}
                fh.write(json.dumps(record) + "\n")
