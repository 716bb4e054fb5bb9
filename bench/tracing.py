"""Per-module spans and counters for an in-process agglorank run.

The tracer looks a function up in the module that defines it, then replaces
every reference to that same function object in every loaded ``agglorank``
module: the names callers actually look up, such as
``agglorank.agglomeration.distance_sum`` or ``agglorank.cli.render_rank``.
Each call then records a span (layer, parent span, start and end in
``perf_counter_ns``) in memory, and optionally bumps counters computed from
its arguments and result after the span has ended.  A function that no
longer exists is skipped, so its layer reports zero calls.

Spans nest per thread.  A span opened on a worker thread with nothing open
on it takes the innermost open span of the installing thread as its parent,
which is where thread pools inside the program are started from.  Layer
times then add up over threads, so under ``--jobs 2`` a layer's seconds can
exceed the wall time of its caller.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _count_parse(c, args, result):
    c["graph.parse.bytes"] += len(args[0].encode())


def _count_distance_sum(c, args, result):
    g = args[0]
    c["graph.distance_sum.nodes"] += g.n
    c["graph.distance_sum.arc_scans"] += g.n * sum(map(len, g.adj))


def _count_contract(c, args, result):
    c["contraction.contract.nodes_out"] += result.graph.n
    c["contraction.contract.edges_out"] += result.graph.edge_count()


def _count_imc_all(c, args, result):
    bits = max(entry.imc.denominator.bit_length() for entry in result.entries)
    c["agglomeration.imc_den_bits_max"] = max(c["agglomeration.imc_den_bits_max"], bits)


def _count_generate(c, args, result):
    c["families.generate.nodes"] += result.graph.n


def _count_verify(c, args, result):
    c["verify.specs"] += len({row.spec for row in result.rows})
    c["verify.rows"] += len(result.rows)
    c["verify.mismatches"] += result.mismatches


def _count_render(c, args, result):
    c["reports.render.bytes"] += len(result.encode())


@dataclass(frozen=True)
class Probe:
    """Trace the named functions of ``module`` as ``layer``; no names means
    every public function the module defines."""

    layer: str
    module: str
    names: tuple[str, ...] = ()
    count: Callable | None = None


PROBES = (
    Probe("graph.parse", "agglorank.graph", ("parse_edge_list",), _count_parse),
    Probe("graph.to_edge_list", "agglorank.graph", ("to_edge_list",)),
    Probe("graph.distance_sum", "agglorank.graph", ("distance_sum",), _count_distance_sum),
    Probe("graph.bfs_distances", "agglorank.graph", ("bfs_distances",)),
    Probe("contraction.contract", "agglorank.contraction", ("contract",), _count_contract),
    Probe("agglomeration.imc_all", "agglorank.agglomeration", ("imc_all",), _count_imc_all),
    Probe("agglomeration.phi", "agglorank.agglomeration", ("phi",)),
    Probe("agglomeration.average_path_length", "agglorank.agglomeration",
          ("average_path_length",)),
    Probe("families.generate", "agglorank.families", ("generate",), _count_generate),
    Probe("families.scan_class_comments", "agglorank.families", ("scan_class_comments",)),
    Probe("closed_forms", "agglorank.closed_forms"),
    Probe("verify.verify_family", "agglorank.verify", ("verify_family",), _count_verify),
    Probe("reports.render", "agglorank.reports",
          ("render_rank", "render_phi", "render_verify"), _count_render),
)


class _Span:
    __slots__ = ("layer", "parent", "start", "end", "outer")

    def __init__(self, layer: str, parent: _Span | None):
        self.layer = layer
        self.parent = parent
        # Only the outermost span of a layer adds to its total time.
        while parent is not None and parent.layer != layer:
            parent = parent.parent
        self.outer = parent is None
        self.start = time.perf_counter_ns()
        self.end = 0


@dataclass
class LayerTotals:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


def _covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    covered, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


class Tracer:
    """Install with ``with tracer.installed():``; read ``totals()`` and ``counters``."""

    def __init__(self, probes: tuple[Probe, ...] = PROBES):
        self.probes = probes
        self.spans: list[_Span] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.counter_errors = 0
        self.counter_ns = 0
        self.missing: list[str] = []
        self._counter_lock = threading.Lock()  # the program may call from pool threads
        self._local = threading.local()
        self._root: list[_Span] = []

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str) -> tuple[list[_Span], _Span]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._root[-1] if self._root else None)
        span = _Span(layer, parent)
        stack.append(span)
        return stack, span

    def _close(self, stack: list[_Span], span: _Span) -> None:
        span.end = time.perf_counter_ns()
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, layer: str):
        stack, span = self._open(layer)
        try:
            yield
        finally:
            self._close(stack, span)

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        layer, count, open_, close = probe.layer, probe.count, self._open, self._close

        def traced(*args, **kwargs):
            stack, span = open_(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stack, span)
            if count is not None:
                with self._counter_lock:
                    start = time.perf_counter_ns()
                    try:
                        count(self.counters, args, result)
                    except (AttributeError, TypeError, ValueError, IndexError, KeyError):
                        self.counter_errors += 1
                    self.counter_ns += time.perf_counter_ns() - start
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        # A module first imported while patched would bind a wrapper for good.
        package = importlib.import_module("agglorank")
        for info in pkgutil.walk_packages(package.__path__, "agglorank."):
            if not info.name.endswith(".__main__"):
                importlib.import_module(info.name)
        patches = []
        self._root = self._stack()
        try:
            for probe in self.probes:
                try:
                    module = importlib.import_module(probe.module)
                except ImportError:
                    self.missing.append(probe.layer)
                    continue
                names = probe.names or tuple(
                    name for name, value in vars(module).items()
                    if inspect.isfunction(value) and value.__module__ == module.__name__
                    and not name.startswith("_"))
                found = False
                for name in names:
                    fn = getattr(module, name, None)
                    if not callable(fn):
                        continue
                    found = True
                    wrapper = self._wrap(probe, fn)
                    holders = [m for key, m in list(sys.modules.items())
                               if key == "agglorank" or key.startswith("agglorank.")]
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is fn:
                                setattr(holder, attr, wrapper)
                                patches.append((holder, attr, fn))
                if not found:
                    self.missing.append(probe.layer)
            yield self
        finally:
            for holder, attr, fn in reversed(patches):
                setattr(holder, attr, fn)

    def overhead_s(self, span_ns: float) -> float:
        """Time tracing added: the cost of each span plus the counters' own time."""
        return (len(self.spans) * span_ns + self.counter_ns) / 1e9

    def totals(self) -> defaultdict[str, LayerTotals]:
        """Calls, total seconds (outermost spans) and self seconds per layer."""
        children: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append((span.start, span.end))
        totals: defaultdict[str, LayerTotals] = defaultdict(LayerTotals)
        for span in self.spans:
            t = totals[span.layer]
            duration = span.end - span.start
            t.calls += 1
            if span.outer:
                t.s += duration / 1e9
            t.self_s += (duration - _covered_ns(children[id(span)], span.start, span.end)) / 1e9
        return totals


def span_cost_ns(calls: int = 10_000, rounds: int = 5) -> float:
    """Median extra cost of one traced call over a plain call, on a no-op."""
    def noop():
        return None

    traced = Tracer(())._wrap(Probe("calibration", __name__), noop)
    costs = []
    for _ in range(rounds):
        elapsed = []
        for fn in (noop, traced):
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            elapsed.append(time.perf_counter_ns() - start)
        costs.append((elapsed[1] - elapsed[0]) / calls)
    return statistics.median(costs)
