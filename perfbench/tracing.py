"""Spans around the calls into each gf2matroid layer, and the per-layer numbers.

Tracing swaps module attributes for wrappers while a ``Tracer.installed``
block runs, and puts the originals back when it ends.  Each wrapper sits
in the namespace of the caller: ``cli.critical_number`` is wrapped, not
``matroid.critical_number``, and ``search.kernels`` is replaced by a proxy.
Recursion and helper calls inside one module therefore make no spans;
only calls that cross from one module into another do.  Pool workers are
not traced: the pool shows as one span around its lifetime.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None  # index into Tracer.spans
    job: Optional[str] = None
    nodes: int = 0  # search nodes, on kernel and attempt spans


class Tracer:
    """Keeps spans in memory, in the order they were opened."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.job: Optional[str] = None
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent=parent, job=self.job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def wrap(self, name: str, fn: Callable, nodes_at: Optional[int] = None) -> Callable:
        """fn inside a span; nodes_at picks the node count out of a result tuple."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if nodes_at is not None:
                self.spans[index].nodes = out[nodes_at]
            return out

        return traced

    @contextmanager
    def installed(self, g):
        """Route the calls between gf2matroid modules through spans."""
        table = _patches(self, g)
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in table]
        try:
            for owner, attr, new in table:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)


class _KernelProxy:
    """Stands in for the kernel module as search.py sees it."""

    def __init__(self, tracer: Tracer, mod) -> None:
        self._mod = mod
        self.forward_search = tracer.wrap(
            "kernels.forward_search", mod.forward_search, nodes_at=2
        )
        self.complement_search = tracer.wrap(
            "kernels.complement_search", mod.complement_search, nodes_at=2
        )

    def __getattr__(self, name):
        return getattr(self._mod, name)


def _eager(fn: Callable) -> Callable:
    """A generator function made to finish inside its span."""

    @functools.wraps(fn)
    def listed(*args):
        return iter(list(fn(*args)))

    return listed


def _traced_pool(tracer: Tracer, base: type) -> type:
    class TracedPool(base):
        def __enter__(self):
            self._span = tracer.open("search.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)

    return TracedPool


def _patches(tracer: Tracer, g) -> List[Tuple[object, str, object]]:
    cli, search, w = g.cli, g.search, tracer.wrap
    table = [
        (g, "parse", w("files.parse", g.parse)),
        (g, "is_isomorphic", w("matroid.is_isomorphic", g.is_isomorphic)),
        (cli, "analysis_dict", w("cli.analysis_dict", cli.analysis_dict)),
        (search, "kernels", _KernelProxy(tracer, search.kernels)),
        # one attempt is one pass of max_size's weaken-and-retry loop
        (search, "_run_forward", w("search.attempt", search._run_forward, nodes_at=2)),
        (
            search,
            "ProcessPoolExecutor",
            _traced_pool(tracer, search.ProcessPoolExecutor),
        ),
        (
            search,
            "enumerate_subspaces",
            w("gf2.enumerate_subspaces", _eager(search.enumerate_subspaces)),
        ),
        (
            search.ConstraintSet,
            "satisfied_by",
            w("search.satisfied_by", search.ConstraintSet.satisfied_by),
        ),
    ]
    for name in ("max_size", "max_size_complement", "verify_theorem"):
        fn = w("search." + name, getattr(search, name))
        table += [(g, name, fn), (search, name, fn)]
    for name in ("extremal_odd_girth", "bose_burton", "extremal_gs"):
        table.append((search, name, w("constructions.build", getattr(search, name))))
    for name in ("odd_girth", "is_affine", "critical_number", "has_pg_restriction"):
        for mod in (cli, search):
            table.append((mod, name, w("matroid." + name, getattr(mod, name))))
    return table


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Summary:
    """Per-name totals over a list of spans."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = spans
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.nodes: Dict[str, int] = defaultdict(int)
        for i, (s, own) in enumerate(zip(spans, self_times(spans))):
            self.calls[s.name] += 1
            self.self_s[s.name] += own
            self.nodes[s.name] += s.nodes
            if not self._inside(i, s.name):  # nested same-name time counts once
                self.busy[s.name] += s.end - s.start

    def _inside(self, index: int, name: str) -> bool:
        p = self.spans[index].parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def children(self, index: int, name: str) -> List[Span]:
        return [s for s in self.spans if s.parent == index and s.name == name]

    def indices(self, name: str) -> List[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: Sequence[Span]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from one traced batch; 0 where a layer did not run."""
    t = Summary(spans)
    out: Dict[str, Tuple[float, str]] = {}
    for k in ("kernels.forward_search", "kernels.complement_search"):
        out[k + ".calls"] = (t.calls[k], "count")
        out[k + ".nodes"] = (t.nodes[k], "count")
        out[k + ".busy_s"] = (t.busy[k], "s")
        out[k + ".nodes_per_s"] = (_ratio(t.nodes[k], t.busy[k]), "1/s")
    for k in ("search.max_size", "search.max_size_complement", "search.verify_theorem"):
        out[k + ".calls"] = (t.calls[k], "count")
        out[k + ".busy_s"] = (t.busy[k], "s")
        out[k + ".self_s"] = (t.self_s[k], "s")
    retries, last_nodes, all_nodes = 0, 0, 0
    for i in t.indices("search.max_size"):
        attempts = t.children(i, "search.attempt")
        if attempts:
            retries += len(attempts) - 1
            last_nodes += attempts[-1].nodes
            all_nodes += sum(a.nodes for a in attempts)
    out["search.max_size.retry_calls"] = (retries, "count")
    out["search.max_size.useful_nodes_frac"] = (_ratio(last_nodes, all_nodes), "ratio")
    out["search.satisfied_by.busy_s"] = (t.busy["search.satisfied_by"], "s")
    out["search.pool.busy_s"] = (t.busy["search.pool"], "s")
    for k in ("gf2.enumerate_subspaces", "constructions.build"):
        out[k + ".calls"] = (t.calls[k], "count")
        out[k + ".busy_s"] = (t.busy[k], "s")
    invariants = (
        "odd_girth",
        "is_affine",
        "critical_number",
        "has_pg_restriction",
        "is_isomorphic",
    )
    for inv in invariants:
        k = "matroid." + inv
        out[k + ".calls"] = (t.calls[k], "count")
        out[k + ".busy_s"] = (t.busy[k], "s")
    in_analysis = sum(
        len(t.children(i, "matroid.has_pg_restriction"))
        for i in t.indices("cli.analysis_dict")
    )
    out["matroid.has_pg_restriction.calls_per_set"] = (
        _ratio(in_analysis, t.calls["cli.analysis_dict"]),
        "calls/set",
    )
    for k in ("files.parse", "cli.analysis_dict"):
        out[k + ".calls"] = (t.calls[k], "count")
        out[k + ".busy_s"] = (t.busy[k], "s")
    out["cli.analysis_dict.self_s"] = (t.self_s["cli.analysis_dict"], "s")
    lat = [spans[i].end - spans[i].start for i in t.indices("cli.analysis_dict")]
    p50 = p90 = 0.0
    if len(lat) > 1:
        p50 = statistics.median(lat)
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
    out["cli.analysis_dict.p50_s"] = (p50, "s")
    out["cli.analysis_dict.p90_s"] = (p90, "s")
    return out


def job_attempts(spans: Sequence[Span]) -> Dict[str, int]:
    """Number of max_size retries made under each job."""
    t = Summary(spans)
    out: Dict[str, int] = defaultdict(int)
    for i in t.indices("search.max_size"):
        n = len(t.children(i, "search.attempt"))
        out[spans[i].job] += max(0, n - 1)
    return out
