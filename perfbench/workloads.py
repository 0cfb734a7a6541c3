"""The four workloads: their jobs, seeded inputs and answer checks.

Every job calls the public API through module attributes (``g.max_size``,
``g.cli.analysis_dict``), looked up at call time, so the tracer's patches
see the benchmark's own calls.  A job returns its output; its check,
which runs after the timed batch, returns None or the reason it failed.

The search workloads are fixed job lists whose optima are closed forms;
the seed only permutes their order.  ``analyze`` draws its point sets,
relabelling maps and control pairs from the seed and hands them to the
program only as point-set text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

NAMES = ("forward", "complement", "analyze", "forward-pool")

# analyze: a fixed grid of (rank, density) cells with fixed repeats, so the
# work in a batch changes little from seed to seed.  Rank 8 is left out:
# one rank-8 set costs seconds.
RANKS = (5, 6, 7)
DENSITIES = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
REPEATS = {5: 8, 6: 8, 7: 4}
PAIR_CELLS = [(r, d) for d in (0.2, 0.4, 0.6, 0.8) for r in (5, 6)]

# largest point set for which the answer check enumerates odd subsets,
# and largest rank at which it tries every cocycle cover
BRUTE_GIRTH_MAX_POINTS = 63
BRUTE_CRITICAL_MAX_RANK = 5


@dataclass
class Job:
    name: str
    run: Callable[[float], object]  # safety budget in seconds -> output
    check: Callable[[object], Optional[str]]
    serial: Optional["Job"] = None  # the same job at threads=1, for pool jobs


# ---------------------------------------------------------------- closed forms


def main_bound(k: int, r: int) -> int:
    """Largest non-affine set with odd girth >= k: k * 2^(r-k+1)."""
    return k << (r - k + 1)


def bose_burton_bound(n: int, r: int) -> int:
    """Largest set with no rank-n flat: 2^r - 2^(r-n+1)."""
    return (1 << r) - (1 << (r - n + 1))


def gs_bound(n: int, r: int) -> int:
    """Largest rank-n-flat-free set with critical number >= n: 2^r - 11 * 2^(r-n-2)."""
    return (1 << r) - 11 * (1 << (r - n - 2))


def expect_search(optimum: int) -> Callable[[object], Optional[str]]:
    def check(rep) -> Optional[str]:
        if not rep.exhaustive:
            return "search not exhaustive"
        if rep.optimum != optimum:
            return f"optimum {rep.optimum}, expected {optimum}"
        size = 0 if rep.witness is None else rep.witness.size
        if size != optimum:
            return f"witness has {size} points, expected {optimum}"
        return None

    return check


def expect_verify(bound: int) -> Callable[[object], Optional[str]]:
    def check(rep) -> Optional[str]:
        if rep.bound != bound or rep.optimum != bound:
            return f"bound {rep.bound}, optimum {rep.optimum}, expected {bound}"
        if not rep.passed:
            return "verification did not pass"
        return None

    return check


# ------------------------------------------------------------ search workloads


def _verify_job(
    g, theorem: str, params: Dict[str, int], bound: int, threads: int = 1
) -> Job:
    label = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return Job(
        f"verify {theorem} {label} threads={threads}",
        lambda budget: g.verify_theorem(
            theorem, params, budget=budget, threads=threads
        ),
        expect_verify(bound),
    )


def _max_size_job(
    g, label: str, r: int, cs, optimum: int, threads: int = 1, **kw
) -> Job:
    return Job(
        f"max_size r={r} {label} threads={threads}",
        lambda budget: g.max_size(r, cs, budget=budget, threads=threads, **kw),
        expect_search(optimum),
    )


def forward_jobs(g) -> List[Job]:
    cs = g.ConstraintSet
    return [
        # affine sets have no odd circuit, and AG(5,2) with 2^5 points is the largest
        _max_size_job(g, "girth>=7", 6, cs(min_odd_girth=7), 1 << 5),
        # no such set exists: a proof by three weaken-and-retry passes
        _max_size_job(
            g, "girth>=5 critical>=3", 5, cs(min_odd_girth=5, min_critical=3), 0
        ),
        _max_size_job(g, "pg-free 4", 5, cs(pg_free_order=4), bose_burton_bound(4, 5)),
        _max_size_job(
            g,
            "girth>=5 non-affine no-symmetry",
            5,
            cs(min_odd_girth=5, forbid_affine=True),
            main_bound(5, 5),
            symmetry_break=False,
        ),
        _verify_job(g, "main", {"k": 5, "r": 4}, main_bound(5, 4)),
        _verify_job(g, "main", {"k": 5, "r": 5}, main_bound(5, 5)),
    ]


def complement_jobs(g) -> List[Job]:
    jobs = [_verify_job(g, "gs", {"n": n, "r": 5}, gs_bound(n, 5)) for n in (2, 3)]
    for n, r in ((2, 5), (3, 5), (4, 5), (4, 6), (5, 6)):
        bound = bose_burton_bound(n, r)
        jobs.append(_verify_job(g, "bose_burton", {"n": n, "r": r}, bound))
    cs = g.ConstraintSet(pg_free_order=4, full_rank=True)
    jobs.append(
        Job(
            "max_size_complement r=6 pg-free 4 full-rank window=63",
            lambda budget: g.max_size_complement(6, cs, 63, budget=budget),
            expect_search(bose_burton_bound(4, 6)),
        )
    )
    return jobs


def pool_jobs(g) -> List[Job]:
    def pair(make) -> Job:
        job = make(2)
        job.serial = make(1)
        return job

    cs = g.ConstraintSet(min_odd_girth=7)
    return [
        pair(lambda t: _max_size_job(g, "girth>=7", 6, cs, 1 << 5, threads=t)),
        pair(
            lambda t: _verify_job(
                g, "main", {"k": 5, "r": 4}, main_bound(5, 4), threads=t
            )
        ),
    ]


# ------------------------------------------------------------------- analyze
# Small GF(2) helpers of the benchmark's own, so the inputs and the checks do
# not lean on the code under test.


def gf2_rank(vectors: Sequence[int]) -> int:
    pivots: Dict[int, int] = {}
    for v in vectors:
        while v:
            p = v.bit_length() - 1
            if p not in pivots:
                pivots[p] = v
                break
            v ^= pivots[p]
    return len(pivots)


def parity(x: int) -> int:
    return bin(x).count("1") & 1


def line_count(points: Sequence[int]) -> int:
    """Number of 3-point lines {a, b, a^b}, a GL-invariant."""
    s = set(points)
    return sum(1 for a in points for b in points if a < b < (a ^ b) and (a ^ b) in s)


def random_gl(rng: random.Random, r: int) -> List[int]:
    """Images of the r unit vectors under a uniformly random invertible map."""
    while True:
        cols = [rng.randrange(1, 1 << r) for _ in range(r)]
        if gf2_rank(cols) == r:
            return cols


def apply_map(cols: Sequence[int], v: int) -> int:
    r, out = len(cols), 0
    for i in range(r):
        if (v >> (r - 1 - i)) & 1:
            out ^= cols[i]
    return out


def size_of(r: int, density: float) -> int:
    return max(1, round(density * ((1 << r) - 1)))


def random_points(
    rng: random.Random, r: int, k: int, full_rank: bool = False
) -> List[int]:
    while True:
        pts = sorted(rng.sample(range(1, 1 << r), k))
        if not full_rank or gf2_rank(pts) == r:
            return pts


def control_partner(rng: random.Random, r: int, pts: Sequence[int]) -> List[int]:
    """Swap one point for another until the line count changes, then relabel.

    A different line count proves the pair is not isomorphic.
    """
    lines = line_count(pts)
    absent = [v for v in range(1, 1 << r) if v not in set(pts)]
    while True:
        out = list(pts)
        out[rng.randrange(len(out))] = rng.choice(absent)
        if gf2_rank(out) == r and line_count(out) != lines:
            cols = random_gl(rng, r)
            return sorted(apply_map(cols, v) for v in out)


def to_text(r: int, pts: Sequence[int]) -> str:
    return "".join([f"rank {r}\n"] + [format(v, f"0{r}b") + "\n" for v in pts])


def family_sets(g) -> Iterator[Tuple[str, int, List[int]]]:
    """The named families at rank 7; the same for every seed."""
    c = g.constructions
    built = [("pg 7", c.pg(7)), ("ag 7", c.ag(7))]
    built += [(f"bose_burton 7 {k}", c.bose_burton(7, k)) for k in (1, 2, 3)]
    built += [(f"extremal_gs {n} 7", c.extremal_gs(n, 7)) for n in (2, 3, 4)]
    built += [(f"extremal_odd_girth {k} 7", c.extremal_odd_girth(k, 7)) for k in (5, 7)]
    for name, m in built:
        yield name, m.ambient_rank, m.point_list()


def analyze_inputs(rng: random.Random, families) -> Tuple[list, list]:
    """(sets, pairs).

    A set is (name, rank, points); a pair is (name, text_a, text_b, isomorphic).
    """
    sets = []
    for r in RANKS:
        for d in DENSITIES:
            for i in range(REPEATS[r]):
                pts = random_points(rng, r, size_of(r, d))
                sets.append((f"random r={r} d={d} #{i}", r, pts))
    sets += list(families)
    pairs = []
    for r, d in PAIR_CELLS:
        a = random_points(rng, r, size_of(r, d), full_rank=True)
        cols = random_gl(rng, r)
        b = sorted(apply_map(cols, v) for v in a)
        pairs.append((f"relabelled r={r} d={d}", to_text(r, a), to_text(r, b), True))
        c = control_partner(rng, r, a)
        pairs.append((f"control r={r} d={d}", to_text(r, a), to_text(r, c), False))
    return sets, pairs


class _FlatOracle:
    """Every rank-d subspace of GF(2)^r as a point mask, cached per (r, d)."""

    def __init__(self, g) -> None:
        self.g = g
        self.cache: Dict[Tuple[int, int], List[int]] = {}

    def has_flat(self, r: int, d: int, points: int) -> bool:
        key = (r, d)
        if key not in self.cache:
            self.cache[key] = [s.point_mask() for s in self.g.enumerate_subspaces(r, d)]
        return any(mask & ~points == 0 for mask in self.cache[key])


def _check_analysis(g, flats: _FlatOracle, r: int, pts: Sequence[int]):
    mask = sum(1 << v for v in pts)

    def check(out) -> Optional[str]:
        m, rep = out
        if m.ambient_rank != r or m.points != mask:
            return "parsed point set differs from the input"
        if rep["rank"] != r or rep["size"] != len(pts):
            return f"rank/size {rep['rank']}/{rep['size']}, expected {r}/{len(pts)}"
        if rep["full_rank"] != (gf2_rank(pts) == r):
            return "full_rank is wrong"
        if rep["affine"] != (rep["odd_girth"] is None):
            return "affine and odd girth disagree"
        if len(pts) <= BRUTE_GIRTH_MAX_POINTS:
            want = g.odd_girth_bruteforce(m).value
            if rep["odd_girth"] != want:
                return f"odd girth {rep['odd_girth']}, brute force says {want}"
        cn, cover = rep["critical_number"], [int(f, 2) for f in rep["cover"]]
        if r <= BRUTE_CRITICAL_MAX_RANK and cn != g.critical_number_bruteforce(m):
            return f"critical number {cn} disagrees with brute force"
        if len(cover) != cn or any(not any(parity(f & v) for f in cover) for v in pts):
            return "cover witness has the wrong size or misses a point"
        n = rep["max_pg_order"]
        if n >= 1:
            flat = g.pg_restriction(m, n)
            basis = [] if flat is None else list(flat.basis)
            span = {0}
            for b in basis:
                span |= {x ^ b for x in span}
            if len(basis) != n or gf2_rank(basis) != n or any(
                not (mask >> v) & 1 for v in span - {0}
            ):
                return f"no rank-{n} flat witness inside the set"
        if n < r and flats.has_flat(r, n + 1, mask):
            return f"a rank-{n + 1} flat lies inside the set"
        return None

    return check


def analyze_jobs(g, rng: random.Random) -> List[Job]:
    flats = _FlatOracle(g)
    sets, pairs = analyze_inputs(rng, family_sets(g))
    jobs = []
    for name, r, pts in sets:
        text = to_text(r, pts)

        def run(budget, text=text):
            m = g.parse(text)
            return m, g.cli.analysis_dict(m)

        jobs.append(Job("analyze " + name, run, _check_analysis(g, flats, r, pts)))
    for name, ta, tb, want in pairs:

        def run_pair(budget, ta=ta, tb=tb):
            return g.is_isomorphic(g.parse(ta), g.parse(tb))

        def check_pair(out, want=want) -> Optional[str]:
            return None if out is want else f"is_isomorphic gave {out}, expected {want}"

        jobs.append(Job("is_isomorphic " + name, run_pair, check_pair))
    return jobs


def build(g, name: str, rng: random.Random) -> List[Job]:
    if name == "forward":
        return forward_jobs(g)
    if name == "complement":
        return complement_jobs(g)
    if name == "analyze":
        return analyze_jobs(g, rng)
    if name == "forward-pool":
        return pool_jobs(g)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def answer(out) -> object:
    """What must repeat exactly between two runs of a job: answers and node counts."""
    if isinstance(out, tuple):  # (matroid, analysis report)
        return out[1]
    if hasattr(out, "passed"):
        return (out.passed, out.bound, out.optimum, out.nodes)
    if hasattr(out, "exhaustive"):
        return (out.optimum, out.exhaustive, out.nodes)
    return out


def nodes(out) -> int:
    return getattr(out, "nodes", 0)


# ------------------------------------------------------------------ lockstep

def _lockstep_calls(g):
    subspaces = [s.point_mask() for s in g.enumerate_subspaces(5, 3)]
    return [
        (
            "forward r=4 girth 5 non-affine",
            lambda k: k.forward_search(4, 5, 0, 2, False, (15, 14), 0, None, True),
        ),
        (
            "forward r=5 girth 5 non-affine",
            lambda k: k.forward_search(5, 5, 0, 2, False, (31, 30), 0, None, True),
        ),
        (
            "complement r=5 flat-free 3 critical 3",
            lambda k: k.complement_search(5, subspaces, 3, False, 10, None, True),
        ),
        (
            "subset oracle",
            lambda k: [k.min_odd_zero_subset(list(range(a, 32))) for a in (1, 9, 16)],
        ),
        (
            "subspace tests",
            lambda k: [
                k.has_subspace_mask(m, d, 6)
                for m in (0xFFFF_FFFE, 0x7F7F_7F7E)
                for d in (2, 3, 4)
            ],
        ),
    ]


def lockstep(g) -> Optional[List[Tuple[str, bool]]]:
    """Same kernel calls on both backends; None if the compiled one does not import."""
    try:
        compiled = g._backend.load_kernels("c")
    except ImportError:
        return None
    pure = g._backend.load_kernels("python")
    return [(name, call(pure) == call(compiled)) for name, call in _lockstep_calls(g)]
