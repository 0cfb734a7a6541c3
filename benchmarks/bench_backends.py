#!/usr/bin/env python3
"""Compare the compiled and pure-Python kernels on fixed workloads.

Each workload makes the same raw kernel calls against both backends.
Results (optima, node counts) must agree exactly; wall time is the
only difference.  Run from a checkout with the package installed:

    python3 benchmarks/bench_backends.py
    python3 benchmarks/bench_backends.py --skip-slow
"""

import argparse
import random
import time

from gf2matroid._backend import load_kernels
from gf2matroid.gf2 import enumerate_subspaces


def forward(r, girth, pg_n, min_critical):
    # two forced points, not a full basis: leaves the kernels enough work to time
    forced = ((1 << r) - 1, (1 << r) - 2)

    def work(kern):
        best, _, nodes, done = kern.forward_search(
            r, girth, pg_n, min_critical, False, forced, 0, None, True
        )
        assert done
        return best, nodes

    return work


def complement(r, n, min_critical, max_blocker):
    def work(kern):
        subspaces = [s.point_mask() for s in enumerate_subspaces(r, n)]
        t_forbidden = r - min_critical + 1 if min_critical >= 2 else 0
        best, _, nodes, done = kern.complement_search(
            r, subspaces, t_forbidden, False, max_blocker, None, True
        )
        assert done
        return best, nodes

    return work


def subset_oracle(repeats):
    pools = [list(range(1, 64)), list(range(32, 64)), list(range(1, 32))]

    def work(kern):
        acc = 0
        for _ in range(repeats):
            for pts in pools:
                acc += kern.min_odd_zero_subset(pts)
        return (acc,)

    return work


def subspace_tests(repeats):
    rng = random.Random(97)
    masks = [rng.randrange(1 << 64) & ~1 for _ in range(repeats)]

    def work(kern):
        acc = 0
        for mask in masks:
            for d in (2, 3, 4):
                acc += kern.has_subspace_mask(mask, d, 6)
        return (acc,)

    return work


WORKLOADS = [
    ("forward r=4 girth 5 non-affine", False, forward(4, 5, 0, 2)),
    ("forward r=5 girth 5 non-affine", False, forward(5, 5, 0, 2)),
    ("forward r=6 girth 7 non-affine", True, forward(6, 7, 0, 2)),
    ("complement r=5 flat-free n=3 c=3", True, complement(5, 3, 3, 10)),
    ("subset oracle, 63 points x600", False, subset_oracle(200)),
    ("subspace tests, rank 6 x1500", False, subspace_tests(500)),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip-slow",
        action="store_true",
        help="drop the workloads that take minutes on the pure backend",
    )
    args = parser.parse_args()

    pure = load_kernels("python")
    try:
        compiled = load_kernels("c")
    except ImportError:
        compiled = None
        print("compiled backend unavailable, timing the pure backend only\n")

    name_w = max(len(name) for name, _, _ in WORKLOADS)
    header = f"{'workload':<{name_w}}  {'python':>9}  {'c':>9}  {'speedup':>7}"
    print(header)
    print("-" * len(header))
    for name, slow, work in WORKLOADS:
        if slow and args.skip_slow:
            continue
        t0 = time.perf_counter()
        got_pure = work(pure)
        t_pure = time.perf_counter() - t0
        if compiled is None:
            print(f"{name:<{name_w}}  {t_pure:>8.3f}s")
            continue
        t0 = time.perf_counter()
        got_c = work(compiled)
        t_c = time.perf_counter() - t0
        assert got_pure == got_c, (name, got_pure, got_c)
        ratio = t_pure / t_c if t_c > 0 else float("inf")
        print(f"{name:<{name_w}}  {t_pure:>8.3f}s  {t_c:>8.3f}s  {ratio:>6.1f}x")
    if compiled is not None:
        print("\nall workloads returned identical results on both backends")


if __name__ == "__main__":
    main()
