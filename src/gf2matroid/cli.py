"""Command line front end.

Subcommands: construct (build a named family and print its file),
analyze (invariant report for a point set file), search (extremal
search under constraints), verify (check a closed-form bound by
exhaustive search).  Reports are JSON on stdout.

Exit codes: 0 success / bound holds, 1 bound violated, 2 search was
inconclusive within budget, 64 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from .constructions import FAMILIES, build_family
from .files import MatroidFileError, parse, read_matroid, render, write_matroid
from .gf2 import largest_subspace_in
from .matroid import (
    BinaryMatroid,
    critical_number,
    has_pg_restriction,  # unused; perfbench/tracing.py wraps it under this name
    is_affine,
    odd_girth,
)
from .search import (
    THEOREMS,
    ConstraintSet,
    max_size,
    max_size_complement,
    verify_theorem,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

FAMILY_ALIASES = {"bb": "bose-burton"}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; we reserve 2 for inconclusive."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def analysis_dict(m: BinaryMatroid) -> Dict:
    """Invariant report for one point set."""
    og = odd_girth(m)
    affine = is_affine(m)
    cn, cover = critical_number(m)
    # one fact measured three ways; any disagreement is a library bug
    if not affine == (og.value is None) == (cn <= 1):
        raise RuntimeError("affineness, odd girth and critical number disagree")
    # a rank-n flat inside the points meets the codimension-cn subspace
    # disjoint from them only in 0, so n <= cn
    max_pg = len(largest_subspace_in(m.points, m.ambient_rank, cn))
    return {
        "report": "analysis",
        "rank": m.ambient_rank,
        "size": m.size,
        "full_rank": m.is_full_rank,
        "odd_girth": og.value,
        "affine": affine,
        "critical_number": cn,
        "cover": [format(f, f"0{m.ambient_rank}b") for f in sorted(cover.functionals)],
        "max_pg_order": max_pg,
    }


def _emit(d: Dict) -> None:
    print(json.dumps(d, indent=2, sort_keys=True))


def _needs_deep(theorem: str, params: Dict[str, int]) -> bool:
    """Parameter ranges that can take minutes to hours; refused unless
    --deep is given."""
    r = params["r"]
    if theorem == "main":
        k = params["k"]
        return (k == 5 and r >= 7) or (k == 7 and r >= 8) or k >= 9
    n = params["n"]
    if theorem == "bose_burton":
        # n >= r - 2 takes seconds up to r = 10 (pure: n=7 r=9 0.4 s,
        # n=8 r=10 2.1 s), and n >= r - 1 under 0.3 s up to the kernels'
        # rank 12; n = r - 2 at r = 11 hits [11, 9]_2 = 698,027 flats,
        # and past rank 12 the hitting family is listed before the
        # kernel refuses the rank.  n=2 r=7 takes 1,863 nodes with the
        # basis forced, n=4 r=7 is a 3.47M-node tree and n=2 r=8 does
        # not finish in two minutes
        if n == 2:
            return r >= 8
        return r >= 7 and (n <= r - 3 or (n == r - 2 and r >= 11) or r >= 13)
    # gs n=2 and n=4 at r=6 take under 0.1 s; n=3 r=6 is a 7.5M-node tree
    return r >= 7 or (r == 6 and n == 3)


def build_parser() -> _Parser:
    p = _Parser(
        prog="gf2matroid",
        description="extremal point sets in binary projective space",
    )
    p.add_argument("--version", action="version", version="%(prog)s 0.1.0")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("construct", help="build a named family")
    c.add_argument(
        "family",
        choices=sorted(set(FAMILIES) | set(FAMILY_ALIASES)),
    )
    c.add_argument("params", nargs="*", type=int, help="family parameters")
    c.add_argument("-o", "--output", help="write to file instead of stdout")

    a = sub.add_parser("analyze", help="invariant report for a point set file")
    a.add_argument("file", help="point set file, or - for stdin")
    a.add_argument("--json", action="store_true", help="machine-readable report")

    s = sub.add_parser("search", help="largest point set under constraints")
    s.add_argument("-r", "--rank", type=int, required=True)
    s.add_argument("--min-odd-girth", type=int, metavar="K")
    s.add_argument("--forbid-affine", action="store_true")
    s.add_argument("--min-critical", type=int, metavar="C")
    s.add_argument("--pg-free", type=int, metavar="N", help="forbid rank-N flats")
    s.add_argument("--full-rank", action="store_true")
    s.add_argument(
        "--max-blocker",
        type=int,
        metavar="W",
        help="complement engine, window W; default: the constraints pick the engine",
    )
    s.add_argument("--budget", type=float, metavar="SECONDS")
    s.add_argument("--threads", type=int)
    s.add_argument("--no-symmetry", action="store_true")
    s.add_argument("--no-prune", action="store_true")
    s.add_argument("--emit-witness", metavar="PATH")

    v = sub.add_parser("verify", help="check a closed-form bound by search")
    v.add_argument("theorem", type=lambda s: s.replace("-", "_"), choices=THEOREMS)
    v.add_argument("--k", type=int, help="odd girth parameter (main)")
    v.add_argument("--n", type=int, help="flat order (bose_burton, gs)")
    v.add_argument("--r", type=int, required=True, help="ambient rank")
    v.add_argument("--budget", type=float, metavar="SECONDS")
    v.add_argument("--threads", type=int)
    v.add_argument("--deep", action="store_true", help="allow long verification runs")
    return p


def _cmd_construct(args: argparse.Namespace) -> int:
    family = FAMILY_ALIASES.get(args.family, args.family)
    m = build_family(family, *args.params)
    text = render(m, comment=" ".join([family] + [str(x) for x in args.params]))
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"rank {m.ambient_rank}, {m.size} points -> {args.output}")
    else:
        print(text, end="")
    return EXIT_OK


def _render_analysis(d: Dict) -> str:
    girth = "infinite" if d["odd_girth"] is None else str(d["odd_girth"])
    lines = [
        f"rank            {d['rank']}",
        f"size            {d['size']}",
        f"full rank       {'yes' if d['full_rank'] else 'no'}",
        f"odd girth       {girth}",
        f"affine          {'yes' if d['affine'] else 'no'}",
        f"critical number {d['critical_number']}",
        f"largest flat rank {d['max_pg_order']}",
        f"cover           {' '.join(d['cover']) if d['cover'] else '-'}",
    ]
    return "\n".join(lines)


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.file == "-":
        m = parse(sys.stdin.read())
    else:
        m = read_matroid(args.file)
    report = analysis_dict(m)
    if args.json:
        _emit(report)
    else:
        print(_render_analysis(report))
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    cs = ConstraintSet(
        min_odd_girth=args.min_odd_girth,
        forbid_affine=args.forbid_affine,
        min_critical=args.min_critical,
        pg_free_order=args.pg_free,
        full_rank=args.full_rank,
    )
    if args.max_blocker is None:
        rep = max_size(
            args.rank,
            cs,
            budget=args.budget,
            threads=1 if args.threads is None else args.threads,
            symmetry_break=not args.no_symmetry,
            prune=not args.no_prune,
        )
    elif args.threads is not None or args.no_prune:
        raise ValueError("--threads and --no-prune apply to the forward engine only")
    else:
        rep = max_size_complement(
            args.rank,
            cs,
            args.max_blocker,
            budget=args.budget,
            symmetry_break=not args.no_symmetry,
        )
    _emit(rep.to_json_dict())
    if args.emit_witness and rep.witness is not None:
        write_matroid(args.emit_witness, rep.witness, comment="search witness")
    return EXIT_OK if rep.exhaustive else EXIT_INCONCLUSIVE


def _cmd_verify(args: argparse.Namespace) -> int:
    key, other = ("k", "n") if args.theorem == "main" else ("n", "k")
    if getattr(args, other) is not None:
        raise ValueError(f"theorem {args.theorem!r} takes no --{other}")
    if getattr(args, key) is None:
        raise ValueError(f"theorem {args.theorem!r} requires --{key}")
    params = {"r": args.r, key: getattr(args, key)}
    if _needs_deep(args.theorem, params) and not args.deep:
        raise ValueError(
            "these parameters can run for hours; pass --deep to confirm"
        )
    rep = verify_theorem(
        args.theorem,
        params,
        budget=args.budget,
        threads=1 if args.threads is None else args.threads,
    )
    _emit(rep.to_json_dict())
    if rep.passed:
        return EXIT_OK
    if rep.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_VIOLATION


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "construct": _cmd_construct,
        "analyze": _cmd_analyze,
        "search": _cmd_search,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except MatroidFileError as exc:
        print(f"gf2matroid: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"gf2matroid: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
