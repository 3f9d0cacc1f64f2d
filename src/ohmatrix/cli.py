"""Command line interface: matrices, duals, walks, and the verification suite.

Exit codes: 0 on success (or all checks passing), 1 when validation or
verification finds a failure, 2 for usage and input errors.  A reader that
closes standard output early (``| head``) ends the command quietly, with 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .core import incidence_dual, switch, validate
from .matrices import (
    adjacency_matrix,
    degree_matrix,
    dual_laplacian,
    incidence_matrix,
    laplacian,
)
from .walks import (
    DEFAULT_MAX_WALKS,
    INCIDENCE_CAP,
    EnumerationLimitError,
    _signed_walks,
    walk_matrix,
)
from .io import (
    _incidence_record,
    parse_instance,
    parse_switching,
    random_bidirected_instance,
    random_instance,
    serialize_instance,
    serialize_matrix,
)

_MAX_WALKS_HELP = "ceiling on generated walks per search (default %(default)s)"

_MATRIX_BUILDERS = {
    "incidence": incidence_matrix,
    "adjacency": adjacency_matrix,
    "degree": degree_matrix,
    "laplacian": laplacian,
    "dual-laplacian": dual_laplacian,
}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as f:
        return f.read()


def _load_instance(path: str, *, require_valid: bool = True):
    return parse_instance(_read_text(path), require_valid=require_valid)


def cmd_validate(args) -> int:
    g = _load_instance(args.instance, require_valid=False)
    problems = validate(g)
    if problems:
        for p in problems:
            print(p)
        return 1
    print("OK")
    return 0


def cmd_matrix(args) -> int:
    g = _load_instance(args.instance)
    m = _MATRIX_BUILDERS[args.kind](g)
    print(serialize_matrix(m, args.format), end="")
    return 0


def cmd_dual(args) -> int:
    g = _load_instance(args.instance)
    print(serialize_instance(incidence_dual(g)), end="")
    return 0


def cmd_switch(args) -> int:
    if args.instance == args.theta == "-":
        args.usage_error("argument --theta: standard input is already the instance")
    g = _load_instance(args.instance)
    theta = parse_switching(_read_text(args.theta))
    print(serialize_instance(switch(g, theta)), end="")
    return 0


def cmd_walks(args) -> int:
    g = _load_instance(args.instance)
    walks = _signed_walks(g, args.src, args.dst, args.n, args.weak, args.max_walks)
    positive = sum(sign == 1 for sign, _ in walks)
    records = {i: _incidence_record(i) for i in g.incidences}
    doc = {
        "from": args.src,
        "to": args.dst,
        "half_length_numerator": args.n,
        "weak": args.weak,
        "counts": {
            "total": len(walks),
            "positive": positive,
            "negative": len(walks) - positive,
            "signed_net": 2 * positive - len(walks),
        },
        "walks": [
            {"anchors": w.anchors, "incidences": [records[i] for i in w.incidences], "sign": sign}
            for sign, w in walks
        ],
    }
    # Written in batches of chunks: the text is never held whole, and an unbuffered stdout
    # (PYTHONUNBUFFERED=1) makes one system call per batch, where json.dump makes one per chunk.
    chunks = json.JSONEncoder(indent=2).iterencode(doc)
    while batch := "".join(itertools.islice(chunks, 4096)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")
    return 0


def cmd_walk_matrix(args) -> int:
    g = _load_instance(args.instance)
    m = walk_matrix(g, args.rows, args.cols, args.n, args.weak)
    print(serialize_matrix(m, args.format), end="")
    return 0


def cmd_linegraph(args) -> int:
    from .signed import from_hypergraph, line_graph, to_hypergraph

    g = _load_instance(args.instance)
    lam = line_graph(from_hypergraph(g))
    print(serialize_instance(to_hypergraph(lam)), end="")
    return 0


# The random generator's options that not every kind of instance reads.  They
# default to absent, so one given where it does not apply is refused; an
# absent one takes random_instance's default.
_RANDOM_OPTIONS = ("max_edge_size", "min_edge_size", "non_simple_rate")


def cmd_random(args) -> int:
    given = {name: value for name, value in vars(args).items() if name in _RANDOM_OPTIONS}
    if args.bidirected and given:
        flag = "--" + next(iter(given)).replace("_", "-")
        args.usage_error(f"argument {flag}: not allowed with argument --bidirected")
    if "non_simple_rate" in given and not args.non_simple:
        args.usage_error("argument --non-simple-rate: requires --non-simple")
    if args.bidirected:
        g = random_bidirected_instance(args.seed, args.vertices, args.edges)
    else:
        g = random_instance(args.seed, args.vertices, args.edges, simple=not args.non_simple,
                            **given)
    print(serialize_instance(g), end="")
    return 0


# The VerifyOptions fields that only family mode reads, in field order, and
# all of its fields, one verify flag each.  Named here, so that building the
# parser does not load the verify suite.
_FAMILY_ONLY = ("trials", "max_vertices", "max_edges", "max_edge_size")
_VERIFY_OPTIONS = (*_FAMILY_ONLY, "max_walk_incidences", "switching_trials", "max_walks")


def cmd_verify(args) -> int:
    from .verify import VerifyOptions, format_report, run_verify_suite

    given = {name: getattr(args, name) for name in _VERIFY_OPTIONS if hasattr(args, name)}
    flag = next((name for name in _FAMILY_ONLY if name in given), None)
    if args.instance is not None and flag:
        args.usage_error(f"argument --{flag.replace('_', '-')}: not allowed with an instance")
    options = VerifyOptions(**given)
    instance = None if args.instance is None else _load_instance(args.instance)
    report = run_verify_suite(instance, seed=args.seed, options=options)
    print(format_report(report), end="")
    return 0 if report.passed() else 1


def _add_instance_argument(parser) -> None:
    parser.add_argument("instance", help="instance file path, or - for stdin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ohmatrix",
        description="Exact matrices, walks, and duality for oriented hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the structural invariants of an instance")
    _add_instance_argument(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("matrix", help="print a matrix of the instance")
    p.add_argument("kind", choices=sorted(_MATRIX_BUILDERS))
    _add_instance_argument(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("dual", help="print the incidence dual instance")
    _add_instance_argument(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("switch", help="apply a vertex switching function")
    _add_instance_argument(p)
    p.add_argument("--theta", required=True, help="JSON file mapping vertices to +1/-1")
    p.set_defaults(func=cmd_switch, usage_error=p.error)

    p = sub.add_parser("walks", help="enumerate walks between two anchors")
    _add_instance_argument(p)
    p.add_argument("--from", dest="src", required=True, help="start anchor label")
    p.add_argument("--to", dest="dst", required=True, help="end anchor label")
    p.add_argument("--n", type=int, required=True,
                   help=f"incidence count (twice the length, at most {INCIDENCE_CAP})")
    p.add_argument("--weak", action="store_true", help="allow immediate returns")
    p.add_argument("--max-walks", type=int, default=DEFAULT_MAX_WALKS, help=_MAX_WALKS_HELP)
    p.set_defaults(func=cmd_walks)

    p = sub.add_parser("walk-matrix", help="signed net walk counts between anchor families")
    _add_instance_argument(p)
    p.add_argument("--rows", choices=("V", "E"), required=True)
    p.add_argument("--cols", choices=("V", "E"), required=True)
    p.add_argument("--n", type=int, required=True, help="incidence count (twice the length)")
    p.add_argument("--weak", action="store_true", help="count weak walks")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_walk_matrix)

    p = sub.add_parser("linegraph", help="line graph of a two-incidence instance")
    _add_instance_argument(p)
    p.set_defaults(func=cmd_linegraph)

    p = sub.add_parser("random", help="generate a random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--max-edge-size", type=int, default=argparse.SUPPRESS,
                   help="largest edge size, not with --bidirected (default 3 or --min-edge-size, "
                        "whichever is larger, or fewer for a simple instance on fewer vertices)")
    p.add_argument("--min-edge-size", type=int, default=argparse.SUPPRESS,
                   help="smallest edge size, not with --bidirected (default 1)")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--non-simple", action="store_true",
                      help="allow repeated incidences of one (vertex, edge) pair")
    kind.add_argument("--bidirected", action="store_true",
                      help="two distinct endpoints per edge, no repeated pairs")
    p.add_argument("--non-simple-rate", type=float, default=argparse.SUPPRESS,
                   help="per-slot duplication probability, only with --non-simple (default 0.3)")
    p.set_defaults(func=cmd_random, usage_error=p.error)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("instance", nargs="?", default=None,
                   help="optional instance file; otherwise a seeded random family")
    p.add_argument("--seed", type=int, default=0)
    for name in _VERIFY_OPTIONS:
        p.add_argument("--" + name.replace("_", "-"), type=int, default=argparse.SUPPRESS,
                       help=_MAX_WALKS_HELP % {"default": DEFAULT_MAX_WALKS}
                       if name == "max_walks" else None)
    p.set_defaults(func=cmd_verify, usage_error=p.error)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "instance", None) == []:
        # Python 3.11's argparse drops a second "--" given as the instance path.
        args.instance = "--"
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`| head`), which is no input error.
        # Point stdout at devnull so that the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (EnumerationLimitError, RecursionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
