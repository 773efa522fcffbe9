"""Command-line front door: build, classify, measure, verify.

All outputs are deterministic: JSON is emitted with sorted keys and no
timestamps; csv/dot artifacts carry a one-line static header that
``--no-header`` suppresses.  Exit codes: 0 success, 1 check failure,
2 usage error, 3 resource budget exceeded.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .autsearch import search_result
from .geometry import classify_type, space_make
from .gf import parse_field
from .graph import BudgetExceeded, _json_text, build_graph, classify_types, dot_pieces, json_pieces
from .symmetry import PermGroup, aut_order_formula, orbit_labels, point_generators, vertex_generators
from .verify import run_suite

EXIT_OK = 0
EXIT_CHECK_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _add_space_flags(p):
    p.add_argument("--nu", type=int, required=True, help="Witt index of the ambient space")
    p.add_argument("--delta", type=int, default=0, choices=(0, 1, 2), help="anisotropic defect")
    p.add_argument("--disc", default="one", choices=("one", "z"), help="discriminant class for delta=1")
    p.add_argument("--field", required=True, help="field order: q or p^e, odd characteristic")
    p.add_argument("--modulus", default=None, help="extension modulus, little-endian comma coefficients")
    p.add_argument("--budget", type=int, default=None, help="vertex budget, and aut --method search's point budget")


def _add_output_flags(p, formats):
    p.add_argument("--format", choices=formats, default=None, help="artifact format")
    p.add_argument("--out", default=None, metavar="PATH", help="write output to PATH instead of stdout")
    p.add_argument("--no-header", action="store_true", help="suppress csv/dot header lines")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="oigraph",
        description="orthogonal inner product graphs: construction, census, symmetry, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a graph and export it")
    _add_space_flags(p)
    _add_output_flags(p, ("json", "dot"))

    p = sub.add_parser("classify", help="census of vertex types")
    _add_space_flags(p)
    p.add_argument("--dim", type=int, default=None, help="restrict to one vertex dimension")
    _add_output_flags(p, ("json", "csv"))

    p = sub.add_parser("orbits", help="vertex orbits of the generated symmetry group")
    _add_space_flags(p)
    _add_output_flags(p, ("json", "csv"))

    p = sub.add_parser("diameter", help="graph diameter")
    _add_space_flags(p)
    _add_output_flags(p, ("json",))

    p = sub.add_parser("aut", help="automorphism group order")
    _add_space_flags(p)
    p.add_argument(
        "--method",
        choices=("generated", "formula", "search"),
        default="generated",
        help="generated: reflection+semilinear stabilizer chain; formula: closed form; search: independent backtracking",
    )
    _add_output_flags(p, ("json",))

    p = sub.add_parser("verify", help="run the claim-verification suite")
    p.add_argument("--suite", default="core", help="core or extended")
    p.add_argument("--budget", type=int, default=None, help="vertex budget override")
    _add_output_flags(p, ("json", "csv"))
    return parser


def _field(args):
    modulus = None
    if args.modulus:
        modulus = tuple(int(c) for c in args.modulus.split(","))
    return parse_field(args.field, modulus)


def _space(args):
    return space_make(args.nu, args.delta, _field(args), args.disc)


def _emit(text, args):
    """Write text, a str or an iterable of str pieces, to --out or stdout."""
    pieces = [text] if isinstance(text, str) else text
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def cmd_build(args) -> int:
    g = build_graph(_space(args), args.budget)
    counts = (
        f"{g.space.label()}: {g.nv} vertices, {g.edge_count()} edges, "
        f"{g.loops.bit_count()} loops\n"
    )
    fmt = args.format
    if args.out and fmt is None:
        fmt = "json"
    if fmt == "json":
        _emit(json_pieces(g), args)
    elif fmt == "dot":
        _emit(dot_pieces(g, header=not args.no_header), args)
    if fmt and not args.out:
        sys.stderr.write(counts)
    else:
        sys.stdout.write(counts)
    return EXIT_OK


def _type_json(t):
    return [t.m, t.r, t.s, t.tag]


def _emit_table(args, g, key, columns, rows):
    """rows as CSV (a static header, the column line, one compact line per
    row) or as JSON under key, by --format."""
    if args.format == "csv":
        lines = [] if args.no_header else [f"# oigraph {args.command} {g.space.label()} version={__version__}"]
        lines.append(",".join(columns))
        lines += [",".join(json.dumps(r[c]) for c in columns).replace(" ", "") for r in rows]
        _emit("\n".join(lines) + "\n", args)
    else:
        _emit(_json_text({"space": g.space.label(), key: rows}), args)


def cmd_classify(args) -> int:
    space = _space(args)
    if args.dim is not None and not 1 <= args.dim < space.n:
        raise ValueError(f"--dim {args.dim} is out of range 1..{space.n - 1}")
    g = build_graph(space, args.budget)
    census = {}
    for t in classify_types(g):
        if args.dim is None or t.m == args.dim:
            census[t] = census.get(t, 0) + 1
    rows = [{"dim": t.m, "type": _type_json(t), "count": n} for t, n in sorted(census.items())]
    _emit_table(args, g, "rows", ("dim", "type", "count"), rows)
    return EXIT_OK


def cmd_orbits(args) -> int:
    g = build_graph(_space(args), args.budget)
    # each label is its orbit's least member; np.unique lists them in order
    reps, sizes = np.unique(orbit_labels(g.nv, vertex_generators(g)), return_counts=True)
    rows = [
        {"orbit": i, "size": size, "representative": rep, "type": _type_json(classify_type(g.verts[rep]))}
        for i, (rep, size) in enumerate(zip(reps.tolist(), sizes.tolist()))
    ]
    _emit_table(args, g, "orbits", ("orbit", "size", "representative", "type"), rows)
    return EXIT_OK


def cmd_diameter(args) -> int:
    g = build_graph(_space(args), args.budget)
    d = g.diameter()
    payload = {"space": g.space.label(), "diameter": "infinite" if d == math.inf else d}
    _emit(_json_text(payload), args)
    return EXIT_OK


def cmd_aut(args) -> int:
    if args.method == "formula":
        order = aut_order_formula(args.nu, args.delta, _field(args).q, args.disc)
        _emit(_json_text({"order": order}), args)
        return EXIT_OK
    g = build_graph(_space(args), args.budget)
    if args.method == "generated":
        chain = PermGroup(len(g.dim1_ids()), point_generators(g))
        payload = {
            "order": chain.order(),
            "base": list(chain.base),
            "transversal-sizes": list(chain.transversal_sizes),
        }
    else:
        res = search_result(g, budget=args.budget)
        payload = {
            "order": res.order,
            "generators": [[int(x) for x in gen] for gen in res.generators],
            "node-count": res.node_count,
            "runtime": round(res.seconds, 3),
        }
    _emit(_json_text(payload), args)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_suite(args.suite, budget=args.budget)
    if args.format == "json":
        _emit(report.to_json(), args)
    elif args.format == "csv":
        _emit(report.to_csv(header=not args.no_header), args)
    else:
        _emit("\n".join(report.lines()) + "\n", args)
    return EXIT_OK if report.ok else EXIT_CHECK_FAIL


_DISPATCH = {
    "build": cmd_build,
    "classify": cmd_classify,
    "orbits": cmd_orbits,
    "diameter": cmd_diameter,
    "aut": cmd_aut,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"oigraph: budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except ValueError as exc:
        sys.stderr.write(f"oigraph: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"oigraph: cannot write output: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
