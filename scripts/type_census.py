"""Print the vertex type census of one graph, dimension by dimension.

Usage: python3 scripts/type_census.py NU DELTA Q [DISC]
"""

import sys

sys.path.insert(0, "src")

from oigraph.geometry import gauss_binomial, space_make
from oigraph.gf import parse_field
from oigraph.graph import build_graph, classify_types


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip())
        return 2
    nu, delta = int(argv[0]), int(argv[1])
    f = parse_field(argv[2])
    disc = argv[3] if len(argv) > 3 else "one"
    space = space_make(nu, delta, f, disc)
    g = build_graph(space)
    n = space.n
    print(f"{space.label()}: {g.nv} vertices, {g.edge_count()} edges, "
          f"{g.loops.bit_count()} loops")
    census = {}
    for i, t in enumerate(classify_types(g)):
        census.setdefault(t.m, {}).setdefault(t.as_tuple(), [0, 0])
        census[t.m][t.as_tuple()][0] += 1
        census[t.m][t.as_tuple()][1] += g.loop_at(i)
    for m in sorted(census):
        total = sum(c for c, _ in census[m].values())
        gauss = gauss_binomial(n, m, f.q)
        print(f"\ndim {m}: {total} vertices (gaussian binomial {gauss})")
        for key, (count, loops) in sorted(census[m].items(), key=lambda kv: str(kv[0])):
            mark = f"  ({loops} loops)" if loops else ""
            print(f"  type {key}: {count}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
