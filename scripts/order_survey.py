"""Survey automorphism-group orders over small parameter ranges.

For every space that fits the vertex budget this prints the order of the
generated (reflection + semilinear) group, the closed-form value where
one applies, and the independent search order where the points fit the
search's point budget ("-" where they do not).  The search/generated
ratio column makes the even-dimension doubling visible: whenever
n = 2*nu + delta is even, scaling the form by the nonsquare z is an extra
automorphism that the generated group misses.

Usage: python3 scripts/order_survey.py [MAX_VERTICES]
"""

import sys

sys.path.insert(0, "src")

from oigraph.autsearch import search_result
from oigraph.geometry import space_make
from oigraph.gf import GF
from oigraph.graph import BudgetExceeded, build_graph
from oigraph.symmetry import aut_order_formula, group_order, point_generators

CASES = [
    (1, 0, GF(3), "one"),
    (1, 0, GF(5), "one"),
    (1, 0, GF(7), "one"),
    (1, 0, GF(3, 2), "one"),
    (1, 1, GF(3), "one"),
    (1, 1, GF(3), "z"),
    (1, 1, GF(5), "one"),
    (1, 2, GF(3), "one"),
    (2, 0, GF(3), "one"),
    (2, 0, GF(5), "one"),
    (2, 1, GF(3), "one"),
]


def main(argv):
    cap = int(argv[0]) if argv else 3000
    header = (f"{'space':<14} {'nu':>2} {'delta':>5} {'verts':>6} "
              f"{'generated':>10} {'formula':>10} {'search':>8} {'ratio':>6}")
    print(header)
    print("-" * len(header))
    for nu, delta, f, disc in CASES:
        space = space_make(nu, delta, f, disc)
        try:
            g = build_graph(space, budget=cap)
        except Exception as exc:
            print(f"{space.label():<14} skipped: {exc}")
            continue
        generated = group_order(point_generators(g))
        try:
            formula = aut_order_formula(nu, delta, f.q, disc)
        except ValueError:
            formula = "-"
        try:
            searched = search_result(g).order
            ratio = f"{searched // generated}x" if searched % generated == 0 else "?"
        except BudgetExceeded:
            searched, ratio = "-", "-"
        print(f"{space.label():<14} {nu:>2} {delta:>5} {g.nv:>6} {generated:>10} "
              f"{str(formula):>10} {str(searched):>8} {ratio:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
