"""Distance distribution and a longest shortest path for one graph.

Usage: python3 scripts/distance_profile.py NU DELTA Q [DISC]
"""

import math
import sys
from collections import Counter

sys.path.insert(0, "src")

from oigraph.geometry import space_make
from oigraph.gf import parse_field
from oigraph.graph import build_graph


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip())
        return 2
    nu, delta = int(argv[0]), int(argv[1])
    f = parse_field(argv[2])
    disc = argv[3] if len(argv) > 3 else "one"
    g = build_graph(space_make(nu, delta, f, disc))
    print(f"{g.space.label()}: {g.nv} vertices, {g.loops.bit_count()} loops excluded from paths")
    hist = Counter()
    far = None
    nonloop = [v for v in range(g.nv) if not g.loop_at(v)]
    for u in nonloop:
        dist = {}
        for d, level in enumerate(g.bfs_levels(u)):
            dist.update(dict.fromkeys(level.tolist(), d))
        for v in nonloop:
            if v <= u:
                continue
            d = dist.get(v, math.inf)
            hist[d] += 1
            if d != math.inf and (far is None or d > far[2]):
                far = (u, v, d)
    print("pair distance histogram:")
    for d in sorted(hist, key=lambda x: (x == math.inf, x)):
        label = "unreachable" if d == math.inf else str(d)
        print(f"  {label:>11}: {hist[d]}")
    if far is not None:
        u, v, d = far
        path = g.witness_path(u, v)
        print(f"witness geodesic of length {d}:")
        for w in path:
            print(f"  v{w} = {g.verts[w].rows}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
