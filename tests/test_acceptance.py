"""Acceptance gate: eleven desk-scale criteria, each printing one line.

Every check is an exact integer equality.  Criterion 4 is expected to
fail on its final leg: the independent backtracking search finds 1152
automorphisms of Oi(4, 3), twice the generated subgroup order 576 that
the documented claim predicts, because scaling the form by the
nonsquare is an adjacency-preserving map outside the generated group
(see the README section "A note on the full automorphism group").  The
criterion is asserted as stated, not weakened to match the computation.
"""

import itertools
import math
import random
import time

import pytest

from conftest import ACCEPTANCE_LINES

from oigraph.autsearch import full_aut_order, search_result
from oigraph.geometry import (
    EdgeTypeTriple,
    classify_type,
    space_make,
    witt_bruteforce_oracle,
    witt_decompose,
)
from oigraph.gf import GF, factor_prime_power
from oigraph.graph import build_graph, max_clique_dim1, recover_parameters
from oigraph.linalg import Mat
from oigraph.symmetry import (
    aut_order_formula,
    edge_orbits,
    group_order,
    matrix_group_order,
    orthogonal_generators,
    po_e_generators,
    vertex_orbits,
)
from oigraph.verify import STATUS_OUTSIDE, SUITES, _Ctx

SPACE_KEYS = (
    (1, 0, 3, "one"),
    (1, 0, 5, "one"),
    (1, 1, 3, "one"),
    (1, 1, 3, "z"),
    (2, 0, 3, "one"),
    (2, 1, 3, "one"),
)


@pytest.fixture(scope="module")
def graphs():
    cache = {}

    def get(nu, delta, q, disc="one"):
        key = (nu, delta, q, disc)
        if key not in cache:
            cache[key] = build_graph(space_make(nu, delta, GF(*factor_prime_power(q)), disc))
        return cache[key]

    return get


def announce(num, ok, detail):
    line = f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_connectivity_diameter(graphs):
    t0 = time.perf_counter()
    computed = {}
    for nu, delta, q, disc in SPACE_KEYS:
        g = graphs(nu, delta, q, disc)
        computed[g.space.label()] = g.diameter()
    expected = {
        "Oi(2, 3)": math.inf,
        "Oi(2, 5)": math.inf,
        "Oi(3, 3)[one]": 4,
        "Oi(3, 3)[z]": 4,
        "Oi(4, 3)": 4,
        "Oi(5, 3)[one]": 4,
    }
    elapsed = time.perf_counter() - t0
    announce(1, computed == expected and elapsed < 30.0,
             f"diameters {computed} in {elapsed:.1f}s (< 30s)")


def test_criterion_02_dimension_one_counts(graphs):
    ok = True
    details = []
    for nu, delta, q, disc in SPACE_KEYS:
        g = graphs(nu, delta, q, disc)
        n = 2 * nu + delta
        want = (q**n - 1) // (q - 1)
        got = len(g.dim1_ids())
        ok = ok and got == want
        details.append(f"{g.space.label()}:{got}")
    announce(2, ok, "dim-1 counts " + " ".join(details))


def test_criterion_03_nu1_aut_orders(graphs):
    t0 = time.perf_counter()
    orders = {}
    ok = True
    for q in (3, 5, 9):
        g = graphs(1, 0, q)
        got = full_aut_order(g)
        orders[q] = got
        ok = ok and got == aut_order_formula(1, 0, q)
    ok = ok and orders == {3: 4, 5: 16, 9: 768}
    elapsed = time.perf_counter() - t0
    announce(3, ok and elapsed < 5.0, f"nu=1 orders {orders} in {elapsed:.1f}s (< 5s)")


def test_criterion_04_oi43_aut_chain_of_equalities(graphs):
    t0 = time.perf_counter()
    g = graphs(2, 0, 3)
    generated = group_order(po_e_generators(g))
    formula = aut_order_formula(2, 0, 3)
    searched = full_aut_order(g)
    elapsed = time.perf_counter() - t0
    ok = generated == 576 == formula == searched and elapsed < 180.0
    announce(4, ok,
             f"Oi(4,3) generated={generated} formula={formula} search={searched} "
             f"in {elapsed:.1f}s (< 180s)")


def test_criterion_05_oi53_generated_order(graphs):
    t0 = time.perf_counter()
    g = graphs(2, 1, 3)
    generated = group_order(po_e_generators(g))
    formula = aut_order_formula(2, 1, 3)
    elapsed = time.perf_counter() - t0
    ok = generated == 51840 == formula and elapsed < 600.0
    announce(5, ok, f"Oi(5,3) generated={generated} formula={formula} in {elapsed:.1f}s (< 600s)")


def _vertex_fibers(g):
    fibers = {}
    for i, P in enumerate(g.verts):
        fibers.setdefault(classify_type(P).as_tuple(), []).append(i)
    return sorted(tuple(sorted(v)) for v in fibers.values())


def _edge_fibers(g):
    fibers = {}
    for u, v in g.edge_pairs_with_loops():
        key = EdgeTypeTriple.of(g.verts[u], g.verts[v]).as_tuple()
        fibers.setdefault(key, []).append((u, v))
    return sorted(tuple(sorted(v)) for v in fibers.values())


def test_criterion_06_vertex_orbits_are_types(graphs):
    ok = True
    counts = []
    for nu, delta, q, disc in ((2, 0, 3, "one"), (1, 1, 3, "one")):
        g = graphs(nu, delta, q, disc)
        orbits = sorted(tuple(sorted(o)) for o in vertex_orbits(g, po_e_generators(g)))
        ok = ok and orbits == _vertex_fibers(g)
        counts.append(f"{g.space.label()}:{len(orbits)}")
    announce(6, ok, "generated-group vertex orbits equal type fibers " + " ".join(counts))


def test_criterion_07_edge_orbits_are_type_triples(graphs):
    ok = True
    counts = []
    for nu, delta, q, disc in ((2, 0, 3, "one"), (1, 1, 3, "one")):
        g = graphs(nu, delta, q, disc)
        orbits = sorted(tuple(sorted(o)) for o in edge_orbits(g, po_e_generators(g)))
        ok = ok and orbits == _edge_fibers(g)
        counts.append(f"{g.space.label()}:{len(orbits)}")
    announce(7, ok, "generated-group edge orbits equal type-triple fibers " + " ".join(counts))


def test_criterion_08_witt_oracle_agreement():
    F3, F5 = GF(3), GF(5)
    agree = 0
    for vals in itertools.product(range(3), repeat=6):
        a, b, c, d, e, f = vals
        G = Mat(F3, ((a, d, e), (d, b, f), (e, f, c)))
        if witt_decompose(G)[0] == witt_bruteforce_oracle(G):
            agree += 1
    rng = random.Random(8193)
    agree5 = 0
    for _ in range(500):
        entries = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                entries[i][j] = entries[j][i] = rng.randrange(5)
        G = Mat(F5, tuple(tuple(r) for r in entries))
        if witt_decompose(G)[0] == witt_bruteforce_oracle(G):
            agree5 += 1
    announce(8, agree == 729 and agree5 == 500,
             f"witt oracle agreement 3x3:{agree}/729 4x4:{agree5}/500")


def test_criterion_09_orthogonal_closure_order(graphs):
    sp = graphs(2, 0, 3).space
    order = matrix_group_order(sp, orthogonal_generators(sp))
    announce(9, order == 1152, f"reflection closure |O4(F3)| = {order}")


def test_criterion_10_parameter_recovery(graphs):
    ok = True
    invariants = {}
    for nu, delta, q, disc in SPACE_KEYS:
        g = graphs(nu, delta, q, disc)
        size, nonloop = max_clique_dim1(g)
        dim1 = len(g.dim1_ids())
        ok = ok and recover_parameters(size, nonloop, dim1) == (nu, delta, q)
        invariants.setdefault((size, nonloop, dim1), set()).add((nu, delta, q))
    ok = ok and all(len(v) == 1 for v in invariants.values())
    announce(10, ok, f"{len(invariants)} distinct invariant triples recover all parameters")


def test_criterion_11_documented_finding(graphs):
    # the registered core check itself, run alone
    check = next(fn for name, _, fn in SUITES["core"] if name == "matching-edge-rule")
    _, computed, status, _ = check(_Ctx())
    ok = status == STATUS_OUTSIDE and "x + y = 0" in computed
    # the adjacency actually used must be the definitional one:
    # every matching edge of the 2-dimensional graphs pairs x with -x
    for q in (3, 5):
        g = graphs(1, 0, q)
        f = g.space.field
        for u, v in g.edges():
            ok = ok and f.add(g.verts[u].rows[0][1], g.verts[v].rows[0][1]) == 0
    announce(11, ok, f"edge-rule finding recorded with status {status!r}")
