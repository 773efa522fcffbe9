import itertools
import time
from collections import deque

import numpy as np
import pytest

from conftest import diagonal, mat_mul, vertex_index

from oigraph import autsearch
from oigraph import graph as graph_module
from oigraph.autsearch import (
    DEFAULT_SEARCH_BUDGET,
    _cells_from_colors,
    _Search,
    _vertex_colors,
    certify_dimension_colors,
    refine_cells,
    search_automorphisms,
    search_result,
)
from oigraph.gf import GF, factor_prime_power
from oigraph.geometry import classify_type, space_make, subspace_make
from oigraph.graph import BudgetExceeded, OiGraph, build_graph, neighbour_lists, preserves_adjacency
from oigraph.symmetry import (
    PermGroup,
    aut_order_formula,
    group_order,
    po_e_generators,
    vertex_orbits,
)

F3 = GF(3)
F5 = GF(5)
F9 = GF(3, 2)


@pytest.fixture(scope="module")
def g23():
    return build_graph(space_make(1, 0, F3))


@pytest.fixture(scope="module")
def g43():
    return build_graph(space_make(2, 0, F3))


def adj_from_edges(nv, edges, loops=()):
    """The looped boolean adjacency matrix of an edge list plus loop ids."""
    A = np.zeros((nv, nv), dtype=bool)
    for u, v in edges:
        A[u, v] = A[v, u] = True
    for v in loops:
        A[v, v] = True
    return A


def brute_order(A):
    nv = len(A)
    count = 0
    for p in itertools.permutations(range(nv)):
        arr = np.array(p)
        if np.array_equal(A[np.ix_(arr, arr)], A):
            count += 1
    return count


# -- refinement ------------------------------------------------------------


def test_refine_trivial_coloring_oi23(g23):
    cells = refine_cells(g23.nbrs, [[0, 1, 2, 3]])
    assert cells == [[0, 1], [2, 3]]  # loops split from edge endpoints by degree


def test_refine_discrete_fixed_point(g23):
    discrete = [[0], [1], [2], [3]]
    assert refine_cells(g23.nbrs, discrete) == discrete


def test_refine_rejects_non_partition(g23):
    with pytest.raises(ValueError):
        refine_cells(g23.nbrs, [[0, 1], [2]])
    with pytest.raises(ValueError):
        refine_cells(g23.nbrs, [[0, 1], [1, 2, 3]])


def reference_refine_cells(adj, cells):
    """Reference refinement over bitsets: every splitter rescans every cell.
    The oracle for refine_cells' ordered output."""
    cells = [list(c) for c in cells]
    work = deque(sum(1 << v for v in c) for c in cells)
    while work:
        splitter = work.popleft()
        out = []
        for cell in cells:
            buckets = {}
            for v in cell:
                buckets.setdefault((adj[v] & splitter).bit_count(), []).append(v)
            if len(buckets) == 1:
                out.append(cell)
                continue
            for key in sorted(buckets):
                out.append(buckets[key])
                work.append(sum(1 << v for v in buckets[key]))
        cells = out
    return cells


@pytest.mark.parametrize(
    "nu,delta,q,disc", [(1, 1, 3, "one"), (2, 0, 3, "one"), (1, 0, 9, "one"), (1, 1, 9, "z")]
)
def test_refine_matches_bitset_reference(nu, delta, q, disc):
    # Same ordered cells, same vertex order inside each, on the partitions
    # the search starts from, the certificate's (loop, degree) partition and
    # every individualisation of the first target cell.
    g = build_graph(space_make(nu, delta, GF(*factor_prime_power(q)), disc))
    start = _cells_from_colors(_vertex_colors(g))
    inputs = [start, _cells_from_colors([(g.loop_at(v), g.degree(v)) for v in range(g.nv)])]
    cells = refine_cells(g.nbrs, start)
    ti = _Search._target(cells)
    inputs += [_Search._individualize(cells, ti, w) for w in cells[ti]]
    adj = [sum(1 << int(w) for w in np.flatnonzero(row)) for row in g.adjacency_matrix()]
    for cells in inputs:
        assert refine_cells(g.nbrs, cells) == reference_refine_cells(adj, cells)


def rank_profile(g, v):
    t = classify_type(g.verts[v])
    return (t.m, t.r, t.s)


def similitude_perm(g, factor):
    """Vertex map of A -> A.diag(factor*I_nu, I_nu); scales the form by factor."""
    f = g.space.field
    nu = g.space.nu
    T = diagonal((factor,) * nu + (1,) * nu)
    index = vertex_index(g)
    arr = np.empty(g.nv, dtype=np.int64)
    for i, P in enumerate(g.verts):
        arr[i] = index[subspace_make(g.space, mat_mul(f, P.rows, T)).rows]
    return arr


def test_refine_cells_are_rank_profile_fibers(g43):
    # On a 2nu-dimensional space the two square-class tags of each odd-rank
    # profile are interchangeable (scaling the form by a nonsquare is a graph
    # automorphism), and 1-WL refinement lands exactly on the merged fibers.
    cells = sorted(tuple(sorted(c)) for c in refine_cells(g43.nbrs, _cells_from_colors(_vertex_colors(g43))))
    fibers = {}
    for v in range(g43.nv):
        fibers.setdefault((rank_profile(g43, v), g43.loop_at(v)), []).append(v)
    assert cells == sorted(tuple(sorted(f)) for f in fibers.values())
    assert len(cells) == 8
    tagged = {classify_type(g43.verts[v]).as_tuple() for v in range(g43.nv)}
    assert len(tagged) == 11  # three tag pairs collapse into merged cells


def test_refine_respects_types_odd_dimension():
    # dimension 2nu+1: no form-scaling symmetry, cells match tagged types
    g33 = build_graph(space_make(1, 1, F3))
    cells = sorted(tuple(sorted(c)) for c in refine_cells(g33.nbrs, _cells_from_colors(_vertex_colors(g33))))
    fibers = {}
    for v in range(g33.nv):
        fibers.setdefault((classify_type(g33.verts[v]).as_tuple(), g33.loop_at(v)), []).append(v)
    assert cells == sorted(tuple(sorted(f)) for f in fibers.values())


def test_certificate_passes(g43, g23):
    certify_dimension_colors(g43)
    certify_dimension_colors(g23)


def test_certificate_rejects_mixed_dimension_classes():
    # with no edges and no loops every vertex has color (False, 0), so the
    # one class holds both dimensions of Oi(3,3)
    g = build_graph(space_make(1, 1, F3))
    with pytest.raises(RuntimeError, match="separate subspace dimensions"):
        certify_dimension_colors(OiGraph(g.space, g.verts, np.zeros_like(g.rows)))


# -- is_automorphism -------------------------------------------------------


def test_is_automorphism_identity(g23):
    assert g23.is_automorphism(np.arange(g23.nv))


def test_is_automorphism_loop_swap(g23):
    # swapping a loop vertex with a non-loop vertex breaks the diagonal
    arr = np.array([2, 1, 0, 3])
    assert not g23.is_automorphism(arr)
    assert g23.is_automorphism(np.array([1, 0, 2, 3]))


def test_is_automorphism_po_e_gens(g43):
    for p in po_e_generators(g43):
        assert g43.is_automorphism(p)


def test_is_automorphism_errors(g23):
    with pytest.raises(ValueError):
        g23.is_automorphism(np.arange(5))
    with pytest.raises(ValueError):
        g23.is_automorphism(np.zeros(4, dtype=np.int64))


@pytest.mark.parametrize("key", [(2, 0, 3), (2, 1, 3)], ids=["oi43", "oi53"])
def test_preserves_adjacency_matches_dense_check(key):
    # the one automorphism test against A[p][:, p] == A on the looped
    # matrix: random bijections, every po_e_generators lift, the search's
    # generators, and every fifth generator spoilt by a random transposition
    g = build(*key, "one")
    A = g.adjacency_matrix(include_loops=True)
    rng = np.random.default_rng(19)
    gens = po_e_generators(g) + search_result(g, budget=3000).generators
    spoilt = []
    for p in gens[::5]:
        q = p.copy()
        a, b = rng.choice(g.nv, 2, replace=False)
        q[[a, b]] = q[[b, a]]
        spoilt.append(q)
    perms = [rng.permutation(g.nv) for _ in range(5)] + gens + spoilt
    got = [preserves_adjacency(g.rows, g.nbrs, p) for p in perms]
    assert got == [np.array_equal(A.take(p, 0).take(p, 1), A) for p in perms]  # A[p][:, p]
    assert all(got[5 : 5 + len(gens)])


def test_preserves_adjacency_checks_loops():
    # edge 0-1, a loop on the isolated 2, and the isolated loop-free 3:
    # swapping 2 and 3 keeps every edge but moves the loop
    A = adj_from_edges(4, [(0, 1)], loops=[2])
    rows = np.packbits(A, axis=1, bitorder="little")
    nbrs = neighbour_lists(rows)
    assert preserves_adjacency(rows, nbrs, np.array([1, 0, 2, 3]))
    assert not preserves_adjacency(rows, nbrs, np.array([0, 1, 3, 2]))
    assert not np.array_equal(A[[0, 1, 3, 2]][:, [0, 1, 3, 2]], A)


# -- search against a brute-force oracle -----------------------------------


def test_search_small_known_graphs():
    # empty graph on 4: S_4
    assert search_automorphisms(adj_from_edges(4, [])).order == 24
    # path 0-1-2-3
    assert search_automorphisms(adj_from_edges(4, [(0, 1), (1, 2), (2, 3)])).order == 2
    # triangle plus isolated vertex
    assert search_automorphisms(adj_from_edges(4, [(0, 1), (1, 2), (0, 2)])).order == 6
    # 6-cycle: dihedral of order 12
    assert search_automorphisms(adj_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])).order == 12
    # loops break symmetry: triangle with one loop
    assert search_automorphisms(adj_from_edges(3, [(0, 1), (1, 2), (0, 2)], loops=[0])).order == 2


def test_check_leaf_accepts_only_automorphisms():
    # path 0-1-2-3: the reversal is an automorphism unless a loop breaks it
    for loops, reversal_ok in (([0, 3], True), ([0], False)):
        A = adj_from_edges(4, [(0, 1), (1, 2), (2, 3)], loops)
        rows = np.packbits(A, axis=1, bitorder="little")
        search = _Search(rows, neighbour_lists(rows), [0] * 4)
        search.first_leaf = [0, 1, 2, 3]
        assert (search._check_leaf([[3], [2], [1], [0]]) is not None) == reversal_ok
        assert search._check_leaf([[1], [0], [2], [3]]) is None  # edge 1-2 goes to 0-2
        assert list(search._check_leaf([[0], [1], [2], [3]])) == [0, 1, 2, 3]


def test_search_matches_bruteforce_random():
    rng = np.random.default_rng(23)
    for _ in range(30):
        nv = int(rng.integers(4, 8))
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv) if rng.random() < 0.4]
        loops = int(rng.integers(0, 1 << nv)) if rng.random() < 0.5 else 0
        A = adj_from_edges(nv, edges, [v for v in range(nv) if loops >> v & 1])
        res = search_automorphisms(A)
        assert res.order == brute_order(A)
        for gen in res.generators:
            assert np.array_equal(A[np.ix_(gen, gen)], A)


def test_search_relabel_invariance():
    g = build_graph(space_make(1, 0, F5))
    rng = np.random.default_rng(5)
    A = g.adjacency_matrix(include_loops=True)
    base = search_automorphisms(A).order
    for _ in range(10):
        rho = rng.permutation(g.nv)
        inv = np.argsort(rho)  # vertex v is relabelled rho[v]
        assert search_automorphisms(A[np.ix_(inv, inv)]).order == base


# -- frozen orders on the graphs themselves --------------------------------


def test_full_aut_order_oi2_family(g23):
    assert search_result(g23).order == 4 == aut_order_formula(1, 0, 3)
    assert search_result(build_graph(space_make(1, 0, F5))).order == 16
    assert search_result(build_graph(space_make(1, 0, F9))).order == 768


def test_full_aut_order_oi43_twice_generated(g43):
    # The reflection+semilinear subgroup has index 2: scaling the form by the
    # nonsquare is a further automorphism (it flips both square-class tags).
    res = search_result(g43)
    poe = po_e_generators(g43)
    assert res.order == 1152 == 2 * group_order(poe)
    assert res.node_count > 0
    assert res.seconds >= 0
    for gen in res.generators:
        assert g43.is_automorphism(gen)
    sim = similitude_perm(g43, g43.space.z)
    assert g43.is_automorphism(sim)
    assert not PermGroup(g43.nv, poe).contains(sim)
    assert PermGroup(g43.nv, list(poe) + [sim]).order() == res.order


def test_full_aut_order_oi33_matches_generated():
    g33 = build_graph(space_make(1, 1, F3))
    assert search_result(g33).order == group_order(po_e_generators(g33)) == 24


def test_search_generators_preserve_rank_profile(g43):
    res = search_result(g43)
    for gen in res.generators:
        for v in range(g43.nv):
            assert rank_profile(g43, int(gen[v])) == rank_profile(g43, v)
    # ...but the group genuinely interchanges the two anisotropic tag classes
    assert any(
        classify_type(g43.verts[int(gen[v])]).tag != classify_type(g43.verts[v]).tag
        for gen in res.generators
        for v in range(g43.nv)
    )
    orbits = sorted(tuple(sorted(o)) for o in vertex_orbits(g43, res.generators))
    fibers = {}
    for v in range(g43.nv):
        fibers.setdefault(rank_profile(g43, v), []).append(v)
    assert orbits == sorted(tuple(sorted(f)) for f in fibers.values())


def build(nu, delta, q, disc):
    return build_graph(space_make(nu, delta, GF(*factor_prime_power(q)), disc))


@pytest.mark.parametrize(
    "nu,delta,q,disc,nodes,order",
    [
        (2, 0, 3, "one", 28, 1152),
        (1, 1, 9, "one", 24, 1440),
        (1, 1, 9, "z", 21, 1440),
        (1, 2, 3, "one", 33, 1440),
    ],
)
def test_search_node_counts_frozen(nu, delta, q, disc, nodes, order):
    # The oracle: the same search on all nv vertices, seeded with dimension
    # colors.  The search trace follows the refinement's cell order, so a
    # change in that order shows up here.
    g = build(nu, delta, q, disc)
    res = search_automorphisms(g.adjacency_matrix(include_loops=True), colors=_vertex_colors(g))
    assert (res.node_count, res.order) == (nodes, order)
    assert search_result(g).order == order


@pytest.mark.parametrize(
    "nu,delta,q,disc,nodes,order",
    [
        (2, 0, 3, "one", 25, 1152),
        (1, 1, 9, "one", 24, 1440),
        (1, 1, 9, "z", 21, 1440),
        (1, 2, 3, "one", 28, 1440),
        (2, 1, 3, "one", 40, 51840),
        (2, 0, 5, "one", 458, 28800),  # twice the generated 14400, four times the formula
    ],
)
def test_point_search_node_counts_frozen(nu, delta, q, disc, nodes, order):
    # search_result searches the P points and lifts its generators.
    g = build(nu, delta, q, disc)
    res = search_result(g, budget=3000)
    assert (res.node_count, res.order) == (nodes, order)
    assert all(g.is_automorphism(p) for p in res.generators)


def test_search_seconds_cover_the_certificate(g43, monkeypatch):
    certify = autsearch.certify_dimension_colors

    def slow_certify(g):
        time.sleep(0.05)
        certify(g)

    monkeypatch.setattr(autsearch, "certify_dimension_colors", slow_certify)
    res = search_result(g43)
    assert res.order == 1152
    assert res.seconds >= 0.05


def test_search_result_lists_only_point_neighbours(monkeypatch):
    # the certificate reads the (loop, degree) classes, so the one set of
    # neighbour lists a search_result builds is the P = 40 points', and
    # none is kept on the (fresh) full graph
    sizes = []

    def recording(rows):
        sizes.append(len(rows))
        return neighbour_lists(rows)

    monkeypatch.setattr(graph_module, "neighbour_lists", recording)
    g = build_graph(space_make(2, 0, F3))
    assert search_result(g).order == 1152
    assert sizes == [40] and "nbrs" not in vars(g)


def test_search_budget(g23):
    assert search_result(g23, budget=4).order == 4
    with pytest.raises(BudgetExceeded):
        search_result(g23, budget=3)
    assert DEFAULT_SEARCH_BUDGET == 2000
