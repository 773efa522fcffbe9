import hashlib
import itertools
import json
import time
from collections import deque

import numpy as np
import pytest

from conftest import diagonal, mat_mul, search_automorphisms, vertex_index

from oigraph import autsearch
from oigraph import graph as graph_module
from oigraph.autsearch import (
    DEFAULT_SEARCH_BUDGET,
    _Search,
    _vertex_colors,
    certify_dimension_colors,
    color_partition,
    individualize,
    refine,
    search_result,
)
from oigraph.cli import main
from oigraph.gf import GF, factor_prime_power
from oigraph.geometry import classify_type, space_make, subspace_make
from oigraph.graph import BudgetExceeded, OiGraph, build_graph, neighbour_lists, preserves_adjacency
from oigraph.symmetry import (
    PermGroup,
    aut_order_formula,
    group_order,
    po_e_generators,
    point_generators,
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


def build(nu, delta, q, disc):
    return build_graph(space_make(nu, delta, GF(*factor_prime_power(q)), disc))


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


def cells_of(order, cell_at):
    """The partition (order, cell_at) as a list of cells, each a list."""
    heads = np.flatnonzero(cell_at).tolist()
    return [order[s : s + cell_at[s]].tolist() for s in heads]


def refined_cells(g, colors):
    order, cell_at = color_partition(colors)
    refine(g.nbrs, order, cell_at)
    return cells_of(order, cell_at)


def test_refine_trivial_coloring_oi23(g23):
    # loops split from edge endpoints by degree
    assert refined_cells(g23, [0, 0, 0, 0]) == [[0, 1], [2, 3]]


def test_refine_discrete_fixed_point(g23):
    order, cell_at = color_partition([3, 2, 1, 0])
    refine(g23.nbrs, order, cell_at)
    assert (order.tolist(), cell_at.tolist()) == ([3, 2, 1, 0], [1, 1, 1, 1])


def cells_from_colors(colors):
    """The vertices grouped by color, colors ascending, each group in
    ascending vertex order: the reference for color_partition."""
    return [[v for v, c in enumerate(colors) if c == col] for col in sorted(set(colors))]


def bits(cell):
    return sum(1 << v for v in cell)


def split_by_count(adj, cell, splitter):
    """The parts of cell by number of neighbours in the bitset splitter,
    counts ascending, each keeping the cell's vertex order."""
    buckets = {}
    for v in cell:
        buckets.setdefault((adj[v] & splitter).bit_count(), []).append(v)
    return [buckets[key] for key in sorted(buckets)]


def reference_refine_cells(adj, cells, splitters=None):
    """Reference refinement over bitsets, with refine's queue rule: a stale
    splitter is skipped, and a split cell that is not queued does not queue
    its first largest part.  Every splitter rescans every cell.  splitters
    lists vertex sets, every cell if None.  The oracle for refine's ordered
    output."""
    cells = [list(c) for c in cells]
    work = deque(map(bits, cells if splitters is None else splitters))
    pending = set(work)
    while work:
        splitter = work.popleft()
        if splitter not in pending:
            continue
        pending.remove(splitter)
        out = []
        for cell in cells:
            parts = split_by_count(adj, cell, splitter)
            out += parts
            if len(parts) == 1:
                continue
            if bits(cell) in pending:
                pending.remove(bits(cell))
            else:
                parts.remove(max(parts, key=len))
            work.extend(map(bits, parts))
            pending.update(map(bits, parts))
        cells = out
    return cells


def fifo_refine_cells(adj, cells):
    """Refinement over bitsets from every cell, every part of every split
    queued, first in first out: the rule refine used before it skipped
    parts, whose partition, as a set of cells, refine must still reach."""
    cells = [list(c) for c in cells]
    work = deque(map(bits, cells))
    while work:
        splitter = work.popleft()
        out = []
        for cell in cells:
            parts = split_by_count(adj, cell, splitter)
            out += parts
            if len(parts) > 1:
                work.extend(map(bits, parts))
        cells = out
    return cells


def bitset_rows(g):
    return [bits(np.flatnonzero(row).tolist()) for row in g.adjacency_matrix()]


def first_path_children(g, order, cell_at):
    """(cells, i, w, child) for every w of the target cell at every depth of
    the first path below the equitable partition (order, cell_at): the
    parent's cells, the index of its target cell, and the child."""
    while (t := _Search._target(cell_at)) is not None:
        cells = cells_of(order, cell_at)
        i = np.flatnonzero(cell_at).tolist().index(t)
        children = [individualize(g.nbrs, order, cell_at, t, w) for w in cells[i]]
        assert cells_of(order, cell_at) == cells  # the parent is left as it was
        yield from ((cells, i, w, child) for w, child in zip(cells[i], children))
        order, cell_at = children[0]


SPACES = [(1, 1, 3, "one"), (2, 0, 3, "one"), (1, 0, 9, "one"), (1, 1, 9, "z")]


@pytest.mark.parametrize("nu,delta,q,disc", SPACES)
def test_refine_matches_bitset_reference(nu, delta, q, disc):
    # Same ordered cells, same vertex order inside each, as a rescan of every
    # cell with the same queue: on the search's colors, on the certificate's
    # (loop, degree) colors, and at every node of the first path, each depth
    # and each w of its target cell, where individualize refines from {w}.
    g = build(nu, delta, q, disc)
    adj = bitset_rows(g)
    loop_degree = [(g.loop_at(v), g.degree(v)) for v in range(g.nv)]
    assert refined_cells(g, loop_degree) == reference_refine_cells(adj, cells_from_colors(loop_degree))
    colors = _vertex_colors(g)
    order, cell_at = color_partition(colors)
    assert cells_of(order, cell_at) == cells_from_colors(colors)
    refine(g.nbrs, order, cell_at)
    assert cells_of(order, cell_at) == reference_refine_cells(adj, cells_from_colors(colors))
    depths = 0
    for cells, i, w, child in first_path_children(g, order, cell_at):
        split = cells[:i] + [[w], [x for x in cells[i] if x != w]] + cells[i + 1 :]
        assert cells_of(*child) == reference_refine_cells(adj, split, splitters=[[w]])
        depths += w == cells[i][0]  # each depth has one first child
    assert depths > 1


@pytest.mark.parametrize("nu,delta,q,disc", SPACES)
def test_refine_partition_matches_fifo_reference(nu, delta, q, disc):
    # Skipping parts changes the order of the cells, never the cells: the
    # root and every first-path child give the set partition that the old
    # all-parts queue gives from every cell.
    g = build(nu, delta, q, disc)
    adj = bitset_rows(g)
    as_set = lambda cells: {frozenset(c) for c in cells}
    colors = _vertex_colors(g)
    order, cell_at = color_partition(colors)
    refine(g.nbrs, order, cell_at)
    assert as_set(cells_of(order, cell_at)) == as_set(fifo_refine_cells(adj, cells_from_colors(colors)))
    for cells, i, w, child in first_path_children(g, order, cell_at):
        split = cells[:i] + [[w], [x for x in cells[i] if x != w]] + cells[i + 1 :]
        assert as_set(cells_of(*child)) == as_set(fifo_refine_cells(adj, split))


@pytest.mark.parametrize("key", [(2, 0, 3, "one"), (1, 1, 9, "z")], ids=["oi43", "oi39-z"])
def test_refine_is_label_equivariant(key):
    # Refining a relabelled graph from the relabelled partition gives the
    # same cell_at and the relabelled order, at the root and on the first
    # path of the relabelled search.
    g = build(*key)
    rng = np.random.default_rng(29)
    A = g.adjacency_matrix(include_loops=True)
    for _ in range(3):
        rho = rng.permutation(g.nv)  # vertex v is relabelled rho[v]
        inv = np.argsort(rho)
        rows = np.packbits(A[np.ix_(inv, inv)], axis=1, bitorder="little")
        nbrs = neighbour_lists(rows)
        order, cell_at = color_partition(_vertex_colors(g))
        order2, cell_at2 = rho[order], cell_at.copy()
        refine(g.nbrs, order, cell_at)
        refine(nbrs, order2, cell_at2)
        while True:
            assert np.array_equal(cell_at2, cell_at)
            assert np.array_equal(order2, rho[order])
            if (t := _Search._target(cell_at)) is None:
                break
            w = order[t + cell_at[t] - 1]  # the last vertex, not the one the order puts first
            order, cell_at = individualize(g.nbrs, order, cell_at, t, w)
            order2, cell_at2 = individualize(nbrs, order2, cell_at2, t, rho[w])


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
    cells = sorted(tuple(sorted(c)) for c in refined_cells(g43, _vertex_colors(g43)))
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
    cells = sorted(tuple(sorted(c)) for c in refined_cells(g33, _vertex_colors(g33)))
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
    gens = po_e_generators(g) + search_result(g).generators
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
        search.first_leaf = np.arange(4)
        assert (search._check_leaf(np.array([3, 2, 1, 0])) is not None) == reversal_ok
        assert search._check_leaf(np.array([1, 0, 2, 3])) is None  # edge 1-2 goes to 0-2
        assert list(search._check_leaf(np.arange(4))) == [0, 1, 2, 3]


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


@pytest.mark.parametrize(
    "nu,delta,q,disc,nodes,order",
    [
        (2, 0, 3, "one", 18, 1152),
        (1, 1, 9, "one", 16, 1440),
        (1, 1, 9, "z", 16, 1440),
        (1, 2, 3, "one", 22, 1440),
    ],
    ids=["oi43", "oi39", "oi39-z", "oi43-delta2"],
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
        (2, 0, 3, "one", 18, 1152),
        (1, 1, 9, "one", 16, 1440),
        (1, 1, 9, "z", 16, 1440),
        (1, 2, 3, "one", 22, 1440),
        (2, 1, 3, "one", 25, 51840),
        (2, 0, 5, "one", 18, 28800),  # twice the generated 14400, four times the formula
    ],
    ids=["oi43", "oi39", "oi39-z", "oi43-delta2", "oi53", "oi45"],
)
def test_point_search_node_counts_frozen(nu, delta, q, disc, nodes, order):
    # search_result searches the P points and lifts its generators.
    g = build(nu, delta, q, disc)
    res = search_result(g)
    assert (res.node_count, res.order) == (nodes, order)
    assert all(g.is_automorphism(p) for p in res.generators)


@pytest.mark.parametrize(
    "q,nodes,order", [(5, 18, 28800), (7, 27, 225792), (9, 39, 2073600)], ids=["oi45", "oi47", "oi49"]
)
def test_hyperbolic_ladder_search(q, nodes, order):
    # Oi(4,q), nu = 2 and delta = 0: the search order is twice PO*E, the
    # similitude that scales the form by a nonsquare being the extra factor
    g = build(2, 0, q, "one")
    res = search_result(g)
    assert (res.order, res.node_count) == (order, nodes)
    assert res.order == 2 * group_order(point_generators(g))


# sha256 of `oigraph aut --method search` JSON with "runtime" removed, and of
# the tests' full-vertex search's generator bytes (int64) on Oi(4,3), frozen
# once the search targeted the first non-singleton cell and the refinement
# left out the largest part of a cell that was not queued
FROZEN_SEARCH_DIGESTS = {
    ("2", "0", "one", "3"): "682f84962df0e051d2db330b3af066062251f66b30311e9a440226cf312f97fd",
    ("1", "2", "one", "3"): "459350ef45035e7d1091f1d115230b80efb18f26f91f5f76e363be1f5f7f2037",
    ("1", "1", "z", "9"): "a08686d1373181f71c0c6ecdc5cc2a98e1439d3f5d310894ebabf97c1453f13e",
    ("2", "1", "one", "3"): "0925472d176028b23f28d1008c3fce0e86217a007ba385b526acb249dcf7cafe",
    ("2", "0", "one", "5"): "f07913be04653bd7f8b971132fdc3e1bdd2b62c3840b30d1d09f886da71ee4c5",
}
FROZEN_FULL_SEARCH_GENERATORS_OI43 = "66448222a7701f1eb65a90adda642e2aa7057dda7afd3b5e6debe7215a84b331"


@pytest.mark.parametrize("key", list(FROZEN_SEARCH_DIGESTS), ids=["oi43", "oi43-delta2", "oi39-z", "oi53", "oi45"])
def test_search_output_digests_frozen(key, capsys):
    nu, delta, disc, q = key
    assert main(["aut", "--method", "search", "--nu", nu, "--delta", delta, "--disc", disc, "--field", q]) == 0
    payload = json.loads(capsys.readouterr().out)
    del payload["runtime"]
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == FROZEN_SEARCH_DIGESTS[key]


def test_full_search_generators_frozen(g43):
    res = search_automorphisms(g43.adjacency_matrix(include_loops=True), colors=_vertex_colors(g43))
    gens = np.array(res.generators, dtype=np.int64).tobytes()
    assert hashlib.sha256(gens).hexdigest() == FROZEN_FULL_SEARCH_GENERATORS_OI43


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


def test_search_budget_counts_points():
    # Oi(5,3) has 2662 vertices on 121 points, and the search covers the points
    g = build(2, 1, 3, "one")
    assert (g.nv, len(g.dim1_ids())) == (2662, 121)
    assert search_result(g, budget=121).order == 51840
    with pytest.raises(BudgetExceeded, match="121 search points, budget is 120"):
        search_result(g, budget=120)
