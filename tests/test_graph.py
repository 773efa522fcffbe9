import hashlib
import importlib.util
import itertools
import json
import math
import pathlib
import random
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import components, dual, unit, vertex_index

from oigraph import graph as graph_module
from oigraph.autsearch import search_result
from oigraph.gf import GF, factor_prime_power
from oigraph.geometry import (
    classify_type,
    eliminate,
    gauss_binomial,
    gram,
    point_ids,
    rref_bases,
    rref_point_ids,
    space_make,
    subspace_make,
    subspace_span,
)
from oigraph.graph import (
    BudgetExceeded,
    OiGraph,
    adjacent,
    build_graph,
    common_points,
    degrees,
    diameter_sources,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    json_pieces,
    max_clique_dim1,
    neighbour_lists,
    pair_blocks,
    recover_parameters,
)
from oigraph.symmetry import point_generators

F3 = GF(3)
F5 = GF(5)
F9 = GF(3, 2)


@pytest.fixture(scope="module")
def g23():
    return build_graph(space_make(1, 0, F3))


@pytest.fixture(scope="module")
def g33():
    return build_graph(space_make(1, 1, F3))


@pytest.fixture(scope="module")
def g43():
    return build_graph(space_make(2, 0, F3))


def test_oi23_structure(g23):
    # hand enumeration over F_3^2 with S = [[0,1],[1,0]]:
    # points (0,1),(1,0) isotropic; (1,1) ~ (1,2) since 1*2+1*1 = 0 mod 3
    assert g23.nv == 4
    assert [P.rows[0] for P in g23.verts] == [(0, 1), (1, 0), (1, 1), (1, 2)]
    assert list(g23.loop_ids()) == [0, 1]
    assert g23.edges() == [(2, 3)]
    assert [g23.degree(v) for v in range(4)] == [0, 0, 1, 1]
    assert sorted(components(g23)) == [[0], [1], [2, 3]]
    assert g23.diameter() is math.inf


def test_oi25_disconnected():
    g = build_graph(space_make(1, 0, F5))
    assert g.nv == 6
    assert g.edges() == [(2, 5), (3, 4)]  # 1+4 = 2+3 = 0 mod 5
    assert len(components(g)) == 4
    assert g.diameter() is math.inf


def test_vertex_order_and_counts(g43):
    assert g43.nv == 210  # 40 + 130 + 40
    dims = [P.m for P in g43.verts]
    assert dims == sorted(dims)
    for m, want in ((1, 40), (2, 130), (3, 40)):
        block = [P.rows for P in g43.verts if P.m == m]
        assert len(block) == want
        assert block == sorted(block)


def test_loops_are_totally_isotropic(g43):
    for v in range(g43.nv):
        expect = not any(map(any, gram(g43.verts[v])))
        assert g43.loop_at(v) == expect
        assert classify_type(g43.verts[v]).r == 0 or not g43.loop_at(v)


def test_degrees_match_pairwise_test(g33):
    assert g33.nv == 26
    for v in range(g33.nv):
        brute = sum(
            1
            for u in range(g33.nv)
            if u != v and adjacent(g33.verts[u], g33.verts[v])
        )
        assert g33.degree(v) == brute


def test_adjacency_matches_dual_containment(g43):
    def contained(A, B):  # A subseteq B
        return len(eliminate(B.space.field, B.rows + A.rows)[1]) == B.m

    for u, v in [(0, 1), (3, 77), (40, 200), (12, 199), (100, 101), (5, 150), (7, 7)]:
        A, B = g43.verts[u], g43.verts[v]
        dual_sub = subspace_make(g43.space, dual(A).rows)
        assert adjacent(A, B) == contained(B, dual_sub)


def test_adjacency_matches_defining_relation():
    for space in (space_make(1, 1, F3), space_make(1, 0, F9), space_make(1, 1, F9, disc="z")):
        g = build_graph(space)
        A = g.adjacency_matrix()
        for u in range(g.nv):
            for v in range(g.nv):
                got = g.loop_at(u) if u == v else bool(A[u, v])
                assert got == adjacent(g.verts[u], g.verts[v]), (space, u, v)


def test_extension_field_graph():
    g = build_graph(space_make(1, 0, F9))
    assert g.nv == 10
    assert g.loops.bit_count() == 2
    # every anisotropic point (1, a) pairs with (1, -1/a): a perfect matching
    assert len(g.edges()) == 4
    assert all(g.degree(v) in (0, 1) for v in range(g.nv))


def test_connectivity_small_spaces(g33, g43):
    assert len(components(g33)) == 1
    gz = build_graph(space_make(1, 1, F3, disc="z"))
    assert len(components(gz)) == 1
    assert len(components(g43)) == 1


def test_diameter_oi43(g43):
    assert g43.diameter() == 4


def bfs_diameter(g):
    """The diameter from one single-source BFS per source: diameter()'s oracle."""
    best = 0
    for src in range(g.nv):
        levels = list(g.bfs_levels(src))
        if sum(map(len, levels)) < g.nv:
            return math.inf
        best = max(best, len(levels) - 1)
    return best


def _relinked(g, edges, loops=(), nv=None):
    """A graph on g's first nv vertices (all by default) whose only edges
    and loops are the given ones."""
    nv = g.nv if nv is None else nv
    rows = np.zeros((nv, (nv + 7) // 8), dtype=np.uint8)
    for u, v in [*edges, *((v, v) for v in loops)]:
        rows[u, v >> 3] |= 1 << (v & 7)
        rows[v, u >> 3] |= 1 << (u & 7)
    return OiGraph(g.space, g.verts[:nv], rows)


@pytest.fixture(scope="module")
def diameter_cases(g43):
    graphs = [
        build_graph(space_make(nu, delta, f, disc))
        for nu, delta, f, disc in [
            (1, 0, F3, "one"), (1, 0, F5, "one"), (1, 1, F3, "one"), (1, 1, F3, "z"),
            (2, 0, F3, "one"), (1, 2, F3, "one"), (1, 1, F9, "one"), (2, 0, F5, "one"),
        ]
    ]
    # 210 vertices, so sources can span several 64-bit batches: a path from
    # 63 to 127, the last sources of two batches (diameter 209), and the path
    # 0, 1, ..., 209 cut so that only sources 200..209, all in the last batch,
    # miss vertex 0
    ends = [63, *(v for v in range(g43.nv) if v not in (63, 127)), 127]
    cut = [(v, v + 1) for v in range(g43.nv - 1) if v != 199]
    graphs += [_relinked(g43, zip(ends, ends[1:])), _relinked(g43, cut)]
    return [(g, bfs_diameter(g)) for g in graphs]


@pytest.mark.parametrize("block", [None, 256])
def test_diameter_matches_single_source_oracle(diameter_cases, block, monkeypatch):
    # a 256-byte block makes every batch 64 sources and every gather at most
    # 8 list entries, so most graphs run many batches and chunks
    if block is not None:
        monkeypatch.setattr(graph_module, "_BLOCK", block)
    expected = [math.inf, math.inf, 4, 4, 4, 4, 4, 4, 209, math.inf]
    assert [want for _, want in diameter_cases] == expected
    assert [g.diameter() for g, _ in diameter_cases] == expected


def _lemma_graph(rng, g, split):
    """A random graph on g's first 2..nv vertices, their ids shuffled: a
    random tree on a core with extra edges and random loops, pendant
    vertices and pendant paths hung on it, and, if split, a second core,
    K2 components and isolated looped vertices besides."""
    nv = rng.randrange(2, g.nv + 1)
    ids = rng.sample(range(nv), nv)
    edges, loops = [], rng.sample(ids, len(ids) // 10)

    def core(vs):
        edges.extend((v, rng.choice(vs[:i])) for i, v in enumerate(vs) if i)
        edges.extend(rng.sample(vs, 2) for _ in range(rng.randrange(len(vs))))

    def hang(vs, onto):
        for v in vs:
            edges.append((v, rng.choice(onto)))
            onto = onto + [v] if rng.random() < 0.3 else onto  # paths too

    if not split:
        k = rng.randrange(1, nv + 1)
        core(ids[:k])
        hang(ids[k:], ids[:k])
    else:
        k, m = sorted(rng.sample(range(1, nv + 1), 2))
        pieces = ids[m:]
        core(ids[:k])
        core(ids[k:m])
        hang(pieces[: len(pieces) // 2], ids[:m])
        rest = pieces[len(pieces) // 2 :]
        edges.extend(zip(rest[: len(rest) // 2 : 2], rest[1 : len(rest) // 2 : 2]))  # K2s
        loops += rest[len(rest) // 2 :]  # isolated looped vertices
    return _relinked(g, [(u, v) for u, v in edges if u != v], loops, nv)


@pytest.mark.parametrize("block", [None, 256])
def test_diameter_lemma_on_random_graphs(g43, block, monkeypatch):
    # the leaf-dominated sources give the diameter of graphs that are no
    # orthogonality graph.  The last is a path 0..187 with leaves 188..207
    # on its vertices 9, 18, ..., 180 and leaves 208 and 209 on its ends:
    # its sources fill three 64-source batches at a 256-byte block, and
    # only the farthest pair, 208 and 209, the last two, have eccentricity
    # 189
    rng = random.Random(20)
    graphs = [_lemma_graph(rng, g43, split) for split in [False, True] * 20]
    path = [(v, v + 1) for v in range(187)]
    leaves = [(9 * i, 187 + i) for i in range(1, 21)] + [(0, 208), (187, 209)]
    graphs.append(_relinked(g43, path + leaves))
    want = [bfs_diameter(g) for g in graphs]
    assert want[-1] == 189 and len(diameter_sources(graphs[-1].nbrs)) > 128
    assert any(d is math.inf for d in want) and sum(d is not math.inf for d in want) >= 20
    if block is not None:
        monkeypatch.setattr(graph_module, "_BLOCK", block)
    assert [g.diameter() for g in graphs] == want


def test_diameter_sources_are_the_hyperplanes(diameter_cases):
    # for n >= 3 a hyperplane x^perp is a leaf on the point x, and every
    # other vertex is x or a neighbour of x, so the sources are the P
    # hyperplanes, the last ids; Oi(2, q) has no such leaves
    graphs = [g for g, _ in diameter_cases[:8]] + [build_graph(space_make(2, 1, F3))]
    for g in graphs:
        n, q = g.space.n, g.space.field.q
        want = range(g.nv) if n == 2 else range(g.nv - gauss_binomial(n, 1, q), g.nv)
        assert diameter_sources(g.nbrs).tolist() == list(want), g.space.label()


@pytest.mark.parametrize("block", [None, 1, 256, 1000])
def test_neighbour_lists_match_adjacency(g23, g43, block, monkeypatch):
    # the one decoder, its row blocks concatenated, gives the loop-free
    # matrix's nonzero pairs in row-major order, and the CSR lists and
    # edges() agree with it.  Oi(2, 3) has looped points of degree 0.  A
    # 1-byte block decodes and counts one row at a time, a 256-byte block
    # decodes one row and counts degrees a few rows at a time, and a
    # 1000-byte block decodes four or five rows
    g39 = build_graph(space_make(1, 1, F9, "z"))
    if block is not None:
        monkeypatch.setattr(graph_module, "_BLOCK", block)
    for g in (g23, g43, g39):
        r, c = np.nonzero(g.adjacency_matrix())
        u, v = (np.concatenate(a) for a in zip(*pair_blocks(g.rows)))
        assert np.array_equal(u, r) and np.array_equal(v, c)
        indptr, indices = neighbour_lists(g.rows)
        assert indices.dtype == np.int32 and np.array_equal(indices, c)
        assert np.array_equal(indptr, np.searchsorted(r, np.arange(g.nv + 1)))
        assert g.edges() == [(a, b) for a, b in zip(r.tolist(), c.tolist()) if a < b]


def test_witness_path(g43):
    space = g43.space
    A = subspace_make(space, [unit(space, "e", 1), unit(space, "e", 2), unit(space, "f", 1)])
    B = subspace_make(space, [unit(space, "e", 1), unit(space, "f", 1), unit(space, "f", 2)])
    index = vertex_index(g43)
    u, v = index[A.rows], index[B.rows]
    assert g43.distance(u, v) == 4
    path = g43.witness_path(u, v)
    assert path[0] == u and path[-1] == v
    assert len(path) == 5
    assert len(set(path)) == 5
    for a, b in zip(path, path[1:]):
        assert adjacent(g43.verts[a], g43.verts[b])
    # each vertex's parent is the lowest-id neighbour one step nearer to u
    indptr, indices = g43.nbrs
    for i in range(1, len(path)):
        around = indices[indptr[path[i]] : indptr[path[i] + 1]].tolist()
        nearer = [w for w in around if g43.distance(u, w) == i - 1]
        assert path[i - 1] == min(nearer)


def test_witness_path_errors(g23):
    assert g23.witness_path(2, 3) == [2, 3]
    assert g23.witness_path(2, 2) == [2]
    with pytest.raises(ValueError):
        g23.witness_path(0, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: g.distance(-1, 0),
        lambda g: g.distance(0, -1),
        lambda g: g.distance(0, 10**6),
        lambda g: g.distance(0, g.nv),
        lambda g: list(g.bfs_levels(500)),
        lambda g: list(g.bfs_levels(-1)),
        lambda g: g.witness_path(0, 999),
        lambda g: g.witness_path(-1, 0),
        lambda g: g.degree(-1),
        lambda g: g.degree(g.nv),
        lambda g: g.loop_at(-1),
        lambda g: g.loop_at(g.nv),
    ],
    ids=["distance-src-negative", "distance-dst-negative", "distance-dst-huge", "distance-dst-nv",
         "bfs-500", "bfs-negative", "witness-dst-999", "witness-src-negative",
         "degree-negative", "degree-nv", "loop-negative", "loop-nv"],
)
def test_bfs_rejects_vertex_ids_out_of_range(g43, call):
    with pytest.raises(ValueError, match="vertex id"):
        call(g43)


def test_distance_profile_labels_unreachable_pairs(capsys):
    path = pathlib.Path(__file__).parents[1] / "scripts" / "distance_profile.py"
    spec = importlib.util.spec_from_file_location("distance_profile", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["1", "0", "5"]) == 0
    out = capsys.readouterr().out
    assert "  unreachable: 4\n" in out and "            1: 2\n" in out


def test_max_clique_values(g23, g33, g43):
    assert max_clique_dim1(g23) == (1, 0)
    assert max_clique_dim1(g33) == (2, 1)
    gz = build_graph(space_make(1, 1, F3, disc="z"))
    assert max_clique_dim1(gz) == (2, 1)
    assert max_clique_dim1(g43) == (2, 0)
    g25 = build_graph(space_make(1, 0, F5))
    assert max_clique_dim1(g25) == (1, 0)


def test_max_clique_degenerate_plane():
    # nu = 0, delta = 2: no isotropic points at all
    g = build_graph(space_make(0, 2, F3))
    assert g.loops == 0
    assert max_clique_dim1(g) == (2, 2)


def test_recover_parameters(g23, g33, g43):
    for g, want in ((g23, (1, 0, 3)), (g33, (1, 1, 3)), (g43, (2, 0, 3))):
        size, nonloop = max_clique_dim1(g)
        d1 = len(g.dim1_ids())
        assert recover_parameters(size, nonloop, d1) == want
    with pytest.raises(ValueError):
        recover_parameters(2, 0, 41)


def test_recover_parameters_large_field():
    # a line over F_q has q + 1 points: q is found by bisection, not by
    # stepping through every smaller q
    t0 = time.perf_counter()
    assert recover_parameters(1, 0, 10**9 + 8) == (1, 0, 10**9 + 7)
    assert time.perf_counter() - t0 < 1.0
    q = 10**9 + 7
    points = (q**4 - 1) // (q - 1)  # a 4-dimensional space
    assert recover_parameters(2, 0, points) == (2, 0, q)
    with pytest.raises(ValueError, match="no field order"):
        recover_parameters(2, 0, points + 1)
    assert time.perf_counter() - t0 < 1.0


def test_recover_parameters_rejects_non_spaces():
    with pytest.raises(ValueError, match="not a prime power"):
        recover_parameters(1, 0, 7)  # 7 = 6 + 1 points, q = 6
    with pytest.raises(ValueError, match="even"):
        recover_parameters(1, 0, 5)  # q = 4
    with pytest.raises(ValueError, match="2\\*nu \\+ delta >= 2"):
        recover_parameters(1, 1, 111)  # n = 1, where every q has one point


def test_json_round_trip(g33):
    gz = build_graph(space_make(1, 1, F3, disc="z"))
    for g in (g33, gz):
        text = graph_to_json(g)
        back = graph_from_json(text)
        assert back == g
        assert graph_to_json(back) == text


def test_json_round_trip_extension_field():
    g = build_graph(space_make(1, 0, F9))
    back = graph_from_json(graph_to_json(g))
    assert back == g
    assert back.space.field.modulus == (1, 0, 1)


def test_json_loads_shuffled_vertex_records(g43):
    data = json.loads(graph_to_json(g43))
    random.Random(5).shuffle(data["vertices"])
    assert data["vertices"][0]["id"] != 0
    assert graph_from_json(json.dumps(data)) == g43


def test_json_rejects_missing_last_vertex(g43):
    # without its last plane, with that plane's edges and loops, every
    # record is canonical and every edge is orthogonal, but the point
    # search and lift need every subspace
    data = json.loads(graph_to_json(g43))
    last = data["vertices"].pop()
    assert (last["id"], last["dim"]) == (209, 3)
    data["edges"] = [e for e in data["edges"] if 209 not in e]
    data["loops"] = [v for v in data["loops"] if v != 209]
    with pytest.raises(ValueError, match="build order"):
        graph_from_json(json.dumps(data))


def test_json_rejects_noncanonical_basis(g23):
    data = json.loads(graph_to_json(g23))
    assert data["vertices"][3]["basis"] == [[1, 2]]
    data["vertices"][3]["basis"] = [[2, 1]]  # same subspace, wrong representative
    with pytest.raises(ValueError):
        graph_from_json(json.dumps(data))


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["loops"].append(99),
        lambda d: d["loops"].append(-1),
        lambda d: d["edges"].append([2, 4]),
        lambda d: d["edges"].append([-1, 2]),
        lambda d: d["edges"].append([2, 2]),
        lambda d: d["vertices"].append(dict(d["vertices"][3])),
        lambda d: d["vertices"][3].update(id=4),
        lambda d: d["vertices"][3].update(basis=d["vertices"][2]["basis"]),
        lambda d: (d["vertices"][0].update(id=1), d["vertices"][1].update(id=0)),
        lambda d: (
            d["vertices"].pop(),
            d.update(edges=[e for e in d["edges"] if 3 not in e], loops=[v for v in d["loops"] if v != 3]),
        ),
        lambda d: d["edges"].pop(),
        lambda d: d["edges"].append([0, 2]),
        lambda d: d["loops"].append(2),
    ],
    ids=[
        "loop-99",
        "loop-negative",
        "edge-out-of-range",
        "edge-negative",
        "self-edge",
        "duplicate-vertex",
        "id-gap",
        "repeated-basis",
        "swapped-ids",
        "missing-point",
        "dropped-edge",
        "non-orthogonal-edge",
        "anisotropic-loop",
    ],
)
def test_json_rejects_malformed_graph(g23, edit):
    data = json.loads(graph_to_json(g23))
    edit(data)
    with pytest.raises(ValueError):
        graph_from_json(json.dumps(data))


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["vertices"][1].update(id=True),
        lambda d: d["vertices"][2].update(id=2.0),
        lambda d: d["vertices"][0].update(dim=True),
        lambda d: d["vertices"][0].update(basis=[[0, 0, True]]),
        lambda d: d["space"].update(nu=True),
        lambda d: d["space"].update(delta=1.0),
        lambda d: d["edges"].append(d["edges"][0]),
        lambda d: d["edges"].append(d["edges"][0][::-1]),
        lambda d: d["loops"].append(d["loops"][0]),
    ],
    ids=["id-true", "id-float", "dim-true", "basis-true", "nu-true", "delta-float", "edge-twice", "edge-both-ways", "loop-twice"],
)
def test_json_rejects_coerced_values_and_repeats(g33, edit):
    # == takes true for 1 and 2.0 for 2, and the bit comparison alone
    # ignores repeats
    data = json.loads(graph_to_json(g33))
    edit(data)
    with pytest.raises(ValueError):
        graph_from_json(json.dumps(data))


def test_json_accepts_a_reversed_edge(g33):
    data = json.loads(graph_to_json(g33))
    data["edges"][0].reverse()
    assert graph_from_json(json.dumps(data)) == g33


# sha256 of the artifacts, frozen before the adjacency moved to packed rows
FROZEN_DIGESTS = {
    (2, 0, F3, "one"): (
        "0f7a3ce692725a34882abfb449ba63fee326be18772735bb2c3fc64dfe4ee6ec",
        "ade6e666776cfb6aa1c998064c7ddc728a7c73dede3136f7791899cd72b746e6",
        "3f2dc4937fbac4e5dfc8e31661ad918b27ec0e5d80d75cf532f3e72987f3f0a4",
    ),
    (1, 1, F9, "z"): (
        "eae69ae17da177450691b4687f25a6eb6beb9e5cef323839d19965d299f2448c",
        "140e5ef02ec6ca94abe8790a4cec91fbec8e097df789af2f44f2ed87263e16b6",
        "3649b9b22134f783d46f15a3a747868ee465ea181e44f03675d9b5fad7b44592",
    ),
}


@pytest.mark.parametrize("key", list(FROZEN_DIGESTS), ids=["oi43", "oi39-z"])
def test_artifact_digests_frozen(key):
    # graph_to_json, graph_to_dot and the looped adjacency matrix's bytes
    g = build_graph(space_make(*key))
    artifacts = (
        graph_to_json(g).encode(),
        graph_to_dot(g).encode(),
        g.adjacency_matrix(include_loops=True).tobytes(),
    )
    assert tuple(hashlib.sha256(a).hexdigest() for a in artifacts) == FROZEN_DIGESTS[key]


# sha256 of the packed looped rows g.rows, frozen before the vertices came
# from one array enumeration; Oi(6,3) (nu=3, delta=0, q=3) gives
# d4979078...58dc3c too but takes minutes to build, so it is not pinned here
FROZEN_ROWS_DIGESTS = {
    (2, 1, F3, "one"): "4062913166d7e8f98ba42b877201303b9579bea3565dafab78d3579c03bd4f8d",
    (2, 0, F9, "one"): "c48a77b240a172fef187bef7ea73ae0a11ada74e8c91adb8ce76973a76752f7b",
    (1, 1, GF(5, 2), "one"): "06e29544744d3bf24605918eaa09155cbd46de85f6a2af1637b231bc41d20467",
    (1, 2, F3, "one"): "063759559d63b8e94fc7faaa1365576ede49a7d25bbcea08cb58d8932e9e25fa",
}


@pytest.mark.parametrize("key", list(FROZEN_ROWS_DIGESTS), ids=["oi53", "oi49", "oi325", "oi43-d2"])
def test_rows_digests_frozen(key):
    g = build_graph(space_make(*key))
    assert hashlib.sha256(g.rows.tobytes()).hexdigest() == FROZEN_ROWS_DIGESTS[key]


@pytest.fixture(scope="module", params=list(FROZEN_ROWS_DIGESTS), ids=["oi53", "oi49", "oi325", "oi43-d2"])
def frozen_graph(request):
    return build_graph(space_make(*request.param))


def test_degrees_count_the_subspaces_of_the_dual(frozen_graph):
    # A ~ B iff B lies in the dual of A, which has dimension n - dim A; the
    # loop of a totally isotropic A is not counted
    g = frozen_graph
    n, q = g.space.n, g.space.field.q
    nonzero = [sum(gauss_binomial(d, k, q) for k in range(1, d + 1)) for d in range(n + 1)]
    expect = [nonzero[n - P.m] - g.loop_at(v) for v, P in enumerate(g.verts)]
    assert degrees(g.rows).tolist() == expect


def test_edge_count_matches_edges(frozen_graph):
    assert frozen_graph.edge_count() == len(frozen_graph.edges())


def test_dot_output(g23):
    dot = graph_to_dot(g23)
    body = [ln for ln in dot.splitlines() if not ln.startswith("//")]
    assert body[0] == "graph oi {"
    assert body[-1] == "}"
    assert sum(1 for ln in body if "--" in ln) == 3  # one edge, two loops
    assert "  v2 -- v3;" in body
    assert "  v0 -- v0;" in body and "  v1 -- v1;" in body
    assert sum(1 for ln in body if ln.endswith(";") and "--" not in ln) == 4
    assert graph_to_dot(g23, header=False) == "\n".join(body) + "\n"
    assert graph_to_dot(g23) == dot  # deterministic


@pytest.mark.parametrize("block", [None, 1, 1000])
def test_dot_edges_by_row_block(monkeypatch, block):
    # the edges are written a row block at a time, across block bounds in
    # the order of edges(), without building the cached neighbour lists
    if block is not None:
        monkeypatch.setattr(graph_module, "_BLOCK", block)
    g = build_graph(space_make(2, 0, F3))  # 210 vertices: 4 rows a block at 1000
    dot = graph_to_dot(g, header=False)
    assert "nbrs" not in vars(g)
    want = (
        ["graph oi {"]
        + [f"  v{v};" for v in range(g.nv)]
        + [f"  v{u} -- v{v};" for u, v in g.edge_pairs_with_loops()]
        + ["}"]
    )
    assert dot == "\n".join(want) + "\n"


def test_json_pieces_stream_under_a_small_traced_peak():
    # Oi(5,3): 2662 vertices and 32146 edges in a 1.2 MB text; the edges
    # list holds tuples made a row block at a time, and the text leaves in
    # pieces (about 18 MiB traced when it was built as one string from
    # lists of pairs, about 5 MiB now)
    g = build_graph(space_make(2, 1, F3))
    tracemalloc.start()
    try:
        for _ in json_pieces(g):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_budget(g43):
    with pytest.raises(BudgetExceeded) as exc:
        build_graph(space_make(2, 0, F3), budget=100)
    assert exc.value.needed == 210
    assert exc.value.budget == 100


def test_budget_env(monkeypatch):
    monkeypatch.setenv("OIGRAPH_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        build_graph(space_make(1, 0, F3))
    monkeypatch.setenv("OIGRAPH_BUDGET", "4")
    assert build_graph(space_make(1, 0, F3)).nv == 4


def test_budget_bytes_before_allocating(monkeypatch):
    # Oi(5,7) fits the vertex budget (285702 vertices) but its packed rows
    # are about 9.5 GiB; Oi(6,3)'s 382 MiB are admitted, so it goes on to
    # enumerate its vertices, which is stopped here
    class Enumerated(Exception):
        pass

    def rref_bases(*args):
        raise Enumerated

    monkeypatch.setattr(graph_module, "rref_bases", rref_bases)
    with pytest.raises(BudgetExceeded) as exc:
        build_graph(space_make(2, 1, GF(7)))
    assert exc.value.what == "bytes"
    assert exc.value.needed == 285702 * 35713 + 4 * 7**5 + 2 * 49 + 3 * 7  # rows, point_ids, field
    assert exc.value.budget == graph_module.MAX_ADJACENCY_BYTES
    with pytest.raises(Enumerated):
        build_graph(space_make(3, 0, F3))


def test_budget_bytes_are_one_sum(monkeypatch):
    # Oi(3,9): 182 * 23 bytes of rows, 4 * 9^3 of point_ids' table and
    # 2 * 81 + 4 * 9 of uint8 GF(9) tables, refused one byte under their sum
    needed = 182 * 23 + 4 * 9**3 + 2 * 81 + 4 * 9
    monkeypatch.setattr(graph_module, "MAX_ADJACENCY_BYTES", needed - 1)
    with pytest.raises(BudgetExceeded) as exc:
        build_graph(space_make(1, 1, F9))
    assert (exc.value.needed, exc.value.what) == (needed, "bytes")
    monkeypatch.setattr(graph_module, "MAX_ADJACENCY_BYTES", needed)
    assert build_graph(space_make(1, 1, F9)).nv == 182
    monkeypatch.undo()
    # Oi(2,11587): the rows and point table (554 MB) fit, and so do the
    # uint16 field tables (537 MB), but not together
    with pytest.raises(BudgetExceeded) as exc:
        build_graph(space_make(1, 0, GF(11587)))
    assert exc.value.needed == 11588 * 1449 + 4 * 11587**2 + 2 * (2 * 11587**2 + 3 * 11587)


def test_adjacency_matrix_budget_bytes(g43, monkeypatch):
    monkeypatch.setattr(graph_module, "MAX_ADJACENCY_BYTES", 210 * 210 - 1)
    with pytest.raises(BudgetExceeded) as exc:
        g43.adjacency_matrix()
    assert (exc.value.needed, exc.value.what) == (210 * 210, "bytes")
    monkeypatch.setattr(graph_module, "MAX_ADJACENCY_BYTES", 210 * 210)
    assert g43.adjacency_matrix().shape == (210, 210)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 209), st.integers(0, 209))
def test_adjacency_symmetric(g43, u, v):
    A, B = g43.verts[u], g43.verts[v]
    assert adjacent(A, B) == adjacent(B, A)
    got = bool(g43.adjacency_matrix()[u, v]) if u != v else g43.loop_at(u)
    assert got == adjacent(A, B)


@pytest.mark.parametrize("space", [(1, 0, F3, "one"), (1, 1, F3, "one"), (1, 1, F9, "z")], ids=["P4", "P13", "P91"])
def test_dim1_subgraph_is_the_point_prefix(space):
    # the point count is not a multiple of 8 here, so the last byte of each
    # point row also holds bits of other vertices, which the subgraph drops
    g = build_graph(space_make(*space))
    ids = [v for v in range(g.nv) if g.verts[v].m == 1]
    assert list(g.dim1_ids()) == ids
    d1 = g.dim1_subgraph()
    ref = g.adjacency_matrix(include_loops=True)[np.ix_(ids, ids)]
    assert np.array_equal(d1.rows, np.packbits(ref, axis=1, bitorder="little"))
    assert d1.verts == [g.verts[v] for v in ids]


def test_induced_subgraph(g43):
    d1 = g43.dim1_subgraph()
    assert d1.nv == 40
    assert all(P.m == 1 for P in d1.verts)
    assert d1.loops.bit_count() == 16
    # degrees survive the relabeling
    indptr, indices = g43.nbrs
    for new, old in enumerate(g43.dim1_ids()):
        expect = sum(1 for w in indices[indptr[old] : indptr[old + 1]].tolist() if g43.verts[w].m == 1)
        assert d1.degree(new) == expect


# -- the vertex key of lift, and the points two vertices share --------------


KEY_SPACES = {
    "oi43": (2, 0, F3, "one"),
    "oi53": (2, 1, F3, "one"),
    "oi39-z": (1, 1, F9, "z"),
    "oi325": (1, 1, GF(5, 2), "one"),
}


@pytest.mark.parametrize("name", list(KEY_SPACES))
def test_sorted_point_ids_give_the_rref_basis_points(name):
    # every nonzero combination of each basis, each point q - 1 times over,
    # sorted; position (q^i - 1)/(q - 1) holds the point of rref row m - i
    g = build_graph(space_make(*KEY_SPACES[name]))
    f, n, q = g.space.field, g.space.n, g.space.field.q
    for m, _, _, points in g._key_table:
        coeffs = np.arange(1, q**m)[:, None] // q ** np.arange(m) % q
        sets = np.sort(point_ids(f, f.matmul(coeffs, rref_bases(f, n, m))), axis=1)[:, :: q - 1]
        assert np.array_equal(sets, points)
        assert np.array_equal(sets[:, (q ** np.arange(m - 1, -1, -1) - 1) // (q - 1)], rref_point_ids(f, n, m))


def test_vertex_keys_fit_int64(monkeypatch):
    # a key is below P^(n - 1); build_graph admits or refuses before it
    # enumerates a vertex, so a stand-in space of the right n and q is
    # enough to ask it.  The bytes grow with q and with n, so each walk
    # stops at its first refusal
    class Enumerated(Exception):
        pass

    def rref_bases(*args):
        raise Enumerated

    def admitted(n, q):
        field = SimpleNamespace(q=q, e=factor_prime_power(q)[1])
        try:
            build_graph(SimpleNamespace(n=n, field=field), budget=2**62)
        except BudgetExceeded:
            return False
        except Enumerated:
            return True

    def odd_prime_powers():
        for q in itertools.count(3, 2):
            try:
                factor_prime_power(q)
            except ValueError:
                continue
            yield q

    monkeypatch.setattr(graph_module, "rref_bases", rref_bases)
    largest = {}
    for n in itertools.takewhile(lambda n: admitted(n, 3), itertools.count(2)):
        for q in itertools.takewhile(lambda q: admitted(n, q), odd_prime_powers()):
            largest[n, q] = ((q**n - 1) // (q - 1)) ** (n - 1)
    assert max(largest, key=largest.get) == (6, 3) and largest[6, 3] == 364**5 < 2**63
    assert max(q for n, q in largest) < 11587  # Oi(2, 11587) is refused


@pytest.mark.parametrize(
    "space", [(2, 1, F3, "one"), (1, 2, F5, "one"), (1, 1, F9, "z")], ids=["oi53", "oi45-d2", "oi39-z"]
)
def test_common_points_count_the_dual_of_the_sum(space):
    # the points adjacent to both u and v are those of the dual of u + v,
    # (q^(n - m) - 1)/(q - 1) of them for m = dim(u + v).  P is no multiple
    # of 8, so the last byte of a point column also holds other vertices'
    # bits: point pairs are the ones that see them
    g = build_graph(space_make(*space))
    n, q, P = g.space.n, g.space.field.q, len(g.dim1_ids())
    rng = np.random.default_rng(32)
    edges = g.edge_pairs_with_loops()
    loops = edges[edges[:, 0] == edges[:, 1]]
    pairs = np.concatenate(
        [
            rng.integers(0, g.nv, size=(100, 2)),
            rng.integers(0, P, size=(100, 2)),
            edges[rng.integers(0, len(edges), size=100)],
            loops[rng.integers(0, len(loops), size=20)],
        ]
    )
    m = [len(subspace_span(g.space, g.verts[u].rows + g.verts[v].rows).rows) for u, v in pairs.tolist()]
    assert common_points(g, pairs[:, 0], pairs[:, 1]).tolist() == [(q ** (n - d) - 1) // (q - 1) for d in m]


@pytest.mark.parametrize("name", ["oi43", "oi39-z"])
def test_lift_and_search_on_the_points_alone(name):
    # a graph of the points alone keys only its own vertices
    g = build_graph(space_make(*KEY_SPACES[name]))
    h = g.dim1_subgraph()
    for p in point_generators(g):
        assert np.array_equal(h.lift(p), p)
    assert search_result(h).order == search_result(g).order


def test_lift_compares_whole_point_sets(g43):
    # swap the largest point of the first line with a larger point outside
    # it: the image's two least points, the basis points of its key, are
    # still the line's, but the image is no line
    coeffs = np.array([[a, b] for a in range(3) for b in range(3)][1:])
    line = sorted(set(point_ids(F3, F3.matmul(coeffs, rref_bases(F3, 4, 2)[0])).tolist()))
    outside = next(b for b in range(line[-1] + 1, 40) if b not in line)
    p = np.arange(40)
    p[[line[-1], outside]] = outside, line[-1]
    with pytest.raises(ValueError, match="vertices"):
        g43.lift(p)
