"""The orthogonal inner product graph on proper nonzero subspaces.

Vertices are all subspaces of dimension 1..n-1; A and B are adjacent iff
A S Bt is the zero matrix (equivalently B lies inside the dual of A).  A
totally isotropic vertex is adjacent to itself: such loops are recorded but
contribute nothing to degrees or distances.

Vertices are numbered in the order of geometry.rref_bases, by dimension
and then by rref basis, the one enumeration of subspaces.  Internally a
vertex is the set of projective points it contains; a point's id, among
the P = (q^n - 1)/(q - 1), is its dimension-1 vertex id, so the points are
ids 0..P-1.  geometry owns point ids: the points' vectors are
rref_bases(field, n, 1)[:, 0], every vector becomes an id through
geometry.point_ids, and a vertex's basis points are its row of
rref_point_ids.  Only the P point vectors ever meet field arithmetic.  By
bilinearity A ~ B iff every point of A is orthogonal to every point of B,
and the basis points of each vertex suffice, so the row of A is the AND
of the rows of its basis points (_fill_adjacency).  Maps of the space act
as point arrays (point_action), and lift carries a point array to the
vertices by looking up each vertex's image among the sorted point-id lists
of its dimension.  graph_from_json rebuilds the graph from its space and
accepts a file only if it holds exactly that graph.

The graph stores one adjacency: the looped matrix packed row by row, rows
an (nv, ceil(nv / 8)) uint8 array in little-endian bit order.  Bit v of
row u is set iff u ~ v, and the diagonal bit iff the vertex is totally
isotropic.  Degrees, loops, single-source breadth-first search and the
boolean matrix are read from these rows; every degree and edge count is one
popcount of them (degrees).  One decoder, pair_blocks, turns them into
adjacent pairs, loops left out, a row block at a time.  The loop-free CSR
neighbour lists it fills (neighbour_lists, kept as OiGraph.nbrs) serve the
diameter, the automorphism search's refinement and the one automorphism
test, preserves_adjacency.  The decoder's upper triangle (upper_pairs)
gives edges(), and the JSON (json_pieces) and DOT (dot_pieces) texts, which
a writer takes in pieces as they come.  The diameter is the largest
eccentricity of the leaf-dominated sources (diameter_sources): in Oi(n, q),
n >= 3, every vertex is no farther from anything than some hyperplane, a
leaf on its dual point, so the multi-source search starts from P vertices,
not nv.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os

import numpy as np

from .gf import MAX_ADJACENCY_BYTES, BudgetExceeded, factor_prime_power, parse_field
from .geometry import (
    OSpace,
    Subspace,
    SubspaceType,
    check_space_params,
    eliminate,
    eliminate_stack,
    gauss_binomial,
    point_ids,
    rref_bases,
    rref_point_ids,
    space_make,
    witt_stack,
)

DEFAULT_VERTEX_BUDGET = 10**6


def _check_bytes(needed: int) -> None:
    if needed > MAX_ADJACENCY_BYTES:
        raise BudgetExceeded(needed, MAX_ADJACENCY_BYTES, "bytes")


def vertex_budget(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("OIGRAPH_BUDGET")
    if env:
        return int(env)
    return DEFAULT_VERTEX_BUDGET


def adjacent(A: Subspace, B: Subspace) -> bool:
    """The defining relation: A S Bt identically zero (A = B tests a loop)."""
    if A.space != B.space:
        raise ValueError("vertices of different spaces")
    space = A.space
    for u in A.rows:
        for v in B.rows:
            if space.pair(u, v) != 0:
                return False
    return True


class OiGraph:
    def __init__(self, space: OSpace, verts, rows: np.ndarray):
        self.space = space
        self.verts = list(verts)
        self.nv = len(self.verts)
        self.rows = rows  # packed looped adjacency, see the module docstring

    # -- basic queries -----------------------------------------------------

    def degree(self, v: int) -> int:
        self._check_id(v)
        return int(np.bitwise_count(self.rows[v]).sum()) - self.loop_at(v)

    def loop_at(self, v: int) -> bool:
        self._check_id(v)
        return bool(self.rows[v, v >> 3] & _BIT[v & 7])

    @property
    def loops(self) -> int:
        """Bitset of the totally isotropic vertices, the looped ones."""
        return int.from_bytes(np.packbits(_diagonal(self.rows), bitorder="little").tobytes(), "little")

    def loop_ids(self):
        return np.flatnonzero(_diagonal(self.rows)).tolist()

    def edges(self):
        """Non-loop edges as sorted (u, v) pairs with u < v."""
        return [e for u, v in upper_pairs(self.rows) for e in zip(u.tolist(), v.tolist())]

    def edge_count(self) -> int:
        """The number of non-loop edges, len(edges()) without listing them."""
        return int(degrees(self.rows).sum()) // 2

    def edge_pairs_with_loops(self):
        return self.edges() + [(v, v) for v in self.loop_ids()]

    def adjacency_matrix(self, include_loops: bool = False) -> np.ndarray:
        _check_bytes(self.nv * self.nv)
        M = _unpack(self.rows, self.nv)
        if not include_loops:
            np.fill_diagonal(M, False)
        return M

    def is_automorphism(self, perm) -> bool:
        """Whether the vertex array perm maps adjacent ordered pairs, loops
        included, to adjacent pairs; ValueError unless perm is a bijection of
        the vertices.  A bijection maps that finite set injectively into
        itself, hence onto it, so this is A[perm][:, perm] == A."""
        arr = np.asarray(perm, dtype=np.int64)
        if arr.shape != (self.nv,):
            raise ValueError("permutation length does not match vertex count")
        if not np.array_equal(np.sort(arr), np.arange(self.nv)):
            raise ValueError("not a bijection on vertices")
        return preserves_adjacency(self.rows, self.nbrs, arr)

    @functools.cached_property
    def nbrs(self):
        """neighbour_lists of the rows, made once per graph."""
        return neighbour_lists(self.rows)

    # -- point representation ----------------------------------------------

    @functools.cached_property
    def _point_sets(self):
        """Per run of equal-dimension vertices: (first id, each vertex's
        sorted point ids, those keys sorted, the run position of each)."""
        f, n = self.space.field, self.space.n
        out, start = [], 0
        for m in range(1, n):
            bases = rref_bases(f, n, m)
            coeffs = rref_bases(f, m, 1)[:, 0]  # one combination per point
            points = np.sort(point_ids(f, f.matmul(coeffs, bases)), axis=1)
            keys = _id_keys(points)
            order = np.argsort(keys, kind="stable")
            out.append((start, points, keys[order], order))
            start += len(bases)
        return out

    def point_action(self, vec_map) -> np.ndarray:
        """The int64 point array p of an invertible semilinear map (point a
        goes to p[a]), or a stack of them if vec_map, which takes the (P, n)
        point vectors to their images, returns a stack of images.
        ValueError unless every image permutes the points."""
        f = self.space.field
        p = point_ids(f, vec_map(rref_bases(f, self.space.n, 1)[:, 0])).astype(np.int64)
        if not (np.sort(p, axis=-1) == np.arange(p.shape[-1])).all():
            raise ValueError("map does not permute the projective points")
        return p

    def lift(self, point_perm) -> np.ndarray:
        """The int64 vertex array of a point permutation of any integer
        dtype: vertex A goes to the vertex whose point set is the image of
        A's.  ValueError unless point_perm permutes the points and every
        vertex's image is a vertex."""
        p = np.asarray(point_perm)
        P = len(self.dim1_ids())
        if p.shape != (P,) or not np.array_equal(np.sort(p), np.arange(P)):
            raise ValueError("not a permutation of the projective points")
        p = p.astype(np.int32)  # as the point ids: half the bytes to sort and key
        out = np.empty(self.nv, dtype=np.int64)
        for start, points, keys, order in self._point_sets:
            found = _id_keys(np.sort(p[points], axis=1))
            pos = np.searchsorted(keys, found).clip(max=len(keys) - 1)
            if not np.array_equal(keys[pos], found):
                raise ValueError("map does not carry vertices to vertices")
            out[start : start + len(points)] = start + order[pos]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, OiGraph)
            and self.space == other.space
            and [P.rows for P in self.verts] == [P.rows for P in other.verts]
            and np.array_equal(self.rows, other.rows)
        )

    # -- connectivity ------------------------------------------------------

    def bfs_levels(self, src: int):
        """Breadth-first levels from src as ascending vertex id arrays.

        A level is one OR-reduction of the previous level's packed rows, so
        the work per level is about that level's rows, nv / 8 bytes each.
        Loops are harmless: a vertex's own bit is already reached.
        """
        self._check_id(src)
        reached = np.zeros(self.rows.shape[1], dtype=np.uint8)
        reached[src >> 3] = 1 << (src & 7)
        level = np.array([src])
        while True:
            yield level
            fresh = np.bitwise_or.reduce(self.rows[level], axis=0) & ~reached
            if not fresh.any():
                return
            reached |= fresh
            level = np.flatnonzero(_unpack(fresh, self.nv))

    def diameter(self):
        """The largest distance between two vertices, or math.inf if disconnected.

        Only the sources of diameter_sources are searched.  Lemma: let H be
        a leaf with neighbour x, and W != H a vertex with x = W or x ~ W.
        Then ecc(W) <= ecc(H), with ecc infinite where a vertex is
        unreachable.  Proof: for X != H every path from H to X leaves H
        through x, so d(W, X) <= d(W, x) + d(x, X) <= 1 + d(x, X) = d(H, X);
        and d(W, H) <= ecc(H).  Every vertex outside the sources is such a
        W for some leaf H, which is a source, so the largest eccentricity
        of the sources is the diameter, infinite exactly when the graph is
        disconnected.  In Oi(n, q), n >= 3, the sources are the P
        hyperplanes: H = x^perp has the one neighbour x, and every other
        vertex W lies in some hyperplane H, so x = W or x ~ W.

        The sources advance together as bits (multi-source bit-parallel
        BFS): bit s of reach[v] is set once source s has reached v, and one
        round ORs into reach[v] the reach of every neighbour of v.  Rounds
        run until nothing changes; the rounds that changed something number
        the largest eccentricity of the batch.  The sources go in batches
        of 64-bit words, so reach is (nv, words); it, the next round's reach
        and each gather stay within a quarter of _BLOCK bytes.  The graph
        is connected iff every source reached every vertex, the AND of
        reach over the vertices holding every source's bit.
        """
        indptr, indices = self.nbrs
        sources = diameter_sources(self.nbrs)
        part = _BLOCK // 4  # for reach, the next round's reach and one gather
        words = max(1, min(-(-len(sources) // 64), part // (8 * max(self.nv, 1))))
        chunks = _gather_chunks(indptr, part // (8 * words))
        best = 0
        for base in range(0, len(sources), 64 * words):
            src = sources[base : base + 64 * words]
            bit = np.arange(len(src))
            reach = np.zeros((self.nv, words), dtype=np.uint64)
            reach[src, bit >> 6] = _WORD_BIT[bit & 63]
            full = np.bitwise_or.reduce(reach, axis=0)
            rounds = 0
            while True:
                grown = reach.copy()
                for ids, a, b, starts in chunks:
                    grown[ids] |= np.bitwise_or.reduceat(reach[indices[a:b]], starts, axis=0)
                if np.array_equal(grown, reach):
                    break
                reach, rounds = grown, rounds + 1
            if not np.array_equal(np.bitwise_and.reduce(reach, axis=0), full):
                return math.inf
            best = max(best, rounds)
        return best

    def _check_id(self, v) -> None:
        if not 0 <= v < self.nv:
            raise ValueError(f"vertex id {v} outside 0..{self.nv - 1}")

    def distance(self, u: int, v: int):
        self._check_id(v)
        for d, level in enumerate(self.bfs_levels(u)):
            if v in level:
                return d
        return math.inf

    def witness_path(self, u: int, v: int):
        """A shortest u-v path as a vertex id list: each vertex's parent is
        the lowest-id vertex of the previous level adjacent to it."""
        self._check_id(v)
        levels = []
        for level in self.bfs_levels(u):
            levels.append(level)
            if v in level:
                break
        else:
            raise ValueError(f"vertices {u} and {v} are in different components")
        path = [v]
        for level in reversed(levels[:-1]):
            adjacent_to_last = _unpack(self.rows[path[-1]], self.nv)[level]
            path.append(int(level[adjacent_to_last.argmax()]))
        return path[::-1]

    # -- induced dimension-1 part -----------------------------------------

    def dim1_ids(self):
        """The dimension-1 vertices, the P points: vertices are ordered by
        dimension first, so these are ids 0..P-1."""
        return range(gauss_binomial(self.space.n, 1, self.space.field.q))

    def dim1_subgraph(self) -> "OiGraph":
        P = len(self.dim1_ids())
        sub = self.rows[:P, : (P + 7) // 8].copy()
        if P % 8:
            sub[:, -1] &= (1 << P % 8) - 1  # bits of vertices past the points
        return OiGraph(self.space, self.verts[:P], sub)


def preserves_adjacency(rows: np.ndarray, nbrs, p: np.ndarray) -> bool:
    """Whether the vertex bijection p keeps the packed looped rows: p maps
    loops to loops and non-loops to non-loops, and every adjacent pair of
    the CSR neighbour lists nbrs onto a set bit of rows.  A bijection maps
    the finite set of adjacent pairs injectively into itself, hence onto
    it, so this is A[p][:, p] == A."""
    loops = _diagonal(rows)
    if not np.array_equal(loops[p], loops):
        return False
    indptr, indices = nbrs
    c = p[indices]
    at = np.repeat(p * rows.shape[1], np.diff(indptr)) + (c >> 3)  # flat: beats rows[r, c >> 3]
    return bool((rows.ravel()[at] & _BIT[c & 7]).all())


_BIT = (1 << np.arange(8)).astype(np.uint8)
_WORD_BIT = np.left_shift(1, np.arange(64, dtype=np.uint64), dtype=np.uint64)

# Blockwise loops size their temporaries to stay near this many bytes.
_BLOCK = 1 << 18


def pair_blocks(rows: np.ndarray):
    """The adjacent ordered pairs of the packed looped rows, loops left out,
    as row-major (u, v) intp id arrays, one row block at a time.  This is
    the one place unpacked rows become pairs; one block is unpacked at a
    time, so no nv x nv matrix is made beside one a caller may hold."""
    nv = len(rows)
    step = max(1, _BLOCK // max(nv, 1))
    for lo in range(0, nv, step):
        block = _unpack(rows[lo : lo + step], nv)
        block[np.arange(len(block)), np.arange(lo, lo + len(block))] = False  # the loops
        u, v = np.divmod(np.flatnonzero(block), nv)  # 2-d nonzero is ~6x slower
        u += lo
        yield u, v


def upper_pairs(rows: np.ndarray):
    """The non-loop edges u < v of pair_blocks, a row block at a time."""
    for u, v in pair_blocks(rows):
        upper = u < v
        yield u[upper], v[upper]


def neighbour_lists(rows: np.ndarray):
    """Loop-free CSR neighbour lists (indptr, indices) of the packed looped
    rows: the neighbours of v, ascending, are indices[indptr[v]:indptr[v + 1]].
    Indices are int32 (vertex counts stay far below 2^31).  The degrees
    come first, so pair_blocks fills the indices into one array."""
    indptr = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(degrees(rows), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    at = 0
    for _, v in pair_blocks(rows):
        indices[at : at + len(v)] = v
        at += len(v)
    return indptr, indices


def degrees(rows: np.ndarray) -> np.ndarray:
    """The loop-free degree of each vertex of the packed looped rows: the
    popcount of its row minus its loop bit, a row block at a time."""
    out = np.empty(len(rows), dtype=np.intp)
    step = max(1, _BLOCK // max(rows.shape[1], 1))
    for lo in range(0, len(rows), step):
        out[lo : lo + step] = np.bitwise_count(rows[lo : lo + step]).sum(axis=1)
    return out - _diagonal(rows)


def diameter_sources(nbrs) -> np.ndarray:
    """The ascending ids whose eccentricities give the diameter (the lemma
    in OiGraph.diameter), from the CSR neighbour lists nbrs: the leaves,
    and every other vertex that is neither a leaf's neighbour nor adjacent
    to one.  Each vertex's test gathers its list, in runs of _gather_chunks."""
    indptr, indices = nbrs
    deg = np.diff(indptr)
    leaf = deg == 1
    hub = np.zeros(len(deg), dtype=bool)
    hub[indices[indptr[:-1][leaf]]] = True
    covered = hub.copy()
    for ids, a, b, starts in _gather_chunks(indptr, _BLOCK):
        covered[ids] |= np.logical_or.reduceat(hub[indices[a:b]], starts)
    return np.flatnonzero(leaf | ~covered)


def _gather_chunks(indptr: np.ndarray, limit: int):
    """Runs of consecutive vertices of nonzero degree whose neighbour lists
    together hold at most limit entries (or one vertex's, if longer), as
    (vertex ids, first entry, end entry, list starts relative to the first)."""
    ids = np.flatnonzero(np.diff(indptr))
    first, end = indptr[ids], indptr[ids + 1]
    out, i = [], 0
    while i < len(ids):
        j = max(i + 1, int(np.searchsorted(end, first[i] + limit, side="right")))
        out.append((ids[i:j], first[i], end[j - 1], first[i:j] - first[i]))
        i = j
    return out


def _diagonal(rows: np.ndarray) -> np.ndarray:
    """Whether each vertex of the packed looped rows carries a loop."""
    v = np.arange(len(rows))
    return rows[v, v >> 3] & _BIT[v & 7] != 0


def _unpack(rows: np.ndarray, nv: int) -> np.ndarray:
    """Packed rows (last axis) as booleans over the nv vertices."""
    return np.unpackbits(rows, axis=-1, count=nv, bitorder="little").view(bool)


def _bits(x: int):
    while x:
        lsb = x & -x
        yield lsb.bit_length() - 1
        x ^= lsb


def build_graph(space: OSpace, budget: int | None = None) -> OiGraph:
    n, q = space.n, space.field.q
    total = sum(gauss_binomial(n, m, q) for m in range(1, n))
    cap = vertex_budget(budget)
    if total > cap:
        raise BudgetExceeded(total, cap)
    _check_bytes(total * ((total + 7) // 8) + 4 * q**n)  # the rows and point_ids' table
    verts = [Subspace(space, B) for m in range(1, n) for B in rref_bases(space.field, n, m)]
    g = OiGraph(space, verts, np.zeros((len(verts), (len(verts) + 7) // 8), dtype=np.uint8))
    _fill_adjacency(g)
    return g


def _fill_adjacency(g: OiGraph) -> None:
    """Pack the looped adjacency into g.rows from the basis points of each vertex.

    By bilinearity u ~ v iff v is orthogonal to every basis point of u, so
    row u is the AND of the rows of u's basis points; u ~ u is the loop of
    a totally isotropic u.  First the packed P x P point orthogonality rows,
    one block of points at a time: bit b of row a is set iff a S bt = 0.
    perp[v], the AND of those rows over v's basis points, marks the points
    of the dual of v, so the row of point a is column a of perp: bit v is
    set iff v lies in the dual of a.  perp is made and transposed into the
    point rows in vertex blocks of a multiple of 8, whole bytes of a point
    row, and then each vertex row is one AND-reduction of point rows, a row
    block at a time.  Bases are padded to n - 1 rows by repeating their
    last row.  Temporaries stay near _BLOCK bytes.
    """
    f, n = g.space.field, g.space.n
    pts = rref_bases(f, n, 1)[:, 0]
    P = len(pts)
    forms = f.matmul(pts, g.space.form)  # x -> x S pt per point p
    orth = np.empty((P, (P + 7) // 8), dtype=np.uint8)
    step = max(1, _BLOCK // P)
    for lo in range(0, P, step):
        block = f.matmul(forms[lo : lo + step], pts.T) == 0
        orth[lo : lo + step] = np.packbits(block, axis=1, bitorder="little")
    basis = np.concatenate(
        [np.pad(rref_point_ids(f, n, m), ((0, 0), (0, n - 1 - m)), mode="edge") for m in range(1, n)]
    )
    point_rows = np.empty((P, g.rows.shape[1]), dtype=np.uint8)
    step = max(8, _BLOCK // P // 8 * 8)
    for lo in range(0, g.nv, step):
        perp = _unpack(np.bitwise_and.reduce(orth[basis[lo : lo + step]], axis=1), P)
        point_rows[:, lo >> 3 : (lo + step) >> 3] = np.packbits(perp.T, axis=1, bitorder="little")
    step = max(1, _BLOCK // ((n - 1) * g.rows.shape[1]))
    for lo in range(0, g.nv, step):
        g.rows[lo : lo + step] = np.bitwise_and.reduce(point_rows[basis[lo : lo + step]], axis=1)


# ---------------------------------------------------------------------------
# vertex types and vertex sums, stacked


def classify_types(g: OiGraph) -> list:
    """classify_type of every vertex of g, in vertex order, by witt_stack.

    Entry (i, j) of a vertex's Gram block B S Bt is p_i S p_jt for the
    points p_i, p_j of its basis rows i and j (rref_point_ids), so every
    block is read from the one (P, n) table pts S.  The vertices of each
    dimension go in blocks whose gathers and elimination temporaries stay
    near _BLOCK bytes; no table grows with P^2.  Equal types are one
    SubspaceType object.
    """
    f, n = g.space.field, g.space.n
    pts = rref_bases(f, n, 1)[:, 0]
    ptsS = f.matmul(pts, g.space.form)
    made = {}
    out = []
    for m in range(1, n):
        ids = rref_point_ids(f, n, m)
        step = max(1, _BLOCK // (8 * m * (2 * n + 3 * m)))  # two gathers, int index temporaries
        for lo in range(0, len(ids), step):
            block = ids[lo : lo + step]
            grams = f.matmul(ptsS[block], pts[block].transpose(0, 2, 1))
            for s, gamma, tag in witt_stack(f, grams):
                key = (m, s, gamma, tag)
                if key not in made:
                    made[key] = SubspaceType(m, 2 * s + gamma, s, tag)
                out.append(made[key])
    return out


def sum_ids(g: OiGraph, u, v) -> np.ndarray:
    """The vertex id of the sum of vertices u[i] and v[i] for each i, or -1
    where the sum is the whole space.

    Each pair's two bases, padded with zero rows to n - 1 rows each, are
    one matrix of a stack that eliminate_stack reduces, a block of pairs
    near _BLOCK bytes at a time.  The rank of a sum is its dimension m, and
    its first m reduced rows are its rref basis: their point ids, looked up
    among the ascending id rows of rref_point_ids, give its vertex."""
    f, n = g.space.field, g.space.n
    u, v = np.asarray(u, dtype=np.intp), np.asarray(v, dtype=np.intp)
    dims = range(1, n)
    bases = np.concatenate([np.pad(rref_bases(f, n, m), ((0, 0), (0, n - 1 - m), (0, 0))) for m in dims])
    keys = [_id_keys(rref_point_ids(f, n, m)) for m in dims]
    starts = np.cumsum([0] + [len(k) for k in keys])
    out = np.full(len(u), -1, dtype=np.intp)
    step = max(1, _BLOCK // (16 * (n - 1) * n))  # the stack's int index temporaries
    for lo in range(0, len(u), step):
        R, rank = eliminate_stack(f, np.concatenate([bases[u[lo : lo + step]], bases[v[lo : lo + step]]], axis=1))[:2]
        for m, start, table in zip(dims, starts, keys):
            at = np.flatnonzero(rank == m)
            if len(at):
                out[lo + at] = start + np.searchsorted(table, _id_keys(point_ids(f, R[at, :m])))
    return out


def _id_keys(ids: np.ndarray) -> np.ndarray:
    """Each row of a 2-d array of point ids as one bytes key, big-endian so
    that the keys order as the rows do lexicographically: the keys of lift
    and sum_ids."""
    rows = np.ascontiguousarray(ids, dtype=">u4")
    return rows.view(np.dtype((np.void, 4 * rows.shape[1]))).ravel()


# ---------------------------------------------------------------------------
# maximum clique of the dimension-1 subgraph


def max_clique_dim1(g: OiGraph):
    """Largest mutually-orthogonal set of projective points, loop-heavy first.

    Maximizes lexicographically (number of loop members, total size) over
    cliques whose members span a subspace of dimension equal to their count
    (loop members are required to be linearly independent; anisotropic
    members orthogonal to them are independent automatically since their
    Gram matrix is a nonsingular diagonal).  Returns (size, count of
    non-loop members); for these graphs that is (nu + delta, delta).
    """
    d1 = g.dim1_subgraph()
    field = d1.space.field
    # neighbour bitsets of the dimension-1 points, self-bits cleared
    adj = [int.from_bytes(row.tobytes(), "little") & ~(1 << v) for v, row in enumerate(d1.rows)]

    # phase 1: maximum independent clique among the loop vertices
    best_l: list = []

    def grow_iso(chosen, basis, cand):
        nonlocal best_l
        if len(chosen) + cand.bit_count() <= len(best_l):
            return
        if not cand:
            if len(chosen) > len(best_l):
                best_l = list(chosen)
            return
        rest = cand
        for v in _bits(cand):
            rest ^= 1 << v
            rows = basis + d1.verts[v].rows
            if len(eliminate(field, rows)[1]) == len(chosen) + 1:
                grow_iso(chosen + [v], rows, rest & adj[v])
            if len(chosen) + 1 + rest.bit_count() <= len(best_l):
                break

    grow_iso([], (), d1.loops)

    # phase 2: extend by anisotropic points orthogonal to all of phase 1
    cand = (1 << d1.nv) - 1 & ~d1.loops
    for v in best_l:
        cand &= adj[v]
    best_a: list = []

    def grow_aniso(chosen, cand):
        nonlocal best_a
        if len(chosen) + cand.bit_count() <= len(best_a):
            return
        if not cand:
            if len(chosen) > len(best_a):
                best_a = list(chosen)
            return
        rest = cand
        for v in _bits(cand):
            rest ^= 1 << v
            grow_aniso(chosen + [v], rest & adj[v])
            if len(chosen) + 1 + rest.bit_count() <= len(best_a):
                break

    grow_aniso([], cand)
    return len(best_l) + len(best_a), len(best_a)


def recover_parameters(clique_size: int, nonloop_count: int, dim1_count: int):
    """Invert the invariant triple back to (nu, delta, q); ValueError
    unless it names a space of dimension at least 2 over a field of odd
    order."""
    delta = nonloop_count
    nu = clique_size - delta
    check_space_params(nu, delta, "one")
    n = 2 * nu + delta

    def points(q):
        return (q**n - 1) // (q - 1)

    # points(q) = 1 + q + ... increases with q and exceeds q for n >= 2,
    # so the least q >= 2 with points(q) >= dim1_count lies in
    # 2..max(2, dim1_count): bisect for it, then check it exactly
    lo, hi = 2, max(2, dim1_count)
    while lo < hi:
        mid = (lo + hi) // 2
        if points(mid) < dim1_count:
            lo = mid + 1
        else:
            hi = mid
    q = lo
    if points(q) != dim1_count:
        raise ValueError("dimension-1 count matches no field order")
    p, _ = factor_prime_power(q)
    if p == 2:
        raise ValueError(f"dimension-1 count gives the even field order {q}")
    return nu, delta, q


# ---------------------------------------------------------------------------
# serialization


def graph_to_json(g: OiGraph) -> str:
    return "".join(json_pieces(g))


def json_pieces(g: OiGraph):
    """graph_to_json's text in pieces, so a writer need not hold all of it:
    the bytes of json.dumps(payload, indent=1, sort_keys=True) + "\n", as
    with an indent both run the same pure-Python encoder."""
    space = g.space
    payload = {
        "space": {
            "nu": space.nu,
            "delta": space.delta,
            "disc": space.disc,
            "field": space.field.descriptor(),
        },
        "vertices": _vertex_records(g),
        "edges": g.edges(),  # tuples encode as lists
        "loops": g.loop_ids(),
    }
    if space.field.e > 1:
        payload["space"]["modulus"] = list(space.field.modulus)
    yield from json.JSONEncoder(indent=1, sort_keys=True).iterencode(payload)
    yield "\n"


def _vertex_records(g: OiGraph):
    return [{"id": i, "dim": P.m, "basis": [list(r) for r in P.rows]} for i, P in enumerate(g.verts)]


def graph_from_json(text: str) -> OiGraph:
    """build_graph of the space of a graph_to_json text.  ValueError unless
    the text's vertex records, sorted by id, are that graph's as JSON text
    (so 1.0 or true is no 1), and its edges and loops list that graph's
    edges and loops once each, an edge either way round: code that reasons
    from the form (the point search, lift) needs every subspace, in build
    order, and the orthogonality relation."""
    data = json.loads(text)
    sp = data["space"]
    if type(sp["nu"]) is not int or type(sp["delta"]) is not int:
        raise ValueError(f"nu {sp['nu']!r} and delta {sp['delta']!r} must be integers")
    field = parse_field(sp["field"], tuple(sp["modulus"]) if "modulus" in sp else None)
    g = build_graph(space_make(sp["nu"], sp["delta"], field, sp.get("disc") or "one"))
    records = sorted(data["vertices"], key=lambda r: r["id"])
    if json.dumps(records, sort_keys=True) != json.dumps(_vertex_records(g), sort_keys=True):
        raise ValueError(f"vertex records are not the vertices of {g.space.label()} in build order")
    nv = g.nv
    edges, loops = [tuple(e) for e in data["edges"]], list(data["loops"])
    for x in itertools.chain(loops, *edges):
        if type(x) is not int or not 0 <= x < nv:
            raise ValueError(f"vertex id {x!r} is not in 0..{nv - 1}")
    if any(u == v for u, v in edges):
        raise ValueError("an edge joins a vertex to itself; loops belong in 'loops'")
    pairs = edges + [(v, u) for u, v in edges] + [(v, v) for v in loops]
    r, c = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    rows = np.zeros_like(g.rows)
    np.bitwise_or.at(rows, (r, c >> 3), (1 << (c & 7)).astype(np.uint8))
    if not np.array_equal(g.rows, rows):
        raise ValueError("edges and loops are not the orthogonality relation of the vertices")
    if len(edges) != g.edge_count() or len(loops) != len(g.loop_ids()):
        raise ValueError("an edge or a loop is listed twice")
    return g


def graph_to_dot(g: OiGraph, header: bool = True) -> str:
    return "".join(dot_pieces(g, header))


def dot_pieces(g: OiGraph, header: bool = True):
    """graph_to_dot's text in pieces, so a writer need not hold all of it:
    a line per vertex, per edge u -- v with u < v (row-major) and per loop.
    The edges come a row block at a time from upper_pairs, so no list of
    all edges is made."""
    if header:
        yield (
            f"// {g.space.label()} nu={g.space.nu} delta={g.space.delta} q={g.space.field.q}\n"
            f"// vertices={g.nv} edges={g.edge_count()} loops={g.loops.bit_count()}\n"
            "// generated by oigraph 0.1.0\n"
        )
    yield "graph oi {\n"
    yield "".join(f"  v{v};\n" for v in range(g.nv))
    for u, v in upper_pairs(g.rows):
        yield "".join(f"  v{a} -- v{b};\n" for a, b in zip(u.tolist(), v.tolist()))
    yield "".join(f"  v{v} -- v{v};\n" for v in g.loop_ids())
    yield "}\n"
