"""Full automorphism group computation by refinement and backtracking.

This is the independent check on the generated group: nothing here knows
about matrices or semilinear maps.  Vertices start colored by observable
data, the coloring is driven to its coarsest equitable refinement, and a
backtracking search over individualized vertices collects generators until
the stabilizer chain accounts for every leaf equivalence.

Loops never enter the refinement counting; they sit in the initial colors
(and in the final adjacency verification, which includes the diagonal).

The subspace dimension is also used as an initial color, which is only
honest if dimensions are graph-detectable.  full_aut_order certifies that
first: refining from (loop, degree) alone must already separate the
dimension classes, and the search refuses to run otherwise.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .graph import BudgetExceeded, OiGraph, _bits

DEFAULT_SEARCH_BUDGET = 2000


# ---------------------------------------------------------------------------
# equitable refinement


def _cells_from_colors(colors):
    order = sorted(set(colors))
    return [[v for v, c in enumerate(colors) if c == col] for col in order]


def _bitset(cell) -> int:
    out = 0
    for v in cell:
        out |= 1 << v
    return out


def refine_cells(adj, cells):
    """Coarsest equitable refinement; splits order by neighbor count."""
    cells = [list(c) for c in cells]
    work = deque(_bitset(c) for c in cells)
    while work:
        splitter = work.popleft()
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            for v in cell:
                buckets.setdefault((adj[v] & splitter).bit_count(), []).append(v)
            if len(buckets) == 1:
                out.append(cell)
                continue
            for key in sorted(buckets):
                part = buckets[key]
                out.append(part)
                work.append(_bitset(part))
        cells = out
    return cells


def initial_partition(g: OiGraph):
    colors = [
        (g.verts[v].m, g.loop_at(v), g.degree(v)) for v in range(g.nv)
    ]
    return _cells_from_colors(colors)


def refine(g: OiGraph, cells):
    return refine_cells(g.adj, cells)


# ---------------------------------------------------------------------------
# automorphism test


def is_automorphism(g: OiGraph, perm) -> bool:
    arr = np.asarray(getattr(perm, "array", perm), dtype=np.int64)
    if arr.shape != (g.nv,):
        raise ValueError("permutation length does not match vertex count")
    if not np.array_equal(np.sort(arr), np.arange(g.nv)):
        raise ValueError("image array is not a bijection")
    return g.preserves_adjacency(arr)


# ---------------------------------------------------------------------------
# individualization-refinement search


@dataclass
class SearchResult:
    order: int
    generators: list = field(default_factory=list)
    node_count: int = 0
    seconds: float = 0.0


class _Search:
    def __init__(self, nv, adj, looped_matrix, colors):
        self.nv = nv
        self.adj = adj
        self.A = looped_matrix
        self.colors = colors
        self.gens: list[np.ndarray] = []
        self.nodes = 0
        self.trace: list[tuple] = []
        self.first_leaf: list[int] | None = None
        self.base_seq: list[int] = []

    def run(self) -> SearchResult:
        t0 = time.perf_counter()
        start = refine_cells(self.adj, _cells_from_colors(self.colors))
        self._first_path(start, 0)
        from .symmetry import PermGroup

        order = PermGroup(self.nv, self.gens).order() if self.gens else 1
        return SearchResult(order, self.gens, self.nodes, time.perf_counter() - t0)

    @staticmethod
    def _target(cells):
        best = None
        for i, c in enumerate(cells):
            if len(c) > 1 and (best is None or len(c) < len(cells[best])):
                best = i
        return best

    @staticmethod
    def _individualize(cells, ti, w):
        cell = cells[ti]
        return cells[:ti] + [[w], [x for x in cell if x != w]] + cells[ti + 1 :]

    def _check_leaf(self, cells) -> np.ndarray | None:
        leaf = [c[0] for c in cells]
        p = np.empty(self.nv, dtype=np.int64)
        p[self.first_leaf] = leaf
        if np.array_equal(self.A[np.ix_(p, p)], self.A):
            return p
        return None

    def _orbit(self, seeds, prefix) -> set:
        gens = [g for g in self.gens if all(g[v] == v for v in prefix)]
        orbit = set(seeds)
        frontier = list(seeds)
        while frontier:
            v = frontier.pop()
            for g in gens:
                w = int(g[v])
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        return orbit

    def _first_path(self, cells, depth):
        self.nodes += 1
        self.trace.append(tuple(len(c) for c in cells))
        ti = self._target(cells)
        if ti is None:
            self.first_leaf = [c[0] for c in cells]
            return
        cell = cells[ti]
        c0 = cell[0]
        self.base_seq.append(c0)
        prefix = self.base_seq[:depth]
        self._first_path(
            refine_cells(self.adj, self._individualize(cells, ti, c0)), depth + 1
        )
        explored = [c0]
        for w in cell[1:]:
            if w in self._orbit(explored, prefix):
                continue
            explored.append(w)
            found = self._descend(
                refine_cells(self.adj, self._individualize(cells, ti, w)), depth + 1
            )
            if found is not None:
                self.gens.append(found)

    def _descend(self, cells, depth) -> np.ndarray | None:
        """Exhaust a non-first subtree, stopping at the first automorphism."""
        self.nodes += 1
        if tuple(len(c) for c in cells) != self.trace[depth]:
            return None
        ti = self._target(cells)
        if ti is None:
            return self._check_leaf(cells)
        for w in cells[ti]:
            found = self._descend(
                refine_cells(self.adj, self._individualize(cells, ti, w)), depth + 1
            )
            if found is not None:
                return found
        return None


def search_automorphisms(adj, loops, colors=None, looped_matrix=None) -> SearchResult:
    """Core search over raw bitset adjacency; colors are optional seeds."""
    nv = len(adj)
    if colors is None:
        colors = [((loops >> v) & 1, adj[v].bit_count()) for v in range(nv)]
    if looped_matrix is None:
        looped_matrix = np.zeros((nv, nv), dtype=bool)
        for u in range(nv):
            for v in _bits(adj[u]):
                looped_matrix[u, v] = True
        for v in _bits(loops):
            looped_matrix[v, v] = True
    return _Search(nv, adj, looped_matrix, list(colors)).run()


def certify_dimension_colors(g: OiGraph):
    """Dimensions must fall out of loop+degree refinement alone.

    Otherwise seeding the search with dimension colors could hide
    automorphisms, and the computed order would not be the full group.
    """
    colors = [(g.loop_at(v), g.degree(v)) for v in range(g.nv)]
    for cell in refine_cells(g.adj, _cells_from_colors(colors)):
        dims = {g.verts[v].m for v in cell}
        if len(dims) > 1:
            raise RuntimeError(
                "refinement does not separate subspace dimensions; "
                "dimension-seeded search would not certify the full group"
            )


def search_result(g: OiGraph, budget: int | None = None) -> SearchResult:
    cap = DEFAULT_SEARCH_BUDGET if budget is None else budget
    if g.nv > cap:
        raise BudgetExceeded(g.nv, cap, "search vertices")
    certify_dimension_colors(g)
    return search_automorphisms(
        g.adj,
        g.loops,
        colors=[(g.verts[v].m, g.loop_at(v), g.degree(v)) for v in range(g.nv)],
        looped_matrix=g.adjacency_matrix(include_loops=True),
    )


def full_aut_order(g: OiGraph, budget: int | None = None) -> int:
    return search_result(g, budget).order
