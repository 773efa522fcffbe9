"""Full automorphism group computation by refinement and backtracking.

This is the independent check on the generated group: nothing here knows
about matrices or semilinear maps.  Vertices start colored by observable
data, the coloring is driven to its coarsest equitable refinement, and a
backtracking search over individualized vertices collects generators until
the stabilizer chain accounts for every leaf equivalence.

Refinement reads neighbour lists (the CSR pair graph.neighbour_lists makes
from the packed looped rows, loops dropped, kept on a graph as
OiGraph.nbrs).  The search carries one partition from the colors to the
leaves, as positions: an order array holding each cell's vertices
contiguously, and cell_at, the size of the cell starting at each position
(0 inside a cell).  A node's trace entry is its cell_at, and a leaf is its
order.  A splitter costs a bincount of its members' neighbours; only the
cells those neighbours fall in are examined, and only the cells that split
are reordered.  The loop stops once the partition is discrete, as nothing
can split then.  The search targets the first non-singleton cell.

Splitters wait in a first-in, first-out queue, and a split cell that is
not queued does not queue its first largest part (Hopcroft's rule, "An n
log n algorithm for minimizing states in a finite automaton", 1971; McKay
and Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 60,
2014).  The refinement still ends at the coarsest equitable partition
finer than its input.  Every split is forced, and the queue keeps this
invariant: each vertex's count into a cell that is not queued is fixed by
the vertex's cell and its counts into the queued cells.  When the queue is
empty the counts into every cell are constant on every cell.

- Processing a splitter makes the counts into it constant on every cell,
  so it drops out of every other cell's dependence.
- A queued cell that splits leaves the queue, and all of its parts join
  it: a count into the cell is the sum of the counts into its parts.
- A cell that is not queued queues every part but the first largest.  A
  vertex's count into that part is its count into the parent, fixed as
  the invariant says, minus its counts into the parent's other parts,
  which are queued.
- The root is refined from all of its cells, so nothing starts unqueued.
  A child is refined from {w} alone, where w has been split off the cell
  C of an equitable partition pi.  Every other cell of pi has counts
  constant on the cells of pi, and so on every current cell.  A vertex's
  count into C - {w} is its count into C minus its adjacency to w, its
  count into the queued {w}.

The target rule and the queue rule, like the rest of the refinement, read
only positions and counts, never vertex labels.  So relabelling the graph
and the starting order together relabels the result, order entry by
entry, with the same cell_at; the search's target cells, traces and leaves
follow the graph, as an individualisation-refinement search needs.

Loops never enter the refinement counting; they sit in the initial colors
(and in the final adjacency verification, which includes the diagonal).
A leaf is accepted when its relabelling keeps the loops and maps every
pair of the neighbour lists onto a set bit of the packed rows
(graph.preserves_adjacency, the test OiGraph.is_automorphism makes too).

search_result searches the P projective points, not the vertices: it
runs the search on the looped point orthogonality graph h =
g.dim1_subgraph() and lifts each point generator to the vertices with
g.lift.  Aut(g) and Aut(h) have the same order, for g as build_graph and
graph_from_json make it (adjacency is orthogonality under a nondegenerate
form):

- Every automorphism of g keeps dimension, so it permutes the points and
  restricts to an automorphism of h.  This is certified per graph, not
  assumed: every class of vertices with the same (loop, degree) must hold
  a single dimension (certify_dimension_colors), and the search refuses
  to run otherwise.  An automorphism keeps loops and degrees, so it maps
  each such class onto itself, and with it each dimension.  On these
  graphs the check always passes: A ~ B iff B lies in A^perp, so deg(A)
  = N(n - dim A) - [A lies in A^perp], where N(d) counts the nonzero
  subspaces of F_q^d.  For d >= 1, N(d + 1) - N(d) >= q + 1 >= 2, more
  than one loop can make up, so the degree alone tells the dimension.
  Write perp(X) for the points orthogonal to every point of X, loops
  included, so perp is read from h alone.  The points adjacent to a
  vertex A are the points of A^perp, and points(A) =
  perp(points(A^perp)).  An automorphism s of g carries the points
  adjacent to A onto those adjacent to s(A) and commutes with perp, so
  points(s(A)) = s(points(A)): s is determined by its restriction, and
  restriction embeds Aut(g) into Aut(h).
- Every automorphism t of h lifts.  For every subspace W, points(W) =
  perp(points(W^perp)), because the form is nondegenerate, and perp(Y) is
  the point set of the subspace span(Y)^perp.  t commutes with perp, so
  t(points(W)) = perp(t(points(W^perp))) is again the point set of a
  subspace, of the same dimension as W since it has as many points: a
  vertex.  This is why lift never raises on a generator found here; it
  still checks that every vertex maps to a vertex.  A ~ B iff points(A)
  lies in perp(points(B)) (the form is bilinear; B = A gives the loops),
  and t keeps both inclusion and perp, so the lift is an automorphism of
  g.

So the order of the point group, which the leaf checks on the point rows
prove, is |Aut(g)|, and the lifted generators generate Aut(g).  The tests
keep the full-graph search (_Search on the looped vertex adjacency) as
their oracle on small instances.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .graph import BudgetExceeded, OiGraph, _diagonal, degrees, preserves_adjacency
from .symmetry import PermGroup, orbit_labels

DEFAULT_SEARCH_BUDGET = 2000


# ---------------------------------------------------------------------------
# equitable refinement


def color_partition(colors):
    """The partition of the vertices by color as (order, cell_at): cells in
    ascending color order, each keeping ascending vertex order."""
    _, inverse, sizes = np.unique(np.asarray(colors), axis=0, return_inverse=True, return_counts=True)
    order = np.argsort(inverse.reshape(-1), kind="stable")
    cell_at = np.zeros(len(order), dtype=np.intp)
    cell_at[sizes.cumsum() - sizes] = sizes
    return order, cell_at


def refine(nbrs, order, cell_at, splitters=None):
    """Refine the partition (order, cell_at) in place from splitters.

    order holds each cell's vertices contiguously; cell_at holds the size of
    the cell starting at each position, else 0.  splitters is a sequence of
    (start, size) cells, every cell if None.  A splitter splits each cell
    whose members differ in their number of neighbours in it into parts of
    ascending count, each keeping the cell's vertex order.  If the split
    cell is queued, it leaves the queue and every part joins it, in cell
    order; if not, every part but the first largest does.  The loop stops
    once every cell is a singleton, as nothing can split.
    """
    indptr, indices = nbrs
    nv = len(order)
    degree = np.diff(indptr)
    heads = np.flatnonzero(cell_at)
    start_of = np.empty(nv, dtype=np.intp)  # start position of each vertex's cell
    start_of[order] = np.repeat(heads, cell_at[heads])
    pos = np.empty(nv, dtype=np.intp)
    pos[order] = np.arange(nv)
    # A cell's vertex set never changes once it exists, only its order inside
    # its positions, so a queued splitter is just (start, size), and one
    # popped after its cell has split is stale.
    work = deque(zip(heads.tolist(), cell_at[heads].tolist()) if splitters is None else splitters)
    pending = set(work)
    cells = len(heads)
    while work and cells < nv:
        s, k = work.popleft()
        if (s, k) not in pending:
            continue
        pending.remove((s, k))
        members = order[s : s + k]
        lo, deg = indptr[members], degree[members]
        # the members' neighbour lists, concatenated, counted per vertex
        nb = indices[np.repeat(lo - deg.cumsum() + deg, deg) + np.arange(deg.sum())]
        count = np.bincount(nb, minlength=nv)
        at = pos[count.nonzero()[0]]
        at.sort()
        hit = order[at]  # the touched vertices, grouped by cell, cells in order
        cell = start_of[hit]
        edge = np.ones(len(hit) + 1, dtype=bool)
        np.not_equal(cell[1:], cell[:-1], out=edge[1:-1])
        edge = edge.nonzero()[0]  # where each touched cell's run in hit begins, then len(hit)
        first = edge[:-1]
        touched, c = cell[first], count[hit]
        # a touched cell stays whole iff all its members are hit equally often
        ragged = (edge[1:] - first < cell_at[touched]) | (np.minimum.reduceat(c, first) != np.maximum.reduceat(c, first))
        for t in touched[ragged].tolist():
            seg = order[t : t + cell_at[t]]
            seg = seg[np.argsort(count[seg], kind="stable")]
            order[t : t + len(seg)] = seg
            pos[seg] = np.arange(t, t + len(seg))
            c = count[seg]
            cuts = [0, *((c[1:] != c[:-1]).nonzero()[0] + 1).tolist(), len(seg)]
            cells += len(cuts) - 2
            parts = [(t + a, b - a) for a, b in zip(cuts, cuts[1:])]
            for u, size in parts:
                start_of[order[u : u + size]] = u
                cell_at[u] = size
            # a queued cell hands its place to all of its parts; any other
            # cell leaves out its first largest part (see the module docstring)
            if (t, len(seg)) in pending:
                pending.remove((t, len(seg)))
            else:
                parts.remove(max(parts, key=lambda part: part[1]))
            work.extend(parts)
            pending.update(parts)


def individualize(nbrs, order, cell_at, t, w):
    """A copy of the equitable partition (order, cell_at) with w split off at
    the head of its cell, which starts at t, refined from {w} only (see the
    module docstring for why that suffices)."""
    k = cell_at[t]
    order, cell_at = order.copy(), cell_at.copy()
    seg = order[t : t + k]
    order[t + 1 : t + k] = seg[seg != w]
    order[t] = w
    cell_at[t : t + 2] = 1, k - 1
    refine(nbrs, order, cell_at, [(t, 1)])
    return order, cell_at


def _vertex_colors(g: OiGraph):
    """(dimension, loop, degree) of each vertex, the search's initial colors."""
    return list(zip([P.m for P in g.verts], _diagonal(g.rows).tolist(), degrees(g.rows).tolist()))


# ---------------------------------------------------------------------------
# individualization-refinement search


@dataclass
class SearchResult:
    order: int
    generators: list = field(default_factory=list)
    node_count: int = 0
    seconds: float = 0.0


class _Search:
    def __init__(self, rows, nbrs, colors):
        self.nv = len(rows)
        self.rows = rows
        self.nbrs = nbrs
        self.colors = colors
        self.gens: list[np.ndarray] = []
        self.nodes = 0
        self.trace: list[np.ndarray] = []  # cell_at at each depth of the first path
        self.first_leaf: np.ndarray | None = None
        self.base_seq: list[int] = []

    def run(self) -> SearchResult:
        t0 = time.perf_counter()
        order, cell_at = color_partition(self.colors)
        refine(self.nbrs, order, cell_at)
        self._first_path(order, cell_at, 0)
        group_order = PermGroup(self.nv, self.gens).order() if self.gens else 1
        return SearchResult(group_order, self.gens, self.nodes, time.perf_counter() - t0)

    @staticmethod
    def _target(cell_at):
        """Start of the first non-singleton cell, None if discrete."""
        t = int((cell_at > 1).argmax())
        return t if cell_at[t] > 1 else None

    def _check_leaf(self, order) -> np.ndarray | None:
        p = np.empty(self.nv, dtype=np.int64)
        p[self.first_leaf] = order
        return p if preserves_adjacency(self.rows, self.nbrs, p) else None

    def _orbit_labels(self, prefix) -> np.ndarray:
        """orbit_labels of the generators found so far that fix prefix."""
        return orbit_labels(self.nv, [g for g in self.gens if all(g[v] == v for v in prefix)])

    def _first_path(self, order, cell_at, depth):
        self.nodes += 1
        self.trace.append(cell_at)
        t = self._target(cell_at)
        if t is None:
            self.first_leaf = order
            return
        c0, *rest = order[t : t + cell_at[t]].tolist()
        self.base_seq.append(c0)
        prefix = self.base_seq[:depth]
        self._first_path(*individualize(self.nbrs, order, cell_at, t, c0), depth + 1)
        # skip w when it lies in the orbit of an explored vertex
        explored = [c0]
        label = self._orbit_labels(prefix)
        for w in rest:
            if label[w] in label[explored]:
                continue
            explored.append(w)
            found = self._descend(*individualize(self.nbrs, order, cell_at, t, w), depth + 1)
            if found is not None:
                self.gens.append(found)
                label = self._orbit_labels(prefix)

    def _descend(self, order, cell_at, depth) -> np.ndarray | None:
        """Exhaust a non-first subtree, stopping at the first automorphism."""
        self.nodes += 1
        if not np.array_equal(cell_at, self.trace[depth]):
            return None
        t = self._target(cell_at)
        if t is None:
            return self._check_leaf(order)
        for w in order[t : t + cell_at[t]].tolist():
            found = self._descend(*individualize(self.nbrs, order, cell_at, t, w), depth + 1)
            if found is not None:
                return found
        return None


def certify_dimension_colors(g: OiGraph):
    """RuntimeError unless every (loop, degree) class holds one dimension.

    Automorphisms keep loops and degrees, so they map each class onto
    itself and then keep dimension: seeding the search with dimension
    colors hides no automorphism.  On build_graph graphs this always holds,
    as a degree is fixed by dimension and loop (see the module docstring).
    """
    colors = set(_vertex_colors(g))
    if len(colors) != len({c[1:] for c in colors}):
        raise RuntimeError(
            "(loop, degree) classes do not separate subspace dimensions; "
            "dimension-seeded search would not certify the full group"
        )


def search_result(g: OiGraph, budget: int | None = None) -> SearchResult:
    """Aut(g) from a search on the points, generators lifted to int64 vertex
    arrays (see the module docstring for why the order is |Aut(g)|).
    seconds is the wall time of the whole call: certificate, search and lift.
    The budget counts the points searched, not the vertices:
    BudgetExceeded when g has more than budget points
    (DEFAULT_SEARCH_BUDGET if None), so Oi(5,3), 2662 vertices on 121
    points, searches at the default."""
    cap = DEFAULT_SEARCH_BUDGET if budget is None else budget
    points = len(g.dim1_ids())
    if points > cap:
        raise BudgetExceeded(points, cap, "search points")
    t0 = time.perf_counter()
    certify_dimension_colors(g)
    h = g.dim1_subgraph()
    res = _Search(h.rows, h.nbrs, _vertex_colors(h)).run()
    res.generators = [g.lift(p) for p in res.generators]
    res.seconds = time.perf_counter() - t0
    return res
