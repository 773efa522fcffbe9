import functools

import numpy as np

from oigraph.autsearch import _Search
from oigraph.geometry import Subspace, eliminate
from oigraph.graph import _diagonal, degrees, neighbour_lists

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def diagonal(entries):
    """The diagonal matrix of entries, as row tuples."""
    return tuple(tuple(a if i == j else 0 for j in range(len(entries))) for i, a in enumerate(entries))


def det(field, rows):
    """The determinant of a square matrix, the signed pivot product of the
    one elimination when it has full rank."""
    _, pivots, d = eliminate(field, rows)
    return d if len(pivots) == len(rows) else 0


def mat_mul(field, A, B):
    """A B for matrices of codes given as rows, one scalar field.add and
    field.mul at a time: the tests' reference product, independent of
    GF.matmul."""
    cols = list(zip(*B))
    return tuple(
        tuple(functools.reduce(field.add, map(field.mul, row, col), 0) for col in cols) for row in A
    )


def vertex_index(g):
    """{P.rows: i} over the vertices P of g: the id of a subspace given in
    canonical form, for tests that name vertices by their bases."""
    return {P.rows: i for i, P in enumerate(g.verts)}


def label_parts(labels, items):
    """The partition a label array names, as the sorted list of its parts,
    each the sorted tuple of items[i] over the indices i in it: the list
    form the frozen partition digests were taken of."""
    parts = {}
    for i, label in enumerate(labels.tolist()):
        parts.setdefault(label, []).append(items[i])
    return sorted(tuple(sorted(p)) for p in parts.values())


def components(g):
    """The connected components of g as ascending id lists, each the union
    of the bfs_levels from its least vertex."""
    seen = set()
    out = []
    for start in range(g.nv):
        if start not in seen:
            comp = sorted(int(v) for level in g.bfs_levels(start) for v in level)
            seen.update(comp)
            out.append(comp)
    return out


def unit(space, name, i=1):
    """The named basis vector of space as a tuple: e_i, f_i (= e_{nu+i}),
    eps or kappa, the coordinates of the form in geometry; ValueError for
    one the space lacks."""
    nu = space.nu
    j = {"e": i - 1, "f": nu + i - 1, "eps": 2 * nu, "kappa": 2 * nu + 1}[name]
    if name in ("e", "f") and not 1 <= i <= nu or j >= space.n:
        raise ValueError(f"{space.label()} has no basis vector {name!r}, index {i}")
    return tuple(int(k == j) for k in range(space.n))


def dual(P):
    """P-perp = {x : x S bt = 0 for every basis row b}, as a Subspace of
    dimension n - m: the tests' reference for the orthogonality the packed
    adjacency computes.

    x S bt is the sum of x[i] scale[i] b[col[i]] (S is monomial, see
    OSpace), so P-perp is the kernel of the m x n matrix A with rows
    (scale[i] b[col[i]])_i: one free column j of A's rref gives the kernel
    vector with 1 at j and -R[k][j] at the k-th pivot, and one more
    elimination makes those vectors the canonical basis."""
    space = P.space
    f, n = space.field, space.n
    A = [[f.mul(c, b[j]) for c, j in zip(space._scale, space._col)] for b in P.rows]
    R, pivots, _ = eliminate(f, A)
    kernel = []
    for j in range(n):
        if j not in pivots:
            v = [0] * n
            v[j] = 1
            for row, pc in zip(R, pivots):
                v[pc] = f.neg(row[j])
            kernel.append(v)
    return Subspace(space, eliminate(f, kernel)[0])


def search_automorphisms(A, colors=None):
    """The automorphism search on a looped boolean adjacency matrix, all of
    its vertices, seeded with colors (default: loop and degree): the tests'
    oracle for search_result's point search and lift."""
    A = np.asarray(A, dtype=bool)
    rows = np.packbits(A, axis=1, bitorder="little")
    if colors is None:
        colors = zip(_diagonal(rows).tolist(), degrees(rows).tolist())
    return _Search(rows, neighbour_lists(rows), list(colors)).run()
