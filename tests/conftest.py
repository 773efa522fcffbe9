import functools

from oigraph.geometry import eliminate

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
