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
