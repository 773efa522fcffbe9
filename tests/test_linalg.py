import itertools
import random

import pytest

from oigraph.gf import GF
from oigraph.linalg import Mat, dot_form

F3 = GF(3)
F5 = GF(5)
F9 = GF(3, 2)


def rand_mat(field, r, c, rng):
    return Mat(field, [[rng.randrange(field.q) for _ in range(c)] for _ in range(r)])


def rand_invertible(field, n, rng):
    while True:
        M = rand_mat(field, n, n, rng)
        if M.rank() == n:
            return M


def test_rref_examples():
    R, rank, piv = Mat(F3, [[0, 1], [1, 0]]).rref()
    assert R == Mat.identity(F3, 2) and rank == 2 and piv == (0, 1)
    R, rank, _ = Mat(F3, [[1, 1], [2, 2]]).rref()
    assert R == Mat(F3, [[1, 1]]) and rank == 1
    M = Mat(F3, [[1, 2, 0], [0, 0, 1]])
    R, rank, piv = M.rref()
    assert R == M and piv == (0, 2)


def test_rref_idempotent_and_unique():
    rng = random.Random(7)
    for field in [F3, F5, F9]:
        for _ in range(60):
            M = rand_mat(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
            R, rank, _ = M.rref()
            assert R.rref()[0] == R
            # row-equivalent matrices share the canonical form
            U = rand_invertible(field, M.nrows, rng)
            assert U.mul(M).rref()[0] == R


def test_kernel_examples():
    assert Mat(F3, [[1, 0], [0, 1]]).left_kernel().nrows == 0
    assert Mat(F3, [[1], [2]]).left_kernel() == Mat(F3, [[1, 1]])
    assert Mat(F3, [[0, 0], [0, 0]]).left_kernel() == Mat.identity(F3, 2)


def test_kernel_rank_identity():
    rng = random.Random(11)
    for field in [F3, F5]:
        for _ in range(80):
            M = rand_mat(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
            K = M.left_kernel()
            assert K.nrows == M.nrows - M.rank()
            if K.nrows:
                assert not any(map(any, K.mul(M).rows))


def test_det_examples():
    # det of the rank-2 hyperbolic pairing over F_3 is -1
    assert Mat(F3, [[0, 1], [1, 0]]).det() == 2
    assert Mat(F3, [[1, 2], [2, 1]]).det() == (1 - 4) % 3
    with pytest.raises(ValueError):
        Mat(F3, [[1, 2, 0]]).det()


def test_det_multiplicative():
    rng = random.Random(17)
    f = F9
    for _ in range(30):
        A, B = rand_mat(f, 3, 3, rng), rand_mat(f, 3, 3, rng)
        assert A.mul(B).det() == f.mul(A.det(), B.det())


def leibniz_det(M):
    f = M.field
    n = M.nrows
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = 1
        for i, j in enumerate(perm):
            term = f.mul(term, M[i, j])
        total = f.sub(total, term) if inversions % 2 else f.add(total, term)
    return total


def test_det_matches_leibniz():
    rng = random.Random(29)
    for field in (F3, F9):
        for n in range(1, 5):
            for _ in range(25):
                M = rand_mat(field, n, n, rng)
                if rng.random() < 0.3:  # a repeated row: singular
                    rows = list(M.rows)
                    rows[rng.randrange(n)] = rows[rng.randrange(n)]
                    M = Mat(field, rows)
                assert M.det() == leibniz_det(M)
    assert Mat(F3, (), ncols=0).det() == 1


def test_transpose_involution():
    rng = random.Random(19)
    M = rand_mat(F5, 3, 4, rng)
    assert M.transpose().transpose() == M


def test_vec_helpers():
    S = Mat(F3, [[0, 1], [1, 0]])
    assert Mat(F3, [(1, 2)]) * S == Mat(F3, [(2, 1)])
    assert dot_form(F3, (1, 1), S, (1, 2)) == 0  # the n=2 edge pair
    assert dot_form(F3, (1, 1), S, (1, 1)) == 2


def test_shape_errors():
    with pytest.raises(ValueError):
        Mat(F3, [[1, 2], [1]])
    with pytest.raises(ValueError):
        Mat(F3, [[1, 2]]).mul(Mat(F3, [[1, 2]]))
