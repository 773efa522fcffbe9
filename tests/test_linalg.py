import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_transpose_involution():
    rng = random.Random(19)
    M = rand_mat(F5, 3, 4, rng)
    assert M.transpose().transpose() == M


def test_congruence_examples():
    D, Q = Mat(F3, [[1, 0], [0, 2]]).congruence_diagonalize()
    assert D == Mat(F3, [[1, 0], [0, 2]]) and Q == Mat.identity(F3, 2)
    G = Mat(F3, [[0, 1], [1, 0]])
    D, Q = G.congruence_diagonalize()
    assert D == Mat.diagonal(F3, (2, 1))
    assert Q.mul(G).mul(Q.transpose()) == D
    Z = Mat(F3, [[0, 0], [0, 0]])
    D, Q = Z.congruence_diagonalize()
    assert D == Z and Q == Mat.identity(F3, 2)


def test_congruence_exhaustive_3x3_f3():
    mats = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    for e in range(3):
                        for f in range(3):
                            mats.append(Mat(F3, [[a, b, c], [b, d, e], [c, e, f]]))
    assert len(mats) == 729
    for G in mats:
        D, Q = G.congruence_diagonalize()
        assert Q.rank() == 3
        assert Q.mul(G).mul(Q.transpose()) == D
        assert all(D[i, j] == 0 for i in range(3) for j in range(3) if i != j)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(2, 4), st.integers(0, 10**9))
def test_congruence_random_symmetric(p, n, seed):
    field = GF(p)
    rng = random.Random(seed)
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            G[i][j] = G[j][i] = rng.randrange(p)
    G = Mat(field, G)
    D, Q = G.congruence_diagonalize()
    assert Q.rank() == n
    assert Q.mul(G).mul(Q.transpose()) == D
    assert D.rank() == G.rank()


def test_congruence_rejects_asymmetric():
    with pytest.raises(ValueError):
        Mat(F3, [[0, 1], [2, 0]]).congruence_diagonalize()


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
