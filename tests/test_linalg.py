"""The Gauss-Jordan eliminations, scalar (geometry.eliminate) and stacked
(geometry.eliminate_stack), and what is read from them: reduced rows,
rank, determinant, and the kernel inside dual."""

import itertools
import random

import numpy as np
import pytest

from conftest import det, dual, mat_mul

from oigraph.geometry import (
    Subspace,
    SubspaceType,
    classify_type,
    eliminate,
    eliminate_stack,
    space_make,
    subspace_make,
    witt_bruteforce_oracle,
    witt_decompose,
)
from oigraph.gf import GF

F3 = GF(3)
F5 = GF(5)
F9 = GF(3, 2)


def rand_rows(field, r, c, rng):
    return tuple(tuple(rng.randrange(field.q) for _ in range(c)) for _ in range(r))


def rank(field, rows):
    return len(eliminate(field, rows)[1])


def rand_invertible(field, n, rng):
    while True:
        M = rand_rows(field, n, n, rng)
        if rank(field, M) == n:
            return M


def test_rref_examples():
    R, piv, _ = eliminate(F3, [[0, 1], [1, 0]])
    assert R == ((1, 0), (0, 1)) and piv == (0, 1)
    R, piv, _ = eliminate(F3, [[1, 1], [2, 2]])
    assert R == ((1, 1),) and len(piv) == 1
    M = ((1, 2, 0), (0, 0, 1))
    R, piv, _ = eliminate(F3, M)
    assert R == M and piv == (0, 2)
    assert eliminate(F3, []) == ((), (), 1)


def test_rref_idempotent_and_unique():
    rng = random.Random(7)
    for field in [F3, F5, F9]:
        for _ in range(60):
            M = rand_rows(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
            R, _, _ = eliminate(field, M)
            assert eliminate(field, R)[0] == R
            # row-equivalent matrices share the canonical form
            U = rand_invertible(field, len(M), rng)
            assert eliminate(field, mat_mul(field, U, M))[0] == R


def test_kernel_examples():
    # dual(P) is the kernel of x -> x S Bt for the basis rows B of P
    s = space_make(1, 0, F3)  # S = [[0, 1], [1, 0]]
    assert dual(subspace_make(s, [(1, 0)])).rows == ((1, 0),)  # isotropic: its own dual
    assert dual(subspace_make(s, [(1, 1)])).rows == ((1, 2),)
    t = space_make(1, 1, F3)
    assert dual(subspace_make(t, [(1, 0, 0), (0, 1, 0)])).rows == ((0, 0, 1),)
    assert dual(subspace_make(t, [(0, 0, 1)])).rows == ((1, 0, 0), (0, 1, 0))


def test_kernel_rank_identity():
    rng = random.Random(11)
    for space in (space_make(2, 0, F3), space_make(1, 1, F5, "z"), space_make(1, 2, F3)):
        n = space.n
        for _ in range(80):
            rows = rand_rows(space.field, rng.randrange(1, n + 1), n, rng)
            if rank(space.field, rows) in (0, n):
                continue
            P = subspace_make(space, rows)
            K = dual(P)
            assert K.m == n - P.m
            assert eliminate(space.field, K.rows)[0] == K.rows
            assert all(space.pair(x, b) == 0 for x in K.rows for b in P.rows)


def test_det_examples():
    # det of the rank-2 hyperbolic pairing over F_3 is -1
    assert det(F3, [[0, 1], [1, 0]]) == 2
    assert det(F3, [[1, 2], [2, 1]]) == (1 - 4) % 3
    with pytest.raises(ValueError):
        witt_decompose(F3, [[1, 2, 0]])


def test_det_multiplicative():
    rng = random.Random(17)
    f = F9
    for _ in range(30):
        A, B = rand_rows(f, 3, 3, rng), rand_rows(f, 3, 3, rng)
        assert det(f, mat_mul(f, A, B)) == f.mul(det(f, A), det(f, B))


def leibniz_det(f, M):
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = 1
        for i, j in enumerate(perm):
            term = f.mul(term, M[i][j])
        total = f.sub(total, term) if inversions % 2 else f.add(total, term)
    return total


def test_det_matches_leibniz():
    rng = random.Random(29)
    for field in (F3, F9):
        for n in range(1, 5):
            for _ in range(25):
                M = list(rand_rows(field, n, n, rng))
                if rng.random() < 0.3:  # a repeated row: singular
                    M[rng.randrange(n)] = M[rng.randrange(n)]
                assert det(field, M) == leibniz_det(field, M)
    assert det(F3, ()) == 1


def test_vec_helpers():
    s = space_make(1, 0, F3)  # S = [[0, 1], [1, 0]]
    assert mat_mul(F3, [(1, 2)], s.form.tolist()) == ((2, 1),)
    assert s.pair((1, 1), (1, 2)) == 0  # the n=2 edge pair
    assert s.pair((1, 1), (1, 1)) == 2


def test_shape_errors():
    with pytest.raises(ValueError):
        witt_decompose(F3, [[1, 2], [1]])
    with pytest.raises(ValueError):
        witt_bruteforce_oracle(F3, [[[1, 2]]])


@pytest.mark.parametrize("field", [F3, GF(17), F9, GF(5, 2)], ids=str)
def test_eliminate_stack_matches_eliminate(field):
    # every matrix of a stack, of several shapes with zero and repeated
    # rows, reduces as the scalar elimination reduces it alone
    rng = random.Random(field.q)
    for r, c in [(1, 1), (2, 3), (3, 3), (4, 4), (4, 2), (6, 4)]:
        A = np.array([rand_rows(field, r, c, rng) for _ in range(40)], dtype=np.uint8)
        A[::5] = 0
        A[1::5, -1] = A[1::5, 0]
        R, rank, pivots, d = eliminate_stack(field, A)
        for M, Ri, ri, pi, di in zip(A.tolist(), R.tolist(), rank.tolist(), pivots, d.tolist()):
            rows, piv, want = eliminate(field, M)
            assert (tuple(map(tuple, Ri[:ri])), ri, tuple(np.flatnonzero(pi)), di) == (rows, len(piv), piv, want)
            assert not np.any(Ri[ri:])


def test_eliminate_stack_empty_shapes():
    R, rank, pivots, d = eliminate_stack(F3, np.zeros((0, 2, 2), dtype=np.uint8))
    assert R.shape == (0, 2, 2) and rank.shape == d.shape == (0,) and pivots.shape == (0, 2)
    R, rank, pivots, d = eliminate_stack(F3, np.zeros((3, 0, 0), dtype=np.uint8))
    assert rank.tolist() == [0, 0, 0] and d.tolist() == [1, 1, 1]


def test_scalar_path_takes_numpy_codes():
    # codes as numpy uint8, the dtype of rref_bases: 16 * 16 wraps to 0 at
    # that width, and pow rejects a numpy base, so eliminate reads them as
    # Python ints
    f = GF(17)
    rows = np.array([[16, 16, 0], [16, 0, 1]], dtype=np.uint8)
    assert eliminate(f, rows) == eliminate(f, rows.tolist())
    # pivots 16 and 16, det -16 = 1; at uint8 width the product is 0
    assert eliminate(f, [[np.uint8(16), np.uint8(16)], [np.uint8(1), np.uint8(0)]])[2] == 1
    space = space_make(1, 1, f)
    assert subspace_make(space, rows).rows == subspace_make(space, rows.tolist()).rows
    assert witt_decompose(f, np.array([[16, 0], [0, 16]], dtype=np.uint8)) == witt_decompose(f, [[16, 0], [0, 16]])
    # Subspace and OSpace.pair read them as Python ints too: the square of
    # (1, 0, 16) and of (0, 0, 16) is 16 * 16 = 1, not 0
    P = Subspace(space, np.array([[1, 0, 16]], dtype=np.uint8))
    assert classify_type(P) == SubspaceType(1, 1, 0, "one")
    u = np.array([0, 0, 16], dtype=np.uint8)
    assert space.pair(u, u) == 1
