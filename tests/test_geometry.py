import hashlib
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diagonal, dual, label_parts, mat_mul, unit

from oigraph import geometry
from oigraph import graph as graph_module
from oigraph.cli import main
from oigraph.gf import GF
from oigraph.geometry import (
    OSpace,
    Subspace,
    SubspaceType,
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
    witt_bruteforce_oracle,
    witt_decompose,
    witt_stack,
)
from oigraph.gf import factor_prime_power
from oigraph.graph import build_graph, classify_types
from oigraph.symmetry import edge_orbits, po_e_generators
from oigraph.verify import _census_3x3_f3, _random_forms

F3 = GF(3)
F5 = GF(5)


def oi43():
    return space_make(2, 0, F3)


def oi33(disc="one"):
    return space_make(1, 1, F3, disc)


def test_space_forms():
    s = space_make(1, 0, F3)
    assert s.form.tolist() == [[0, 1], [1, 0]]
    s = oi33()
    assert s.form.tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    s = space_make(1, 1, F3, "z")
    assert s.form.tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 2]]
    s = space_make(1, 2, F5)
    # z = 2 in F_5, so the definite tail is diag(1, -2) = diag(1, 3)
    assert s.form.tolist() == [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]]
    s = space_make(0, 2, F3)
    assert s.form.tolist() == [[1, 0], [0, 1]]  # -z = -2 = 1
    assert not s.form.flags.writeable


def test_space_validation():
    with pytest.raises(ValueError):
        space_make(0, 1, F3)  # n = 1
    with pytest.raises(ValueError):
        space_make(1, 3, F3)
    with pytest.raises(ValueError):
        space_make(1, 0, F3, "z")  # disc without delta = 1
    with pytest.raises(ValueError):
        OSpace(1, 1, F3, "weird")


def test_named_basis_vectors():
    s = space_make(2, 1, F3)
    assert unit(s, "e", 1) == (1, 0, 0, 0, 0)
    assert unit(s, "f", 2) == (0, 0, 0, 1, 0)
    assert unit(s, "eps") == (0, 0, 0, 0, 1)
    assert s.pair(unit(s, "e", 1), unit(s, "f", 1)) == 1
    assert s.pair(unit(s, "e", 1), unit(s, "f", 2)) == 0
    with pytest.raises(ValueError):
        unit(s, "kappa")


def test_subspace_make():
    s = oi43()
    P = subspace_make(s, [unit(s, "e", 1)])
    assert P.rows == ((1, 0, 0, 0),)
    P = subspace_make(s, [(1, 1, 0, 0), (2, 2, 0, 0)])
    assert P.rows == ((1, 1, 0, 0),) and P.m == 1
    with pytest.raises(ValueError):
        subspace_make(s, [(0, 0, 0, 0)])
    with pytest.raises(ValueError):
        subspace_make(s, [unit(s, "e", 1), unit(s, "e", 2), unit(s, "f", 1), unit(s, "f", 2)])


def test_dual_examples():
    s = oi43()
    P = subspace_make(s, [unit(s, "e", 1)])
    assert dual(P) == subspace_make(s, [unit(s, "e", 1), unit(s, "e", 2), unit(s, "f", 2)])
    t = oi33()
    E = subspace_make(t, [unit(t, "eps")])
    assert dual(E) == subspace_make(t, [unit(t, "e", 1), unit(t, "f", 1)])


def contains(X, Y):
    return len(eliminate(X.space.field, X.rows + Y.rows)[1]) == X.m


def subspaces(space, m):
    """Every m-dimensional subspace of space, in vertex order."""
    return [Subspace(space, rows) for rows in rref_bases(space.field, space.n, m).tolist()]


def test_dual_involution_and_reversal():
    s = oi43()
    subs = [P for m in (1, 2) for P in subspaces(s, m)]
    for P in subs:
        D = dual(P)
        assert D.m == s.n - P.m
        assert dual(D) == P
    # inclusion reversal on a few nested pairs
    rng = random.Random(3)
    planes = subspaces(s, 2)
    for P in rng.sample(planes, 20):
        for L in subspaces(s, 1):
            if contains(P, L):
                assert contains(dual(L), dual(P))


def test_gram_examples():
    s = oi43()
    assert gram(subspace_make(s, [unit(s, "e", 1)])) == ((0,),)
    v = tuple(F3.add(a, b) for a, b in zip(unit(s, "e", 1), unit(s, "f", 1)))
    assert gram(subspace_make(s, [v])) == ((2,),)
    assert gram(subspace_make(s, [unit(s, "e", 1), unit(s, "f", 1)])) == ((0, 1), (1, 0))


def gram_by_products(P):
    f = P.space.field
    return mat_mul(f, mat_mul(f, P.rows, P.space.form.tolist()), tuple(zip(*P.rows)))


def test_gram_delta1_disc_z():
    s = space_make(1, 1, F3, "z")  # S = hyperbolic plane + (z), z = 2
    assert gram(subspace_make(s, [unit(s, "eps")])) == ((2,),)
    assert gram(subspace_make(s, [unit(s, "e", 1), unit(s, "eps")])) == ((0, 0), (0, 2))
    assert gram(subspace_make(s, [(1, 1, 1)])) == ((1,),)  # 2 + z
    for space in (s, space_make(1, 1, GF(3, 2), "z")):
        for m in (1, 2):
            for P in subspaces(space, m):
                assert gram(P) == gram_by_products(P)


def test_gram_delta2():
    s = space_make(1, 2, F5)  # S = hyperbolic plane + diag(1, -z), -z = 3
    assert gram(subspace_make(s, [unit(s, "eps"), unit(s, "kappa")])) == ((1, 0), (0, 3))
    assert gram(subspace_make(s, [(1, 0, 0, 1)])) == ((3,),)
    assert gram(subspace_make(s, [(1, 2, 0, 0), (0, 0, 1, 1)])) == ((4, 0), (0, 4))
    for space in (s, space_make(1, 2, F3)):
        for m in (1, 2, 3):
            for P in subspaces(space, m):
                assert gram(P) == gram_by_products(P)


def test_witt_examples():
    assert witt_decompose(F3, [[0, 1], [1, 0]]) == (1, 0, None)
    assert witt_decompose(F3, [[1, 0], [0, 1]]) == (0, 2, None)
    assert witt_decompose(F3, [[1, 0], [0, 2]]) == (1, 0, None)
    assert witt_decompose(F3, [[0]]) == (0, 0, None)
    assert witt_decompose(F3, [[1]]) == (0, 1, "one")
    assert witt_decompose(F3, [[2]]) == (0, 1, "z")
    assert witt_decompose(F3, np.array([[0, 1], [1, 0]], dtype=np.uint8)) == (1, 0, None)


def test_witt_oracle_examples():
    assert witt_bruteforce_oracle(F3, [[[1, 0], [0, 1]]]) == [0]
    assert witt_bruteforce_oracle(F3, [diagonal((1, 2, 0))]) == [1]
    assert witt_bruteforce_oracle(F3, [[[0, 1], [1, 0]]]) == [1]


def all_symmetric(field, n):
    idx = [(i, j) for i in range(n) for j in range(i, n)]

    def fill(vals):
        G = [[0] * n for _ in range(n)]
        for (i, j), v in zip(idx, vals):
            G[i][j] = G[j][i] = v
        return G

    for vals in itertools.product(range(field.q), repeat=len(idx)):
        yield fill(vals)


def test_witt_matches_oracle_2x2_f3_exhaustive():
    mats = list(all_symmetric(F3, 2))
    for G, oracle in zip(mats, witt_bruteforce_oracle(F3, mats), strict=True):
        s, gamma, _ = witt_decompose(F3, G)
        assert 2 * s + gamma == len(eliminate(F3, G)[1])
        assert s == oracle


def test_witt_closed_form_crosscheck():
    # the closed form against the exhaustive oracle on random forms,
    # degenerate ones included: n <= 4 over each field, then n <= 5 over F3
    rng = random.Random(23)
    cases = [(field, 120, 4) for field in (F3, F5, GF(3, 2), GF(7))] + [(F3, 60, 5)]
    for field, count, n_max in cases:
        for _ in range(count):
            n = rng.randrange(1, n_max + 1)
            G = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    G[i][j] = G[j][i] = rng.randrange(field.q)
            s, gamma, _ = witt_decompose(field, G)
            assert 2 * s + gamma == len(eliminate(field, G)[1])
            assert [s] == witt_bruteforce_oracle(field, [G])


def witt_by_counting(f, G):
    """(s, gamma, tag) of a symmetric G from counts of x by the class of
    x G xt (zero, nonzero square, nonsquare) and of the radical, by the
    standard counts for a form with a nondegenerate part of rank r
    (Lidl and Niederreiter, Finite Fields, Thms 6.26-6.27): the square and
    nonsquare counts differ iff r is odd, the larger naming the tag, and for
    even r > 0 the zeros number more than q^(m-1) iff the part is
    hyperbolic."""
    m = len(G)
    t = f.arrays
    X = np.array(list(itertools.product(range(f.q), repeat=m)), dtype=np.intp)
    XG = f.matmul(X, np.array(G))
    value = 0
    for k in range(m):
        value = t.add[value, t.mul[XG[:, k], X[:, k]]]
    square = np.zeros(f.q, dtype=bool)
    square[t.mul[f.units(), f.units()]] = True
    zeros = int(np.count_nonzero(value == 0))
    squares = int(np.count_nonzero(square[value]))
    nonsquares = len(X) - zeros - squares
    r = m - round(math.log(np.count_nonzero(~XG.any(axis=1)), f.q))
    if squares != nonsquares:
        gamma, tag = 1, "one" if squares > nonsquares else "z"
    else:
        gamma, tag = (0 if r == 0 or zeros > f.q ** (m - 1) else 2), None
    return (r - gamma) // 2, gamma, tag


def test_witt_type_matches_counting_exhaustive_3x3_f3():
    mats = list(all_symmetric(F3, 3))
    assert len(mats) == 729
    for G in mats:
        assert witt_decompose(F3, G) == witt_by_counting(F3, G)


def test_witt_type_matches_counting_random_degenerate():
    # G = Bt S B with S symmetric k x k, k < n: rank at most k, radical in
    # general position
    rng = random.Random(31)
    for field in (F5, GF(7), GF(3, 2)):
        for _ in range(40):
            n = rng.randrange(2, 5)
            k = rng.randrange(1, n)
            S = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i, k):
                    S[i][j] = S[j][i] = rng.randrange(field.q)
            B = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]
            G = mat_mul(field, mat_mul(field, tuple(zip(*B)), S), B)
            assert len(eliminate(field, G)[1]) < n
            assert witt_decompose(field, G) == witt_by_counting(field, G)


def test_witt_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        witt_decompose(F3, [[0, 1], [2, 0]])


def test_witt_oracle_admits_suite_sizes():
    # the zero form is scanned in every dimension, largest batch included
    for field, n in ((GF(3, 2), 4), (GF(11), 4), (F3, 5)):
        assert witt_bruteforce_oracle(field, [[[0] * n] * n]) == [0]
    hyperbolic = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    assert witt_bruteforce_oracle(GF(11), [hyperbolic]) == [2]


def test_witt_oracle_rejects_oversized_before_allocating(monkeypatch):
    # 6x6 over F9 has q^m = 531441 but 441,826,660 three-dimensional bases,
    # about 63 GB as int64
    assert gauss_binomial(6, 3, 9) == 441_826_660

    def no_bases(*args):
        raise AssertionError("candidate bases built for an oversized form")

    monkeypatch.setattr(geometry, "rref_bases", no_bases)
    with pytest.raises(ValueError, match="too large"):
        witt_bruteforce_oracle(GF(3, 2), [[[0] * 6] * 6])


def suite_oracle_forms():
    """The form stacks of the witt-oracle-agreement check, each with its
    field: every 3x3 form over F3, then 500 random 4x4 forms over F5."""
    census = [
        ((a, d, e), (d, b, f), (e, f, c)) for a, b, c, d, e, f in itertools.product(range(3), repeat=6)
    ]
    assert np.array_equal(_census_3x3_f3(), census)
    rng = random.Random(8193)
    return (F3, np.array(census)), (F5, _random_forms(rng, F5, 4, 500))


@pytest.fixture(scope="module")
def oracle_forms_one_by_one():
    stacks = suite_oracle_forms()
    return stacks, [[witt_bruteforce_oracle(f, [G])[0] for G in stack] for f, stack in stacks]


# 1000 entries: the point table of a 3x3 form over F3 has 13 * 3 = 39, so
# 25 F3 forms per chunk (729 = 29 * 25 + 4); a 4x4 form over F5 has
# 156 * 4 = 624, so one F5 form per chunk
@pytest.mark.parametrize("chunk", [None, 1, 1000])
def test_witt_oracle_batch_equals_one_form_batches(oracle_forms_one_by_one, monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(geometry, "_ORACLE_CHUNK", chunk)
    stacks, singles = oracle_forms_one_by_one
    for (f, stack), want in zip(stacks, singles):
        assert witt_bruteforce_oracle(f, stack) == want
        assert want == [witt_decompose(f, G)[0] for G in stack]


def test_witt_oracle_peak_on_suite_f5_forms():
    # the point table of a chunk, not a Gram block per candidate and form,
    # bounds the temporaries; the warm-up call fills the caches (bases,
    # point ids, field tables)
    f, forms = suite_oracle_forms()[1]
    want = witt_bruteforce_oracle(f, forms)
    tracemalloc.start()
    try:
        assert witt_bruteforce_oracle(f, forms) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**10


def test_witt_oracle_runs_no_elimination(monkeypatch):
    # the oracle reads the radical from its point table, so it shares
    # neither Gauss-Jordan elimination witt_decompose and witt_stack read; the census
    # holds degenerate forms down to the zero form
    f, census = suite_oracle_forms()[0]
    want = [witt_decompose(f, G)[0] for G in census]

    def no_elimination(*args):
        raise AssertionError("the oracle ran an elimination")

    monkeypatch.setattr(geometry, "eliminate", no_elimination)
    monkeypatch.setattr(geometry, "eliminate_stack", no_elimination)
    assert witt_bruteforce_oracle(f, census) == want


def test_witt_oracle_rejects_asymmetric(monkeypatch):
    # the oracle reads only the entries above the diagonal, so an
    # asymmetric form would be misread
    def no_bases(*args):
        raise AssertionError("candidate bases built for an asymmetric form")

    monkeypatch.setattr(geometry, "rref_bases", no_bases)
    with pytest.raises(ValueError, match="symmetric"):
        witt_bruteforce_oracle(F3, [[[0, 1], [1, 0]], [[0, 1], [2, 0]]])


def test_witt_oracle_batch_zero_and_degenerate_forms():
    zero = [[0] * 3] * 3
    forms = [
        zero,
        diagonal((1, 2, 0)),  # hyperbolic plane plus radical: 1
        diagonal((1, 1, 0)),  # anisotropic plane plus radical: 0
        diagonal((1, 0, 0)),
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        zero,
    ]
    assert witt_bruteforce_oracle(F3, forms) == [0, 1, 0, 0, 1, 0]
    assert witt_bruteforce_oracle(F3, np.zeros((2, 0, 0), dtype=np.uint8)) == [0, 0]
    assert witt_bruteforce_oracle(F3, []) == []


def test_witt_oracle_batch_extension_field():
    f = GF(3, 2)
    rng = random.Random(41)
    forms = []
    for _ in range(30):
        entries = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                entries[i][j] = entries[j][i] = rng.choice([0, rng.randrange(f.q)])
        forms.append(entries)
    assert witt_bruteforce_oracle(f, forms) == [witt_decompose(f, G)[0] for G in forms]


def test_witt_oracle_rejects_mixed_stacks():
    with pytest.raises(ValueError, match="one size"):
        witt_bruteforce_oracle(F3, [[[0, 1], [1, 0]], diagonal((1, 2, 0))])
    with pytest.raises(ValueError, match="square"):
        witt_bruteforce_oracle(F3, np.zeros((2, 2, 3), dtype=np.uint8))


def random_forms(field, m, k, seed):
    """k random symmetric m x m forms, entries zero half the time, so
    degenerate forms of every rank occur."""
    rng = random.Random(seed)
    forms = np.zeros((k, m, m), dtype=np.uint8)
    for G in forms:
        for i in range(m):
            for j in range(i, m):
                G[i, j] = G[j, i] = rng.choice([0, rng.randrange(field.q)])
    return forms


WITT_STACKS = {
    "3x3-f3-census": (F3, _census_3x3_f3()),
    "4x4-f5-suite": suite_oracle_forms()[1],
    "3x3-f9-random": (GF(3, 2), random_forms(GF(3, 2), 3, 300, 91)),
    "4x4-f25-random": (GF(5, 2), random_forms(GF(5, 2), 4, 300, 251)),
    "1x1-f7": (GF(7), np.arange(7, dtype=np.uint8).reshape(7, 1, 1)),
    "empty": (F3, np.zeros((0, 3, 3), dtype=np.uint8)),
}


@pytest.mark.parametrize("name", list(WITT_STACKS))
def test_witt_stack_matches_witt_decompose(name):
    f, forms = WITT_STACKS[name]
    assert witt_stack(f, forms) == [witt_decompose(f, G) for G in forms]


def test_witt_stack_rejects_what_witt_decompose_rejects():
    assert witt_stack(F3, []) == []
    with pytest.raises(ValueError, match="symmetric"):
        witt_stack(F3, [[[0, 1], [2, 0]]])
    with pytest.raises(ValueError, match="square"):
        witt_stack(F3, np.zeros((2, 2, 3), dtype=np.uint8))


@pytest.mark.parametrize(
    "params",
    [(2, 0, 3, "one"), (1, 2, 3, "one"), (2, 0, 5, "one"), (2, 1, 3, "one"), (1, 1, 9, "one"), (1, 1, 9, "z"), (1, 1, 25, "one")],
    ids=["oi43", "oi43-delta2", "oi45", "oi53", "oi39", "oi39-z", "oi3-25"],
)
def test_classify_types_matches_classify_type(params):
    nu, delta, q, disc = params
    g = build_graph(space_make(nu, delta, GF(*factor_prime_power(q)), disc))
    assert classify_types(g) == [classify_type(P) for P in g.verts]


def test_classify_types_peak_near_block(monkeypatch):
    # the Gram blocks come from the (P, n) table pts S a vertex block at a
    # time, so the temporaries follow _BLOCK, not P^2 (424 KB here): 33 KB
    # at this _BLOCK, 95 KB at the default
    g = build_graph(space_make(1, 1, GF(5, 2)))  # 651 points, 1302 vertices
    want = classify_types(g)
    monkeypatch.setattr(graph_module, "_BLOCK", 1 << 14)
    tracemalloc.start()
    try:
        assert classify_types(g) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_classify_examples():
    s = oi43()
    assert classify_type(subspace_make(s, [unit(s, "e", 1)])) == SubspaceType(1, 0, 0)
    t = oi33()
    assert classify_type(subspace_make(t, [unit(t, "eps")])) == SubspaceType(1, 1, 0, "one")
    v = tuple(F3.add(a, b) for a, b in zip(unit(s, "e", 1), unit(s, "f", 1)))
    assert classify_type(subspace_make(s, [v])) == SubspaceType(1, 1, 0, "z")
    assert classify_type(subspace_make(s, [unit(s, "e", 1), unit(s, "e", 2)])) == SubspaceType(2, 0, 0)
    assert classify_type(subspace_make(s, [unit(s, "e", 1), unit(s, "f", 1)])) == SubspaceType(2, 2, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_classify_basis_invariant(seed):
    rng = random.Random(seed)
    s = oi43()
    m = rng.randrange(1, 4)
    rows = [[rng.randrange(3) for _ in range(4)] for _ in range(m)]
    while not any(any(r) for r in rows):
        rows = [[rng.randrange(3) for _ in range(4)] for _ in range(m)]
    P = subspace_make(s, rows)
    U = None
    while U is None or len(eliminate(F3, U)[1]) < P.m:
        U = [[rng.randrange(3) for _ in range(P.m)] for _ in range(P.m)]
    Q = subspace_make(s, mat_mul(F3, U, P.rows))
    assert Q == P  # same row space, same canonical form
    assert classify_type(Q) == classify_type(P)


def test_enumerate_counts_and_uniqueness():
    s = oi43()
    for m in (1, 2, 3):
        subs = subspaces(s, m)
        assert len(subs) == gauss_binomial(4, m, 3)
        assert len({P.rows for P in subs}) == len(subs)
        assert all(subspace_make(s, P.rows) == P for P in subs)  # canonical
    assert gauss_binomial(4, 2, 3) == 130
    assert len(subspaces(space_make(1, 0, F3), 1)) == 4
    with pytest.raises(ValueError):
        rref_bases(F3, 4, 0)


def test_rref_bases_canonical_and_sorted():
    for field, n in ((F3, 4), (GF(3, 2), 3), (F5, 3)):
        for m in range(1, n + 1):
            B = rref_bases(field, n, m)
            assert B.shape == (gauss_binomial(n, m, field.q), m, n)
            assert B.dtype == np.uint8 and not B.flags.writeable
            assert rref_bases(field, n, m) is B  # cached
            flat = [tuple(b) for b in B.reshape(len(B), -1).tolist()]
            assert flat == sorted(set(flat))  # distinct, ascending
            for rows in B.tolist():
                R, pivots, _ = eliminate(field, rows)
                assert list(map(list, R)) == rows and len(pivots) == m
    with pytest.raises(ValueError):
        rref_bases(F3, 3, 4)


def test_rref_point_ids_name_the_rows():
    # the oracle's premise: each row of an rref basis is a point's basis
    for field, n in ((F3, 3), (F3, 4), (F3, 5), (F5, 4), (GF(3, 2), 3)):
        pts = rref_bases(field, n, 1)[:, 0]
        for m in range(1, n + 1):
            ids = rref_point_ids(field, n, m)
            assert np.array_equal(pts[ids], rref_bases(field, n, m))
            assert not ids.flags.writeable
            assert rref_point_ids(field, n, m) is ids  # cached


def searchsorted_point_ids(field, vecs):
    """The point id of each normalised vector (first nonzero entry 1) of
    vecs: the points ascend by vector, so by the vector read as a base-q
    number, and one searchsorted finds every vector.  The reference for
    point_ids' table."""
    n = np.shape(vecs)[-1]
    digits = field.q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return np.searchsorted(rref_bases(field, n, 1)[:, 0] @ digits, np.asarray(vecs) @ digits)


@pytest.mark.parametrize("field, n", [(F3, 4), (GF(3, 2), 3), (GF(5, 2), 2)], ids=["F3^4", "F9^3", "F25^2"])
def test_point_ids_table(field, n):
    pts = rref_bases(field, n, 1)[:, 0]
    for c in field.units():  # every nonzero multiple, by scalar products
        multiples = np.array([[field.mul(c, x) for x in v] for v in pts.tolist()])
        assert point_ids(field, multiples).tolist() == list(range(len(pts)))
    assert point_ids(field, [0] * n) == -1
    assert point_ids(field, np.zeros((2, 3, n), dtype=np.uint8)).tolist() == [[-1] * 3] * 2
    for m in range(1, n + 1):
        ids = rref_point_ids(field, n, m)
        assert ids.dtype == np.int32
        assert np.array_equal(ids, searchsorted_point_ids(field, rref_bases(field, n, m)))


def count_by_type(space, m):
    return Counter(classify_type(P) for P in subspaces(space, m))


def test_count_by_type_oi43_dim1():
    counts = count_by_type(oi43(), 1)
    # hyperbolic 4-space over F_3: (q+1)(q^2-1)/(q-1) = 16 isotropic points,
    # and the 24 anisotropic points split evenly between the square classes
    assert counts[SubspaceType(1, 0, 0)] == 16
    assert counts[SubspaceType(1, 1, 0, "one")] == 12
    assert counts[SubspaceType(1, 1, 0, "z")] == 12
    assert sum(counts.values()) == 40


def test_count_by_type_small_spaces():
    c = count_by_type(space_make(1, 0, F3), 1)
    assert c[SubspaceType(1, 0, 0)] == 2
    assert sum(c.values()) == 4
    c = count_by_type(oi33(), 1)
    assert sum(c.values()) == 13
    c = count_by_type(oi33("z"), 1)
    assert sum(c.values()) == 13
    # parabolic 3-space has (q^2-1)/(q-1)... isotropic count q+1 = 4
    assert c[SubspaceType(1, 0, 0)] == 4


def test_subspace_sum():
    s = oi43()
    A = subspace_make(s, [unit(s, "e", 1)])
    B = subspace_make(s, [unit(s, "e", 2)])
    assert subspace_span(s, A.rows + B.rows) == subspace_make(s, [unit(s, "e", 1), unit(s, "e", 2)])
    C = subspace_make(s, [tuple(F3.add(a, b) for a, b in zip(unit(s, "e", 1), unit(s, "e", 2)))])
    assert subspace_span(s, A.rows + C.rows) == subspace_make(s, [unit(s, "e", 1), unit(s, "e", 2)])
    assert subspace_span(s, A.rows + A.rows) == A
    E = subspace_make(s, [unit(s, "e", 1), unit(s, "e", 2)])
    full = subspace_span(s, E.rows + subspace_make(s, [unit(s, "f", 1), unit(s, "f", 2)]).rows)
    assert full.m == 4 and not full.is_vertex
    assert classify_type(full) == SubspaceType(4, 4, 2)


# sha256 of `oigraph classify --format csv` over all dimensions, frozen
# before types came from rank and discriminant: both tags for q = 1 and
# q = 3 (mod 4), and the gamma = 2 types
FROZEN_CENSUS_DIGESTS = {
    ("2", "0", "one", "5"): "b4e6b8732372b3080037ce2f9b5496b178900da9eb61730ef8ab103a020149bd",
    ("1", "1", "z", "9"): "30f46779c02bceadc58dd6695c56d371c5eaa631b2d736f923d11f01dc7b987c",
    ("2", "1", "z", "3"): "ccb71e4b2a6d871f48c00ee895383f348c7aef7c3566444768db3fc93fd7136a",
    ("1", "2", "one", "3"): "af2d21c89b4ffced3ac8992424adeea3f14898082ca7123d839b926bf7924b53",
}


@pytest.mark.parametrize("key", list(FROZEN_CENSUS_DIGESTS), ids=["oi45", "oi39-z", "oi53-z", "oi43-delta2"])
def test_type_census_digests_frozen(key, capsys):
    nu, delta, disc, q = key
    argv = ["classify", "--nu", nu, "--delta", delta, "--disc", disc, "--field", q, "--format", "csv"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_CENSUS_DIGESTS[key]


# sha256 of `oigraph orbits --format csv`, of `oigraph aut` (generated) and
# of the sorted edge-orbit partition, frozen before the group layer moved to
# plain vertex arrays
FROZEN_SYMMETRY_DIGESTS = {
    ("orbits", "2", "0", "one", "3"): "df6cca5120c50840db7c23e236c31f68b1dc90b570e626b63ed0646e3ab3ccf8",
    ("orbits", "1", "1", "z", "9"): "0840d080eb628fd18e3c5557f8ecc36381bd39ec7e2354cc987bab5365c4be9a",
    ("orbits", "2", "1", "one", "3"): "0c7e3212d036d3cb7d0fdadbc6ad23532e72e6ccf3614b92dbc60d2472fbc66c",
    ("aut", "2", "0", "one", "3"): "7580e0d1f18d659e11bdd7420953f60d388c2d33b04144154bc81522914307ca",
    ("aut", "1", "1", "z", "9"): "a3883e618cfce99c2e6b3e4bcf5c6c2a39b0a1ff129ffe0b719293bb393e30e4",
    ("aut", "2", "1", "one", "3"): "e0653afbe522f4690b16357410241627c3894ca88502a0cf02cce174cb2a8a80",
    ("edge-orbits", "2", "0", "one", "3"): "31dce1b87b3836fc6a2b260f5768bddfda99b088ad7071a8aec0393e039b7f9c",
    # frozen before the group layer moved to projective points: the d2 slot
    # (delta = 2) and q = 1 mod 4
    ("orbits", "1", "2", "one", "3"): "a119c3abbb21ed213f61e74a492b1cc351acaa268e87c05ae6ca4eb7de95ea19",
    ("orbits", "2", "0", "one", "5"): "4e3efb08b1c050f79c745a6aeee5cff711436545c4a3845e985dca93c0476880",
    ("aut", "1", "2", "one", "3"): "e815f9d7efe130df797463350fb0f6eaf7008dc8d612efc82fc44f9bae3dc821",
    ("aut", "2", "0", "one", "5"): "cddd6aa9b4c8ec2c43d6dc67027b0397b4605038df8d049ebc58c5f61ef00556",
}


@pytest.mark.parametrize("key", list(FROZEN_SYMMETRY_DIGESTS), ids="-".join)
def test_symmetry_digests_frozen(key, capsys):
    cmd, nu, delta, disc, q = key
    if cmd == "edge-orbits":
        g = build_graph(space_make(int(nu), int(delta), GF(int(q)), disc))
        pairs = list(map(tuple, g.edge_pairs_with_loops().tolist()))
        out = json.dumps(label_parts(edge_orbits(g, po_e_generators(g)), pairs))
    else:
        argv = [cmd, "--nu", nu, "--delta", delta, "--disc", disc, "--field", q]
        assert main(argv + (["--format", "csv"] if cmd == "orbits" else [])) == 0
        out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_SYMMETRY_DIGESTS[key]
