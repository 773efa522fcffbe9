import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oigraph import gf as gf_module
from oigraph.gf import (
    GF,
    BudgetExceeded,
    canonical_modulus,
    factor_prime_power,
    parse_field,
    poly_is_irreducible,
    primitive_unit,
)


def f9():
    return GF(3, 2)


# --- independent oracle: GF(9) = F_3[t]/(t^2+1), elements encoded c0 + 3*c1


def oracle9_mul(a, b):
    a0, a1 = a % 3, a // 3
    b0, b1 = b % 3, b // 3
    return (a0 * b0 - a1 * b1) % 3 + 3 * ((a0 * b1 + a1 * b0) % 3)


def oracle9_add(a, b):
    return (a % 3 + b % 3) % 3 + 3 * ((a // 3 + b // 3) % 3)


def poly_oracle(p, modulus):
    """add and mul on codes by schoolbook polynomial arithmetic mod modulus."""
    e = len(modulus) - 1

    def digits(a):
        return [a // p**i % p for i in range(e)]

    def code(c):
        return sum(x % p * p**i for i, x in enumerate(c))

    def add(a, b):
        return code([x + y for x, y in zip(digits(a), digits(b))])

    def mul(a, b):
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] += x * y
        for k in range(2 * e - 2, e - 1, -1):  # t^k = t^(k-e) * (t^e - modulus)
            c = prod[k] % p
            for i, m in enumerate(modulus):
                prod[k - e + i] -= c * m
        return code(prod[:e])

    return add, mul


def test_field_construction():
    f = GF(3)
    assert (f.p, f.e, f.q) == (3, 1, 3)
    assert f9().q == 9
    with pytest.raises(ValueError):
        GF(2, 1)
    with pytest.raises(ValueError):
        GF(9, 1)  # composite
    with pytest.raises(ValueError):
        GF(3, 0)
    with pytest.raises(ValueError):
        GF(3, 2, (0, 0, 1))  # t^2 is reducible
    with pytest.raises(ValueError, match="monic of degree 2"):
        GF(3, 2, (1, 0, 2))  # 2t^2 + 1 is not monic
    with pytest.raises(ValueError, match="monic of degree 2"):
        GF(3, 2, (2, 0, 0, 1))  # degree 3


def test_only_a_given_modulus_is_tested(monkeypatch):
    # canonical_modulus picks an irreducible modulus, so GF tests only one it
    # is given
    tested = []

    def recording(f, p):
        tested.append(tuple(f))
        return poly_is_irreducible(f, p)

    canonical_modulus(5, 3)
    monkeypatch.setattr(gf_module, "poly_is_irreducible", recording)
    assert GF(5, 3).modulus == canonical_modulus(5, 3) and tested == []
    assert GF(5, 3, (6, 0, 1, 1)).modulus == (1, 0, 1, 1)
    assert tested == [(1, 0, 1, 1)]


def test_canonical_modulus_is_first_irreducible_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    for p, e in [(3, 2), (3, 3), (5, 2), (7, 2)]:
        expected = None
        for tail in itertools.product(range(p), repeat=e):
            poly = sympy.Poly(
                sum(c * t**i for i, c in enumerate(tail)) + t**e, t, modulus=p
            )
            if poly.is_irreducible:
                expected = tuple(tail) + (1,)
                break
        assert canonical_modulus(p, e) == expected


def test_canonical_modulus_values():
    assert canonical_modulus(3, 2) == (1, 0, 1)  # t^2 + 1
    assert canonical_modulus(3, 3) == (1, 0, 2, 1)  # t^3 + 2t^2 + 1
    # found by trial division of every candidate; t^10 + 2t^8 + 1
    assert canonical_modulus(3, 10) == (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1)
    # t^16 + t^14 + t^13 + 1, about a minute of trial division
    assert canonical_modulus(3, 16) == (1,) + (0,) * 12 + (1, 1, 0, 1)


def remainder_mod_monic(a, b, p):
    """a mod b over Z_p by long division, b monic; little-endian lists."""
    a = [c % p for c in a]
    for k in range(len(a) - len(b), -1, -1):  # cancel a's t^(k + deg b) term
        c = a[k + len(b) - 1]
        for i, bi in enumerate(b):
            a[k + i] = (a[k + i] - c * bi) % p
    return a[: len(b) - 1]


def trial_division_is_irreducible(coeffs, p):
    """Reference: no monic polynomial of degree 1..deg/2 divides coeffs."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not any(remainder_mod_monic(coeffs, list(tail) + [1], p)):
                return False
    return True


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_rabin_matches_trial_division(p):
    # every polynomial of degree 1..4 (1..3 for p = 11) with leading
    # coefficient 1 or 2
    for e in range(1, 5 if p < 11 else 4):
        for lead in (1, 2):
            for tail in itertools.product(range(p), repeat=e):
                coeffs = list(tail) + [lead]
                assert poly_is_irreducible(coeffs, p) == trial_division_is_irreducible(coeffs, p), coeffs


def test_rabin_edge_inputs():
    # a constant is no irreducible; trailing zeros are dropped; the
    # entries are exact past the int64 range
    assert not poly_is_irreducible([0], 3)
    assert not poly_is_irreducible([5], 3)
    assert poly_is_irreducible([1, 1, 0], 3)
    assert poly_is_irreducible([1, 1], 4294967311)


def test_rabin_rejects_factors_of_coprime_degrees():
    # A cubic times a quintic has no factor whose degree divides 8 / 2, so
    # only x^(3^8) = x mod f tells it from an irreducible of degree 8.
    a, b = canonical_modulus(3, 3), canonical_modulus(3, 5)
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % 3
    assert not poly_is_irreducible(prod, 3)
    assert not trial_division_is_irreducible(prod, 3)


def test_irreducibility_degree4():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    for tail in itertools.product(range(3), repeat=4):
        coeffs = list(tail) + [1]
        poly = sympy.Poly(sum(c * t**i for i, c in enumerate(coeffs)), t, modulus=3)
        assert poly_is_irreducible(coeffs, 3) == poly.is_irreducible


def test_extension_arithmetic_matches_hand_oracle():
    f = f9()
    for a in range(9):
        for b in range(9):
            assert f.mul(a, b) == oracle9_mul(a, b)
            assert f.add(a, b) == oracle9_add(a, b)


def test_arith_examples():
    f3, f5 = GF(3), GF(5)
    assert f3.add(1, 2) == 0
    assert f5.inv(2) == 3
    t = f9().element((0, 1))
    assert f9().mul(t, t) == 2  # t^2 = -1 under the canonical modulus


def test_inverse_and_division():
    for f in [GF(3), GF(5), f9(), GF(3, 3)]:
        for a in f.units():
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_square_classes_partition():
    for f in [GF(3), GF(5), GF(7), f9(), GF(3, 3), GF(3, 4)]:
        squares = [a for a in f.units() if f.is_square(a)]
        assert len(squares) == (f.q - 1) // 2
        z = f.canonical_nonsquare()
        for a in f.units():
            assert f.is_square(a) != f.is_square(f.mul(a, z))


def test_is_square_euler_equivalence():
    for f in [GF(5), f9(), GF(3, 3)]:
        for a in f.units():
            assert f.is_square(a) == (f.pow(a, (f.q - 1) // 2) == 1)


def test_is_square_examples():
    assert GF(3).is_square(1) and not GF(3).is_square(2)
    assert GF(5).is_square(4)
    assert f9().is_square(2)  # 2 = -1 = t^2
    with pytest.raises(ValueError):
        GF(3).is_square(0)


def test_canonical_nonsquare_values():
    assert GF(3).canonical_nonsquare() == 2
    assert GF(5).canonical_nonsquare() == 2
    # in GF(9) the squares of the unit group are {1, 2, t, 2t}; the least
    # non-square in coefficient-lex order is 1 + t (encoded 4)
    f = f9()
    sq = {f.mul(a, a) for a in f.units()}
    assert sq == {1, 2, 3, 6}
    assert f.canonical_nonsquare() == 4
    assert f.coeffs(4) == (1, 1)


def test_sqrt_of_square():
    assert GF(5).sqrt_of_square(4) == 2
    assert GF(3).sqrt_of_square(1) == 1
    f = f9()
    assert f.sqrt_of_square(2) == f.element((0, 1))  # t, not 2t
    for fld in [GF(7), f, GF(3, 3)]:
        for a in fld.units():
            if fld.is_square(a):
                b = fld.sqrt_of_square(a)
                assert fld.mul(b, b) == a
    with pytest.raises(ValueError):
        GF(3).sqrt_of_square(2)


def test_frobenius():
    f = f9()
    t = f.element((0, 1))
    assert f.frobenius(t, 1) == f.neg(t)  # t^3 = -t
    for a in f.elements():
        assert f.frobenius(a, 0) == a
        assert f.frobenius(f.frobenius(a, 1), 1) == a
    # automorphism property, exhaustive at q <= 27
    for fld in [f, GF(3, 3)]:
        for j in range(fld.e):
            for a in fld.elements():
                for b in fld.elements():
                    assert fld.frobenius(fld.add(a, b), j) == fld.add(
                        fld.frobenius(a, j), fld.frobenius(b, j)
                    )
                    assert fld.frobenius(fld.mul(a, b), j) == fld.mul(
                        fld.frobenius(a, j), fld.frobenius(b, j)
                    )
    with pytest.raises(ValueError):
        f.frobenius(1, 2)


def test_minus_one_square_iff_q_mod_4():
    for f in [GF(3), GF(5), GF(7), GF(11), GF(13), f9(), GF(3, 3)]:
        assert f.is_square(f.neg(1)) == (f.q % 4 == 1)
        assert f.minus_one_is_square() == (f.q % 4 == 1)


@settings(max_examples=60)
@given(st.sampled_from([3, 5, 7, 11]), st.data())
def test_prime_field_ring_axioms(p, data):
    f = GF(p)
    a = data.draw(st.integers(0, p - 1))
    b = data.draw(st.integers(0, p - 1))
    c = data.draw(st.integers(0, p - 1))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.sub(a, b) == f.add(a, f.neg(b))
    assert f.pow(a, 3) == f.mul(a, f.mul(a, a))


def test_coeff_roundtrip():
    for f in [GF(3), f9(), GF(3, 3), GF(5, 2)]:
        for a in f.elements():
            assert f.element(f.coeffs(a)) == a


def test_parse_field():
    assert parse_field("3") == GF(3)
    assert parse_field("9") == f9()
    assert parse_field("3^2") == f9()
    assert parse_field("27") == GF(3, 3)
    with pytest.raises(ValueError):
        parse_field("2")
    with pytest.raises(ValueError):
        parse_field("12")
    f_alt = parse_field("9", modulus=(2, 2, 1))
    assert f_alt.modulus == (2, 2, 1) and f_alt != f9()


def test_factor_prime_power():
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(4) == (2, 2)
    for q in (1, 12, 45):
        with pytest.raises(ValueError, match="not a prime power"):
            factor_prime_power(q)


def test_arrays_match_oracle9():
    t = f9().arrays
    for a in range(9):
        for b in range(9):
            assert t.add[a, b] == oracle9_add(a, b)
            assert t.mul[a, b] == oracle9_mul(a, b)
        assert a == 0 or oracle9_mul(a, int(t.inv[a])) == 1
        assert t.frob[1, a] == oracle9_mul(a, oracle9_mul(a, a))
    X = [[1, 4, 8], [3, 0, 7]]
    M = [[2, 5], [6, 1], [8, 3]]
    want = [[0, 0], [0, 0]]
    for i in range(2):
        for j in range(2):
            for k in range(3):
                want[i][j] = oracle9_add(want[i][j], oracle9_mul(X[i][k], M[k][j]))
    assert f9().matmul(X, M).tolist() == want


def slow_matmul(f, X, M):
    """X @ M entry by entry from f.add and f.mul, broadcasting leading axes."""
    X, M = np.asarray(X), np.asarray(M)
    lead = np.broadcast_shapes(X.shape[:-2], M.shape[:-2])
    X = np.broadcast_to(X, lead + X.shape[-2:])
    M = np.broadcast_to(M, lead + M.shape[-2:])
    out = np.zeros(lead + (X.shape[-2], M.shape[-1]), dtype=np.int64)
    for *at, i, j in np.ndindex(out.shape):
        acc = 0
        for k in range(X.shape[-1]):
            acc = f.add(acc, f.mul(int(X[(*at, i, k)]), int(M[(*at, k, j)])))
        out[(*at, i, j)] = acc
    return out


@pytest.mark.parametrize(
    "p,e,index_dtype",
    [(3, 1, np.uint8), (5, 1, np.uint8), (3, 2, np.uint8), (5, 2, np.uint16), (257, 1, np.uint32)],
)
def test_matmul_matches_pure_python(p, e, index_dtype):
    # the flat-table indices a q + b live in the least dtype for q^2 - 1
    f = GF(p, e)
    assert np.min_scalar_type(f.q * f.q - 1) == index_dtype
    rng = np.random.default_rng(p * 10 + e)
    X = rng.integers(0, f.q, size=(3, 4))
    M = rng.integers(0, f.q, size=(4, 5))
    got = f.matmul(X, M)
    assert got.dtype == f.arrays.mul.dtype
    assert np.array_equal(got, slow_matmul(f, X, M))
    # the oracle's broadcast, (1, K, d, m) @ (N, 1, m, m), on uint8 bases
    B = rng.integers(0, f.q, size=(1, 3, 2, 3)).astype(np.uint8 if f.q < 256 else np.uint16)
    G = rng.integers(0, f.q, size=(2, 1, 3, 3))
    assert np.array_equal(f.matmul(B, G), slow_matmul(f, B, G))
    assert np.array_equal(f.matmul(f.matmul(B, G), B.transpose(0, 1, 3, 2)),
                          slow_matmul(f, slow_matmul(f, B, G), B.transpose(0, 1, 3, 2)))
    # transposed views, as _fill_adjacency (vectors.T) and reflect (w.T) pass
    V = rng.integers(0, f.q, size=(6, 4))
    assert np.array_equal(f.matmul(X, V.T), slow_matmul(f, X, V.T))
    assert np.array_equal(f.matmul(V, M).T, slow_matmul(f, V, M).T)
    # one inner step, and a single column
    assert np.array_equal(f.matmul(X[:, :1], M[:1]), slow_matmul(f, X[:, :1], M[:1]))
    assert np.array_equal(f.matmul(X, M[:, :1]), slow_matmul(f, X, M[:, :1]))


def test_primitive_unit():
    assert primitive_unit(GF(3)) == 2
    assert primitive_unit(GF(5)) == 2
    g = primitive_unit(f9())
    seen = set()
    x = 1
    for _ in range(8):
        x = f9().mul(x, g)
        seen.add(x)
    assert len(seen) == 8


@pytest.mark.parametrize(
    "p, e, modulus", [(3, 2, (2, 2, 1)), (5, 2, None), (3, 3, None), (3, 4, None), (3, 6, None)]
)
def test_arrays_match_poly_oracle(p, e, modulus):
    f = GF(p, e, modulus)
    add, mul = poly_oracle(p, f.modulus)
    t = f.arrays
    # every pair up to q = 81; for GF(729) every 41st row, against all columns
    for a in range(0, f.q, 1 if f.q <= 81 else 41):
        assert t.add[a].tolist() == [add(a, b) for b in f.elements()]
        assert t.mul[a].tolist() == [mul(a, b) for b in f.elements()]
    assert t.inv[0] == 0 and all(mul(a, int(t.inv[a])) == 1 for a in f.units())
    assert t.frob[0].tolist() == list(f.elements())
    for j in range(1, e):
        for a in f.elements():
            x, y = int(t.frob[j - 1, a]), 1
            for _ in range(p):
                y = mul(y, x)
            assert t.frob[j, a] == y
    assert all(add(a, int(t.neg[a])) == 0 for a in f.elements())
    dtype = np.uint8 if f.q <= 256 else np.uint16
    assert all(v.dtype == dtype for v in vars(t).values())
    # the walk is the powers of the first unit in coefficient order whose
    # powers reach 1 only at q - 1; every earlier candidate's powers reach it sooner
    def order(h):
        x, k = h, 1
        while x != 1:
            x, k = mul(x, h), k + 1
        return k

    g = primitive_unit(f)
    powers = [1]
    while len(powers) < f.q - 1:
        powers.append(mul(powers[-1], g))
    assert f._exp.tolist() == powers and order(g) == f.q - 1
    codes = [sum(c * p**i for i, c in enumerate(cs)) for cs in itertools.product(range(p), repeat=e)]
    assert all(order(h) < f.q - 1 for h in codes[1 : codes.index(g)])


def test_large_extension_field():
    f = GF(3, 6)
    g = f.element((1, 1, 0, 0, 0, 0))
    assert f.mul(g, f.inv(g)) == 1
    assert f.frobenius(g, 3) == f.pow(g, 27)


def test_table_build_peak_within_twice_the_tables():
    # the add table once went through int64 q x q temporaries, a traced
    # peak of 5.5 times the table bytes
    f = GF(3001)
    tracemalloc.start()
    try:
        tables = f.arrays
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sum(a.nbytes for a in vars(tables).values())


def test_field_holds_only_its_walk():
    # a prime field keeps exp and log and builds no table; a frozenset of
    # its squares once held 4.29 MiB against the 1.53 MiB of exp and log
    tracemalloc.start()
    try:
        f = parse_field("100003")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert "arrays" not in vars(f)
    assert held <= f._exp.nbytes + f._log.nbytes + 2**19


def test_table_guard_before_allocating():
    # GF(3^10) walks its 59048 units but builds no q x q table; its first
    # product asks for ~14 GB of tables and is refused before any is made
    tracemalloc.start()
    try:
        f = GF(3, 10)
        assert tracemalloc.get_traced_memory()[1] < 64 * 2**20
        assert "arrays" not in vars(f)
        tracemalloc.reset_peak()
        with pytest.raises(BudgetExceeded):
            f.mul(2, 3)
        assert tracemalloc.get_traced_memory()[1] < 16 * 2**20
    finally:
        tracemalloc.stop()
    assert "arrays" not in vars(f)
