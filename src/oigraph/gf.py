"""Exact arithmetic in GF(p^e) for odd p.

Elements are plain ints in range(q).  The int a encodes the polynomial
sum(c[i] * t^i) with little-endian base-p digits c, so for prime fields the
encoding is just the residue itself.  All arithmetic is table-backed for
small extension fields and falls back to on-the-fly polynomial reduction
above the table cap.
"""

from __future__ import annotations

import functools
import itertools
from types import SimpleNamespace

import numpy as np

# Mul/inv tables are materialized for extension fields of order q up to this
# (a q*q-cell table: 625 cells for GF(25)).
_TABLE_CAP = 512

_canonical_modulus_cache: dict = {}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# dense little-endian polynomial helpers over Z_p (no classes, just lists)


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a, b, p):
    """Quotient and remainder of a by b (b monic-or-not, nonzero) over Z_p."""
    a = list(a)
    _poly_trim(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        k = len(a) - 1 - db
        c = (a[-1] * inv_lb) % p
        q[k] = c
        for i, bi in enumerate(b):
            a[k + i] = (a[k + i] - c * bi) % p
        _poly_trim(a)
    return q, a


def poly_is_irreducible(coeffs, p) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2.

    Exact and cheap at the sizes we care about (at most ~sqrt(q) divisions).
    """
    c = list(coeffs)
    _poly_trim(c)
    deg = len(c) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            _, r = _poly_divmod(c, div, p)
            if not r:
                return False
    return True


def canonical_modulus(p: int, e: int):
    """First monic irreducible of degree e in ascending coefficient order.

    Ordering is lexicographic on the little-endian coefficient tuple
    (c0, c1, ..., c_{e-1}); the leading coefficient is fixed to 1.
    """
    key = (p, e)
    if key not in _canonical_modulus_cache:
        for tail in itertools.product(range(p), repeat=e):
            cand = list(tail) + [1]
            if poly_is_irreducible(cand, p):
                _canonical_modulus_cache[key] = tuple(cand)
                break
        else:  # pragma: no cover - irreducibles of every degree always exist
            raise ArithmeticError(f"no irreducible of degree {e} over F_{p}")
    return _canonical_modulus_cache[key]


def factor_prime_power(q: int):
    """(p, e) with q = p^e and p prime; ValueError when q is no prime power."""
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    e, m = 0, q
    while p and m % p == 0:
        m //= p
        e += 1
    if p is None or m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


class GF:
    """The field GF(p^e), p odd, with a fixed canonical modulus.

    Elements are ints in range(q); see module docstring for the encoding.
    The scalar lookup tables are built here and the numpy ones (``arrays``)
    on first use; neither changes afterwards.
    """

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if p == 2:
            raise ValueError("even characteristic is not supported")
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        self.p = p
        self.e = e
        self.q = p**e
        if modulus is None:
            modulus = canonical_modulus(p, e) if e > 1 else (0, 1)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {e}")
        if e > 1 and not poly_is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus

        self._mul_table = None
        self._inv_table = None
        if e > 1 and self.q <= _TABLE_CAP:
            self._build_tables()
        # squares of the unit group, cached for O(1) classification queries
        self._squares = frozenset(self.mul(a, a) for a in range(1, self.q))
        self._nonsquare = None
        self._frob_table = None

    # -- representation ----------------------------------------------------

    def coeffs(self, a: int):
        """Little-endian coefficient tuple of length e."""
        out = []
        for _ in range(self.e):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def element(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + c % self.p
        return a

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def _check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of {self!r}")
        return a

    # -- arithmetic --------------------------------------------------------

    def _build_tables(self):
        """Mul/inv tables from discrete logs to the first primitive element,
        whose powers the polynomial path computes."""
        q1 = self.q - 1
        for g in range(2, self.q):
            exp = [1]
            while len(exp) < q1 and (x := self.mul(exp[-1], g)) != 1:
                exp.append(x)
            if len(exp) == q1:
                break
        log = {x: k for k, x in enumerate(exp)}
        self._mul_table = [[0] * self.q] + [
            [0] + [exp[(log[a] + log[b]) % q1] for b in self.units()] for a in self.units()
        ]
        self._inv_table = [0] + [exp[-log[a] % q1] for a in self.units()]

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return self.element(x + y for x, y in zip(self.coeffs(a), self.coeffs(b)))

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self.element((-x) % self.p for x in self.coeffs(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return self._mul_table[a][b]
        prod = _poly_mul(list(self.coeffs(a)), list(self.coeffs(b)), self.p)
        _, r = _poly_divmod(prod, list(self.modulus), self.p)
        return self.element(r + [0] * (self.e - len(r)))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        out, base = 1, a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    # -- square classes and Galois action ----------------------------------

    def is_square(self, a: int) -> bool:
        """Membership of nonzero a in the index-2 subgroup of squares."""
        if self._check(a) == 0:
            raise ValueError("is_square is defined on nonzero elements")
        return a in self._squares

    def canonical_nonsquare(self) -> int:
        """The non-square unit least in little-endian coefficient lex order."""
        if self._nonsquare is None:
            ns = [a for a in self.units() if a not in self._squares]
            self._nonsquare = min(ns, key=self.coeffs)
        return self._nonsquare

    def sqrt_of_square(self, a: int) -> int:
        """The root of a whose coefficient encoding is lex-least (a must be
        a nonzero square; the two roots are b and -b)."""
        if self._check(a) == 0 or a not in self._squares:
            raise ValueError(f"{a} is not a nonzero square")
        for b in self.units():
            if self.mul(b, b) == a:
                return min(b, self.neg(b), key=self.coeffs)
        raise AssertionError("unreachable")  # pragma: no cover

    def frobenius(self, a: int, j: int) -> int:
        """a^(p^j); the maps j = 0..e-1 exhaust the automorphism group."""
        if not 0 <= j < self.e:
            raise ValueError(f"automorphism index {j} out of range [0, {self.e})")
        if self.e == 1 or j == 0:
            return self._check(a)
        if self._frob_table is None:
            self._frob_table = [self.pow(x, self.p) for x in range(self.q)]
        for _ in range(j):
            a = self._frob_table[a]
        return a

    def minus_one_is_square(self) -> bool:
        return self.q % 4 == 1

    # -- vectorised arithmetic ---------------------------------------------

    @functools.cached_property
    def arrays(self) -> SimpleNamespace:
        """numpy lookup tables indexed by element codes, built on first use
        from the scalar operations, in the smallest unsigned dtype for q codes:
        add[a, b], mul[a, b], inv[a] (0 at 0) and frob[j, a] = a^(p^j)."""
        els = range(self.q)
        frob = [list(els)]
        for _ in range(1, self.e):
            frob.append([self.pow(a, self.p) for a in frob[-1]])
        tables = dict(
            add=[[self.add(a, b) for b in els] for a in els],
            mul=[[self.mul(a, b) for b in els] for a in els],
            inv=[0] + [self.inv(a) for a in self.units()],
            frob=frob,
        )
        dtype = np.min_scalar_type(self.q - 1)
        return SimpleNamespace(**{k: np.array(v, dtype=dtype) for k, v in tables.items()})

    def matmul(self, X, M) -> np.ndarray:
        """X @ M over the field for integer arrays of element codes, with
        numpy's broadcasting over leading axes."""
        t = self.arrays
        X, M = np.asarray(X), np.asarray(M)
        out = 0
        for k in range(X.shape[-1]):
            out = t.add[out, t.mul[X[..., k, None], M[..., k, None, :]]]
        return out

    # -- misc --------------------------------------------------------------

    def descriptor(self) -> str:
        return str(self.p) if self.e == 1 else f"{self.p}^{self.e}"

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.q}; modulus={list(self.modulus)})"


def parse_field(text: str, modulus=None) -> GF:
    """Build a field from a descriptor like "3", "9" or "3^2".

    A plain prime power is factored automatically; an explicit modulus
    (little-endian coefficient list, monic) overrides the canonical one.
    """
    text = text.strip()
    if "^" in text:
        ps, es = text.split("^", 1)
        p, e = int(ps), int(es)
    else:
        q = int(text)
        if q < 3:
            raise ValueError(f"field size must be an odd prime power >= 3, got {q}")
        p, e = factor_prime_power(q)
    return GF(p, e, modulus)


def primitive_unit(field: GF) -> int:
    """Least generator (by coefficient lex) of the cyclic unit group."""
    target = field.q - 1
    best = None
    for a in field.units():
        x, order = a, 1
        while x != 1:
            x = field.mul(x, a)
            order += 1
        if order == target and (best is None or field.coeffs(a) < field.coeffs(best)):
            best = a
    if best is None:  # pragma: no cover - unit groups of finite fields are cyclic
        raise AssertionError("no primitive unit found")
    return best
