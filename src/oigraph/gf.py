"""Exact arithmetic in GF(p^e) for odd p.

Elements are plain ints in range(q).  The int a encodes the polynomial
sum(c[i] * t^i) with little-endian base-p digits c, so for prime fields the
encoding is just the residue itself.

The module has one model of F_p[t]/(f): T, the matrix of multiplication
by t on digit row vectors (``_times_t``).  Powers of T decide whether f is
irreducible (Rabin's test, ``poly_is_irreducible``), and at construction a
field walks, through T, the powers of one primitive element g once:
exp[k] = g^k, with log[g^k] = k beside it.  Everything else is index
arithmetic on those two: a * b = g^(log a + log b), 1/a = g^(-log a), a is
a square iff log a is even, and its root is g^(log a / 2).  Rabin's test
rests on one lemma: in a product of fields of orders p^d with every d | e,
a is a unit iff a^(p^e - 1) = 1.

The one table set, ``arrays``, is built on first use.  Extension fields
read it for every operation; prime fields compute with % p.  Its q x q add
and mul tables must fit MAX_ADJACENCY_BYTES (q up to about 16k), else
BudgetExceeded.
"""

from __future__ import annotations

import functools
import itertools
from types import SimpleNamespace

import numpy as np

# Largest allocation admitted: a build's packed adjacency rows (nv *
# ceil(nv / 8) bytes), the points' vector-code table (4 q^n bytes) and the
# field's tables (_table_bytes) as one sum; the boolean matrix of
# adjacency_matrix() (nv * nv bytes); and a field's tables alone.  Admits
# the packed rows of Oi(6,3) (382 MiB) but not those of Oi(5,7) (9.5 GiB),
# and the tables of GF(3^8) but not GF(3^9)'s.
MAX_ADJACENCY_BYTES = 2**30


def _table_bytes(q: int, e: int) -> int:
    """The bytes of the tables (GF.arrays) of GF(q), q = p^e: add and mul,
    q x q each, and neg, inv and the e Frobenius rows of q entries, in the
    least unsigned dtype for q codes."""
    return np.min_scalar_type(q - 1).itemsize * (2 * q * q + (e + 2) * q)


class BudgetExceeded(RuntimeError):
    def __init__(self, needed: int, budget: int, what: str = "vertices"):
        super().__init__(f"instance needs {needed} {what}, budget is {budget}")
        self.needed = needed
        self.budget = budget
        self.what = what


def _is_prime(n: int) -> bool:
    return _prime_divisors(n) == [n]


def _times_t(modulus, p: int, dtype=np.int64) -> np.ndarray:
    """T, the matrix of multiplication by t on digit row vectors modulo the
    monic modulus: row i holds the digits of t^(i+1), the last reduced."""
    T = np.eye(len(modulus) - 1, len(modulus) - 1, 1, dtype=dtype)
    T[-1] = [-c % p for c in modulus[:-1]]
    return T


def poly_is_irreducible(coeffs, p) -> bool:
    """Rabin's test: f of degree e >= 1 over Z_p is irreducible iff
    x^(p^e) = x mod f and gcd(x^(p^(e/r)) - x, f) = 1 for each prime r | e.

    Both run on powers of T (``_times_t``) for f made monic: T^k is the
    matrix of multiplication by t^k in F_p[t]/(f), so the first condition
    is T^(p^e) = T, and the gcd is 1 iff h = t^(p^(e/r)) - t is a unit.
    Once the first holds, f divides t^(p^e) - t, so f is squarefree and each
    irreducible factor has a degree d dividing e: F_p[t]/(f) is a product
    of fields of order p^d, d | e.  In such a ring a is a unit iff
    a^(p^e - 1) = 1, as p^d - 1 divides p^e - 1 and a non-unit is 0 in one
    factor.  So the second condition is (T^(p^(e/r)) - T)^(p^e - 1) = I.
    The entries are Python ints, exact for every p.
    """
    f = [int(c) % p for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    e = len(f) - 1
    if e < 1:
        return False
    T = _times_t([c * pow(f[-1], -1, p) for c in f], p, object)
    one, q = np.eye(e, dtype=object), p**e
    if not np.array_equal(_mat_pow(T, q, p), T):
        return False
    return all(
        np.array_equal(_mat_pow((_mat_pow(T, p ** (e // r), p) - T) % p, q - 1, p), one)
        for r in _prime_divisors(e)
    )


@functools.cache
def canonical_modulus(p: int, e: int):
    """First monic irreducible of degree e in ascending coefficient order.

    Ordering is lexicographic on the little-endian coefficient tuple
    (c0, c1, ..., c_{e-1}); the leading coefficient is fixed to 1.  For
    e >= 2 a zero c0 makes x a factor, so those candidates, the first
    p^(e-1) in this order, are skipped untested.
    """
    heads = range(1 if e > 1 else 0, p)
    for tail in itertools.product(heads, *[range(p)] * (e - 1)):
        if poly_is_irreducible(tail + (1,), p):
            return tail + (1,)
    raise ArithmeticError(f"no irreducible of degree {e} over F_{p}")  # pragma: no cover


def _prime_divisors(n: int):
    """The distinct primes dividing n, ascending (none for n < 2)."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] * (n > 1)


def _mat_pow(m: np.ndarray, k: int, p: int) -> np.ndarray:
    """m^k mod p by repeated squaring, in m's dtype."""
    out = np.eye(len(m), dtype=m.dtype)
    while k:
        if k & 1:
            out = out @ m % p
        m = m @ m % p
        k >>= 1
    return out


def factor_prime_power(q: int):
    """(p, e) with q = p^e and p prime; ValueError when q is no prime power."""
    primes = _prime_divisors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, e = primes[0], 0
    while q > 1:
        q //= p
        e += 1
    return p, e


class GF:
    """The field GF(p^e), p odd, with a fixed canonical modulus.

    Elements are ints in range(q); see module docstring for the encoding.
    The walk is made here and the tables (``arrays``) on first use; neither
    changes afterwards.
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
        if modulus is None:  # canonical_modulus picks an irreducible one
            modulus = canonical_modulus(p, e) if e > 1 else (0, 1)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {e}")
            if e > 1 and not poly_is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus

        self._exp = self._walk()
        self._log = np.zeros(self.q, np.int64)  # log[g^k] = k, and 0 at 0
        self._log[self._exp] = np.arange(self.q - 1)
        self._nonsquare = None

    def _walk(self) -> np.ndarray:
        """exp[k] = g^k (k < q - 1) for g the least primitive unit in
        coefficient order.  Multiplying by g is the linear map g(T) on digit
        vectors, T from ``_times_t``.  A candidate is rejected unless
        g^((q - 1) / r) != 1 for every prime r | q - 1, each power found by
        squaring that map, so only the winner is walked; the walk doubles too:
        g^n..g^(2n-1) are g^0..g^(n-1) times g^n."""
        p, e, q = self.p, self.e, self.q
        times_t = _times_t(self.modulus, p)
        one = np.eye(e, dtype=np.int64)
        cofactors = [(q - 1) // r for r in _prime_divisors(q - 1)]
        for g in itertools.islice(itertools.product(range(p), repeat=e), 1, None):
            times_g, t_power = np.zeros((e, e), np.int64), one
            for c in g:
                times_g += c * t_power
                t_power = t_power @ times_t % p
            times_g %= p
            if any(np.array_equal(_mat_pow(times_g, k, p), one) for k in cofactors):
                continue
            powers, step = one[:1], times_g
            while len(powers) < q - 1:
                powers = np.vstack([powers, powers @ step % p])
                step = step @ step % p
            return powers[: q - 1] @ p ** np.arange(e)
        raise AssertionError("unit groups of finite fields are cyclic")  # pragma: no cover

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
    # The scalar operations take Python ints.  Prime fields compute with
    # % p, so numpy codes would wrap at their width (uint8: 16 * 16 = 0);
    # callers that read arrays convert first, as eliminate does.

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return self.arrays.add.item(a, b)

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self.arrays.neg.item(a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        return self.arrays.mul.item(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self.arrays.inv.item(a)

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
        return self._log.item(a) % 2 == 0  # the squares are the even powers of g

    def canonical_nonsquare(self) -> int:
        """The non-square unit least in little-endian coefficient lex order."""
        if self._nonsquare is None:  # the non-squares are the odd powers of g
            self._nonsquare = min(self._exp[1::2].tolist(), key=self.coeffs)
        return self._nonsquare

    def sqrt_of_square(self, a: int) -> int:
        """The root of a whose coefficient encoding is lex-least (a must be
        a nonzero square; the two roots are b and -b)."""
        if self._check(a) == 0 or self._log.item(a) % 2:
            raise ValueError(f"{a} is not a nonzero square")
        b = self._exp.item(self._log.item(a) // 2)  # a = g^2k, b = g^k
        return min(b, self.neg(b), key=self.coeffs)

    def frobenius(self, a: int, j: int) -> int:
        """a^(p^j); the maps j = 0..e-1 exhaust the automorphism group."""
        if not 0 <= j < self.e:
            raise ValueError(f"automorphism index {j} out of range [0, {self.e})")
        if self.e == 1:
            return self._check(a)
        return self.arrays.frob.item(j, self._check(a))

    def minus_one_is_square(self) -> bool:
        return self.q % 4 == 1

    # -- vectorised arithmetic ---------------------------------------------

    @functools.cached_property
    def arrays(self) -> SimpleNamespace:
        """numpy lookup tables indexed by element codes, built on first use
        from the walk, in the smallest unsigned dtype for q codes: add[a, b],
        mul[a, b], neg[a], inv[a] (0 at 0) and frob[j, a] = a^(p^j)."""
        p, e, q = self.p, self.e, self.q
        dtype = np.min_scalar_type(q - 1)
        needed = _table_bytes(q, e)
        if needed > MAX_ADJACENCY_BYTES:
            raise BudgetExceeded(needed, MAX_ADJACENCY_BYTES, f"bytes of GF({q}) tables")
        exp, log = self._exp.astype(dtype), self._log

        def g_to(k):  # g^k at each unit's slot, 0 at the slot of 0
            out = np.zeros(np.shape(k)[:-1] + (q,), dtype)
            out[..., 1:] = exp[k % (q - 1)]
            return out

        units = log[1:]
        mul = np.zeros((q, q), dtype)
        for a in range(1, q):
            mul[a] = g_to(log[a] + units)
        # add acts digit by digit: view the table with one axis per digit
        # of a (most significant first), then one per digit of b.  Row a of
        # digit i's sums, ((a + b) % p) p^i, is a window of the p multiples
        # of p^i repeated twice, so the sums are a view and the only q x q
        # arrays made are the tables themselves.
        add = np.zeros((p,) * 2 * e, dtype)
        for i in range(e):
            shape = [1] * 2 * e
            shape[e - 1 - i] = shape[2 * e - 1 - i] = p
            multiples = np.tile(np.arange(p, dtype=dtype) * dtype.type(p**i), 2)
            add += np.lib.stride_tricks.sliding_window_view(multiples, p)[:p].reshape(shape)
        return SimpleNamespace(
            add=add.reshape(q, q),
            mul=mul,
            neg=g_to(units + (q - 1) // 2),
            inv=g_to(-units),
            frob=g_to(p ** np.arange(e)[:, None] * units),
        )

    def matmul(self, X, M) -> np.ndarray:
        """X @ M over the field for integer arrays of element codes, with
        numpy's broadcasting over leading axes.

        Each step reads the flat tables: a b = mul.ravel()[a q + b] and
        a + b = add.ravel()[a q + b], the indices computed in the least
        unsigned dtype that holds q^2 - 1 (uint8 up to q = 16)."""
        t, q = self.arrays, self.q
        mul, add = t.mul.ravel(), t.add.ravel()
        dtype = np.min_scalar_type(q * q - 1)
        scale = dtype.type(q)
        X = np.asarray(X).astype(dtype) * scale  # rows pre-scaled: a q
        M = np.asarray(M).astype(dtype, copy=False)
        out = 0
        for k in range(X.shape[-1]):
            # index, not take: take would copy idx to intp first
            idx = X[..., k, None] + M[..., k, None, :]
            prod = mul[idx]
            if k == 0:
                out = prod
            else:  # reuse idx for out q + prod
                np.multiply(out, scale, out=idx)
                idx += prod
                out = add[idx]
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
    """Least generator (by coefficient lex) of the cyclic unit group: the
    generator of the field's walk."""
    return int(field._exp[1])
