"""Orthogonal geometry over GF(q), odd q.

The ambient space carries the symmetric bilinear form x S yt where

    S = [ 0    I_nu  .     ]
        [ I_nu 0     .     ]          Delta absent        (delta = 0)
        [ .    .     Delta ]          Delta = (1) or (z)  (delta = 1)
                                      Delta = diag(1, -z) (delta = 2)

for z the canonical non-square.  Basis vectors are indexed e_1..e_nu,
f_1..f_nu (= e_{nu+i}), then eps and kappa for the definite tail.

Subspaces are canonical: the reduced-row-echelon basis identifies them
uniquely.  A subspace is classified by (m, r, s, tag): dimension, Gram rank,
Witt index of the restricted form, and the square class of the 1-dimensional
anisotropic residual when r - 2s = 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import total_ordering

from .gf import GF
from .linalg import Mat, dot_form


class OSpace:
    """Ambient orthogonal space: field, (nu, delta, disc), and the form S."""

    def __init__(self, nu: int, delta: int, field: GF, disc: str = "one"):
        if delta not in (0, 1, 2):
            raise ValueError(f"delta must be 0, 1 or 2, got {delta}")
        if nu < 0 or 2 * nu + delta < 2:
            raise ValueError(f"need 2*nu + delta >= 2, got nu={nu}, delta={delta}")
        if disc not in ("one", "z"):
            raise ValueError(f"disc must be 'one' or 'z', got {disc!r}")
        if disc == "z" and delta != 1:
            raise ValueError("disc='z' only applies to delta=1 spaces")
        self.nu = nu
        self.delta = delta
        self.field = field
        self.disc = disc if delta == 1 else None
        self.n = 2 * nu + delta
        self.z = field.canonical_nonsquare()
        n = self.n
        rows = [[0] * n for _ in range(n)]
        for i in range(nu):
            rows[i][nu + i] = 1
            rows[nu + i][i] = 1
        if delta == 1:
            rows[2 * nu][2 * nu] = 1 if disc == "one" else self.z
        elif delta == 2:
            rows[2 * nu][2 * nu] = 1
            rows[2 * nu + 1][2 * nu + 1] = field.neg(self.z)
        self.form = Mat(field, rows)

    # named basis rows (unit vectors, as tuples)

    def e(self, i: int):
        return tuple(1 if j == i - 1 else 0 for j in range(self.n))

    def f(self, i: int):
        return tuple(1 if j == self.nu + i - 1 else 0 for j in range(self.n))

    def eps(self):
        if self.delta < 1:
            raise ValueError("no eps vector when delta = 0")
        return tuple(1 if j == 2 * self.nu else 0 for j in range(self.n))

    def kappa(self):
        if self.delta < 2:
            raise ValueError("no kappa vector when delta < 2")
        return tuple(1 if j == 2 * self.nu + 1 else 0 for j in range(self.n))

    def pair(self, u, v) -> int:
        return dot_form(self.field, u, self.form, v)

    def label(self) -> str:
        base = f"Oi({self.n}, {self.field.q})"
        if self.delta == 1:
            return f"{base}[{self.disc}]"
        return base

    def __eq__(self, other):
        return (
            isinstance(other, OSpace)
            and (self.nu, self.delta, self.disc, self.field)
            == (other.nu, other.delta, other.disc, other.field)
        )

    def __hash__(self):
        return hash((self.nu, self.delta, self.disc, self.field))

    def __repr__(self):
        return f"OSpace({self.label()})"


def space_make(nu: int, delta: int, field: GF, disc: str = "one") -> OSpace:
    return OSpace(nu, delta, field, disc)


class Subspace:
    """A subspace in canonical rref-basis form.

    Vertices of the graph are the proper nonzero subspaces (1 <= m <= n-1);
    the full space can still be represented (sums of vertices may fill the
    space) and is flagged by is_vertex = False.
    """

    __slots__ = ("space", "rows", "m")

    def __init__(self, space: OSpace, rref_rows):
        self.space = space
        self.rows = tuple(tuple(r) for r in rref_rows)
        self.m = len(self.rows)

    @property
    def is_vertex(self) -> bool:
        return 1 <= self.m <= self.space.n - 1

    def basis_matrix(self) -> Mat:
        return Mat(self.space.field, self.rows)

    def contains(self, other: "Subspace") -> bool:
        stacked = Mat(self.space.field, self.rows + other.rows)
        return stacked.rank() == self.m

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.space == other.space and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Subspace({self.space.label()}, {[list(r) for r in self.rows]})"


def subspace_make(space: OSpace, rows) -> Subspace:
    """Canonicalize spanning rows into a vertex; rejects 0 and full dimension."""
    R, rank, _ = Mat(space.field, rows).rref()
    if rank == 0:
        raise ValueError("zero row space is not a vertex")
    if rank == space.n:
        raise ValueError("the full space is not a vertex")
    return Subspace(space, R.rows)


def subspace_span(space: OSpace, rows) -> Subspace:
    """Like subspace_make but allows the full space (flagged non-vertex)."""
    R, rank, _ = Mat(space.field, rows).rref()
    if rank == 0:
        raise ValueError("zero row space")
    return Subspace(space, R.rows)


def dual(P: Subspace) -> Subspace:
    """P-perp = {x : x S bt = 0 for every basis row b}; dim = n - m."""
    space = P.space
    M = space.form.mul(P.basis_matrix().transpose())  # n x m
    K = M.left_kernel()
    return Subspace(space, K.rows)


def gram(P: Subspace) -> Mat:
    B = P.basis_matrix()
    return B.mul(P.space.form).mul(B.transpose())


def subspace_sum(X1: Subspace, X2: Subspace) -> Subspace:
    if X1.space != X2.space:
        raise ValueError("subspaces live in different ambient spaces")
    return subspace_span(X1.space, X1.rows + X2.rows)


# ---------------------------------------------------------------------------
# Witt classification


@total_ordering
@dataclass(frozen=True)
class SubspaceType:
    """(m, r, s, tag): dimension, Gram rank, Witt index, residual class.

    r = 2s + gamma with gamma in {0, 1, 2}; tag is "one" or "z" exactly when
    gamma = 1 (the anisotropic plane at gamma = 2 is unique up to congruence,
    so it carries no tag).
    """

    m: int
    r: int
    s: int
    tag: str | None = None

    @property
    def gamma(self) -> int:
        return self.r - 2 * self.s

    def as_tuple(self):
        return (self.m, self.r, self.s, self.tag or "")

    def __lt__(self, other):
        return self.as_tuple() < other.as_tuple()

    def __str__(self):
        if self.tag:
            return f"({self.m},{self.r},{self.s},{self.tag})"
        return f"({self.m},{self.r},{self.s})"


def _diag_entries(G: Mat):
    """Nonzero diagonal after congruence diagonalization (the rank part)."""
    D, _ = G.congruence_diagonalize()
    return [D[i, i] for i in range(D.nrows) if D[i, i] != 0]


def _find_isotropic(field: GF, d):
    """A nonzero vector x (len(d) entries) with sum d_i x_i^2 = 0, or None.

    Supported on the first three coordinates: any diagonal form of rank >= 3
    over a finite field is isotropic, and rank-2 forms are isotropic iff
    -d1/d2 is a square.
    """
    k = len(d)
    if k < 2:
        return None
    neg = field.neg
    if k == 2:
        w = field.div(neg(d[1]), d[0])
        if field.is_square(w):
            return (field.sqrt_of_square(w), 1)
        return None
    # k >= 3: scan x3 = 1, x2 ranging over the field
    for x2 in field.elements():
        rhs = field.div(neg(field.add(d[2], field.mul(d[1], field.mul(x2, x2)))), d[0])
        if rhs == 0:
            if x2 == 0:
                continue  # would give the zero vector on this support
            return (0, x2, 1) + (0,) * (k - 3)
        if field.is_square(rhs):
            return (field.sqrt_of_square(rhs), x2, 1) + (0,) * (k - 3)
    raise AssertionError("rank >= 3 diagonal forms are always isotropic")


def _split_hyperbolic(field: GF, d, v):
    """Split the hyperbolic plane spanned by isotropic v out of diag(d).

    Returns the diagonal entries of the orthogonal complement (length-2
    shorter).  Standard construction: pick u with B(v,u) = 1, replace it by
    w = u - (B(u,u)/2) v so that (v, w) is a hyperbolic pair, then restrict
    the form to the complement of span(v, w).
    """
    k = len(d)
    G = Mat.diagonal(field, d)
    i0 = next(i for i in range(k) if v[i] != 0)
    # B(v, e_i0) = d_i0 * v_i0 != 0
    b = field.mul(d[i0], v[i0])
    u = tuple(field.inv(b) if i == i0 else 0 for i in range(k))
    uu = dot_form(field, u, G, u)
    half = field.inv(field.add(1, 1))  # 1/2 exists: characteristic is odd
    corr = field.mul(uu, half)
    w = tuple(field.sub(ui, field.mul(corr, vi)) for ui, vi in zip(u, v))
    # complement = kernel of the k x 2 matrix [G vt, G wt]
    cols = G.mul(Mat(field, [v, w]).transpose())
    C = cols.left_kernel()
    assert C.nrows == k - 2
    sub = C.mul(G).mul(C.transpose())
    out = _diag_entries(sub)
    assert len(out) == k - 2, "complement of a hyperbolic plane stays nondegenerate"
    return out


def witt_decompose(G: Mat):
    """(s, gamma, tag) for a symmetric matrix: Witt index of the rank part,
    anisotropic residual dimension, and the residual square class at gamma=1.

    Constructive: diagonalize, then split hyperbolic planes until the
    residual is anisotropic (dimension <= 2).
    """
    if not G.is_symmetric():
        raise ValueError("witt decomposition needs a symmetric matrix")
    field = G.field
    d = _diag_entries(G)
    s = 0
    while len(d) >= 2:
        v = _find_isotropic(field, d)
        if v is None:
            break
        d = _split_hyperbolic(field, d, v)
        s += 1
    gamma = len(d)
    tag = None
    if gamma == 1:
        tag = "one" if field.is_square(d[0]) else "z"
    return s, gamma, tag


def witt_bruteforce_oracle(G: Mat) -> int:
    """Witt index by exhaustive search, for cross-checking witt_decompose.

    Finds the largest totally isotropic subspace of the (possibly degenerate)
    form and subtracts the radical dimension.  Scans dimensions upward with
    early exit: if no d-dimensional totally isotropic subspace exists, none
    larger can.
    """
    m = G.nrows
    field = G.field
    if field.q**m > 10**6:
        raise ValueError(f"oracle instance too large: q^m = {field.q**m}")
    if m == 0:
        return 0
    radical = m - G.rank()
    max_ti = 0
    for dim in range(1, m + 1):
        found = False
        for rows in enumerate_rref(field, m, dim):
            B = Mat(field, rows)
            if B.mul(G).mul(B.transpose()).is_zero():
                found = True
                break
        if not found:
            break
        max_ti = dim
    return max_ti - radical


def classify_type(P: Subspace) -> SubspaceType:
    s, gamma, tag = witt_decompose(gram(P))
    return SubspaceType(m=P.m, r=2 * s + gamma, s=s, tag=tag)


def disc_square_class(P: Subspace) -> int:
    """1 if det of the Gram matrix is a square, 0 if not (Gram nonsingular)."""
    d = gram(P).det()
    if d == 0:
        raise ValueError("discriminant class needs a nonsingular Gram matrix")
    return 1 if P.space.field.is_square(d) else 0


# ---------------------------------------------------------------------------
# enumeration


def gauss_binomial(n: int, m: int, q: int) -> int:
    if not 0 <= m <= n:
        return 0
    num = den = 1
    for i in range(m):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def enumerate_rref(field: GF, n: int, m: int):
    """All m-dimensional subspaces of F_q^n as rref row-tuples.

    Deterministic order: pivot-column sets lexicographically, then the free
    entries counted in base q with the first free position (row-major scan)
    as the least significant digit.
    """
    if not 1 <= m <= n:
        raise ValueError(f"dimension {m} out of range 1..{n}")
    q = field.q
    for pivots in itertools.combinations(range(n), m):
        free = []
        for i in range(m):
            for j in range(pivots[i] + 1, n):
                if j not in pivots:
                    free.append((i, j))
        total = q ** len(free)
        for counter in range(total):
            rows = [[0] * n for _ in range(m)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            c = counter
            for i, j in free:
                c, digit = divmod(c, q)
                rows[i][j] = digit
            yield tuple(tuple(r) for r in rows)


def enumerate_subspaces(space: OSpace, m: int):
    """Every m-dimensional vertex of the ambient space, exactly once."""
    if not 1 <= m <= space.n - 1:
        raise ValueError(f"vertex dimension {m} out of range 1..{space.n - 1}")
    for rows in enumerate_rref(space.field, space.n, m):
        yield Subspace(space, rows)


def count_by_type(space: OSpace, m: int) -> dict:
    out: dict = {}
    for P in enumerate_subspaces(space, m):
        t = classify_type(P)
        out[t] = out.get(t, 0) + 1
    return out


# ---------------------------------------------------------------------------
# edge invariants


@dataclass(frozen=True)
class EdgeTypeTriple:
    """Unordered endpoint types plus the type of the subspace sum."""

    ends: tuple  # sorted pair of SubspaceType
    total: "SubspaceType"

    @staticmethod
    def of(X1: Subspace, X2: Subspace) -> "EdgeTypeTriple":
        t1, t2 = classify_type(X1), classify_type(X2)
        pair = tuple(sorted((t1, t2)))
        return EdgeTypeTriple(ends=pair, total=classify_type(subspace_sum(X1, X2)))

    def as_tuple(self):
        return (self.ends[0].as_tuple(), self.ends[1].as_tuple(), self.total.as_tuple())

    def __str__(self):
        return f"{{{self.ends[0]},{self.ends[1]}}}+{self.total}"
