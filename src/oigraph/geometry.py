"""Orthogonal geometry over GF(q), odd q.

The ambient space carries the symmetric bilinear form x S yt where

    S = [ 0    I_nu  .     ]
        [ I_nu 0     .     ]          Delta absent        (delta = 0)
        [ .    .     Delta ]          Delta = (1) or (z)  (delta = 1)
                                      Delta = diag(1, -z) (delta = 2)

for z the canonical non-square.  Basis vectors are indexed e_1..e_nu,
f_1..f_nu (= e_{nu+i}), then eps and kappa for the definite tail.

Forms and Gram matrices are GF code data: OSpace.form is a read-only
(n, n) array, gram gives row tuples.  Gauss-Jordan elimination comes in
two forms with the same steps, each giving the reduced rows, pivots and
signed pivot product.  The scalar one (eliminate, pure Python) serves one
matrix at a time: subspace_make and subspace_span, dual, witt_decompose
and so classify_type, which the pipelines call once per vertex: one 4 x 4
Gram matrix takes about 22 us in witt_decompose and about 230 us of numpy
dispatch in witt_stack (2-core x86-64 Xeon, CPython 3.11, numpy 2.4).
dual and adjacent stay on it, and off GF.matmul, as the references the
packed adjacency is tested against.  The stacked one
(eliminate_stack) reduces a (k, r, c) stack of code matrices at once
through the GF.arrays tables: witt_stack types a stack of forms with it,
graph.classify_types every vertex of a graph, and graph.sum_ids finds the
vertex that each pair of vertices spans.

Subspaces are canonical: the reduced-row-echelon basis identifies them
uniquely.  rref_bases is the one enumeration of them, an array per
dimension sorted by basis: the graph's vertex order, its points and the
oracle's candidates all come from it.  Point ids are owned here: the
points are rref_bases(field, n, 1)[:, 0], and point_ids is the one map
from vectors to point ids, for the graph as for the oracle.  A subspace
is classified by (m, r, s, tag): dimension, Gram rank, Witt index of the
restricted form, and the square class of the 1-dimensional anisotropic
residual when r - 2s = 1.  The type is read off one RREF of the Gram matrix
(witt_decompose, or witt_stack for a stack): the rank and pivots from the
RREF, the discriminant from the principal minor on the pivots, and
witt_type maps the two to the type.
witt_bruteforce_oracle finds the Witt index by exhaustive search as an
independent check that runs neither elimination, batched over a (k, m, m)
stack of forms as well as candidates.  Each row of an rref basis is a
projective point (rref_point_ids), so every Gram block is read from one
table of the points under each form: a candidate is tested only if its
basis points are isotropic, and then only on the entries above the
diagonal, so the oracle takes symmetric forms only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, total_ordering

import numpy as np

from .gf import GF


def check_space_params(nu: int, delta: int, disc: str) -> None:
    """ValueError unless (nu, delta, disc) names an ambient space."""
    if delta not in (0, 1, 2):
        raise ValueError(f"delta must be 0, 1 or 2, got {delta}")
    if nu < 0 or 2 * nu + delta < 2:
        raise ValueError(f"need 2*nu + delta >= 2, got nu={nu}, delta={delta}")
    if disc not in ("one", "z"):
        raise ValueError(f"disc must be 'one' or 'z', got {disc!r}")
    if disc == "z" and delta != 1:
        raise ValueError("disc='z' only applies to delta=1 spaces")


class OSpace:
    """Ambient orthogonal space: field, (nu, delta, disc), and the form S."""

    def __init__(self, nu: int, delta: int, field: GF, disc: str = "one"):
        check_space_params(nu, delta, disc)
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
        self.form = np.array(rows, dtype=np.min_scalar_type(field.q - 1))
        self.form.setflags(write=False)
        # S is monomial: row i holds its one nonzero entry, scale[i], in
        # column col[i], so (x S)[col[i]] = x[i] scale[i]
        self._col = tuple(next(j for j, a in enumerate(r) if a) for r in rows)
        self._scale = tuple(r[j] for r, j in zip(rows, self._col))

    def pair(self, u, v) -> int:
        """u S vt, the sum of u[i] scale[i] v[col[i]].  The entries are read
        as Python ints: numpy codes would wrap in the field's scalar ops."""
        f = self.field
        v = [int(b) for b in v]
        acc = 0
        for a, c, j in zip(map(int, u), self._scale, self._col):
            if a and v[j]:
                acc = f.add(acc, f.mul(f.mul(a, c), v[j]))
        return acc

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
    space) and is flagged by is_vertex = False.  The rows are tuples of
    Python ints, whatever rref_rows holds: numpy codes would wrap in the
    field's scalar ops.
    """

    __slots__ = ("space", "rows", "m")

    def __init__(self, space: OSpace, rref_rows):
        self.space = space
        self.rows = tuple(map(tuple, np.asarray(rref_rows).tolist()))
        self.m = len(self.rows)

    @property
    def is_vertex(self) -> bool:
        return 1 <= self.m <= self.space.n - 1

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.space == other.space and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Subspace({self.space.label()}, {[list(r) for r in self.rows]})"


def eliminate(field: GF, rows):
    """Gauss-Jordan elimination of rows of codes, one matrix in pure
    Python: (the nonzero reduced rows as tuples, the pivot columns, the
    signed product of the pivots).

    The reduced rows are the unique reduced row echelon form, so two row
    lists span the same space iff they reduce to the same rows.  Each pivot
    row is scaled by the inverse of its pivot and each row swap flips the
    sign, so for a square matrix of full rank the signed product is the
    determinant.
    """
    f = field
    work = [list(map(int, r)) for r in rows]  # numpy codes would wrap in f.mul and f.add
    nr = len(work)
    nc = len(work[0]) if work else 0
    pivots = []
    r = 0
    d = 1
    for c in range(nc):
        if r == nr:
            break
        for pr in range(r, nr):
            if work[pr][c] != 0:
                break
        else:
            continue
        if pr != r:
            work[r], work[pr] = work[pr], work[r]
            d = f.neg(d)
        d = f.mul(d, work[r][c])
        inv = f.inv(work[r][c])
        work[r] = [f.mul(inv, a) for a in work[r]]
        for i in range(nr):
            if i != r and work[i][c] != 0:
                m = work[i][c]
                work[i] = [f.sub(a, f.mul(m, b)) for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return tuple(map(tuple, work[:r])), tuple(pivots), d


def subspace_make(space: OSpace, rows) -> Subspace:
    """Canonicalize spanning rows into a vertex; rejects 0 and full dimension."""
    R, pivots, _ = eliminate(space.field, rows)
    if not pivots:
        raise ValueError("zero row space is not a vertex")
    if len(pivots) == space.n:
        raise ValueError("the full space is not a vertex")
    return Subspace(space, R)


def subspace_span(space: OSpace, rows) -> Subspace:
    """Like subspace_make but allows the full space (flagged non-vertex)."""
    R, pivots, _ = eliminate(space.field, rows)
    if not pivots:
        raise ValueError("zero row space")
    return Subspace(space, R)


def dual(P: Subspace) -> Subspace:
    """P-perp = {x : x S bt = 0 for every basis row b}; dim = n - m.

    x S bt is the sum of x[i] scale[i] b[col[i]] (S is monomial, see
    OSpace), so P-perp is the kernel of the m x n matrix A with rows
    (scale[i] b[col[i]])_i: one free column j of A's rref gives the kernel
    vector with 1 at j and -R[k][j] at the k-th pivot, and one more
    elimination makes those vectors the canonical basis."""
    space = P.space
    f, n = space.field, space.n
    A = [[f.mul(c, b[j]) for c, j in zip(space._scale, space._col)] for b in P.rows]
    R, pivots, _ = eliminate(f, A)
    kernel = []
    for j in range(n):
        if j not in pivots:
            v = [0] * n
            v[j] = 1
            for row, pc in zip(R, pivots):
                v[pc] = f.neg(row[j])
            kernel.append(v)
    return Subspace(space, eliminate(f, kernel)[0])


def gram(P: Subspace):
    """B S Bt, as row tuples, for the basis rows B of P, each entry x S yt
    one dot product of the rows x[i] scale[i] and y[col[i]] (S is
    monomial, see OSpace)."""
    space = P.space
    f = space.field
    scaled = [[f.mul(a, c) for a, c in zip(x, space._scale)] for x in P.rows]
    moved = [[y[j] for j in space._col] for y in P.rows]
    out = [[0] * P.m for _ in range(P.m)]
    for i, u in enumerate(scaled):
        for j in range(i, P.m):
            acc = 0
            for a, b in zip(u, moved[j]):
                if a and b:
                    acc = f.add(acc, f.mul(a, b))
            out[i][j] = out[j][i] = acc
    return tuple(map(tuple, out))


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


def witt_decompose(field: GF, G):
    """(s, gamma, tag) for a symmetric matrix G of codes (rows of ints or a
    2-d array): Witt index of the rank part, anisotropic residual
    dimension, and the residual square class at gamma=1.

    Closed form: over GF(q), q odd, the rank r and the discriminant D of a
    nondegenerate part fix the rank part up to isometry (Serre, A Course in
    Arithmetic, Ch. IV).  Both come from one rref of G.  Its pivot columns
    piv index r independent columns, and so, G being symmetric, r
    independent rows.  No nonzero x in span(e_piv) has x G = 0, so
    F^m = span(e_piv) + rad G is a direct sum, orthogonal because rad G
    pairs to zero with everything.  Hence the principal minor G[piv, piv]
    is nondegenerate and is the rank part up to isometry, and D = its det
    (witt_type reads (r, D)).  witt_bruteforce_oracle is the independent
    check.
    """
    G = [tuple(row) for row in (G.tolist() if isinstance(G, np.ndarray) else G)]
    m = len(G)
    if any(len(row) != m for row in G) or list(zip(*G)) != G:
        raise ValueError("witt decomposition needs a symmetric matrix")
    _, piv, c = eliminate(field, G)
    if len(piv) < m:  # the minor is nondegenerate, so its signed pivot product is its det
        c = eliminate(field, [[G[i][j] for j in piv] for i in piv])[2]
    return witt_type(field, len(piv), c)


def witt_type(field: GF, r: int, D: int):
    """(s, gamma, tag) of a nondegenerate symmetric form of rank r and
    discriminant D, the closed form witt_decompose and witt_stack share.
    A hyperbolic plane has discriminant -1, so with s = r // 2 and
    c = (-1)^s D: r odd gives s planes plus <c>, tagged by the square class
    of c; r even gives s planes when c is a square and otherwise s - 1
    planes plus the anisotropic plane."""
    s, odd = divmod(r, 2)
    c = field.neg(D) if s % 2 else D
    if odd:
        return s, 1, "one" if field.is_square(c) else "z"
    if r and not field.is_square(c):
        return s - 1, 2, None
    return s, 0, None


def eliminate_stack(field: GF, A):
    """Gauss-Jordan elimination of every matrix of a (k, r, c) stack of
    codes at once, eliminate's steps column by column through the
    field.arrays tables.  Returns (R, rank, pivots, det): the reduced
    stack R, whose matrix i holds its nonzero reduced rows in its first
    rank[i] rows and zeros below; the pivot columns as a (k, c) mask; and
    the signed pivot product of each matrix.  Per column, the matrices
    that find a pivot at or below their next pivot row swap it up, scale
    it by its inverse and clear the column in every other row, each step
    one table gather over those matrices.  Each column costs a fixed few
    dozen microseconds of numpy dispatch, so a single matrix is faster on
    eliminate.
    """
    t = field.arrays
    A = np.array(A, dtype=t.mul.dtype)
    k, nr, nc = A.shape
    rank = np.zeros(k, dtype=np.intp)
    pivots = np.zeros((k, nc), dtype=bool)
    det = np.ones(k, dtype=A.dtype)
    below = np.arange(nr)
    for c in range(nc):
        found = (A[:, :, c] != 0) & (below >= rank[:, None])
        at = np.flatnonzero(found.any(axis=1))
        if not len(at):
            continue
        pr, r = found[at].argmax(axis=1), rank[at]
        det[at] = t.mul[np.where(pr != r, t.neg[det[at]], det[at]), A[at, pr, c]]
        top = t.mul[t.inv[A[at, pr, c]][:, None], A[at, pr]]
        A[at, pr] = A[at, r]
        A[at, r] = top
        M = A[at]
        factor = t.neg[M[:, :, c]]
        factor[np.arange(len(at)), r] = 0
        A[at] = t.add[M, t.mul[factor[:, :, None], top[:, None, :]]]
        pivots[at, c] = True
        rank[at] += 1
    return A, rank, pivots, det


def witt_stack(field: GF, forms):
    """witt_decompose of each form of a (k, m, m) stack of symmetric code
    matrices, as a list of (s, gamma, tag): one eliminate_stack of the
    stack gives each form's rank and pivots, and the degenerate forms'
    pivot minors, grouped by rank, one more eliminate_stack each for their
    determinants (a rank-0 form's is 1, unread).  witt_type maps each
    distinct (rank, discriminant) once.
    ValueError unless forms is k symmetric square forms of one size."""
    if not len(forms):
        return []
    forms = _form_stack(forms)
    _, rank, piv, disc = eliminate_stack(field, forms)
    for r in range(1, forms.shape[1]):
        at = np.flatnonzero(rank == r)
        if len(at):
            cols = np.nonzero(piv[at])[1].reshape(len(at), r)
            minors = forms[at[:, None, None], cols[:, :, None], cols[:, None, :]]
            disc[at] = eliminate_stack(field, minors)[3]
    keys = (rank * field.q + disc).tolist()
    types = {key: witt_type(field, *divmod(key, field.q)) for key in set(keys)}
    return [types[key] for key in keys]


def _form_stack(forms) -> np.ndarray:
    """forms as a (k, m, m) array; ValueError unless they are square forms
    of one size and symmetric."""
    try:
        forms = np.asarray(forms)
    except ValueError:  # ragged
        forms = None
    if forms is None or forms.ndim != 3 or forms.shape[1] != forms.shape[2]:
        raise ValueError("forms must be square and of one size")
    if not np.array_equal(forms, forms.transpose(0, 2, 1)):
        raise ValueError("forms must be symmetric")
    return forms


# Most candidate bases witt_bruteforce_oracle tests in one dimension, and most
# codes q^m of the point table it reads (point_ids): admits every form up to
# 4x4 over F17, 5x5 over F5 and 6x6 over F3.
ORACLE_MAX_BASES = 10**5

# Entries per form chunk of the oracle's point table pts G, (forms, P, m).
_ORACLE_CHUNK = 1 << 14


def witt_bruteforce_oracle(field: GF, forms) -> list[int]:
    """Witt index of each form of a (k, m, m) stack of symmetric code
    matrices over field, by batched exhaustive search, for cross-checking
    witt_decompose.

    Finds the largest totally isotropic subspace of each (possibly
    degenerate) form and subtracts the radical dimension.  Scans dimensions
    upward with early exit per form: if no d-dimensional totally isotropic
    subspace exists, none larger can, and the form drops out.  No
    elimination runs, so the oracle is independent of the one witt_decompose
    reads: the radical dimension d comes from the point table below, whose
    zero rows p G = 0 are the (q^d - 1)/(q - 1) points of the radical.

    Each row of an rref basis has 1 as its first nonzero entry, so it is
    the basis of one of the P points pts = rref_bases(field, m, 1), and
    entry (i, j) of a candidate's Gram block B G Bt is p_i G p_jt for the
    points p_i, p_j of its rows i and j (rref_point_ids).  The forms go in
    chunks whose point table PG = pts G, (forms, P, m), holds about
    _ORACLE_CHUNK entries (at least one form).  Per chunk, one GF.matmul
    makes PG and one the isotropy Q(p) = (p G) pt of every point: a form
    reaches d = 1 iff some Q(p) is 0.  For d >= 2 a candidate stays only if
    its d points are all isotropic, a gather of Q that is its block's
    diagonal; one GF.matmul then gives the d(d-1)/2 entries above the
    diagonal for every (form, candidate) pair that stays, and, G being
    symmetric, these complete the block.  A form reaches d when one of its
    candidates has all of them zero.

    Raises ValueError for a stack that is not k square forms of one size
    and for an asymmetric form, and, before allocating, when one dimension
    has more than ORACLE_MAX_BASES candidates or F_q^m more than
    ORACLE_MAX_BASES vectors.
    """
    if not len(forms):
        return []
    forms = _form_stack(forms)
    m = forms.shape[1]
    worst = max(field.q**m, *(gauss_binomial(m, d, field.q) for d in range(m + 1)))
    if worst > ORACLE_MAX_BASES:
        raise ValueError(
            f"oracle instance too large: {worst} candidate bases in one dimension "
            f"or vectors, limit {ORACLE_MAX_BASES}"
        )
    if not m:
        return [0] * len(forms)
    codes = forms.astype(field.arrays.mul.dtype)
    pts = rref_bases(field, m, 1)[:, 0]
    step = max(1, _ORACLE_CHUNK // pts.size)
    witt = np.concatenate(
        [_witt_indices(field, pts, codes[lo : lo + step]) for lo in range(0, len(codes), step)]
    )
    return witt.tolist()


def _witt_indices(field: GF, pts: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The Witt index of each form of codes, (forms, m, m), from the points
    pts, (P, m): its largest totally isotropic dimension less its radical
    dimension, witt_bruteforce_oracle's search on one chunk."""
    m, q = pts.shape[1], field.q
    PG = field.matmul(pts, codes)
    radical_points = (~PG.any(axis=2)).sum(axis=1)
    radical_dim = np.searchsorted((q ** np.arange(m + 1) - 1) // (q - 1), radical_points)
    iso = field.matmul(PG[:, :, None], pts[:, :, None])[..., 0, 0] == 0
    out = np.zeros(len(codes), dtype=np.intp)
    alive = np.flatnonzero(iso.any(axis=1))
    out[alive] = 1
    for dim in range(2, m + 1):
        if not len(alive):
            break
        ids = rref_point_ids(field, m, dim)
        form, cand = np.nonzero(iso[alive][:, ids].all(axis=2))
        i, j = np.nonzero(np.arange(dim)[:, None] < np.arange(dim))  # i < j, row-major
        rows = ids[cand]
        piG = PG[alive[form, None], rows[:, i]]  # (pairs, i < j, m)
        pairs = field.matmul(piG[..., None, :], pts[rows[:, j], :, None])
        hit = np.zeros(len(alive), dtype=bool)
        hit[form[~pairs.any(axis=(1, 2, 3))]] = True
        alive = alive[hit]
        out[alive] = dim
    return out - radical_dim


def classify_type(P: Subspace) -> SubspaceType:
    s, gamma, tag = witt_decompose(P.space.field, gram(P))
    return SubspaceType(m=P.m, r=2 * s + gamma, s=s, tag=tag)


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


@lru_cache(maxsize=64)
def rref_bases(field: GF, n: int, m: int) -> np.ndarray:
    """Every m-dimensional subspace of F_q^n as its rref basis: one
    read-only (K, m, n) array, K = gauss_binomial(n, m, q), ascending by the
    flattened rows, which is the vertex order.

    One block per pivot set, its free entries (right of a row's pivot, off
    the pivot columns) the base-q digits of arange(q^free), then one
    lexsort.  Codes are in the least unsigned dtype that holds q - 1, the
    dtype of the field's tables, which enumerating does not build.
    """
    if not 1 <= m <= n:
        raise ValueError(f"dimension {m} out of range 1..{n}")
    q = field.q
    blocks = []
    for pivots in itertools.combinations(range(n), m):
        free = [(i, j) for i, p in enumerate(pivots) for j in range(p + 1, n) if j not in pivots]
        B = np.zeros((q ** len(free), m, n), dtype=np.min_scalar_type(q - 1))
        B[:, range(m), pivots] = 1
        if free:
            i, j = zip(*free)
            B[:, i, j] = np.arange(len(B))[:, None] // q ** np.arange(len(free)) % q
        blocks.append(B)
    B = np.concatenate(blocks)
    B = B[np.lexsort(B.reshape(len(B), -1).T[::-1])]
    B.setflags(write=False)
    return B


@lru_cache(maxsize=64)
def rref_point_ids(field: GF, n: int, m: int) -> np.ndarray:
    """The point id of each basis row of rref_bases(field, n, m): one
    read-only (K, m) int32 array, ids into the points rref_bases(field, n, 1).
    The bases ascend by their rows, and the points by their vectors, so the
    id rows ascend lexicographically too."""
    ids = point_ids(field, rref_bases(field, n, m))
    ids.setflags(write=False)
    return ids


def point_ids(field: GF, vecs) -> np.ndarray:
    """The int32 point id of each vector (last axis) of vecs, -1 for the
    zero vector.  The points are the vectors with first nonzero entry 1,
    numbered in lexicographic order, which is the order of a vector's code,
    its big-endian base-q digit value.  One read-only table of q^n ids per
    (field, n), cached, maps every code and so absorbs normalisation: each
    nonzero multiple of a point's vector maps to that point's id."""
    vecs = np.asarray(vecs)
    n = vecs.shape[-1]
    return _point_table(field, n)[vecs @ field.q ** np.arange(n - 1, -1, -1)]


@lru_cache(maxsize=64)
def _point_table(field: GF, n: int) -> np.ndarray:
    """point_ids' table of F_q^n: one multiple of every point vector, per
    unit, at a time."""
    pts = rref_bases(field, n, 1)[:, 0]
    table = np.full(field.q**n, -1, dtype=np.int32)
    for c in field.units():
        table[field.arrays.mul[c][pts] @ field.q ** np.arange(n - 1, -1, -1)] = np.arange(len(pts))
    table.setflags(write=False)
    return table
