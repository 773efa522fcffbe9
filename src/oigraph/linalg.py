"""Dense exact linear algebra over GF(q).

Matrices are immutable: a field handle plus a tuple-of-tuples of int-encoded
entries.  Everything here is small (at most n x n for n <= 6 ambient
dimensions, or basis matrices with a handful of rows), so the plain cubic
algorithms are the right tool.
"""

from __future__ import annotations

from .gf import GF


class Mat:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: GF, rows, ncols: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else (ncols or 0)
        if any(len(r) != self.ncols for r in rows):
            raise ValueError("ragged rows")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(field: GF, n: int) -> "Mat":
        return Mat(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def diagonal(field: GF, entries) -> "Mat":
        entries = tuple(entries)
        n = len(entries)
        return Mat(field, tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))

    def __eq__(self, other):
        return isinstance(other, Mat) and self.field == other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"Mat({self.field!r}, {[list(r) for r in self.rows]})"

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    # -- ring operations ---------------------------------------------------

    def mul(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        f = self.field
        ot = other.rows
        out = []
        for row in self.rows:
            new = []
            for j in range(other.ncols):
                acc = 0
                for k, a in enumerate(row):
                    if a:
                        acc = f.add(acc, f.mul(a, ot[k][j]))
                new.append(acc)
            out.append(tuple(new))
        return Mat(f, out, ncols=other.ncols)

    __mul__ = mul

    def transpose(self) -> "Mat":
        if not self.rows:
            return Mat(self.field, ((),) * self.ncols) if self.ncols else Mat(self.field, ())
        return Mat(self.field, tuple(zip(*self.rows)), ncols=self.nrows)

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self.rows[i][j] == self.rows[j][i] for i in range(self.nrows) for j in range(i)
        )

    # -- elimination -------------------------------------------------------

    def rref(self):
        """Unique reduced row echelon form.

        Returns (R, rank, pivots) where R has its zero rows dropped, so two
        matrices span the same row space iff their R parts are equal.
        """
        f = self.field
        work = [list(r) for r in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(nc):
            pr = next((i for i in range(r, nr) if work[i][c] != 0), None)
            if pr is None:
                continue
            work[r], work[pr] = work[pr], work[r]
            inv = f.inv(work[r][c])
            work[r] = [f.mul(inv, a) for a in work[r]]
            for i in range(nr):
                if i != r and work[i][c] != 0:
                    m = work[i][c]
                    work[i] = [f.sub(a, f.mul(m, b)) for a, b in zip(work[i], work[r])]
            pivots.append(c)
            r += 1
            if r == nr:
                break
        R = Mat(f, work[:r], ncols=nc)
        return R, r, tuple(pivots)

    def rank(self) -> int:
        return self.rref()[1]

    def left_kernel(self) -> "Mat":
        """Canonical (rref) basis of {x : x mul self = 0}; may have 0 rows."""
        f = self.field
        R, rank, pivots = self.transpose().rref()
        n = self.nrows  # kernel lives in the row-index space
        free = [j for j in range(n) if j not in pivots]
        rows = []
        for j in free:
            v = [0] * n
            v[j] = 1
            for i, pc in enumerate(pivots):
                v[pc] = f.neg(R.rows[i][j])
            rows.append(tuple(v))
        if not rows:
            return Mat(f, (), ncols=n)
        return Mat(f, rows).rref()[0]

    def det(self) -> int:
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        f = self.field
        work = [list(r) for r in self.rows]
        n = self.nrows
        d = 1
        for c in range(n):
            pr = next((i for i in range(c, n) if work[i][c] != 0), None)
            if pr is None:
                return 0
            if pr != c:
                work[c], work[pr] = work[pr], work[c]
                d = f.neg(d)
            d = f.mul(d, work[c][c])
            inv = f.inv(work[c][c])
            for i in range(c + 1, n):
                if work[i][c] != 0:
                    m = f.mul(inv, work[i][c])
                    work[i] = [f.sub(a, f.mul(m, b)) for a, b in zip(work[i], work[c])]
        return d

    def congruence_diagonalize(self):
        """Exact symmetric diagonalization: returns (D, Q) with Q self Qt = D.

        Works for singular input; when every diagonal entry of the remaining
        block vanishes but some off-diagonal entry survives, one row (and the
        matching column) is added into another to surface a pivot — valid in
        odd characteristic only, which is all we support.
        """
        if not self.is_symmetric():
            raise ValueError("congruence diagonalization needs a symmetric matrix")
        f = self.field
        n = self.nrows
        G = [list(r) for r in self.rows]
        Q = [list(r) for r in Mat.identity(f, n).rows]

        def row_op(dst, src, c):
            # row dst += c * row src, then the same on columns (and on Q)
            for j in range(n):
                G[dst][j] = f.add(G[dst][j], f.mul(c, G[src][j]))
            for i in range(n):
                G[i][dst] = f.add(G[i][dst], f.mul(c, G[i][src]))
            for j in range(n):
                Q[dst][j] = f.add(Q[dst][j], f.mul(c, Q[src][j]))

        def swap(i, j):
            G[i], G[j] = G[j], G[i]
            for row in G:
                row[i], row[j] = row[j], row[i]
            Q[i], Q[j] = Q[j], Q[i]

        for k in range(n):
            if G[k][k] == 0:
                pr = next((i for i in range(k + 1, n) if G[i][i] != 0), None)
                if pr is not None:
                    swap(k, pr)
                else:
                    # all remaining diagonal entries vanish; find a nonzero
                    # off-diagonal pair and fold one row into the other
                    pair = next(
                        ((i, j) for i in range(k, n) for j in range(i + 1, n) if G[i][j] != 0),
                        None,
                    )
                    if pair is None:
                        break  # remaining block identically zero
                    i, j = pair
                    row_op(i, j, 1)  # (v_i + v_j) has norm 2*G[i][j] != 0
                    if i != k:
                        swap(k, i)
            pivot = G[k][k]
            assert pivot != 0
            inv = f.inv(pivot)
            for i in range(k + 1, n):
                if G[i][k] != 0:
                    row_op(i, k, f.neg(f.mul(G[i][k], inv)))
        D = Mat(f, ((G[i][j] if i == j else 0 for j in range(n)) for i in range(n)))
        return D, Mat(f, (tuple(r) for r in Q))


def dot_form(field: GF, u, S: Mat, v) -> int:
    """The pairing u S vt for row vectors u, v."""
    acc = 0
    for i, ui in enumerate(u):
        if ui:
            row = S.rows[i]
            s = 0
            for j, vj in enumerate(v):
                if vj:
                    s = field.add(s, field.mul(row[j], vj))
            acc = field.add(acc, field.mul(ui, s))
    return acc
