"""Dense exact linear algebra over GF(q).

Matrices are immutable: a field handle plus a tuple-of-tuples of int-encoded
entries.  Everything here is small (at most n x n for n <= 6 ambient
dimensions, or basis matrices with a handful of rows), so the plain cubic
algorithms are the right tool.  One Gauss-Jordan elimination serves rref,
rank, left_kernel and det.
"""

from __future__ import annotations

from .gf import GF


class Mat:
    __slots__ = ("field", "rows", "nrows", "ncols", "_elim")

    def __init__(self, field: GF, rows, ncols: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else (ncols or 0)
        if any(len(r) != self.ncols for r in rows):
            raise ValueError("ragged rows")
        self._elim = None

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

    def _eliminate(self):
        """Gauss-Jordan elimination, the one elimination here: (the nonzero
        reduced rows, the pivot columns, the signed product of the pivots).

        Each pivot row is scaled by the inverse of its pivot and each row
        swap flips the sign, so for a square matrix of full rank the signed
        product is the determinant.  Made once per matrix, which is immutable.
        """
        if self._elim is not None:
            return self._elim
        f = self.field
        work = [list(r) for r in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots = []
        r = 0
        d = 1
        for c in range(nc):
            pr = next((i for i in range(r, nr) if work[i][c] != 0), None)
            if pr is None:
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
            if r == nr:
                break
        self._elim = work[:r], tuple(pivots), d
        return self._elim

    def rref(self):
        """Unique reduced row echelon form.

        Returns (R, rank, pivots) where R has its zero rows dropped, so two
        matrices span the same row space iff their R parts are equal.
        """
        rows, pivots, _ = self._eliminate()
        return Mat(self.field, rows, ncols=self.ncols), len(pivots), pivots

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
        _, pivots, d = self._eliminate()
        return d if len(pivots) == self.nrows else 0


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
