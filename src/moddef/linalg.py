"""Exact matrices, dense or sparse, and the linear-algebra core.

Everything downstream (validation, differentials, witness searches,
obstruction solves) reduces to the operations here: reduced row-echelon
form, rank, kernel bases, affine solves and operator series products.
All arithmetic is exact; the canonical solution of a linear system is the
one with every free variable of the echelon form set to zero, which makes
all emitted witnesses and representatives deterministic.

A matrix is built from dense rows (the small d_m x d_m operators) or from
sparse rows (the differentials d_n, and every reduced echelon form). A
sparse row is a list of (column, value) pairs in increasing column order
holding only nonzero values. Elimination, rank, kernel bases, solves and
the transpose all work on sparse rows; a dense matrix is converted when
it is eliminated or transposed, which the library never does. The dense
rows of a sparse matrix are built only when something reads ``data``.
"""

from ._backend import kernel
from .errors import InputError


class Matrix:
    """Immutable-by-convention matrix over a fixed field.

    data is a list of dense rows, lists of field scalars. rows is None for
    a matrix built from dense rows, else its sparse rows; data is then
    built from them the first time it is read.
    """

    __slots__ = ("field", "nrows", "ncols", "data", "rows", "_rref", "_ops")

    def __init__(self, field, data, ncols=None):
        self.field = field
        self.nrows = len(data)
        if self.nrows:
            ncols = len(data[0]) if ncols is None else ncols
        elif ncols is None:
            raise InputError("empty matrix needs an explicit column count")
        for row in data:
            if len(row) != ncols:
                raise InputError("ragged matrix rows")
        self.ncols = ncols
        self.data = data
        self.rows = None
        self._rref = None
        self._ops = None

    @classmethod
    def sparse(cls, field, rows, ncols):
        """The matrix with these sparse rows (not copied)."""
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols, m.rows = field, len(rows), ncols, rows
        m._rref = m._ops = None
        return m

    def __getattr__(self, name):
        # only reached while a slot is unset: data of a sparse matrix
        if name != "data":
            raise AttributeError(name)
        zero, ncols = self.field.zero, self.ncols
        data = []
        for row in self.rows:
            dense = [zero] * ncols
            for j, v in row:
                dense[j] = v
            data.append(dense)
        self.data = data
        return data

    def _sparse_rows(self):
        if self.rows is not None:
            return self.rows
        return [[(j, v) for j, v in enumerate(row) if v] for row in self.data]

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.field.name}, {self.nrows}x{self.ncols})"

    def is_zero(self):
        return not any(any(row) for row in self.data)

    def __add__(self, other):
        self._check_same_shape(other)
        reduce = self.field.reduce
        return Matrix(
            self.field,
            [[reduce(a + b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            self.ncols,
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        reduce = self.field.reduce
        return Matrix(
            self.field,
            [[reduce(a - b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            self.ncols,
        )

    def __neg__(self):
        reduce = self.field.reduce
        return Matrix(self.field, [[reduce(-a) for a in row] for row in self.data], self.ncols)

    def scale(self, c):
        reduce = self.field.reduce
        return Matrix(self.field, [[reduce(c * a) for a in row] for row in self.data], self.ncols)

    def __matmul__(self, other):
        if self.field != other.field:
            raise InputError("cannot multiply matrices over different fields")
        if self.ncols != other.nrows:
            raise InputError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        F = self.field
        out = [[F.zero] * other.ncols for _ in range(self.nrows)]
        for arow, orow in zip(self.data, out):
            for a, brow in zip(arow, other.data):
                if not a:
                    continue
                for j, b in enumerate(brow):
                    if b:
                        orow[j] += a * b
        return Matrix(F, reduce_rows(F, out), other.ncols)

    def transpose(self):
        cols = [[] for _ in range(self.ncols)]
        for i, row in enumerate(self._sparse_rows()):
            for j, v in row:
                cols[j].append((i, v))
        return Matrix.sparse(self.field, cols, self.nrows)

    def _check_same_shape(self, other):
        if self.field != other.field:
            raise InputError("cannot combine matrices over different fields")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise InputError("matrix shape mismatch")

    # -- elimination ------------------------------------------------------

    def rref(self):
        """Reduced row-echelon form, as a sparse matrix, and pivot columns
        (cached, together with the row operations that produced them, for
        solve)."""
        if self._rref is None:
            rows = self._sparse_rows()
            ops = []
            p = self.field.p
            if p is None:
                reduced, pivots = kernel.rref_rational(rows, self.ncols, ops=ops)
            else:
                reduced, pivots = kernel.rref_mod(rows, self.ncols, p, ops=ops)
            self._rref = (Matrix.sparse(self.field, reduced, self.ncols), pivots)
            self._ops = ops
        return self._rref

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self, columns=None):
        """Canonical null-space vectors, one per free column in columns
        (every free column, in increasing order, by default): that
        column's entry set to one, pivot entries back-filled from the
        entries of each pivot row, which outside its pivot lie in free
        columns only. A pivot column has no kernel vector: asking for
        one raises InputError."""
        reduced, pivots = self.rref()
        F = self.field
        zero, one, ncols = F.zero, F.one, self.ncols
        if columns is None:
            columns = sorted(set(range(ncols)).difference(pivots))
        else:
            asked = sorted(set(columns).intersection(pivots))
            if asked:
                raise InputError(f"column {asked[0]} is a pivot column, which has no kernel vector")
        by_column = {}
        for j in columns:
            v = by_column[j] = [zero] * ncols
            v[j] = one
        for row, pc in zip(reduced.rows, pivots):
            for j, coef in row:
                v = by_column.get(j)  # None for the pivot and unbuilt columns
                if v is not None:
                    v[pc] = F.reduce(-coef)
        return list(by_column.values())


def series_term(left, right, n, minus=()):
    """Term n of the product of two truncated operator series given as
    term lists (left[i] @ right[n - i] summed over the indices both lists
    hold), less c * m for each (c, m) in minus. Each entry accumulates in
    place, zero entries skipped; over F_p it is reduced once, at the end."""
    F = left[0].field
    ncols = right[0].ncols
    out = [[F.zero] * ncols for _ in range(left[0].nrows)]
    for i in range(max(0, n - len(right) + 1), min(n, len(left) - 1) + 1):
        b = right[n - i].data
        for orow, arow in zip(out, left[i].data):
            for x, brow in zip(arow, b):
                if x:
                    for j, y in enumerate(brow):
                        if y:
                            orow[j] += x * y
    for c, m in minus:
        for orow, mrow in zip(out, m.data):
            for j, y in enumerate(mrow):
                if y:
                    orow[j] -= c * y
    return Matrix(F, reduce_rows(F, out), ncols)


def reduce_rows(F, rows):
    """Dense rows of sums and products brought back to canonical scalars:
    rows themselves over Q, where every value already is one, and fresh
    rows of residues over F_p."""
    p = F.p
    return rows if p is None else [[x % p for x in row] for row in rows]


def solve(a: Matrix, b: list):
    """The canonical solution of a x = b (every free variable zero), or
    None when b is outside the column span of a. Replaying a's recorded
    row operations on b gives the last column of [a | b] eliminated as
    a was: pivot k's variable is its entry at pivot k's row, and b is in
    the span exactly when every other entry is zero."""
    if len(b) != a.nrows:
        raise InputError(f"right-hand side length {len(b)} != row count {a.nrows}")
    _, pivots = a.rref()
    F = a.field
    y = kernel.replay(a._ops, list(b), F.p)
    x = [F.zero] * a.ncols
    for (i, _, _), pc in zip(a._ops, pivots):
        x[pc], y[i] = y[i], F.zero
    if any(y):
        return None
    return x
