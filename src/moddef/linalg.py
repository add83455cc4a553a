"""Exact matrices, held as sparse rows, and the linear-algebra core.

Everything downstream (validation, differentials, witness searches,
obstruction solves) reduces to the operations here: reduced row-echelon
form, rank, kernel bases, affine solves and operator series products.
All arithmetic is exact; the canonical solution of a linear system is the
one with every free variable of the echelon form set to zero, which makes
all emitted witnesses and representatives deterministic.

Every matrix, from a d_m x d_m module operator to a differential d_n or
a reduced echelon form, is held one way: as sparse rows. A sparse row is
a list of (column, value) pairs in increasing column order holding only
nonzero values. Sums, products, elimination, rank, kernel bases, solves
and the transpose all read and build sparse rows. The dense rows of a
matrix are a view, built afresh on each read of ``data``, for encoding
and tests.
"""

import functools

from .errors import InputError


@functools.cache
def _kernel():
    """The elimination kernel, imported once, by the first elimination or
    solve (validation never eliminates). Callers read its entry points
    from the module on each call, so a tracer's patches of them hold."""
    from ._backend import kernel

    return kernel


class Matrix:
    """Immutable-by-convention matrix over a fixed field.

    rows[i] is row i as sparse (column, value) pairs, in increasing column
    order, nonzero values only; every operator here returns residues in
    (0, p) over F_p. data is the dense view of rows, a fresh list of lists
    on each read, so a write into it changes nothing.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "_rref", "_ops")

    def __init__(self, field, data, ncols=None):
        """The matrix with these dense rows; only their nonzeros are kept,
        reduced (over F_p each entry is taken % p)."""
        if data:
            ncols = len(data[0]) if ncols is None else ncols
        elif ncols is None:
            raise InputError("empty matrix needs an explicit column count")
        for row in data:
            if len(row) != ncols:
                raise InputError("ragged matrix rows")
        self.field, self.nrows, self.ncols = field, len(data), ncols
        p = field.p
        if p is None:
            self.rows = [[(j, v) for j, v in enumerate(row) if v] for row in data]
        else:
            self.rows = [[(j, r) for j, v in enumerate(row) if (r := v % p)] for row in data]
        self._rref = self._ops = None

    @classmethod
    def sparse(cls, field, rows, ncols):
        """The matrix with these sparse rows (not copied)."""
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols, m.rows = field, len(rows), ncols, rows
        m._rref = m._ops = None
        return m

    @property
    def data(self):
        """Dense rows, built afresh from rows on each read."""
        zero, ncols = self.field.zero, self.ncols
        out = []
        for row in self.rows:
            dense = [zero] * ncols
            for j, v in row:
                dense[j] = v
            out.append(dense)
        return out

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls.sparse(field, [[] for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        return cls.sparse(field, [[(i, field.one)] for i in range(n)], n)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Matrix({self.field.name}, {self.nrows}x{self.ncols})"

    def is_zero(self):
        return not any(self.rows)

    def __add__(self, other):
        self._check_same_shape(other)
        return self._combination(((1, self), (1, other)))

    def __sub__(self, other):
        self._check_same_shape(other)
        return self._combination(((1, self), (-1, other)))

    def __neg__(self):
        return self._combination(((-1, self),))

    def scale(self, c):
        return self._combination(((c, self),))

    def _combination(self, terms):
        """The sum of c * m over (c, m) in terms, all of self's shape."""
        F = self.field
        out = [{} for _ in range(self.nrows)]
        _add_scaled(out, F.zero, terms)
        return Matrix.sparse(F, reduce_rows(F, out), self.ncols)

    def __matmul__(self, other):
        if self.field != other.field:
            raise InputError("cannot multiply matrices over different fields")
        if self.ncols != other.nrows:
            raise InputError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        return series_term([self], [other], 0)

    def transpose(self):
        cols = [[] for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
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
            rows = self.rows
            ops = []
            p = self.field.p
            kernel = _kernel()
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
    hold), less c * m for each (c, m) in minus. Only nonzeros are
    multiplied: each row sums into a {column: value} accumulator whose
    cell starts as its first product, so over Q a sum of int products
    stays an int and a sum of Fractions never meets an int zero; the minus
    terms join from the int 0. Rows are reduced once, at the end (see
    reduce_rows)."""
    F = left[0].field
    out = [{} for _ in range(left[0].nrows)]
    for i in range(max(0, n - len(right) + 1), min(n, len(left) - 1) + 1):
        b = right[n - i].rows
        for acc, arow in zip(out, left[i].rows):
            for k, x in arow:
                for j, y in b[k]:
                    v = acc.get(j)
                    acc[j] = x * y if v is None else v + x * y
    _add_scaled(out, 0, [(-c, m) for c, m in minus])
    return Matrix.sparse(F, reduce_rows(F, out), right[0].ncols)


def _add_scaled(out, zero, terms):
    """Add c * m into the row accumulators out for each (c, m) in terms."""
    for c, m in terms:
        for acc, row in zip(out, m.rows):
            for j, v in row:
                acc[j] = acc.get(j, zero) + c * v


def reduce_rows(F, accumulators):
    """{column: sum} row accumulators as canonical sparse rows: each sum
    reduced (over F_p; over Q every sum already is canonical), zeros
    dropped, columns in increasing order."""
    p = F.p
    if p is None:
        return [[(j, v) for j, v in sorted(acc.items()) if v] for acc in accumulators]
    return [[(j, r) for j, v in sorted(acc.items()) if (r := v % p)] for acc in accumulators]


def solve(a: Matrix, b: list):
    """The canonical solution of a x = b (every free variable zero), or
    None when b is outside the column span of a. Replaying a's recorded
    row operations on b gives the last column of [a | b] eliminated as
    a was: pivot k's variable is its entry at pivot k's row, and b is in
    the span exactly when every other entry is zero. Over F_p, b is
    reduced first (each entry taken % p), as Matrix(field, rows) reduces
    its entries, so the answer holds residues."""
    if len(b) != a.nrows:
        raise InputError(f"right-hand side length {len(b)} != row count {a.nrows}")
    _, pivots = a.rref()
    F = a.field
    p = F.p
    y = _kernel().replay(a._ops, list(b) if p is None else [v % p for v in b], p)
    x = [F.zero] * a.ncols
    for (i, _, _), pc in zip(a._ops, pivots):
        x[pc], y[i] = y[i], F.zero
    if any(y):
        return None
    return x
