"""Dense exact matrices and the linear-algebra core.

Everything downstream (validation, differentials, witness searches,
obstruction solves) reduces to the operations here: reduced row-echelon
form, rank, kernel bases, and affine solves. All arithmetic is exact; the
canonical solution of a linear system is the one with every free variable
of the echelon form set to zero, which makes all emitted witnesses and
representatives deterministic.
"""

from itertools import compress, repeat
from operator import is_not, itemgetter, neg

from ._backend import kernel
from .errors import InputError
from .fields import PrimeField


class Matrix:
    """Immutable-by-convention dense matrix over a fixed field.

    data is a list of rows; rows are lists of field scalars.
    """

    __slots__ = ("field", "nrows", "ncols", "data", "_rref", "_ops")

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
        self._rref = None
        self._ops = None

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
        add = self.field.add
        return Matrix(
            self.field,
            [[add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            self.ncols,
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        sub = self.field.sub
        return Matrix(
            self.field,
            [[sub(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            self.ncols,
        )

    def __neg__(self):
        neg = self.field.neg
        return Matrix(self.field, [[neg(a) for a in row] for row in self.data], self.ncols)

    def scale(self, c):
        mul = self.field.mul
        return Matrix(self.field, [[mul(c, a) for a in row] for row in self.data], self.ncols)

    def __matmul__(self, other):
        if self.field != other.field:
            raise InputError("cannot multiply matrices over different fields")
        if self.ncols != other.nrows:
            raise InputError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        F = self.field
        add, mul = F.add, F.mul
        out = [[F.zero] * other.ncols for _ in range(self.nrows)]
        for arow, orow in zip(self.data, out):
            for a, brow in zip(arow, other.data):
                if not a:
                    continue
                for j, b in enumerate(brow):
                    if b:
                        orow[j] = add(orow[j], mul(a, b))
        return Matrix(F, out, other.ncols)

    def matvec(self, v):
        if len(v) != self.ncols:
            raise InputError("vector length does not match column count")
        F = self.field
        add, mul = F.add, F.mul
        out = []
        for row in self.data:
            s = F.zero
            for a, x in zip(row, v):
                if a and x:
                    s = add(s, mul(a, x))
            out.append(s)
        return out

    def transpose(self):
        return Matrix(
            self.field,
            [[self.data[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows,
        )

    def _check_same_shape(self, other):
        if self.field != other.field:
            raise InputError("cannot combine matrices over different fields")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise InputError("matrix shape mismatch")

    # -- elimination ------------------------------------------------------

    def rref(self):
        """Reduced row-echelon form and pivot columns (cached, together
        with the row operations that produced them, for solve). Its zero
        rows below the rank share one list."""
        if self._rref is None:
            ops = []
            if isinstance(self.field, PrimeField):
                reduced, pivots = kernel.rref_mod(self.data, self.ncols, self.field.p, ops=ops)
            else:
                reduced, pivots = kernel.rref_rational(self.data, self.ncols, ops=ops)
            self._rref = (Matrix(self.field, reduced, self.ncols), pivots)
            self._ops = ops
        return self._rref

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Canonical null-space basis: one vector per free column, that
        column's entry set to one, pivot entries back-filled from the
        nonzero free entries of each pivot row."""
        reduced, pivots = self.rref()
        F = self.field
        zero, ncols = F.zero, self.ncols
        free = sorted(set(range(ncols)).difference(pivots))
        basis = []
        for j in free:
            v = [zero] * ncols
            v[j] = F.one
            basis.append(v)
        if not free:
            return basis
        take = itemgetter(*free)  # one row's free entries, gathered at C level
        zeros = repeat(zero)
        prime = isinstance(F, PrimeField)
        minus = F.p.__sub__ if prime else neg  # F.neg, without its Python frame
        for row, pc in zip(reduced.data, pivots):
            coefs = take(row) if len(free) > 1 else (row[free[0]],)
            # an int's truth value is read at C level, a Fraction's is not
            for v, coef in compress(zip(basis, coefs), coefs if prime else map(is_not, coefs, zeros)):
                if coef:
                    v[pc] = minus(coef)
        return basis


def reduced_column(a: Matrix, b: list):
    """(y, pivots): a's pivot columns, and b after a's recorded row
    operations, i.e. the last column of the reduced form of [a | b]. a is
    factorised once; each call replays its row operations on a copy of b."""
    F = a.field
    _, pivots = a.rref()
    y = kernel.replay(a._ops, list(b), F.p if isinstance(F, PrimeField) else None)
    return y, pivots


def solve(a: Matrix, b: list):
    """The canonical solution of a x = b (every free variable zero), or
    None when b is outside the column span of a."""
    if len(b) != a.nrows:
        raise InputError(f"right-hand side length {len(b)} != row count {a.nrows}")
    y, pivots = reduced_column(a, b)
    if any(y[len(pivots):]):
        return None
    x = [a.field.zero] * a.ncols
    for r, pc in enumerate(pivots):
        x[pc] = y[r]
    return x
