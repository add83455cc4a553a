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

Every operator product, sum, difference, negation and scaling is one loop,
``product_sum``. It sums ints while every factor holds ints (always over
F_p). Over Q, a factor that holds a Fraction is multiplied as int
numerator rows over one positive denominator, computed once per matrix and
cached on it, and the sum runs over the lcm of the denominators, so a
Fraction is built only where a cell leaves the sum. Whether a matrix holds
a Fraction is decided where it is built (by the dense constructor,
``product_sum`` and ``Cochain.unflatten``) or else when it is first
multiplied, never per product.

``Matrix.rref`` and ``solve`` import the elimination kernel locally, as
``_backend.kernel``, so a call that never eliminates (validation) never
loads it, and read its entry points off that module on each call, so a
tracer's patches of them hold.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import InputError


class Matrix:
    """Immutable-by-convention matrix over a fixed field.

    rows[i] is row i as sparse (column, value) pairs, in increasing column
    order, nonzero values only; every operator here returns residues in
    (0, p) over F_p. data is the dense view of rows, a fresh list of lists
    on each read, so a write into it changes nothing.

    _ints and _num are the forms product_sum multiplies. _ints is rows when
    no entry is a Fraction (always over F_p), and None over Q when one is
    or while that is unknown (see sparse); _num caches the numerator form
    of a matrix that holds a Fraction (see _numerators).
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "_rref", "_ops", "_ints", "_num")

    def __init__(self, field, data, ncols=None):
        """The matrix with these dense rows; only their nonzeros are kept,
        reduced (over F_p each entry is taken % p), and whether one is a
        Fraction is read here (see _numerators)."""
        if data:
            ncols = len(data[0]) if ncols is None else ncols
        elif ncols is None:
            raise InputError("empty matrix needs an explicit column count")
        for row in data:
            if len(row) != ncols:
                raise InputError("ragged matrix rows")
        p = field.p
        if p is None:
            rows = [[(j, v) for j, v in enumerate(row) if v] for row in data]
            ints = all(type(v) is int for row in rows for _, v in row)
        else:
            rows = [[(j, r) for j, v in enumerate(row) if (r := v % p)] for row in data]
            ints = True
        self.field, self.nrows, self.ncols, self.rows = field, len(data), ncols, rows
        self._rref = self._ops = self._num = None
        self._ints = rows if ints else None

    @classmethod
    def sparse(cls, field, rows, ncols, ints=False):
        """The matrix with these sparse rows (not copied); ints=True tells
        it that no entry is a Fraction, which over Q it otherwise looks
        for when product_sum first multiplies it."""
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols, m.rows = field, len(rows), ncols, rows
        m._rref = m._ops = m._num = None
        m._ints = rows if ints or field.p is not None else None
        return m

    def _numerators(self):
        """(D, numerator rows): the rows as int numerators over their least
        common positive denominator D, computed once. A matrix found here
        to hold no Fraction gets _ints = rows (D = 1), so product_sum
        multiplies it on ints from then on."""
        if self._ints is not None:
            return 1, self._ints
        if self._num is None:
            rows = self.rows
            dens = {v.denominator for row in rows for _, v in row if type(v) is not int}
            if not dens:
                self._ints = rows
                return 1, rows
            D = lcm(*dens)
            self._num = D, [[(j, v.numerator * (D // v.denominator)) for j, v in row] for row in rows]
        return self._num

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
        return cls.sparse(field, [[] for _ in range(nrows)], ncols, ints=True)

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
        """c * self, c an int or a Fraction read by the field's scalar:
        over F_p a Fraction n/d is n * d^-1 mod p (InputError when p
        divides d)."""
        return self._combination(((self.field.scalar(c), self),))

    def _combination(self, terms):
        """The sum of c * m over (c, m) in terms, all of self's shape: a
        product_sum with no products."""
        return product_sum(self.field, self.nrows, self.ncols, (), terms)

    def __matmul__(self, other):
        if self.field != other.field:
            raise InputError("cannot multiply matrices over different fields")
        if self.ncols != other.nrows:
            raise InputError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        return product_sum(self.field, self.nrows, other.ncols, [(self, other)])

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
            from ._backend import kernel

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
    hold), less c * m for each (c, m) in minus (see product_sum)."""
    lo, hi = max(0, n - len(right) + 1), min(n, len(left) - 1)
    return product_sum(
        left[0].field,
        left[0].nrows,
        right[0].ncols,
        zip(left[lo : hi + 1], reversed(right[n - hi : n - lo + 1])),
        [(-c, m) for c, m in minus],
    )


def product_sum(F, nrows, ncols, products, terms=()):
    """The nrows x ncols sum of a @ b over (a, b) in products plus c * m
    over (c, m) in the sequence terms, c an int, or over Q a Fraction:
    every operator product, sum, difference, negation and scaling.

    Only nonzeros are multiplied: each row sums into a {column: value}
    accumulator whose cell starts as its first product or term, never from
    a zero. While no factor holds a Fraction and every c is an int (always
    over F_p) the cells are ints, reduced % p over F_p at the end. Over Q,
    from the first factor or c that holds a Fraction on, the sum goes on
    over integer numerators (see _numerator_sum), so no cell is ever a
    Fraction while it is summed.

    The int loop checks nothing per product: it reads each factor's _ints,
    and a None there (a Fraction held, or not yet looked for) raises a
    TypeError before anything of that product is added. The pair is then
    looked at once (see Matrix._numerators), and the sum goes on from it,
    on ints again if both factors turn out integral."""
    out = [{} for _ in range(nrows)]
    products = iter(products)
    a = b = None
    while True:
        try:
            for a, b in products:
                brows = b._ints
                for acc, arow in zip(out, a._ints):
                    for k, x in arow:
                        for j, y in brows[k]:
                            v = acc.get(j)
                            acc[j] = x * y if v is None else v + x * y
            break
        except TypeError:
            if a._ints is not None and b._ints is not None:
                raise
            a._numerators(), b._numerators()
            products = chain([(a, b)], products)
            if a._ints is None or b._ints is None:
                return _numerator_sum(F, ncols, out, products, terms)
    for i, (c, m) in enumerate(terms):
        if m._ints is None:
            m._numerators()
        rows = m._ints
        if rows is None or type(c) is not int:
            return _numerator_sum(F, ncols, out, (), terms[i:])
        for acc, row in zip(out, rows):
            for j, v in row:
                w = acc.get(j)
                acc[j] = c * v if w is None else w + c * v
    p = F.p
    if p is None:
        rows = [[(j, v) for j, v in sorted(acc.items()) if v] for acc in out]
    else:
        rows = [[(j, r) for j, v in sorted(acc.items()) if (r := v % p)] for acc in out]
    return Matrix.sparse(F, rows, ncols, True)


def _numerator_sum(F, ncols, out, products, terms):
    """The rest of a product_sum over Q on integer numerators, out holding
    the int sums so far. With a = A/da, b = B/db and m = M/dm in numerator
    form (Matrix._numerators) and c = cn/cd, every product and term is an
    int matrix over da * db or cd * dm, so the whole sum is one int matrix
    S over their lcm L, out scaled by L included. A cell of S leaves as the
    int S/L where L divides it, else as Fraction(S, L); the result keeps
    its numerator form, over L / gcd(L, every cell)."""
    parts = [(a._numerators(), b._numerators()) for a, b in products]
    weights = [(c, m._numerators()) for c, m in terms]
    L = lcm(*[da * db for (da, _), (db, _) in parts], *[c.denominator * dm for c, (dm, _) in weights])
    if L != 1:
        for acc in out:
            for j, v in acc.items():
                acc[j] = v * L
    for (da, an), (db, b) in parts:
        s = L // (da * db)
        for acc, arow in zip(out, an):
            for k, x in arow:
                x *= s
                for j, y in b[k]:
                    v = acc.get(j)
                    acc[j] = x * y if v is None else v + x * y
    for c, (dm, rows) in weights:
        c = c.numerator * (L // (c.denominator * dm))
        for acc, row in zip(out, rows):
            for j, v in row:
                w = acc.get(j)
                acc[j] = c * v if w is None else w + c * v
    g = gcd(L, *[v for acc in out for v in acc.values()])
    D = L // g
    num = [[(j, v // g) for j, v in sorted(acc.items()) if v] for acc in out]
    if D == 1:
        return Matrix.sparse(F, num, ncols, True)
    rows = [[(j, v // D if v % D == 0 else Fraction(v, D)) for j, v in row] for row in num]
    m = Matrix.sparse(F, rows, ncols)
    m._num = D, num
    return m


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
    from ._backend import kernel

    y = kernel.replay(a._ops, list(b) if p is None else [v % p for v in b], p)
    x = [F.zero] * a.ncols
    for (i, _, _), pc in zip(a._ops, pivots):
        x[pc], y[i] = y[i], F.zero
    if any(y):
        return None
    return x
