"""Pure-Python elimination kernel.

One Gauss-Jordan elimination, whose loops serve the rationals and a prime
field alike. It produces the reduced row-echelon form, which is unique, so
every answer is determined by the input alone: the order in which pivots
are taken changes the work, never the result.

The differentials are about 0.5% nonzero, so the elimination is sparse
from end to end. A row is a list of (column, value) pairs in increasing
column order that holds only nonzero values; it is read once into a dict
and the input rows are never mutated. A column -> rows index lists the
rows that may hold each column; it can keep stale entries, which are
checked when read, so the elimination only ever touches nonzeros. Columns
are taken in order, and the pivot of a column is its candidate row with
the fewest nonzeros (Markowitz's rule restricted to one column), ties
going to the lower row index. Rows are never moved: a pivot is named by
the index of its row. The reduced rows come out in the same form, each a
fresh list, the pivot rows in pivot order followed by one empty row for
each row below the rank.

Every row is held as integer numerators over one positive integer
denominator of its own. It is always 1 over F_p, where the numerators are
the residues and each new one is taken % p. Over Q a matrix whose entries
are all ints is read the same way, each row as it stands over 1; any other
puts each row over the lcm of its denominators (1 for an integral row).
So the arithmetic is on ints, and over Q no gcd is paid per entry
(Bareiss, Math. Comp. 22, 1968, eliminates over Z alike). Over Q a pivot
row is scaled to a pivot of 1 by putting its numerators over the pivot's
numerator, the sign moved to the numerators, and its content (the gcd of
the denominator and every numerator) is removed. Subtracting f / d times
a pivot row over D from a row over d puts that row over d D / gcd(f, D);
only then has its denominator grown, and only then is its content
removed. A reduced row over 1 (every row over F_p) leaves as it stands,
its entries ints; over a larger denominator each entry leaves as an int
where it is integral and as a Fraction elsewhere, so no entry is a
Fraction with denominator 1.

The elimination can record its row operations, one (pivot row, pivot
inverse or None, [(row, factor), ...]) triple per pivot: scale the pivot
row by the inverse, then subtract factor times it from each listed row.
The inverse and the factors are field values, not numerators: over Q
each is an int where it is integral, else a Fraction. Replaying that
record on a column vector gives the column that eliminating [A | b]
would have produced, entry i for row i, so a factorised matrix answers
every later solve without a second elimination.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm


def _rref(rows, ncols, p, ops):
    """Gauss-Jordan elimination over Q (p is None) or over F_p.

    rows: sparse rows (read only), pairs (column, nonzero value) in
    increasing column order; over Q the values are Fractions or ints, over
    F_p ints in (0, p).
    ops: None, or a list that receives the row operations.
    Returns (sparse reduced rows, pivot column tuple)."""
    nrows = len(rows)
    # sparse[i]: the integer numerators of row i as {column: nonzero}, over
    # the positive denominator den[i] (always 1 over F_p); index[c]: the
    # rows that hold, or once held, a nonzero in column c
    sparse, den = [dict(row) for row in rows], [1] * nrows
    # over Q, an all-int matrix is read as it is, like a matrix over F_p;
    # any other puts each row over the lcm of its denominators (a Fraction
    # with denominator 1, too, becomes its int numerator)
    if p is None and not set(map(type, chain.from_iterable(map(dict.values, sparse)))) <= {int}:
        for i, row in enumerate(sparse):
            d = den[i] = lcm(*[v.denominator for v in row.values()])
            sparse[i] = {j: v.numerator * (d // v.denominator) for j, v in row.items()}
    index = [[] for _ in range(ncols)]
    for i, d in enumerate(sparse):
        for j in d:
            index[j].append(i)
    taken = [False] * nrows  # taken[i]: row i is a pivot row
    pivot_rows = []
    pivots = []
    for c in range(ncols):
        if len(pivots) == nrows:
            break
        col = index[c]
        best, best_n = -1, ncols + 1  # no row has ncols + 1 nonzeros
        for i in col:
            if not taken[i]:
                d = sparse[i]
                if c in d:
                    n = len(d)
                    if n < best_n or (n == best_n and i < best):
                        best, best_n = i, n
        if best < 0:
            continue
        taken[best] = True
        piv = sparse[best]
        # the pivot's own column leaves the row: its value is 1 from here on
        # (numerator den[best]), and it is put back when the rows leave
        pval = piv.pop(c)
        dp = den[best]
        inv = None
        if p is not None:
            if pval != 1:
                inv = pow(pval, -1, p)
                for j in piv:
                    piv[j] = piv[j] * inv % p
        elif pval != dp:
            # scaling by dp / pval puts the same numerators over pval: the
            # denominator becomes |pval| and the sign moves to the numerators
            inv = dp // pval if dp % pval == 0 else Fraction(dp, pval)
            if pval < 0:
                pval = -pval
                for j in piv:
                    piv[j] = -piv[j]
            dp = pval
        if dp != 1:  # over Q only: the pivot row less its content
            g = gcd(dp, *piv.values())
            if g != 1:
                dp //= g
                for j in piv:
                    piv[j] //= g
        den[best] = dp
        # the other entries are negated once, here, instead of at every use
        # (over F_p the % p of each update brings a negative into [0, p))
        entries = [(j, -v) for j, v in piv.items()]
        factors = []
        for i in col:
            row = sparse[i]
            f = row.pop(c, None)
            if f is None:  # the pivot row, a stale entry, or a duplicate
                continue
            # row i less f / den[i] times the pivot row, over the common
            # denominator den[i] m, where m = dp / gcd(f, dp) (1 over F_p)
            m = 1
            if p is None:
                di = den[i]
                factors.append((i, f if di == 1 else f // di if f % di == 0 else Fraction(f, di)))
                if dp != 1:
                    g = gcd(f, dp)
                    f //= g
                    m = dp // g
                    if m != 1:
                        for j in row:
                            row[j] *= m
            else:
                factors.append((i, f))
            for j, nj in entries:
                v = row.get(j)
                if v is None:
                    row[j] = f * nj if p is None else f * nj % p
                    index[j].append(i)
                else:
                    v = v + f * nj if p is None else (v + f * nj) % p
                    if v:
                        row[j] = v
                    else:
                        del row[j]
            if m != 1:  # the denominator grew: take the row's content out
                di *= m
                g = gcd(di, *row.values())
                if g != 1:
                    di //= g
                    for j in row:
                        row[j] //= g
                den[i] = di
        if ops is not None:
            ops.append((best, inv, factors))
        pivot_rows.append(best)
        pivots.append(c)
    out = []
    for i, c in zip(pivot_rows, pivots):
        row = sparse[i]
        d = row[c] = den[i]
        row = sorted(row.items())
        # a row over 1 (every row over F_p) leaves as it stands, on ints;
        # over a larger denominator an integral entry leaves as an int too
        out.append(row if d == 1 else [(j, Fraction(v, d) if v % d else v // d) for j, v in row])
    out += [[] for _ in range(nrows - len(pivots))]
    return out, tuple(pivots)


def rref_rational(rows, ncols, ops=None):
    """Gauss-Jordan elimination over the rationals."""
    return _rref(rows, ncols, None, ops)


def rref_mod(rows, ncols, p, ops=None):
    """Gauss-Jordan elimination over the integers modulo a prime p."""
    return _rref(rows, ncols, p, ops)


def replay(ops, vec, p):
    """Apply recorded row operations to the column vec (mutated), over Q
    (p is None) or over F_p, exactly as the elimination applied them to
    its rows, % p included: entry i follows row i, and no entry moves.
    Returns vec."""
    for pr, inv, factors in ops:
        v = vec[pr]
        if not v:
            continue
        if inv is not None:
            v = vec[pr] = v * inv if p is None else v * inv % p
        for i, f in factors:
            vec[i] = vec[i] - f * v if p is None else (vec[i] - f * v) % p
    return vec
