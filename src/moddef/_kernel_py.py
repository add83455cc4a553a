"""Pure-Python elimination kernel.

One Gauss-Jordan elimination, whose loops serve the rationals and a prime
field alike: only the pivot's inverse and the % p of each new value over
F_p differ. It produces the reduced row-echelon form, which is unique, so
every answer is determined by the input alone: the order in which pivots
are taken changes the work, never the result.

The differentials are about 0.5% nonzero, so the elimination is sparse
from end to end. A row is a list of (column, value) pairs in increasing
column order that holds only nonzero values; it is read once into a dict
(``dict(row)``, at C level) and the input rows are never mutated. A
column -> rows index lists the rows that may hold each column; it can keep
stale entries, which are checked when read, so the elimination only ever
touches nonzeros. Columns are taken in order, and the pivot of a column is
its candidate row with the fewest nonzeros (Markowitz's rule restricted to
one column), ties going to the lower row index. Rows are never moved: a
pivot is named by the index of its row. The reduced rows come out in the
same form, each a fresh list, the pivot rows in pivot order followed by
one empty row for each row below the rank.

The elimination can record its row operations, one (pivot row, pivot
inverse or None, [(row, factor), ...]) triple per pivot: scale the pivot
row by the inverse, then subtract factor times it from each listed row.
Replaying that record on a column vector gives the column that
eliminating [A | b] would have produced, entry i for row i, so a
factorised matrix answers every later solve without a second elimination.
"""

from fractions import Fraction

_ONE = Fraction(1)


def _rref(rows, ncols, p, ops):
    """Gauss-Jordan elimination over Q (p is None) or over F_p.

    rows: sparse rows (read only), pairs (column, nonzero value) in
    increasing column order; over F_p the values are ints in (0, p).
    ops: None, or a list that receives the row operations.
    Returns (sparse reduced rows, pivot column tuple)."""
    nrows = len(rows)
    # sparse[i]: row i as {column: nonzero}; index[c]: the rows that hold,
    # or once held, a nonzero in column c
    sparse = [dict(row) for row in rows]
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
        pval = piv.pop(c)
        inv = None
        if pval != 1:
            # Fraction(1) / pval stays exact even when the caller passed ints
            inv = _ONE / pval if p is None else pow(pval, -1, p)
            for j in piv:
                piv[j] = piv[j] * inv if p is None else piv[j] * inv % p
        # the pivot's own column is dropped from every other row directly;
        # the other entries are negated once, here, instead of at every use
        # (over F_p the % p of each update brings a negative into [0, p))
        entries = [(j, -v) for j, v in piv.items()]
        factors = []
        for i in col:
            row = sparse[i]
            f = row.pop(c, None)
            if f is None:  # the pivot row, a stale entry, or a duplicate
                continue
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
        piv[c] = pval if inv is None else _ONE if p is None else 1
        if ops is not None:
            ops.append((best, inv, factors))
        pivot_rows.append(best)
        pivots.append(c)
    out = [sorted(sparse[i].items()) for i in pivot_rows]
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
