"""Pure-Python elimination kernel.

One Gauss-Jordan elimination, over the rationals or over a prime field. It
produces the reduced row-echelon form, which is unique, so every answer
downstream is determined by the input alone. Each pivot row's nonzero
columns are listed once, and every other row is eliminated through that
list only: the differentials are very sparse.

The elimination can record its row operations, one (swapped row, pivot
inverse or None, [(row, factor), ...]) triple per pivot. Replaying that
record on a column vector gives the column that eliminating [A | b] would
have produced, so a factorised matrix answers every later solve without a
second elimination.

The input row lists are mutated in place; callers pass fresh copies.
"""

from fractions import Fraction

_ONE = Fraction(1)


def _rref(rows, ncols, p, ops):
    """Gauss-Jordan elimination over Q (p is None) or over F_p.

    rows: lists of length ncols (mutated); over F_p, ints in [0, p).
    ops: None, or a list that receives the row operations.
    Returns (rows, pivot column tuple)."""
    nrows = len(rows)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[pr], rows[r] = rows[r], rows[pr]
        piv = rows[r]
        # the pivot column itself is listed, so eliminating it leaves a zero
        support = [j for j in range(c, ncols) if piv[j]]
        pval = piv[c]
        inv = None
        if pval != 1:
            # Fraction(1) / pval stays exact even when the caller passed ints
            inv = _ONE / pval if p is None else pow(pval, p - 2, p)
            for j in support:
                piv[j] = piv[j] * inv if p is None else piv[j] * inv % p
        entries = [(j, piv[j]) for j in support]
        factors = []
        for i, row in enumerate(rows):
            f = row[c]
            if not f or i == r:
                continue
            factors.append((i, f))
            if p is None:
                for j, pj in entries:
                    row[j] -= f * pj
            else:
                for j, pj in entries:
                    row[j] = (row[j] - f * pj) % p
        if ops is not None:
            ops.append((pr, inv, factors))
        pivots.append(c)
    return rows, tuple(pivots)


def rref_rational(rows, ncols, ops=None):
    """Gauss-Jordan elimination over the rationals."""
    return _rref(rows, ncols, None, ops)


def rref_mod(rows, ncols, p, ops=None):
    """Gauss-Jordan elimination over the integers modulo a prime p."""
    return _rref(rows, ncols, p, ops)


def replay(ops, vec, p):
    """Apply recorded row operations to the column vec (mutated), over Q
    (p is None) or over F_p, exactly as the elimination applied them to
    its rows; returns vec."""
    for r, (pr, inv, factors) in enumerate(ops):
        vec[pr], vec[r] = vec[r], vec[pr]
        v = vec[r]
        if not v:
            continue
        if inv is not None:
            v = vec[r] = v * inv if p is None else v * inv % p
        if p is None:
            for i, f in factors:
                vec[i] -= f * v
        else:
            for i, f in factors:
                vec[i] = (vec[i] - f * v) % p
    return vec
