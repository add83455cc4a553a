"""Pure-Python elimination kernel.

One Gauss-Jordan elimination, over the rationals or over a prime field. It
produces the reduced row-echelon form, which is unique, so every answer
downstream is determined by the input alone. Each pivot row's nonzero
columns are listed once, and every other row is eliminated through that
list only: the differentials are very sparse.

The input row lists are mutated in place; callers pass fresh copies.
"""

from fractions import Fraction

_ONE = Fraction(1)


def _rref(rows, ncols, p):
    """Gauss-Jordan elimination over Q (p is None) or over F_p.

    rows: lists of length ncols (mutated); over F_p, ints in [0, p).
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
        if pval != 1:
            # Fraction(1) / pval stays exact even when the caller passed ints
            inv = _ONE / pval if p is None else pow(pval, p - 2, p)
            for j in support:
                piv[j] = piv[j] * inv if p is None else piv[j] * inv % p
        entries = [(j, piv[j]) for j in support]
        for i, row in enumerate(rows):
            f = row[c]
            if not f or i == r:
                continue
            if p is None:
                for j, pj in entries:
                    row[j] -= f * pj
            else:
                for j, pj in entries:
                    row[j] = (row[j] - f * pj) % p
        pivots.append(c)
    return rows, tuple(pivots)


def rref_rational(rows, ncols):
    """Gauss-Jordan elimination over the rationals."""
    return _rref(rows, ncols, None)


def rref_mod(rows, ncols, p):
    """Gauss-Jordan elimination over the integers modulo a prime p."""
    return _rref(rows, ncols, p)
