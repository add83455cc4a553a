"""Pure-Python elimination kernels.

Gauss-Jordan elimination over the rationals and over a prime field. Both
produce the reduced row-echelon form, which is unique, so every answer
downstream is determined by the input alone.

The input row lists are mutated in place; callers pass fresh copies.
"""

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref_rational(rows, ncols):
    """Gauss-Jordan elimination over the rationals.

    rows: list of lists of Fraction, each of length ncols (mutated).
    Returns (rows, pivot column tuple).
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr == -1:
            continue
        if pr != r:
            rows[pr], rows[r] = rows[r], rows[pr]
        piv = rows[r]
        pval = piv[c]
        if pval != 1:
            inv = 1 / pval
            piv[c] = _ONE
            for j in range(c + 1, ncols):
                if piv[j]:
                    piv[j] *= inv
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if not f:
                continue
            row[c] = _ZERO
            for j in range(c + 1, ncols):
                pj = piv[j]
                if pj:
                    row[j] = row[j] - f * pj
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def rref_mod(rows, ncols, p):
    """Gauss-Jordan elimination over the integers modulo a prime p.

    rows: list of lists of int in [0, p) (mutated). Returns (rows, pivots).
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr == -1:
            continue
        if pr != r:
            rows[pr], rows[r] = rows[r], rows[pr]
        piv = rows[r]
        pval = piv[c]
        if pval != 1:
            inv = pow(pval, p - 2, p)
            piv[c] = 1
            for j in range(c + 1, ncols):
                if piv[j]:
                    piv[j] = piv[j] * inv % p
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if not f:
                continue
            row[c] = 0
            for j in range(c + 1, ncols):
                pj = piv[j]
                if pj:
                    row[j] = (row[j] - f * pj) % p
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)
