"""Shared oracles and generators.

The oracles are deliberately independent of the library paths they check:
fraction-free (Bareiss) elimination instead of the library's Gauss-Jordan
kernel, direct expansion of defining formulas instead of the assembled
operators, and truncated polynomial arithmetic for series identities. Every
matrix product in an oracle is dense_product, a schoolbook triple loop over
dense rows, and every matrix sum is dense_sum (or, in reference_defects,
the same sum written out), entrywise over the dense rows' scalars: no
oracle uses the library's Matrix +, -, scale or @, which are all
linalg.product_sum.

Random algebra/module pairs come from a catalog of known-valid examples
pushed through random unimodular basis changes, so validity is exact by
construction while the raw data looks nothing like the catalog entry.
"""

import math
import random
import sys
from fractions import Fraction
from itertools import product

from moddef.algebra import Algebra, Module, Violation
from moddef.cochain import Cochain, CohomologyReport, coboundary_witness, differential_matrix
from moddef.deformation import ApproximateDeformation, FormalAutomorphism
from moddef.fields import PrimeField, QQ
from moddef.linalg import Matrix

# ---------------------------------------------------------------------------
# fraction-free echelon oracle


def oracle_rref(mat: Matrix):
    """Reduced echelon form computed from scratch, dense and with the first
    usable row as pivot: over Q, integer-scaled rows and Bareiss forward
    elimination (exact divisions asserted); over F_p, division-free
    cross-multiplication modulo p. Then plain back-substitution. Returns
    (Matrix, pivot tuple)."""
    m, n = mat.nrows, mat.ncols
    p = mat.field.p if isinstance(mat.field, PrimeField) else None
    rows = []
    for row in mat.data:
        if p is not None:
            rows.append([x % p for x in row])
            continue
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        rows.append([x.numerator * (den // x.denominator) for x in row])
    prev = 1
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                num = rows[i][j] * rows[r][c] - rows[i][c] * rows[r][j]
                if p is not None:
                    rows[i][j] = num % p
                    continue
                assert num % prev == 0, "Bareiss division must be exact"
                rows[i][j] = num // prev
            rows[i][c] = 0
        prev = rows[r][c]
        pivots.append(c)
        r += 1
    # back-substitute with plain field arithmetic
    if p is None:
        rows = [[Fraction(x) for x in row] for row in rows]
        inverse, reduce = (lambda x: 1 / x), (lambda x: x)
    else:
        inverse, reduce = (lambda x: pow(x, p - 2, p)), (lambda x: x % p)
    for k in reversed(range(len(pivots))):
        c = pivots[k]
        inv = inverse(rows[k][c])
        rows[k] = [reduce(x * inv) for x in rows[k]]
        for i in range(k):
            f = rows[i][c]
            if f:
                rows[i] = [reduce(a - f * b) for a, b in zip(rows[i], rows[k])]
    for i in range(len(pivots), m):
        rows[i] = [mat.field.zero] * n
    return Matrix(mat.field, rows, n), tuple(pivots)


# ---------------------------------------------------------------------------
# augmented-elimination solve oracle


def reference_solve(a: Matrix, b: list):
    """The canonical solution of a x = b by eliminating [a | b] afresh:
    None when the augmented column becomes a pivot, else every free
    variable zero and each pivot variable read off the last column."""
    F = a.field
    n = a.ncols
    aug = Matrix(F, [row[:] + [bv] for row, bv in zip(a.data, b)], n + 1)
    reduced, pivots = aug.rref()
    if pivots and pivots[-1] == n:
        return None
    x = [F.zero] * n
    for r, pc in enumerate(pivots):
        x[pc] = reduced.data[r][n]
    return x


# ---------------------------------------------------------------------------
# operator-form differential oracle


def reference_differential(f: Cochain) -> Cochain:
    """The differential of f straight from the defining formula, with
    operator values: a0 . f(a1, ..., an) and f(a0, ..., a_{n-1}) . an as
    matrix products, each inner product a_{i-1} a_i expanded through the
    structure constants, all summed per output tuple by dense_sum."""
    mod = f.module
    alg = mod.algebra
    F = mod.field
    n = f.degree
    terms = {}
    for key, mat in f.entries.items():
        rows = mat.data
        for a in range(alg.dim):
            terms.setdefault((a,) + key, []).append((1, dense_product(mod.action[a], mat).data))
            tail = dense_product(mat, mod.action[a]).data
            terms.setdefault(key + (a,), []).append((1 if n % 2 else -1, tail))
        for i in range(1, n + 1):
            head, rest = key[: i - 1], key[i:]
            for a, b, coef in alg.product_support[key[i - 1]]:
                terms.setdefault(head + (a, b) + rest, []).append((F.reduce(-coef) if i % 2 else coef, rows))
    return Cochain(mod, n + 1, {key: dense_sum(F, t, mod.dim, mod.dim) for key, t in terms.items()})


def _reference_column(module, key, r, c):
    """The image under the differential of the unit coordinate (key, r, c):
    pairs (flat degree-(n+1) coordinate, value); a coordinate may repeat.
    Every action entry of column r and row c is read and tested."""
    reduce = module.field.reduce
    d_r, d_m = module.algebra.dim, module.dim
    m2 = d_m * d_m
    n = len(key)
    t = 0
    for k in key:
        t = t * d_r + k
    last_negative = n % 2 == 0
    for a, act in enumerate(module.action):
        # a . f(key) at (a,) + key: column r of action[a] into block column c;
        # (-1)^(n+1) f(key) . a at key + (a,): row c of action[a] into block row r
        head = (a * d_r**n + t) * m2 + c
        tail = (t * d_r + a) * m2 + r * d_m
        for j, v in enumerate(act.data[c]):
            if act.data[j][r]:
                yield head + j * d_m, act.data[j][r]
            if v:
                yield tail + j, reduce(-v) if last_negative else v
    # (-1)^i f(..., k_{i-1} k_i, ...), where e_a e_b has a k_{i-1} component
    w = d_r**n
    for i in range(1, n + 1):
        w //= d_r  # d_r^(n-i), the weight of the digits after position i
        high, low = divmod(t, w * d_r)
        for a, b, coef in module.algebra.product_support[key[i - 1]]:
            idx = ((high * d_r + a) * d_r + b) * w + low % w
            yield idx * m2 + r * d_m + c, reduce(-coef) if i % 2 else coef


def reference_differential_matrix(module, degree):
    """The sparse rows of d_n, one unit coordinate at a time: each column's
    terms are scattered into one dict per row, a sum is reduced where two
    terms meet and deleted where it cancels. Columns are visited in order,
    so every row lists its columns in increasing order."""
    d_r, d_m = module.algebra.dim, module.dim
    reduce = module.field.reduce
    rows = [{} for _ in range(d_r ** (degree + 1) * d_m * d_m)]
    col = 0
    for key in product(range(d_r), repeat=degree):
        for r in range(d_m):
            for c in range(d_m):
                for idx, v in _reference_column(module, key, r, c):
                    row = rows[idx]
                    old = row.get(col)
                    if old is None:
                        row[col] = v
                    else:
                        v = reduce(old + v)
                        if v:
                            row[col] = v
                        else:
                            del row[col]
                col += 1
    return [list(row.items()) for row in rows]


# ---------------------------------------------------------------------------
# whole-matrix multiplicativity oracle


def reference_defects(d: ApproximateDeformation, n):
    """{(i, j): dense rows} of the order-n multiplicativity defect
    sum_{a+b=n} xi_a(e_i) xi_b(e_j) - sum_k c_ij^k xi_n(e_k) at every basis
    pair, xi_0 the action and a term past the order zero. Each entry is
    summed from the field's zero over the scalars of the dense rows and
    reduced once: no Matrix sum or product is used, so over Q this is
    plain Fraction arithmetic, independent of linalg.product_sum."""
    mod, F, dim = d.module, d.module.field, d.module.dim
    alg = mod.algebra
    zero = [[F.zero] * dim for _ in range(dim)]
    xi = [[m.data for m in deformation_value_series(d, k)] + [zero] for k in range(alg.dim)]

    def term(k, m):
        return xi[k][min(m, d.order + 1)]

    out = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            pairs = [(term(i, a), term(j, n - a)) for a in range(n + 1)]
            consts = [(c, term(k, n)) for k, c in enumerate(alg.structure[i][j]) if c]
            out[(i, j)] = [
                [
                    F.reduce(
                        sum((x[r][s] * y[s][col] for x, y in pairs for s in range(dim)), F.zero)
                        - sum((c * m[r][col] for c, m in consts), F.zero)
                    )
                    for col in range(dim)
                ]
                for r in range(dim)
            ]
    return out


def reference_check_deformation(d: ApproximateDeformation):
    """The first violated relation xi_n(e_i e_j) = sum_{a+b=n} xi_a(e_i)
    xi_b(e_j), orders then basis pairs in increasing order, as (order, i,
    j), or None: the first nonzero entry of reference_defects."""
    for n in range(d.order + 1):
        for (i, j), defect in reference_defects(d, n).items():
            if any(any(row) for row in defect):
                return n, i, j
    return None


# ---------------------------------------------------------------------------
# dense-product validation oracles


def multiply(alg: Algebra, u, v):
    """Bilinear extension of the dense structure constants to coordinates."""
    F = alg.field
    out = [F.zero] * alg.dim
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = alg.structure[i]
        for j, vj in enumerate(v):
            if not vj:
                continue
            c = ui * vj
            for k, w in enumerate(row[j]):
                if w:
                    out[k] = F.reduce(out[k] + c * w)
    return out


def basis_vector(alg: Algebra, i):
    v = [alg.field.zero] * alg.dim
    v[i] = alg.field.one
    return v


def act(mod: Module, coords):
    """Matrix of the algebra element with the given coordinates, as the
    dense_sum of scaled copies of the action matrices."""
    terms = [(c, m.data) for c, m in zip(coords, mod.action) if c]
    return dense_sum(mod.field, terms, mod.dim, mod.dim)


def reference_validate_algebra(alg: Algebra):
    """Associativity on every basis triple, then both unit laws, each
    product taken by dense multiplication of coordinate vectors."""
    F = alg.field
    out = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            ij = alg.structure[i][j]
            for k in range(alg.dim):
                left = multiply(alg, ij, basis_vector(alg, k))
                right = multiply(alg, basis_vector(alg, i), alg.structure[j][k])
                if left != right:
                    lt, rt = (", ".join(map(str, v)) for v in (left, right))
                    out.append(
                        Violation(
                            "associativity",
                            (i, j, k),
                            f"(e{i} e{j}) e{k} != e{i} (e{j} e{k}): [{lt}] vs [{rt}]",
                        )
                    )
    for i in range(alg.dim):
        e = basis_vector(alg, i)
        if multiply(alg, alg.unit, e) != e:
            out.append(Violation("unit-left", (i,), f"1*e{i} != e{i}"))
        if multiply(alg, e, alg.unit) != e:
            out.append(Violation("unit-right", (i,), f"e{i}*1 != e{i}"))
    return out


def reference_validate_module(mod: Module):
    """Multiplicativity on every basis pair, then the unit, with both
    sides built as whole matrices."""
    alg = mod.algebra
    out = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            if dense_product(mod.action[i], mod.action[j]) != act(mod, alg.structure[i][j]):
                out.append(
                    Violation(
                        "multiplicativity",
                        (i, j),
                        f"action(e{i}) action(e{j}) != action(e{i} e{j})",
                    )
                )
    if act(mod, alg.unit) != mod.identity_operator():
        out.append(Violation("unit", (), "unit does not act as the identity"))
    return out


# ---------------------------------------------------------------------------
# stacked-elimination cohomology oracle


def reference_cohomology(module, degree) -> CohomologyReport:
    """Cohomology by eliminating [d_{n-1} | kernel of d_n] afresh: the
    kernel vectors whose columns become pivots after the coboundary
    columns are the representatives (degree 0 has no coboundary columns)."""
    d_n = differential_matrix(module, degree)
    kernel = d_n.kernel_basis()
    dim_z = len(kernel)
    if degree == 0:
        boundary_rows = [[] for _ in range(d_n.ncols)]
        dim_b = 0
    else:
        d_prev = differential_matrix(module, degree - 1)
        boundary_rows = d_prev.data
        dim_b = d_prev.rank()
    dim_h = dim_z - dim_b
    reps = []
    if dim_h > 0:
        nb = len(boundary_rows[0])
        stacked = Matrix(
            module.field,
            [row + [v[i] for v in kernel] for i, row in enumerate(boundary_rows)],
            nb + len(kernel),
        )
        _, pivots = stacked.rref()
        reps = [Cochain.unflatten(module, degree, kernel[p - nb]) for p in pivots if p >= nb]
    return CohomologyReport(degree, dim_z, dim_b, dim_h, reps)


# ---------------------------------------------------------------------------
# commutant oracle for degree 0


def reference_h0_dim(module):
    """dim H^0 as the dimension of the commutant {phi : phi A_i = A_i phi}:
    the d_r d_m^2 equations sum_k phi[r][k] A_i[k][c] - A_i[r][k] phi[k][c]
    = 0 in the d_m^2 unknowns phi[r][c] (row-major), written out entry by
    entry from the action matrices and ranked with oracle_rref."""
    F = module.field
    d_m = module.dim
    rows = []
    for act in module.action:
        a = act.data
        for r in range(d_m):
            for c in range(d_m):
                eq = [F.zero] * (d_m * d_m)
                for k in range(d_m):
                    eq[r * d_m + k] = F.reduce(eq[r * d_m + k] + a[k][c])
                    eq[k * d_m + c] = F.reduce(eq[k * d_m + c] - a[r][k])
                rows.append(eq)
    _, pivots = oracle_rref(Matrix(F, rows, d_m * d_m))
    return d_m * d_m - len(pivots)


# ---------------------------------------------------------------------------
# matrices and scalars


def matvec(mat: Matrix, v):
    """mat times the column vector v, as canonical scalars of mat's field."""
    assert len(v) == mat.ncols, "vector length does not match column count"
    F = mat.field
    return [F.reduce(sum((a * x for a, x in zip(row, v) if a and x), F.zero)) for row in mat.data]


def dense_product(a: Matrix, b: Matrix):
    """a times b by the schoolbook triple loop over dense rows, every term
    summed from the field's zero and reduced once."""
    assert a.field == b.field and a.ncols == b.nrows, "factors do not match"
    F = a.field
    bd = b.data
    out = [
        [F.reduce(sum((x * bd[k][j] for k, x in enumerate(row)), F.zero)) for j in range(b.ncols)]
        for row in a.data
    ]
    return Matrix(F, out, b.ncols)


def dense_sum(F, terms, nrows, ncols):
    """The nrows x ncols sum of c * m over (c, m) in terms, c a scalar or
    an int and m dense rows: each entry summed from the field's zero over
    the scalars and reduced once, with no Matrix arithmetic."""
    out = [
        [F.reduce(sum((c * m[r][s] for c, m in terms), F.zero)) for s in range(ncols)]
        for r in range(nrows)
    ]
    return Matrix(F, out, ncols)


def record_dense_reads(monkeypatch):
    """Patch Matrix.data to record each read as (the reading function's
    code object, nrows, ncols); returns the list they are recorded in."""
    reads = []
    view = Matrix.data

    def recorded(self):
        reads.append((sys._getframe(1).f_code, self.nrows, self.ncols))
        return view.fget(self)

    monkeypatch.setattr(Matrix, "data", property(recorded))
    return reads


def frac_mat(rows):
    return Matrix(QQ, [[Fraction(x) for x in row] for row in rows])


def random_fraction(rng, scale=4):
    num = rng.randint(-scale, scale)
    den = rng.choice((1, 1, 1, 2, 3))
    return Fraction(num, den)


def random_matrix(rng, nrows, ncols, density=0.7, scale=4):
    data = [
        [
            random_fraction(rng, scale) if rng.random() < density else Fraction(0)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]
    return Matrix(QQ, data, ncols)


def random_mod_matrix(rng, nrows, ncols, p, density=0.8):
    data = [
        [rng.randrange(p) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    return Matrix(PrimeField(p), data, ncols)


# ---------------------------------------------------------------------------
# catalog of exactly-valid algebra/module pairs


def truncated_poly_algebra(n):
    """Q[x]/(x^n), basis 1, x, ..., x^(n-1)."""
    zero, one = Fraction(0), Fraction(1)
    structure = [
        [
            [one if k == i + j else zero for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    unit = [one] + [zero] * (n - 1)
    return Algebra(QQ, structure, unit)


def jordan_module(n, d):
    """Q[x]/(x^n) acting on Q^d with x as the shift block (needs d <= n)."""
    return jordan_sum(n, (d,))


def jordan_sum(n, sizes):
    """Q[x]/(x^n) acting on the direct sum of the cyclic modules
    Q[x]/(x^a), a in sizes (each 1 <= a <= n): x acts by one shift block
    per summand, in the given order."""
    assert all(1 <= a <= n for a in sizes)
    alg = truncated_poly_algebra(n)
    d = sum(sizes)
    shift = Matrix.zeros(QQ, d, d).data
    offset = 0
    for a in sizes:
        for r in range(offset, offset + a - 1):
            shift[r][r + 1] = Fraction(1)
        offset += a
    s = Matrix(QQ, shift)
    action = [Matrix.identity(QQ, d)]
    for _ in range(1, n):
        action.append(action[-1] @ s)
    return alg, Module(alg, action)


def split_field_algebra(n):
    """Q x ... x Q with idempotent basis vectors."""
    zero, one = Fraction(0), Fraction(1)
    structure = [
        [
            [one if i == j == k else zero for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return Algebra(QQ, structure, [one] * n)


def projector_module(n, sizes):
    """Split field acting on Q^sum(sizes) by coordinate projectors."""
    assert len(sizes) == n
    alg = split_field_algebra(n)
    d = sum(sizes)
    action = []
    offset = 0
    for s in sizes:
        m = Matrix.zeros(QQ, d, d).data
        for i in range(offset, offset + s):
            m[i][i] = Fraction(1)
        action.append(Matrix(QQ, m))
        offset += s
    return alg, Module(alg, action)


def upper_triangular_pair():
    """Upper-triangular 2x2 matrices (dim 3) on their column space."""
    zero, one = Fraction(0), Fraction(1)
    # basis order: e11, e22, e12
    prods = {
        (0, 0): 0, (0, 2): 2,
        (1, 1): 1,
        (2, 1): 2,
    }
    structure = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), k in prods.items():
        structure[i][j][k] = one
    alg = Algebra(QQ, structure, [one, one, zero])
    action = [
        frac_mat([[1, 0], [0, 0]]),
        frac_mat([[0, 0], [0, 1]]),
        frac_mat([[0, 1], [0, 0]]),
    ]
    return alg, Module(alg, action)


def kronecker_pair():
    """The Kronecker algebra (basis e1, e2, a, b: two arrows from vertex 1
    to vertex 2, so that e2 a e1 = a and e2 b e1 = b) on Q^2, a acting by
    E_21 and b by 2 E_21. Its dims H^0, H^1, H^2 are 1, 1, 0."""
    zero, one = Fraction(0), Fraction(1)
    structure = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    for (i, j), k in {(0, 0): 0, (1, 1): 1, (1, 2): 2, (2, 0): 2, (1, 3): 3, (3, 0): 3}.items():
        structure[i][j][k] = one
    alg = Algebra(QQ, structure, [one, one, zero, zero])
    action = [
        frac_mat([[1, 0], [0, 0]]),
        frac_mat([[0, 0], [0, 1]]),
        frac_mat([[0, 0], [1, 0]]),
        frac_mat([[0, 0], [2, 0]]),
    ]
    return alg, Module(alg, action)


def rescale(alg: Algebra, mod: Module, alg_scales, mod_scales):
    """The pair in the bases c_i e_i of the algebra and s_m v_m of the
    module, for nonzero rationals c = alg_scales and s = mod_scales."""
    c, s = [Fraction(x) for x in alg_scales], [Fraction(x) for x in mod_scales]
    n = alg.dim
    structure = [
        [[c[i] * c[j] / c[k] * x for k, x in enumerate(alg.structure[i][j])] for j in range(n)]
        for i in range(n)
    ]
    unit = [x / c[k] for k, x in enumerate(alg.unit)]
    new_alg = Algebra(QQ, structure, unit)
    action = [
        Matrix(QQ, [[c[i] * x * s[k] / s[j] for k, x in enumerate(row)] for j, row in enumerate(m.data)])
        for i, m in enumerate(mod.action)
    ]
    return new_alg, Module(new_alg, action)


def matrix_units_pair():
    from moddef.fixtures import fixture_b

    return fixture_b()


def catalog_pairs():
    from moddef.fixtures import fixture_a, fixture_c

    return [
        fixture_a(),
        fixture_c(),
        jordan_module(2, 2),
        jordan_module(3, 3),
        jordan_module(3, 2),
        jordan_module(4, 3),
        projector_module(2, (1, 1)),
        projector_module(2, (2, 1)),
        projector_module(3, (1, 1, 1)),
        upper_triangular_pair(),
        matrix_units_pair(),
    ]


# ---------------------------------------------------------------------------
# random basis changes (unimodular, exact inverses)


def random_unimodular(rng, n, shears=4):
    """Product of elementary shears; returns (P, P_inverse) exactly."""
    p = Matrix.identity(QQ, n)
    pinv = Matrix.identity(QQ, n)
    for _ in range(shears):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = Fraction(rng.choice((-2, -1, 1, 2)))
        shear = Matrix.identity(QQ, n).data
        shear[i][j] = c
        unshear = Matrix.identity(QQ, n).data
        unshear[i][j] = -c
        p = p @ Matrix(QQ, shear)
        pinv = Matrix(QQ, unshear) @ pinv
    return p, pinv


def change_basis(alg: Algebra, mod: Module, rng):
    """Conjugate structure constants and action matrices by random
    unimodular matrices; validity is preserved exactly."""
    n = alg.dim
    p, pinv = random_unimodular(rng, n)
    zero = Fraction(0)
    structure = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            # old coordinates of the product of new basis vectors a and b
            old = [zero] * n
            for i in range(n):
                pia = p.data[i][a]
                if not pia:
                    continue
                for j in range(n):
                    pjb = p.data[j][b]
                    if not pjb:
                        continue
                    coef = pia * pjb
                    for k, c in enumerate(alg.structure[i][j]):
                        if c:
                            old[k] += coef * c
            structure[a][b] = matvec(pinv, old)
    unit = matvec(pinv, alg.unit)
    new_alg = Algebra(QQ, structure, unit)
    q, qinv = random_unimodular(rng, mod.dim)
    action = []
    for a in range(n):
        acc = Matrix.zeros(QQ, mod.dim, mod.dim)
        for i in range(n):
            pia = p.data[i][a]
            if pia:
                acc = acc + mod.action[i].scale(pia)
        action.append(qinv @ acc @ q)
    return new_alg, Module(new_alg, action)


def over_prime(alg: Algebra, mod: Module, p):
    """The same pair with every rational constant reduced modulo p
    (denominators must be prime to p)."""
    F = PrimeField(p)

    def red(x):
        return x.numerator * pow(x.denominator, -1, p) % p

    structure = [[[red(c) for c in coords] for coords in row] for row in alg.structure]
    new_alg = Algebra(F, structure, [red(c) for c in alg.unit])
    action = [Matrix(F, [[red(x) for x in row] for row in m.data], m.ncols) for m in mod.action]
    return new_alg, Module(new_alg, action)


def random_pair(rng, max_dim_r=4, max_dim_m=3):
    """A random exactly-valid (algebra, module) pair within the bounds."""
    pool = [
        (a, m) for a, m in catalog_pairs() if a.dim <= max_dim_r and m.dim <= max_dim_m
    ]
    alg, mod = pool[rng.randrange(len(pool))]
    return change_basis(alg, mod, rng)


# ---------------------------------------------------------------------------
# random cochains, cocycles, deformations, automorphisms


def random_cochain(mod, degree, rng, density=0.4, scale=3):
    """Random values on about a density share of the tuples: small
    fractions over Q, uniform residues over F_p."""
    d_r, d_m, p = mod.algebra.dim, mod.dim, mod.field.p
    entries = {}
    for key in product(range(d_r), repeat=degree):
        if rng.random() < density:
            if p is None:
                entries[key] = random_matrix(rng, d_m, d_m, density=0.6, scale=scale)
            else:
                entries[key] = random_mod_matrix(rng, d_m, d_m, p, density=0.6)
    return Cochain(mod, degree, entries)


def random_cocycle(mod, rng, scale=3):
    """Random element of the degree-1 kernel via the assembled operator,
    over the module's field."""
    F = mod.field
    basis = differential_matrix(mod, 1).kernel_basis()
    vec = [F.zero] * (mod.algebra.dim * mod.dim * mod.dim)
    for b in basis:
        c = F.parse(str(rng.randint(-scale, scale)))
        if c:
            vec = [F.reduce(v + c * x) for v, x in zip(vec, b)]
    return Cochain.unflatten(mod, 1, vec)


def random_coboundary(mod, rng, scale=3):
    from moddef.cochain import differential

    phi = random_matrix(rng, mod.dim, mod.dim, density=0.8, scale=scale)
    return differential(Cochain(mod, 0, {(): phi}))


def random_automorphism(mod, order, rng, scale=2):
    return FormalAutomorphism(
        mod,
        [random_matrix(rng, mod.dim, mod.dim, density=0.6, scale=scale) for _ in range(order)],
    )


# ---------------------------------------------------------------------------
# truncated polynomial arithmetic with matrix coefficients


def poly_mat_mul(a, b, order):
    """Coefficient list of the product of two matrix polynomials, truncated:
    order + 1 terms, each the dense_sum of dense_product terms."""
    F, dim = a[0].field, a[0].nrows
    terms = [[] for _ in range(order + 1)]
    for i, ai in enumerate(a[: order + 1]):
        for j, bj in enumerate(b[: order + 1 - i]):
            terms[i + j].append((1, dense_product(ai, bj).data))
    return [dense_sum(F, t, dim, dim) for t in terms]


def deformation_value_series(d: ApproximateDeformation, basis_index):
    """Coefficient list of the deformed action of a basis element."""
    return [d.module.action[basis_index]] + [t.value((basis_index,)) for t in d.terms]


def reference_series_inverse(a, order):
    """Coefficient list of the inverse of the matrix polynomial a, whose
    term 0 is the identity, truncated: psi_0 = 1 and psi_n = -sum_{i=1..n}
    a_i psi_{n-i}, each product from dense_product and the sum dense_sum."""
    F, dim = a[0].field, a[0].nrows
    assert a[0] == Matrix.identity(F, dim), "term 0 is not the identity"
    psi = [a[0]]
    for n in range(1, order + 1):
        terms = [(-1, dense_product(a[i], psi[n - i]).data) for i in range(1, min(n, len(a) - 1) + 1)]
        psi.append(dense_sum(F, terms, dim, dim))
    return psi


def automorphism_polynomial(phi: FormalAutomorphism):
    """Coefficient list 1, phi_1, ..., phi_m of a truncated automorphism."""
    return [Matrix.identity(phi.module.field, phi.module.dim)] + list(phi.terms)


def reference_conjugate(phi: FormalAutomorphism, d: ApproximateDeformation):
    """Per basis element a, the coefficient list of Psi xi_a Phi truncated
    at the order of d, Phi = 1 + t phi_1 + ... and Psi its reference
    inverse: the conjugated action as the triple product of polynomials."""
    m = d.order
    big_phi = automorphism_polynomial(phi)
    big_psi = reference_series_inverse(big_phi, m)
    return [
        poly_mat_mul(poly_mat_mul(big_psi, deformation_value_series(d, a), m), big_phi, m)
        for a in range(d.module.algebra.dim)
    ]


def from_value_series(module, series):
    """The deformation whose term n takes value series[a][n] at basis a."""
    return ApproximateDeformation(
        module,
        [
            Cochain(module, 1, {(a,): s[n] for a, s in enumerate(series)})
            for n in range(1, len(series[0]))
        ],
    )


def reference_normalize(d: ApproximateDeformation):
    """normalize by its definition, on coefficient lists: while the leading
    nonzero term l is the coboundary of the canonical witness g, conjugate
    every basis element's series by 1 - t^l g through reference_conjugate,
    and multiply the composite automorphism by that step with poly_mat_mul.
    Returns (deformation, composite terms, leading): no composite terms when
    no step is taken, d.order of them otherwise."""
    mod, m = d.module, d.order
    current, composite = d, [Matrix.identity(mod.field, mod.dim)]
    while True:
        lead = next((n for n, t in enumerate(current.terms, 1) if not t.is_zero()), None)
        if lead is None:
            break
        witness = coboundary_witness(current.terms[lead - 1])
        if witness is None:
            break
        zero, g = mod.zero_operator(), witness.value(())
        minus_g = dense_sum(mod.field, [(-1, g.data)], g.nrows, g.ncols)
        step = FormalAutomorphism(mod, [zero] * (lead - 1) + [minus_g])
        current = from_value_series(mod, reference_conjugate(step, current))
        composite = poly_mat_mul(composite, automorphism_polynomial(step), m)
    return current, composite[1:], lead
