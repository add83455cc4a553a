"""Seeded inputs for the benchmark, built without importing moddef.

The algebra/module pairs, basis changes, cocycles, coboundaries and
deformations are constructed here with plain ``Fraction`` arithmetic, so
the program under test only ever sees serialized problem documents.

A pair is ``(structure, unit, action)``: ``structure[i][j]`` is the
coordinate vector of ``e_i e_j``, ``unit`` the coordinates of 1, and
``action[i]`` the matrix by which ``e_i`` acts.

How the seed is used. A change of basis can multiply the cost of exact
rational elimination by ten (coefficients grow), so a seed that drew fresh
dense basis changes would make runs with different seeds do very different
amounts of work. The dense basis changes and the random coboundaries are
therefore drawn once from fixed generator seeds and are part of the
benchmark's definition. The run seed then picks, for every operation, one
of ``SIGN_VARIANTS`` sign changes of the bases (e_i -> +-e_i, which turns
every exact number in the computation into plus or minus itself and so
keeps the work identical while changing the input and output bytes), and
the order in which the operations run.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product

SIGN_VARIANTS = 8
P_SMALL = 10007
P_BIG = 2**61 - 1
FIELDS = ("Q", f"F{P_SMALL}", f"F{P_BIG}")

ZERO = Fraction(0)
ONE = Fraction(1)

# ---------------------------------------------------------------------------
# exact matrices as lists of rows of Fractions


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(n, m=None):
    return [[ZERO] * (n if m is None else m) for _ in range(n)]


def matmul(a, b):
    out = [[ZERO] * len(b[0]) for _ in range(len(a))]
    for i, arow in enumerate(a):
        orow = out[i]
        for k, x in enumerate(arow):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        orow[j] += x * y
    return out


def add(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def sub(a, b):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def scale(c, a):
    return [[c * x for x in r] for r in a]


def is_zero(a):
    return not any(x for r in a for x in r)


def add_values(a, b):
    return [add(x, y) for x, y in zip(a, b)]


def frac_mat(rows):
    return [[Fraction(x) for x in r] for r in rows]


def combine(mats, coords):
    """sum_i coords[i] * mats[i]."""
    n = len(mats[0])
    out = zeros(n)
    for c, m in zip(coords, mats):
        if c:
            out = add(out, scale(c, m))
    return out


def rref(rows, ncols):
    """Gauss-Jordan over Q on a copy; returns (rows, pivots)."""
    rows = [r[:] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def kernel(rows, ncols):
    red, pivots = rref(rows, ncols)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [ZERO] * ncols
        v[j] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][j]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One solution of rows x = rhs (free variables zero), or None."""
    n = len(rows[0])
    red, pivots = rref([r + [b] for r, b in zip(rows, rhs)], n + 1)
    if pivots and pivots[-1] == n:
        return None
    x = [ZERO] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return x


# ---------------------------------------------------------------------------
# natural-basis pairs


def dual_numbers():
    return [[[ONE, ZERO], [ZERO, ONE]], [[ZERO, ONE], [ZERO, ZERO]]], [ONE, ZERO]


def fixture_c():
    """Dual numbers on a plane, x acting by the nilpotent Jordan block."""
    structure, unit = dual_numbers()
    return structure, unit, [frac_mat([[1, 0], [0, 1]]), frac_mat([[0, 1], [0, 0]])]


def matrix_units():
    """2x2 matrix algebra (basis e11, e12, e21, e22) on column vectors."""
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    structure = [[[ZERO] * 4 for _ in range(4)] for _ in range(4)]
    for (p, q), i in idx.items():
        for (r, s), j in idx.items():
            if q == r:
                structure[i][j][idx[(p, s)]] = ONE
    action = []
    for (p, q) in idx:
        m = zeros(2)
        m[p - 1][q - 1] = ONE
        action.append(m)
    return structure, [ONE, ZERO, ZERO, ONE], action


def truncated_poly(n):
    structure = [[[ONE if k == i + j else ZERO for k in range(n)] for j in range(n)] for i in range(n)]
    return structure, [ONE] + [ZERO] * (n - 1)


def jordan_module(n, d):
    """Q[x]/(x^n) on Q^d, x acting by the d x d shift block (d <= n)."""
    structure, unit = truncated_poly(n)
    shift = [[ONE if c == r + 1 else ZERO for c in range(d)] for r in range(d)]
    action = [identity(d)]
    for _ in range(1, n):
        action.append(matmul(action[-1], shift))
    return structure, unit, action


def projector_module(n, sizes):
    """Q^n (componentwise) on Q^sum(sizes) by coordinate projectors."""
    structure = [[[ONE if i == j == k else ZERO for k in range(n)] for j in range(n)] for i in range(n)]
    d = sum(sizes)
    action = []
    offset = 0
    for s in sizes:
        m = zeros(d)
        for i in range(offset, offset + s):
            m[i][i] = ONE
        action.append(m)
        offset += s
    return structure, [ONE] * n, action


def upper_triangular():
    """Upper-triangular 2x2 matrices (basis e11, e22, e12) on columns."""
    structure = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), k in {(0, 0): 0, (0, 2): 2, (1, 1): 1, (2, 1): 2}.items():
        structure[i][j][k] = ONE
    action = [frac_mat([[1, 0], [0, 0]]), frac_mat([[0, 0], [0, 1]]), frac_mat([[0, 1], [0, 0]])]
    return structure, [ONE, ONE, ZERO], action


PAIRS = {
    "C": fixture_c,
    "B": matrix_units,
    "UT": upper_triangular,
    "J33": lambda: jordan_module(3, 3),
    "J43": lambda: jordan_module(4, 3),
    "J44": lambda: jordan_module(4, 4),
    "P3": lambda: projector_module(3, (2, 1, 1)),
    "P2": lambda: projector_module(2, (2, 1)),
}

# Cohomology dimensions H0, H1, ... of each pair in its natural basis.
# These are basis-independent and equal over Q and over the primes used
# here; the benchmark checks every reported dimension against them.
DIMS = {
    "C": (2, 0, 0, 0),
    "B": (1, 0, 0, 0),
    "UT": (1, 0, 0, 0),
    "J33": (3, 0, 0, 0),
    "J43": (3, 1, 1, 1),
    "J44": (4, 0, 0),
    "P3": (6, 0, 0, 0),
    "P2": (5, 0, 0, 0),
}

# ---------------------------------------------------------------------------
# changes of basis


def random_unimodular(rng, n, shears=2):
    """Product of elementary shears with exact inverse: (P, P^-1)."""
    p, pinv = identity(n), identity(n)
    for _ in range(shears):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.choice((-1, 1)))
        s, u = identity(n), identity(n)
        s[i][j], u[i][j] = c, -c
        p, pinv = matmul(p, s), matmul(u, pinv)
    return p, pinv


def signs(rng, n):
    d = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = Fraction(rng.choice((-1, 1)))
    return d, d


def transform_structure(structure, unit, p, pinv):
    n = len(unit)
    new = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            old = [ZERO] * n
            for i in range(n):
                if p[i][a]:
                    for j in range(n):
                        if p[j][b]:
                            c = p[i][a] * p[j][b]
                            for k, s in enumerate(structure[i][j]):
                                if s:
                                    old[k] += c * s
            new[a][b] = [sum((pinv[k][i] * old[i] for i in range(n)), ZERO) for k in range(n)]
    new_unit = [sum((pinv[k][i] * unit[i] for i in range(n)), ZERO) for k in range(n)]
    return new, new_unit


def transform_values(values, p, q, qinv):
    """Operator values of a degree-1 cochain (or the action) in the new
    bases: v'(e'_a) = Q^-1 (sum_i P[i][a] v(e_i)) Q."""
    n = len(values)
    return [matmul(matmul(qinv, combine(values, [p[i][a] for i in range(n)])), q) for a in range(n)]


class Basis:
    """A change of algebra basis (P) and module basis (Q)."""

    def __init__(self, p, pinv, q, qinv):
        self.p, self.pinv, self.q, self.qinv = p, pinv, q, qinv

    def then(self, other):
        return Basis(
            matmul(self.p, other.p), matmul(other.pinv, self.pinv),
            matmul(self.q, other.q), matmul(other.qinv, self.qinv),
        )

    def pair(self, pair):
        structure, unit, action = pair
        structure, unit = transform_structure(structure, unit, self.p, self.pinv)
        return structure, unit, transform_values(action, self.p, self.q, self.qinv)

    def cochain(self, values):
        return transform_values(values, self.p, self.q, self.qinv)


def natural(pair):
    n, d = len(pair[1]), len(pair[2][0])
    return Basis(identity(n), identity(n), identity(d), identity(d))


def sign_basis(pair, variant, tag):
    """The variant-th sign change of the bases of pair (variant 0 is the
    identity); tag keeps different operations' sign choices apart."""
    n, d = len(pair[1]), len(pair[2][0])
    if variant == 0:
        return natural(pair)
    rng = random.Random(f"signs:{tag}:{variant}")
    return Basis(*signs(rng, n), *signs(rng, d))


def dense_basis(pair, tag):
    """A fixed dense change of basis of pair, drawn from the tag."""
    rng = random.Random(f"dense:{tag}")
    n, d = len(pair[1]), len(pair[2][0])
    return Basis(*random_unimodular(rng, n), *random_unimodular(rng, d))


# ---------------------------------------------------------------------------
# cochains, cocycles and deformations in a fixed basis


def d0(pair, phi):
    """Coboundary of the operator phi: a -> rho(a) phi - phi rho(a)."""
    return [sub(matmul(r, phi), matmul(phi, r)) for r in pair[2]]


def d1_matrix(pair):
    """Degree-1 differential, tuple-major then row-major coordinates:
    (d s)(a, b) = rho(a) s(b) - s(ab) + s(a) rho(b)."""
    structure, _, action = pair
    n, d = len(action), len(action[0])
    cols = []
    for a0, r, c in product(range(n), range(d), range(d)):
        s = [zeros(d) for _ in range(n)]
        s[a0][r][c] = ONE
        cols.append(flatten2(degree1_to_2(pair, s), n))
    return [list(row) for row in zip(*cols)], n * d * d


def degree1_to_2(pair, s):
    structure, _, action = pair
    n = len(action)
    out = {}
    for a in range(n):
        for b in range(n):
            v = add(matmul(action[a], s[b]), matmul(s[a], action[b]))
            out[(a, b)] = sub(v, combine(s, structure[a][b]))
    return out


def flatten1(s):
    return [x for m in s for r in m for x in r]


def unflatten1(vec, n, d):
    return [[vec[a * d * d + r * d: a * d * d + r * d + d] for r in range(d)] for a in range(n)]


def flatten2(values, n):
    return [x for a in range(n) for b in range(n) for r in values[(a, b)] for x in r]


def obstruction(pair, terms):
    """(a, b) -> sum_{i=1..m} xi_i(a) xi_{m+1-i}(b)."""
    n, d = len(pair[2]), len(pair[2][0])
    m = len(terms)
    out = {}
    for a in range(n):
        for b in range(n):
            acc = zeros(d)
            for i in range(1, m + 1):
                acc = add(acc, matmul(terms[i - 1][a], terms[m - i][b]))
            out[(a, b)] = acc
    return out


def nontrivial_cocycle(pair, rng):
    """A degree-1 cocycle with nonzero class plus a random coboundary."""
    n, d = len(pair[2]), len(pair[2][0])
    d1, ncols = d1_matrix(pair)
    cocycles = kernel(d1, ncols)
    boundaries = [flatten1(d0(pair, unit_op(d, r, c))) for r in range(d) for c in range(d)]
    base_rank = len(rref([list(x) for x in zip(*boundaries)], len(boundaries))[1])
    for z in cocycles:
        cols = boundaries + [z]
        if len(rref([list(x) for x in zip(*cols)], len(cols))[1]) > base_rank:
            phi = random_op(rng, d)
            return [add(m, b) for m, b in zip(unflatten1(z, n, d), d0(pair, phi))]
    raise ValueError("pair has no nontrivial degree-1 class")


def extend(pair, terms):
    """One more term solving d(xi) = -obstruction, or None."""
    n, d = len(pair[2]), len(pair[2][0])
    d1, _ = d1_matrix(pair)
    x = solve(d1, [-v for v in flatten2(obstruction(pair, terms), n)])
    return None if x is None else unflatten1(x, n, d)


def unit_op(d, r, c):
    m = zeros(d)
    m[r][c] = ONE
    return m


def random_op(rng, d, scale=2):
    return [
        [Fraction(rng.randint(-scale, scale), rng.choice((1, 1, 2))) if rng.random() < 0.7 else ZERO
         for _ in range(d)]
        for _ in range(d)
    ]


def conjugation_deformation(pair, phi, order):
    """Terms of g^-1 rho g with g = 1 + t phi, truncated: a deformation
    of any order whose first term is the coboundary d0(phi)."""
    action = pair[2]
    d = len(action[0])
    neg = scale(-ONE, phi)
    powers = [identity(d)]
    for _ in range(order):
        powers.append(matmul(powers[-1], neg))
    terms = []
    for k in range(1, order + 1):
        terms.append(
            [sub(matmul(powers[k], r), matmul(matmul(powers[k - 1], r), neg)) for r in action]
        )
    return terms


def multiplicative(pair, terms, field):
    """Independent check of the deformation relations
    xi_n(e_a e_b) = sum_{i+j=n} xi_i(e_a) xi_j(e_b) for n <= order, with
    pair and terms given in the field's own scalars."""
    structure, _, action = pair
    n, d = len(action), len(action[0])
    p = None if field == "Q" else int(field[1:])
    series = [action] + list(terms)
    for k in range(len(series)):
        for a in range(n):
            for b in range(n):
                lhs = combine(series[k], structure[a][b])
                rhs = zeros(d)
                for i in range(k + 1):
                    rhs = add(rhs, matmul(series[i][a], series[k - i][b]))
                if p is not None:
                    lhs = [[x % p for x in r] for r in lhs]
                    rhs = [[x % p for x in r] for r in rhs]
                if lhs != rhs:
                    return False
    return True


# ---------------------------------------------------------------------------
# serialization


def fmt(x, field):
    x = Fraction(x)
    if field == "Q":
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    p = int(field[1:])
    return str(x.numerator * pow(x.denominator, -1, p) % p)


def enc_mat(m, field):
    return [[fmt(x, field) for x in r] for r in m]


def enc_cochain1(values, field):
    return [{"tuple": [a], "matrix": enc_mat(m, field)} for a, m in enumerate(values) if not is_zero(m)]


def document(pair, field, options, cochain=None, deformation=None, deformation2=None):
    structure, unit, action = pair
    doc = {
        "field": field,
        "algebra": {
            "dim": len(unit),
            "structure": [[[fmt(x, field) for x in v] for v in row] for row in structure],
            "unit": [fmt(x, field) for x in unit],
        },
        "module": {"dim": len(action[0]), "action": [enc_mat(m, field) for m in action]},
        "options": options,
    }
    if cochain is not None:
        doc["cochain"] = {"degree": 1, "entries": enc_cochain1(cochain, field)}
    for key, terms in (("deformation", deformation), ("deformation2", deformation2)):
        if terms is not None:
            doc[key] = {"order": len(terms), "terms": [enc_cochain1(t, field) for t in terms]}
    return json.dumps(doc, sort_keys=True)


def decode_scalar(text, field):
    return Fraction(text) if field == "Q" else Fraction(int(text))


def decode_pair(doc):
    """(structure, unit, action) of a problem document, in its field."""
    field = doc["field"]
    alg, mod = doc["algebra"], doc["module"]

    def vec(v):
        return [decode_scalar(x, field) for x in v]

    structure = [[vec(v) for v in row] for row in alg["structure"]]
    return structure, vec(alg["unit"]), [[vec(r) for r in m] for m in mod["action"]]


def decode_deformation(payload, field, n, d):
    """Terms of an encoded deformation as lists of operator values."""
    terms = []
    for entries in payload["terms"]:
        values = [zeros(d) for _ in range(n)]
        for e in entries:
            values[e["tuple"][0]] = [[decode_scalar(x, field) for x in r] for r in e["matrix"]]
        terms.append(values)
    return terms


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
