"""The graded complex of multilinear operator-valued cochains.

A degree-n cochain assigns an operator on the module to every n-tuple of
algebra basis elements (degree 0 is a single operator) and extends
linearly. Entries are stored sparsely: an absent tuple means the zero
operator.

The differential of a degree-n cochain f evaluates on (a0, ..., an) as

    a0 . f(a1, ..., an)
      + sum_{i=1..n} (-1)^i f(a0, ..., a_{i-1} a_i, ..., an)
      + (-1)^{n+1} f(a0, ..., a_{n-1}) . an

where the dot is the module action on either side and basis products
expand through the structure constants. Cocycles in degree 1 are exactly
the directions in which the module structure can move to first order;
degree-2 classes carry the obstructions.

Flattening convention, fixed for reproducibility: coordinates are indexed
by basis tuples in lexicographic order (tuple-major), then operator
entries in row-major order. Cohomology representatives and witnesses are
canonical with respect to this order.
"""

from dataclasses import dataclass
from itertools import product

from .algebra import Module, require_valid
from .errors import InputError, ResourceError
from .fields import integral
from .linalg import Matrix, reduce_rows, solve

# Largest differential matrix (rows x cols) that differential_matrix will
# build: 2**24 cells. The matrix is sparse, but the cells bound the work of
# eliminating it and of the dense kernel vectors that cohomology and the
# certificate emit from it.
MAX_DIFFERENTIAL_CELLS = 2**24


class Cochain:
    """Sparse degree-n cochain with operator values."""

    def __init__(self, module: Module, degree: int, entries=None):
        if degree < 0:
            raise InputError("cochain degree must be >= 0")
        self.module = module
        self.degree = degree
        self.entries = {}
        if entries:
            d_r = module.algebra.dim
            for key, mat in entries.items():
                key = tuple(key)
                if len(key) != degree:
                    raise InputError(f"tuple {key} has arity {len(key)}, expected {degree}")
                if any(i < 0 or i >= d_r for i in key):
                    raise InputError(f"tuple {key} has an index outside the basis")
                if mat.nrows != module.dim or mat.ncols != module.dim:
                    raise InputError(
                        f"value at {key} is {mat.nrows}x{mat.ncols}, expected "
                        f"{module.dim}x{module.dim}"
                    )
                if mat.field != module.field:
                    raise InputError(f"value at {key} is over {mat.field.name}, not {module.field.name}")
                if not mat.is_zero():
                    self.entries[key] = mat

    def value(self, key) -> Matrix:
        key = tuple(key)
        got = self.entries.get(key)
        return got if got is not None else self.module.zero_operator()

    def support(self):
        return sorted(self.entries)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.module == other.module
            and self.degree == other.degree
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Cochain(degree={self.degree}, support={len(self.entries)})"

    def _check_compatible(self, other):
        if self.module != other.module:
            raise InputError("cochains live over different modules")
        if self.degree != other.degree:
            raise InputError("cochain degrees differ")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.entries)
        for key, mat in other.entries.items():
            cur = out.get(key)
            out[key] = mat if cur is None else cur + mat
        return Cochain(self.module, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Cochain(self.module, self.degree, {k: -m for k, m in self.entries.items()})

    def scale(self, c):
        return Cochain(
            self.module, self.degree, {k: m.scale(c) for k, m in self.entries.items()}
        )

    def first_nonzero(self):
        """(tuple, row, col, value) of the first entry in coordinate order,
        or None for the zero cochain."""
        for key in self.support():
            for r, row in enumerate(self.entries[key].rows):
                if row:
                    c, value = row[0]
                    return key, r, c, value
        return None

    def flatten(self):
        """Coordinate vector in the documented order."""
        d_r = self.module.algebra.dim
        d_m = self.module.dim
        out = [self.module.field.zero] * (d_r**self.degree * d_m * d_m)
        for key, mat in self.entries.items():
            base = _tuple_index(key, d_r) * d_m * d_m
            for r, row in enumerate(mat.rows):
                for c, v in row:
                    out[base + r * d_m + c] = v
        return out

    @classmethod
    def unflatten(cls, module, degree, vec):
        d_r = module.algebra.dim
        d_m = module.dim
        expected = d_r**degree * d_m * d_m
        if len(vec) != expected:
            raise InputError(f"vector length {len(vec)} != {expected}")
        entries = {}
        for t, key in enumerate(product(range(d_r), repeat=degree)):
            base = t * d_m * d_m
            block = [
                [vec[base + r * d_m + c] for c in range(d_m)] for r in range(d_m)
            ]
            entries[key] = Matrix(module.field, block, d_m)
        return cls(module, degree, entries)


def _tuple_index(key, d_r):
    idx = 0
    for t in key:
        idx = idx * d_r + t
    return idx


class _Stencil:
    """The terms of the coboundary formula for degree-n cochains over one
    module, built from the nonzeros of the action matrices and of the
    structure constants by each differential call and each assembly of a
    d_n, since it costs microseconds. The image of the unit
    coordinate (t, r, c) (tuple index t, operator entry (r, c)) is read off
    three lists, each entry a row offset and a field value:

    - head[r], the a . f terms: column r of each A_a, at row
      t d_m^2 + c + offset;
    - tail[c], the (-1)^(n+1) f . a terms: row c of each A_a, signed by the
      degree's parity, at row t d_r d_m^2 + r d_m + offset;
    - middle(t, key), the (-1)^i f(..., a_{i-1} a_i, ...) terms of one
      tuple, at row offset + r d_m + c.

    Every entry is nonzero, so only the cells where two terms meet are
    summed, reduced and tested. Over Q an integral action entry is held
    as an int, as ``Algebra.products`` holds an integral structure
    constant, so the d_n of an integral pair is assembled from ints
    alone."""

    def __init__(self, module, degree):
        F = module.field
        d_r, d_m = module.algebra.dim, module.dim
        self.d_r, self.d_m, self.m2 = d_r, d_m, d_m * d_m
        self.degree = degree
        self.reduce = F.reduce
        head_step = d_r**degree * self.m2  # from (key) to (a,) + key
        self.head = [[] for _ in range(d_m)]
        self.tail = [[] for _ in range(d_m)]
        negate = degree % 2 == 0
        for a, act in enumerate(module.action):
            for j, row in enumerate(act.rows):
                for k, v in row:
                    v = integral(v)
                    self.head[k].append((a * head_step + j * d_m, v))
                    self.tail[j].append((a * self.m2 + k, F.reduce(-v) if negate else v))
        # e_a e_b has a k component: (flat index of (a, b), coef, -coef) per k
        self.products = [
            [(a * d_r + b, coef, F.reduce(-coef)) for a, b, coef in support]
            for support in module.algebra.product_support
        ]

    def middle(self, t, key):
        """The middle terms of tuple key, whose index is t, summed per
        output tuple (different positions i can reach the same one), zero
        sums dropped."""
        d_r, m2, reduce = self.d_r, self.m2, self.reduce
        out = {}
        w = d_r**self.degree
        for i in range(1, self.degree + 1):
            w //= d_r  # d_r^(n-i), the weight of the digits after position i
            high, low = divmod(t, w * d_r)
            high *= d_r * d_r
            low %= w
            for ab, coef, neg in self.products[key[i - 1]]:
                off = ((high + ab) * w + low) * m2
                v = neg if i % 2 else coef
                old = out.get(off)
                out[off] = v if old is None else reduce(old + v)
        return [(off, v) for off, v in out.items() if v]

    def column(self, t, middle, r, c):
        """The image of the unit coordinate (t, r, c) as {row: value},
        nonzero values only; middle is self.middle of tuple t."""
        reduce = self.reduce
        base = t * self.m2 + c
        acc = {base + off: v for off, v in self.head[r]}
        for terms, base in (
            (self.tail[c], (t * self.d_r * self.d_m + r) * self.d_m),
            (middle, r * self.d_m + c),
        ):
            for off, v in terms:
                row = base + off
                old = acc.get(row)
                if old is None:
                    acc[row] = v
                else:
                    v = reduce(old + v)
                    if v:
                        acc[row] = v
                    else:
                        del acc[row]
        return acc


def differential(f: Cochain) -> Cochain:
    """Degree n -> n+1: the stencil's column of every nonzero coordinate
    of f, scaled and summed into sparse output blocks of row accumulators;
    over F_p each block is reduced once, when it becomes a matrix."""
    mod = f.module
    F = mod.field
    zero = F.zero
    d_r, d_m = mod.algebra.dim, mod.dim
    m2 = d_m * d_m
    n = f.degree + 1
    st = _Stencil(mod, f.degree)
    blocks = {}
    for key, mat in f.entries.items():
        t = _tuple_index(key, d_r)
        middle = st.middle(t, key)
        for r, row in enumerate(mat.rows):
            for c, x in row:
                for idx, v in st.column(t, middle, r, c).items():
                    tb, rem = divmod(idx, m2)
                    if tb not in blocks:
                        blocks[tb] = [{} for _ in range(d_m)]
                    i, j = divmod(rem, d_m)
                    acc = blocks[tb][i]
                    acc[j] = acc.get(j, zero) + x * v
    entries = {
        tuple(t // d_r ** (n - 1 - j) % d_r for j in range(n)):
            Matrix.sparse(F, reduce_rows(F, block), d_m)
        for t, block in blocks.items()
    }
    return Cochain(mod, n, entries)


def is_cocycle(f: Cochain) -> bool:
    return differential(f).is_zero()


def differential_matrix(module, degree) -> Matrix:
    """The degree-n differential as a sparse matrix in the flattening
    order, mapping degree-n coordinates to degree-(n+1) coordinates.
    Refuses, before assembling, a matrix of more than
    MAX_DIFFERENTIAL_CELLS cells.

    Each column is the stencil's column of its unit coordinate, nonzeros
    only, appended as (column, value) onto plain row lists. Columns are
    visited in order, so every row lists its columns in increasing order.

    Assembled once per (module, degree) and kept on the module, so every
    witness, certificate and rank over that module shares one matrix and
    its factorisation. Callers must not mutate it."""
    if degree < 0:
        raise InputError("degree must be >= 0")
    d_r = module.algebra.dim
    d_m = module.dim
    nrows = d_r ** (degree + 1) * d_m * d_m
    ncols = d_r**degree * d_m * d_m
    if nrows * ncols > MAX_DIFFERENTIAL_CELLS:
        raise ResourceError(
            f"the degree-{degree} differential would be {nrows}x{ncols}, "
            f"over the limit of {MAX_DIFFERENTIAL_CELLS} cells"
        )
    cached = module._differentials.get(degree)
    if cached is not None:
        return cached
    st = _Stencil(module, degree)
    rows = [[] for _ in range(nrows)]
    col = 0
    for t, key in enumerate(product(range(d_r), repeat=degree)):
        middle = st.middle(t, key)
        for r in range(d_m):
            for c in range(d_m):
                for row, v in st.column(t, middle, r, c).items():
                    rows[row].append((col, v))
                col += 1
    out = Matrix.sparse(module.field, rows, ncols)
    module._differentials[degree] = out
    return out


def coboundary_witness(f: Cochain):
    """The canonical g one degree down with differential(g) = f, or None.
    Free variables of the underlying linear system are set to zero."""
    if f.degree < 1:
        raise InputError("coboundary witnesses exist in degree >= 1 only")
    d = differential_matrix(f.module, f.degree - 1)
    x = solve(d, f.flatten())
    if x is None:
        return None
    return Cochain.unflatten(f.module, f.degree - 1, x)


def cokernel_certificate(f: Cochain):
    """When f has no coboundary witness, a functional annihilating the
    image of the differential but not f: returns (vector y, y . f) with
    y orthogonal to every column of the differential matrix and pairing
    nonzero. Returns None when a witness exists.

    y is the canonical kernel vector of the transposed differential for
    the first free column j whose pairing with b = f.flatten() is nonzero:
    b[j] - sum_r R[r][j] b[pc_r] over its reduced rows R and their pivots
    pc_r. One pass over R gives every pairing (a pivot column's own entry
    is 1, so its pairing cancels to zero); only the emitted y is built,
    by kernel_basis([j])."""
    if f.degree < 1:
        raise InputError("cokernel certificates exist in degree >= 1 only")
    dt = differential_matrix(f.module, f.degree - 1).transpose()
    reduced, pivots = dt.rref()
    F = f.module.field
    b = f.flatten()
    pairing = b[:]
    for row, pc in zip(reduced.rows, pivots):
        if b[pc]:
            for j, coef in row:
                pairing[j] -= coef * b[pc]
    for j, s in enumerate(pairing):
        s = F.reduce(s)
        if s:
            return dt.kernel_basis([j])[0], s
    return None


@dataclass
class CohomologyReport:
    degree: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int
    representatives: list


def cohomology(module, degree) -> CohomologyReport:
    """Dimensions by rank-nullity, plus canonical representative cocycles
    spanning a complement of the coboundaries: the kernel-basis vectors of
    d_n whose columns become pivots after the coboundary columns when
    [d_{n-1} | kernel] is eliminated, so the output is reproducible byte
    for byte.

    The algebra and module must be valid, so d_n d_{n-1} = 0 and the
    coboundaries are cocycles; an invalid pair raises InputError. A
    cocycle is fixed by its coordinates in the free columns F of d_n, each
    pivot coordinate being minus its pivot row against them, so restricting
    to F is injective on cocycles and sends the kernel vectors to unit
    vectors. A kernel vector is thus skipped exactly when its column is the
    last nonzero F-coordinate of a coboundary: a pivot of the coboundaries
    restricted to F, numbered in reverse, eliminated once. d_{n-1} is read,
    never factorised, and only the emitted kernel vectors are built."""
    if degree < 0:
        raise InputError("degree must be >= 0")
    require_valid(module)
    d = differential_matrix(module, degree)
    pivots = set(d.rref()[1])
    free = [j for j in range(d.ncols) if j not in pivots]
    emitted = free
    if degree > 0:
        prev = differential_matrix(module, degree - 1)
        # F reversed, so the k-th last free column is column k of the system
        rows = [prev.rows[j] for j in reversed(free)]
        last = set(Matrix.sparse(module.field, rows, prev.ncols).transpose().rref()[1])
        emitted = [j for k, j in enumerate(reversed(free)) if k not in last][::-1]
    reps = [Cochain.unflatten(module, degree, v) for v in d.kernel_basis(emitted)]
    return CohomologyReport(degree, len(free), len(free) - len(reps), len(reps), reps)
