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

When the unit is a sum of two or more orthogonal idempotents among the
basis elements (up to nonzero scalars), the cochains relative to their
span form a much smaller subcomplex with the same cohomology, cut out by
coordinates. Cohomology reads every dimension off it first, and builds
the full d_n only where H^n > 0, for the canonical representatives.
"""

from collections import namedtuple
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
    alone.

    The terms of the basis elements in skip are left out: the relative
    d_n skips the idempotents, whose terms land on tuples outside the
    relative complex only."""

    def __init__(self, module, degree, skip=()):
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
            if a in skip:
                continue
            for j, row in enumerate(act.rows):
                for k, v in row:
                    v = integral(v)
                    self.head[k].append((a * head_step + j * d_m, v))
                    self.tail[j].append((a * self.m2 + k, F.reduce(-v) if negate else v))
        # e_a e_b has a k component: (flat index of (a, b), coef, -coef) per k
        self.products = [
            [
                (a * d_r + b, coef, F.reduce(-coef))
                for a, b, coef in support
                if a not in skip and b not in skip
            ]
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
    of f, scaled and summed into sparse output blocks of row accumulators,
    each cell starting as its first product (so integral input sums in
    ints over Q); over F_p each block is reduced once, when it becomes a
    matrix."""
    mod = f.module
    F = mod.field
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
                    w = acc.get(j)
                    acc[j] = x * v if w is None else w + x * v
    entries = {
        tuple(t // d_r ** (n - 1 - j) % d_r for j in range(n)):
            Matrix.sparse(F, reduce_rows(F, block), d_m)
        for t, block in blocks.items()
    }
    return Cochain(mod, n, entries)


def is_cocycle(f: Cochain) -> bool:
    return differential(f).is_zero()


def _full_shape(module, degree):
    """(rows, columns) of the full d_n. Raises ResourceError when it would
    have more than MAX_DIFFERENTIAL_CELLS cells."""
    d_r = module.algebra.dim
    m2 = module.dim * module.dim
    nrows = d_r ** (degree + 1) * m2
    ncols = d_r**degree * m2
    if nrows * ncols > MAX_DIFFERENTIAL_CELLS:
        raise ResourceError(
            f"the degree-{degree} differential would be {nrows}x{ncols}, "
            f"over the limit of {MAX_DIFFERENTIAL_CELLS} cells"
        )
    return nrows, ncols


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
    nrows, ncols = _full_shape(module, degree)
    cached = module._differentials.get(degree)
    if cached is not None:
        return cached
    d_r = module.algebra.dim
    d_m = module.dim
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


class _RelativeComplex:
    """The cochains relative to S = span(e_1, ..., e_r), r >= 2, where the
    unit splits into orthogonal idempotents e_i = b_i / lambda_i among the
    basis elements b_i, every other basis element x lies in one e_i A e_j,
    and each e_i acts by a coordinate projection. They are the S-bimodule
    maps on the n-fold tensor power of A/S over S, a subcomplex with the same
    cohomology because S is separable (Hochschild, "Relative homological
    algebra", Trans. AMS 82, 1956; Gerstenhaber and Schack, J. Pure Appl.
    Algebra 43, 1986). In this basis it is a coordinate subspace, so the
    relative d_n is d_n on the relative rows and columns.

    ends[x]: (i, j) with e_i x e_j = x, for each other basis index x;
    blocks[i]: the module basis indices that e_i fixes;
    ranks[n]: (dim C_rel^n, rank of the relative d_n), once computed."""

    def __init__(self, ends, blocks):
        self.ends, self.blocks, self.ranks = ends, blocks, {}

    def coordinates(self, degree):
        """(tuple, operator entries (r, c)) of the relative cochains: in
        degree 0 the entries with r and c in one block; above it every
        composable tuple of other basis elements (the right end of each is
        the left end of the next), with r in the block of its left end and
        c in the block of its right end."""
        if degree == 0:
            return [((), [(r, c) for b in self.blocks.values() for r in b for c in b])]
        ends = self.ends
        keys = [(x,) for x in ends]
        for _ in range(degree - 1):
            keys = [k + (x,) for k in keys for x in ends if ends[k[-1]][1] == ends[x][0]]
        blocks = self.blocks
        return [(k, list(product(blocks[ends[k[0]][0]], blocks[ends[k[-1]][1]]))) for k in keys]

    def rank(self, module, degree):
        """(dim C_rel^n, rank of the relative d_n), computed once. Its
        columns are the stencil's columns of the relative coordinates, with
        the idempotents' terms skipped; every term left lands on a relative
        row."""
        got = self.ranks.get(degree)
        if got is None:
            d_r = module.algebra.dim
            st = _Stencil(module, degree, skip=self.blocks)
            rows = {}
            col = 0
            for key, entries in self.coordinates(degree):
                t = _tuple_index(key, d_r)
                middle = st.middle(t, key)
                for r, c in entries:
                    for row, v in st.column(t, middle, r, c).items():
                        rows.setdefault(row, []).append((col, v))
                    col += 1
            rank = Matrix.sparse(module.field, list(rows.values()), col).rank()
            got = self.ranks[degree] = (col, rank)
        return got


def _split_unit(module):
    """The module's _RelativeComplex, or None when the unit is not a sum of
    r >= 2 basis elements b_i with b_i b_i = lambda_i b_i, unit coefficient
    1 / lambda_i and b_i b_j = 0 (i != j), where each other basis element
    x has exactly one i with b_i x = lambda_i x and one j with
    x b_j = lambda_j x, every other such product being 0, and each b_i
    acts by lambda_i times a 0/1 diagonal matrix."""
    alg = module.algebra
    P, unit, reduce = alg.products, alg.unit, alg.field.reduce
    idem = [i for i, u in enumerate(unit) if u]
    if len(idem) < 2:
        return None
    scale = {}
    for i in idem:
        square = P[i][i]
        if len(square) != 1 or square[0][0] != i or reduce(square[0][1] * unit[i]) != 1:
            return None
        if any(P[i][j] for j in idem if j != i):
            return None
        scale[i] = square[0][1]
    ends = {}
    for x in range(alg.dim):
        if x in scale:
            continue
        left = [i for i in idem if P[i][x]]
        right = [j for j in idem if P[x][j]]
        if len(left) != 1 or len(right) != 1:
            return None
        (i,), (j,) = left, right
        if P[i][x] != ((x, scale[i]),) or P[x][j] != ((x, scale[j]),):
            return None
        ends[x] = (i, j)
    blocks = {}
    for i in idem:
        rows = module.action[i].rows
        if any(row and row != [(m, scale[i])] for m, row in enumerate(rows)):
            return None
        blocks[i] = [m for m, row in enumerate(rows) if row]
    return _RelativeComplex(ends, blocks)


def _relative_complex(module):
    """_split_unit of the module, looked for once per module."""
    if module._relative is None:
        module._relative = _split_unit(module) or False
    return module._relative or None


CohomologyReport = namedtuple(
    "CohomologyReport", "degree dim_cocycles dim_coboundaries dim_cohomology representatives"
)


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
    never factorised, and only the emitted kernel vectors are built.

    Where the unit splits into r >= 2 basis idempotents (_RelativeComplex),
    every H^j is read off the small relative complex first, as
    dim C_rel^j - rank_rel d_j - rank_rel d_{j-1}. If H^n = 0 (n >= 1) the
    report needs only rank d_{n-1} of the full complex, which follows from
    rank d_j = dim C^j - H^j - rank d_{j-1}, so no full d_n is built. If
    H^n > 0, or in degree 0, the full complex gives the representatives.
    The full d_n must fit MAX_DIFFERENTIAL_CELLS either way."""
    if degree < 0:
        raise InputError("degree must be >= 0")
    require_valid(module)
    _full_shape(module, degree)
    rel = _relative_complex(module) if degree > 0 else None
    if rel is not None:
        h, prev = [], 0
        for n in range(degree + 1):
            dim, rank = rel.rank(module, n)
            h.append(dim - rank - prev)
            prev = rank
        if h[degree] == 0:
            m2 = module.dim * module.dim
            rank = 0  # of the full d_{n-1}
            for n in range(degree):
                rank = module.algebra.dim**n * m2 - h[n] - rank
            return CohomologyReport(degree, rank, rank, 0, [])
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
