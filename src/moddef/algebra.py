"""Structure-constant algebras and finite-dimensional module actions.

An algebra is a basis together with the coordinate vectors of all pairwise
basis products and of the unit; a module is one action matrix per basis
element. Validation checks the defining axioms exactly and reports every
violation with the indices that witness it. The command line refuses an
invalid problem before it dispatches any command but validate.
`cohomology` and `rigidity_check` refuse an invalid algebra or module
(`require_valid`), and `check_deformation` reports an invalid module as
a violation at order 0. Witnesses, certificates and series products are
exact for the matrices they are given, whether or not those satisfy the
axioms.

Basis labels are decorative; indices are authoritative.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError
from .fields import integral
from .linalg import Matrix, series_term


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple
    message: str


class Algebra:
    """Associative unital algebra given by structure constants.

    structure[i][j] is the coordinate vector of the product of basis
    elements i and j; unit is the coordinate vector of 1.
    """

    def __init__(self, field, structure, unit, labels=None):
        dim = len(structure)
        if dim == 0:
            raise InputError("algebra dimension must be positive")
        for i, row in enumerate(structure):
            if len(row) != dim:
                raise InputError(f"structure row {i} has length {len(row)}, expected {dim}")
            for j, coords in enumerate(row):
                if len(coords) != dim:
                    raise InputError(
                        f"structure[{i}][{j}] has length {len(coords)}, expected {dim}"
                    )
        if len(unit) != dim:
            raise InputError(f"unit vector has length {len(unit)}, expected {dim}")
        if labels is not None and len(labels) != dim:
            raise InputError("label count does not match dimension")
        self.field = field
        self.dim = dim
        self.structure = structure
        self.unit = unit
        self.labels = tuple(labels) if labels is not None else None
        # the algebra's violations, once validate_algebra has computed them
        self._violations = None

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.structure == other.structure
            and self.unit == other.unit
        )

    def __repr__(self):
        return f"Algebra({self.field.name}, dim={self.dim})"

    @cached_property
    def products(self):
        """products[i][j]: tuple of (k, c) with nonzero coefficient c of
        basis element k in the product e_i e_j, in increasing k. Every
        computation with the structure constants reads this table. An
        integral c is held as an int (over Q too, whatever the type of the
        structure entry), so the axiom checks and the differentials of an
        integral algebra run on ints."""
        return tuple(
            tuple(tuple((k, integral(c)) for k, c in enumerate(coords) if c) for coords in row)
            for row in self.structure
        )

    @cached_property
    def product_support(self):
        """For each basis index k: tuple of (i, j, c) with nonzero
        coefficient c of basis element k in the product e_i e_j."""
        support = [[] for _ in range(self.dim)]
        for i, row in enumerate(self.products):
            for j, prod in enumerate(row):
                for k, c in prod:
                    support[k].append((i, j, c))
        return tuple(tuple(s) for s in support)


class Module:
    """Left module over an algebra: one action matrix per basis element."""

    def __init__(self, algebra: Algebra, action):
        if len(action) != algebra.dim:
            raise InputError(
                f"need {algebra.dim} action matrices, got {len(action)}"
            )
        dims = {(m.nrows, m.ncols) for m in action}
        if len(dims) != 1:
            raise InputError("action matrices have mixed shapes")
        ((r, c),) = dims
        if r != c:
            raise InputError(f"action matrices must be square, got {r}x{c}")
        if r == 0:
            raise InputError("module dimension must be positive")
        for m in action:
            if m.field != algebra.field:
                raise InputError("action matrix field differs from algebra field")
        self.algebra = algebra
        self.field = algebra.field
        self.dim = r
        self.action = list(action)
        # degree -> assembled differential matrix (cochain.differential_matrix)
        self._differentials = {}
        # the module's violations, once validate_module has computed them
        self._violations = None

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Module)
            and self.algebra == other.algebra
            and self.action == other.action
        )

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra!r})"

    def zero_operator(self):
        return Matrix.zeros(self.field, self.dim, self.dim)

    def identity_operator(self):
        return Matrix.identity(self.field, self.dim)


def _expand(field, dim, terms):
    """Coordinates of the sum of c * v over (c, v) in terms, in one pass;
    each v is given by (k, x) pairs, zero x skipped. The sums start from
    the int 0, so they stay ints while every c and x is one."""
    reduce = field.reduce
    out = [0] * dim
    for c, vec in terms:
        for k, x in vec:
            if x:
                out[k] = reduce(out[k] + c * x)
    return out


def validate_algebra(a: Algebra) -> list[Violation]:
    """Check associativity on all basis triples and both unit laws.
    Returns every violation; an empty list means the algebra is valid.

    The violations are kept on the algebra, as a module's are, so each
    algebra is checked once; callers must not mutate its structure."""
    if a._violations is None:
        F, n, P = a.field, a.dim, a.products
        out = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = _expand(F, n, ((c, P[l][k]) for l, c in P[i][j]))
                    right = _expand(F, n, ((c, P[i][l]) for l, c in P[j][k]))
                    if left != right:
                        left, right = (", ".join(map(str, v)) for v in (left, right))
                        msg = f"(e{i} e{j}) e{k} != e{i} (e{j} e{k}): [{left}] vs [{right}]"
                        out.append(Violation("associativity", (i, j, k), msg))
        unit = [(l, u) for l, u in enumerate(a.unit) if u]
        for i in range(n):
            e = [F.one if k == i else F.zero for k in range(n)]
            if _expand(F, n, ((u, P[l][i]) for l, u in unit)) != e:
                out.append(Violation("unit-left", (i,), f"1*e{i} != e{i}"))
            if _expand(F, n, ((u, P[i][l]) for l, u in unit)) != e:
                out.append(Violation("unit-right", (i,), f"e{i}*1 != e{i}"))
        a._violations = tuple(out)
    return list(a._violations)


def multiplicativity_defects(module, series, n):
    """((a, b), term n of series[a] series[b] less sum_k c_ab^k series[k][n])
    for each basis pair in lexicographic order, lazily; series[k] is basis
    element k's operator series, a term past its end being zero. Order 0 of
    [[A_k]] is the module axiom; a deformation's defects vanish at orders
    1..m, and at order m+1 they are its obstruction."""
    P = module.algebra.products
    for a, left in enumerate(series):
        for b, right in enumerate(series):
            minus = [(c, series[k][n]) for k, c in P[a][b] if n < len(series[k])]
            yield (a, b), series_term(left, right, n, minus)


def validate_module(m: Module) -> list[Violation]:
    """Check multiplicativity of the action on all basis pairs (the order-0
    defects of [[A_k]]) and that the unit acts as the identity.

    The violations are kept on the module, as its differentials are, so
    each module is checked once; callers must not mutate the action."""
    if m._violations is None:
        F, n, A = m.field, m.dim, m.action
        out = [
            Violation("multiplicativity", (i, j), f"action(e{i}) action(e{j}) != action(e{i} e{j})")
            for (i, j), defect in multiplicativity_defects(m, [[a] for a in A], 0)
            if not defect.is_zero()
        ]
        unit = [(k, u) for k, u in enumerate(m.algebra.unit) if u]
        acted = [_expand(F, n, ((u, A[k].rows[r]) for k, u in unit)) for r in range(n)]
        if Matrix(F, acted, n) != m.identity_operator():
            out.append(Violation("unit", (), "unit does not act as the identity"))
        m._violations = tuple(out)
    return list(m._violations)


def require_valid(m: Module):
    """Raise InputError naming the first violation of the algebra, else of
    the module."""
    for what, issues in (
        ("algebra", validate_algebra(m.algebra)),
        ("module", validate_module(m)),
    ):
        if issues:
            raise InputError(f"invalid {what}: {issues[0].message}")
