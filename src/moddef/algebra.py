"""Structure-constant algebras and finite-dimensional module actions.

An algebra is a basis together with the coordinate vectors of all pairwise
basis products and of the unit; a module is one action matrix per basis
element. Validation checks the defining axioms exactly and reports every
violation with the indices that witness it. Nothing downstream accepts an
algebra or module that has not passed validation.

Basis labels are decorative; indices are authoritative.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError
from .linalg import Matrix


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

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.structure == other.structure
            and self.unit == other.unit
        )

    def __repr__(self):
        return f"Algebra({self.field.name}, dim={self.dim})"

    def multiply(self, u, v):
        """Bilinear extension of the structure constants to coordinates."""
        if len(u) != self.dim or len(v) != self.dim:
            raise InputError("coordinate length does not match algebra dimension")
        F = self.field
        out = [F.zero] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self.structure[i]
            for j, vj in enumerate(v):
                if not vj:
                    continue
                c = F.mul(ui, vj)
                for k, w in enumerate(row[j]):
                    if w:
                        out[k] = F.add(out[k], F.mul(c, w))
        return out

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    @cached_property
    def product_support(self):
        """For each basis index k: tuple of (i, j, c) with nonzero
        coefficient c of basis element k in the product e_i e_j."""
        F = self.field
        support = [[] for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(self.dim):
                for k, c in enumerate(self.structure[i][j]):
                    if c:
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

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Module)
            and self.algebra == other.algebra
            and self.action == other.action
        )

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra!r})"

    def act(self, coords):
        """Matrix of the algebra element with the given coordinates."""
        if len(coords) != self.algebra.dim:
            raise InputError("coordinate length does not match algebra dimension")
        out = Matrix.zeros(self.field, self.dim, self.dim)
        for c, m in zip(coords, self.action):
            if c:
                out = out + m.scale(c)
        return out

    def zero_operator(self):
        return Matrix.zeros(self.field, self.dim, self.dim)

    def identity_operator(self):
        return Matrix.identity(self.field, self.dim)


def validate_algebra(a: Algebra) -> list[Violation]:
    """Check associativity on all basis triples and both unit laws.
    Returns every violation; an empty list means the algebra is valid."""
    out = []
    for i in range(a.dim):
        for j in range(a.dim):
            ij = a.structure[i][j]
            for k in range(a.dim):
                left = a.multiply(ij, a.basis_vector(k))
                right = a.multiply(a.basis_vector(i), a.structure[j][k])
                if left != right:
                    out.append(
                        Violation(
                            "associativity",
                            (i, j, k),
                            f"(e{i} e{j}) e{k} != e{i} (e{j} e{k}): {left} vs {right}",
                        )
                    )
    for i in range(a.dim):
        e = a.basis_vector(i)
        if a.multiply(a.unit, e) != e:
            out.append(Violation("unit-left", (i,), f"1*e{i} != e{i}"))
        if a.multiply(e, a.unit) != e:
            out.append(Violation("unit-right", (i,), f"e{i}*1 != e{i}"))
    return out


def validate_module(m: Module) -> list[Violation]:
    """Check multiplicativity of the action on all basis pairs and that the
    unit acts as the identity."""
    out = []
    for i in range(m.algebra.dim):
        for j in range(m.algebra.dim):
            composed = m.action[i] @ m.action[j]
            expanded = m.act(m.algebra.structure[i][j])
            if composed != expanded:
                out.append(
                    Violation(
                        "multiplicativity",
                        (i, j),
                        f"action(e{i}) action(e{j}) != action(e{i} e{j})",
                    )
                )
    if m.act(m.algebra.unit) != m.identity_operator():
        out.append(Violation("unit", (), "unit does not act as the identity"))
    return out
