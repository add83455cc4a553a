"""Truncated deformations of a module structure and their calculus.

A deformation of order m perturbs the action map by degree-1 cochain terms
xi_1, ..., xi_m, with xi_0 the undeformed action. Its multiplicativity
defect at order n is the degree-2 cochain

    (a, b) |-> sum_{i+j=n} xi_i(a) xi_j(b) - xi_n(a b),

computed in one place, algebra.multiplicativity_defects, with xi_n = 0
past the truncation. Order 0 is the module axiom, the defects at orders
1..m must vanish, and the defect at order m+1 is the obstruction

    (a, b) |-> sum_{i=1..m} xi_i(a) xi_{m+1-i}(b),

always a cocycle for a valid deformation; the deformation extends one
order further exactly when that cocycle is a coboundary, and the appended
term is the canonical solution of  d(xi_{m+1}) = -obstruction.

Automorphisms are truncated series 1 + t phi_1 + ... of operators, stored
as their term lists and treated as exact polynomials; conjugating a
deformation by an automorphism truncates at the deformation's order.
"""

from dataclasses import dataclass

from .algebra import Module, multiplicativity_defects, validate_module
from .cochain import Cochain, CohomologyReport, coboundary_witness, cohomology, is_cocycle
from .errors import InputError
from .linalg import Matrix, series_term


class ApproximateDeformation:
    """Order-m deformation: degree-1 terms xi_1..xi_m over a module."""

    def __init__(self, module: Module, terms):
        for i, t in enumerate(terms):
            if not isinstance(t, Cochain) or t.degree != 1:
                raise InputError(f"term {i + 1} is not a degree-1 cochain")
            if t.module != module:
                raise InputError(f"term {i + 1} lives over a different module")
        self.module = module
        self.terms = list(terms)
        self.order = len(self.terms)

    def series(self, basis_index):
        """Coefficient operators of t^0..t^order applied to a basis element;
        t^0 is the undeformed action, and absent terms share one zero."""
        key, zero = (basis_index,), self.module.zero_operator()
        return [self.module.action[basis_index]] + [t.entries.get(key, zero) for t in self.terms]

    def extended_with(self, term: Cochain):
        return ApproximateDeformation(self.module, self.terms + [term])

    def is_trivial(self):
        return all(t.is_zero() for t in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, ApproximateDeformation)
            and self.module == other.module
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"ApproximateDeformation(order={self.order})"


class FormalAutomorphism:
    """Truncated automorphism 1 + t phi_1 + ... + t^m phi_m of a module."""

    def __init__(self, module: Module, terms):
        for i, t in enumerate(terms):
            if not isinstance(t, Matrix) or t.nrows != module.dim or t.ncols != module.dim:
                raise InputError(f"automorphism term {i + 1} is not a {module.dim}x{module.dim} matrix")
            if t.field != module.field:
                raise InputError(f"automorphism term {i + 1} is over {t.field.name}, not {module.field.name}")
        self.module = module
        self.terms = list(terms)
        self.order = len(self.terms)

    def series(self):
        """The identity followed by the stored terms; series_term reads any
        term past the end as zero."""
        return [self.module.identity_operator()] + self.terms

    def invert(self, order):
        """Inverse truncated at order: psi_n = -sum_{i>=1} phi_i psi_{n-i}."""
        phi = self.series()
        psi = [phi[0]]
        for n in range(1, order + 1):
            # psi holds terms 0..n-1, so the sum starts at i = 1
            psi.append(-series_term(phi, psi, n))
        return FormalAutomorphism(self.module, psi[1:])

    def compose(self, other, order):
        """Product truncated at order; term n is sum phi_i chi_{n-i}."""
        if self.module != other.module:
            raise InputError("automorphisms live over different modules")
        left, right = self.series(), other.series()
        return FormalAutomorphism(
            self.module, [series_term(left, right, n) for n in range(1, order + 1)]
        )

    def is_identity(self):
        return all(t.is_zero() for t in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, FormalAutomorphism)
            and self.module == other.module
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"FormalAutomorphism(order={self.order})"


@dataclass
class DeformationViolation:
    order: int
    left: int
    right: int

    def __str__(self):
        return (
            f"multiplicativity fails at order {self.order} on basis pair "
            f"({self.left}, {self.right})"
        )


def check_deformation(d: ApproximateDeformation):
    """Verify the multiplicativity relations for every order up to the
    truncation; returns None when valid, else the first violation.

    Order 0 is the module's own multiplicativity, read from its
    validation. At order n >= 1 the relation is that the order-n
    multiplicativity defect of the deformed actions vanishes; the first
    basis pair where it does not is the violation."""
    for issue in validate_module(d.module):
        if issue.kind == "multiplicativity":
            return DeformationViolation(0, *issue.where)
    series = [d.series(k) for k in range(d.module.algebra.dim)]
    for n in range(1, d.order + 1):
        for (a, b), defect in multiplicativity_defects(d.module, series, n):
            if not defect.is_zero():
                return DeformationViolation(n, a, b)
    return None


def infinitesimal(d: ApproximateDeformation):
    """The leading nonzero term (index, cochain), or None when every term
    vanishes. For a valid deformation the returned cochain is a cocycle."""
    for i, t in enumerate(d.terms):
        if not t.is_zero():
            return i + 1, t
    return None


def obstruction(d: ApproximateDeformation) -> Cochain:
    """Degree-2 cochain blocking the next-order extension: the order-(m+1)
    multiplicativity defect, where xi_(m+1) is absent; the empty sum at
    order 0 gives the zero cochain."""
    series = [d.series(k) for k in range(d.module.algebra.dim)]
    return Cochain(d.module, 2, dict(multiplicativity_defects(d.module, series, d.order + 1)))


@dataclass
class ObstructionOutcome:
    """witness (when present) is the canonical solution of
    differential(witness) = -obstruction, i.e. the next term itself."""

    obstruction: Cochain
    witness: Cochain | None
    class_is_zero: bool


def obstruction_outcome(d: ApproximateDeformation) -> ObstructionOutcome:
    obs = obstruction(d)
    witness = coboundary_witness(-obs)
    return ObstructionOutcome(obs, witness, witness is not None)


def extend_once(d: ApproximateDeformation):
    """One order higher when the obstruction class vanishes; otherwise the
    obstruction outcome with an absent witness."""
    outcome = obstruction_outcome(d)
    if outcome.witness is None:
        return outcome
    return d.extended_with(outcome.witness)


def integrate(sigma: Cochain, target_order: int):
    """Extend the first-order deformation along sigma to the target order.

    Returns the order-N deformation on success, else (reached_order,
    ObstructionOutcome) at the first order whose obstruction class is
    nonzero. Success certifies integrability through the target order
    only."""
    if target_order < 1:
        raise InputError("target order must be >= 1")
    if sigma.degree != 1:
        raise InputError("seed must be a degree-1 cochain")
    if not is_cocycle(sigma):
        raise InputError("seed is not a cocycle")
    d = ApproximateDeformation(sigma.module, [sigma])
    while d.order < target_order:
        step = extend_once(d)
        if isinstance(step, ObstructionOutcome):
            return d.order, step
        d = step
    return d


def conjugate(phi: FormalAutomorphism, d: ApproximateDeformation) -> ApproximateDeformation:
    """The deformation with terms sum_{i+j+k=n} psi_i xi_j(-) phi_k, where
    psi is the truncated inverse of phi; truncated at the order of d.
    Computed as psi . (xi . phi), one series product at a time."""
    if phi.module != d.module:
        raise InputError("automorphism and deformation live over different modules")
    mod = d.module
    m = d.order
    psi = phi.invert(m).series()
    phi_terms = phi.series()
    entries = [{} for _ in range(m)]
    for a in range(mod.algebra.dim):
        xi = d.series(a)
        xi_phi = [series_term(xi, phi_terms, k) for k in range(m + 1)]
        for n in range(1, m + 1):
            entries[n - 1][(a,)] = series_term(psi, xi_phi, n)
    return ApproximateDeformation(mod, [Cochain(mod, 1, e) for e in entries])


def normalize(d: ApproximateDeformation):
    """Strip leading terms that are coboundaries by conjugating, one order
    at a time.

    Returns (deformation, automorphism, leading) where leading is the
    index of the first term whose class is nonzero, or None when every
    term through the truncation order was eliminated. Conjugating the
    input by the returned automorphism reproduces the output exactly."""
    current = d
    composite = FormalAutomorphism(d.module, [])
    while True:
        lead = infinitesimal(current)
        if lead is None:
            return current, composite, None
        l, xi = lead
        witness = coboundary_witness(xi)
        if witness is None:
            return current, composite, l
        phi_l = witness.value(())
        step = FormalAutomorphism(d.module, [d.module.zero_operator()] * (l - 1) + [-phi_l])
        current = conjugate(step, current)
        composite = composite.compose(step, d.order)


def equivalent_one_step(d1: ApproximateDeformation, d2: ApproximateDeformation):
    """For two one-order extensions of a common deformation, an automorphism
    1 + t^{m+1} phi conjugating the first onto the second, or None when the
    difference of their last terms is not a coboundary. Only this
    sufficient criterion is decided."""
    if d1.module != d2.module:
        raise InputError("deformations live over different modules")
    if d1.order != d2.order or d1.order < 1:
        raise InputError("expected two extensions of equal order >= 1")
    if d1.terms[:-1] != d2.terms[:-1]:
        raise InputError("deformations do not extend a common lower-order deformation")
    delta = d2.terms[-1] - d1.terms[-1]
    witness = coboundary_witness(delta)
    if witness is None:
        return None
    phi = witness.value(())
    return FormalAutomorphism(d1.module, [d1.module.zero_operator()] * (d1.order - 1) + [phi])


@dataclass
class RigidityResult:
    certified: bool
    h1: CohomologyReport


def rigidity_check(module: Module) -> RigidityResult:
    """Certified rigid when the degree-1 cohomology vanishes; inconclusive
    otherwise (a nonzero class need not integrate to a deformation)."""
    h1 = cohomology(module, 1)
    return RigidityResult(h1.dim_cohomology == 0, h1)
