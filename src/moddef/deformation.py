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
as their terms past the identity and treated as exact polynomials. No
product is ever by the identity term: composition reads
(1 + L)(1 + R) = 1 + L + R + LR, and conjugation phi xi' = xi phi, which
yields xi' = phi^-1 xi phi one order at a time with no inverse series.
Conjugating a deformation truncates at the deformation's order.
"""

from collections import namedtuple

from .algebra import Module, Violation, multiplicativity_defects, validate_module
from .cochain import Cochain, coboundary_witness, cohomology, is_cocycle
from .errors import InputError
from .linalg import Matrix, product_sum, series_term


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

    def compose(self, other, order):
        """Product truncated at order, from (1 + L)(1 + R) = 1 + L + R + LR:
        term n is l_n + r_n + sum_{i=1..n-1} l_i r_{n-i}, so only terms
        past the identity are multiplied."""
        if self.module != other.module:
            raise InputError("automorphisms live over different modules")
        F, dim = self.module.field, self.module.dim
        left, right = self.terms, other.terms
        terms = []
        for n in range(1, order + 1):
            lo, hi = max(1, n - len(right)), min(n - 1, len(left))
            products = [(left[i - 1], right[n - i - 1]) for i in range(lo, hi + 1)]
            ends = [(1, s[n - 1]) for s in (left, right) if n <= len(s)]
            terms.append(product_sum(F, dim, dim, products, ends))
        return FormalAutomorphism(self.module, terms)

    def __eq__(self, other):
        return (
            isinstance(other, FormalAutomorphism)
            and self.module == other.module
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"FormalAutomorphism(order={self.order})"


def check_deformation(d: ApproximateDeformation):
    """Verify the multiplicativity relations for every order up to the
    truncation; returns None when valid, else the first violation, a
    Violation of kind "deformation" at where = (order, a, b).

    Order 0 is the module's own multiplicativity, read from its
    validation. At order n >= 1 the relation is that the order-n
    multiplicativity defect of the deformed actions vanishes; the first
    basis pair where it does not is the violation."""

    def failures():
        for issue in validate_module(d.module):
            if issue.kind == "multiplicativity":
                yield (0, *issue.where)
        series = [d.series(k) for k in range(d.module.algebra.dim)]
        for n in range(1, d.order + 1):
            for (a, b), defect in multiplicativity_defects(d.module, series, n):
                if not defect.is_zero():
                    yield n, a, b

    for n, a, b in failures():
        message = f"multiplicativity fails at order {n} on basis pair ({a}, {b})"
        return Violation("deformation", (n, a, b), message)
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


class ObstructionOutcome(namedtuple("ObstructionOutcome", "obstruction witness")):
    """witness (when present) is the canonical solution of
    differential(witness) = -obstruction, i.e. the next term itself; the
    obstruction class vanishes exactly when it is present."""

    __slots__ = ()


def obstruction_outcome(d: ApproximateDeformation) -> ObstructionOutcome:
    obs = obstruction(d)
    witness = coboundary_witness(-obs)
    return ObstructionOutcome(obs, witness)


def extend_once(d: ApproximateDeformation):
    """One order higher when the obstruction class vanishes; otherwise the
    obstruction outcome with an absent witness."""
    outcome = obstruction_outcome(d)
    if outcome.witness is None:
        return outcome
    return ApproximateDeformation(d.module, d.terms + [outcome.witness])


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
    """The deformation xi' = phi^-1 xi phi, truncated at the order of d.

    It is read off phi xi' = xi phi with no inverse series: term n is

        xi'_n = xi_n + sum_{k>=1} xi_{n-k} phi_k - sum_{k>=1} phi_k xi'_{n-k},

    two series products over the terms phi_k past the identity, so no
    product is by the identity. For normalize's step 1 - t^l g that is
    xi'_n = xi_n - xi_{n-l} g + g xi'_{n-l}."""
    if phi.module != d.module:
        raise InputError("automorphism and deformation live over different modules")
    mod, m = d.module, d.order
    terms = phi.terms[:m]
    if not terms:
        return ApproximateDeformation(mod, d.terms)
    entries = [{} for _ in range(m)]
    for a in range(mod.algebra.dim):
        xi = d.series(a)
        out = xi[:1]
        for n in range(1, m + 1):
            back = series_term(terms, out, n - 1)
            out.append(series_term(xi, terms, n - 1, ((-1, xi[n]), (1, back))))
            entries[n - 1][(a,)] = out[n]
    return ApproximateDeformation(mod, [Cochain(mod, 1, e) for e in entries])


def normalize(d: ApproximateDeformation):
    """Strip leading terms that are coboundaries by conjugating, one order
    at a time.

    Returns (deformation, automorphism, leading) where leading is the
    index of the first term whose class is nonzero, or None when every
    term through the truncation order was eliminated. Conjugating the
    input by the returned automorphism reproduces the output exactly; it
    has no terms when no step is taken, and d.order terms otherwise."""
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


RigidityResult = namedtuple("RigidityResult", "certified h1")


def rigidity_check(module: Module) -> RigidityResult:
    """Certified rigid when the degree-1 cohomology vanishes; inconclusive
    otherwise (a nonzero class need not integrate to a deformation)."""
    h1 = cohomology(module, 1)
    return RigidityResult(h1.dim_cohomology == 0, h1)
