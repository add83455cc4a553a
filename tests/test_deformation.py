import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    deformation_value_series,
    dense_product,
    frac_mat,
    over_prime,
    poly_mat_mul,
    random_automorphism,
    random_coboundary,
    random_cocycle,
    random_matrix,
    random_pair,
    reference_check_deformation,
)
from moddef.algebra import Module, Violation
from moddef.cochain import Cochain, coboundary_witness, differential, is_cocycle
from moddef.deformation import (
    ApproximateDeformation,
    FormalAutomorphism,
    ObstructionOutcome,
    check_deformation,
    conjugate,
    equivalent_one_step,
    extend_once,
    infinitesimal,
    integrate,
    normalize,
    obstruction,
    rigidity_check,
)
from moddef.errors import InputError
from moddef.fields import PrimeField, QQ
from moddef.fixtures import fixture_a, fixture_b, fixture_c
from moddef.linalg import Matrix, series_term

N = frac_mat([[0, 1], [0, 0]])
S = frac_mat([[1, 0], [0, -1]])
B = frac_mat([[0, 0], [-1, 0]])


def sigma_a(mod, value=1):
    return Cochain(mod, 1, {(1,): frac_mat([[value]])})


def sigma_c(mod):
    return Cochain(mod, 1, {(1,): S})


def order_one(mod, sigma):
    return ApproximateDeformation(mod, [sigma])


# --- validity -----------------------------------------------------------------


def test_order_zero_always_valid():
    rng = random.Random(2)
    for _ in range(5):
        _, mod = random_pair(rng)
        assert check_deformation(ApproximateDeformation(mod, [])) is None


def test_fixture_c_first_order_valid():
    _, mod = fixture_c()
    # direct anticommutator oracle for the first-order relation
    assert (N @ S + S @ N).is_zero()
    assert check_deformation(order_one(mod, sigma_c(mod))) is None


def test_violation_found_at_order_two():
    _, mod = fixture_a()
    d = ApproximateDeformation(mod, [sigma_a(mod), Cochain(mod, 1)])
    assert check_deformation(d) == Violation(
        "deformation", (2, 1, 1), "multiplicativity fails at order 2 on basis pair (1, 1)"
    )


def test_conjugation_preserves_validity():
    rng = random.Random(7)
    for _ in range(5):
        _, mod = random_pair(rng)
        sigma = random_cocycle(mod, rng)
        d = order_one(mod, sigma)
        phi = random_automorphism(mod, rng.randint(1, 3), rng)
        assert check_deformation(conjugate(phi, d)) is None


# --- infinitesimal ------------------------------------------------------------


def test_infinitesimal_trivial():
    _, mod = fixture_c()
    assert infinitesimal(ApproximateDeformation(mod, [Cochain(mod, 1)] * 3)) is None


def test_infinitesimal_first_order():
    _, mod = fixture_c()
    d = order_one(mod, sigma_c(mod))
    lead = infinitesimal(d)
    assert lead is not None
    l, xi = lead
    assert l == 1 and xi == sigma_c(mod)
    assert is_cocycle(xi)


def test_infinitesimal_second_order():
    _, mod = fixture_c()
    # leading term in degree two; its value must kill the anticommutator
    xi2 = Cochain(mod, 1, {(1,): S})
    assert (N @ S + S @ N).is_zero()
    d = ApproximateDeformation(mod, [Cochain(mod, 1), xi2])
    assert check_deformation(d) is None
    lead = infinitesimal(d)
    assert lead is not None and lead[0] == 2
    assert is_cocycle(lead[1])


# --- obstructions -------------------------------------------------------------


def test_obstruction_of_zero_terms():
    _, mod = fixture_c()
    assert obstruction(ApproximateDeformation(mod, [Cochain(mod, 1)] * 2)).is_zero()


def test_obstruction_fixture_a_is_square():
    _, mod = fixture_a()
    for s in (1, 2, -3):
        obs = obstruction(order_one(mod, sigma_a(mod, s)))
        assert obs.support() == [(1, 1)]
        assert obs.value((1, 1)) == frac_mat([[s * s]])


def test_obstruction_fixture_c_is_identity():
    _, mod = fixture_c()
    obs = obstruction(order_one(mod, sigma_c(mod)))
    assert obs.support() == [(1, 1)]
    assert obs.value((1, 1)) == Matrix.identity(QQ, 2)


def test_obstruction_is_always_a_cocycle():
    rng = random.Random(11)
    for _ in range(8):
        _, mod = random_pair(rng)
        seed = random_coboundary(mod, rng)
        out = integrate(seed, rng.randint(1, 4))
        assert isinstance(out, ApproximateDeformation)
        assert is_cocycle(obstruction(out))


# --- extension ----------------------------------------------------------------


def test_extend_fixture_a_fails_with_certificate():
    _, mod = fixture_a()
    step = extend_once(order_one(mod, sigma_a(mod)))
    assert isinstance(step, ObstructionOutcome)
    assert step.witness is None
    assert step.obstruction.support() == [(1, 1)]


def test_extend_fixture_c_appends_canonical_term():
    _, mod = fixture_c()
    d = order_one(mod, sigma_c(mod))
    out = extend_once(d)
    assert isinstance(out, ApproximateDeformation)
    assert out.order == 2
    assert out.terms[1] == Cochain(mod, 1, {(1,): B})
    # direct check of the defining equation for the appended term
    assert (N @ B + B @ N) == -Matrix.identity(QQ, 2)
    assert check_deformation(out) is None
    assert differential(out.terms[1]) == -obstruction(d)


def test_extend_always_succeeds_when_h2_vanishes():
    rng = random.Random(13)
    _, mod = fixture_b()
    for _ in range(6):
        d = order_one(mod, random_cocycle(mod, rng))
        for _ in range(3):
            d = extend_once(d)
            assert isinstance(d, ApproximateDeformation)


def test_extension_iff_obstruction_is_coboundary():
    rng = random.Random(17)
    cases = 0
    failures = 0
    while cases < 25:
        _, mod = random_pair(rng)
        d = order_one(mod, random_cocycle(mod, rng))
        step = extend_once(d)
        witness = coboundary_witness(obstruction(d))
        if isinstance(step, ApproximateDeformation):
            assert witness is not None
            assert differential(step.terms[-1]) == -obstruction(d)
        else:
            assert witness is None
            failures += 1
        cases += 1
    assert failures > 0  # the sample must exercise both branches


# --- integration ---------------------------------------------------------------


def test_integrate_zero_seed():
    _, mod = fixture_c()
    out = integrate(Cochain(mod, 1), 6)
    assert isinstance(out, ApproximateDeformation)
    assert out.order == 6 and out.is_trivial()


def test_integrate_fixture_a_halts_at_order_one():
    _, mod = fixture_a()
    out = integrate(sigma_a(mod), 5)
    assert isinstance(out, tuple)
    reached, outcome = out
    assert reached == 1
    assert outcome.witness is None


def test_integrate_fixture_c_to_order_ten():
    _, mod = fixture_c()
    out = integrate(sigma_c(mod), 10)
    assert isinstance(out, ApproximateDeformation)
    assert out.order == 10
    assert check_deformation(out) is None
    assert out.terms[0] == sigma_c(mod)
    assert out.terms[1] == Cochain(mod, 1, {(1,): B})
    assert all(t.is_zero() for t in out.terms[2:])
    # symbolic oracle: the deformed action of the generator squares to zero
    series = deformation_value_series(out, 1)
    square = poly_mat_mul(series, series, 10)
    assert all(m.is_zero() for m in square)
    # the closed form N + tS + t^2 B is that series
    zero = Matrix.zeros(QQ, 2, 2)
    assert series == [N, S, B] + [zero] * 8


def test_integrate_fixture_c_over_a_prime_field():
    # the F_p branch of the series products: the same closed form N + tS + t^2 B, mod p
    p = 10007
    _, mod = over_prime(*fixture_c(), p)
    F = mod.field
    S_p = Matrix(F, [[1, 0], [0, p - 1]])
    out = integrate(Cochain(mod, 1, {(1,): S_p}), 8)
    assert isinstance(out, ApproximateDeformation) and out.order == 8
    assert check_deformation(out) is None
    zero = Matrix.zeros(F, 2, 2)
    assert deformation_value_series(out, 1) == [
        Matrix(F, [[0, 1], [0, 0]]), S_p, Matrix(F, [[0, 0], [p - 1, 0]])
    ] + [zero] * 6


def test_integrate_rejects_non_cocycle():
    _, mod = fixture_a()
    bad = Cochain(mod, 1, {(0,): frac_mat([[1]])})
    with pytest.raises(InputError):
        integrate(bad, 3)
    with pytest.raises(InputError):
        integrate(sigma_a(mod), 0)


# --- automorphisms -------------------------------------------------------------


def test_invert_identity():
    _, mod = fixture_c()
    ident = FormalAutomorphism(mod, [])
    assert ident.invert(0) == ident


def test_invert_geometric_series():
    rng = random.Random(19)
    _, mod = fixture_c()
    phi1 = random_matrix(rng, 2, 2)
    phi = FormalAutomorphism(mod, [phi1])
    psi = phi.invert(2)
    assert psi.terms[0] == -phi1
    assert psi.terms[1] == phi1 @ phi1


def test_invert_round_trip():
    rng = random.Random(23)
    _, mod = fixture_c()
    for _ in range(5):
        phi = random_automorphism(mod, 4, rng)
        psi = phi.invert(4)
        assert phi.compose(psi, 4).is_identity()
        assert psi.compose(phi, 4).is_identity()


def test_automorphism_refuses_terms_over_another_field():
    """An F_7 series cannot reach conjugate with a deformation over Q."""
    _, mod = fixture_c()
    w = Matrix(PrimeField(7), [[0, 0], [6, 0]])
    with pytest.raises(InputError, match="term 2 is over F7, not Q"):
        FormalAutomorphism(mod, [frac_mat([[0, 0], [-1, 0]]), w])


# --- conjugation ---------------------------------------------------------------


def test_conjugate_by_identity():
    rng = random.Random(29)
    _, mod = fixture_c()
    d = integrate(sigma_c(mod), 4)
    assert conjugate(FormalAutomorphism(mod, []), d) == d


def test_first_order_term_shifts_by_commutator():
    rng = random.Random(31)
    for _ in range(8):
        _, mod = random_pair(rng)
        d = order_one(mod, random_cocycle(mod, rng))
        phi = random_automorphism(mod, rng.randint(1, 3), rng)
        out = conjugate(phi, d)
        shift = differential(Cochain(mod, 0, {(): phi.terms[0]}))
        assert out.terms[0] - d.terms[0] == shift


def test_conjugation_kills_coboundary_term():
    _, mod = fixture_c()
    w = frac_mat([[0, 0], [1, 0]])
    # the commutator of the action with w is exactly the first-order term
    assert differential(Cochain(mod, 0, {(): w})) == sigma_c(mod)
    phi = FormalAutomorphism(mod, [-w])
    out = conjugate(phi, order_one(mod, sigma_c(mod)))
    assert out.is_trivial()


# --- normalization ---------------------------------------------------------------


def test_normalize_trivial_input():
    _, mod = fixture_c()
    d = ApproximateDeformation(mod, [Cochain(mod, 1)] * 3)
    normalized, auto, leading = normalize(d)
    assert normalized == d
    assert auto.is_identity()
    assert leading is None


def test_normalize_fixture_c_first_order():
    _, mod = fixture_c()
    normalized, auto, leading = normalize(order_one(mod, sigma_c(mod)))
    assert leading is None
    assert normalized.is_trivial()
    assert auto.terms[0] == -frac_mat([[0, 0], [1, 0]])
    assert conjugate(auto, order_one(mod, sigma_c(mod))) == normalized


def test_normalize_fixture_c_full_depth():
    _, mod = fixture_c()
    d = integrate(sigma_c(mod), 6)
    normalized, auto, leading = normalize(d)
    assert leading is None
    assert normalized.is_trivial()
    assert conjugate(auto, d) == normalized


def test_normalize_fixture_a_stops_at_nonzero_class():
    _, mod = fixture_a()
    d = order_one(mod, sigma_a(mod))
    normalized, auto, leading = normalize(d)
    assert leading == 1
    assert normalized == d
    assert auto.is_identity()


def test_normalize_reproduced_by_conjugation():
    rng = random.Random(37)
    for _ in range(6):
        _, mod = random_pair(rng)
        seed = random_coboundary(mod, rng)
        out = integrate(seed, rng.randint(1, 3))
        assert isinstance(out, ApproximateDeformation)
        normalized, auto, leading = normalize(out)
        assert conjugate(auto, out) == normalized
        if leading is not None:
            assert coboundary_witness(normalized.terms[leading - 1]) is None


# --- one-step equivalence ---------------------------------------------------------


def test_equivalent_one_step_equal_inputs():
    _, mod = fixture_c()
    d = integrate(sigma_c(mod), 2)
    auto = equivalent_one_step(d, d)
    assert auto is not None
    assert auto.is_identity()
    assert auto.order == 2


def test_equivalent_one_step_fixture_c():
    rng = random.Random(41)
    _, mod = fixture_c()
    d1 = integrate(sigma_c(mod), 2)
    for _ in range(5):
        shift = random_coboundary(mod, rng)
        d2 = ApproximateDeformation(mod, [d1.terms[0], d1.terms[1] + shift])
        assert check_deformation(d2) is None
        auto = equivalent_one_step(d1, d2)
        assert auto is not None
        assert auto.order == 2
        assert conjugate(auto, d1) == d2


def test_equivalent_one_step_fixture_a_absent():
    _, mod = fixture_a()
    d1 = order_one(mod, sigma_a(mod, 1))
    d2 = order_one(mod, sigma_a(mod, 2))
    assert equivalent_one_step(d1, d2) is None


def test_equivalent_one_step_checks_prefix():
    _, mod = fixture_c()
    d1 = integrate(sigma_c(mod), 2)
    d2 = ApproximateDeformation(mod, [d1.terms[0].scale(Fraction(2)), d1.terms[1]])
    with pytest.raises(InputError):
        equivalent_one_step(d1, d2)


# --- rigidity ---------------------------------------------------------------------


def test_rigidity_fixture_b():
    _, mod = fixture_b()
    out = rigidity_check(mod)
    assert out.certified
    assert out.h1.dim_cohomology == 0


def test_rigidity_fixture_a_inconclusive():
    _, mod = fixture_a()
    out = rigidity_check(mod)
    assert not out.certified
    assert out.h1.dim_cohomology == 1


def test_rigidity_one_dimensional_algebra():
    from moddef.algebra import Algebra, Module

    alg = Algebra(QQ, [[[Fraction(1)]]], [Fraction(1)])
    mod = Module(alg, [Matrix.identity(QQ, 2)])
    assert rigidity_check(mod).certified


@st.composite
def series_pairs(draw):
    """(field, left, right, n): two term lists of unequal lengths whose
    r x k and k x c terms are often zero, and an index n that may run past
    either list."""
    field = draw(st.sampled_from((QQ, PrimeField(13))))
    if field == QQ:
        scalars = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    else:
        scalars = st.integers(0, 12)
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))

    def term(nrows, ncols):
        if draw(st.booleans()):
            return Matrix.zeros(field, nrows, ncols)
        cells = st.one_of(st.just(field.zero), scalars)
        return Matrix(field, [[draw(cells) for _ in range(ncols)] for _ in range(nrows)], ncols)

    left = [term(r, k) for _ in range(draw(st.integers(1, 5)))]
    right = [term(k, c) for _ in range(draw(st.integers(1, 5)))]
    n = draw(st.integers(0, len(left) + len(right)))
    return field, left, right, n


@settings(max_examples=300)
@given(series_pairs())
def test_series_term_matches_naive_product_sum(case):
    field, left, right, n = case
    want = Matrix.zeros(field, left[0].nrows, right[0].ncols)
    for i in range(n + 1):
        if i < len(left) and n - i < len(right):
            want = want + dense_product(left[i], right[n - i])
    got = series_term(left, right, n)
    assert got == want
    assert all(type(x) is (Fraction if field == QQ else int) for row in got.data for x in row)


def _over(field, mat):
    """A rational matrix with small denominators, read in the given field."""
    return Matrix(field, [[field.parse(str(x)) for x in row] for row in mat.data], mat.ncols)


@st.composite
def deformations(draw):
    """A valid deformation of order <= 4 over Q, F_13 or F_10007 of a random
    pair: a random cocycle integrated as far as it goes, conjugated by a
    random automorphism half the time, or the trivial deformation
    conjugated by one. Two thirds of the time one entry is then perturbed,
    either of one term or of one action matrix (order 0)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    alg, mod = random_pair(rng)
    p = draw(st.sampled_from((None, 13, 10007)))
    if p is not None:
        alg, mod = over_prime(alg, mod, p)
    F = mod.field
    order = draw(st.integers(1, 4))
    d = ApproximateDeformation(mod, [Cochain(mod, 1)] * order)
    if draw(st.booleans()):
        sigma = random_cocycle(mod, rng)
        d = integrate(sigma, order)
        if not isinstance(d, ApproximateDeformation):
            d = integrate(sigma, d[0])  # the order it reached is valid
    if d.is_trivial() or draw(st.booleans()):
        terms = [random_matrix(rng, mod.dim, mod.dim, density=0.6, scale=2) for _ in range(d.order)]
        d = conjugate(FormalAutomorphism(mod, [_over(F, t) for t in terms]), d)
    where = draw(st.sampled_from(("nowhere", "term", "action")))
    if where == "nowhere":
        return d
    a = rng.randrange(alg.dim)
    r, c = rng.randrange(mod.dim), rng.randrange(mod.dim)
    delta = F.parse(str(rng.choice((-2, -1, 1, 2, 3))))
    if where == "action":
        action = [m.data for m in mod.action]
        action[a][r][c] = F.reduce(action[a][r][c] + delta)
        mod = Module(alg, [Matrix(F, rows) for rows in action])
        return ApproximateDeformation(mod, [Cochain(mod, 1, t.entries) for t in d.terms])
    n = rng.randrange(d.order)
    rows = d.terms[n].value((a,)).data
    rows[r][c] = F.reduce(rows[r][c] + delta)
    mat = Matrix(F, rows)
    terms = list(d.terms)
    terms[n] = Cochain(mod, 1, {**terms[n].entries, (a,): mat})
    return ApproximateDeformation(mod, terms)


@settings(max_examples=120)
@given(deformations())
def test_check_deformation_matches_whole_matrix_oracle(d):
    """The multiplicativity check reports the same first violation
    (order, i, j), or None, as comparing both sides of every relation as
    whole matrices."""
    issue = check_deformation(d)
    assert (None if issue is None else issue.where) == reference_check_deformation(d)
