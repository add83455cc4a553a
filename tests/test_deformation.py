import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    deformation_value_series,
    dense_product,
    frac_mat,
    jordan_module,
    over_prime,
    poly_mat_mul,
    automorphism_polynomial,
    random_automorphism,
    random_coboundary,
    random_cochain,
    random_cocycle,
    random_matrix,
    random_mod_matrix,
    random_pair,
    reference_check_deformation,
    reference_defects,
    reference_conjugate,
    reference_normalize,
)
from moddef.algebra import Module, Violation, validate_module
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
    obstruction_outcome,
    rigidity_check,
)
from moddef.documents import encode_algebra, encode_module, parse_problem
from moddef.errors import InputError
from moddef.fields import PrimeField, QQ
from moddef.fixtures import fixture_a, fixture_b, fixture_c, fixture_documents
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
    assert out.order == 6 and all(t.is_zero() for t in out.terms)


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


def _field_matrix(rng, mod, density=0.7):
    """A random operator over the module's field: small fractions over Q,
    uniform residues over F_p."""
    p, n = mod.field.p, mod.dim
    if p is None:
        return random_matrix(rng, n, n, density=density, scale=2)
    return random_mod_matrix(rng, n, n, p, density=density)


def _random_field_pair(draw, rng):
    alg, mod = random_pair(rng)
    p = draw(st.sampled_from((None, 13, 10007)))
    return (alg, mod) if p is None else over_prime(alg, mod, p)


def _draw_automorphism(draw, rng, mod, order):
    """The empty automorphism, a one-term one 1 + t^l g as normalize's
    steps are, or a dense one, with up to order + 2 terms, so shorter or
    longer than a deformation of that order."""
    shape = draw(st.sampled_from(("empty", "one-term", "dense")))
    if shape == "empty":
        return FormalAutomorphism(mod, [])
    length = draw(st.integers(1, order + 2))
    if shape == "one-term":
        terms = [mod.zero_operator()] * (length - 1) + [_field_matrix(rng, mod, density=0.8)]
    else:
        terms = [_field_matrix(rng, mod) for _ in range(length)]
    return FormalAutomorphism(mod, terms)


@st.composite
def automorphism_pairs(draw):
    """(phi, chi, order) over Q, F_13 or F_10007, with order in 0..6."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    _, mod = _random_field_pair(draw, rng)
    order = draw(st.integers(0, 6))
    return _draw_automorphism(draw, rng, mod, order), _draw_automorphism(draw, rng, mod, order), order


@settings(max_examples=150)
@given(automorphism_pairs())
def test_compose_matches_polynomial_products(case):
    """compose is the truncated product of 1 + phi and 1 + chi against
    dense polynomial products, with exactly order terms."""
    phi, chi, order = case
    want = poly_mat_mul(automorphism_polynomial(phi), automorphism_polynomial(chi), order)
    assert phi.compose(chi, order).terms == want[1:]


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
    assert all(t.is_zero() for t in out.terms)


@st.composite
def conjugations(draw):
    """(phi, d): a deformation of order 1..4 with random terms over Q, F_13
    or F_10007 (conjugation needs no multiplicativity) and an automorphism
    from _draw_automorphism."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    _, mod = _random_field_pair(draw, rng)
    order = draw(st.integers(1, 4))
    d = ApproximateDeformation(mod, [random_cochain(mod, 1, rng) for _ in range(order)])
    return _draw_automorphism(draw, rng, mod, order), d


@settings(max_examples=150)
@given(conjugations())
def test_conjugate_is_the_triple_product(case):
    """conjugate(phi, d) at basis a is Psi xi_a Phi truncated at d's order,
    Psi the inverse of Phi = 1 + phi, all from dense polynomial products."""
    phi, d = case
    got = conjugate(phi, d)
    want = reference_conjugate(phi, d)
    assert got.order == d.order
    for a, series in enumerate(want):
        assert [t.value((a,)) for t in got.terms] == series[1:]


def test_conjugation_builds_no_identity_and_no_inverse(monkeypatch):
    """conjugate, normalize and compose multiply only the terms past the
    identity: none of them builds one."""
    _, mod = fixture_c()
    d = integrate(sigma_c(mod), 6)
    phi = random_automorphism(mod, 3, random.Random(7))
    assert validate_module(mod) == []

    def refuse(*args):
        raise AssertionError("identity built")

    monkeypatch.setattr(Matrix, "identity", refuse)
    phi.compose(phi, 6)
    conjugate(phi, d)
    assert normalize(d)[2] is None


# --- normalization ---------------------------------------------------------------


def test_normalize_trivial_input():
    _, mod = fixture_c()
    d = ApproximateDeformation(mod, [Cochain(mod, 1)] * 3)
    normalized, auto, leading = normalize(d)
    assert normalized == d
    assert all(t.is_zero() for t in auto.terms)
    assert leading is None


def test_normalize_fixture_c_first_order():
    _, mod = fixture_c()
    normalized, auto, leading = normalize(order_one(mod, sigma_c(mod)))
    assert leading is None
    assert all(t.is_zero() for t in normalized.terms)
    assert auto.terms[0] == -frac_mat([[0, 0], [1, 0]])
    assert conjugate(auto, order_one(mod, sigma_c(mod))) == normalized


def test_normalize_fixture_c_full_depth():
    _, mod = fixture_c()
    d = integrate(sigma_c(mod), 6)
    normalized, auto, leading = normalize(d)
    assert leading is None
    assert all(t.is_zero() for t in normalized.terms)
    assert conjugate(auto, d) == normalized


def test_normalize_fixture_a_stops_at_nonzero_class():
    _, mod = fixture_a()
    d = order_one(mod, sigma_a(mod))
    normalized, auto, leading = normalize(d)
    assert leading == 1
    assert normalized == d
    assert all(t.is_zero() for t in auto.terms)


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


@st.composite
def normalizable(draw):
    """A deformation of order 1..4 over Q, F_13 or F_10007: trivial, a
    coboundary or a random cocycle integrated as far as it goes, or random
    terms; half the time conjugated by a random automorphism."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    _, mod = _random_field_pair(draw, rng)
    order = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("trivial", "coboundary", "cocycle", "random")))
    if kind == "trivial":
        d = ApproximateDeformation(mod, [Cochain(mod, 1)] * order)
    elif kind == "random":
        d = ApproximateDeformation(mod, [random_cochain(mod, 1, rng) for _ in range(order)])
    else:
        if kind == "coboundary":
            seed = differential(Cochain(mod, 0, {(): _field_matrix(rng, mod)}))
        else:
            seed = random_cocycle(mod, rng)
        d = integrate(seed, order)
        if not isinstance(d, ApproximateDeformation):
            d = integrate(seed, d[0])
    if draw(st.booleans()):
        d = conjugate(FormalAutomorphism(mod, [_field_matrix(rng, mod) for _ in range(order)]), d)
    return d


@settings(max_examples=80)
@given(normalizable())
def test_normalize_matches_reference_loop(d):
    """normalize equals its definition run on dense polynomial products,
    and its automorphism has no terms when no step is taken and exactly
    d.order terms otherwise."""
    normalized, auto, leading = normalize(d)
    want, composite, want_leading = reference_normalize(d)
    assert (normalized, auto.terms, leading) == (want, composite, want_leading)
    lead = infinitesimal(d)
    stepped = lead is not None and coboundary_witness(lead[1]) is not None
    assert auto.order == (d.order if stepped else 0)
    assert conjugate(auto, d) == normalized


# --- one-step equivalence ---------------------------------------------------------


def test_equivalent_one_step_equal_inputs():
    _, mod = fixture_c()
    d = integrate(sigma_c(mod), 2)
    auto = equivalent_one_step(d, d)
    assert auto is not None
    assert all(t.is_zero() for t in auto.terms)
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
    # an int where integral (over F_p every residue), a Fraction elsewhere
    assert all(type(x) is (int if x.denominator == 1 else Fraction) for row in got.rows for _, x in row)


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
    if all(t.is_zero() for t in d.terms) or draw(st.booleans()):
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


def test_a_nudge_of_one_in_two_to_the_sixteen_is_not_lost():
    """An order-16 deformation with denominators up to 2^16, xi' = phi^-1 rho
    phi for phi = 1 + t g with g in 1/2 Z, keeps every small nonzero
    through the integer-numerator sums: its obstruction equals the dense
    Fraction reference, and with one entry of term n nudged by 1/2^16 the
    check reports order n at the reference's first basis pair."""
    _, mod = jordan_module(3, 3)
    rng = random.Random(41)
    g = Matrix(QQ, [[Fraction(rng.randint(-3, 3), 2) for _ in range(3)] for _ in range(3)])
    d = conjugate(FormalAutomorphism(mod, [g]), ApproximateDeformation(mod, [Cochain(mod, 1)] * 16))
    assert check_deformation(d) is None
    assert max(v.denominator for t in d.terms for m in t.entries.values() for row in m.rows for _, v in row) >= 2**15
    want = reference_defects(d, 17)
    obs = obstruction(d)
    assert {key: obs.value(key).data for key in want} == want
    for n in range(1, 17):
        a, r, c = rng.randrange(3), rng.randrange(3), rng.randrange(3)
        rows = d.terms[n - 1].value((a,)).data
        rows[r][c] += Fraction(1, 2**16)
        terms = list(d.terms)
        terms[n - 1] = Cochain(mod, 1, {**terms[n - 1].entries, (a,): Matrix(QQ, rows)})
        nudged = ApproximateDeformation(mod, terms)
        violation = check_deformation(nudged)
        assert violation is not None and violation.where[0] == n
        assert violation.where == reference_check_deformation(nudged)


def _values(*cochains):
    return [v for f in cochains for m in f.entries.values() for row in m.rows for _, v in row]


def test_integral_deformations_stay_on_ints():
    """Over Q a parsed pair holds its integral scalars as ints, and an
    integral seed keeps them so: every term integrate appends, the witness
    of obstruction_outcome and extend_once (the solve of d(xi) = -obs),
    and the automorphism equivalent_one_step finds. Each sum starts as its
    first term, so no Fraction zero turns an int sum into Fraction(k, 1)."""
    alg, j33 = jordan_module(3, 3)
    doc = {"field": "Q", "algebra": encode_algebra(alg), "module": encode_module(j33)}
    c = parse_problem(fixture_documents()["C"])
    rng = random.Random(11)
    for mod, seed in ((c.module, c.cochain), (parse_problem(doc).module, None)):
        d_m = mod.dim

        def coboundary():
            rows = [[rng.randint(-2, 2) for _ in range(d_m)] for _ in range(d_m)]
            return differential(Cochain(mod, 0, {(): Matrix(QQ, rows)}))

        seed = seed or coboundary()
        outcome = obstruction_outcome(ApproximateDeformation(mod, [seed]))
        assert extend_once(ApproximateDeformation(mod, [seed])).terms[-1] == outcome.witness
        d = integrate(seed, 12)
        assert d.order == 12
        d1 = extend_once(d)
        d2 = ApproximateDeformation(mod, d1.terms[:-1] + [d1.terms[-1] + coboundary()])
        phi = equivalent_one_step(d1, d2)
        assert conjugate(phi, d1) == d2
        assert _values(*d.terms) and _values(outcome.witness) and not phi.terms[-1].is_zero()
        values = _values(*d1.terms, outcome.obstruction, outcome.witness)
        values += [v for row in phi.terms[-1].rows for _, v in row]
        assert all(type(v) is int for v in values)
