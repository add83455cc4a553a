"""Acceptance suite.

One test per criterion; each prints a single `criterion <n>: PASS/FAIL`
line (visible with `pytest -s`) and then asserts. Expected values come
from independent oracles: a fraction-free elimination, explicitly
enumerated differential matrices for the smallest fixture, truncated
polynomial arithmetic, and direct matrix identities.
"""

import json
import random
from fractions import Fraction

from helpers import (
    deformation_value_series,
    frac_mat,
    oracle_rref,
    poly_mat_mul,
    random_automorphism,
    random_coboundary,
    random_cochain,
    random_cocycle,
    random_pair,
)
from moddef.cochain import (
    Cochain,
    coboundary_witness,
    cohomology,
    differential,
    differential_matrix,
    is_cocycle,
)
from moddef.cli import main
from moddef.deformation import (
    ApproximateDeformation,
    ObstructionOutcome,
    check_deformation,
    conjugate,
    equivalent_one_step,
    extend_once,
    integrate,
    normalize,
    obstruction,
)
from moddef.documents import canonical_json
from moddef.fields import QQ
from moddef.fixtures import fixture_a, fixture_b, fixture_c, fixture_documents
from moddef.linalg import Matrix

S = frac_mat([[1, 0], [0, -1]])


def finish(number, failures):
    print(f"criterion {number}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, failures[:3]


def test_criterion_1_differential_squares_to_zero():
    failures = []
    rng = random.Random(20240501)
    pairs = [random_pair(rng) for _ in range(5)]
    count = 0
    while count < 200:
        _, mod = pairs[count % 5]
        degree = count % 3
        f = random_cochain(mod, degree, rng, density=0.5)
        if not differential(differential(f)).is_zero():
            failures.append(f"d(d(f)) != 0 for cochain #{count}")
        count += 1
    for i, (_, mod) in enumerate(pairs):
        d0 = differential_matrix(mod, 0)
        d1 = differential_matrix(mod, 1)
        d2 = differential_matrix(mod, 2)
        if not (d1 @ d0).is_zero():
            failures.append(f"matrix d1*d0 != 0 for pair #{i}")
        if not (d2 @ d1).is_zero():
            failures.append(f"matrix d2*d1 != 0 for pair #{i}")
    finish(1, failures)


def _integrable_deformations(rng, count):
    """Deformations built by integrating seeds that are integrable by
    construction: coboundaries anywhere, arbitrary cocycles where the
    degree-2 cohomology vanishes, and the diagonal seed of fixture C."""
    out = []
    _, mod_b = fixture_b()
    _, mod_c = fixture_c()
    while len(out) < count:
        kind = len(out) % 3
        order = rng.randint(1, 4)
        if kind == 0:
            _, mod = random_pair(rng)
            seed = random_coboundary(mod, rng)
        elif kind == 1:
            mod = mod_b
            seed = random_cocycle(mod, rng)
        else:
            mod = mod_c
            seed = Cochain(mod, 1, {(1,): S}).scale(Fraction(rng.randint(1, 3)))
        got = integrate(seed, order)
        assert isinstance(got, ApproximateDeformation), "integrable seed failed to integrate"
        out.append(got)
    return out


def test_criterion_2_obstructions_are_cocycles():
    failures = []
    rng = random.Random(20240502)
    cases = _integrable_deformations(rng, 100)
    _, mod_a = fixture_a()
    cases.append(ApproximateDeformation(mod_a, [Cochain(mod_a, 1, {(1,): frac_mat([[1]])})]))
    _, mod_c = fixture_c()
    cases.append(integrate(Cochain(mod_c, 1, {(1,): S}), 4))
    for i, d in enumerate(cases):
        if check_deformation(d) is not None:
            failures.append(f"case #{i} is not a valid deformation")
        elif not is_cocycle(obstruction(d)):
            failures.append(f"obstruction of case #{i} is not a cocycle")
    finish(2, failures)


def test_criterion_3_extension_iff_coboundary():
    failures = []
    rng = random.Random(20240503)
    _, mod_a = fixture_a()
    _, mod_c = fixture_c()
    cases = [
        ApproximateDeformation(mod_a, [Cochain(mod_a, 1, {(1,): frac_mat([[1]])})]),
        ApproximateDeformation(mod_c, [Cochain(mod_c, 1, {(1,): S})]),
    ]
    while len(cases) < 52:
        _, mod = random_pair(rng)
        cases.append(ApproximateDeformation(mod, [random_cocycle(mod, rng)]))
    succeeded = obstructed = 0
    for i, d in enumerate(cases):
        step = extend_once(d)
        witness = coboundary_witness(obstruction(d))
        if isinstance(step, ApproximateDeformation):
            succeeded += 1
            if witness is None:
                failures.append(f"case #{i}: extended but obstruction is not a coboundary")
            if differential(step.terms[-1]) != -obstruction(d):
                failures.append(f"case #{i}: appended term does not solve d(x) = -obstruction")
        else:
            obstructed += 1
            if witness is not None:
                failures.append(f"case #{i}: refused to extend despite a coboundary witness")
    if not (succeeded and obstructed):
        failures.append("sample did not exercise both branches")
    finish(3, failures)


def test_criterion_4_matrix_algebra_is_rigid():
    failures = []
    rng = random.Random(20240504)
    _, mod = fixture_b()
    h1 = cohomology(mod, 1)
    h2 = cohomology(mod, 2)
    if h1.dim_cohomology != 0:
        failures.append(f"dim H1 = {h1.dim_cohomology} != 0")
    if h2.dim_cohomology != 0:
        failures.append(f"dim H2 = {h2.dim_cohomology} != 0")
    for i in range(20):
        sigma = random_cocycle(mod, rng)
        w = coboundary_witness(sigma)
        if w is None:
            failures.append(f"cocycle #{i} has no witness")
        elif differential(w) != sigma:
            failures.append(f"witness #{i} does not reproduce its cocycle")
    for i in range(5):
        d = ApproximateDeformation(mod, [random_cocycle(mod, rng)])
        for _ in range(3):
            d = extend_once(d)
            if isinstance(d, ObstructionOutcome):
                failures.append(f"extension chain #{i} hit an obstruction")
                break
    finish(4, failures)


def test_criterion_5_dual_number_line_dimensions():
    failures = []
    _, mod = fixture_a()
    # oracle: the differential matrices of the two-dimensional fixture,
    # enumerated by hand from the defining formula (generator acts by 0)
    oracle_d1 = frac_mat([[1, 0], [0, 0], [0, 0], [0, 0]])
    oracle_d2_rows = [[0] * 4 for _ in range(8)]
    oracle_d2_rows[1][1] = 1
    oracle_d2_rows[4][2] = -1
    oracle_d2 = frac_mat(oracle_d2_rows)
    rank_d0 = 0  # both actions commute with everything in dimension one
    _, piv1 = oracle_rref(oracle_d1)
    _, piv2 = oracle_rref(oracle_d2)
    oracle_h1 = (2 - len(piv1)) - rank_d0
    oracle_h2 = (4 - len(piv2)) - len(piv1)
    if differential_matrix(mod, 1) != oracle_d1:
        failures.append("assembled degree-1 matrix differs from the enumeration")
    if differential_matrix(mod, 2) != oracle_d2:
        failures.append("assembled degree-2 matrix differs from the enumeration")
    got_h1 = cohomology(mod, 1).dim_cohomology
    got_h2 = cohomology(mod, 2).dim_cohomology
    if (got_h1, got_h2) != (oracle_h1, oracle_h2) or (oracle_h1, oracle_h2) != (1, 1):
        failures.append(f"dims ({got_h1}, {got_h2}) != oracle ({oracle_h1}, {oracle_h2})")
    out = integrate(Cochain(mod, 1, {(1,): frac_mat([[1]])}), 5)
    if not isinstance(out, tuple):
        failures.append("integration did not halt")
    else:
        reached, outcome = out
        if reached != 1:
            failures.append(f"halted at order {reached} != 1")
        if outcome.witness is not None:
            failures.append("obstruction class unexpectedly vanished")
    finish(5, failures)


def test_criterion_6_dual_number_plane_integrates():
    failures = []
    _, mod = fixture_c()
    sigma = Cochain(mod, 1, {(1,): S})
    out = integrate(sigma, 10)
    if not isinstance(out, ApproximateDeformation) or out.order != 10:
        failures.append("integration to order 10 failed")
    else:
        if check_deformation(out) is not None:
            failures.append("order-10 result fails the multiplicativity relations")
        # oracle: the closed form squares to zero as a polynomial
        closed = [
            frac_mat([[0, 1], [0, 0]]),
            frac_mat([[1, 0], [0, -1]]),
            frac_mat([[0, 0], [-1, 0]]),
        ] + [Matrix.zeros(QQ, 2, 2)] * 8
        if any(m for m in poly_mat_mul(closed, closed, 10) if not m.is_zero()):
            failures.append("closed form does not square to zero")
        series = deformation_value_series(out, 1)
        if series != closed:
            failures.append("integration result differs from the closed form")
        square = poly_mat_mul(series, series, 10)
        if any(not m.is_zero() for m in square):
            failures.append("integrated series does not square to zero")
    normalized, auto, leading = normalize(ApproximateDeformation(mod, [sigma]))
    if leading is not None or not all(t.is_zero() for t in normalized.terms):
        failures.append("first-order truncation did not normalize to trivial")
    if auto.terms and auto.terms[0] != -frac_mat([[0, 0], [1, 0]]):
        failures.append("normalization witness is not the expected operator")
    finish(6, failures)


def test_criterion_7_one_step_equivalence():
    failures = []
    rng = random.Random(20240507)
    _, mod = fixture_c()
    base = integrate(Cochain(mod, 1, {(1,): S}), 2)
    for i in range(10):
        shift = random_coboundary(mod, rng)
        other = ApproximateDeformation(mod, [base.terms[0], base.terms[1] + shift])
        if check_deformation(other) is not None:
            failures.append(f"shifted extension #{i} is invalid")
            continue
        auto = equivalent_one_step(base, other)
        if auto is None:
            failures.append(f"no automorphism for coboundary shift #{i}")
        elif conjugate(auto, base) != other:
            failures.append(f"automorphism #{i} does not reproduce the second extension")
    _, mod_a = fixture_a()
    d1 = ApproximateDeformation(mod_a, [Cochain(mod_a, 1, {(1,): frac_mat([[1]])})])
    d2 = ApproximateDeformation(mod_a, [Cochain(mod_a, 1, {(1,): frac_mat([[2]])})])
    if equivalent_one_step(d1, d2) is not None:
        failures.append("returned an automorphism for a non-coboundary difference")
    finish(7, failures)


def test_criterion_8_first_order_conjugation_shift():
    failures = []
    rng = random.Random(20240508)
    for i in range(50):
        _, mod = random_pair(rng)
        d = ApproximateDeformation(mod, [random_cocycle(mod, rng)])
        phi = random_automorphism(mod, rng.randint(1, 3), rng)
        got = conjugate(phi, d).terms[0] - d.terms[0]
        want = differential(Cochain(mod, 0, {(): phi.terms[0]}))
        if got != want:
            failures.append(f"pair #{i}: first-order shift is not the commutator term")
    finish(8, failures)


def test_criterion_9_byte_determinism(tmp_path):
    failures = []
    commands = (
        "validate", "cohomology", "cocycle", "coboundary", "obstruction",
        "extend", "integrate", "normalize", "conjugate", "equiv-step", "rigidity",
    )
    for name, doc in fixture_documents().items():
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        for command in commands:
            outputs = []
            for attempt in range(2):
                out = tmp_path / f"{name}_{command}_{attempt}.json"
                code = main([command, str(path), "--output", str(out)])
                if code == 2:
                    failures.append(f"{command} on {name} hit an input error")
                    break
                outputs.append(out.read_bytes())
            if len(outputs) == 2 and outputs[0] != outputs[1]:
                failures.append(f"{command} on {name} is not byte-deterministic")
    finish(9, failures)
