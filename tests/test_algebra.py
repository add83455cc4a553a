import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    catalog_pairs,
    frac_mat,
    jordan_module,
    over_prime,
    random_cochain,
    random_pair,
    reference_validate_algebra,
    reference_validate_module,
)
from moddef.algebra import (
    Algebra,
    Module,
    multiplicativity_defects,
    validate_algebra,
    validate_module,
)
from moddef.cochain import Cochain, differential, differential_matrix
from moddef.documents import parse_problem
from moddef.errors import InputError
from moddef.fields import QQ, PrimeField, integral
from moddef.fixtures import (
    dual_numbers,
    fixture_a,
    fixture_b,
    fixture_c,
    fixture_documents,
    matrix_algebra_2,
)
from moddef.linalg import Matrix

Q0, Q1 = Fraction(0), Fraction(1)


def test_dual_numbers_valid():
    assert validate_algebra(dual_numbers()) == []


def test_matrix_algebra_valid_against_product_table():
    alg = matrix_algebra_2()
    assert validate_algebra(alg) == []
    # oracle: multiply the four matrix units as honest 2x2 matrices and
    # expand the results in the basis
    units = [
        frac_mat([[1, 0], [0, 0]]),
        frac_mat([[0, 1], [0, 0]]),
        frac_mat([[0, 0], [1, 0]]),
        frac_mat([[0, 0], [0, 1]]),
    ]
    for i in range(4):
        for j in range(4):
            prod = units[i] @ units[j]
            coords = [prod.data[0][0], prod.data[0][1], prod.data[1][0], prod.data[1][1]]
            assert alg.structure[i][j] == coords


def test_broken_associativity_names_triple():
    # unit law forced broken so associativity can fail in dimension 2:
    # e0 e0 = e0, e0 e1 = 0, e1 e0 = e1, e1 e1 = e0
    structure = [
        [[Q1, Q0], [Q0, Q0]],
        [[Q0, Q1], [Q1, Q0]],
    ]
    alg = Algebra(QQ, structure, [Q1, Q0])
    report = validate_algebra(alg)
    assert report
    assert any(v.kind == "associativity" and v.where == (0, 1, 1) for v in report)
    assert any(v.kind in ("unit-left", "unit-right") for v in report)


def test_structure_shape_checked():
    with pytest.raises(InputError):
        Algebra(QQ, [[[Q1]]], [Q1, Q0])
    with pytest.raises(InputError):
        Algebra(QQ, [[[Q1, Q0]], [[Q0, Q0]]], [Q1, Q0])


def test_fixture_modules_valid():
    for build in (fixture_a, fixture_c):
        _, mod = build()
        assert validate_module(mod) == []


def test_invalid_module_names_pair():
    alg = dual_numbers()
    mod = Module(alg, [Matrix.identity(QQ, 1), Matrix.identity(QQ, 1)])
    report = validate_module(mod)
    assert report
    assert report[0].kind == "multiplicativity"
    assert report[0].where == (1, 1)


def test_module_unit_failure():
    alg = dual_numbers()
    mod = Module(alg, [frac_mat([[2]]), frac_mat([[0]])])
    report = validate_module(mod)
    assert any(v.kind == "unit" for v in report)


def test_catalog_pairs_are_valid():
    for alg, mod in catalog_pairs():
        assert validate_algebra(alg) == []
        assert validate_module(mod) == []


def test_random_basis_change_preserves_validity():
    rng = random.Random(29)
    for _ in range(10):
        alg, mod = random_pair(rng)
        assert validate_algebra(alg) == []
        assert validate_module(mod) == []


FIELDS = {"Q": QQ, "F3": PrimeField(3), "F13": PrimeField(13)}
Q_ENTRIES = tuple(Fraction(x) for x in ("0", "1", "-1", "1/2", "-1/2", "2"))


@st.composite
def algebra_module_tables(draw, field=None):
    """An algebra of dimension 1-3 and a module of dimension 1-2 over
    field, by default Q, F_3 or F_13: a random table (almost always
    invalid), a valid random_pair, or a valid pair with one structure
    constant, unit coordinate or action entry replaced."""
    F = field or FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    scalar = st.sampled_from(Q_ENTRIES) if F is QQ else st.integers(0, F.p - 1)
    kind = draw(st.sampled_from(("random", "random", "valid", "perturbed")))
    if kind == "random":
        n, d = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        vector = st.lists(scalar, min_size=n, max_size=n)
        row = st.lists(vector, min_size=n, max_size=n)
        structure = draw(st.lists(row, min_size=n, max_size=n))
        alg = Algebra(F, structure, draw(vector))
        rows = st.lists(st.lists(scalar, min_size=d, max_size=d), min_size=d, max_size=d)
        action = [Matrix(F, draw(rows), d) for _ in range(n)]
        return alg, Module(alg, action)
    alg, mod = random_pair(random.Random(draw(st.integers(0, 2**32))), max_dim_r=3, max_dim_m=2)
    if F is not QQ:
        alg, mod = over_prime(alg, mod, F.p)
    if kind == "valid":
        return alg, mod
    n, d = alg.dim, mod.dim
    structure = [[list(v) for v in row] for row in alg.structure]
    unit = list(alg.unit)
    action = [m.data for m in mod.action]

    def index(size):
        return draw(st.integers(0, size - 1))

    where = draw(st.sampled_from(("structure", "unit", "action")))
    if where == "structure":
        structure[index(n)][index(n)][index(n)] = draw(scalar)
    elif where == "unit":
        unit[index(n)] = draw(scalar)
    else:
        action[index(n)][index(d)][index(d)] = draw(scalar)
    alg = Algebra(F, structure, unit)
    return alg, Module(alg, [Matrix(F, rows, d) for rows in action])


@settings(max_examples=400)
@given(algebra_module_tables())
def test_validators_match_dense_product_oracles(pair):
    alg, mod = pair
    assert validate_algebra(alg) == reference_validate_algebra(alg)
    assert validate_module(mod) == reference_validate_module(mod)
    # kept on the module: a second call, after mutating the first list,
    # returns the same violations
    validate_module(mod).clear()
    assert validate_module(mod) == reference_validate_module(mod)
    # the sparse table lists each nonzero constant once, as d_n reads it
    support = [[] for _ in range(alg.dim)]
    for i, row in enumerate(alg.structure):
        for j, coords in enumerate(row):
            for k, c in enumerate(coords):
                if c:
                    support[k].append((i, j, c))
    assert alg.product_support == tuple(map(tuple, support))


def test_products_hold_integral_constants_of_a_library_pair_as_ints():
    alg, mod = fixture_b()
    scalars = [c for row in alg.structure for coords in row for c in coords]
    assert {type(c) for c in scalars} == {Fraction}
    coefs = [c for row in alg.products for prod in row for _, c in prod]
    assert coefs and all(type(c) is int for c in coefs)
    for n in range(3):
        values = [v for row in differential_matrix(mod, n).rows for _, v in row]
        assert values and all(type(v) is int for v in values)


def _pair_as(convert, alg, mod):
    """The same pair over Q with every scalar passed through convert."""

    def vec(v):
        return [convert(x) for x in v]

    new_alg = Algebra(QQ, [[vec(v) for v in row] for row in alg.structure], vec(alg.unit))
    return new_alg, Module(new_alg, [Matrix(QQ, list(map(vec, m.data))) for m in mod.action])


@settings(max_examples=200)
@given(algebra_module_tables(QQ))
def test_validation_is_the_same_on_ints_and_fractions(pair):
    """Integral scalars held as ints, as the parser gives them, yield the
    same violations, message text included, as the same scalars held as
    Fractions."""
    alg, mod = _pair_as(Fraction, *pair)
    int_alg, int_mod = _pair_as(integral, *pair)
    assert validate_algebra(int_alg) == validate_algebra(alg)
    assert validate_module(int_mod) == validate_module(mod)


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1), st.sampled_from((None, 13, 10007)))
def test_order_one_defect_is_the_differential(seed, p):
    """The order-1 defect of [[A_k, f_k]] is A_a f_b - f_(ab) + f_a A_b,
    the coboundary formula of a degree-1 cochain f."""
    rng = random.Random(seed)
    alg, mod = random_pair(rng)
    if p is not None:
        alg, mod = over_prime(alg, mod, p)
    f = random_cochain(mod, 1, rng, density=0.7)
    series = [[a, f.value((k,))] for k, a in enumerate(mod.action)]
    defects = Cochain(mod, 2, dict(multiplicativity_defects(mod, series, 1)))
    assert defects == differential(f)


def test_multiplicativity_defects_of_an_integral_pair_hold_only_ints():
    """Over Q the defects of an int-valued pair and int-valued series
    terms sum each cell from its first product, not from the field's
    Fraction zero, so every defect value is an int: fixture C as parsed,
    and Q[x]/(x^3) on Q^3 with its scalars held as ints."""
    pairs = [parse_problem(fixture_documents()["C"]).module, _pair_as(integral, *jordan_module(3, 3))[1]]
    rng = random.Random(11)
    for mod in pairs:
        d_m = mod.dim

        def int_matrix():
            return Matrix(QQ, [[rng.choice((0, 1, -1, 2)) for _ in range(d_m)] for _ in range(d_m)])

        series = [[a, int_matrix(), int_matrix()] for a in mod.action]
        values = []
        for n in range(3):
            for _, defect in multiplicativity_defects(mod, series, n):
                values += [v for row in defect.rows for _, v in row]
        assert values and all(type(v) is int for v in values)
