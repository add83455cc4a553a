import random
from fractions import Fraction

import pytest

from helpers import catalog_pairs, frac_mat, random_pair
from moddef.algebra import Algebra, Module, validate_algebra, validate_module
from moddef.errors import InputError
from moddef.fields import QQ
from moddef.fixtures import dual_numbers, fixture_a, fixture_c, matrix_algebra_2
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


def test_multiply_unit_law():
    rng = random.Random(5)
    alg = matrix_algebra_2()
    v = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
    assert alg.multiply(alg.unit, v) == v
    assert alg.multiply(v, alg.unit) == v


def test_multiply_dual_numbers():
    alg = dual_numbers()
    x = [Q0, Q1]
    assert alg.multiply(x, x) == [Q0, Q0]


def test_multiply_matrix_units():
    alg = matrix_algebra_2()
    e12 = alg.basis_vector(1)
    e21 = alg.basis_vector(2)
    assert alg.multiply(e12, e21) == alg.basis_vector(0)  # e11


def test_multiply_length_check():
    alg = dual_numbers()
    with pytest.raises(InputError):
        alg.multiply([Q1], [Q1, Q0])


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
