from fractions import Fraction

import pytest

from moddef.errors import InputError
from moddef.fields import MODULUS_BOUND, PrimeField, QQ, field_from_name, is_prime


def test_rational_parse_canonical():
    assert QQ.parse("3/2") == Fraction(3, 2)
    assert QQ.parse("-4/6") == Fraction(-2, 3)
    assert QQ.parse("7") == Fraction(7)
    assert QQ.parse("0") == 0


def test_rational_parse_holds_integral_scalars_as_ints():
    assert type(QQ.parse("7")) is int
    assert type(QQ.parse("3/2")) is Fraction
    four_halves = QQ.parse("4/2")
    assert four_halves == 2 and type(four_halves) is int
    assert type(QQ.parse("-6/3")) is int
    assert str(QQ.parse("-0")) == "0"
    # zero and one stay Fractions, so sums started from them are Fractions
    assert type(QQ.zero) is Fraction and type(QQ.one) is Fraction


def test_rational_format_lowest_terms():
    assert str(Fraction(3, 2)) == "3/2"
    assert str(Fraction(-1, 3)) == "-1/3"
    assert str(Fraction(4)) == "4"
    assert str(Fraction(0)) == "0"


def test_parse_print_round_trip():
    for text in ["0", "1", "-1", "3/2", "-7/5", "100000000000000000001/3"]:
        assert str(QQ.parse(text)) == text


def test_rational_rejects_bad_syntax():
    for bad in ["1/0", "1.5", "1e3", "one", "", "1/-2", "--1", "1/ 2", "1\n", "-1/2\n"]:
        with pytest.raises(InputError):
            QQ.parse(bad)


def test_prime_field_arithmetic():
    f7 = PrimeField(7)
    assert f7.parse("10") == 3
    assert f7.parse("-1") == 6
    assert f7.parse("1/2") == 4  # 2 * 4 = 8 = 1
    assert f7.p == 7
    assert f7.reduce(-1) == 6
    assert f7.reduce(15) == 1  # 3 * 5
    with pytest.raises(InputError):
        f7.parse("1/7")


def test_rational_reduce_is_the_identity():
    x = Fraction(-3, 4)
    assert QQ.reduce(x) is x
    assert QQ.p is None


def test_non_prime_modulus_rejected():
    for n in (0, 1, 4, 6, 9, 561):  # 561 is a Carmichael number
        with pytest.raises(InputError):
            PrimeField(n)


def test_is_prime_samples():
    primes = [2, 3, 5, 7, 97, 2**31 - 1]
    composites = [1, 0, 4, 91, 2**31, 341550071728321]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_field_modulus_must_be_below_the_miller_rabin_bound():
    # psi_12 and psi_13: the least composites that pass Miller-Rabin to the
    # first twelve and thirteen prime bases, which is_prime cannot tell apart
    # from primes
    for n, factors in (
        (318665857834031151167461, (399165290221, 798330580441)),
        (3317044064679887385961981, (1287836182261, 2575672364521)),
    ):
        assert factors[0] * factors[1] == n
        with pytest.raises(InputError, match="must be below"):
            field_from_name(f"F{n}")
    assert MODULUS_BOUND == 318665857834031151167461
    assert field_from_name(f"F{2**61 - 1}") == PrimeField(2**61 - 1)


def test_field_from_name():
    assert field_from_name("Q") == QQ
    assert field_from_name("F11") == PrimeField(11)
    with pytest.raises(InputError):
        field_from_name("R")
    with pytest.raises(InputError):
        field_from_name("F10")
    for bad in ("F7\n", "Q\n"):
        with pytest.raises(InputError):
            field_from_name(bad)


@pytest.mark.parametrize("p", [13, 10007, 2**61 - 1])
def test_prime_parse_matches_fermat_inverse(p):
    """Residues equal num * den^(p-2) mod p, the Fermat form of the inverse,
    for den = 1, den = 1 (mod p), other denominators and negative numerators."""
    F = PrimeField(p)
    dens = [1, p + 1, 2 * p + 1, 2, 3, 7, p - 1, 2 * p - 1, 10**30 + 1]
    nums = [0, 1, -1, 5, -5, p, -p - 3, 10**25, -(10**25)]
    for den in dens:
        if den % p == 0:
            continue
        for num in nums:
            text = f"{num}/{den}" if den != 1 else str(num)
            assert F.parse(text) == num * pow(den, p - 2, p) % p, text
