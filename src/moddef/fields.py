"""Exact scalar fields.

Two fields are supported: the rationals (scalars are `fractions.Fraction`,
always in lowest terms with positive denominator, or plain ints; see
below) and prime fields (scalars are plain ints in ``[0, p)``). No
floating point is ever produced or accepted. A field is fixed per
computation and never mixed.

Arithmetic and printing are Python's own: ``+``, ``-`` and ``*`` on those
scalars, and ``str``, which prints a reduced scalar as ``p/q`` with the
denominator omitted when it is 1, or as a decimal residue over a prime
field. That text is canonical, so parse/print round-trips exactly. A
field knows only what Python does not: its zero and one, how to parse a
scalar, its modulus ``p`` (None over Q), and ``reduce``, which brings a
result of the operators back to the canonical scalar (the identity over
Q, ``x % p`` over F_p). Callers reduce once, where a value is stored,
compared or emitted; a matrix built fresh over Q skips that pass, since
there it changes nothing.

Over Q an integral value may also be a plain int, which compares, hashes
and prints as the equal Fraction. A parsed scalar is an int when it is
integral and a Fraction otherwise; the structure constants
(``Algebra.products``) and the differentials hold integral values as ints
too, so that validation and elimination run on integers (see
``_kernel_py``), and a library caller may pass ints or Fractions. The zero
and one of Q stay Fractions. The operator products
(``linalg.series_term``, ``Matrix.__matmul__``, ``cochain.differential``)
start each sum from its first term, not from zero, so a sum of int
products stays an int; a matrix sum, negation or scaling
(``Matrix._combination``) still starts from the Fraction zero.
"""

import re
from fractions import Fraction

from .errors import InputError

_SCALAR_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

# Miller-Rabin with the first twelve primes as witnesses decides every n
# below psi_12 = 318665857834031151167461 = 399165290221 * 798330580441, the
# least composite that passes all twelve; larger moduli are refused.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MODULUS_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split(text: str):
    if not isinstance(text, str):
        raise InputError(f"scalar must be a string, got {type(text).__name__}")
    if not _SCALAR_RE.fullmatch(text):
        raise InputError(f"bad scalar syntax: {text!r}")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # past Python's integer-string conversion limit
        raise InputError(f"scalar has too many digits ({len(text)} characters)") from None
    if den == 0:
        raise InputError(f"zero denominator in scalar: {text!r}")
    return num, den


def integral(v):
    """v as an int when it is integral (an int stays an int), else v."""
    return v.numerator if v.denominator == 1 else v


class Rationals:
    """The field of arbitrary-precision rationals."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)
    p = None

    def reduce(self, a):
        return a

    def parse(self, text: str):
        num, den = _split(text)
        return num if den == 1 else integral(Fraction(num, den))

    def __repr__(self):
        return "Rationals()"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField:
    """The field of integers modulo a prime, elements stored in [0, p)."""

    def __init__(self, p: int):
        if p >= MODULUS_BOUND:
            raise InputError(f"field modulus must be below {MODULUS_BOUND}, got {p}")
        if not is_prime(p):
            raise InputError(f"field modulus must be prime, got {p}")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def reduce(self, a):
        return a % self.p

    def parse(self, text: str):
        num, den = _split(text)
        p = self.p
        den %= p
        if den == 0:
            raise InputError(f"scalar {text!r} has denominator divisible by {p}")
        return num % p if den == 1 else num * pow(den, -1, p) % p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = Rationals()


def field_from_name(name: str):
    """Resolve a field spec string: "Q", or "F<p>" with p prime."""
    if name == "Q":
        return QQ
    m = re.fullmatch(r"F([0-9]+)", name)
    if not m:
        raise InputError(f"unknown field spec {name!r} (expected 'Q' or 'Fp')")
    try:
        p = int(m.group(1))
    except ValueError:  # past Python's integer-string conversion limit
        raise InputError(f"field modulus has too many digits ({len(m.group(1))})") from None
    return PrimeField(p)
