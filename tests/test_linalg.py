import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import frac_mat, matvec, oracle_rref, over_prime, random_matrix, random_mod_matrix, reference_solve
from moddef import _kernel_py as kernel
from moddef.cochain import Cochain
from moddef.errors import InputError
from moddef.fields import PrimeField, QQ
from moddef.fixtures import fixture_c
from moddef.linalg import Matrix, series_term, solve


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    reduced, pivots = m.rref()
    assert reduced == m
    assert pivots == (0, 1)


def test_rref_rank_one():
    m = frac_mat([[1, 2], [2, 4]])
    reduced, pivots = m.rref()
    assert reduced == frac_mat([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_matches_fraction_free_oracle():
    rng = random.Random(101)
    for _ in range(25):
        m = random_matrix(rng, 5, 7, density=rng.uniform(0.3, 0.9))
        got_m, got_p = m.rref()
        want_m, want_p = oracle_rref(m)
        assert got_p == want_p
        assert got_m == want_m


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(10):
        m = random_matrix(rng, 4, 6)
        reduced, _ = m.rref()
        again, _ = reduced.rref()
        assert again == reduced


def test_rank_zero_and_identity():
    assert Matrix.zeros(QQ, 3, 3).rank() == 0
    assert Matrix.identity(QQ, 4).rank() == 4


def test_kernel_identity_empty():
    assert Matrix.identity(QQ, 3).kernel_basis() == []


def test_kernel_zero_map():
    basis = Matrix.zeros(QQ, 2, 3).kernel_basis()
    assert len(basis) == 3
    # canonical basis of the whole space
    assert basis == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_kernel_single_equation():
    basis = frac_mat([[1, 1, 0]]).kernel_basis()
    assert len(basis) == 2
    for v in basis:
        assert v[0] + v[1] == 0


def test_rank_nullity():
    rng = random.Random(23)
    for _ in range(15):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6), density=0.5)
        assert m.rank() + len(m.kernel_basis()) == m.ncols
        for v in m.kernel_basis():
            assert all(x == 0 for x in matvec(m, v))


def test_kernel_basis_builds_the_columns_asked_for():
    rng = random.Random(29)
    for field in (QQ, PrimeField(13)):
        for _ in range(10):
            if field == QQ:
                m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 7), density=0.5)
            else:
                m = random_mod_matrix(rng, rng.randint(1, 5), rng.randint(1, 7), 13, density=0.5)
            _, pivots = m.rref()
            free = [j for j in range(m.ncols) if j not in pivots]
            full = m.kernel_basis()
            assert m.kernel_basis(free[1::2]) == full[1::2]
            assert m.kernel_basis([]) == []
            for pc in pivots:  # a pivot column has no kernel vector
                with pytest.raises(InputError, match=f"column {pc} is a pivot column"):
                    m.kernel_basis(free[:1] + [pc])
    with pytest.raises(InputError, match="column 0 is a pivot column"):
        Matrix(QQ, [[1, 2]]).kernel_basis([0])


@settings(max_examples=150)
@given(st.sampled_from((None, 13, 2**61 - 1)), st.data())
def test_matrix_operators_agree_with_integer_arithmetic_mod_p(p, data):
    """Every Matrix operator agrees with plain dense arithmetic over Q
    (p None) and with integer arithmetic mod p, and leaves canonical rows:
    strictly increasing columns and nonzero values only, residues in
    (0, p) over F_p. Small entries and their negatives, with zero cells,
    make sums cancel exactly."""
    F = QQ if p is None else PrimeField(p)
    if p is None:
        nonzero = st.one_of(
            st.sampled_from((-3, -2, -1, 1, 2, 3)),
            st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(2, 3)),
        )
    else:
        nonzero = st.one_of(st.sampled_from((1, 2, 3, p - 3, p - 2, p - 1)), st.integers(1, p - 1))
    cells = st.one_of(st.just(F.zero), nonzero)
    n, k, c = (data.draw(st.integers(1, 3)) for _ in range(3))

    def mat(nrows, ncols):
        return Matrix(F, [[data.draw(cells) for _ in range(ncols)] for _ in range(nrows)], ncols)

    def red(x):
        return x if p is None else x % p

    def product(x, y):
        return [[red(sum(u * v for u, v in zip(r, col))) for col in zip(*y)] for r in x]

    a, a2, b, b2, m = mat(n, k), mat(n, k), mat(k, c), mat(k, c), mat(n, c)
    A, A2, B, B2, M = a.data, a2.data, b.data, b2.data, m.data
    s = data.draw(st.one_of(st.just(F.zero), nonzero))
    term = [
        [red(x + y - s * z) for x, y, z in zip(*rows)]
        for rows in zip(product(A, B2), product(A2, B), M)
    ]
    got = {
        "+": (a + a2, [[red(x + y) for x, y in zip(r, q)] for r, q in zip(A, A2)]),
        "-": (a - a2, [[red(x - y) for x, y in zip(r, q)] for r, q in zip(A, A2)]),
        "neg": (-a, [[red(-x) for x in r] for r in A]),
        "scale": (a.scale(s), [[red(s * x) for x in r] for r in A]),
        "scale by 0": (a.scale(F.zero), [[0] * k for _ in range(n)]),
        "@": (a @ b, product(A, B)),
        "series_term": (series_term([a, a2], [b, b2], 1, [(s, m)]), term),
        "a + (-a)": (a + (-a), [[0] * k for _ in range(n)]),
    }
    for op, (got_m, want) in got.items():
        assert got_m.data == want, op
        for row in got_m.rows:
            columns = [j for j, _ in row]
            assert columns == sorted(set(columns)), op
            assert all(v != 0 if p is None else 0 < v < p for _, v in row), op
    assert got["a + (-a)"][0].is_zero()


def test_solve_identity():
    b = [Fraction(3), Fraction(-1, 2)]
    assert solve(Matrix.identity(QQ, 2), b) == b


def test_solve_inconsistent():
    assert solve(frac_mat([[1, 2], [2, 4]]), [Fraction(1), Fraction(3)]) is None


def test_solve_random_consistent_systems():
    rng = random.Random(31)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), density=0.6)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(a.ncols)]
        b = matvec(a, x)
        x = solve(a, b)
        assert x is not None
        assert matvec(a, x) == b


def test_solve_present_iff_ranks_match():
    rng = random.Random(37)
    for _ in range(20):
        a = random_matrix(rng, 4, 3, density=0.5)
        b = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        aug = Matrix(QQ, [row + [bv] for row, bv in zip(a.data, b)], 4)
        assert (solve(a, b) is not None) == (aug.rank() == a.rank())


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        solve(Matrix.identity(QQ, 2), [Fraction(1)])


def test_prime_field_rref_and_solve():
    rng = random.Random(41)
    f = PrimeField(13)
    for _ in range(15):
        m = random_mod_matrix(rng, 4, 6, 13)
        reduced, pivots = m.rref()
        assert m.rank() + len(m.kernel_basis()) == 6
        for v in m.kernel_basis():
            assert all(x == 0 for x in matvec(m, v))
        # pivot columns carry unit vectors
        for r, c in enumerate(pivots):
            col = [reduced.data[i][c] for i in range(m.nrows)]
            assert col == [f.one if i == r else f.zero for i in range(m.nrows)]


def test_big_modulus_path():
    p = 2**61 - 1
    f = PrimeField(p)
    m = Matrix(f, [[1, 2, 3], [4, 5, 6], [7, 8, 10]], 3)
    assert m.rank() == 3
    x = solve(m, [1, 0, 0])
    assert x is not None
    assert matvec(m, x) == [1, 0, 0]


def test_dense_constructor_reduces_multiples_of_p_to_zero():
    # unreduced, 7 and 14 were kept as nonzeros and elimination raised
    m = Matrix(PrimeField(7), [[7, 0], [0, 14]])
    assert m.is_zero()
    assert m.rows == [[], []]
    assert m.rank() == 0


def test_dense_constructor_reduces_entries_into_0_to_p():
    f = PrimeField(7)
    m = Matrix(f, [[8, -1]])
    assert m == Matrix(f, [[1, 6]])
    assert m.rows == [[(0, 1), (1, 6)]]


def test_matrix_shape_validation():
    with pytest.raises(InputError):
        Matrix(QQ, [[Fraction(1)], [Fraction(1), Fraction(2)]])
    with pytest.raises(InputError):
        Matrix(QQ, [], None)


def test_fields_never_mix():
    q = Matrix.identity(QQ, 2)
    f = Matrix.identity(PrimeField(5), 2)
    with pytest.raises(InputError):
        q + f
    with pytest.raises(InputError):
        q @ f
    assert q != f


def test_elimination_over_q_never_produces_floats():
    # a library caller may pass int entries; inverting a pivot must stay exact
    def exact(values):
        return all(type(x) in (Fraction, int) for x in values)

    for rows in ([[2]], [[2, 1]], [[3, 1, 2], [6, 5, 7]], [[0, 4, 2], [3, 0, 1]]):
        m = Matrix(QQ, rows)
        reduced, _ = m.rref()
        assert all(exact(row) for row in reduced.data)
        assert all(exact(v) for v in m.kernel_basis())
        x = solve(m, [5] * m.nrows)
        assert x is not None and exact(x)
    assert solve(Matrix(QQ, [[2]]), [1]) == [Fraction(1, 2)]
    assert Matrix(QQ, [[2, 1]]).kernel_basis() == [[Fraction(-1, 2), Fraction(1)]]


_RREF_FIELDS = (QQ, PrimeField(13), PrimeField(2**61 - 1))


@st.composite
def scrambled_echelon_forms(draw):
    """(field, R0 padded with zero rows, its pivots, M times the padded R0)
    for a random reduced echelon form R0 and a random invertible M built
    from row swaps, non-unit scalings and row additions."""
    field = draw(st.sampled_from(_RREF_FIELDS))
    if field == QQ:
        scalars = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    else:
        scalars = st.integers(0, field.p - 1)
    nonunit = scalars.filter(lambda c: c not in (0, 1))
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 10))
    density = draw(st.sampled_from((0.15, 1.0)))
    rank = draw(st.integers(0, min(nrows, ncols)))
    pivots = tuple(sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=rank, max_size=rank))))
    rows = [[field.zero] * ncols for _ in range(nrows)]
    for r, pc in enumerate(pivots):
        rows[r][pc] = field.one
        for j in range(pc + 1, ncols):
            if j not in pivots and draw(st.floats(0, 1)) < density:
                rows[r][j] = draw(scalars)
    scrambled = [row[:] for row in rows]
    row_index = st.integers(0, nrows - 1)
    for kind in draw(st.lists(st.sampled_from(("swap", "scale", "add")), max_size=16)):
        i, j = draw(row_index), draw(row_index)
        if kind == "swap":
            scrambled[i], scrambled[j] = scrambled[j], scrambled[i]
        elif kind == "scale":
            c = draw(nonunit)
            scrambled[i] = [field.reduce(c * x) for x in scrambled[i]]
        elif i != j:
            c = draw(scalars)
            scrambled[i] = [field.reduce(x + c * y) for x, y in zip(scrambled[i], scrambled[j])]
    return field, Matrix(field, rows, ncols), pivots, Matrix(field, scrambled, ncols)


@settings(max_examples=300)
@given(scrambled_echelon_forms())
def test_rref_recovers_scrambled_echelon_form(case):
    """The reduced echelon form is unique, so eliminating M R0 must give
    back exactly R0 and its pivots, over Q and over small and large primes."""
    field, reduced, pivots, scrambled = case
    assert scrambled.rref() == (reduced, pivots)


@st.composite
def systems(draw):
    """(field, matrix, right-hand sides): over Q the entries are sometimes
    plain ints; the sides mix images a x (consistent) with arbitrary
    vectors (mostly inconsistent when the rank is below the row count)."""
    field = draw(st.sampled_from(_RREF_FIELDS))
    if field != QQ:
        scalars = st.integers(0, field.p - 1)
    elif draw(st.booleans()):
        scalars = st.integers(-3, 3)
    else:
        scalars = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 7))
    density = draw(st.sampled_from((0.2, 0.6, 1.0)))
    rows = [
        [draw(scalars) if draw(st.floats(0, 1)) < density else field.zero for _ in range(ncols)]
        for _ in range(nrows)
    ]
    m = Matrix(field, rows, ncols)
    rhs = []
    for consistent in draw(st.lists(st.booleans(), min_size=2, max_size=6)):
        if consistent:
            rhs.append(matvec(m, [draw(scalars) for _ in range(ncols)]))
        else:
            rhs.append([draw(scalars) for _ in range(nrows)])
    return field, m, rhs


@settings(max_examples=200)
@given(systems())
def test_solve_replays_one_factorisation(case):
    """Many right-hand sides against one matrix: each solve replays the
    recorded elimination and must equal a fresh elimination of [a | b]
    exactly, None included, with no float anywhere over Q."""
    field, m, rhs = case
    ops = None
    for b in rhs:
        got = solve(m, b)
        want = reference_solve(m, b)
        assert got == want
        if want is not None:
            assert matvec(m, want) == b
            assert all(type(x) in (Fraction, int) for x in got)
        assert ops is None or m._ops is ops  # factorised once
        ops = m._ops


def test_unit_pivots_keep_the_recorded_operations_on_ints():
    """The incidence matrix of a directed graph (one row per edge: -1 at
    its tail, +1 at its head) is totally unimodular, so every pivot of its
    elimination is +1 or -1 and every row stays integral. A pivot row
    whose pivot is -1 is negated and keeps the denominator 1, so every
    recorded inverse and factor is an int, and replaying them is int
    arithmetic."""
    rng = random.Random(43)
    for _ in range(20):
        nodes = rng.randint(2, 12)
        edges = [rng.sample(range(nodes), 2) for _ in range(rng.randint(1, 20))]
        rows = [[(min(t, h), -1 if t < h else 1), (max(t, h), 1 if t < h else -1)] for t, h in edges]
        ops = []
        reduced, pivots = kernel.rref_rational(rows, nodes, ops)
        assert (Matrix.sparse(QQ, reduced, nodes), pivots) == oracle_rref(Matrix.sparse(QQ, rows, nodes))
        for _, inv, factors in ops:
            assert inv is None or type(inv) is int
            assert all(type(f) is int for _, f in factors)
        assert all(v in (-1, 1) for row in reduced for _, v in row)


def test_kernel_leaves_its_input_rows_unchanged():
    """The kernel reads its argument rows and builds its output rows fresh;
    Matrix.rref hands it the matrix's own rows without a copy."""
    q_rows = [
        [(1, Fraction(2)), (2, Fraction(1, 3))],
        [(1, Fraction(4))],
        [(0, Fraction(5)), (2, 7)],
    ]
    f_rows = [[(1, 3), (2, 5)], [(0, 7), (2, 2)], [(0, 7), (1, 3), (2, 8)]]
    for rows, eliminate in (
        (q_rows, lambda rows, ops: kernel.rref_rational(rows, 3, ops)),
        (f_rows, lambda rows, ops: kernel.rref_mod(rows, 3, 13, ops)),
    ):
        before = [row[:] for row in rows]
        objects = list(rows)
        reduced, pivots = eliminate(rows, [])
        assert rows == before and all(a is b for a, b in zip(rows, objects))
        assert not any(out is row for out in reduced for row in rows)
        assert pivots == (0, 1, 2)
    m = random_matrix(random.Random(3), 6, 5, density=0.4)
    before = [row[:] for row in m.data]
    m.rref()
    m.kernel_basis()
    assert m.data == before
    t = m.transpose()
    before = [row[:] for row in t.rows]
    t.rref()
    t.kernel_basis()
    assert t.rows == before and t.rref()[0].rows is not t.rows


@st.composite
def sparse_systems(draw):
    """(field, rows, right-hand sides): a sparse matrix of up to 60x40 at
    0.5-5% density with zero rows and duplicate rows, in which over Q some
    zero cells hold a fresh Fraction(0) or an int 0 instead of the field's
    zero object, some nonzero cells hold ints, and some hold large
    rationals (numerators up to 10^18, denominators up to 10^9), whose
    rows go over large common denominators in the kernel."""
    field = draw(st.sampled_from(_RREF_FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nrows = draw(st.integers(1, 60))
    ncols = draw(st.integers(1, 40))
    density = draw(st.sampled_from((0.005, 0.02, 0.05)))

    def scalar():
        if field != QQ:
            return rng.randrange(1, field.p)
        u = rng.random()
        if u < 0.3:
            return rng.choice((-2, -1, 1, 3))
        if u < 0.45:
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**18), rng.randint(1, 10**9))
        return Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))

    def zero():
        if field != QQ:
            return 0
        return rng.choice((QQ.zero, QQ.zero, Fraction(0), 0))

    rows = [[scalar() if rng.random() < density else zero() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3))):  # duplicates, some scaled
        i, j = rng.randrange(nrows), rng.randrange(nrows)
        c = field.one if rng.random() < 0.5 else scalar()
        rows[j] = [field.reduce(c * x) if x else x for x in rows[i]]
    for _ in range(draw(st.integers(0, 2))):
        rows[rng.randrange(nrows)] = [zero() for _ in range(ncols)]
    m = Matrix(field, rows, ncols)
    rhs = [matvec(m, [scalar() if rng.random() < 0.2 else field.zero for _ in range(ncols)])]
    rhs.append([scalar() if rng.random() < 0.1 else field.zero for _ in range(nrows)])
    return field, rows, rhs


@settings(max_examples=200)
@given(sparse_systems())
def test_sparse_kernel_matches_oracle_in_any_row_order(case):
    """The sparse elimination returns the oracle's reduced rows and pivots,
    the same result for every order of the input rows (so its pivot
    choices cannot leak into the output), and solves through its recorded
    row operations as a fresh elimination of [a | b] does."""
    field, rows, rhs = case
    ncols = len(rows[0])
    m = Matrix(field, rows, ncols)
    want = oracle_rref(m)
    assert m.rref() == want
    assert all(type(x) in (Fraction, int) for row in m.rref()[0].data for x in row)
    shuffled = rows[:]
    random.Random(len(rows)).shuffle(shuffled)
    assert Matrix(field, shuffled, ncols).rref() == want
    for b in rhs:
        assert solve(m, b) == reference_solve(m, b)


@st.composite
def integral_sparse_matrices(draw):
    """(rows as ints, the same rows as Fractions, the same rows mixed,
    ncols): a sparse integer matrix of up to 30x20 at 5-40% density with
    entries in [-6, 6] and a few up to 10^12 in size; the mixed form holds
    some entries as Fraction(k) and the rest as ints."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nrows, ncols = draw(st.integers(1, 30)), draw(st.integers(1, 20))
    density = draw(st.sampled_from((0.05, 0.15, 0.4)))

    def entry():
        k = rng.choice((-6, -4, -3, -2, -1, 1, 1, 2, 3, 5, 6))
        return k * rng.randint(1, 10**12) if rng.random() < 0.05 else k

    ints = [[(j, entry()) for j in range(ncols) if rng.random() < density] for _ in range(nrows)]
    fractions = [[(j, Fraction(v)) for j, v in row] for row in ints]
    mixed = [[(j, Fraction(v) if rng.random() < 0.5 else v) for j, v in row] for row in ints]
    return ints, fractions, mixed, ncols


@settings(max_examples=200)
@given(integral_sparse_matrices())
def test_integral_matrix_eliminates_alike_as_ints_fractions_or_mixed(case):
    """An all-int matrix is read as it stands; one holding any Fraction,
    even Fraction(k), goes over the lcm of each row's denominators. Both
    readings give equal reduced rows, pivots and recorded operations, and
    neither the reduced rows nor the recorded inverses and factors hold a
    Fraction with denominator 1: a row over 1 leaves on ints, and an
    integral entry of a row over a larger denominator leaves as an int
    too, as does an integral inverse or factor."""
    ints, fractions, mixed, ncols = case
    results = []
    for rows in (ints, fractions, mixed):
        ops = []
        reduced, pivots = kernel.rref_rational(rows, ncols, ops)
        assert all(type(v) is int or v.denominator > 1 for row in reduced for _, v in row)
        recorded = [inv for _, inv, _ in ops if inv is not None]
        recorded += [f for _, _, factors in ops for _, f in factors]
        assert all(type(v) is int or v.denominator > 1 for v in recorded)
        results.append((reduced, pivots, ops))
    assert results[0] == results[1] == results[2]
    reduced, pivots, _ = results[0]
    assert (Matrix.sparse(QQ, reduced, ncols), pivots) == oracle_rref(Matrix.sparse(QQ, ints, ncols))


def test_solve_over_fp_reduces_the_right_hand_side():
    """A right-hand side given off the residues is read as its residues,
    as the dense constructor reads a matrix: 7 is 0 over F_7, and -1 is 6."""
    a = Matrix(PrimeField(7), [[1, 0], [0, 1], [1, 1]])
    assert solve(a, [0, 0, 7]) == [0, 0]
    assert solve(a, [-1, 0, 6]) == [6, 0]
    assert solve(a, [8, -13, 16]) == [1, 1]
    assert solve(a, [0, 0, 8]) is None


_MERSENNE_61 = PrimeField(2**61 - 1)


@st.composite
def small_integer_systems(draw):
    """(rows, right-hand sides): an integer matrix of up to 8x10 with
    entries in [-9, 9], with sides that are images a x (consistent) or
    arbitrary vectors of entries in [-9, 9]."""
    entries = st.integers(-9, 9)
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 10))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    rhs = []
    for consistent in draw(st.lists(st.booleans(), min_size=1, max_size=4)):
        if consistent:
            x = [draw(entries) for _ in range(ncols)]
            rhs.append([sum(a * b for a, b in zip(row, x)) for row in rows])
        else:
            rhs.append([draw(entries) for _ in range(nrows)])
    return rows, rhs


@settings(max_examples=200)
@given(small_integer_systems())
def test_q_and_large_prime_agree_through_one_elimination(case):
    """Every minor of a is below Hadamard's bound (sqrt(8) 9)^8 < 1.8e11,
    and every minor of [a | b] below 90 times that, far below
    p = 2^61 - 1, so no rank drops mod p: the echelon form over Q reduced
    mod p is the echelon form over F_p, and a solve fails on both fields
    or agrees mod p."""
    rows, rhs = case
    p = _MERSENNE_61.p

    def red(x):
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, p) % p

    ncols = len(rows[0])
    q = Matrix(QQ, rows, ncols)
    f = Matrix(_MERSENNE_61, [[x % p for x in row] for row in rows], ncols)
    (reduced_q, pivots_q), (reduced_f, pivots_f) = q.rref(), f.rref()
    assert pivots_q == pivots_f
    assert [[red(x) for x in row] for row in reduced_q.data] == reduced_f.data
    for b in rhs:
        x_q, x_f = solve(q, b), solve(f, [v % p for v in b])
        assert (x_q is None) == (x_f is None)
        if x_q is not None:
            assert [red(v) for v in x_q] == x_f


def _values(m):
    return [v for row in m.rows for _, v in row]


def test_products_of_int_matrices_hold_only_ints_over_q(monkeypatch):
    """Over Q each accumulated cell starts as its first product, not as
    the field's Fraction zero, so products, series terms, sums,
    differences, negations and int scalings of int-only matrices, less int
    multiples, hold only ints, and they never build a Fraction: the
    integer-numerator loop and linalg's Fraction are never reached."""
    from moddef import linalg

    def refuse(*args):
        raise AssertionError("a Fraction path was taken")

    monkeypatch.setattr(linalg, "_numerator_sum", refuse)
    monkeypatch.setattr(linalg, "Fraction", refuse)
    a = Matrix(QQ, [[2, 1, -3], [0, -1, 0], [1, 0, 2]])
    b = Matrix(QQ, [[1, -1], [0, 3], [-2, 0]])
    c = Matrix(QQ, [[0, 1, 1], [1, 0, 0], [0, 0, -1]])
    left, right = [a, c, a @ a], [b, Matrix.zeros(QQ, 3, 2), c @ b]
    minus = [(2, a @ b), (-1, Matrix(QQ, [[0, 5], [1, 0], [0, 0]]))]
    results = [left[0] @ right[0], series_term(left, right, 2), series_term(left, right, 2, minus)]
    results += [a + c, a - c, -a, a.scale(-3), (a - a) + c]
    for m in results:
        values = _values(m)
        assert values and all(type(v) is int for v in values)


def test_a_type_error_of_the_values_leaves_the_int_loop():
    """The int loop reads a factor whose int rows are unknown or absent
    through a TypeError; one raised by the values themselves, of factors
    whose int rows are known, propagates instead of restarting the loop."""
    bad = Matrix.sparse(PrimeField(7), [[(0, None)]], 1)
    with pytest.raises(TypeError):
        bad @ bad


def _lowest_terms(m):
    """Every integral cell of m is an int and every other one a Fraction
    in lowest terms with a positive denominator other than 1."""
    return all(
        type(v) is int or (type(v) is Fraction and v.denominator > 1 and math.gcd(v.numerator, v.denominator) == 1)
        for v in _values(m)
    )


# denominators 1 to 4, coprime and large ones, none divisible by 13
_DENOMINATORS = st.one_of(
    st.integers(1, 4),
    st.sampled_from((7, 9, 11, 2**16, 3**10, 10007, 2**61 - 1)),
    st.integers(1, 10**15).filter(lambda d: d % 13),
)


@st.composite
def mixed_series(draw):
    """(left, right, n, minus, extra, s) as dense rows: two lists of up to 3
    terms of up to 3x3 matrices (some all zero, some all ints) with entries
    0, ints and Fractions over _DENOMINATORS, up to 2 subtracted terms with
    int or Fraction coefficients, one more matrix of the result's shape and
    a scalar."""
    scalars = st.one_of(
        st.just(0),
        st.integers(-3, 3),
        st.builds(Fraction, st.integers(-3, 3), _DENOMINATORS),
        st.builds(Fraction, st.integers(-(10**20), 10**20), _DENOMINATORS),
    )
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))

    def matrix(nrows, ncols):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            return [[0] * ncols for _ in range(nrows)]
        cells = st.integers(-3, 3) if kind == 1 else scalars
        return [[draw(cells) for _ in range(ncols)] for _ in range(nrows)]

    left = [matrix(r, k) for _ in range(draw(st.integers(1, 3)))]
    right = [matrix(k, c) for _ in range(draw(st.integers(1, 3)))]
    n = draw(st.integers(0, len(left) + len(right) - 2))
    minus = [(draw(scalars), matrix(r, c)) for _ in range(draw(st.integers(0, 2)))]
    return left, right, n, minus, matrix(r, c), draw(scalars)


@settings(max_examples=300)
@given(mixed_series())
def test_series_term_of_mixed_ints_and_fractions_is_the_fraction_sum(case):
    """Over Q, cells summed from a mix of int and Fraction products, over
    small, coprime and large denominators, less int or Fraction multiples,
    equal the plain Fraction sum, and so do @, +, -, negation and scale;
    each result holds ints where integral and Fractions in lowest terms
    elsewhere. Over F_13 the same series, read mod 13, gives that sum mod
    13 (every denominator is prime to 13)."""
    left, right, n, minus, extra, s = case
    span = range(max(0, n - len(right) + 1), min(n, len(left) - 1) + 1)

    def product(x, y):
        return [[sum((Fraction(u) * Fraction(v) for u, v in zip(row, col)), Fraction(0)) for col in zip(*y)] for row in x]

    want = [
        [
            sum((product(left[i], right[n - i])[a][b] for i in span), Fraction(0))
            - sum((Fraction(w) * Fraction(m[a][b]) for w, m in minus), Fraction(0))
            for b in range(len(right[0][0]))
        ]
        for a in range(len(left[0]))
    ]

    def over(F, convert):
        def mat(rows):
            return Matrix(F, [[convert(x) for x in row] for row in rows], len(rows[0]))

        return series_term(
            [mat(m) for m in left], [mat(m) for m in right], n, [(convert(w), mat(m)) for w, m in minus]
        )

    got = over(QQ, lambda x: x)
    assert got.data == want
    E = Matrix(QQ, extra)
    cases = [
        (got, want),
        (Matrix(QQ, left[0]) @ Matrix(QQ, right[0]), product(left[0], right[0])),
        (got + E, [[x + y for x, y in zip(p, q)] for p, q in zip(want, extra)]),
        (got - E, [[x - y for x, y in zip(p, q)] for p, q in zip(want, extra)]),
        (-E, [[-Fraction(y) for y in q] for q in extra]),
        (got.scale(s), [[Fraction(s) * x for x in p] for p in want]),
    ]
    for m, rows in cases:
        assert m.data == rows
        assert _lowest_terms(m)
    F13 = PrimeField(13)

    def mod13(x):
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, 13) % 13

    assert over(F13, mod13) == Matrix(F13, [[mod13(v) for v in row] for row in want])


@st.composite
def combination_cases(draw):
    """(kind, a, b, c): two dense matrices of one shape, up to 3x3, and a
    scalar, all drawn from one kind of entry: "int" (ints and 0), "fraction"
    (Fractions, Fraction(0) among them, over denominators 1 to 3), "mixed"
    (both, and both zeros), or "F13" (residues 0 to 12, with a Fraction
    scalar prime to 13 now and then)."""
    ints = st.integers(-3, 3)
    fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    kind = draw(st.sampled_from(("int", "fraction", "mixed", "F13")))
    cells, scalar = {
        "int": (ints, ints),
        "fraction": (fractions, fractions),
        "mixed": (st.one_of(ints, fractions), st.one_of(ints, fractions)),
        "F13": (st.integers(0, 12), st.one_of(st.integers(-13, 13), fractions)),
    }[kind]
    r, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def matrix():
        return [[draw(cells) for _ in range(k)] for _ in range(r)]

    return kind, matrix(), matrix(), draw(scalar)


@settings(max_examples=300)
@given(combination_cases())
def test_sums_differences_negation_and_scaling_are_the_entrywise_sums(case):
    """+, -, negation and scale equal the entrywise Fraction results over Q
    (mod 13 over F_13, a Fraction scalar read as n * d^-1). Each cell
    starts as its first term, so over Q all-int input, scalar included,
    gives only ints and no Fraction with denominator 1."""
    kind, a, b, c = case
    F = PrimeField(13) if kind == "F13" else QQ

    def red(x):
        x = Fraction(x)
        return x if F is QQ else x.numerator * pow(x.denominator, -1, 13) % 13

    A, B = Matrix(F, a), Matrix(F, b)
    cases = {
        "+": (A + B, lambda x, y: x + y),
        "-": (A - B, lambda x, y: x - y),
        "neg": (-A, lambda x, y: -x),
        "scale": (A.scale(c), lambda x, y: Fraction(c) * x),
    }
    for op, (got, entry) in cases.items():
        want = [[red(entry(Fraction(x), Fraction(y))) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        assert got.data == want, op
        if kind == "int":
            assert all(type(v) is int for v in _values(got)), op


def test_scale_over_a_prime_field_reads_a_fraction_as_a_residue():
    """Over F_p, scale(n/d) multiplies by n * d^-1 mod p, as parse reads
    the text n/d, for a Matrix and a Cochain alike, and refuses a scalar
    whose denominator p divides."""
    F7 = PrimeField(7)
    m = Matrix(F7, [[1, 2], [3, 4]])
    assert m.scale(Fraction(1, 2)).data == [[4, 1], [5, 2]]
    assert m.scale(Fraction(-3, 2)) == m.scale(F7.parse("-3/2")) == m.scale(2)
    _, mod = over_prime(*fixture_c(), 7)
    f = Cochain(mod, 1, {(1,): Matrix(F7, [[1, 0], [0, 6]])})
    assert f.scale(Fraction(1, 2)).value((1,)).data == [[4, 0], [0, 3]]
    for scaled in (lambda: m.scale(Fraction(1, 14)), lambda: f.scale(Fraction(3, 7))):
        with pytest.raises(InputError, match="denominator divisible by 7"):
            scaled()
