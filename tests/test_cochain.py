import importlib.util
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    change_basis,
    frac_mat,
    jordan_module,
    jordan_sum,
    kronecker_pair,
    matvec,
    over_prime,
    projector_module,
    random_cochain,
    random_matrix,
    random_pair,
    record_dense_reads,
    reference_cohomology,
    reference_differential,
    reference_differential_matrix,
    reference_h0_dim,
    reference_solve,
    rescale,
    upper_triangular_pair,
)
from moddef import _backend, cochain
from moddef.algebra import Algebra, Module, validate_algebra, validate_module
from moddef.cochain import (
    Cochain,
    coboundary_witness,
    cohomology,
    cokernel_certificate,
    differential,
    differential_matrix,
    is_cocycle,
)
from moddef.deformation import (
    ApproximateDeformation,
    FormalAutomorphism,
    check_deformation,
    conjugate,
    integrate,
    normalize,
    rigidity_check,
)
from moddef.documents import parse_problem
from moddef.errors import InputError, ResourceError
from moddef.fields import PrimeField, QQ
from moddef.fixtures import fixture_a, fixture_b, fixture_c, fixture_documents
from moddef.linalg import Matrix, solve

Q0, Q1 = Fraction(0), Fraction(1)


def one_by_one(x):
    return frac_mat([[x]])


# --- the differential itself -------------------------------------------------


def test_differential_of_zero_is_zero():
    _, mod = fixture_c()
    for degree in range(3):
        assert differential(Cochain(mod, degree)).is_zero()


def test_fixture_a_degree_one_table():
    # hand evaluation on all four pairs: with the generator acting by zero,
    # only the (1,1) entry survives and equals the value at the unit
    _, mod = fixture_a()
    for c, s in [(1, 0), (0, 1), (3, -2)]:
        f = Cochain(mod, 1, {(0,): one_by_one(c), (1,): one_by_one(s)})
        df = differential(f)
        assert df.value((0, 0)) == one_by_one(c)
        for key in [(0, 1), (1, 0), (1, 1)]:
            assert df.value(key).is_zero()


def test_degree_zero_is_commutator():
    rng = random.Random(3)
    _, mod = fixture_c()
    for _ in range(10):
        phi = random_matrix(rng, 2, 2)
        d0 = differential(Cochain(mod, 0, {(): phi}))
        for a in range(2):
            rho = mod.action[a]
            assert d0.value((a,)) == rho @ phi - phi @ rho


def test_differential_is_linear():
    rng = random.Random(91)
    _, mod = fixture_c()
    f = random_cochain(mod, 1, rng)
    g = random_cochain(mod, 1, rng)
    c = Fraction(3, 2)
    assert differential(f + g.scale(c)) == differential(f) + differential(g).scale(c)


def test_module_mismatch_rejected():
    _, ma = fixture_a()
    _, mc = fixture_c()
    f = Cochain(ma, 1, {(1,): one_by_one(1)})
    g = Cochain(mc, 1, {(1,): frac_mat([[1, 0], [0, 1]])})
    with pytest.raises(InputError):
        f + g


# --- assembled differential matrices ------------------------------------------


def test_fixture_a_assembled_matrices_frozen():
    _, mod = fixture_a()
    d0 = differential_matrix(mod, 0)
    assert (d0.nrows, d0.ncols) == (2, 1)
    assert d0.is_zero()

    d1 = differential_matrix(mod, 1)
    assert (d1.nrows, d1.ncols) == (4, 2)
    assert d1 == frac_mat([[1, 0], [0, 0], [0, 0], [0, 0]])

    d2 = differential_matrix(mod, 2)
    assert (d2.nrows, d2.ncols) == (8, 4)
    expected = [[0] * 4 for _ in range(8)]
    expected[1][1] = 1  # triple (1,1,x) reads the (1,x) value
    expected[4][2] = -1  # triple (x,1,1) reads minus the (x,1) value
    assert d2 == frac_mat(expected)


def test_composition_of_matrices_is_zero():
    rng = random.Random(13)
    for _ in range(5):
        _, mod = random_pair(rng)
        d0 = differential_matrix(mod, 0)
        d1 = differential_matrix(mod, 1)
        d2 = differential_matrix(mod, 2)
        assert (d1 @ d0).is_zero()
        assert (d2 @ d1).is_zero()


def test_entrywise_square_is_zero():
    rng = random.Random(17)
    for _ in range(6):
        _, mod = random_pair(rng)
        for degree in range(3):
            f = random_cochain(mod, degree, rng)
            assert differential(differential(f)).is_zero()


def test_matrix_agrees_with_entrywise_differential():
    """Both assembled forms against the operator-form oracle up to degree
    3, over Q, F_3 and F_13, on random pairs, on basis changes of the
    catalog pairs that random_pair skips, and on modules with an all-zero
    action matrix (x^2 on Q^2, a projector onto nothing), whose stencil
    holds no terms for it."""
    rng = random.Random(19)
    pairs = [random_pair(rng) for _ in range(4)]
    pairs += [change_basis(*pair, rng) for pair in (jordan_module(4, 3), fixture_b())]
    pairs += [jordan_module(4, 2), projector_module(3, (1, 1, 0))]
    for p in (None, 3, 13):
        for alg, mod in pairs:
            if p is not None:
                alg, mod = over_prime(alg, mod, p)
            for degree in range(4):
                f = random_cochain(mod, degree, rng)
                want = reference_differential(f)
                assert differential(f) == want
                assert matvec(differential_matrix(mod, degree), f.flatten()) == want.flatten()


def test_sparse_differential_stays_off_a_refused_matrix():
    """The cocycle command's differential reads the stencil only: on a pair
    whose d_3 the cell bound refuses, the differential of a sparse
    degree-3 cochain equals the oracle and assembles no d_n."""
    _, big = projector_module(8, (1,) * 6 + (0, 0))
    with pytest.raises(ResourceError):
        differential_matrix(big, 3)
    rng = random.Random(29)
    f = Cochain(big, 3, {
        key: random_matrix(rng, big.dim, big.dim, density=0.3)
        for key in ((0, 0, 0), (1, 2, 3), (5, 5, 1), (7, 6, 0))
    })
    assert differential(f) == reference_differential(f)
    assert big._differentials == {}


def test_flatten_round_trip():
    rng = random.Random(23)
    _, mod = fixture_c()
    for degree in range(3):
        f = random_cochain(mod, degree, rng, density=0.8)
        assert Cochain.unflatten(mod, degree, f.flatten()) == f


def test_assembled_rows_hold_nonzeros_in_column_order():
    """d_n is assembled into sparse rows: (column, value) pairs with
    strictly increasing columns and only nonzero values, over Q and over
    small and large primes. The unit acts as the identity, so in d_0 its
    a.f - f.a cancels in every cell and its rows come out empty. Read
    through the dense view, every column equals the oracle's differential
    of that unit coordinate."""
    rng = random.Random(43)
    pairs = [random_pair(rng) for _ in range(3)]
    pairs += [jordan_module(3, 2), change_basis(*jordan_module(4, 3), rng)]
    for p in (None, 13, 10007):
        for alg, mod in pairs:
            if p is not None:
                alg, mod = over_prime(alg, mod, p)
            m2 = mod.dim * mod.dim
            for degree in range(3):
                d = differential_matrix(mod, degree)
                assert len(d.rows) == d.nrows
                for row in d.rows:
                    cols = [j for j, _ in row]
                    assert all(a < b for a, b in zip(cols, cols[1:]))
                    assert all(0 <= j < d.ncols for j in cols)
                    assert all(v and (p is None or 0 < v < p) for _, v in row)
                if degree == 2 and d.ncols > 64:
                    continue
                columns = list(zip(*d.data))
                for j in range(d.ncols):
                    unit = [mod.field.zero] * d.ncols
                    unit[j] = mod.field.one
                    f = Cochain.unflatten(mod, degree, unit)
                    assert list(columns[j]) == reference_differential(f).flatten()
            if alg.unit == [mod.field.one] + [mod.field.zero] * (alg.dim - 1):
                assert differential_matrix(mod, 0).rows[:m2] == [[] for _ in range(m2)]


BENCH_GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
# the benchmark's cohomology-ladder pairs and the top degree it asks of each
BENCH_LADDER = (("UT", 3), ("B", 3), ("P3", 3), ("J33", 3), ("J44", 2), ("J43", 3))


@pytest.fixture(scope="module")
def bench_gen():
    """The benchmark's pair generator, read only for its pairs and bases."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", BENCH_GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_module(gen, pair, field):
    return parse_problem(gen.document(pair, field, {})).module


@pytest.mark.parametrize("field", ["Q", "F10007"])
@pytest.mark.parametrize(
    "name, degree", BENCH_LADDER, ids=[f"{n}-d{k}" for n, k in BENCH_LADDER]
)
def test_ladder_assembly_is_the_scatter_oracles_byte_for_byte(bench_gen, name, degree, field):
    """The stencil's rows are the same (column, value) lists, in the same
    order, as scattering each unit coordinate's terms into row dicts."""
    mod = _bench_module(bench_gen, bench_gen.PAIRS[name](), field)
    assert differential_matrix(mod, degree).rows == reference_differential_matrix(mod, degree)


@pytest.mark.parametrize("field", ["Q", "F10007", "F2305843009213693951"])
@pytest.mark.parametrize("name", ["C", "UT", "B", "J33", "J43"])
def test_dense_basis_assembly_is_the_scatter_oracles_byte_for_byte(bench_gen, name, field):
    natural = bench_gen.PAIRS[name]()
    moved = bench_gen.dense_basis(natural, name).pair(natural)
    mod = _bench_module(bench_gen, moved, field)
    assert differential_matrix(mod, 2).rows == reference_differential_matrix(mod, 2)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.sampled_from((None, 3, 13, 10007)))
def test_random_assembly_is_the_scatter_oracles_byte_for_byte(seed, degree, p):
    """Random bases make head, tail and middle terms meet in one cell; over
    F_3 their sums cancel most often."""
    alg, mod = random_pair(random.Random(seed))
    if p is not None:
        alg, mod = over_prime(alg, mod, p)
    assert differential_matrix(mod, degree).rows == reference_differential_matrix(mod, degree)


def test_library_paths_never_densify_a_sparse_matrix(monkeypatch):
    """Validation, assembly, differentials, elimination, kernel bases,
    solves, certificates and the deformation calculus (integrate, check,
    conjugate, normalize) all stay on sparse rows: none of them reads
    Matrix.data, the dense view of a differential, of a reduced form or
    of an operator."""
    rng = random.Random(11)
    cases = []
    for _, mod in (fixture_a(), fixture_b(), fixture_c(), jordan_module(4, 3)):
        terms = [random_matrix(rng, mod.dim, mod.dim, density=0.6, scale=2) for _ in range(3)]
        cases.append((mod, FormalAutomorphism(mod, terms)))
    reads = record_dense_reads(monkeypatch)
    for mod, phi in cases:
        F = mod.field
        assert validate_module(mod) == []
        for degree in range(4):
            cohomology(mod, degree)
        rigidity_check(mod)
        reps = cohomology(mod, 1).representatives
        d = ApproximateDeformation(mod, [Cochain(mod, 1)] * 3)
        if reps:
            d = integrate(reps[0], 4)
            if not isinstance(d, ApproximateDeformation):
                d = integrate(reps[0], d[0])
        moved = conjugate(phi, d)
        for deformation in (d, moved):
            assert check_deformation(deformation) is None
            normalize(deformation)
        one = Matrix.identity(F, mod.dim)
        for degree in (1, 2):
            lone = Cochain(mod, degree, {(0,) * degree: one})
            bound = differential(Cochain(mod, degree - 1, {(0,) * (degree - 1): one}))
            for f in (lone, bound, differential(lone)):
                coboundary_witness(f)
                cokernel_certificate(f)
    assert reads == []
    assert Matrix.identity(QQ, 2).data and len(reads) == 1  # the recorder is live


def test_degree_guardrail(monkeypatch):
    # the bound is on the size of d_n, not its degree
    _, mod = fixture_a()
    d4 = differential_matrix(mod, 4)
    assert (d4.nrows, d4.ncols) == (32, 16)
    monkeypatch.setattr(cochain, "MAX_DIFFERENTIAL_CELLS", 32 * 16)
    assert differential_matrix(mod, 4) == d4
    monkeypatch.setattr(cochain, "MAX_DIFFERENTIAL_CELLS", 32 * 16 - 1)
    with pytest.raises(ResourceError, match="32x16"):
        differential_matrix(mod, 4)
    monkeypatch.undo()

    # within the default document guardrails (dims 8 and 6, degree 3),
    # refused before anything is allocated
    _, big = projector_module(8, (1, 1, 1, 1, 1, 1, 0, 0))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="147456x18432"):
            differential_matrix(big, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- cocycles and witnesses ---------------------------------------------------


def test_is_cocycle_fixture_a():
    _, mod = fixture_a()
    assert is_cocycle(Cochain(mod, 1, {(1,): one_by_one(1)}))
    assert not is_cocycle(Cochain(mod, 1, {(0,): one_by_one(1)}))


def test_differentials_are_cocycles():
    rng = random.Random(29)
    for _ in range(5):
        _, mod = random_pair(rng)
        g = random_cochain(mod, 1, rng)
        assert is_cocycle(differential(g))


def test_witness_of_zero_is_zero():
    _, mod = fixture_c()
    w = coboundary_witness(Cochain(mod, 1))
    assert w is not None and w.is_zero()


def test_fixture_a_indicator_not_a_coboundary():
    _, mod = fixture_a()
    f = Cochain(mod, 2, {(1, 1): one_by_one(1)})
    assert coboundary_witness(f) is None
    # the (1,1)-indicator spans the coboundaries
    g = Cochain(mod, 2, {(0, 0): one_by_one(1)})
    w = coboundary_witness(g)
    assert w is not None
    assert differential(w) == g


def test_cokernel_certificate_checks_out():
    _, mod = fixture_a()
    f = Cochain(mod, 2, {(1, 1): one_by_one(1)})
    cert = cokernel_certificate(f)
    assert cert is not None
    y, pairing = cert
    d = differential_matrix(mod, 1)
    assert all(x == 0 for x in matvec(d.transpose(), y))
    assert pairing != 0
    got = sum((yv * bv for yv, bv in zip(y, f.flatten())), Fraction(0))
    assert got == pairing


def test_cochain_refuses_a_value_over_another_field():
    """Over Q an F_7 value would be read as rationals: diag(1, 6) is
    fixture C's seed diag(1, -1) over F_7, a cocycle there, but not over Q."""
    alg, mod = fixture_c()
    F7 = PrimeField(7)
    seed = Matrix(F7, [[1, 0], [0, 6]])
    with pytest.raises(InputError, match="over F7, not Q"):
        Cochain(mod, 1, {(1,): seed})
    _, mod7 = over_prime(alg, mod, 7)
    assert is_cocycle(Cochain(mod7, 1, {(1,): seed}))
    with pytest.raises(InputError, match="over Q, not F7"):
        Cochain(mod7, 0, {(): frac_mat([[1, 0], [0, 1]])})


def test_fixture_c_canonical_witness_frozen():
    _, mod = fixture_c()
    sigma = Cochain(mod, 1, {(1,): frac_mat([[1, 0], [0, -1]])})
    w = coboundary_witness(sigma)
    assert w is not None
    assert w.value(()) == frac_mat([[0, 0], [1, 0]])
    assert differential(w) == sigma


def test_random_coboundaries_have_witnesses():
    rng = random.Random(31)
    for _ in range(6):
        _, mod = random_pair(rng)
        g = random_cochain(mod, 1, rng)
        f = differential(g)
        w = coboundary_witness(f)
        assert w is not None
        assert differential(w) == f


def test_differential_matrix_is_assembled_once_per_module_and_degree():
    _, mod = fixture_b()
    for n in range(3):
        assert differential_matrix(mod, n) is differential_matrix(mod, n)
    # a separate module object, even an equal one, gets its own assembly
    other = Module(mod.algebra, mod.action)
    assert other == mod
    assert differential_matrix(other, 1) is not differential_matrix(mod, 1)
    assert differential_matrix(other, 1) == differential_matrix(mod, 1)


def test_integrate_factorises_d1_once(monkeypatch):
    calls = []
    eliminate = _backend.kernel.rref_rational

    def counted(*args, **kwargs):
        calls.append(args[1])
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(_backend.kernel, "rref_rational", counted)
    _, mod = fixture_c()
    out = integrate(Cochain(mod, 1, {(1,): frac_mat([[1, 0], [0, -1]])}), 16)
    assert out.order == 16
    # fifteen witness solves against d_1, one elimination of it
    assert calls == [differential_matrix(mod, 1).ncols]


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_witness_and_certificate_share_an_unchanged_cached_differential(seed, degree):
    """On random pairs in random bases (random_pair is change_basis of a
    catalog pair): a cochain without a witness gets a certificate y with
    y.D = 0 and y.b != 0, a coboundary gets a witness g with d(g) = f, and
    the cached D afterwards still equals a fresh assembly."""
    rng = random.Random(seed)
    alg, mod = random_pair(rng)
    F = mod.field
    cases = [
        random_cochain(mod, degree, rng),
        differential(random_cochain(mod, degree - 1, rng, density=1.0)),
    ]
    d = differential_matrix(mod, degree - 1)
    for f in cases:
        w = coboundary_witness(f)
        cert = cokernel_certificate(f)
        if w is None:
            y, pairing = cert
            assert not any(matvec(d.transpose(), y))
            assert pairing and pairing == sum(
                (yv * bv for yv, bv in zip(y, f.flatten())), F.zero
            )
        else:
            assert cert is None
            assert differential(w) == f
    assert coboundary_witness(cases[1]) is not None
    assert differential_matrix(mod, degree - 1) is d
    copy = Module(alg, [Matrix(F, [row[:] for row in m.data]) for m in mod.action])
    fresh = differential_matrix(copy, degree - 1)
    assert fresh is not d and fresh == d


def _canonical_certificate(f):
    """The first canonical kernel vector of the transposed differential
    whose pairing with f is nonzero, from the whole kernel basis."""
    F = f.module.field
    d = differential_matrix(f.module, f.degree - 1)
    for y in d.transpose().kernel_basis():
        s = F.zero
        for yv, bv in zip(y, f.flatten()):
            s = F.reduce(s + yv * bv)
        if s:
            return y, s
    return None


def test_certificate_builds_only_the_vector_it_emits(monkeypatch):
    """The certificate reads its pairings off the reduced transpose and
    asks the kernel basis for the one vector it emits, yet emits the same
    (y, pairing) as the first kernel-basis vector that pairs nonzero, over
    Q and F_13."""
    rng = random.Random(53)
    cases = []
    for _ in range(6):
        alg, mod = random_pair(rng, max_dim_m=2)
        for m in (mod, over_prime(alg, mod, 13)[1]):
            for degree in (1, 2):
                f = random_cochain(mod, degree, rng)
                if m is not mod:
                    F = m.field
                    f = Cochain(
                        m,
                        degree,
                        {
                            k: Matrix(F, [[F.parse(str(x)) for x in row] for row in v.data])
                            for k, v in f.entries.items()
                        },
                    )
                one = {(0,) * (degree - 1): m.identity_operator()}
                bound = differential(Cochain(m, degree - 1, one))
                cases += [(f, _canonical_certificate(f)), (bound, None)]
    assert sum(want is not None for _, want in cases) >= 12

    kernel_basis = Matrix.kernel_basis

    def one_column(self, columns=None):
        if columns is None or len(columns) != 1:
            raise AssertionError(f"the certificate asked for kernel vectors {columns}")
        return kernel_basis(self, columns)

    monkeypatch.setattr(Matrix, "kernel_basis", one_column)
    for f, want in cases:
        assert cokernel_certificate(f) == want


def test_cohomology_builds_only_the_representatives_it_emits(monkeypatch):
    """Past degree 0, cohomology asks the kernel basis of d_n for the
    emitted representatives only, not for every cocycle of the basis."""
    asked = []
    kernel_basis = Matrix.kernel_basis

    def counting(self, *args):
        vectors = kernel_basis(self, *args)
        asked.append(len(vectors))
        return vectors

    monkeypatch.setattr(Matrix, "kernel_basis", counting)
    _, mod = jordan_module(4, 3)
    for degree in (1, 2, 3):
        asked.clear()
        report = cohomology(mod, degree)
        assert report.dim_coboundaries > 0
        assert asked == [report.dim_cohomology]


def test_witness_needs_positive_degree():
    _, mod = fixture_a()
    with pytest.raises(InputError, match="degree >= 1 only"):
        coboundary_witness(Cochain(mod, 0))
    with pytest.raises(InputError, match="degree >= 1 only"):
        cokernel_certificate(Cochain(mod, 0))


# --- cohomology ----------------------------------------------------------------


def test_fixture_a_dimensions_and_representatives():
    _, mod = fixture_a()
    h1 = cohomology(mod, 1)
    assert (h1.dim_cocycles, h1.dim_coboundaries, h1.dim_cohomology) == (1, 0, 1)
    assert h1.representatives == [Cochain(mod, 1, {(1,): one_by_one(1)})]
    h2 = cohomology(mod, 2)
    assert (h2.dim_cocycles, h2.dim_coboundaries, h2.dim_cohomology) == (2, 1, 1)
    assert h2.representatives == [Cochain(mod, 2, {(1, 1): one_by_one(1)})]


def test_fixture_b_is_acyclic():
    _, mod = fixture_b()
    assert cohomology(mod, 1).dim_cohomology == 0
    assert cohomology(mod, 2).dim_cohomology == 0


def test_degree_zero_report():
    _, mod = fixture_a()
    h0 = cohomology(mod, 0)
    assert h0.dim_coboundaries == 0
    assert h0.dim_cocycles == h0.dim_cohomology == 1
    assert len(h0.representatives) == 1


def test_one_dimensional_algebra_is_acyclic():
    structure = [[[Q1]]]
    from moddef.algebra import Algebra, Module

    alg = Algebra(QQ, structure, [Q1])
    mod = Module(alg, [Matrix.identity(QQ, 3)])
    for n in (1, 2):
        assert cohomology(mod, n).dim_cohomology == 0


def test_representatives_are_cocycles_and_independent_mod_boundaries():
    rng = random.Random(41)
    for _ in range(3):
        _, mod = random_pair(rng)
        for n in (1, 2):
            rep = cohomology(mod, n)
            assert rep.dim_cohomology == rep.dim_cocycles - rep.dim_coboundaries >= 0
            assert len(rep.representatives) == rep.dim_cohomology
            for f in rep.representatives:
                assert is_cocycle(f)
            if rep.representatives:
                d_prev = differential_matrix(mod, n - 1)
                cols = [list(col) for col in d_prev.transpose().data]
                cols += [f.flatten() for f in rep.representatives]
                stacked = Matrix(QQ, cols, len(cols[0])).transpose()
                assert stacked.rank() == rep.dim_coboundaries + rep.dim_cohomology


def test_split_field_products_are_acyclic():
    # separable coefficients: no higher cohomology for any module
    from helpers import projector_module

    for n, sizes in [(2, (1, 1)), (2, (2, 1)), (3, (1, 1, 1))]:
        _, mod = projector_module(n, sizes)
        assert cohomology(mod, 1).dim_cohomology == 0
        assert cohomology(mod, 2).dim_cohomology == 0


def test_triangular_algebra_has_no_degree_two_classes():
    # the algebra has a length-one projective bimodule resolution, so
    # degree-two cohomology vanishes for every coefficient module
    from helpers import upper_triangular_pair

    _, mod = upper_triangular_pair()
    assert cohomology(mod, 2).dim_cohomology == 0


def test_dimensions_are_basis_independent():
    from helpers import change_basis

    rng = random.Random(43)
    base_alg, base_mod = fixture_a()
    dims = (
        cohomology(base_mod, 1).dim_cohomology,
        cohomology(base_mod, 2).dim_cohomology,
    )
    for _ in range(4):
        _, mod2 = change_basis(base_alg, base_mod, rng)
        assert (
            cohomology(mod2, 1).dim_cohomology,
            cohomology(mod2, 2).dim_cohomology,
        ) == dims


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.sampled_from((None, 13, 10007)))
def test_cohomology_matches_stacked_elimination_oracle(seed, degree, p):
    """Reading the coboundaries in the free columns of d_n gives the same
    report, representatives included, as eliminating [d_{n-1} | kernel]
    afresh. Degree 2 keeps to module dimension 2: the stacked oracle is
    slow on 3-dimensional modules in a random basis."""
    alg, mod = random_pair(random.Random(seed), max_dim_m=3 if degree < 2 else 2)
    if p is not None:
        alg, mod = over_prime(alg, mod, p)
    assert cohomology(mod, degree) == reference_cohomology(mod, degree)


LADDER_TOPS = [(3, 3, 3), (4, 3, 3), (4, 4, 2)]


@pytest.mark.parametrize("p", [None, 10007], ids=["Q", "F10007"])
@pytest.mark.parametrize(
    "n, d, degree", LADDER_TOPS, ids=[f"J{n}{d}-H{k}" for n, d, k in LADDER_TOPS]
)
def test_ladder_top_degree_matches_stacked_elimination_oracle(n, d, degree, p):
    """The natural-basis ladder pairs at the top degree the benchmark asks
    of them, against eliminating [d_{n-1} | kernel] afresh."""
    alg, mod = jordan_module(n, d)
    if p is not None:
        alg, mod = over_prime(alg, mod, p)
    assert cohomology(mod, degree) == reference_cohomology(mod, degree)


def test_cohomology_never_factorises_the_lower_differential():
    """Degree-1 cohomology (the rigidity check) assembles d_0 and reads its
    rows, but only d_1 and the restricted coboundary system are
    eliminated."""
    _, mod = jordan_module(4, 3)
    assert cohomology(mod, 1).dim_cohomology == 1
    assert mod._differentials[0]._rref is None
    assert mod._differentials[1]._rref is not None


def _partitions(total, largest):
    if total == 0:
        yield ()
    for a in range(min(total, largest), 0, -1):
        for rest in _partitions(total - a, a):
            yield (a,) + rest


JORDAN_SUMS = [(n, s) for n in range(1, 5) for d in range(1, 5) for s in _partitions(d, n)]


@pytest.mark.parametrize(
    "n, sizes", JORDAN_SUMS, ids=[f"n{n}-" + "+".join(map(str, s)) for n, s in JORDAN_SUMS]
)
def test_jordan_sums_have_closed_form_cohomology(n, sizes):
    """Over A = k[x]/(x^n), H^i(A, End M) = Ext^i_A(M, M) (Cartan and
    Eilenberg IX.4), and the cyclic modules k[x]/(x^a) have 2-periodic free
    resolutions, so for M a sum of Jordan blocks of sizes a:
    dim H^0 = sum min(a, b) and dim H^i = sum min(a, b, n - a, n - b) for
    i >= 1, over ordered pairs of blocks. So M is rigid exactly when every
    block has size n. Every sum with n <= 4 and dim M <= 4, over Q, over
    F_10007 and in a random basis over Q, up to the degree whose
    differential stays within a cell budget (smaller in the random basis,
    where the rationals grow)."""
    alg, mod = jordan_sum(n, sizes)
    pairs = [(a, b) for a in sizes for b in sizes]
    h0 = sum(min(a, b) for a, b in pairs)
    hi = sum(min(a, b, n - a, n - b) for a, b in pairs)
    variants = [
        (mod, 2**18),
        (over_prime(alg, mod, 10007)[1], 2**18),
        (change_basis(alg, mod, random.Random(n * 100 + len(sizes)))[1], 2**16),
    ]
    for m, budget in variants:
        top = max(k for k in range(4) if n ** (2 * k + 1) * m.dim**4 <= budget)
        assert [cohomology(m, k).dim_cohomology for k in range(top + 1)] == [h0] + [hi] * top
        assert rigidity_check(m).certified == all(a == n for a in sizes)


@pytest.mark.parametrize(
    "n, sizes", JORDAN_SUMS, ids=[f"n{n}-" + "+".join(map(str, s)) for n, s in JORDAN_SUMS]
)
def test_degree_zero_matches_the_commutant_oracle(n, sizes):
    """dim H^0 is the dimension of the operators commuting with the action,
    counted from the commutation equations written out entry by entry, on
    every Jordan sum over Q and over F_10007."""
    alg, mod = jordan_sum(n, sizes)
    for m in (mod, over_prime(alg, mod, 10007)[1]):
        assert cohomology(m, 0).dim_cohomology == reference_h0_dim(m)


@pytest.mark.parametrize("p", [None, 10007], ids=["Q", "F10007"])
def test_degree_zero_matches_the_commutant_oracle_in_random_bases(p):
    rng = random.Random(59)
    for _ in range(12):
        alg, mod = random_pair(rng)
        if p is not None:
            alg, mod = over_prime(alg, mod, p)
        assert cohomology(mod, 0).dim_cohomology == reference_h0_dim(mod)


RANK_PAIRS = [("A", fixture_a()), ("B", fixture_b()), ("C", fixture_c())] + [
    (f"J{n}-" + "+".join(map(str, s)), jordan_sum(n, s)) for n, s in JORDAN_SUMS if n <= 3
]


@pytest.mark.parametrize("name, pair", RANK_PAIRS, ids=[name for name, _ in RANK_PAIRS])
def test_rank_mod_p_never_exceeds_rank_over_q(name, pair):
    """Reducing an integer matrix modulo a prime can only lose rank: every
    nonzero minor mod p is a nonzero minor over Q. Checked on d_0..d_2,
    which runs both arithmetic branches of the kernel on real
    differentials; on the fixtures no rank is lost modulo 10007."""
    _, mod = pair
    p = 10007
    for degree in range(3):
        d = differential_matrix(mod, degree)
        assert all(x.denominator == 1 for row in d.data for x in row)
        reduced = Matrix(PrimeField(p), [[x.numerator % p for x in row] for row in d.data], d.ncols)
        if name in ("A", "B", "C"):
            assert reduced.rank() == d.rank()
        else:
            assert reduced.rank() <= d.rank()


def test_cohomology_refuses_an_invalid_module():
    """The restricted system is exact only when d_n d_{n-1} = 0. On a
    module with one action entry raised by 1 (6 multiplicativity
    violations) it would report H^1 = 0 and certify rigidity, while the
    stacked oracle finds more coboundaries than cocycles."""
    rng = random.Random(3)
    alg, mod = random_pair(rng)
    rows = [m.data for m in mod.action]
    rows[rng.randrange(3)][rng.randrange(3)][rng.randrange(3)] += 1
    action = [Matrix(m.field, r, m.ncols) for m, r in zip(mod.action, rows)]
    oracle = reference_cohomology(Module(alg, action), 1)
    assert oracle.dim_coboundaries > oracle.dim_cocycles
    for check in (lambda m: cohomology(m, 1), rigidity_check):
        with pytest.raises(InputError, match=r"^invalid module: action\(e0\) action\(e0\)"):
            check(Module(alg, action))


def test_cohomology_refuses_an_invalid_algebra():
    """Basis (1, x, y) with x x = y, x y = y and every other product of x
    and y zero is not associative, yet 1 -> I, x, y -> 0 satisfies every
    module axiom on Q^2. There d_2 d_1 has 8 nonzero entries, so the
    cohomology it would report (8 cocycles, 8 coboundaries) means
    nothing."""
    e = [[Fraction(int(i == k)) for i in range(3)] for k in range(3)]
    zero = [Fraction(0)] * 3
    alg = Algebra(QQ, [[e[0], e[1], e[2]], [e[1], e[2], e[2]], [e[2], zero, zero]], e[0])
    zeros = Matrix.zeros(QQ, 2, 2)
    mod = Module(alg, [Matrix.identity(QQ, 2), zeros, zeros])
    assert validate_module(mod) == []
    assert validate_algebra(alg)[0].message.startswith("(e1 e1) e1 != e1 (e1 e1)")
    d2, d1 = differential_matrix(mod, 2), differential_matrix(mod, 1)
    composite = [matvec(d2, col) for col in zip(*d1.data)]
    assert sum(1 for col in composite for v in col if v) == 8
    for check in (lambda m: cohomology(m, 2), rigidity_check):
        with pytest.raises(InputError, match=r"^invalid algebra: \(e1 e1\) e1 != e1 \(e1 e1\)"):
            check(mod)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((None, 13)), st.sampled_from((0, 1)))
def test_solve_on_differentials_matches_fresh_elimination(seed, p, degree):
    """On the matrices the program factorises, d_0 and d_1 of random pairs
    over Q and F_13, solve returns what a fresh elimination of [d | b]
    gives, for right-hand sides d x and for arbitrary ones."""
    rng = random.Random(seed)
    alg, mod = random_pair(rng)
    if p is not None:
        mod = over_prime(alg, mod, p)[1]
    d = differential_matrix(mod, degree)

    def vector(n, density):
        def scalar():
            if p is None:
                return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            return rng.randrange(p)

        return [scalar() if rng.random() < density else mod.field.zero for _ in range(n)]

    for b in (matvec(d, vector(d.ncols, 0.3)), vector(d.nrows, 0.1)):
        assert solve(d, b) == reference_solve(d, b)


# --- the complex relative to the unit's idempotents ----------------------------


def _variants(gen, name, field):
    """(variant, module, fresh module) of the benchmark pair in each sign
    variant of its bases, parsed twice: once for cohomology, once for the
    oracle."""
    natural = gen.PAIRS[name]()
    for v in range(gen.SIGN_VARIANTS):
        moved = gen.sign_basis(natural, v, name).pair(natural)
        yield v, _bench_module(gen, moved, field), _bench_module(gen, moved, field)


@pytest.mark.parametrize("field", ["Q", "F10007"])
@pytest.mark.parametrize("name", ["UT", "B", "P3"])
def test_split_unit_pairs_answer_from_the_relative_complex(bench_gen, name, field):
    """In every sign variant some idempotent may arrive as -e_i, and the
    unit splits all the same. Every report up to degree 3 equals the
    stacked oracle's, H^n = 0 for n >= 1, and no full d_n above degree 0
    is built."""
    for v, mod, fresh in _variants(bench_gen, name, field):
        assert cochain._relative_complex(mod) is not None, v
        reports = [cohomology(mod, n) for n in range(4)]
        assert set(mod._differentials) == {0}, v
        assert reports == [reference_cohomology(fresh, n) for n in range(4)], v
        assert [r.dim_cohomology for r in reports[1:]] == [0, 0, 0]


@pytest.mark.parametrize("p", [None, 10007], ids=["Q", "F10007"])
def test_kronecker_module_mixes_the_relative_and_full_paths(p):
    """The Kronecker module has H^0..H^2 = 1, 1, 0: degrees 0 and 1 build
    the full d_n for their representatives, degree 2 none."""
    pairs = [kronecker_pair() for _ in range(2)]
    if p is not None:
        pairs = [over_prime(alg, mod, p) for alg, mod in pairs]
    (_, mod), (_, fresh) = pairs
    assert cochain._relative_complex(mod) is not None
    reports = [cohomology(mod, n) for n in range(3)]
    assert [r.dim_cohomology for r in reports] == [1, 1, 0]
    assert set(mod._differentials) == {0, 1}
    assert reports == [reference_cohomology(fresh, n) for n in range(3)]


SPLIT_UNIT_PAIRS = (
    kronecker_pair,
    upper_triangular_pair,
    fixture_b,
    lambda: projector_module(2, (2, 1)),
    lambda: projector_module(3, (1, 0, 2)),
)
_SCALES = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)))


@settings(max_examples=60)
@given(
    st.integers(0, len(SPLIT_UNIT_PAIRS) - 1),
    st.lists(_SCALES, min_size=4, max_size=4),
    st.lists(_SCALES, min_size=3, max_size=3),
    st.sampled_from((None, 13, 10007)),
)
def test_rescaled_split_unit_pairs_match_the_oracle(index, alg_scales, mod_scales, p):
    """Each basis vector of the algebra and of the module rescaled by a
    nonzero scalar: the unit still splits, each relative column of d_n is
    the full column of its coordinate (it reaches no row outside the
    relative complex), and every report equals the stacked oracle's."""
    alg, mod = SPLIT_UNIT_PAIRS[index]()
    alg, mod = rescale(alg, mod, alg_scales[: alg.dim], mod_scales[: mod.dim])
    if p is not None:
        alg, mod = over_prime(alg, mod, p)
    rel = cochain._relative_complex(mod)
    assert rel is not None
    fresh = Module(alg, mod.action)
    d_r, d_m = alg.dim, mod.dim
    for degree in range(3):
        rows = set()
        for key, entries in rel.coordinates(degree + 1):
            base = cochain._tuple_index(key, d_r) * d_m * d_m
            rows.update(base + r * d_m + c for r, c in entries)
        full = differential_matrix(fresh, degree).transpose().rows
        st_rel = cochain._Stencil(mod, degree, skip=rel.blocks)
        for key, entries in rel.coordinates(degree):
            t = cochain._tuple_index(key, d_r)
            middle = st_rel.middle(t, key)
            for r, c in entries:
                column = dict(full[t * d_m * d_m + r * d_m + c])
                assert set(column) <= rows
                assert st_rel.column(t, middle, r, c) == column
        assert cohomology(mod, degree) == reference_cohomology(fresh, degree)


@pytest.mark.parametrize("field", ["Q", "F10007"])
def test_pairs_whose_unit_does_not_split_take_the_full_path(bench_gen, field):
    """Dense-basis shears of UT and B hide their idempotents; a shear of
    the module basis alone keeps the algebra's, but e_11 no longer acts
    by a coordinate projection; on J43 the unit is one basis element
    (r = 1). No relative complex, so every degree builds its full d_n,
    with the oracle's report."""
    gen = bench_gen
    cases = []
    for name in ("UT", "B"):
        natural = gen.PAIRS[name]()
        cases.append((gen.dense_basis(natural, name).pair(natural), 3))
        q, qinv = gen.identity(2), gen.identity(2)
        q[0][1], qinv[0][1] = Q1, -Q1
        n = len(natural[1])
        cases.append((gen.Basis(gen.identity(n), gen.identity(n), q, qinv).pair(natural), 3))
    cases.append((gen.PAIRS["J43"](), 2))
    for pair, top in cases:
        mod, fresh = (_bench_module(bench_gen, pair, field) for _ in range(2))
        assert cochain._relative_complex(mod) is None
        reports = [cohomology(mod, n) for n in range(top + 1)]
        assert set(mod._differentials) == set(range(top + 1))
        assert reports == [reference_cohomology(fresh, n) for n in range(top + 1)]


def test_differential_of_an_int_cochain_holds_only_ints(bench_gen):
    """Over Q a parsed module acts by ints, and the differential of a
    cochain of int matrices starts each cell as its first product, not as
    the field's Fraction zero: its values are all ints."""
    modules = [
        _bench_module(bench_gen, bench_gen.PAIRS["J33"](), "Q"),
        parse_problem(fixture_documents()["C"]).module,
    ]
    rng = random.Random(3)
    for mod in modules:
        d_r, d_m = mod.algebra.dim, mod.dim
        for degree in range(3):
            entries = {
                key: Matrix(QQ, [[rng.choice((0, 1, -1, 2)) for _ in range(d_m)] for _ in range(d_m)])
                for key in product(range(d_r), repeat=degree)
            }
            df = differential(Cochain(mod, degree, entries))
            values = [v for m in df.entries.values() for row in m.rows for _, v in row]
            assert values and all(type(v) is int for v in values)
