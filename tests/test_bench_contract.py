"""The names and shapes the benchmark's tracer (perfbench/layers.py) relies
on. The tracer wraps library functions, Matrix methods and the kernel's
entry points by name, and its kernel replay unpacks (rows, pivots); a
rename or a changed signature would otherwise only show in a traced
benchmark run."""

import importlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

import moddef
from helpers import frac_mat, jordan_module, over_prime
from moddef import _backend, _kernel_py, cli, documents, errors
from moddef.cochain import Cochain, cohomology
from moddef.fixtures import document_c, fixture_c
from moddef.linalg import Matrix

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(layers):
    for modname, attr in layers.FUNCTIONS:
        assert callable(vars(importlib.import_module(f"moddef.{modname}")).get(attr)), (
            f"{modname}.{attr}"
        )
    for attr in layers.METHODS:
        assert callable(vars(Matrix).get(attr)), f"Matrix.{attr}"
    for attr in layers.KERNEL:
        assert callable(vars(_backend.kernel).get(attr)), f"kernel.{attr}"


def test_runner_entry_points_keep_their_names_and_types(tmp_path):
    """What perfbench/run.py calls on every run, traced or not: the backend
    name in its metadata, the in-process and the file-to-file command
    paths, and the errors it counts as exit code 2."""
    assert moddef.kernel_backend == "python"
    assert issubclass(errors.InputError, Exception)
    assert issubclass(errors.ResourceError, Exception)
    text = json.dumps(document_c())
    result, code = cli.run("cohomology", documents.parse_problem(text))
    assert isinstance(result, dict) and isinstance(code, int)
    assert isinstance(documents.canonical_json(result), str)
    path, out = tmp_path / "c.json", tmp_path / "out.json"
    path.write_text(text, encoding="utf-8")
    code = cli.main(["cohomology", str(path), "--output", str(out)])
    assert isinstance(code, int) and code == 0 and out.exists()


def test_kernel_entry_points_take_positional_arguments():
    # rows are lists of (column, nonzero value) pairs in column order
    q_rows = [[(0, Fraction(2)), (1, Fraction(1))], [(0, Fraction(4)), (1, Fraction(2))]]
    rows, pivots = _backend.kernel.rref_rational(q_rows, 2)
    assert rows == [[(0, 1), (1, Fraction(1, 2))], []] and pivots == (0,)
    out = _backend.kernel.rref_mod([[(0, 2), (1, 1)], [(1, 3)]], 2, 13)
    assert isinstance(out, tuple) and len(out) == 2
    assert out == ([[(0, 1)], [(1, 1)]], (0, 1))


def test_matrix_keeps_its_echelon_cache_in_rref_slot():
    m = frac_mat([[1, 2], [3, 4]])
    assert m._rref is None
    m.rank()
    assert m._rref is not None


def test_tracer_installs_completely_and_sees_the_cache(layers):
    cochain = importlib.import_module("moddef.cochain")
    original = vars(cochain)["coboundary_witness"]
    tracer = layers.Tracer(moddef, _backend.kernel)
    tracer.install()
    try:
        assert tracer.missing == []
        _, mod = fixture_c()
        f = Cochain(mod, 1, {(1,): frac_mat([[1, 0], [0, -1]])})
        for _ in range(3):
            assert cochain.coboundary_witness(f) is not None
    finally:
        tracer.uninstall()
    assert vars(cochain)["coboundary_witness"] is original
    counts = tracer.counts
    assert counts["cochain.assemble_calls"] == 3
    assert counts["kernel.calls"] == 1
    assert counts["linalg.rref_cached"] == 2


def test_traced_kernel_inputs_replay_to_the_traced_pivots(layers):
    """What ``perfbench/run.py --trace 1`` checks at the end of a traced
    run: every kernel input the tracer captured, eliminated again on fresh
    copies, gives the pivots of the traced call and leaves its rows as
    captured."""
    alg, mod_q = jordan_module(4, 3)
    for mod in (mod_q, over_prime(alg, mod_q, 10007)[1]):
        tracer = layers.Tracer(moddef, _backend.kernel)
        tracer.capture = captured = []
        tracer.install()
        try:
            for degree in range(3):
                cohomology(mod, degree)
        finally:
            tracer.uninstall()
        assert tracer.missing == []
        assert len(captured) == tracer.counts["kernel.calls"] >= 3
        for rows, ncols, p, pivots in captured:
            fresh = [r[:] for r in rows]
            if p is None:
                _, got = _kernel_py.rref_rational(fresh, ncols)
            else:
                _, got = _kernel_py.rref_mod(fresh, ncols, p)
            assert got == pivots
            assert fresh == rows


def test_tracer_counts_what_the_sparse_differentials_hold(layers):
    """The per-layer metrics of ``--trace 1`` come from this tracer: the
    nonzeros it counts on each assembled d_n (through the dense view) must
    be the true ones, and the kernel, kernel-basis and transpose spans must
    be seen, so a tracer that no longer fits the library fails here."""
    cochain = importlib.import_module("moddef.cochain")
    _, mod = jordan_module(4, 3)
    _, mod_c = fixture_c()
    f = Cochain(mod_c, 1, {(0,): frac_mat([[1, 0], [0, 0]])})
    tracer = layers.Tracer(moddef, _backend.kernel)
    tracer.install()
    try:
        assert tracer.missing == []
        for degree in range(4):
            cochain.cohomology(mod, degree)
        cochain.cokernel_certificate(f)
    finally:
        tracer.uninstall()
    # cohomology in degree n assembles d_n, then d_{n-1}; the certificate d_0
    calls = [(mod, 0), (mod, 1), (mod, 0), (mod, 2), (mod, 1), (mod, 3), (mod, 2), (mod_c, 0)]
    nnz = 0
    for module, degree in calls:
        d = module._differentials[degree]
        true_nnz = sum(1 for row in d.data for v in row if v)
        assert true_nnz == sum(len(row) for row in d.rows)
        nnz += true_nnz
    counts = tracer.counts
    assert counts["cochain.assemble_calls"] == len(calls)
    assert counts["cochain.assemble_nnz"] == nnz > 0
    assert counts["kernel.calls"] > 0 and counts["kernel.cells"] > 0
    names = {span[0] for span in tracer.spans}
    assert {"linalg.kernel_basis", "linalg.transpose", "kernel.eliminate_q"} <= names
