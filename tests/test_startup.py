"""What a command-line call imports, and the lazily filled package namespace.

Start-up is most of the wall time of one `python -m moddef` call, and every
module it imports is paid for (compiled too, when no bytecode is cached).
So a command loads only the modules it runs: `validate` needs neither the
cochain complex, nor the deformation calculus, nor the elimination kernel,
nor the fixtures, and no call loads `dataclasses`, whose own imports
(`inspect`, `ast`, `dis`, `tokenize`) cost about as much as a moddef
module. Each check runs in a fresh interpreter, since this process has
long since imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moddef
from moddef import documents
from moddef.fixtures import fixture_documents

# prints the exit code of main(argv), then the loaded modules that moddef
# controls, plus dataclasses
RUN_MAIN = """
import json, sys
from moddef.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "dataclasses" or m.split(".")[0] == "moddef")
print(json.dumps([code, loaded]))
"""

# the package namespace as a fresh `import moddef` leaves it, then after
# `from moddef import *`
STAR_IMPORT = """
import json, sys
import moddef
fresh = {"dir": dir(moddef), "loaded": sorted(m for m in sys.modules if m.startswith("moddef."))}
namespace = {}
exec("from moddef import *", namespace)
print(json.dumps([fresh, sorted(namespace)]))
"""

NEVER_LOADED = {"dataclasses", "moddef.fixtures"}


def child(code, *argv):
    """The JSON that code prints, run with argv in a new interpreter that
    imports the package these tests import."""
    path = [str(Path(moddef.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout)


@pytest.fixture
def bare_b(tmp_path):
    """Fixture B with its payloads removed: field, algebra, module and
    options only."""
    doc = fixture_documents()["B"]
    bare = {k: doc[k] for k in ("field", "algebra", "module", "options")}
    path = tmp_path / "bare_B.json"
    path.write_text(json.dumps(bare), encoding="utf-8")
    return path


def test_validate_loads_no_cochain_deformation_fixtures_or_dataclasses(bare_b, tmp_path):
    out = tmp_path / "out.json"
    code, loaded = child(RUN_MAIN, "validate", str(bare_b), "--output", str(out))
    assert code == 0 and json.loads(out.read_text())["verdict"] == "valid"
    unloaded = {"moddef.cochain", "moddef.deformation", "moddef._backend", "moddef._kernel_py"}
    assert not set(loaded) & {*unloaded, *NEVER_LOADED}
    assert {"moddef.cli", "moddef.documents", "moddef.algebra"} <= set(loaded)


def test_cohomology_loads_the_cochain_complex_and_no_fixtures(bare_b, tmp_path):
    out = tmp_path / "out.json"
    code, loaded = child(RUN_MAIN, "cohomology", str(bare_b), "--output", str(out))
    assert code == 0 and json.loads(out.read_text())["dims"] == {"H0": 1, "H1": 0, "H2": 0}
    assert {"moddef.cochain", "moddef._kernel_py"} <= set(loaded)
    assert not set(loaded) & NEVER_LOADED


def test_fixtures_flag_loads_the_fixtures(tmp_path):
    out = tmp_path / "out.json"
    code, loaded = child(RUN_MAIN, "--fixtures", "--output", str(out))
    assert code == 0 and sorted(json.loads(out.read_text())) == ["A", "B", "C"]
    assert "moddef.fixtures" in loaded and "dataclasses" not in loaded


def test_package_names_resolve_on_first_access():
    fresh, star = child(STAR_IMPORT)
    # importing the package loads none of its modules ...
    assert fresh["loaded"] == []
    # ... yet dir() lists every public name, and a star import binds them all
    assert set(moddef.__all__) <= set(fresh["dir"])
    assert set(moddef.__all__) <= set(star)


def test_each_public_name_is_its_defining_modules_object():
    for name, module in moddef._EXPORTS.items():
        defining = importlib.import_module(f"moddef.{module}")
        assert getattr(moddef, name) is getattr(defining, name), name
    assert set(moddef.__all__) == {*moddef._EXPORTS, "__version__"}


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        moddef.no_such_name
    assert not hasattr(moddef, "cohomology_report")
    with pytest.raises(ImportError):
        from moddef import no_such_name  # noqa: F401


@pytest.mark.parametrize(
    "record, fields",
    [
        (moddef.Violation, ("kind", "where", "message")),
        (moddef.CohomologyReport,
         ("degree", "dim_cocycles", "dim_coboundaries", "dim_cohomology", "representatives")),
        (moddef.ObstructionOutcome, ("obstruction", "witness")),
        (moddef.RigidityResult, ("certified", "h1")),
        (documents.ProblemDocument,
         ("module", "cochain", "deformation", "deformation2", "automorphism", "order", "degree")),
        (documents.Guardrails, ("dim_r", "dim_m", "order", "degree")),
    ],
)
def test_records_build_compare_and_print_by_field(record, fields):
    values = list(range(len(fields)))
    positional, by_name = record(*values), record(**dict(zip(fields, values)))
    assert positional == by_name and positional != record(*values[::-1])
    assert [getattr(positional, f) for f in fields] == values
    shown = ", ".join(f"{f}={i}" for i, f in enumerate(fields))
    assert repr(positional) == f"{record.__name__}({shown})"


def test_guardrails_and_violations_hash_by_value():
    assert documents.Guardrails() == documents.Guardrails(8, 6, 16, 3)
    assert documents.Guardrails(degree=2)._replace(degree=3) == documents.DEFAULT_GUARDRAILS
    assert len({documents.Guardrails(), documents.DEFAULT_GUARDRAILS}) == 1
    v = moddef.Violation("unit", (), "unit does not act as the identity")
    assert {v: 1}[moddef.Violation("unit", (), "unit does not act as the identity")] == 1
