import contextlib
import copy
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moddef
from helpers import (
    matvec,
    projector_module,
    random_automorphism,
    random_coboundary,
    random_cochain,
    random_cocycle,
    random_pair,
    record_dense_reads,
)
from moddef import algebra
from moddef import documents as docs
from moddef.cli import build_parser, main, run
from moddef.deformation import ApproximateDeformation, check_deformation
from moddef.errors import InputError, ResourceError
from moddef.fields import QQ, field_from_name
from moddef.fixtures import fixture_documents

FIXTURE_DOCS = fixture_documents()

ALL_COMMANDS = (
    "validate",
    "cohomology",
    "cocycle",
    "coboundary",
    "obstruction",
    "extend",
    "integrate",
    "normalize",
    "conjugate",
    "equiv-step",
    "rigidity",
)

# expected exit codes per (command, fixture), checked against the hand
# computations for the fixtures
EXPECTED_EXITS = {
    ("coboundary", "A"): 1,
    ("obstruction", "A"): 1,
    ("extend", "A"): 1,
    ("integrate", "A"): 1,
    ("normalize", "A"): 1,
    ("equiv-step", "A"): 1,
    ("rigidity", "A"): 1,
}


def write_doc(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(docs.canonical_json(doc), encoding="utf-8")
    return path


def run_module(*args, **kwargs):
    """python -m moddef in a child process, importing the package these
    tests import even when it is not installed."""
    path = [str(Path(moddef.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-m", "moddef", *args], capture_output=True, env=env, **kwargs)


def run_cli(tmp_path, command, doc, name="problem"):
    in_path = write_doc(tmp_path, name, doc)
    out_path = tmp_path / f"out_{command}_{name}.json"
    code = main([command, str(in_path), "--output", str(out_path)])
    result = json.loads(out_path.read_text()) if out_path.exists() else None
    return code, result, out_path


# --- parsing -------------------------------------------------------------------


def test_malformed_json_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(p)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_zero_denominator_names_path():
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    doc["algebra"]["unit"][0] = "1/0"
    with pytest.raises(InputError) as err:
        docs.parse_problem(json.dumps(doc))
    assert "algebra.unit[0]" in str(err.value)


def test_float_scalars_rejected():
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    doc["module"]["action"][0][0][0] = 1.0
    with pytest.raises(InputError) as err:
        docs.parse_problem(json.dumps(doc))
    assert "module.action[0][0][0]" in str(err.value)


@pytest.mark.parametrize(
    "field, place, text, message",
    [
        ("Q", ("algebra", "unit"), ["1", "0", "0", "x"], "algebra.unit[3]: bad scalar syntax: 'x'"),
        ("Q", ("module", "action", 3, 1), ["1", 1.0],
         "module.action[3][1][1]: scalar must be a string, got float"),
        ("Q", ("module", "action", 2, 0), [["1"], "0"],
         "module.action[2][0][0]: scalar must be a string, got list"),
        ("Q", ("deformation", "terms", 0, 0, "matrix", 1), ["0", "1/0"],
         "deformation.terms[0][0].matrix[1][1]: zero denominator in scalar: '1/0'"),
        ("F13", ("automorphism", "terms", 0, 1), ["1", "1/13"],
         "automorphism.terms[0][1][1]: scalar '1/13' has denominator divisible by 13"),
    ],
)
def test_a_bad_scalar_after_repeated_ones_names_its_path(field, place, text, message):
    """A bad entry after many "1"s is refused with the message and JSON
    path of that entry, in the algebra, the module and the payloads."""
    doc = copy.deepcopy(FIXTURE_DOCS["B"])
    doc["field"] = field
    target = doc
    for key in place[:-1]:
        target = target[key]
    target[place[-1]] = text
    with pytest.raises(InputError) as err:
        docs.parse_problem(json.dumps(doc))
    assert str(err.value) == message


def test_non_prime_field_rejected():
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    doc["field"] = "F9"
    with pytest.raises(InputError):
        docs.parse_problem(json.dumps(doc))


def test_missing_field_rejected():
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    del doc["field"]
    with pytest.raises(InputError, match=r"^field: missing"):
        docs.parse_problem(json.dumps(doc))


def test_guardrails_fail_fast():
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    doc["options"]["order"] = 17
    with pytest.raises(InputError) as err:
        docs.parse_problem(json.dumps(doc))
    assert "guardrail" in str(err.value)

    big = copy.deepcopy(FIXTURE_DOCS["A"])
    big["algebra"]["dim"] = 9
    with pytest.raises(InputError) as err:
        docs.parse_problem(json.dumps(big))
    assert "guardrail" in str(err.value)


def test_guardrail_override_admits_larger_order():
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    doc["options"]["order"] = 17
    doc["options"]["guardrails"] = {"order": 20}
    parsed = docs.parse_problem(json.dumps(doc))
    assert parsed.order == 17


@pytest.mark.parametrize(
    "keys,added,message",
    [
        pytest.param((), "option", "document: unknown keys ['option']", id="document"),
        pytest.param(("options",), "degre", "options: unknown keys ['degre']", id="options"),
        pytest.param(("options", "guardrails"), "dim", "options.guardrails: unknown keys ['dim']",
                     id="guardrails"),
        pytest.param(("algebra",), "lables", "algebra: unknown keys ['lables']", id="algebra"),
        pytest.param(("module",), "name", "module: unknown keys ['name']", id="module"),
        pytest.param(("cochain",), "terms", "cochain: unknown keys ['terms']", id="cochain"),
        pytest.param(("cochain", "entries", 0), "matrices",
                     "cochain.entries[0]: unknown keys ['matrices']", id="entry"),
        pytest.param(("deformation2",), "degree", "deformation2: unknown keys ['degree']",
                     id="deformation2"),
        pytest.param(("automorphism",), "order", "automorphism: unknown keys ['order']",
                     id="automorphism"),
    ],
)
def test_unknown_option_keys_are_refused(tmp_path, capsys, keys, added, message):
    """Every object of a problem document, from the document itself down to
    one cochain entry, refuses a key it does not know."""
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    doc["options"]["guardrails"] = {}
    target = doc
    for key in keys:
        target = target[key]
    target[added] = 1
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        docs.parse_problem(json.dumps(doc))
    in_path = write_doc(tmp_path, "unknown", doc)
    assert main(["cohomology", str(in_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_cochain_degree_guardrail():
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    doc["cochain"] = {"degree": 4, "entries": []}
    with pytest.raises(InputError) as err:
        docs.parse_problem(json.dumps(doc))
    assert "guardrail" in str(err.value)
    doc["options"]["guardrails"] = {"degree": 5}
    parsed = docs.parse_problem(json.dumps(doc))
    assert parsed.cochain.degree == 4


def test_duplicate_tuples_rejected():
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    entry = doc["cochain"]["entries"][0]
    doc["cochain"]["entries"] = [entry, copy.deepcopy(entry)]
    with pytest.raises(InputError) as err:
        docs.parse_problem(json.dumps(doc))
    assert "duplicate" in str(err.value)


def test_structure_shape_error_names_path():
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    doc["algebra"]["structure"][1][1] = ["1"]
    with pytest.raises(InputError) as err:
        docs.parse_problem(json.dumps(doc))
    assert "algebra.structure[1][1]" in str(err.value)


def test_fixture_documents_parse_and_validate():
    for name, doc in FIXTURE_DOCS.items():
        problem = docs.parse_problem(json.dumps(doc))
        result, code = run("validate", problem)
        assert code == 0, name
        assert result["verdict"] == "valid"


# --- dispatch and exit codes -----------------------------------------------------


def test_exit_code_matrix(tmp_path):
    for fixture in ("A", "B", "C"):
        for command in ALL_COMMANDS:
            code, result, _ = run_cli(tmp_path, command, FIXTURE_DOCS[fixture], name=fixture)
            expected = EXPECTED_EXITS.get((command, fixture), 0)
            assert code == expected, (command, fixture, result)
            assert result is not None
            assert result["command"] == command


def test_only_the_encoder_reads_the_dense_view(monkeypatch):
    """Every command on every fixture computes on sparse rows; the one
    reader of Matrix.data is the encoder of a result's matrices."""
    problems = {name: docs.parse_problem(doc) for name, doc in FIXTURE_DOCS.items()}
    reads = record_dense_reads(monkeypatch)
    for name, problem in problems.items():
        for command in ALL_COMMANDS:
            _, code = run(command, problem)
            assert code == EXPECTED_EXITS.get((command, name), 0), (command, name)
    assert reads and all(code is docs.encode_matrix.__code__ for code, _, _ in reads)


def test_validate_reports_violation(tmp_path):
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    # break associativity and the unit laws
    doc["algebra"]["structure"][0][1] = ["0", "0"]
    code, result, _ = run_cli(tmp_path, "validate", doc)
    assert code == 1
    assert result["verdict"] == "invalid"
    kinds = {v["kind"] for v in result["report"]["algebra"]}
    assert "associativity" in kinds or "unit-left" in kinds


@pytest.mark.parametrize(
    "field,expected",
    [("Q", "[0, 1/2] vs [0, 1/4]"), ("F7", "[0, 4] vs [0, 2]")],
    ids=["Q", "F7"],
)
def test_validate_message_prints_canonical_scalars(tmp_path, field, expected):
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    # 1 * x = x/2 breaks (e0 e0) e1 = e0 (e0 e1)
    doc["algebra"]["structure"][0][1] = ["0", "1/2"]
    doc["field"] = field
    code, result, _ = run_cli(tmp_path, "validate", doc)
    assert code == 1
    messages = [v["message"] for v in result["report"]["algebra"]]
    assert f"(e0 e0) e1 != e0 (e0 e1): {expected}" in messages
    assert not any("Fraction(" in m for m in messages)


@pytest.mark.parametrize("command", ["obstruction", "equiv-step"])
def test_module_axioms_are_computed_once(tmp_path, monkeypatch, command):
    # validate_module is the only caller of the order-0 defects, and the
    # check of each deformation reads its cached violations
    passes = []
    defects = algebra.multiplicativity_defects

    def counting(module, series, n):
        if n == 0:
            passes.append(module)
        return defects(module, series, n)

    monkeypatch.setattr(algebra, "multiplicativity_defects", counting)
    code, result, _ = run_cli(tmp_path, command, FIXTURE_DOCS["C"], name="C")
    assert code == 0 and result["command"] == command
    assert len(passes) == 1


@pytest.mark.parametrize("command", ["cohomology", "rigidity"])
def test_algebra_axioms_are_computed_once(monkeypatch, command):
    # cli.run and cohomology both refuse an invalid algebra, from one pass
    calls = []
    expand = algebra._expand

    def counting(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(algebra, "_expand", counting)
    text = json.dumps(FIXTURE_DOCS["B"])
    _, code = run(command, docs.parse_problem(text))
    assert code == 0
    one_pass = len(calls)
    problem = docs.parse_problem(text)
    algebra.validate_algebra(problem.module.algebra)
    algebra.validate_module(problem.module)
    assert len(calls) == 2 * one_pass


def test_invalid_algebra_blocks_other_commands(tmp_path, capsys):
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    doc["algebra"]["structure"][0][1] = ["0", "0"]
    in_path = write_doc(tmp_path, "broken", doc)
    assert main(["cohomology", str(in_path)]) == 2
    assert "invalid algebra" in capsys.readouterr().err


def test_integrate_a_reports_obstruction(tmp_path):
    code, result, _ = run_cli(tmp_path, "integrate", FIXTURE_DOCS["A"], name="A")
    assert code == 1
    assert result["verdict"] == "obstructed"
    assert result["reached_order"] == 1
    outcome = result["obstruction_outcome"]
    assert outcome["witness"] is None
    assert outcome["obstruction"]["entries"] == [
        {"tuple": [1, 1], "matrix": [["1"]]}
    ]
    assert outcome["no_witness_certificate"] is not None


def test_integrate_c_emits_order_ten_deformation(tmp_path):
    code, result, _ = run_cli(tmp_path, "integrate", FIXTURE_DOCS["C"], name="C")
    assert code == 0
    assert result["verdict"] == "integrated"
    assert result["order"] == 10
    payload = result["deformation"]
    assert payload["order"] == 10
    problem = docs.parse_problem(json.dumps(FIXTURE_DOCS["C"]))
    deformation = docs.decode_deformation(problem.module, payload, docs.DEFAULT_GUARDRAILS)
    assert check_deformation(deformation) is None


def test_default_degree_is_capped_by_a_lower_guardrail(tmp_path, capsys):
    doc = {**FIXTURE_DOCS["B"], "options": {"guardrails": {"degree": 1}}}
    code, result, _ = run_cli(tmp_path, "cohomology", doc, name="B")
    assert code == 0
    assert result["dims"] == {"H0": 1, "H1": 0}
    # an explicit degree over the cap is still refused, by the parser
    doc["options"]["degree"] = 2
    code, result, _ = run_cli(tmp_path, "cohomology", doc, name="B2")
    assert code == 2 and result is None
    assert capsys.readouterr().err == "error: options.degree: 2 exceeds the guardrail 1\n"


def test_rigidity_b_reports_dims(tmp_path):
    code, result, _ = run_cli(tmp_path, "rigidity", FIXTURE_DOCS["B"], name="B")
    assert code == 0
    assert result["verdict"] == "rigid-certified"
    assert result["dims"] == {"H1": 0}


def test_cohomology_reports_all_degrees(tmp_path):
    code, result, _ = run_cli(tmp_path, "cohomology", FIXTURE_DOCS["A"], name="A")
    assert code == 0
    assert result["dims"] == {"H0": 1, "H1": 1, "H2": 1}
    degrees = [rep["degree"] for rep in result["cohomology"]]
    assert degrees == [0, 1, 2]


def test_cocycle_negative_certificate(tmp_path):
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    doc["cochain"] = {"degree": 1, "entries": [{"tuple": [0], "matrix": [["1"]]}]}
    code, result, _ = run_cli(tmp_path, "cocycle", doc)
    assert code == 1
    entry = result["nonzero_differential_entry"]
    assert entry == {"tuple": [0, 0], "row": 0, "col": 0, "value": "1"}


def test_witness_absent_certificate_rechecks(tmp_path):
    code, result, _ = run_cli(tmp_path, "coboundary", FIXTURE_DOCS["A"], name="A")
    assert code == 1
    cert = result["certificate"]
    problem = docs.parse_problem(json.dumps(FIXTURE_DOCS["A"]))
    from moddef.cochain import differential_matrix

    field = problem.module.field
    y = [field.parse(v) for v in cert["functional"]]
    d = differential_matrix(problem.module, 0)
    assert all(v == field.zero for v in matvec(d.transpose(), y))
    sigma = problem.cochain
    pairing = field.reduce(sum((a * b for a, b in zip(y, sigma.flatten())), field.zero))
    assert str(pairing) == cert["pairing"]
    assert pairing != field.zero


def test_emitted_deformations_pass_validation(tmp_path):
    for fixture in ("B", "C"):
        for command in ("extend", "normalize", "conjugate"):
            code, result, _ = run_cli(tmp_path, command, FIXTURE_DOCS[fixture], name=fixture)
            if result and "deformation" in result:
                problem = docs.parse_problem(json.dumps(FIXTURE_DOCS[fixture]))
                d = docs.decode_deformation(
                    problem.module, result["deformation"], docs.DEFAULT_GUARDRAILS
                )
                assert check_deformation(d) is None


def test_payload_round_trip(tmp_path):
    problem = docs.parse_problem(json.dumps(FIXTURE_DOCS["C"]))

    code, result, _ = run_cli(tmp_path, "integrate", FIXTURE_DOCS["C"], name="C")
    payload = result["deformation"]
    decoded = docs.decode_deformation(problem.module, payload, docs.DEFAULT_GUARDRAILS)
    assert docs.encode_deformation(decoded) == payload

    code, result, _ = run_cli(tmp_path, "equiv-step", FIXTURE_DOCS["C"], name="C")
    payload = result["automorphism"]
    decoded = docs.decode_automorphism(problem.module, payload, docs.DEFAULT_GUARDRAILS)
    assert docs.encode_automorphism(decoded) == payload

    code, result, _ = run_cli(tmp_path, "coboundary", FIXTURE_DOCS["C"], name="C")
    payload = result["witness"]
    decoded = docs.decode_cochain(problem.module, payload, docs.DEFAULT_GUARDRAILS)
    assert docs.encode_cochain(decoded) == payload


def test_missing_payload_is_input_error(tmp_path, capsys):
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    del doc["cochain"]
    in_path = write_doc(tmp_path, "nocochain", doc)
    assert main(["cocycle", str(in_path)]) == 2
    assert "payload" in capsys.readouterr().err


def test_invalid_deformation_is_refused_with_its_violation(tmp_path, capsys):
    # a zero second term breaks the order-2 relation xi_1(x) xi_1(x) = xi_2(x x)
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    sigma = doc["cochain"]["entries"]
    doc["deformation"] = {"order": 2, "terms": [sigma, []]}
    in_path = write_doc(tmp_path, "A", doc)
    assert main(["obstruction", str(in_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: invalid deformation: multiplicativity fails at order 2 on basis pair (1, 1)\n"
    )
    assert captured.out == ""


def _fixture_a_bytes(keys, value):
    """Fixture A as JSON bytes with the entry at keys replaced by value."""
    doc = copy.deepcopy(FIXTURE_DOCS["A"])
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return json.dumps(doc).encode()


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b'{"field": "Q\xff"}', id="not-utf8"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-100000"),
        pytest.param(b'{"options": {"order": ' + b"7" * 5000 + b"}}", id="json-int-5000-digits"),
        pytest.param(_fixture_a_bytes(("algebra", "unit", 0), "1" * 5000), id="scalar-5000-digits"),
        pytest.param(_fixture_a_bytes(("field",), "F" + "1" * 5000), id="field-5000-digits"),
    ],
)
def test_malformed_input_exits_2_without_traceback(tmp_path, content):
    in_path = tmp_path / "malformed.json"
    in_path.write_bytes(content)
    proc = run_module("validate", str(in_path), text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["validate", "{doc}", "--output", "{tmp}/missing/out.json"], id="missing-dir"),
        pytest.param(["validate", "{doc}", "--output", "{tmp}"], id="directory"),
        pytest.param(["--fixtures", "--output", "{tmp}/missing/x.json"], id="fixtures-missing-dir"),
    ],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    in_path = write_doc(tmp_path, "C", FIXTURE_DOCS["C"])
    argv = [a.format(doc=in_path, tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "flag,value",
    [(flag, value) for flag in ("dim-r", "dim-m", "order", "degree") for value in (0, -1)]
    + [("degree", 17), ("order", 65)],
)
def test_guardrail_flags_must_be_positive(tmp_path, capsys, flag, value):
    key = flag.replace("-", "_")
    in_path = write_doc(tmp_path, "B", {**FIXTURE_DOCS["B"], "options": {"guardrails": {key: value}}})
    assert main(["validate", str(in_path)]) == 2
    captured = capsys.readouterr()
    bound = f"<= {dict(degree=16, order=64)[key]}" if value > 0 else ">= 1"
    assert captured.err.startswith(f"error: options.guardrails.{key}: must be {bound}")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_order_guardrail_at_its_bound_is_accepted(tmp_path):
    doc = {**FIXTURE_DOCS["B"], "options": {"guardrails": {"order": 64}}}
    assert main(["validate", str(write_doc(tmp_path, "B", doc))]) == 0


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("order", 0, "must be >= 1"),
        ("order", -1, "must be >= 1"),
        ("order", 17, "17 exceeds the guardrail 16"),
        ("degree", -1, "must be >= 0"),
        ("degree", 4, "4 exceeds the guardrail 3"),
    ],
)
def test_order_and_degree_flags_are_checked_once(tmp_path, capsys, flag, value, message):
    in_path = write_doc(tmp_path, "C", {**FIXTURE_DOCS["C"], "options": {flag: value}})
    assert main(["integrate", str(in_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: options.{flag}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("modulus", ["318665857834031151167461", "3317044064679887385961981"])
def test_strong_pseudoprime_moduli_are_refused(tmp_path, capsys, modulus):
    # both composites pass Miller-Rabin to the bases 2..37
    in_path = write_doc(tmp_path, "A", {**FIXTURE_DOCS["A"], "field": "F" + modulus})
    assert main(["cohomology", str(in_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: field modulus must be below 318665857834031151167461")
    assert captured.out == ""


def test_degree_guardrail_is_bounded(tmp_path, capsys):
    # every d_n of Q acting on Q^1 is 1x1, so only the degree bounds the work
    doc = {
        "field": "Q",
        "algebra": {"dim": 1, "structure": [[["1"]]], "unit": ["1"]},
        "module": {"dim": 1, "action": [[["1"]]]},
        "options": {"guardrails": {"degree": 17}},
    }
    in_path = write_doc(tmp_path, "line", doc)
    assert main(["cohomology", str(in_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: options.guardrails.degree: must be <= 16"
    )
    doc["options"] = {"degree": 1200, "guardrails": {"degree": 1200}}
    in_path = write_doc(tmp_path, "line", doc)
    start = time.perf_counter()
    assert main(["cohomology", str(in_path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: options.guardrails.degree: must be <= 16")
    doc["options"] = {"degree": 16, "guardrails": {"degree": 16}}
    code, result, _ = run_cli(tmp_path, "cohomology", doc)
    assert code == 0
    assert result["dims"] == {f"H{n}": int(n == 0) for n in range(17)}


def test_oversized_differential_exits_2(tmp_path, capsys):
    # within the default guardrails (dims 8 and 6, degree 3), but d_2 alone
    # would have 18432 x 2304 cells
    alg, mod = projector_module(8, (1, 1, 1, 1, 1, 1, 0, 0))
    doc = {
        "field": "Q",
        "algebra": docs.encode_algebra(alg),
        "module": docs.encode_module(mod),
        "options": {"degree": 3},
    }
    in_path = write_doc(tmp_path, "projectors", doc)
    assert main(["cohomology", str(in_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "18432x2304" in captured.err
    assert captured.out == ""


_SCALARS = ("0", "1", "-1", "2", "1/2", "-3/4", "2/0", "Q", "F7", "F4", "x")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """(path, value) of every node below the root."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,), child
        yield from _paths(child, prefix + (key,))


def _assert_ends_cleanly(command, data):
    """cli.main on data as stdin ends in exit 0, 1 or 2, exit 2 with an
    error line and no result, and raises nothing."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "-"])
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert out.getvalue() == ""
    else:
        assert json.loads(out.getvalue())["command"] == command


@settings(max_examples=200)
@given(
    command=st.sampled_from(ALL_COMMANDS),
    fixture=st.sampled_from(sorted(FIXTURE_DOCS)),
    data=st.data(),
)
def test_mutated_documents_never_crash(command, fixture, data):
    """One or two nodes of a fixture document are replaced by a scalar-like
    string (half the time, so that some documents get past parsing) or by
    any JSON value, or dropped; every command must still end in exit 0, 1
    or 2, never in an exception."""
    doc = copy.deepcopy(FIXTURE_DOCS[fixture])
    # picks drawn through hypothesis itself would favour the first nodes
    rng = data.draw(st.randoms(use_true_random=True))
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(("scalar", "scalar", "json", "drop"))
        paths = [(p, v) for p, v in _paths(doc) if kind != "scalar" or isinstance(v, str)]
        path = rng.choice(paths)[0]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "scalar":
            parent[path[-1]] = rng.choice(_SCALARS)
        else:
            parent[path[-1]] = data.draw(_JSON)
    _assert_ends_cleanly(command, json.dumps(doc).encode())


# every key of the problem-document format, at any depth
_KNOWN_KEYS = {
    "field", "algebra", "module", "options", "cochain", "deformation", "deformation2",
    "automorphism", "dim", "structure", "unit", "labels", "action", "degree", "entries",
    "tuple", "matrix", "order", "terms", "guardrails", "dim_r", "dim_m",
}


@settings(max_examples=100)
@given(fixture=st.sampled_from(sorted(FIXTURE_DOCS)), data=st.data())
def test_fuzzed_documents_end_in_a_result_or_a_refusal(fixture, data):
    """A fixture document with one node replaced by any JSON value, one key
    deleted or one key renamed to a name the format does not know: every
    command, run in process, returns a result with exit 0 or 1 or raises
    InputError or ResourceError, and a renamed key is refused as unknown."""
    doc = copy.deepcopy(FIXTURE_DOCS[fixture])
    rng = data.draw(st.randoms(use_true_random=True))
    kind = rng.choice(("replace", "delete", "rename"))
    if kind == "replace":
        path = rng.choice([p for p, _ in _paths(doc)])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(_JSON)
    else:
        obj = rng.choice([doc] + [v for _, v in _paths(doc) if isinstance(v, dict)])
        value = obj.pop(rng.choice(sorted(obj)))
        if kind == "rename":
            obj[data.draw(st.text(max_size=6).filter(lambda k: k not in _KNOWN_KEYS))] = value
    text = json.dumps(doc)
    for command in ALL_COMMANDS:
        try:
            result, code = run(command, docs.parse_problem(text))
        except (InputError, ResourceError) as exc:
            assert kind != "rename" or "unknown keys" in str(exc), exc
        else:
            assert kind != "rename", command
            assert code in (0, 1) and result["command"] == command


_JSONISH = st.text('0123456789-/"[]{},:FQ ', min_size=1, max_size=3).map(str.encode)
_FIXTURE_BYTES = [docs.canonical_json(doc).encode() for doc in FIXTURE_DOCS.values()]


@st.composite
def raw_inputs(draw):
    """Any bytes, or the bytes of a fixture document with one to four short
    runs of bytes inserted, deleted or overwritten; a run is any bytes or,
    half the time, JSON and scalar punctuation, so that some survive
    decoding."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    raw = bytearray(draw(st.sampled_from(_FIXTURE_BYTES)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(raw)))
        chunk = draw(st.binary(min_size=1, max_size=3) | _JSONISH)
        kind = draw(st.sampled_from(("insert", "delete", "overwrite")))
        if kind == "insert":
            raw[at:at] = chunk
        elif kind == "delete":
            del raw[at : at + len(chunk)]
        else:
            raw[at : at + len(chunk)] = chunk
    return bytes(raw)


@settings(max_examples=200)
@given(command=st.sampled_from(ALL_COMMANDS), raw=raw_inputs())
def test_raw_bytes_never_crash(command, raw):
    """Whatever bytes arrive on stdin, every command ends cleanly."""
    _assert_ends_cleanly(command, raw)


def test_integrate_requires_order(tmp_path, capsys):
    doc = copy.deepcopy(FIXTURE_DOCS["C"])
    del doc["options"]
    in_path = write_doc(tmp_path, "noorder", doc)
    assert main(["integrate", str(in_path)]) == 2
    assert "order" in capsys.readouterr().err
    doc["options"] = {"order": 3}
    in_path = write_doc(tmp_path, "order3", doc)
    out = tmp_path / "ok.json"
    assert main(["integrate", str(in_path), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["order"] == 3


def test_shared_parser_carries_no_state_between_calls(tmp_path, capsys):
    """main reuses one parser in a process: an --output of one call, and
    a usage error, do not reach the calls after it."""
    path = str(write_doc(tmp_path, "A", FIXTURE_DOCS["A"]))
    out = tmp_path / "out.json"
    assert main(["validate", path, "--output", str(out)]) == 0
    written = out.read_text(encoding="utf-8")
    assert json.loads(written)["verdict"] == "valid"
    out.write_text("untouched", encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == written
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "give either a command or --fixtures" in capsys.readouterr().err
    assert main(["cohomology", path]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "cohomology"
    assert out.read_text(encoding="utf-8") == "untouched"


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(FIXTURE_DOCS["A"])))
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["verdict"] == "valid"


def test_cli_surface_is_pinned():
    # no option, flag or command is added or renamed without this list
    parser = build_parser()
    assert [(a.dest, a.option_strings) for a in parser._actions] == [
        ("help", ["-h", "--help"]),
        ("command", []),
        ("input", []),
        ("output", ["--output"]),
        ("fixtures", ["--fixtures"]),
    ]
    (command,) = [a for a in parser._actions if a.dest == "command"]
    assert list(command.choices) == list(ALL_COMMANDS)
    # every other value is read from the problem document alone
    assert list(inspect.signature(docs.parse_problem).parameters) == ["data"]


# --- canonical scalars ------------------------------------------------------------

_SCALAR_TEXT = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def _scalar_strings(node):
    """Every string in a result document that has the syntax of a scalar."""
    if isinstance(node, str):
        if _SCALAR_TEXT.match(node):
            yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _scalar_strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _scalar_strings(value)


def _assert_canonical_scalars(field, result):
    """Over F_p every scalar prints as a decimal in [0, p); over Q it
    prints as str prints its value. Returns how many were checked."""
    found = list(_scalar_strings(result))
    for s in found:
        if field.p is None:
            assert str(QQ.parse(s)) == s, s
        else:
            assert s.isdigit() and str(int(s)) == s and int(s) < field.p, s
    return len(found)


@pytest.mark.parametrize("field", ["Q", "F7", "F10007"])
def test_fixture_results_print_canonical_scalars(tmp_path, field):
    checked = 0
    for fixture in ("A", "B", "C"):
        for command in ALL_COMMANDS:
            doc = {**FIXTURE_DOCS[fixture], "field": field}
            code, result, _ = run_cli(tmp_path, command, doc, name=fixture)
            assert code in (0, 1), (command, fixture)
            checked += _assert_canonical_scalars(field_from_name(field), result)
    assert checked > 100


def _random_document(rng, cocycle):
    """A problem document over Q for a random pair: a first-order
    deformation along a random cocycle, a second one shifted by a random
    coboundary, a random automorphism, and as the cochain payload that
    cocycle or (cocycle False) a random degree-1 cochain."""
    alg, mod = random_pair(rng, max_dim_m=2)
    sigma = random_cocycle(mod, rng)
    shifted = sigma + random_coboundary(mod, rng)
    return {
        "field": "Q",
        "algebra": docs.encode_algebra(alg),
        "module": docs.encode_module(mod),
        "options": {"order": 3, "degree": 2},
        "cochain": docs.encode_cochain(sigma if cocycle else random_cochain(mod, 1, rng)),
        "deformation": docs.encode_deformation(ApproximateDeformation(mod, [sigma])),
        "deformation2": docs.encode_deformation(ApproximateDeformation(mod, [shifted])),
        "automorphism": docs.encode_automorphism(random_automorphism(mod, 2, rng)),
    }


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from(["Q", "F13"]), cocycle=st.booleans())
def test_random_pair_results_print_canonical_scalars(seed, field, cocycle):
    text = docs.canonical_json({**_random_document(random.Random(seed), cocycle), "field": field})
    checked = 0
    for command in ALL_COMMANDS:
        if command == "integrate" and not cocycle:
            continue  # the seed of integrate must be a cocycle
        result, _ = run(command, docs.parse_problem(text))
        result = json.loads(docs.canonical_json(result))
        checked += _assert_canonical_scalars(field_from_name(field), result)
    assert checked > 0


# --- determinism ------------------------------------------------------------------


def test_fixture_commands_are_byte_deterministic(tmp_path):
    for fixture in ("A", "B", "C"):
        for command in ALL_COMMANDS:
            _, _, first = run_cli(tmp_path, command, FIXTURE_DOCS[fixture], name=fixture)
            text1 = first.read_bytes()
            first.unlink()
            _, _, second = run_cli(tmp_path, command, FIXTURE_DOCS[fixture], name=fixture)
            assert text1 == second.read_bytes(), (command, fixture)


def test_fixtures_flag_and_module_entry_point(tmp_path):
    out = tmp_path / "fixtures.json"
    assert main(["--fixtures", "--output", str(out)]) == 0
    emitted = json.loads(out.read_text())
    assert set(emitted) == {"A", "B", "C"}
    for doc in emitted.values():
        docs.parse_problem(json.dumps(doc))
    # the same bytes through the installed module entry point
    proc = run_module("--fixtures", check=True)
    assert proc.stdout == out.read_bytes()
    # the benchmark times its own recorded copy of these documents
    bench_copy = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures.json"
    assert emitted == json.loads(bench_copy.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "argv", [["validate", "nonexistent.json", "--fixtures"], ["rigidity", "--fixtures"]]
)
def test_fixtures_flag_refuses_a_command(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert "error: give either a command or --fixtures" in captured.err
    assert captured.out == ""
