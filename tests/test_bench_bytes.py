"""The result bytes the benchmark has recorded, checked by tier-1.

Every operation of the cohomology-ladder and fixtures-cli workloads, in
every sign variant a seed can pick, runs through ``cli.run`` and
``documents.canonical_json`` as one in-process benchmark call does, and
its (exit code, sha256) must be the one in ``perfbench/expected.json``.
So a change that moves one result byte fails here, whichever variants a
benchmark seed happens to draw. The benchmark's files are only read."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from moddef import cli, documents
from moddef.errors import InputError, ResourceError

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, which imports its sibling gen.py by name;
    both names leave the import table again once it is loaded."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("workloads", "gen"):
            sys.modules.pop(name, None)
    return workloads


@pytest.mark.parametrize("workload", ["cohomology-ladder", "fixtures-cli"])
def test_every_variant_gives_the_recorded_bytes(workloads, workload):
    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
    ops = workloads.variants(workload)
    assert len(ops) == sum(1 for key in expected if key.startswith(f"{workload}/"))
    wrong = []
    for key, op in ops.items():
        try:
            result, code = cli.run(op.command, documents.parse_problem(op.text))
            data = documents.canonical_json(result).encode("utf-8")
        except (InputError, ResourceError):
            code, data = 2, b""
        if [code, hashlib.sha256(data).hexdigest()] != expected[key]:
            wrong.append(key)
    assert wrong == []
