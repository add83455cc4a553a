"""Command-line surface.

One self-contained JSON document in, one canonical JSON result out.

Exit codes: 0 = computed with an affirmative verdict, 1 = computed with a
negative verdict (the result carries a checkable certificate), 2 = input
or resource error, or a result that cannot be written (diagnostic on
stderr, no result document).

The argument parser is built once per process and shared by every call
of `main`; parsing reads it and never changes it. The cochain and
deformation modules are imported where a command computes, and the
fixtures under `--fixtures`, each by a plain local import (after the first
it is a lookup in `sys.modules`), so `validate` runs without any of them.
"""

import argparse
import functools
import sys

from . import documents as doc
from .algebra import require_valid, validate_algebra, validate_module
from .errors import InputError, ResourceError

COMMANDS = (
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


def build_parser():
    p = argparse.ArgumentParser(
        prog="moddef",
        description="Exact deformation theory of a module over a "
        "finite-dimensional associative algebra.",
    )
    p.add_argument("command", nargs="?", choices=COMMANDS, help="operation to run")
    p.add_argument(
        "input", nargs="?", help="problem document path ('-' or omitted reads stdin)"
    )
    p.add_argument("--output", help="write the result document to this path")
    p.add_argument("--fixtures", action="store_true", help="emit the built-in fixture documents")
    return p


_parser = functools.cache(build_parser)


def _require(problem, name):
    value = getattr(problem, name)
    if value is None:
        raise InputError(f"command needs a '{name}' payload in the document")
    return value


def _require_deformation(problem, name="deformation"):
    d = _require(problem, name)
    from . import deformation

    issue = deformation.check_deformation(d)
    if issue is not None:
        raise InputError(f"invalid {name}: {issue.message}")
    return d


def _certificate(f):
    from . import cochain

    cert = cochain.cokernel_certificate(f)
    if cert is None:
        return None
    y, pairing = cert
    return {"functional": doc.encode_vector(y), "pairing": str(pairing)}


def _outcome_payload(outcome):
    payload = doc.encode_obstruction_outcome(outcome)
    if outcome.witness is None:
        payload["no_witness_certificate"] = _certificate(-outcome.obstruction)
    return payload


def run(command, problem: doc.ProblemDocument):
    """Validate the problem, then dispatch one command; returns (result
    dict, exit code). Every command but validate refuses an invalid
    problem."""
    result = {"command": command}
    if command == "validate":
        alg_issues = validate_algebra(problem.module.algebra)
        mod_issues = validate_module(problem.module)
        ok = not alg_issues and not mod_issues
        result["verdict"] = "valid" if ok else "invalid"
        result["report"] = {
            "algebra": [doc.encode_violation(v) for v in alg_issues],
            "module": [doc.encode_violation(v) for v in mod_issues],
        }
        return result, 0 if ok else 1

    module = problem.module
    require_valid(module)
    from . import cochain, deformation

    if command == "cohomology":
        reports = [cochain.cohomology(module, n) for n in range(problem.degree + 1)]
        result["verdict"] = "computed"
        result["cohomology"] = [doc.encode_cohomology_report(r) for r in reports]
        result["dims"] = {f"H{r.degree}": r.dim_cohomology for r in reports}
        return result, 0

    if command == "cocycle":
        f = _require(problem, "cochain")
        image = cochain.differential(f)
        if image.is_zero():
            result["verdict"] = "cocycle"
            result["degree"] = f.degree
            return result, 0
        key, r, c, value = image.first_nonzero()
        result["verdict"] = "not-a-cocycle"
        result["degree"] = f.degree
        result["differential"] = doc.encode_cochain(image)
        result["nonzero_differential_entry"] = {
            "tuple": list(key),
            "row": r,
            "col": c,
            "value": str(value),
        }
        return result, 1

    if command == "coboundary":
        f = _require(problem, "cochain")
        witness = cochain.coboundary_witness(f)
        if witness is not None:
            result["verdict"] = "coboundary"
            result["witness"] = doc.encode_cochain(witness)
            return result, 0
        result["verdict"] = "not-a-coboundary"
        result["certificate"] = _certificate(f)
        return result, 1

    if command == "obstruction":
        d = _require_deformation(problem)
        outcome = deformation.obstruction_outcome(d)
        result["obstruction_outcome"] = _outcome_payload(outcome)
        result["verdict"] = "obstructed" if outcome.witness is None else "unobstructed"
        return result, 1 if outcome.witness is None else 0

    if command == "extend":
        d = _require_deformation(problem)
        step = deformation.extend_once(d)
        if isinstance(step, deformation.ObstructionOutcome):
            result["verdict"] = "obstructed"
            result["obstruction_outcome"] = _outcome_payload(step)
            return result, 1
        result["verdict"] = "extended"
        result["deformation"] = doc.encode_deformation(step)
        return result, 0

    if command == "integrate":
        sigma = _require(problem, "cochain")
        order = problem.order
        if order is None:
            raise InputError("integrate needs a truncation order (options.order)")
        out = deformation.integrate(sigma, order)
        if isinstance(out, deformation.ApproximateDeformation):
            result["verdict"] = "integrated"
            result["order"] = out.order
            result["deformation"] = doc.encode_deformation(out)
            return result, 0
        reached, outcome = out
        result["verdict"] = "obstructed"
        result["reached_order"] = reached
        result["obstruction_outcome"] = _outcome_payload(outcome)
        return result, 1

    if command == "normalize":
        d = _require_deformation(problem)
        normalized, auto, leading = deformation.normalize(d)
        result["deformation"] = doc.encode_deformation(normalized)
        result["automorphism"] = doc.encode_automorphism(auto)
        if leading is None:
            result["verdict"] = "trivial"
            result["leading"] = None
            return result, 0
        result["verdict"] = "nontrivial-class"
        result["leading"] = leading
        result["certificate"] = _certificate(normalized.terms[leading - 1])
        return result, 1

    if command == "conjugate":
        d = _require_deformation(problem)
        phi = _require(problem, "automorphism")
        out = deformation.conjugate(phi, d)
        result["verdict"] = "conjugated"
        result["deformation"] = doc.encode_deformation(out)
        return result, 0

    if command == "equiv-step":
        d1 = _require_deformation(problem)
        d2 = _require_deformation(problem, "deformation2")
        auto = deformation.equivalent_one_step(d1, d2)
        if auto is not None:
            result["verdict"] = "equivalent"
            result["automorphism"] = doc.encode_automorphism(auto)
            return result, 0
        result["verdict"] = "witness-absent"
        delta = d2.terms[-1] - d1.terms[-1]
        result["difference"] = doc.encode_cochain(delta)
        result["certificate"] = _certificate(delta)
        return result, 1

    if command == "rigidity":
        out = deformation.rigidity_check(module)
        result["dims"] = {"H1": out.h1.dim_cohomology}
        if out.certified:
            result["verdict"] = "rigid-certified"
            return result, 0
        result["verdict"] = "inconclusive"
        result["h1_representative"] = (
            doc.encode_cochain(out.h1.representatives[0]) if out.h1.representatives else None
        )
        return result, 1

    raise InputError(f"unknown command {command!r}")


def _emit(text, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_input(path):
    try:
        if path is None or path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not valid UTF-8 (byte {exc.start}: {exc.reason})") from None


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if (args.command is None) != args.fixtures:
        parser.error("give either a command or --fixtures")

    try:
        if args.fixtures:
            from .fixtures import fixture_documents

            result, code = fixture_documents(), 0
        else:
            problem = doc.parse_problem(_read_input(args.input))
            result, code = run(args.command, problem)
        _emit(doc.canonical_json(result), args.output)
    except (InputError, ResourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
