"""JSON problem and result documents.

One self-contained document per invocation: the field, the algebra, the
module, and optional cochain / deformation / automorphism payloads plus
options. All scalars travel as strings ("p/q" over the rationals with the
denominator omitted when 1, decimal residues over a prime field); floats
are rejected. Output is canonical: sorted keys, fixed indentation,
canonical scalar strings, entries in coordinate order, so identical inputs
produce byte-identical documents.

Parse errors name the JSON path of the first violation. Every object
refuses a key it does not know, and guardrails fail fast before any
solver runs.
"""

import json
from dataclasses import dataclass, replace

from .algebra import Algebra, Module, Violation
from .cochain import Cochain, CohomologyReport
from .deformation import ApproximateDeformation, FormalAutomorphism, ObstructionOutcome
from .errors import InputError
from .fields import field_from_name
from .linalg import Matrix


@dataclass(frozen=True)
class Guardrails:
    dim_r: int = 8
    dim_m: int = 6
    order: int = 16
    degree: int = 3


DEFAULT_GUARDRAILS = Guardrails()

# Past degree 11, any algebra of dimension >= 2 meets the cell bound of d_n.
MAX_DEGREE_GUARDRAIL = 16


@dataclass
class ProblemDocument:
    module: Module
    cochain: Cochain | None
    deformation: ApproximateDeformation | None
    deformation2: ApproximateDeformation | None
    automorphism: FormalAutomorphism | None
    order: int | None
    degree: int | None
    guardrails: Guardrails


def _expect(cond, path, message):
    if not cond:
        raise InputError(f"{path}: {message}")


def _fields(raw, path, required, optional=()):
    """The values of raw's required keys, then of its optional ones (None
    when absent); refused unless raw is an object with every required key
    and no key but these."""
    _expect(isinstance(raw, dict), path, "expected an object")
    unknown = set(raw).difference(required, optional)
    if unknown:
        raise InputError(f"{path}: unknown keys {sorted(unknown)}")
    try:
        return [*map(raw.__getitem__, required), *map(raw.get, optional)]
    except KeyError as exc:
        raise InputError(f"{path}.{exc.args[0]}: missing") from None


def _int(value, path, minimum, guardrail=None):
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    _expect(value >= minimum, path, f"must be >= {minimum}")
    if guardrail is not None:
        _expect(value <= guardrail, path, f"{value} exceeds the guardrail {guardrail}")
    return value


def decode_vector(field, value, length, path):
    _expect(isinstance(value, list), path, "expected a list of scalars")
    _expect(len(value) == length, path, f"expected length {length}, got {len(value)}")
    scalars = []
    for i, v in enumerate(value):
        try:
            scalars.append(field.parse(v))
        except InputError as exc:
            raise InputError(f"{path}[{i}]: {exc}") from None
    return scalars


def decode_matrix(field, value, nrows, ncols, path):
    _expect(isinstance(value, list), path, "expected a list of rows")
    _expect(len(value) == nrows, path, f"expected {nrows} rows, got {len(value)}")
    rows = [decode_vector(field, row, ncols, f"{path}[{i}]") for i, row in enumerate(value)]
    return Matrix(field, rows, ncols)


def encode_vector(field, vec):
    return [field.format(v) for v in vec]


def encode_matrix(mat: Matrix):
    return [[mat.field.format(v) for v in row] for row in mat.data]


def decode_algebra(field, data, guardrails, path="algebra"):
    dim, structure, unit, labels = _fields(data, path, ("dim", "structure", "unit"), ("labels",))
    dim = _int(dim, f"{path}.dim", 1, guardrails.dim_r)
    _expect(isinstance(structure, list) and len(structure) == dim, f"{path}.structure",
            f"expected {dim} rows")
    rows = []
    for i, row in enumerate(structure):
        _expect(isinstance(row, list) and len(row) == dim, f"{path}.structure[{i}]",
                f"expected {dim} product vectors")
        rows.append(
            [decode_vector(field, v, dim, f"{path}.structure[{i}][{j}]") for j, v in enumerate(row)]
        )
    unit = decode_vector(field, unit, dim, f"{path}.unit")
    if labels is not None:
        _expect(isinstance(labels, list) and all(isinstance(s, str) for s in labels),
                f"{path}.labels", "expected a list of strings")
        _expect(len(labels) == dim, f"{path}.labels", f"expected {dim} labels")
    return Algebra(field, rows, unit, labels)


def encode_algebra(a: Algebra):
    out = {
        "dim": a.dim,
        "structure": [
            [encode_vector(a.field, a.structure[i][j]) for j in range(a.dim)]
            for i in range(a.dim)
        ],
        "unit": encode_vector(a.field, a.unit),
    }
    if a.labels is not None:
        out["labels"] = list(a.labels)
    return out


def decode_module(algebra, data, guardrails, path="module"):
    dim, action = _fields(data, path, ("dim", "action"))
    dim = _int(dim, f"{path}.dim", 1, guardrails.dim_m)
    _expect(isinstance(action, list) and len(action) == algebra.dim, f"{path}.action",
            f"expected {algebra.dim} matrices")
    mats = [
        decode_matrix(algebra.field, m, dim, dim, f"{path}.action[{i}]")
        for i, m in enumerate(action)
    ]
    return Module(algebra, mats)


def encode_module(m: Module):
    return {"dim": m.dim, "action": [encode_matrix(mat) for mat in m.action]}


def decode_cochain_entries(module, data, degree, path):
    _expect(isinstance(data, list), path, "expected a list of entries")
    entries = {}
    for i, item in enumerate(data):
        ipath = f"{path}[{i}]"
        tup, matrix = _fields(item, ipath, ("tuple", "matrix"))
        _expect(isinstance(tup, list) and len(tup) == degree, f"{ipath}.tuple",
                f"expected {degree} indices")
        key = tuple(_int(t, f"{ipath}.tuple[{j}]", 0) for j, t in enumerate(tup))
        for j, t in enumerate(key):
            _expect(t < module.algebra.dim, f"{ipath}.tuple[{j}]",
                    f"index {t} outside basis of size {module.algebra.dim}")
        if key in entries:
            raise InputError(f"{ipath}.tuple: duplicate tuple {list(key)}")
        entries[key] = decode_matrix(module.field, matrix, module.dim, module.dim, f"{ipath}.matrix")
    return entries


def decode_cochain(module, data, guardrails, path="cochain"):
    degree, entries = _fields(data, path, ("degree", "entries"))
    degree = _int(degree, f"{path}.degree", 0, guardrails.degree)
    return Cochain(module, degree, decode_cochain_entries(module, entries, degree, f"{path}.entries"))


def encode_cochain(f: Cochain):
    return {
        "degree": f.degree,
        "entries": [
            {"tuple": list(key), "matrix": encode_matrix(f.entries[key])}
            for key in f.support()
        ],
    }


def decode_deformation(module, data, guardrails, path="deformation"):
    order, terms = _fields(data, path, ("order", "terms"))
    order = _int(order, f"{path}.order", 0, guardrails.order)
    _expect(isinstance(terms, list) and len(terms) == order, f"{path}.terms",
            f"expected {order} terms")
    cochains = [
        Cochain(module, 1, decode_cochain_entries(module, t, 1, f"{path}.terms[{i}]"))
        for i, t in enumerate(terms)
    ]
    return ApproximateDeformation(module, cochains)


def encode_deformation(d: ApproximateDeformation):
    return {
        "order": d.order,
        "terms": [encode_cochain(t)["entries"] for t in d.terms],
    }


def decode_automorphism(module, data, guardrails, path="automorphism"):
    (terms,) = _fields(data, path, ("terms",))
    _expect(isinstance(terms, list), f"{path}.terms", "expected a list of matrices")
    _int(len(terms), f"{path}.terms", 0, guardrails.order)
    mats = [
        decode_matrix(module.field, t, module.dim, module.dim, f"{path}.terms[{i}]")
        for i, t in enumerate(terms)
    ]
    return FormalAutomorphism(module, mats)


def encode_automorphism(phi: FormalAutomorphism):
    return {"terms": [encode_matrix(t) for t in phi.terms]}


def encode_violation(v: Violation):
    return {"kind": v.kind, "where": list(v.where), "message": v.message}


def encode_cohomology_report(rep: CohomologyReport):
    return {
        "degree": rep.degree,
        "dim_cocycles": rep.dim_cocycles,
        "dim_coboundaries": rep.dim_coboundaries,
        "dim_cohomology": rep.dim_cohomology,
        "representatives": [encode_cochain(f) for f in rep.representatives],
    }


def encode_obstruction_outcome(out: ObstructionOutcome):
    return {
        "obstruction": encode_cochain(out.obstruction),
        "witness": encode_cochain(out.witness) if out.witness is not None else None,
        "class_is_zero": out.class_is_zero,
    }


def _parse_guardrails(raw):
    """options.guardrails over the defaults: each must be >= 1, and the
    degree at most MAX_DEGREE_GUARDRAIL."""
    if raw is None:
        return DEFAULT_GUARDRAILS
    _fields(raw, "options.guardrails", (), ("dim_r", "dim_m", "order", "degree"))
    caps = {k: _int(v, f"options.guardrails.{k}", 1) for k, v in raw.items()}
    _expect(caps.get("degree", 1) <= MAX_DEGREE_GUARDRAIL, "options.guardrails.degree",
            f"must be <= {MAX_DEGREE_GUARDRAIL}")
    return replace(DEFAULT_GUARDRAILS, **caps)


# the optional payloads of a problem document, by key, with their decoders
_PAYLOADS = {
    "cochain": decode_cochain,
    "deformation": decode_deformation,
    "deformation2": decode_deformation,
    "automorphism": decode_automorphism,
}


def parse_problem(data) -> ProblemDocument:
    """Parse and structurally validate a problem document.

    data may be JSON text or an already-decoded dict. Algebraic axioms are
    not checked here; callers run validation and refuse invalid inputs
    before dispatching any other computation."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except RecursionError:
            raise InputError("malformed JSON: nested too deeply") from None
        except ValueError as exc:  # bad syntax, bad UTF-8 bytes, overlong integers
            raise InputError(f"malformed JSON: {exc}") from None
    algebra, module, field_name, options, *payloads = _fields(
        data, "document", ("algebra", "module"), ("field", "options", *_PAYLOADS)
    )
    options = {} if options is None else options
    _, _, guardrails = _fields(options, "options", (), ("order", "degree", "guardrails"))
    guardrails = _parse_guardrails(guardrails)
    # an absent option is None, a null one is refused
    order, degree = (
        _int(options[key], f"options.{key}", minimum, getattr(guardrails, key))
        if key in options else None
        for key, minimum in (("order", 1), ("degree", 0))
    )

    if field_name is None:
        raise InputError("field: missing (use \"Q\" or \"Fp\" with p prime)")
    if not isinstance(field_name, str):
        raise InputError("field: expected a string")
    algebra = decode_algebra(field_from_name(field_name), algebra, guardrails)
    module = decode_module(algebra, module, guardrails)
    payloads = {
        key: None if raw is None else decode(module, raw, guardrails, key)
        for (key, decode), raw in zip(_PAYLOADS.items(), payloads)
    }
    return ProblemDocument(module, order=order, degree=degree, guardrails=guardrails, **payloads)


def canonical_json(obj) -> str:
    """Byte-reproducible rendering: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
