"""JSON problem and result documents.

One self-contained document per invocation: the field, the algebra, the
module, and optional cochain / deformation / automorphism payloads plus
options. All scalars travel as strings ("p/q" over the rationals with the
denominator omitted when 1, decimal residues over a prime field); floats
are rejected. Output is canonical: sorted keys, fixed indentation,
canonical scalar strings, entries in coordinate order, so identical inputs
produce byte-identical documents.

Parse errors name the JSON path of the first violation, and guardrails
fail fast before any solver runs.
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
class Options:
    order: int | None = None
    degree: int | None = None


@dataclass
class ProblemDocument:
    algebra: Algebra
    module: Module
    cochain: Cochain | None
    deformation: ApproximateDeformation | None
    deformation2: ApproximateDeformation | None
    automorphism: FormalAutomorphism | None
    options: Options
    guardrails: Guardrails


def _expect(cond, path, message):
    if not cond:
        raise InputError(f"{path}: {message}")


def _get(data, key, path):
    if key not in data:
        raise InputError(f"{path}.{key}: missing")
    return data[key]


def _int(value, path, minimum=None, maximum=None):
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    if minimum is not None:
        _expect(value >= minimum, path, f"must be >= {minimum}")
    if maximum is not None:
        _expect(value <= maximum, path, f"must be <= {maximum}")
    return value


def decode_scalar(field, value, path):
    if not isinstance(value, str):
        raise InputError(f"{path}: scalars must be strings, got {type(value).__name__}")
    try:
        return field.parse(value)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def decode_vector(field, value, length, path):
    _expect(isinstance(value, list), path, "expected a list of scalars")
    _expect(len(value) == length, path, f"expected length {length}, got {len(value)}")
    return [decode_scalar(field, v, f"{path}[{i}]") for i, v in enumerate(value)]


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
    _expect(isinstance(data, dict), path, "expected an object")
    dim = _int(_get(data, "dim", path), f"{path}.dim", minimum=1)
    if dim > guardrails.dim_r:
        raise InputError(
            f"{path}.dim: algebra dimension {dim} exceeds the guardrail {guardrails.dim_r}"
        )
    structure = _get(data, "structure", path)
    _expect(isinstance(structure, list) and len(structure) == dim, f"{path}.structure",
            f"expected {dim} rows")
    rows = []
    for i, row in enumerate(structure):
        _expect(isinstance(row, list) and len(row) == dim, f"{path}.structure[{i}]",
                f"expected {dim} product vectors")
        rows.append(
            [decode_vector(field, v, dim, f"{path}.structure[{i}][{j}]") for j, v in enumerate(row)]
        )
    unit = decode_vector(field, _get(data, "unit", path), dim, f"{path}.unit")
    labels = data.get("labels")
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
    _expect(isinstance(data, dict), path, "expected an object")
    dim = _int(_get(data, "dim", path), f"{path}.dim", minimum=1)
    if dim > guardrails.dim_m:
        raise InputError(
            f"{path}.dim: module dimension {dim} exceeds the guardrail {guardrails.dim_m}"
        )
    action = _get(data, "action", path)
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
        _expect(isinstance(item, dict), ipath, "expected an object")
        tup = _get(item, "tuple", ipath)
        _expect(isinstance(tup, list) and len(tup) == degree, f"{ipath}.tuple",
                f"expected {degree} indices")
        key = tuple(_int(t, f"{ipath}.tuple[{j}]", minimum=0) for j, t in enumerate(tup))
        for j, t in enumerate(key):
            _expect(t < module.algebra.dim, f"{ipath}.tuple[{j}]",
                    f"index {t} outside basis of size {module.algebra.dim}")
        if key in entries:
            raise InputError(f"{ipath}.tuple: duplicate tuple {list(key)}")
        entries[key] = decode_matrix(
            module.field, _get(item, "matrix", ipath), module.dim, module.dim, f"{ipath}.matrix"
        )
    return entries


def decode_cochain(module, data, path="cochain"):
    _expect(isinstance(data, dict), path, "expected an object")
    degree = _int(_get(data, "degree", path), f"{path}.degree", minimum=0)
    entries = decode_cochain_entries(module, _get(data, "entries", path), degree, f"{path}.entries")
    return Cochain(module, degree, entries)


def encode_cochain(f: Cochain):
    return {
        "degree": f.degree,
        "entries": [
            {"tuple": list(key), "matrix": encode_matrix(f.entries[key])}
            for key in f.support()
        ],
    }


def decode_deformation(module, data, guardrails, path="deformation"):
    _expect(isinstance(data, dict), path, "expected an object")
    order = _int(_get(data, "order", path), f"{path}.order", minimum=0)
    if order > guardrails.order:
        raise InputError(f"{path}.order: order {order} exceeds the guardrail {guardrails.order}")
    terms = _get(data, "terms", path)
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
    _expect(isinstance(data, dict), path, "expected an object")
    terms = _get(data, "terms", path)
    _expect(isinstance(terms, list), f"{path}.terms", "expected a list of matrices")
    if len(terms) > guardrails.order:
        raise InputError(
            f"{path}.terms: order {len(terms)} exceeds the guardrail {guardrails.order}"
        )
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


def _object(raw, path, keys):
    """raw, refused unless it is an object with no keys but these."""
    _expect(isinstance(raw, dict), path, "expected an object")
    unknown = set(raw) - set(keys)
    if unknown:
        raise InputError(f"{path}: unknown keys {sorted(unknown)}")
    return raw


def _parse_guardrails(raw):
    """options.guardrails over the defaults: each must be >= 1, and the
    degree at most MAX_DEGREE_GUARDRAIL."""
    if raw is None:
        return DEFAULT_GUARDRAILS
    raw = _object(raw, "options.guardrails", ("dim_r", "dim_m", "order", "degree"))
    top = {"degree": MAX_DEGREE_GUARDRAIL}
    fields = {k: _int(v, f"options.guardrails.{k}", 1, top.get(k)) for k, v in raw.items()}
    return replace(DEFAULT_GUARDRAILS, **fields)


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
    _expect(isinstance(data, dict), "document", "expected a JSON object")

    options_raw = data.get("options")
    if options_raw is None:
        options_raw = {}
    _object(options_raw, "options", ("order", "degree", "guardrails"))
    guardrails = _parse_guardrails(options_raw.get("guardrails"))

    field_name = data.get("field")
    if field_name is None:
        raise InputError("field: missing (use \"Q\" or \"Fp\" with p prime)")
    if not isinstance(field_name, str):
        raise InputError("field: expected a string")
    field = field_from_name(field_name)

    algebra = decode_algebra(field, _get(data, "algebra", "document"), guardrails)
    module = decode_module(algebra, _get(data, "module", "document"), guardrails)

    options = Options()
    for key, minimum in (("order", 1), ("degree", 0)):
        if key in options_raw:
            value, path, cap = options_raw[key], f"options.{key}", getattr(guardrails, key)
            if _int(value, path, minimum=minimum) > cap:
                raise InputError(f"{path}: {value} exceeds the guardrail {cap}")
            setattr(options, key, value)

    cochain = data.get("cochain")
    if cochain is not None:
        cochain = decode_cochain(module, cochain)
        if cochain.degree > guardrails.degree:
            raise InputError(
                f"cochain.degree: {cochain.degree} exceeds the guardrail {guardrails.degree}"
            )
    deformation = data.get("deformation")
    if deformation is not None:
        deformation = decode_deformation(module, deformation, guardrails)
    deformation2 = data.get("deformation2")
    if deformation2 is not None:
        deformation2 = decode_deformation(module, deformation2, guardrails, path="deformation2")
    automorphism = data.get("automorphism")
    if automorphism is not None:
        automorphism = decode_automorphism(module, automorphism, guardrails)

    return ProblemDocument(
        algebra, module, cochain, deformation, deformation2, automorphism,
        options, guardrails,
    )


def canonical_json(obj) -> str:
    """Byte-reproducible rendering: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
