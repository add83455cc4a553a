"""The four workloads as lists of operations on serialized documents.

An operation is one CLI call's worth of work: a command and one problem
document (JSON text), plus the natural pair it came from for the
dimension check. ``build`` turns
a workload name and a seed into the operations of one pass, in the order
they run; ``variants`` lists every operation the seed can pick, which is
what the recorded expectations cover.
"""

import json
import os
import random
from dataclasses import dataclass

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
COMMANDS = (
    "validate", "cohomology", "cocycle", "coboundary", "obstruction", "extend",
    "integrate", "normalize", "conjugate", "equiv-step", "rigidity",
)
GUARDRAILS = {"order": 64}


@dataclass
class Op:
    key: str  # names the operation within its workload
    command: str
    text: str  # the problem document
    pair: str | None = None  # natural-basis pair, for the dimension check


# ---------------------------------------------------------------------------
# Each workload lists its cases: (key, make) where make(variant) returns the
# operation in that sign variant of its bases.


def fixtures_cli():
    """Every command on the three fixture documents (no sign variants)."""
    with open(os.path.join(HERE, "fixtures.json"), encoding="utf-8") as fh:
        docs = json.load(fh)
    cases = []
    for name in sorted(docs):
        text = json.dumps(docs[name], sort_keys=True)
        for cmd in COMMANDS:
            op = Op(f"{name}.{cmd}", cmd, text)
            cases.append((op.key, lambda v, op=op: op))
    return cases


def _pair_case(key, cmd, name, natural, basis, field, options):
    def make(variant):
        moved = basis.then(gen.sign_basis(natural, variant, name))
        return Op(key, cmd, gen.document(moved.pair(natural), field, options), name)

    return key, make


# cohomology-ladder: natural bases, Q and F_10007, top degree 2 or 3
LADDER = (("UT", 3), ("B", 3), ("P3", 3), ("J33", 3), ("J44", 2), ("J43", 3))


def cohomology_ladder():
    cases = []
    for name, top in LADDER:
        natural = gen.PAIRS[name]()
        for field in gen.FIELDS[:2]:
            for cmd in ("cohomology", "rigidity"):
                cases.append(_pair_case(f"{name}.{field}.{cmd}", cmd, name, natural,
                                        gen.natural(natural), field, {"degree": top}))
    return cases


# dense-basis: fixed dense basis changes of small pairs, three fields
DENSE = ("C", "UT", "B", "J33", "J43")


def dense_basis():
    cases = []
    for name in DENSE:
        natural = gen.PAIRS[name]()
        dense = gen.dense_basis(natural, name)
        for field in gen.FIELDS:
            for cmd in ("cohomology", "rigidity"):
                cases.append(_pair_case(f"{name}.{field}.{cmd}", cmd, name, natural,
                                        dense, field, {"degree": 2}))
    return cases


# deform-series: integration, normalization, extension, obstructions and
# equivalence over Q, all with the order guardrail raised to 64


def deform_series():
    pairs = {name: gen.PAIRS[name]() for name in ("C", "J33", "P2", "J43")}
    rng = random.Random("deform")
    phi = {name: gen.random_op(rng, len(pairs[name][2][0])) for name in ("J33", "P2")}
    phi2 = gen.random_op(rng, 3)
    psi = gen.random_op(rng, 3)
    j43 = pairs["J43"]
    sig_a = gen.nontrivial_cocycle(j43, rng)
    sig_b = gen.nontrivial_cocycle(j43, rng)
    xi2 = gen.extend(j43, [sig_a])
    xi3 = gen.extend(j43, [sig_a, xi2])
    obstructed = [sig_a, xi2, xi3]
    conj16 = {name: gen.conjugation_deformation(pairs[name], phi2 if name == "J33" else phi[name], 16)
              for name in ("J33", "P2")}
    conj8 = gen.conjugation_deformation(pairs["J33"], phi2, 8)
    conj8b = conj8[:-1] + [gen.add_values(conj8[-1], gen.d0(pairs["J33"], psi))]
    sig_c = [gen.zeros(2), gen.frac_mat([[1, 0], [0, -1]])]

    specs = []  # (key, command, pair, order, payload)
    for order in (16, 64):
        specs.append((f"C.integrate{order}", "integrate", "C", order, {"cochain": sig_c}))
        for name in ("J33", "P2"):
            specs.append((f"{name}.integrate{order}", "integrate", name, order,
                          {"cochain": gen.d0(pairs[name], phi[name])}))
    for tag, sig in (("a", sig_a), ("b", sig_b)):
        specs.append((f"J43.integrate64{tag}", "integrate", "J43", 64, {"cochain": sig}))
    for name in ("J33", "P2"):
        for cmd in ("normalize", "extend", "obstruction"):
            specs.append((f"{name}.{cmd}", cmd, name, None, {"deformation": conj16[name]}))
    for cmd in ("normalize", "extend", "obstruction"):
        specs.append((f"J43.{cmd}", cmd, "J43", None, {"deformation": obstructed}))
    specs.append(("J33.equiv-step", "equiv-step", "J33", None,
                  {"deformation": conj8, "deformation2": conj8b}))
    specs.append(("J43.equiv-step", "equiv-step", "J43", None,
                  {"deformation": [sig_a, xi2],
                   "deformation2": [sig_a, gen.add_values(xi2, sig_b)]}))

    def case(key, cmd, name, order, payload):
        natural = pairs[name]
        options = {"guardrails": dict(GUARDRAILS)}
        if order is not None:
            options["order"] = order

        def make(variant):
            basis = gen.sign_basis(natural, variant, key)
            moved = {
                k: basis.cochain(v) if k == "cochain" else [basis.cochain(t) for t in v]
                for k, v in payload.items()
            }
            return Op(key, cmd, gen.document(basis.pair(natural), "Q", options, **moved), name)

        return key, make

    return [case(*spec) for spec in specs]


WORKLOADS = {
    "fixtures-cli": fixtures_cli,
    "cohomology-ladder": cohomology_ladder,
    "dense-basis": dense_basis,
    "deform-series": deform_series,
}


def _variant_count(workload):
    return 1 if workload == "fixtures-cli" else gen.SIGN_VARIANTS


def variants(workload):
    """Every operation the seed can pick, by "workload/key:vVARIANT"."""
    return {
        f"{workload}/{key}:v{v}": make(v)
        for key, make in WORKLOADS[workload]()
        for v in range(_variant_count(workload))
    }


def build(workload, seed):
    """One pass: [(op, expectation key)], each operation in the sign
    variant the seed picks for it, in an order shuffled by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for key, make in WORKLOADS[workload]():
        v = rng.randrange(_variant_count(workload))
        ops.append((make(v), f"{workload}/{key}:v{v}"))
    rng.shuffle(ops)
    return ops
