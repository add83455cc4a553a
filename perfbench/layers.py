"""Layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each moddef module at the
boundaries between layers and patches every module namespace that holds a
reference to them (``cli`` imports names from ``cochain`` and
``deformation``, ``deformation`` from ``cochain``, ``cochain`` imports
``solve``), so calls are seen whichever module makes them. Each call
records a span (name, start, end, parent). Bookkeeping that is not the
program's work (counting nonzeros, copying kernel inputs) runs on a
paused clock, so it adds to no span.

Spans of one operation are folded into per-name call counts, inclusive
and self times when the operation ends (``take_op``); ``layer_metrics``
turns one pass's worth of them into the per-layer metrics.
"""

import importlib
import time
from collections import defaultdict

# (module, attribute) -> span name; layer_metrics maps span names to the
# per-layer metrics. Names without a metric still show in the span table.
FUNCTIONS = {
    ("documents", "parse_problem"): "documents.parse",
    ("documents", "canonical_json"): "documents.encode",
    ("documents", "encode_vector"): "documents.encode",
    ("documents", "encode_cochain"): "documents.encode",
    ("documents", "encode_deformation"): "documents.encode",
    ("documents", "encode_automorphism"): "documents.encode",
    ("documents", "encode_violation"): "documents.encode",
    ("documents", "encode_cohomology_report"): "documents.encode",
    ("documents", "encode_obstruction_outcome"): "documents.encode",
    ("algebra", "validate_algebra"): "algebra.validate",
    ("algebra", "validate_module"): "algebra.validate",
    ("cochain", "differential_matrix"): "cochain.assemble",
    ("cochain", "differential"): "cochain.differential",
    ("cochain", "is_cocycle"): "cochain.is_cocycle",
    ("cochain", "coboundary_witness"): "cochain.witness",
    ("cochain", "cokernel_certificate"): "cochain.certificate",
    ("cochain", "cohomology"): "cochain.cohomology",
    ("linalg", "solve"): "linalg.solve",
    ("deformation", "check_deformation"): "deformation.check",
    ("deformation", "obstruction"): "deformation.obstruction",
    ("deformation", "obstruction_outcome"): "deformation.obstruction_outcome",
    ("deformation", "extend_once"): "deformation.extend_once",
    ("deformation", "integrate"): "deformation.integrate",
    ("deformation", "conjugate"): "deformation.conjugate",
    ("deformation", "normalize"): "deformation.normalize",
    ("deformation", "equivalent_one_step"): "deformation.equivalent_one_step",
    ("deformation", "rigidity_check"): "deformation.rigidity_check",
    ("cli", "run"): "cli.run",
}
METHODS = {
    "rref": "linalg.rref",
    "kernel_basis": "linalg.kernel_basis",
    "transpose": "linalg.transpose",
}
KERNEL = {"rref_rational": "kernel.eliminate_q", "rref_mod": "kernel.eliminate_fp"}
NAMESPACES = ("cli", "documents", "algebra", "cochain", "deformation", "linalg", "fixtures")


class Tracer:
    def __init__(self, moddef, kernel_module):
        self.moddef = moddef
        self.kernel_module = kernel_module
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.paused = 0.0
        self.counts = defaultdict(int)
        self.assembled = set()  # distinct (module, degree) in this pass
        self.op_assembled = set()  # ... in this operation
        self.capture = None  # list of kernel inputs while capturing
        self.missing = []
        self._restore = []

    def clock(self):
        return time.perf_counter() - self.paused

    def _span(self, name, fn, after=None, before=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if before is not None:
                t0 = time.perf_counter()
                before(args)
                self.paused += time.perf_counter() - t0
            idx = len(spans)
            spans.append([name, self.clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = self.clock()
            if after is not None:
                t0 = time.perf_counter()
                after(args, result)
                self.paused += time.perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- bookkeeping hooks (paused clock) --------------------------------

    def _after_assemble(self, args, mat):
        module, degree = args[0], args[1]
        c = self.counts
        c["cochain.assemble_calls"] += 1
        c["cochain.assemble_cells"] += mat.nrows * mat.ncols
        zero = mat.field.zero
        c["cochain.assemble_nnz"] += sum(mat.ncols - row.count(zero) for row in mat.data)
        key = (
            module.field.name,
            tuple(tuple(tuple(v) for v in row) for row in module.algebra.structure),
            tuple(tuple(tuple(r) for r in m.data) for m in module.action),
            degree,
        )
        self.assembled.add(key)
        self.op_assembled.add(key)

    def _before_rref(self, args):
        self.counts["linalg.rref_calls"] += 1
        if args[0]._rref is not None:
            self.counts["linalg.rref_cached"] += 1

    def _before_kernel(self, args):
        rows, ncols = args[0], args[1]
        self.counts["kernel.calls"] += 1
        self.counts["kernel.cells"] += len(rows) * ncols
        if self.capture is not None:
            p = args[2] if len(args) > 2 else None
            self.capture.append([[r[:] for r in rows], ncols, p, None])

    def _after_kernel(self, args, result):
        self.counts["kernel.rank_sum"] += len(result[1])
        if self.capture is not None:
            self.capture[-1][3] = result[1]

    def _after_extend(self, args, result):
        self.counts["deformation.orders"] += 1

    def _after_certificate(self, args, result):
        self.counts["cochain.certificate_calls"] += 1

    def _after_encode(self, args, text):
        self.counts["documents.bytes_out"] += len(text.encode("utf-8"))

    # -- patching --------------------------------------------------------

    def install(self):
        mods = {n: importlib.import_module(f"{self.moddef.__name__}.{n}") for n in NAMESPACES}
        spaces = list(mods.values()) + [self.moddef]
        after = {
            "differential_matrix": self._after_assemble,
            "cokernel_certificate": self._after_certificate,
            "extend_once": self._after_extend,
            "canonical_json": self._after_encode,
        }
        for (modname, attr), name in FUNCTIONS.items():
            original = vars(mods[modname]).get(attr)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._span(name, original, after.get(attr))
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is original:
                        self._patch(space, key, wrapped)
        matrix = mods["linalg"].Matrix
        targets = [  # (owner, attribute, span name, before hook, after hook)
            (matrix, attr, name, self._before_rref if attr == "rref" else None, None)
            for attr, name in METHODS.items()
        ] + [
            (self.kernel_module, attr, name, self._before_kernel, self._after_kernel)
            for attr, name in KERNEL.items()
        ]
        for owner, attr, name, before, after_hook in targets:
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._patch(owner, attr, self._span(name, original, after_hook, before))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- folding ---------------------------------------------------------

    def take_op(self):
        """Fold the spans of one operation and forget them. Returns
        (per-name [calls, inclusive s, self s], distinct (module, degree)
        pairs assembled, seconds in differentials called outside
        assembly). A span nested inside a span of the same name adds to
        that name's calls and self time but not again to its inclusive
        time."""
        spans = self.spans
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        child = [0.0] * len(spans)
        outside = 0.0
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            s = stats[name]
            s[0] += 1
            s[2] += end - start - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                s[1] += end - start
            if name == "cochain.differential":
                p = parent
                while p >= 0 and spans[p][0] not in ("cochain.assemble", name):
                    p = spans[p][3]
                if p < 0:
                    outside += end - start
        distinct = len(self.op_assembled)
        spans.clear()
        self.op_assembled.clear()
        return dict(stats), distinct, outside

    def take_pass(self):
        """Counts of the pass so far; resets them."""
        counts = dict(self.counts)
        counts["cochain.assemble_distinct"] = len(self.assembled)
        self.counts.clear()
        self.assembled.clear()
        return counts


def merge(total, stats):
    """Add one operation's span stats into a pass's."""
    for name, (calls, incl, self_s) in stats.items():
        t = total.setdefault(name, [0, 0.0, 0.0])
        t[0] += calls
        t[1] += incl
        t[2] += self_s


def layer_metrics(stats, counts):
    """Per-layer metrics of one pass from its merged span stats and counts."""

    def incl(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    m = {
        "documents.parse_s": incl("documents.parse"),
        "documents.encode_s": incl("documents.encode"),
        "algebra.validate_s": incl("algebra.validate"),
        "cochain.assemble_s": incl("cochain.assemble"),
        "cochain.differential_s": counts.get("cochain.differential_outside_s", 0.0),
        "cochain.witness_s": incl("cochain.witness"),
        "cochain.certificate_s": incl("cochain.certificate"),
        "cochain.cohomology_s": incl("cochain.cohomology"),
        "linalg.solve_s": incl("linalg.solve"),
        "linalg.kernel_basis_s": incl("linalg.kernel_basis"),
        "linalg.transpose_s": incl("linalg.transpose"),
        "kernel.eliminate_q_s": incl("kernel.eliminate_q"),
        "kernel.eliminate_fp_s": incl("kernel.eliminate_fp"),
        "deformation.check_s": incl("deformation.check"),
        "deformation.obstruction_s": incl("deformation.obstruction"),
        "deformation.conjugate_s": incl("deformation.conjugate"),
    }
    for key in COUNTS:
        m[key] = counts.get(key, 0)
    a = m["cochain.assemble_calls"]
    m["cochain.assemble_reuse"] = m["cochain.assemble_distinct"] / a if a else 1.0
    return m


COUNTS = (
    "documents.bytes_out", "cochain.assemble_calls", "cochain.assemble_distinct", "cochain.assemble_cells",
    "cochain.assemble_nnz", "cochain.certificate_calls", "linalg.rref_calls",
    "linalg.rref_cached", "kernel.calls", "kernel.cells", "kernel.rank_sum",
    "deformation.orders",
)
