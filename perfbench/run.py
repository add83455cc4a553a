#!/usr/bin/env python3
"""moddef benchmark: four seeded workloads, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without --workload it runs all four, each in its own process, and prints
every metric of each.

Workloads (see workloads.py): fixtures-cli, cohomology-ladder, dense-basis,
deform-series. The load is closed loop: one client in this process runs one
operation at a time, each operation parsing its document afresh as one CLI
call does. The run repeats whole passes over the workload's operations
until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics: ops_per_s, op_p50_ms and
op_p90_ms (all three from each operation's median time over the passes:
operations per second of summed medians, and percentiles over the pass's
operations), cli_cold_ms (median wall time of ``python -m moddef`` calls
in fresh processes), setup_s (median over fresh processes of the time from
process start to the first timed operation: imports, input generation and
warm-up) and peak_rss_mib of this process. The cold calls and set-up
processes run one at a time between operations, spread over the run.

Host speed. On a shared host the same run can take 20-30% longer from one
minute to the next. A small fixed exact elimination that does not touch
moddef (REFERENCE_ROWS) is timed every REFERENCE_EVERY_S between
operations, and every reported time is scaled to a host on which it takes
REFERENCE_MS (see host_scale). The factor and the unscaled metrics are
printed in the ``meta`` line.

``--trace 1`` runs untraced passes, then the same passes with every layer
wrapped (layers.py), and prints the per-layer metrics of one pass, the
tracing overhead, and the time to replay the captured elimination-kernel
inputs through the pure-Python kernel and the compiled one (built from
``src/moddef/_kernel.c`` into ``.bench_build`` when a C compiler is found).

Every output is checked: exit code and sha256 of the result bytes against
expected.json (recorded at the commit that added the benchmark), plus
checks written here: every reported cohomology dimension against the
pair's known value (so Q and F_p, natural and dense bases must agree), the
order an integration reached, and the deformation relations of every
deformation a result carries. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

``--record`` rewrites expected.json from the current program.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_SAMPLES = 5
COLD_SAMPLES = 20  # cold calls on workloads other than fixtures-cli
HASH_SEED = "0"
# Host speed: REFERENCE_ROWS are eliminated (by gen.rref, never by moddef)
# every REFERENCE_EVERY_S between operations. Reported times are scaled by
# REFERENCE_MS / (the run's median reference time), i.e. to a host on which
# the reference takes REFERENCE_MS, about its median on a 2-vCPU 2.1 GHz
# Xeon virtual machine with Python 3.11.
REFERENCE_ROWS = [[Fraction((i * 7 + j * 13) % 19 - 9, 1 + (i + j) % 4) for j in range(12)] for i in range(10)]
REFERENCE_EVERY_S = 0.25
REFERENCE_MS = 4.0
MIN_PASSES = 3  # so that every operation's median time has three samples

sys.path.insert(0, HERE)

import gen  # noqa: E402
import workloads  # noqa: E402


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# set-up


def import_moddef():
    """Import moddef from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "moddef", "__init__.py")):
        sys.exit(f"error: no moddef sources under {SRC}")
    sys.path.insert(0, SRC)
    import moddef
    from moddef import cli, documents

    if os.path.dirname(os.path.dirname(os.path.abspath(moddef.__file__))) != SRC:
        sys.exit(f"error: moddef imported from {moddef.__file__}, not from {SRC}")
    return moddef, cli, documents


class Runner:
    """Runs operations through the public entry points."""

    def __init__(self, workload, seed):
        self.moddef, self.cli, self.documents = import_moddef()
        from moddef.errors import InputError, ResourceError

        self.errors = (InputError, ResourceError)
        self.workload = workload
        self.ops = workloads.build(workload, seed)
        self.reference = []  # reference_s() samples
        self.next_reference = 0.0
        self.io = os.path.join(BUILD, "io", workload)
        if workload == "fixtures-cli":
            os.makedirs(self.io, exist_ok=True)
            self.paths = {}
            for op, key in self.ops:
                path = os.path.join(self.io, op.key.split(".")[0] + ".json")
                if path not in self.paths.values():
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(op.text)
                self.paths[key] = path
            self.out = os.path.join(self.io, "out.json")

    def argv(self, op, key):
        if self.workload == "fixtures-cli":
            return [op.command, self.paths[key], "--output", self.out]
        return None

    def run(self, op, key):
        """(exit code, result bytes, seconds). Set-up of the output path
        lies outside the timed region."""
        if self.workload == "fixtures-cli":
            if os.path.exists(self.out):
                os.remove(self.out)
            t0 = time.perf_counter()
            code = self.cli.main(self.argv(op, key))
            dt = time.perf_counter() - t0
            data = b""
            if os.path.exists(self.out):
                with open(self.out, "rb") as fh:
                    data = fh.read()
            return code, data, dt
        t0 = time.perf_counter()
        try:
            result, code = self.cli.run(op.command, self.documents.parse_problem(op.text))
            data = self.documents.canonical_json(result).encode("utf-8")
        except self.errors:
            code, data = 2, b""
        return code, data, time.perf_counter() - t0

    def warm_up(self):
        """Each of the workload's commands once on the smallest fixture."""
        with open(os.path.join(HERE, "fixtures.json"), encoding="utf-8") as fh:
            text = json.dumps(json.load(fh)["C"])
        problem = self.documents.parse_problem
        for cmd in sorted({op.command for op, _ in self.ops}):
            try:
                self.documents.canonical_json(self.cli.run(cmd, problem(text))[0])
            except self.errors:
                pass


def setup(workload, seed):
    runner = Runner(workload, seed)
    runner.warm_up()
    # Long-lived set-up objects leave the collector's view, so the
    # collection before each operation (see passes) stays cheap.
    gc.collect()
    gc.freeze()
    return runner


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Exit codes and bytes against expected.json, and checks of our own."""

    def __init__(self, record=False):
        self.expected = {}
        if not record:
            with open(EXPECTED, encoding="utf-8") as fh:
                self.expected = json.load(fh)
        self.seen = {}  # (key, sha) -> problem or None

    def check(self, op, key, code, data):
        """None when the output is right, else a one-line reason."""
        sha = gen.sha256(data)
        want = self.expected.get(key)
        if want is None:
            return f"{key}: no recorded expectation"
        if [code, sha] != want:
            return f"{key}: exit {code} sha {sha[:12]}, expected exit {want[0]} sha {want[1][:12]}"
        if (key, sha) not in self.seen:
            self.seen[(key, sha)] = self.own_checks(op, code, data)
        return self.seen[(key, sha)]

    def own_checks(self, op, code, data):
        if not data:
            return None
        result = json.loads(data)
        doc = json.loads(op.text)
        if "dims" in result and op.pair is not None:
            for name, value in result["dims"].items():
                want = gen.DIMS[op.pair][int(name[1:])]
                if value != want:
                    return f"{op.key}: {name} = {value}, expected {want}"
        if op.command == "integrate" and code == 0:
            if result.get("order") != doc["options"]["order"]:
                return f"{op.key}: integrated to order {result.get('order')}"
        if result.get("deformation") is not None:
            pair = gen.decode_pair(doc)
            terms = gen.decode_deformation(
                result["deformation"], doc["field"], len(pair[1]), len(pair[2][0])
            )
            if not gen.multiplicative(pair, terms, doc["field"]):
                return f"{op.key}: result deformation is not multiplicative"
        return None


# ---------------------------------------------------------------------------
# timed passes


def passes(runner, seconds, on_op=None, min_passes=1):
    """Whole passes until `seconds` have elapsed and at least min_passes
    passes ran. Returns (samples [(op, key, code, data, dt)], pass
    durations)."""
    samples, durations = [], []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for op, key in runner.ops:
            # Each operation starts with the cyclic collector's counters at
            # zero, as in a fresh CLI call. Otherwise a pass allocates the
            # same amount every time and the collections land on whichever
            # operations the seed's order puts at those points.
            gc.collect()
            try:
                code, data, dt = runner.run(op, key)
            except Exception:  # an unexpected exception is a failed operation
                code, data, dt = "exception", traceback.format_exc().encode(), 0.0
            samples.append((op, key, code, data, dt))
            if on_op is not None:
                on_op(op, key)
            if time.perf_counter() >= runner.next_reference:
                runner.reference.append(reference_s())
                runner.next_reference = time.perf_counter() + REFERENCE_EVERY_S
        durations.append(time.perf_counter() - t_pass)
        if time.perf_counter() - t_start >= seconds and len(durations) >= min_passes:
            return samples, durations


def reference_s():
    """Seconds to eliminate REFERENCE_ROWS, with the cyclic collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        gen.rref(REFERENCE_ROWS, len(REFERENCE_ROWS[0]))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def host_scale(runner, metrics):
    """Times at the reference host speed, and the factor applied: every
    metric in seconds or milliseconds is divided by it, ops_per_s is
    multiplied; counts, ratios and memory are left as they are."""
    factor = statistics.median(runner.reference) * 1e3 / REFERENCE_MS
    scaled = {}
    for name, value in metrics.items():
        if name == "ops_per_s":
            value = value * factor
        elif name.endswith(("_s", "_ms")):
            value = value / factor
        scaled[name] = value
    return scaled, factor


def verify(checker, samples):
    failures = []
    for op, key, code, data, _ in samples:
        if code == "exception":
            failures.append(f"{key}: exception\n{data.decode()}")
            continue
        why = checker.check(op, key, code, data)
        if why is not None:
            failures.append(why)
    return failures


class SideSamples:
    """Cold CLI calls and set-up processes, spread evenly through the timed
    window between operations, so that they meet the same host conditions
    as the operations rather than a burst at the end of the run.

    Cold calls: each operation of fixtures-cli once, or `validate` on one
    document of each of the workload's pairs, COLD_SAMPLES in all, as
    `python -m moddef` in a fresh process. Set-up: SETUP_SAMPLES fresh
    processes doing this run's set-up (--setup-only), timed from start to
    exit."""

    def __init__(self, runner, checker, args):
        self.runner, self.checker, self.args = runner, checker, args
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.pop("MODDEF_PURE", None)
        self.out = os.path.join(BUILD, "io", "cold.json")
        os.makedirs(os.path.dirname(self.out), exist_ok=True)
        if runner.workload == "fixtures-cli":
            cold = [(op, key, runner.argv(op, key)[:2]) for op, key in runner.ops]
        else:
            firsts = {}  # one document per pair, the same pairs on every seed
            for op, _ in sorted(runner.ops, key=lambda ok: ok[1]):
                if op.pair not in firsts:
                    path = os.path.join(BUILD, "io", f"cold-{op.pair}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(op.text)
                    firsts[op.pair] = (op, None, ["validate", path])
            firsts = list(firsts.values())
            cold = [firsts[i % len(firsts)] for i in range(COLD_SAMPLES)]
        self.jobs = [lambda c=c: self.cold_call(*c) for c in cold]
        for i in range(SETUP_SAMPLES):
            self.jobs.insert(i * len(self.jobs) // SETUP_SAMPLES, self.setup_process)
        self.interval = args.seconds / len(self.jobs)
        self.next_due = time.perf_counter()
        self.cold, self.setup, self.failures = [], [], []

    def maybe(self, *_):
        """Run the next job when it is due."""
        if self.jobs and time.perf_counter() >= self.next_due:
            self.jobs.pop(0)()
            self.next_due += self.interval

    def finish(self):
        while self.jobs:
            self.jobs.pop(0)()

    def setup_process(self):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", self.args.workload,
             "--seed", str(self.args.seed), "--setup-only"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        self.setup.append(time.perf_counter() - t0)

    def cold_call(self, op, key, argv):
        if os.path.exists(self.out):
            os.remove(self.out)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "moddef", *argv, "--output", self.out],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.cold.append(time.perf_counter() - t0)
        data = b""
        if os.path.exists(self.out):
            with open(self.out, "rb") as fh:
                data = fh.read()
        if key is not None:
            why = self.checker.check(op, key, proc.returncode, data)
        else:
            runner = self.runner
            want = runner.cli.run("validate", runner.documents.parse_problem(op.text))[0]
            expect = runner.documents.canonical_json(want).encode("utf-8")
            why = None if (proc.returncode, data) == (0, expect) else f"cold validate {op.key}: wrong result"
        if why is not None:
            self.failures.append(why)


def op_medians(samples):
    """Each operation's median time over the passes."""
    times = {}
    for _, key, _, _, dt in samples:
        times.setdefault(key, []).append(dt)
    return [statistics.median(v) for v in times.values()]


# ---------------------------------------------------------------------------
# run metadata


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(args, runner, extra=None):
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_backend": runner.moddef.kernel_backend,
        "ops_per_pass": len(runner.ops),
    }
    meta.update(extra or {})
    return meta


def emit(meta, failures, attempted, metrics, units):
    for why in failures[:20]:
        log(f"FAIL {why}")
    if len(failures) > 20:
        log(f"FAIL ... {len(failures) - 20} more")
    log("meta " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        log(f"  {name:28s} {value:14.6g} {units[name]}")
    log(f"  {'fail_ratio':28s} {len(failures) / attempted:14.6g} (failed / attempted)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)


# ---------------------------------------------------------------------------
# end-to-end run


def end_to_end(args):
    runner = setup(args.workload, args.seed)
    checker = Checker()
    side = SideSamples(runner, checker, args)
    samples, durations = passes(runner, args.seconds, side.maybe, MIN_PASSES)
    side.finish()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = verify(checker, samples) + side.failures

    # Every pass runs the same operations, so statistics over the per-op
    # medians are fixed blends of particular operations' times. Over raw
    # samples a percentile that falls between two operations jumps between
    # them as the pass count or the noise changes, and a mean follows every
    # stray slow sample.
    medians = op_medians(samples)
    metrics = {
        "setup_s": statistics.median(side.setup),
        "ops_per_s": len(medians) / sum(medians),
        "op_p50_ms": statistics.median(medians) * 1e3,
        "op_p90_ms": statistics.quantiles(medians, n=10, method="inclusive")[8] * 1e3,
        "cli_cold_ms": statistics.median(side.cold) * 1e3,
        "peak_rss_mib": peak_rss_mib,
    }
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "cli_cold_ms": "ms", "peak_rss_mib": "MiB"}
    raw, (metrics, factor) = metrics, host_scale(runner, metrics)
    meta = metadata(args, runner, {
        "host_factor": factor,
        "raw_metrics": raw,
        "op_samples": len(samples),
        "passes": len(durations),
        "cold_samples": len(side.cold),
        "setup_samples_s": [round(t, 4) for t in side.setup],
    })
    emit(meta, failures, len(samples) + len(side.cold), metrics, units)


# ---------------------------------------------------------------------------
# traced run

PER_LAYER_UNITS = {
    "cochain.assemble_reuse": "ratio",
    "trace.overhead_ratio": "ratio",
}

# Layers each workload must exercise: metric -> workloads where it must be > 0.
MUST_EXERCISE = {
    "documents.parse_s": "all",
    "documents.encode_s": "all",
    "algebra.validate_s": "all",
    "cochain.assemble_calls": "all",
    "linalg.rref_calls": "all",
    "kernel.calls": "all",
    "cochain.cohomology_s": ("fixtures-cli", "cohomology-ladder", "dense-basis"),
    "linalg.kernel_basis_s": ("fixtures-cli", "cohomology-ladder", "dense-basis"),
    "cochain.witness_s": ("fixtures-cli", "deform-series"),
    "cochain.certificate_calls": ("fixtures-cli", "deform-series"),
    "linalg.solve_s": ("fixtures-cli", "deform-series"),
    "deformation.check_s": ("fixtures-cli", "deform-series"),
    "deformation.obstruction_s": ("fixtures-cli", "deform-series"),
    "deformation.conjugate_s": ("fixtures-cli", "deform-series"),
    "deformation.orders": ("fixtures-cli", "deform-series"),
    "cochain.differential_s": ("fixtures-cli",),
}


def load_compiled_kernel():
    """The compiled kernel: moddef._kernel_c when it imports, else built
    from the tracked C source into .bench_build. None when neither works."""
    try:
        from moddef import _kernel_c

        return _kernel_c, "moddef._kernel_c"
    except ImportError:
        pass
    import importlib.util
    import sysconfig

    source = os.path.join(SRC, "moddef", "_kernel.c")
    if not os.path.exists(source):
        return None, "no src/moddef/_kernel.c"
    target = os.path.join(BUILD, "kernel", "_kernel_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not os.path.exists(target) or os.path.getmtime(target) < os.path.getmtime(source):
        os.makedirs(os.path.dirname(target), exist_ok=True)
        tmp = target + ".tmp"
        cc = os.environ.get("CC", "cc")
        cmd = [cc, "-O2", "-shared", "-fPIC", "-I", sysconfig.get_paths()["include"], source, "-o", tmp]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        except (OSError, subprocess.TimeoutExpired) as exc:
            return None, f"cannot run the C compiler: {exc}"
        if proc.returncode != 0:
            return None, "C build failed: " + (proc.stderr.strip().splitlines() or [""])[-1]
        os.replace(tmp, target)
    spec = importlib.util.spec_from_file_location("moddef._kernel_c", target)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as exc:
        return None, f"cannot load the built kernel: {exc}"
    return module, os.path.relpath(target, ROOT)


def replay(capture, kernel):
    """Seconds to re-eliminate every captured input with kernel, and the
    results."""
    total, results = 0.0, []
    for rows, ncols, p, _ in capture:
        fresh = [r[:] for r in rows]
        t0 = time.perf_counter()
        out = kernel.rref_rational(fresh, ncols) if p is None else kernel.rref_mod(fresh, ncols, p)
        total += time.perf_counter() - t0
        results.append(out)
    return total, results


def traced(args):
    from layers import COUNTS, Tracer, layer_metrics, merge

    runner = setup(args.workload, args.seed)
    checker = Checker()
    from moddef import _backend, _kernel_py

    compiled, compiled_from = load_compiled_kernel()

    half = args.seconds / 2
    plain, plain_durations = passes(runner, half)
    plain_bytes = {key: data for _, key, _, data, _ in plain}

    tracer = Tracer(runner.moddef, _backend.kernel)
    captured = tracer.capture = []
    per_pass, op_stats, pass_stats = [], {}, {}

    def on_op(op, key):
        stats, distinct, outside = tracer.take_op()
        merge(pass_stats, stats)
        tracer.counts["cochain.differential_outside_s"] += outside
        if not per_pass:
            op_stats[op.key] = (stats, distinct)

    traced_samples, traced_durations = [], []
    tracer.install()
    try:
        t_start = time.perf_counter()
        while not per_pass or time.perf_counter() - t_start < half:
            samples, durations = passes(runner, 0, on_op)
            traced_samples += samples
            traced_durations += durations
            per_pass.append((dict(pass_stats), tracer.take_pass()))
            pass_stats.clear()
            tracer.capture = None
    finally:
        tracer.uninstall()

    failures = [f"layer function not found: {name}" for name in tracer.missing]
    failures += verify(checker, plain + traced_samples)
    for _, key, _, data, _ in traced_samples:
        if data != plain_bytes[key]:
            failures.append(f"self-test: {key}: traced output bytes differ from untraced")

    layers = [layer_metrics(stats, counts) for stats, counts in per_pass]
    for m in layers[1:]:
        for key in COUNTS:
            if m[key] != layers[0][key]:
                failures.append(f"self-test: {key} differs between traced passes: {m[key]} vs {layers[0][key]}")
    # counts repeat exactly between passes (checked above); times vary
    metrics = {
        k: layers[0][k] if k in COUNTS else statistics.median(m[k] for m in layers)
        for k in layers[0]
    }
    for name, where in MUST_EXERCISE.items():
        if (where == "all" or args.workload in where) and not metrics[name] > 0:
            failures.append(f"self-test: {name} recorded no work on {args.workload}")
    # the first traced pass also copies every kernel input for the replay
    steady = traced_durations[1:] or traced_durations
    metrics["trace.overhead_ratio"] = statistics.median(steady) / statistics.median(plain_durations)

    py_s, py_out = replay(captured, _kernel_py)
    for (*_, pivots), (_, got) in zip(captured, py_out):
        if got != pivots:
            failures.append("kernel replay: pure-Python pivots differ from the traced run")
            break
    metrics["kernel.replay_python_s"] = py_s
    if compiled is not None:
        c_s, c_out = replay(captured, compiled)
        if c_out != py_out:
            failures.append("kernel replay: compiled and pure-Python kernels disagree")
        metrics["kernel.replay_compiled_s"] = c_s
    else:
        metrics["kernel.replay_compiled_s"] = 0.0

    show_spans(per_pass[0][0], op_stats)
    units = {k: PER_LAYER_UNITS.get(k, "s" if k.endswith("_s") else "count") for k in metrics}
    raw, (metrics, factor) = metrics, host_scale(runner, metrics)
    meta = metadata(args, runner, {
        "host_factor": factor,
        "raw_metrics": raw,
        "kernel_replay_compiled": compiled_from,
        "untraced_pass_s": [round(t, 4) for t in plain_durations],
        "traced_pass_s": [round(t, 4) for t in traced_durations],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "assemble_cells_per_pass": metrics["cochain.assemble_cells"],
    })
    emit(meta, failures, len(plain) + len(traced_samples), metrics, units)


def show_spans(stats, op_stats):
    """Self time and calls per span over the first traced pass (seconds as
    measured, not scaled), and the assembly counts of each operation."""
    log(f"spans of one traced pass: {'calls':>8s} {'inclusive_s':>12s} {'self_s':>10s}")
    for name, (calls, incl, self_s) in sorted(stats.items(), key=lambda kv: -kv[1][2]):
        log(f"  {name:36s} {calls:8d} {incl:12.4f} {self_s:10.4f}")
    log(f"per operation: {'assemble_calls':>14s} {'assemble_distinct':>17s}")
    for key in sorted(op_stats):
        stats, distinct = op_stats[key]
        calls = stats.get("cochain.assemble", (0,))[0]
        log(f"  {key:36s} {calls:14d} {distinct:17d}")


# ---------------------------------------------------------------------------
# recording expectations


def record(args):
    """Run every operation any seed can pick and write exit codes and
    result hashes; our own checks must pass on each."""
    expected = {}
    checker = Checker(record=True)
    for workload in workloads.WORKLOADS:
        runner = Runner(workload, 0)
        for key, op in workloads.variants(workload).items():
            code, data, dt = runner.run(op, key)
            expected[key] = [code, gen.sha256(data)]
            checker.expected[key] = expected[key]
            why = checker.check(op, key, code, data)
            log(f"{key:48s} exit {code} {dt * 1e3:9.1f} ms {why or ''}")
            if why is not None:
                sys.exit(f"error: {why}")
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")


def run_all(args):
    """Each workload in its own process; a table of every metric."""
    ok = True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        log(f"{workload}: correct {result['correct']}, {result['failed']} of {result['attempted']} failed")
        for name, m in result["metrics"].items():
            log(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one workload (default: each in turn, in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = parser.parse_args()
    if args.record:
        return record(args)
    if args.workload is None:
        return run_all(args)
    if args.setup_only:
        setup(args.workload, args.seed)
        return None
    if args.trace:
        return traced(args)
    return end_to_end(args)


if __name__ == "__main__":
    # String hashing is salted per process unless PYTHONHASHSEED is set, and
    # the salt moves dict and set layouts enough to shift a run's timings
    # (cold CLI calls most) by several percent. Every run, and every process
    # it starts, uses the same salt.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    main()
