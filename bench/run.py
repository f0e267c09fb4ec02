"""End-to-end and per-layer benchmark of mlsysmap's detect -> trace path.

Run from the repository root:

    python3 bench/run.py --workload incident --seed 0 --seconds 40 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each is in
the benchmark): ``incident`` (the ``msm`` CLI on-call flow) and ``wide``
(library load + trace on a generated 12-node system view over a 16-node
subsystem). Inputs are made from ``--seed``. The
program is imported from ``src/`` of the checkout and driven only through
its public entry points; the measured operations run in one process and
one thread.

A run sets up ``SETUP_REPS`` times, each time in a fresh process that
imports the program, generates and writes the inputs and warms up on a
tiny input; ``setup_s`` is the median. The measuring process then warms
up once, untimed, and runs whole passes over the workload's operations
until ``--seconds`` have passed and at least ``MIN_PASSES`` passes are
done: a closed loop with one client.

With ``--trace 0`` it prints the end-to-end metrics: ``ops_per_s`` (median
over passes of ops completed per second of op time), ``op_p50_s`` (median
op latency), ``peak_rss_mb`` (of the measuring process) and ``setup_s``.
With ``--trace 1`` each op of a pass also runs, next to its untraced run,
with per-layer wrappers installed (see ``layers.py``). It prints per-layer
self times and counts of one pass's traced runs (times are medians over
passes; counts must repeat exactly between them) and the tracing
overhead, traced minus untraced op time per pass.

Every run hashes its generated inputs and compares the hash with the one
recorded in ``input_hashes.json`` for its seed; a seed with no recorded
hash is checked through ``REFERENCE_SEED``, generated afresh. Inputs that
differ from the recorded ones mean the generator changed, so the figures
are not comparable with runs on the recorded inputs: the run then says so
on standard error and reports ``"correct": false``.

The last line of standard output is the result JSON; the line before it
records the run: versions, nproc, input hash, failures and counts.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_PREFIX = ".bench_work-"   # inputs and outputs of one run, removed after it
REFERENCE_HASHES = Path(__file__).resolve().parent / "input_hashes.json"
REFERENCE_SEED = 0   # checked when the run's own seed has no recorded hash
SETUP_REPS = 5
MIN_PASSES = 2   # a median over one pass leans on a single slow op
WORKLOAD_NAMES = ("incident", "wide")


def load_program():
    """Import ``mlsysmap`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "mlsysmap" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {SRC / 'mlsysmap'}")
    sys.path.insert(0, str(SRC))
    import mlsysmap
    if not Path(mlsysmap.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported mlsysmap from {mlsysmap.__file__}, not {SRC}")
    return mlsysmap


def run_op(op):
    """(latency, failure reason or None) of one op."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    try:
        return latency, op.check(result)
    except Exception as exc:  # output the oracle cannot read is a miss too
        return latency, f"unreadable output, {type(exc).__name__}: {exc}"


def run_pass(ops, layers=None, flip=0):
    """Every op once, in order: (latencies, traced latencies, failures, recorder).

    With ``layers``, each op also runs with the layer wrappers installed,
    right before or after its untraced run (alternating, starting with
    traced first when ``flip`` is odd), so that drift in machine speed and
    the order of the pair both cancel out of the tracing overhead.
    """
    latencies, traced, failures = [], [], []
    rec = layers.Recorder() if layers else None
    for i, op in enumerate(ops):
        if rec is None:
            order = (False,)
        else:
            order = (True, False) if (i + flip) % 2 else (False, True)
        for with_layers in order:
            if with_layers:
                rec.begin_op()
                inst = layers.Installation(rec).install()
                try:
                    latency, miss = run_op(op)
                finally:
                    inst.uninstall()
                traced.append(latency)
            else:
                latency, miss = run_op(op)
                latencies.append(latency)
            if miss:
                failures.append(f"{op.name}: {miss}")
    return latencies, traced, failures, rec


def _set_up_once(name, seed, size, workdir, traced):
    """One set-up; returns the simulator's self time when ``traced`` and
    the hash of the inputs it wrote."""
    load_program()
    import layers
    import workloads

    rec = layers.Recorder()
    if traced:
        layers.Installation(rec).install()
    workload = workloads.WORKLOADS[name](Path(workdir), seed, size)
    workload.setup()
    return rec.self_s.get("simulator.simulate", 0.0), workload.input_hash()


def _generated_hash(name, seed, size, workdir):
    load_program()
    import workloads

    workload = workloads.WORKLOADS[name](Path(workdir), seed, size)
    workload.generate()
    return workload.input_hash()


CHILD_STEPS = {fn.__name__: fn for fn in (_set_up_once, _generated_hash)}


def in_child(fn, *args):
    """``fn(*args)`` in a fresh interpreter running this file, waited for.

    The child is a plain subprocess, so it starts no helper process of its
    own, and it has ended when this returns, also when this process is
    interrupted (``subprocess.run`` then kills and waits for it). Its
    result is the last line of its standard output, as JSON.
    """
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", fn.__name__,
         json.dumps(args)],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        check=True).stdout
    return json.loads(out.splitlines()[-1])


def set_up(workload, traced):
    """SETUP_REPS set-ups, each in a fresh process so that the measuring
    process's memory and caches are its own (the child also hashes the
    inputs, so this process never reads them); the inputs must come out
    identical each time. A set-up time spans the whole child process."""
    times, hashes, simulate_s = [], [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        simulate, input_hash = in_child(_set_up_once, workload.name, workload.seed,
                                        workload.size, str(workload.workdir), traced)
        times.append(time.perf_counter() - start)
        simulate_s.append(simulate)
        hashes.append(input_hash)
    return times, hashes, simulate_s


def check_inputs(workload, input_hash):
    """(seed checked, whether its inputs hash as recorded). A seed with no
    recorded hash is checked through REFERENCE_SEED, generated in a child
    process so that the measuring process's memory stays its own."""
    table = json.loads(REFERENCE_HASHES.read_text()).get(
        f"{workload.name}/{workload.size}", {})
    seed = workload.seed
    if str(seed) not in table:
        seed = REFERENCE_SEED
        reference_dir = workload.workdir / "reference"
        reference_dir.mkdir()
        input_hash = in_child(_generated_hash, workload.name, seed, workload.size,
                              str(reference_dir))
    return seed, table.get(str(seed)) == input_hash


def measure(workload, seconds, traced, layers=None):
    """Whole passes until ``seconds`` have passed and at least MIN_PASSES
    are done; see the module docstring."""
    ops = workload.ops()
    latencies, failures = [], []
    untraced_s, completed, traced_s, per_pass, recs = [], [], [], [], []
    start = time.perf_counter()
    while True:
        lat, traced_lat, fail, rec = run_pass(ops, layers if traced else None,
                                              flip=len(untraced_s))
        latencies += lat
        failures += fail
        untraced_s.append(sum(lat))
        completed.append(len(lat) - len(fail))
        if traced:
            traced_s.append(sum(traced_lat))
            per_pass.append(layers.layer_metrics(rec))
            recs.append(rec)
        if len(untraced_s) >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break
    return {
        "ops": ops, "latencies": latencies, "failures": failures,
        "untraced_s": untraced_s, "completed": completed, "traced_s": traced_s,
        "per_pass": per_pass, "recs": recs,
    }


def end_to_end(setup_times, m):
    per_pass = [n / t for n, t in zip(m["completed"], m["untraced_s"])]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (statistics.median(per_pass), "1/s"),
        "op_p50_s": (statistics.median(m["latencies"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(m, simulate_s):
    """Median self times over traced passes; counts must agree exactly."""
    passes = m["per_pass"]
    out, unstable = {}, []
    for name, (value, unit) in passes[0].items():
        values = [p[name][0] for p in passes]
        if unit == "s":
            out[name] = (statistics.median(values), unit)
        else:
            out[name] = (value, unit)
            if any(v != value for v in values):
                unstable.append(name)
    out["simulator.simulate.s"] = (statistics.median(simulate_s), "s")
    overhead = [t - u for t, u in zip(m["traced_s"], m["untraced_s"])]
    out["tracing.overhead_s"] = (statistics.median(overhead), "s")
    out["tracing.overhead_share"] = (
        statistics.median(o / u for o, u in zip(overhead, m["untraced_s"])), "share")
    missing = sorted({t for r in m["recs"] for t in r.missing})
    out["tracing.missing_targets"] = (len(missing), "count")
    hook_errors = sorted({e for r in m["recs"] for e in r.hook_errors})
    return out, unstable, missing, hook_errors


def run(name, seed, seconds, traced, size="full"):
    """One benchmark run; returns (record, result) dictionaries."""
    program = load_program()
    import numpy
    import layers
    import workloads

    with tempfile.TemporaryDirectory(prefix=WORK_PREFIX, dir=ROOT) as workdir:
        workload = workloads.WORKLOADS[name](Path(workdir), seed, size)
        setup_times, hashes, simulate_s = set_up(workload, traced)
        workload.warm_up()
        m = measure(workload, seconds, traced, layers)
        checked_seed, inputs_same = check_inputs(workload, hashes[0])

    record = {
        "workload": name, "seed": seed, "size": size, "rows_per_window": workload.n,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mlsysmap": program.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "inputs_sha256": hashes[0], "inputs_checked_seed": checked_seed,
        "inputs": ("same as recorded reference" if inputs_same
                   else "CHANGED from recorded reference"),
        "passes": len(m["untraced_s"]) + len(m["traced_s"]),
        "op_s": {op.name: statistics.median(m["latencies"][i::len(m["ops"])])
                 for i, op in enumerate(m["ops"])},
        "failures": m["failures"],
    }
    errors = []
    if len(set(hashes)) != 1:
        errors.append("set-up produced different inputs on repetition")
    if not inputs_same:
        errors.append(f"inputs of seed {checked_seed} CHANGED from recorded reference "
                      f"in {REFERENCE_HASHES.name}: figures are not comparable with "
                      "runs on the recorded inputs")
    record["errors"] = errors
    if traced:
        metrics, unstable, missing, hook_errors = per_layer(m, simulate_s)
        record.update({
            "missing_targets": missing, "hook_errors": hook_errors,
            "unstable_counts": unstable,
            "counts": {k: v for k, (v, u) in metrics.items() if u == "count"},
        })
        if unstable:
            errors.append(f"per-layer counts differ between traced passes: {unstable}")
    else:
        metrics = end_to_end(setup_times, m)
    attempted = len(m["latencies"]) + len(m["per_pass"]) * len(m["ops"])
    result = {
        "correct": not errors and not m["failures"],
        "attempted": attempted,
        "failed": len(m["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:   # one set-up step, see in_child
        print(json.dumps(CHILD_STEPS[argv[1]](*json.loads(argv[2]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a stop request unwinds normally: a set-up child is killed and waited
    # for, the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["failures"] + record["errors"]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
