#!/usr/bin/env python3
"""End-to-end benchmark of the TUT-Profile tool flow, with a host-time layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload tutmac_sim --seed 0 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):
``tutmac_sim``, ``corpus_sim``, ``tutmac_sweep`` and ``lint_models``.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of the traced ones, the tracing overhead and the host
time no layer span covers; it also writes the traced spans as
Chrome-trace JSON under ``perfbench/out/``.

Every output is checked against ``perfbench/reference.json``, recorded at
the seed commit with ``--record``.  A mismatch or an exception counts as a
failed operation.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it carries the run's provenance.  All times are host time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from hosttrace import ROOT as UNATTRIBUTED, WORKER_ROOT, HostTracer, Profile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

#: fewest measured operations per run, however short ``--seconds`` is
MIN_OPS = 3
#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 7
#: iterations of the host-speed calibration loop, and its time at the
#: nominal speed (its median on a quiet 2-core Linux host with CPython 3.11)
CAL_ITERATIONS = 24_000
CAL_NOMINAL_S = 0.010


def _import_program() -> None:
    """Put the checkout's ``src`` on the path; exit 2 if ``repro`` is absent."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro was imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------


class Checker:
    """Compares observations with the reference; counts attempts and failures."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def check(self, op) -> None:
        for key, value in op.observations:
            self.attempted += 1
            observed = json.loads(json.dumps(value))
            if self.reference.get(key) != observed:
                self.failed += 1
                if len(self.mismatches) < 5:
                    self.mismatches.append(
                        {"id": key, "expected": self.reference.get(key),
                         "observed": observed}
                    )

    def error(self) -> None:
        traceback.print_exc(file=sys.stderr)
        self.attempted += 1
        self.failed += 1


def _measured_op(workload, checker: Checker, **run_kwargs):
    """Build fresh inputs (untimed), run one operation, check it; None on error."""
    try:
        inputs = workload.build()
        gc.collect()
        op = workload.run(inputs, **run_kwargs)
    except Exception:  # noqa: BLE001 -- a failed operation is counted, not fatal
        checker.error()
        return None
    checker.check(op)
    return op


# ----------------------------------------------------------------------
# end-to-end run (--trace 0)
# ----------------------------------------------------------------------


def _percentile_ms(values, percentile):
    if len(values) == 1:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=100, method="inclusive")[percentile - 1] * 1000.0


def _tail_percentile(count: int) -> int:
    """The highest of p90, p75 and p50 with at least ten samples beyond it."""
    for percentile in (90, 75):
        if count * (100 - percentile) >= 1000:
            return percentile
    return 50


def _calibrate() -> float:
    """Seconds for a fixed pure-Python loop (dict updates, str, len)."""
    started = perf_counter()
    table = {}
    total = 0
    for i in range(CAL_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return perf_counter() - started


def _normalised_op(workload, checker: Checker, on_pause=None):
    """One checked operation: ``(op, units rescaled to nominal speed)`` or None.

    The shared host's speed drifts by tens of percent within seconds, and
    the fixed loop of :func:`_calibrate` drifts with it.  The loop is
    timed in every pause of the operation, so each timed unit lies
    between two calibrations; their mean turns the unit's host seconds
    into seconds at the nominal speed, where the loop takes
    :data:`CAL_NOMINAL_S`.  Units that ran mostly in other processes keep
    their host seconds: this process's loop does not time those cores.
    ``on_pause(index)`` runs first in each pause.
    """
    calibrations = []

    def pause(index):
        if on_pause is not None:
            on_pause(index)
        calibrations.append(_calibrate())

    op = _measured_op(workload, checker, pause=pause)
    if op is None:
        return None
    scaled = [
        unit if i in op.remote_units
        else unit * 2.0 * CAL_NOMINAL_S / (calibrations[i] + calibrations[i + 1])
        for i, unit in enumerate(op.units_s)
    ]
    return op, scaled


def _peak_rss_mb() -> float:
    """Peak resident set of the largest process run so far (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def _setup_probe(args) -> dict:
    """Import plus input build, timed in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--size", args.size],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def end_to_end(args, workload, checker: Checker):
    _measured_op(workload, checker)  # warm-up: checked, not timed
    ops, setup = [], []
    started = perf_counter()
    deadline = started + args.seconds
    while len(ops) < MIN_OPS or perf_counter() < deadline:
        measured = _normalised_op(workload, checker)
        if measured is not None:
            ops.append(measured)
        elif perf_counter() >= deadline:
            break
        # set-up probes are spread over the run, so they sample the same
        # drifting host speed as the operations do
        if (len(setup) < SETUP_REPEATS
                and perf_counter() - started >= len(setup) * args.seconds / SETUP_REPEATS):
            setup.append(_setup_probe(args))
    if not ops:
        return {}, {"ops": 0}
    while len(setup) < SETUP_REPEATS:
        setup.append(_setup_probe(args))
    peak_rss_mb = _peak_rss_mb()
    raw = [op.op_and_items(op.units_s) for op, _ in ops]
    norm = [op.op_and_items(scaled) for op, scaled in ops]
    raw_items = [item for _, items in raw for item in items]
    items = [item for _, items in norm for item in items]
    tail = _tail_percentile(len(items))
    metrics = {
        "setup_s": (statistics.median(probe["setup_s"] for probe in setup), "s"),
        "op_s": (statistics.median(op_s for op_s, _ in norm), "s"),
        "item_p50_ms": (_percentile_ms(items, 50), "ms"),
        "item_tail_ms": (_percentile_ms(items, tail), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    samples = {
        "ops": len(ops),
        "items": len(items),
        "tail_percentile": tail,
        "setups": len(setup),
        "raw_setup_s": statistics.median(probe["raw_setup_s"] for probe in setup),
        "raw_op_s": statistics.median(op_s for op_s, _ in raw),
        "raw_item_p50_ms": _percentile_ms(raw_items, 50),
        "raw_item_tail_ms": _percentile_ms(raw_items, tail),
        "speed_factor_median": statistics.median(
            sum(scaled) / sum(op.units_s) for op, scaled in ops),
        "kernel_backend": ops[-1][0].kernel_backend,
    }
    return metrics, samples


# ----------------------------------------------------------------------
# traced run (--trace 1)
# ----------------------------------------------------------------------

SIM_LAYERS = (
    "uml.actions",
    "simulation.executor",
    "simulation.system",
    "simulation.bus",
    "simulation.kernel",
    "simulation.logfile",
)
ANALYSIS_LAYERS = (
    "analysis.efsm",
    "analysis.dataflow",
    "analysis.values",
    "analysis.sigflow",
    "analysis.mapping",
)

#: per-layer metric -> unit; the order is the report order
LAYER_UNITS = {
    "uml.actions.self_s": "s",
    "uml.actions.calls": "count",
    "simulation.executor.self_s": "s",
    "simulation.executor.steps": "count",
    "simulation.system.self_s": "s",
    "simulation.bus.self_s": "s",
    "simulation.bus.transfers": "count",
    "simulation.kernel.self_s": "s",
    "simulation.kernel.events": "count",
    "simulation.kernel.spilled": "count",
    "simulation.logfile.self_s": "s",
    "simulation.logfile.records": "count",
    "exploration.pruning.self_s": "s",
    "exploration.pruning.kept": "count",
    "exploration.pruning.pruned": "count",
    "exploration.evaluate.busy_s": "s",
    "exploration.evaluate.self_s": "s",
    "exploration.evaluate.candidates": "count",
    "exploration.cache.store_s": "s",
    "exploration.cache.load_s": "s",
    "exploration.cache.hits": "count",
    "exploration.cache.misses": "count",
    "exploration.supervisor.overhead_s": "s",
    "exploration.supervisor.retries": "count",
    "exploration.supervisor.quarantined": "count",
    "analysis.efsm.self_s": "s",
    "analysis.dataflow.self_s": "s",
    "analysis.values.self_s": "s",
    "analysis.sigflow.self_s": "s",
    "analysis.mapping.self_s": "s",
    "analysis.findings": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


def _layer_values(op, main, workers, warm, resubmits):
    """Per-layer numbers of one traced operation.

    ``main`` is this process's profile (the cold campaign for the sweep),
    ``workers`` the campaign workers' summed profile, ``warm`` the warm
    resubmissions' profile (sweep only).
    """
    from workloads import SWEEP_WORKERS

    total = Profile()
    total.add(main)
    total.add(workers)
    values = {f"{layer}.self_s": total.self_s(layer)
              for layer in SIM_LAYERS + ANALYSIS_LAYERS}
    counts = op.counts
    warm_hits = [obs["cache_hits"] for key, obs in op.observations if key.endswith("/warm")]
    cold = [obs for key, obs in op.observations if key.endswith("/cold")]
    busy_s = op.busy_s
    values.update({
        "uml.actions.calls": total.count("uml.actions", "execute", "evaluate"),
        "simulation.executor.steps": total.count(
            "simulation.executor", "start", "consume_signal", "fire_timer"),
        "simulation.bus.transfers": total.count("simulation.bus", "transfer"),
        "simulation.kernel.events": counts.get("kernel.events", 0),
        "simulation.kernel.spilled": counts.get("kernel.spilled", 0),
        "simulation.logfile.records": total.count(
            "simulation.logfile", "exec_step", "signal", "drop", "fault"),
        "exploration.pruning.self_s": main.self_s("exploration.pruning"),
        "exploration.pruning.kept": counts.get("pruning.kept", 0),
        "exploration.pruning.pruned": counts.get("pruning.pruned", 0),
        "exploration.evaluate.busy_s": busy_s,
        "exploration.evaluate.self_s": workers.self_s(WORKER_ROOT),
        "exploration.evaluate.candidates": counts.get("evaluate.candidates", 0),
        "exploration.cache.store_s": main.inclusive_s("exploration.cache", "store"),
        "exploration.cache.load_s": (
            warm.inclusive_s("exploration.cache", "load") / resubmits if resubmits else 0.0),
        "exploration.cache.hits": statistics.median_low(warm_hits) if warm_hits else 0,
        "exploration.cache.misses": cold[0]["kept"] - cold[0]["cache_hits"] if cold else 0,
        "exploration.supervisor.overhead_s": (
            op.op_s
            - main.inclusive_s("exploration.pruning", "prune_candidates")
            - main.inclusive_s("exploration.cache", "load", "store")
            - busy_s / SWEEP_WORKERS
        ) if cold else 0.0,
        "exploration.supervisor.retries": counts.get("supervisor.retries", 0),
        "exploration.supervisor.quarantined": counts.get("supervisor.quarantined", 0),
        "analysis.findings": counts.get("analysis.findings", 0),
    })
    # the timed wall clock minus every layer's self time: glue outside all
    # layers plus the tracer's own bookkeeping (the profile's root is not
    # used, as it also spans the untimed output checks)
    values["trace.unattributed_s"] = op.op_s - sum(
        ns for layer, ns in main.self_ns.items() if layer != UNATTRIBUTED) / 1e9
    return values


def traced(args, workload, checker: Checker):
    worker_dir = os.path.join(OUT, f"workers-{os.getpid()}")
    os.makedirs(worker_dir, exist_ok=True)
    tracer = HostTracer()
    _measured_op(workload, checker)  # warm-up: checked, not timed
    plain, layered = [], []
    deadline = perf_counter() + args.seconds
    try:
        while len(layered) < MIN_OPS or perf_counter() < deadline:
            measured = _normalised_op(workload, checker)
            if measured is not None:
                plain.append(measured[0].op_and_items(measured[1])[0])
            phases = []

            def split_phases(index):
                # the sweep's pause 1 separates the cold campaign from the
                # warm resubmissions
                if index == 1 and workload.name == "tutmac_sweep":
                    phases.append(tracer.take())

            tracer.install(worker_dir)
            try:
                tracer.begin()
                measured = _normalised_op(workload, checker, split_phases)
                phases.append(tracer.take())
            finally:
                tracer.uninstall()
            workers = HostTracer.collect_workers(worker_dir)
            if measured is None:
                if perf_counter() >= deadline:
                    break
                continue
            op, scaled = measured
            main, warm = phases[0], phases[1] if len(phases) > 1 else Profile()
            resubmits = len(op.items_s) if workload.name == "tutmac_sweep" else 0
            values = _layer_values(op, main, workers, warm, resubmits)
            layered.append((op.op_and_items(scaled)[0], values))
    finally:
        os.rmdir(worker_dir)
    if not layered or not plain:
        return {}, {"ops": 0}
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if name == "trace.overhead_frac":
            value = (statistics.median(t for t, _ in layered)
                     / statistics.median(plain) - 1.0)
        elif unit == "count":
            value = statistics.median_low(values[name] for _, values in layered)
        else:
            value = statistics.median(values[name] for _, values in layered)
        metrics[name] = (value, unit)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write_chrome_trace(trace_path, {"workload": args.workload, "seed": args.seed})
    samples = {"ops": len(plain), "traced_ops": len(layered),
               "spans": len(tracer.spans), "spans_dropped": tracer.spans_dropped,
               "chrome_trace": os.path.relpath(trace_path, ROOT)}
    return metrics, samples


# ----------------------------------------------------------------------
# provenance, reference recording, entry point
# ----------------------------------------------------------------------


def _source_digest() -> str:
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _commit():
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except OSError:
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def provenance(args, samples) -> dict:
    from repro.simulation.kernel import select_backend

    backend = samples.pop("kernel_backend", None)
    if backend is None:
        # the backend the environment selects: campaign workers use it
        backend = select_backend()(max_events=1).queue_stats()["backend"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "kernel_backend": backend,
        "samples": samples,
        "clock": "host wall time (perf_counter)",
        "normalisation": (
            f"timed units x {CAL_NOMINAL_S} s / calibration loop time, except "
            "the sweep's cold campaign; raw_* values are unscaled"),
    }


def record_reference() -> None:
    """Run every workload once at every size and write ``reference.json``."""
    from workloads import SIZES, WORKLOADS, make_workload

    reference = {}
    for size in SIZES:
        for name in WORKLOADS:
            workload = make_workload(name, size, 0, OUT)
            op = workload.run(workload.build())
            for key, value in op.observations:
                value = json.loads(json.dumps(value))
                if reference.setdefault(key, value) != value:
                    raise SystemExit(f"perfbench: {key} is not reproducible")
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(reference)} reference entries to {REFERENCE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("tutmac_sim", "corpus_sim", "tutmac_sweep", "lint_models"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small inputs")
    parser.add_argument("--reference", default=REFERENCE,
                        help="reference digests to check against")
    parser.add_argument("--record", action="store_true",
                        help="re-record reference.json from this checkout")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    if args.setup_probe:
        before = _calibrate()
        started = perf_counter()
        _import_program()
        from workloads import make_workload

        make_workload(args.workload, args.size, args.seed, OUT).build()
        elapsed = perf_counter() - started
        factor = 2.0 * CAL_NOMINAL_S / (before + _calibrate())
        print(json.dumps({"setup_s": elapsed * factor, "raw_setup_s": elapsed}))
        return 0

    _import_program()
    from workloads import make_workload

    os.makedirs(OUT, exist_ok=True)
    if args.record:
        record_reference()
        return 0
    workload = make_workload(args.workload, args.size, args.seed, OUT)

    with open(args.reference, encoding="utf-8") as handle:
        checker = Checker(json.load(handle))
    measure = traced if args.trace else end_to_end
    metrics, samples = measure(args, workload, checker)
    if not metrics:
        checker.attempted = max(checker.attempted, 1)
        checker.failed = max(checker.failed, 1)
    info = provenance(args, samples)
    info["mismatches"] = checker.mismatches
    result = {
        "correct": checker.failed == 0 and bool(metrics),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"provenance": info, "result": result}, handle, indent=1)
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
