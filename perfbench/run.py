"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cell-long --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up is
repeated and timed, then rounds of the workload run until ``--seconds``
have passed, and every timing is the median over those repeats.
``--trace 1`` instead times one round untraced and one with the per-layer
shims installed, and reports the per-layer metrics plus the tracing
overhead.  Either way the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The spans
and per-operation counters of a traced run are written to
``.perfbench/traces/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from cases import WORKLOADS, stop_pools
from checks import (
    DEFAULT_SEED,
    REFERENCE_PATH,
    code_digest,
    load_reference,
    mismatches,
    repeat_mismatches,
)
from layers import DETERMINISTIC, CellMeter, Tracer, instrument, layer_metrics
from yardstick import REFERENCE_S, Yardstick, at_reference_speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space of the runs: temporary traces and stores, the trace
#: files of traced runs, and the records that later runs must reproduce.
WORKDIR = os.path.join(ROOT, ".perfbench")
#: Declares the workloads and the metrics a run reports, with their units.
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Set-up repeats per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Yardstick runs next to each import probe.
PROBE_KERNEL_RUNS = 3


#: The program's entry points, imported by every workload.
ENTRY_MODULES = (
    "repro.api",
    "repro.cpu.tracefile",
    "repro.experiments",
    "repro.registry",
    "repro.sim",
    "repro.workloads",
)

_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds(yardstick: Yardstick) -> float:
    """Median time a fresh interpreter takes to import the entry points.

    The profiling timer does not follow the probe into its interpreter,
    so the yardstick is run here next to each probe to gauge the host.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        for _ in range(PROBE_KERNEL_RUNS):
            yardstick.run()
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, SRC, *ENTRY_MODULES],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def metric_units(section: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of any waited-for child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def grade(rounds, reference, extra_failures):
    """Count operations and failures over every round.

    An operation fails when its round reported a failure, the workload's
    own check rejected it, or its digest differs from the reference (or,
    at a seed without one, from the first round's).
    """
    expected = reference if reference is not None else rounds[0].digests
    attempted, failed, reasons = 0, 0, []
    for index, rnd in enumerate(rounds, 1):
        ops = sorted(set(expected) | set(rnd.digests) | set(rnd.failures))
        differing = set(mismatches(expected, rnd.digests))
        for op in ops:
            why = rnd.failures.get(op) or extra_failures.get(op)
            if why is None and op in differing:
                why = "digest differs from " + (
                    "the reference" if reference is not None else "round 1"
                )
            attempted += 1
            if why is not None:
                failed += 1
                reasons.append(f"round {index} {op}: {why}")
    if len({rnd.simulations for rnd in rounds}) > 1:
        per_round = [rnd.simulations for rnd in rounds]
        reasons.append(f"simulations differ between rounds: {per_round}")
    return attempted, failed, reasons


def _join(values, form: str = "{:.3f}") -> str:
    return " ".join(form.format(value) for value in values)


def measure(workload, seconds: float, scratch: str):
    """The untraced run: end-to-end metrics at the reference host speed."""
    yardstick = Yardstick()
    with yardstick, CellMeter(os.path.join(scratch, "cells.log"), yardstick) as meter:
        kernel_s, kernel_runs = yardstick.spent, yardstick.runs
        import_s = import_seconds(yardstick)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        kernel_s, kernel_runs = yardstick.spent - kernel_s, yardstick.runs - kernel_runs
        setup_s = import_s + statistics.median(setups)
        rounds, rates, walls, host_rates, kernel_ms = [], [], [], [], []
        start, elapsed = time.perf_counter(), 0.0
        # Start another round only if one more of average length still
        # ends within ``seconds``, so a run never overshoots by a round.
        while not rounds or elapsed * (len(rounds) + 1) <= seconds * len(rounds):
            before = meter.read()
            rounds.append(workload.round())
            deltas = [b - a for a, b in zip(before, meter.read())]
            accesses, cpu, _, round_kernel_s, round_kernel_runs = deltas
            # The kernel runs that landed inside simulate() are taken out
            # of its CPU time, and they gauge the host speed of the round.
            busy = cpu - round_kernel_s
            speed = (round_kernel_s, round_kernel_runs)
            rates.append(accesses / at_reference_speed(busy, *speed))
            walls.append(at_reference_speed(rounds[-1].wall_s, *speed))
            host_rates.append(accesses / busy)
            kernel_ms.append(1e3 * round_kernel_s / max(round_kernel_runs, 1))
            elapsed = time.perf_counter() - start
        stop_pools()
    metrics = {
        "accesses_per_s": statistics.median(rates),
        "wall_s": statistics.median(walls),
        "simulations": rounds[0].simulations,
        "setup_s": at_reference_speed(setup_s, kernel_s, kernel_runs),
        "peak_rss_mb": _peak_rss_mb(),
    }
    counts = {"simulations": rounds[0].simulations}
    reference_ms = 1e3 * REFERENCE_S
    notes = [
        f"{len(rounds)} rounds, {SETUP_REPEATS} set-ups; timings are medians, "
        f"scaled to a host on which one yardstick run takes {reference_ms:.2f} ms",
        "round yardstick (ms per run): " + _join(kernel_ms),
        "round walls at host speed (s): " + _join(r.wall_s for r in rounds),
        "round accesses/CPU s at host speed: " + _join(host_rates, "{:.0f}"),
        f"set-up at host speed: {setup_s:.3f} s, {kernel_runs} yardstick runs",
    ]
    if len(rounds) == 1:
        notes.append(
            "one round fitted: timings are single samples, and only the "
            "reference (seed 1) or an earlier run of this code at this seed "
            "checks its digests"
        )
    return metrics, rounds, counts, notes


def trace(workload, seed: int):
    """The traced run: per-layer metrics from one traced round."""
    tracer = Tracer()
    tracer.scope = "setup"
    with instrument(tracer), tracer.operation("setup"):
        workload.setup()
    untraced = workload.round()
    tracer.scope = "run"
    with instrument(tracer):
        traced = workload.round(tracer)
    metrics = layer_metrics(*tracer.totals(("setup", "run")))
    metrics["store.warm_s"] = traced.warm_s
    metrics["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    notes = [
        "one untraced and one traced round; overhead = traced / untraced wall",
    ]
    if workload.name == "suite-fast":
        notes.append(
            "suite-fast is traced at jobs=1: spans recorded in forked pool "
            "workers would be lost"
        )
    path = os.path.join(WORKDIR, "traces", f"{workload.name}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        document = {"workload": workload.name, "seed": seed, "notes": notes}
        json.dump({**document, **tracer.dump()}, fh)
    relative = os.path.relpath(path, ROOT)
    notes.append(f"spans and per-operation counters written to {relative}")
    counts = {name: metrics[name] for name in DETERMINISTIC}
    return metrics, [untraced, traced], counts, notes


def run(args) -> dict:
    os.makedirs(WORKDIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    # Pool workers and the suite's trace spools inherit this, so every
    # temporary file stays inside the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = scratch
    for name in ENTRY_MODULES:
        importlib.import_module(name)
    workload = WORKLOADS[args.workload](args.seed, scratch, traced=bool(args.trace))
    try:
        if args.trace:
            metrics, rounds, counts, notes = trace(workload, args.seed)
        else:
            metrics, rounds, counts, notes = measure(workload, args.seconds, scratch)
        extra_failures = workload.check(rounds[0].digests)
    finally:
        workload.close()
        stop_pools()
        shutil.rmtree(scratch, ignore_errors=True)

    reference = None
    if not args.write_reference:
        reference = load_reference(args.workload, args.seed)
    attempted, failed, reasons = grade(rounds, reference, extra_failures)
    # Counts and digests must repeat exactly across runs of the same code
    # at one seed; the record's name carries the digest of that code.
    kind = "trace" if args.trace else "timed"
    code = code_digest([os.path.join(SRC, "repro"), HERE])
    repeat_path = os.path.join(
        WORKDIR, "repeats", f"{args.workload}-seed{args.seed}-{kind}-{code}.json"
    )
    record = dict(counts)
    record.update({f"digest {op}": d for op, d in rounds[0].digests.items()})
    for name in repeat_mismatches(repeat_path, record):
        reasons.append(f"{name} differs from an earlier run of this code and seed")
    if reference is None:
        for op, digest in sorted(rounds[0].digests.items()):
            notes.append(f"digest {args.workload} {op} {digest}")
    if args.trace:
        units = metric_units("per_layer")
    else:
        units = metric_units("end_to_end")
        metrics["success_ratio"] = (attempted - failed) / attempted
    return {
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
        "notes": notes,
        "reasons": reasons,
        "digests": rounds[0].digests,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="record this run's digests as the workload's reference "
        "(only at the default seed, after a deliberate change to simulated "
        "behaviour)",
    )
    args = parser.parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"references are recorded at seed {DEFAULT_SEED}")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    for name in ("REPRO_STORE", "REPRO_FAULTS"):
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)

    result = run(args)
    for line in result.pop("notes") + result.pop("reasons"):
        print(line)
    digests = result.pop("digests")
    if args.write_reference and result["correct"]:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            document = json.load(fh)
        document["workloads"][args.workload] = digests
        with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
