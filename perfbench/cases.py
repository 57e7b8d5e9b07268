"""The three workloads, driven through the program's public entry points.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns.  Every simulation starts with empty
modelled caches and no warm-up.  A workload prepares its inputs in
``setup`` (which the runner repeats and times), then repeats ``round``;
one round runs every operation once and reports its own timings, counts
and digests.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from checks import rows_digest, sim_digest, sim_invariants

#: Demand accesses per cell-long cell (suite-fast's cells have 600-1200).
CELL_ACCESSES = 30_000

#: Demand accesses per replay-baseline trace.
REPLAY_ACCESSES = 60_000

#: The suite-fast subset: cell-cache users (fig08, fig09), direct
#: simulate() callers, the temporal sweep and the multicore path (fig17).
SUITE_EXPERIMENTS = (
    "fig08",
    "fig09",
    "fig10",
    "fig13",
    "fig14",
    "fig17",
    "abl_epoch",
    "abl_sandbox",
)
SUITE_JOBS = 2

#: Each cell and replay trace joins this many segments, each generated
#: from its own seed derived from the workload seed.  Host time per access
#: depends on the pattern parameters a seed draws (up to ~15 % between
#: seeds for one benchmark), so averaging several draws per trace keeps
#: one unlucky seed from moving a run's figures.
SEGMENTS = 3


def generate(name: str, accesses: int, seed: int) -> list:
    """``accesses`` records of benchmark ``name`` in :data:`SEGMENTS` segments."""
    from repro.workloads import get_profile

    profile = get_profile(name)
    records = []
    for segment in range(SEGMENTS):
        seed_of_segment = seed * SEGMENTS + segment
        records += profile.generate(accesses // SEGMENTS, seed=seed_of_segment)
    return records


@dataclass
class Round:
    """One pass over a workload's operations."""

    wall_s: float = 0.0
    simulations: int = 0
    #: op name -> digest of its simulated output
    digests: Dict[str, str] = field(default_factory=dict)
    #: op name -> why it failed its correctness check
    failures: Dict[str, str] = field(default_factory=dict)
    #: wall time of the warm pass (suite-fast only)
    warm_s: float = 0.0

    def fail(self, op: str, why: str) -> None:
        self.failures.setdefault(op, why)


def _operation(tracer, name):
    return tracer.operation(name) if tracer is not None else contextlib.nullcontext()


def _simulations() -> int:
    import repro.sim

    return repro.sim.simulation_count()


class CellLong:
    """Four long selector cells, simulated serially from in-memory traces."""

    name = "cell-long"

    def __init__(self, seed: int, workdir: str, traced: bool = False):
        self.seed = seed
        self.traces: Dict[str, list] = {}

    def setup(self) -> None:
        self.traces = {
            name: generate(name, CELL_ACCESSES, self.seed)
            for name in ("gcc", "mcf", "temporal/omnetpp")
        }

    def _cells(self):
        """(op name, trace, selector factory, config) per cell."""
        import repro.registry
        from repro.experiments.fig13_temporal import METADATA_SCALE, temporal_config

        def selector(spec, **context):
            return lambda: repro.registry.build_selector(spec, **context)

        return [
            ("gcc/alecto", self.traces["gcc"], selector("alecto"), None),
            ("mcf/alecto", self.traces["mcf"], selector("alecto"), None),
            ("mcf/bandit6", self.traces["mcf"], selector("bandit6"), None),
            (
                "omnetpp/alecto+temporal",
                self.traces["temporal/omnetpp"],
                selector(
                    "alecto",
                    with_temporal=True,
                    temporal_bytes=1024 * 1024 // METADATA_SCALE,
                ),
                temporal_config(),
            ),
        ]

    def round(self, tracer=None) -> Round:
        import repro.sim

        out = Round()
        before = _simulations()
        start = time.perf_counter()
        for op, trace, build, config in self._cells():
            with _operation(tracer, op):
                result = repro.sim.simulate(trace, build(), config=config, name=op)
            out.digests[op] = sim_digest(result)
            for problem in sim_invariants(result, len(trace)):
                out.fail(op, problem)
        out.wall_s = time.perf_counter() - start
        out.simulations = _simulations() - before
        return out

    def check(self, digests: Dict[str, str]) -> Dict[str, str]:
        return {}

    def close(self) -> None:
        self.traces = {}


class ReplayBaseline:
    """Three recorded repro.trace.v2 files replayed with no selector."""

    name = "replay-baseline"
    benchmarks = ("gcc", "mcf", "lbm")

    def __init__(self, seed: int, workdir: str, traced: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.records: Dict[str, list] = {}
        self.paths: Dict[str, str] = {}
        self._spool: Optional[str] = None

    def setup(self) -> None:
        from repro.cpu.blocktrace import write_trace_v2

        self.close()
        self._spool = tempfile.mkdtemp(prefix="replay-", dir=self.workdir)
        for name in self.benchmarks:
            records = generate(name, REPLAY_ACCESSES, self.seed)
            path = os.path.join(self._spool, f"{name}.trace.v2")
            meta = {"benchmark": name, "accesses": REPLAY_ACCESSES, "seed": self.seed}
            write_trace_v2(path, records, meta=meta)
            self.records[name] = records
            self.paths[name] = path

    def round(self, tracer=None) -> Round:
        import repro.sim
        from repro.cpu.tracefile import open_trace

        out = Round()
        before = _simulations()
        start = time.perf_counter()
        for name in self.benchmarks:
            with _operation(tracer, name):
                trace = open_trace(self.paths[name])
                result = repro.sim.simulate(trace, None, name=name)
            out.digests[name] = sim_digest(result)
            for problem in sim_invariants(result, REPLAY_ACCESSES):
                out.fail(name, problem)
        out.wall_s = time.perf_counter() - start
        out.simulations = _simulations() - before
        return out

    def check(self, replayed: Dict[str, str]) -> Dict[str, str]:
        """Replay must equal simulating the same records from memory.

        ``replayed`` holds the digests of the first round's replays.
        """
        import repro.sim

        failures = {}
        for name in self.benchmarks:
            in_memory = repro.sim.simulate(self.records[name], None, name=name)
            if sim_digest(in_memory) != replayed[name]:
                failures[name] = "replay differs from the in-memory simulation"
        return failures

    def close(self) -> None:
        if self._spool is not None:
            shutil.rmtree(self._spool, ignore_errors=True)
        self._spool = None
        self.records, self.paths = {}, {}


def stop_pools() -> None:
    """Shut the suite runner's process pools down and wait for the workers.

    The runner keeps its pools alive between calls; stopping them after
    every pass makes each cold pass pay pool start-up, as a ``repro
    suite`` invocation does, and lets the workers' peak RSS be read.
    """
    from repro.experiments import runner

    while runner._POOLS:
        _, (_, pool) = runner._POOLS.popitem()
        pool.shutdown(wait=True)


class SuiteFast:
    """The fast suite subset into a fresh store, then again warm."""

    name = "suite-fast"

    def __init__(self, seed: int, workdir: str, traced: bool = False):
        self.seed = seed
        self.workdir = workdir
        # Spans recorded in forked pool workers would be lost, so the
        # traced run keeps every cell in this process.
        self.jobs = 1 if traced else SUITE_JOBS
        self._store_root: Optional[str] = None

    def setup(self) -> None:
        self.close()
        self._store_root = tempfile.mkdtemp(prefix="suite-", dir=self.workdir)

    def _pass(self, store: str):
        import repro.api

        before = _simulations()
        start = time.perf_counter()
        report = repro.api.run_suite(
            list(SUITE_EXPERIMENTS),
            fast=True,
            jobs=self.jobs,
            store=store,
            overrides={"seed": self.seed},
        )
        wall = time.perf_counter() - start
        stop_pools()
        return report, wall, _simulations() - before + report.worker_simulations

    def round(self, tracer=None) -> Round:
        out = Round()
        store = tempfile.mkdtemp(prefix="store-", dir=self._store_root)
        try:
            with _operation(tracer, "cold"):
                cold, out.wall_s, out.simulations = self._pass(store)
            cold_rows = {r.name: json.dumps(r.rows) for r in cold.results}
            for result in cold.results:
                out.digests[result.name] = rows_digest(result.rows)
            for name in set(SUITE_EXPERIMENTS) - set(cold_rows):
                out.fail(name, "no result from the cold pass")
            with _operation(tracer, "warm"):
                warm, out.warm_s, warm_sims = self._pass(store)
            if warm_sims:
                for name in SUITE_EXPERIMENTS:
                    out.fail(name, f"warm pass ran {warm_sims} simulations")
            for result in warm.results:
                if json.dumps(result.rows) != cold_rows.get(result.name):
                    out.fail(result.name, "warm rows differ from the cold pass")
        finally:
            shutil.rmtree(store, ignore_errors=True)
        return out

    def check(self, digests: Dict[str, str]) -> Dict[str, str]:
        return {}

    def close(self) -> None:
        if self._store_root is not None:
            shutil.rmtree(self._store_root, ignore_errors=True)
        self._store_root = None


WORKLOADS = {w.name: w for w in (CellLong, ReplayBaseline, SuiteFast)}
