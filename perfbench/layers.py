"""Per-layer tracing for the benchmark, installed from outside the program.

The traced run wraps each layer's public functions and methods with a
timing shim (:func:`instrument`); the untraced run installs only the
cell-grain :class:`CellMeter`.  Nothing under ``src/`` is edited: the
shims replace class attributes and module-level names while the run lasts
and :func:`instrument` restores them on exit.

Self time is a call's duration minus the time its traced child calls
cover.  Per-access calls (``demand_access``, ``train``, table lookups ...)
are folded into per-(operation, layer) counters; calls at cell or
experiment grain (``simulate``, ``Experiment.run``) are also kept as
spans: name, start, end, parent span and operation id.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: Counts that repeat exactly for one program at one seed; a later change
#: may rest a count claim on them, so a traced run checks them.
DETERMINISTIC = (
    "sim.simulate.calls",
    "memory.demand_access.calls",
    "memory.issue_prefetch.calls",
    "memory.dram.reads",
    "cpu.trace.records",
    "selection.allocate.decisions",
    "prefetchers.train.calls",
    "prefetchers.train.candidates",
    "tables.lookup.calls",
    "tables.insert.calls",
    "workloads.generate.calls",
    "registry.build_selector.calls",
    "store.get.calls",
    "store.put.calls",
    "store.claim.calls",
)

#: Keys whose calls are also kept as spans (cell or experiment grain).
SPAN_KEYS = frozenset({"sim.simulate", "experiments.run"})


class Tracer:
    """Folds timed calls into per-(operation, layer) counters and spans.

    ``enter``/``exit`` bracket one call.  A call of a layer already open
    on the stack (a ``super()`` chain, a selector delegating to an inner
    one) is not counted again: ``enter`` returns False and the caller
    runs the function untimed, inside the outer call.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.scope = ""
        self.op = ""
        #: (op, layer) -> [calls, total seconds, self seconds]
        self.timers: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        #: (op, name) -> count recorded by an observer (hits, candidates ...)
        self.counts: Counter = Counter()
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[list] = []
        self._open: set = set()
        self._span_stack: List[int] = []

    @contextlib.contextmanager
    def operation(self, name: str) -> Iterator[None]:
        """Attribute the calls made inside the block to ``scope/name``."""
        previous, self.op = self.op, f"{self.scope}/{name}"
        try:
            yield
        finally:
            self.op = previous

    def enter(self, key: str) -> bool:
        if key in self._open:
            return False
        self._open.add(key)
        span = None
        if key in SPAN_KEYS:
            span = len(self.spans)
            self.spans.append(
                {
                    "name": key,
                    "op": self.op,
                    "parent": self._span_stack[-1] if self._span_stack else None,
                }
            )
            self._span_stack.append(span)
        self._stack.append([key, 0.0, span, self.clock()])
        return True

    def exit(self) -> None:
        end = self.clock()
        key, child, span, start = self._stack.pop()
        self._open.discard(key)
        elapsed = end - start
        if self._stack:
            self._stack[-1][1] += elapsed
        timer = self.timers[(self.op, key)]
        timer[0] += 1
        timer[1] += elapsed
        timer[2] += elapsed - child
        if span is not None:
            self._span_stack.pop()
            self.spans[span].update(start=start, end=end, self_s=elapsed - child)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[(self.op, name)] += amount

    def totals(self, scopes: Tuple[str, ...]) -> Tuple[Dict, Counter]:
        """Timers and counts summed over the operations of ``scopes``."""
        timers: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        counts: Counter = Counter()
        for (op, key), (calls, total, own) in self.timers.items():
            if op.split("/", 1)[0] in scopes:
                timer = timers[key]
                timer[0] += calls
                timer[1] += total
                timer[2] += own
        for (op, name), amount in self.counts.items():
            if op.split("/", 1)[0] in scopes:
                counts[name] += amount
        return timers, counts

    def dump(self) -> Dict[str, Any]:
        """Everything recorded, for the trace file written at the end."""
        return {
            "spans": self.spans,
            "operations": [
                {"op": op, "layer": key, "calls": c, "total_s": t, "self_s": s}
                for (op, key), (c, t, s) in sorted(self.timers.items())
            ],
            "counts": [
                {"op": op, "name": name, "value": value}
                for (op, name), value in sorted(self.counts.items())
            ],
        }


def simulation_results(result: Any) -> List[Any]:
    """The per-core ``SimulationResult`` objects of any simulate entry point."""
    if isinstance(result, tuple):  # simulate_phases: (result, phases)
        result = result[0]
    return list(getattr(result, "cores", None) or [result])


def demand_accesses(result: Any) -> int:
    return sum(r.core.loads + r.core.stores for r in simulation_results(result))


# -- patching -----------------------------------------------------------------


class Patches:
    """Replaced attributes, restored in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def function(self, original: Callable, replacement: Callable) -> None:
        """Replace every module-level reference to ``original``.

        Modules bind ``from repro.sim import simulate`` at import time, so
        each ``repro`` module holding the function is patched.
        """
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _simulate_entry_points() -> List[Callable]:
    from repro.sim import simulator

    return [simulator.simulate, simulator.simulate_phases, simulator.simulate_multicore]


class CellMeter:
    """Demand accesses simulated and host seconds spent inside simulate().

    The untraced run's only shim: one timer per simulation, not per
    access.  Each simulation appends one line to ``path``; the descriptor
    is opened before any pool forks, so cells simulated in forked pool
    workers append to the same file.  A line also carries the time and
    runs of the ``yardstick`` kernel that landed inside the simulation;
    the meter starts the yardstick in every process that simulates.
    """

    def __init__(self, path: str, yardstick: Any) -> None:
        self.path = path
        self.yardstick = yardstick
        self._fd = -1
        self._patches = Patches()

    def __enter__(self) -> "CellMeter":
        self._fd = fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        yardstick = self.yardstick
        for original in _simulate_entry_points():

            def metered(*args, _fn=original, **kwargs):
                yardstick.start()
                kernel_s, kernel_runs = yardstick.spent, yardstick.runs
                start, cpu = time.perf_counter(), time.process_time()
                result = _fn(*args, **kwargs)
                cpu = time.process_time() - cpu
                wall = time.perf_counter() - start
                kernel_s = yardstick.spent - kernel_s
                kernel_runs = yardstick.runs - kernel_runs
                fields = (demand_accesses(result), cpu, wall, kernel_s, kernel_runs)
                # One short O_APPEND write per cell never interleaves.
                os.write(fd, (" ".join(map(repr, fields)) + "\n").encode())
                return result

            self._patches.function(original, metered)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patches.undo()
        os.close(self._fd)

    def read(self) -> List[float]:
        """Sums so far of accesses, CPU seconds, wall seconds, and the
        yardstick's seconds and runs."""
        sums = [0, 0.0, 0.0, 0.0, 0]
        with open(self.path, encoding="ascii") as fh:
            for line in fh:
                for index, field in enumerate(line.split()):
                    sums[index] += type(sums[index])(field)
        return sums


# -- the traced run's shims -----------------------------------------------------


def _timed(tracer: Tracer, key: str, fn: Callable, observe=None) -> Callable:
    def timed(*args, **kwargs):
        if not tracer.enter(key):
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if observe is not None:
            observe(tracer, args, result)
        return result

    timed.__wrapped__ = fn
    return timed


def _timed_iter(tracer: Tracer, fn: Callable) -> Callable:
    """Time each record a trace reader decodes (``cpu.trace.decode``)."""

    def __iter__(self):
        records = fn(self)
        while True:
            opened = tracer.enter("cpu.trace.decode")
            try:
                record = next(records)
            except StopIteration:
                return
            finally:
                if opened:
                    tracer.exit()
            tracer.count("cpu.trace.records")
            yield record

    return __iter__


def _observe_simulation(tracer: Tracer, args: tuple, result: Any) -> None:
    for sim in simulation_results(result):
        tracer.count("memory.dram.reads", sim.dram_reads)
        tracer.count("prefetchers.issued", sum(sim.issued_by_prefetcher.values()))
        tracer.count("prefetchers.useful", sum(sim.useful_by_prefetcher.values()))


def _observer(name: str, measure: Callable[[tuple, Any], int]) -> Callable:
    def observe(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.count(name, measure(args, result))

    return observe


def _observe_filter(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("selection.filter.offered", len(args[1]))
    tracer.count("selection.filter.kept", len(result))


def _experiment_run(tracer: Tracer, fn: Callable) -> Callable:
    timed = _timed(tracer, "experiments.run", fn)

    def run(self, *args, **kwargs):
        with tracer.operation(self.name):
            return timed(self, *args, **kwargs)

    return run


def _subclasses(base: type) -> List[type]:
    found, todo = {}, [base]
    while todo:
        cls = todo.pop()
        found[cls] = None
        todo.extend(cls.__subclasses__())
    return list(found)


#: Selector methods, by the layer key they are folded into.  The feedback
#: callbacks and the IPC sample are all reward bookkeeping.
_SELECTION_METHODS = {
    "observe_demand": "selection.observe_demand",
    "allocate": "selection.allocate",
    "filter_prefetches": "selection.filter",
    "post_issue": "selection.post_issue",
    "observe_prefetch_used": "selection.reward",
    "observe_prefetch_evicted": "selection.reward",
    "performance_sample": "selection.reward",
}


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install the timing shims on every layer for the block's extent."""
    import repro.experiments  # noqa: F401  (registers every experiment)
    import repro.registry
    from repro.common.tables import SetAssociativeTable
    from repro.cpu.blocktrace import BlockTraceReader
    from repro.cpu.core import CoreModel
    from repro.cpu.tracefile import TraceReader
    from repro.experiments.runner import Experiment
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.prefetchers.base import Prefetcher
    from repro.selection.base import SelectionAlgorithm
    from repro.store.resultstore import ResultStore
    from repro.workloads.profiles import BenchmarkProfile

    patches = Patches()

    def method(cls, name, key, observe=None):
        patches.set(cls, name, _timed(tracer, key, cls.__dict__[name], observe))

    for original in _simulate_entry_points():
        patches.function(
            original, _timed(tracer, "sim.simulate", original, _observe_simulation)
        )
    patches.function(
        repro.registry.build_selector,
        _timed(tracer, "registry.build_selector", repro.registry.build_selector),
    )
    method(CoreModel, "advance", "cpu.core")
    method(CoreModel, "memory_access", "cpu.core")
    for reader in (TraceReader, BlockTraceReader):
        patches.set(reader, "__iter__", _timed_iter(tracer, reader.__iter__))
    method(
        MemoryHierarchy,
        "demand_access",
        "memory.demand_access",
        _observer("memory.l1.hits", lambda a, r: r.hit_level == "l1"),
    )
    method(
        MemoryHierarchy,
        "issue_prefetch",
        "memory.issue_prefetch",
        _observer("memory.issue_prefetch.accepted", lambda a, r: bool(r)),
    )
    selection_observers = {
        "allocate": _observer("selection.allocate.decisions", lambda a, r: len(r)),
        "filter_prefetches": _observe_filter,
    }
    for cls in _subclasses(SelectionAlgorithm):
        for name, key in _SELECTION_METHODS.items():
            if name in cls.__dict__:
                method(cls, name, key, selection_observers.get(name))
    for cls in _subclasses(Prefetcher):
        if "train" in cls.__dict__:
            method(
                cls,
                "train",
                "prefetchers.train",
                _observer("prefetchers.train.candidates", lambda a, r: len(r)),
            )
    method(
        SetAssociativeTable,
        "lookup",
        "tables.lookup",
        _observer("tables.lookup.hits", lambda a, r: r is not None),
    )
    method(SetAssociativeTable, "insert", "tables.insert")
    method(BenchmarkProfile, "generate", "workloads.generate")
    method(
        ResultStore,
        "get",
        "store.get",
        _observer("store.get.hits", lambda a, r: r is not None),
    )
    method(ResultStore, "put", "store.put")
    method(ResultStore, "claim", "store.claim")
    patches.set(Experiment, "run", _experiment_run(tracer, Experiment.run))
    try:
        yield tracer
    finally:
        patches.undo()


# -- per-layer metrics ------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(timers: Dict[str, List[float]], counts: Counter) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` but the two the caller times.

    ``store.warm_s`` and ``trace.overhead_ratio`` come from wall clocks
    around whole passes, not from the shims.
    """

    def calls(key):
        return int(timers[key][0]) if key in timers else 0

    def own(key):
        return timers[key][2] if key in timers else 0.0

    def total(key):
        return timers[key][1] if key in timers else 0.0

    return {
        "sim.simulate.calls": calls("sim.simulate"),
        "sim.loop.self_s": own("sim.simulate"),
        "cpu.core.self_s": own("cpu.core"),
        "cpu.trace.decode_s": total("cpu.trace.decode"),
        "cpu.trace.records": counts["cpu.trace.records"],
        "memory.demand_access.calls": calls("memory.demand_access"),
        "memory.demand_access.self_s": own("memory.demand_access"),
        "memory.issue_prefetch.calls": calls("memory.issue_prefetch"),
        "memory.issue_prefetch.accepted_ratio": _ratio(
            counts["memory.issue_prefetch.accepted"], calls("memory.issue_prefetch")
        ),
        "memory.issue_prefetch.self_s": own("memory.issue_prefetch"),
        "memory.l1.hit_rate": _ratio(
            counts["memory.l1.hits"], calls("memory.demand_access")
        ),
        "memory.dram.reads": counts["memory.dram.reads"],
        "selection.observe_demand.self_s": own("selection.observe_demand"),
        "selection.allocate.self_s": own("selection.allocate"),
        "selection.allocate.decisions": counts["selection.allocate.decisions"],
        "selection.filter.self_s": own("selection.filter"),
        "selection.filter.kept_ratio": _ratio(
            counts["selection.filter.kept"], counts["selection.filter.offered"]
        ),
        "selection.post_issue.self_s": own("selection.post_issue"),
        "selection.reward.self_s": own("selection.reward"),
        "prefetchers.train.calls": calls("prefetchers.train"),
        "prefetchers.train.self_s": own("prefetchers.train"),
        "prefetchers.train.candidates": counts["prefetchers.train.candidates"],
        "prefetchers.accuracy": _ratio(
            counts["prefetchers.useful"], counts["prefetchers.issued"]
        ),
        "tables.lookup.calls": calls("tables.lookup"),
        "tables.lookup.self_s": own("tables.lookup"),
        "tables.insert.calls": calls("tables.insert"),
        "tables.insert.self_s": own("tables.insert"),
        "tables.hit_ratio": _ratio(
            counts["tables.lookup.hits"], calls("tables.lookup")
        ),
        "workloads.generate.calls": calls("workloads.generate"),
        "workloads.generate.self_s": own("workloads.generate"),
        "registry.build_selector.calls": calls("registry.build_selector"),
        "registry.build_selector.self_s": own("registry.build_selector"),
        "store.get.calls": calls("store.get"),
        "store.get.hit_ratio": _ratio(counts["store.get.hits"], calls("store.get")),
        "store.get.self_s": own("store.get"),
        "store.put.calls": calls("store.put"),
        "store.put.self_s": own("store.put"),
        "store.claim.calls": calls("store.claim"),
        "store.claim.self_s": own("store.claim"),
        "experiments.run.self_s": own("experiments.run"),
    }
