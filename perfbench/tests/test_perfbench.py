"""Tests of the benchmark's own machinery; they run no simulation."""

import json
import os
import re
import signal
import sys
import time
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import cases  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import yardstick  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _core(cycles=1000.5, instructions=800):
    return SimpleNamespace(
        cycles=cycles, instructions=instructions, loads=90, stores=10
    )


def _sim(**changes):
    stats = dict(
        core=_core(),
        issued_by_prefetcher={"stride": 12, "pmp": 3},
        useful_by_prefetcher={"stride": 9, "pmp": 1},
        table_lookups=500,
        table_misses=40,
        dram_reads=77,
    )
    stats.update(changes)
    return SimpleNamespace(**stats)


def _round(digests, **kwargs):
    return cases.Round(digests=dict(digests), **kwargs)


class TestCorrectnessCheck:
    def test_digest_covers_every_statistic(self):
        base = checks.sim_digest(_sim())
        assert checks.sim_digest(_sim()) == base
        for change in (
            {"dram_reads": 78},
            {"table_misses": 41},
            {"table_lookups": 501},
            {"issued_by_prefetcher": {"stride": 13, "pmp": 3}},
            {"useful_by_prefetcher": {"stride": 9, "pmp": 2}},
            {"core": _core(cycles=1000.25)},
            {"core": _core(instructions=801)},
        ):
            assert checks.sim_digest(_sim(**change)) != base, change

    def test_perturbed_digest_fails_its_operation(self):
        reference = {"gcc": checks.sim_digest(_sim()), "mcf": "aa" * 12}
        good = _round(reference, simulations=2)
        perturbed = checks.sim_digest(_sim(dram_reads=78))
        bad = _round({**reference, "gcc": perturbed}, simulations=2)
        attempted, failed, reasons = run.grade([good, bad], reference, {})
        assert (attempted, failed) == (4, 1)
        assert reasons == ["round 2 gcc: digest differs from the reference"]

    def test_without_reference_rounds_must_agree(self):
        first = _round({"a": "1", "b": "2"}, simulations=2)
        second = _round({"a": "1", "b": "3"}, simulations=2)
        attempted, failed, reasons = run.grade([first, second], None, {})
        assert (attempted, failed) == (4, 1)
        assert reasons == ["round 2 b: digest differs from round 1"]

    def test_missing_operation_and_workload_check_fail(self):
        reference = {"a": "1", "b": "2"}
        attempted, failed, reasons = run.grade(
            [_round({"a": "1"}, simulations=1)], reference, {"a": "replay differs"}
        )
        assert (attempted, failed) == (2, 2)
        assert len(reasons) == 2

    def test_simulation_count_must_repeat(self):
        rounds = [_round({"a": "1"}, simulations=5), _round({"a": "1"}, simulations=6)]
        _, failed, reasons = run.grade(rounds, None, {})
        assert failed == 0 and reasons

    def test_invariants(self):
        assert checks.sim_invariants(_sim(), accesses=100) == []
        assert checks.sim_invariants(_sim(), accesses=101)
        assert checks.sim_invariants(_sim(table_misses=501))
        assert checks.sim_invariants(_sim(useful_by_prefetcher={"stride": 13}))

    def test_counts_must_repeat_across_runs(self, tmp_path):
        path = str(tmp_path / "repeats" / "w-seed1-trace-0123.json")
        counts = {"a.calls": 3, "b.calls": 4, "digest gcc": "ab"}
        assert checks.repeat_mismatches(path, counts) == []
        assert checks.repeat_mismatches(path, counts) == []
        changed = {**counts, "b.calls": 5}
        assert checks.repeat_mismatches(path, changed) == ["b.calls"]

    def test_record_is_keyed_by_the_code_under_test(self, tmp_path):
        program = tmp_path / "repro"
        (program / "sim").mkdir(parents=True)
        (program / "sim" / "core.py").write_text("X = 1\n")
        (program / "notes.txt").write_text("not code\n")
        before = checks.code_digest([str(program)])
        assert checks.code_digest([str(program)]) == before
        (program / "notes.txt").write_text("still not code\n")
        assert checks.code_digest([str(program)]) == before
        (program / "sim" / "core.py").write_text("X = 2\n")
        assert checks.code_digest([str(program)]) != before

    def test_reference_is_used_only_at_the_default_seed(self):
        assert checks.load_reference("cell-long", checks.DEFAULT_SEED + 1) is None
        for name in cases.WORKLOADS:
            assert checks.load_reference(name, checks.DEFAULT_SEED), name


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime:
    def test_synthetic_span_tree(self):
        # sim [0, 10] holds demand [1, 4] and train [5, 9]; train holds
        # lookup [6, 7].  Self time is duration minus children covered.
        clock = _Clock()
        tracer = layers.Tracer(clock=clock)
        tracer.scope = "run"

        def at(time, action, key=None):
            clock.now = time
            if action == "enter":
                assert tracer.enter(key)
            else:
                tracer.exit()

        with tracer.operation("cell"):
            at(0, "enter", "sim.simulate")
            at(1, "enter", "memory.demand_access")
            at(4, "exit")
            at(5, "enter", "prefetchers.train")
            at(6, "enter", "tables.lookup")
            at(7, "exit")
            at(9, "exit")
            at(10, "exit")
        timers, _ = tracer.totals(("run",))
        assert timers["sim.simulate"] == [1, 10.0, 3.0]
        assert timers["memory.demand_access"] == [1, 3.0, 3.0]
        assert timers["prefetchers.train"] == [1, 4.0, 3.0]
        assert timers["tables.lookup"] == [1, 1.0, 1.0]
        (span,) = tracer.spans
        assert span == {
            "name": "sim.simulate",
            "op": "run/cell",
            "parent": None,
            "start": 0.0,
            "end": 10.0,
            "self_s": 3.0,
        }

    def test_nested_spans_record_their_parent(self):
        clock = _Clock()
        tracer = layers.Tracer(clock=clock)
        tracer.scope = "run"
        with tracer.operation("fig08"):
            assert tracer.enter("experiments.run")
            clock.now = 2.0
            assert tracer.enter("sim.simulate")
            clock.now = 5.0
            tracer.exit()
            clock.now = 6.0
            tracer.exit()
        outer, inner = tracer.spans
        assert inner["parent"] == 0 and outer["parent"] is None
        assert outer["self_s"] == 3.0 and inner["self_s"] == 3.0

    def test_reentered_layer_is_counted_once(self):
        clock = _Clock()
        tracer = layers.Tracer(clock=clock)
        assert tracer.enter("selection.allocate")
        assert not tracer.enter("selection.allocate")
        clock.now = 2.0
        tracer.exit()
        timers, _ = tracer.totals(("",))
        assert timers["selection.allocate"] == [1, 2.0, 2.0]

    def test_timed_shim_counts_and_restores(self):
        tracer = layers.Tracer()

        class Table:
            def lookup(self, key):
                return key if key % 2 else None

        patches = layers.Patches()
        original = Table.__dict__["lookup"]
        hits = layers._observer("tables.lookup.hits", lambda a, r: r is not None)
        shim = layers._timed(tracer, "tables.lookup", original, hits)
        patches.set(Table, "lookup", shim)
        table = Table()
        assert [table.lookup(k) for k in range(4)] == [None, 1, None, 3]
        patches.undo()
        assert Table.__dict__["lookup"] is original
        metrics = layers.layer_metrics(*tracer.totals(("",)))
        assert metrics["tables.lookup.calls"] == 4
        assert metrics["tables.hit_ratio"] == 0.5


class TestYardstick:
    def test_scaling_to_the_reference_speed(self):
        scale = yardstick.at_reference_speed
        reference = yardstick.REFERENCE_S
        # A host that runs the kernel twice as slowly as the reference
        # takes twice as long: its timings are halved.
        assert scale(8.0, 4 * 2 * reference, 4) == pytest.approx(4.0)
        assert scale(8.0, 4 * reference, 4) == pytest.approx(8.0)
        assert scale(8.0, 0.0, 0) == 8.0

    def test_kernel_runs_on_the_profiling_timer(self):
        before = signal.getsignal(signal.SIGPROF)
        gauge = yardstick.Yardstick()
        with gauge:
            end = time.process_time() + 5 * yardstick.PERIOD
            while time.process_time() < end:
                pass
        assert gauge.runs >= 1 and gauge.spent > 0
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGPROF) is before

    def test_kernel_is_fixed_work(self):
        first, second = yardstick.Yardstick(), yardstick.Yardstick()
        first.run()
        second.run()
        assert first.state == second.state and first.counts == second.counts
        assert first.runs == 1 and first.spent > 0


class TestNames:
    @pytest.fixture(scope="class")
    def spec(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def test_every_name_matches_the_grammar(self, spec):
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.match(name), name
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric["unit"]), metric
