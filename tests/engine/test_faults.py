"""Deterministic fault injection and the serial recovery paths.

The pool-level recovery machinery (worker death, hangs, rebuilds) is
exercised in ``test_chaos.py``; this module pins the fault plan itself
and every recovery path that runs in-process: retry with backoff,
integrity-digest verification, quarantine, and journal/manifest
reporting.
"""

import json
import pickle
from pathlib import Path

import pytest

from repro.core.evaluation.experiment import ExperimentGrid
from repro.engine.checkpoint import record_to_json
from repro.engine.faults import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    InjectedFaultError,
    ShardTimeoutError,
)
from repro.engine.planner import GridPlanner
from repro.engine.runner import ParallelRunner, QuarantinedShards, run_grid
from repro.engine.worker import (
    ShardContext,
    execute_shard_with_faults,
    records_digest,
)


def canonical(result):
    return [record_to_json(r) for r in result.records]


@pytest.fixture(scope="module")
def grid():
    return ExperimentGrid(granularities=(16,), replications=2, seed=11)


@pytest.fixture(scope="module")
def shards(grid):
    return GridPlanner(grid).shards()


@pytest.fixture(scope="module")
def serial_result(grid, request):
    trace = request.getfixturevalue("minute_trace")
    return grid.run(trace)


class TestFaultPlan:
    def test_same_seed_same_faults(self):
        rates = {"crash": 0.2, "error": 0.2}
        a = FaultPlan(seed=7, rates=rates)
        b = FaultPlan(seed=7, rates=rates)
        keys = ["full/systematic/g%d/r%d" % (g, r) for g in (2, 4) for r in range(50)]
        decisions = [
            (a.fault_for(k, 0), b.fault_for(k, 0)) for k in keys
        ]
        assert all(
            (x is None) == (y is None) and (x is None or x.kind == y.kind)
            for x, y in decisions
        )

    def test_different_seeds_differ_somewhere(self):
        rates = {"crash": 0.5}
        a = FaultPlan(seed=1, rates=rates)
        b = FaultPlan(seed=2, rates=rates)
        keys = ["full/random/g2/r%d" % r for r in range(100)]
        assert [a.fault_for(k, 0) for k in keys] != [
            b.fault_for(k, 0) for k in keys
        ]

    def test_rates_roughly_honored(self):
        plan = FaultPlan(seed=3, rates={"crash": 0.2})
        keys = ["full/stratified/g8/r%d" % r for r in range(1000)]
        hits = sum(plan.fault_for(k, 0) is not None for k in keys)
        assert 130 < hits < 270  # ~200 expected; binomial slack

    def test_fault_attempts_gate_retries_clean(self):
        plan = FaultPlan(seed=3, rates={"error": 1.0}, fault_attempts=1)
        key = "full/systematic/g2/r0"
        assert plan.fault_for(key, 0) is not None
        assert plan.fault_for(key, 1) is None

    def test_fault_attempts_none_is_poison(self):
        plan = FaultPlan(seed=3, rates={"error": 1.0}, fault_attempts=None)
        key = "full/systematic/g2/r0"
        assert all(plan.fault_for(key, a) is not None for a in range(10))

    def test_explicit_injection_exact_shard_and_attempt(self):
        plan = FaultPlan().inject("a/b/g2/r0", Fault("hang"), attempts=(1,))
        assert plan.fault_for("a/b/g2/r0", 0) is None
        assert plan.fault_for("a/b/g2/r0", 1).kind == "hang"
        assert plan.fault_for("a/b/g2/r1", 1) is None

    def test_explicit_every_attempt(self):
        plan = FaultPlan().inject("a/b/g2/r0", Fault("crash"), attempts=None)
        assert all(
            plan.fault_for("a/b/g2/r0", a).kind == "crash" for a in range(5)
        )

    def test_from_spec(self):
        plan = FaultPlan.from_spec(
            "seed=7,crash=0.1,hang=0.05,slow=0.1,corrupt=0.02,"
            "hang_s=3,slow_s=0.5,attempts=2"
        )
        assert plan.seed == 7
        assert plan.rates == {
            "crash": 0.1,
            "hang": 0.05,
            "slow": 0.1,
            "corrupt": 0.02,
        }
        assert plan.hang_s == 3.0
        assert plan.delay_s == 0.5
        assert plan.fault_attempts == 2

    def test_from_spec_attempts_all(self):
        assert FaultPlan.from_spec("error=1,attempts=all").fault_attempts is None

    @pytest.mark.parametrize(
        "spec", ["bogus=0.1", "crash", "crash=0.6,error=0.6"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(spec)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Fault("meltdown")
        with pytest.raises(ValueError, match="kinds"):
            FaultPlan(rates={"meltdown": 0.1})

    def test_plan_is_picklable(self):
        plan = FaultPlan(seed=5, rates={"crash": 0.1}).inject(
            "a/b/g2/r0", Fault("slow", delay_s=0.1)
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.fault_for("a/b/g2/r0", 0).kind == "slow"
        assert clone.describe() == plan.describe()

    def test_describe_names_everything(self):
        plan = FaultPlan(seed=5, rates={"hang": 0.2}).inject(
            "a/b/g2/r0", Fault("crash"), attempts=None
        )
        described = plan.describe()
        assert described["seed"] == 5
        assert described["rates"] == {"hang": 0.2}
        assert described["explicit"]["a/b/g2/r0"] == [
            {"kind": "crash", "attempts": "all"}
        ]


class TestDigest:
    def test_digest_covers_records_and_packets(self, grid, minute_trace, shards):
        context = ShardContext(minute_trace, grid)
        records, packets, flows, digest = execute_shard_with_faults(
            context, shards[0], 0, None, in_pool=False
        )
        assert flows is None
        assert digest == records_digest(packets, records)
        assert digest != records_digest(packets + 1, records)
        assert digest != records_digest(packets, records[1:])
        assert digest != records_digest(
            packets, records, {"parent_flows": 1.0}
        )

    def test_injected_corruption_is_detectable(
        self, grid, minute_trace, shards
    ):
        plan = FaultPlan().inject(shards[0].key, Fault("corrupt"))
        context = ShardContext(minute_trace, grid)
        records, packets, flows, digest = execute_shard_with_faults(
            context, shards[0], 0, plan, in_pool=False
        )
        assert records_digest(packets, records) != digest


class TestSerialInjectionSemantics:
    """Serial shards cannot really exit or hang the process; the fault
    layer maps those kinds onto retryable exceptions."""

    def test_crash_raises_inline(self, grid, minute_trace, shards):
        plan = FaultPlan().inject(shards[0].key, Fault("crash"))
        context = ShardContext(minute_trace, grid)
        with pytest.raises(InjectedFaultError, match="injected crash"):
            execute_shard_with_faults(context, shards[0], 0, plan, in_pool=False)

    def test_hang_raises_timeout_inline(self, grid, minute_trace, shards):
        plan = FaultPlan().inject(shards[0].key, Fault("hang", hang_s=60.0))
        context = ShardContext(minute_trace, grid)
        with pytest.raises(ShardTimeoutError, match="injected hang"):
            execute_shard_with_faults(context, shards[0], 0, plan, in_pool=False)


class TestSerialRecovery:
    @pytest.mark.parametrize("kind", ["error", "crash", "hang", "corrupt"])
    def test_first_attempt_fault_retries_to_identity(
        self, kind, grid, shards, serial_result, minute_trace
    ):
        plan = FaultPlan()
        for shard in shards[:3]:
            plan.inject(shard.key, Fault(kind, hang_s=60.0, delay_s=0.0))
        runner = ParallelRunner(fault_plan=plan, retry_backoff_s=0.001)
        result = runner.run(grid, minute_trace)
        assert canonical(result) == canonical(serial_result)
        summary = runner.last_telemetry.summary()
        assert summary["retries"] == 3
        assert summary["quarantined"] == []
        assert summary["chaos"]["explicit"]

    def test_slow_fault_completes_normally(
        self, grid, shards, serial_result, minute_trace
    ):
        plan = FaultPlan().inject(shards[0].key, Fault("slow", delay_s=0.01))
        runner = ParallelRunner(fault_plan=plan)
        result = runner.run(grid, minute_trace)
        assert canonical(result) == canonical(serial_result)
        assert runner.last_telemetry.summary()["retries"] == 0

    def test_rate_based_chaos_retries_to_identity(
        self, grid, serial_result, minute_trace
    ):
        plan = FaultPlan(
            seed=1, rates={"error": 0.3, "corrupt": 0.3}, fault_attempts=1
        )
        runner = ParallelRunner(fault_plan=plan, retry_backoff_s=0.001)
        result = runner.run(grid, minute_trace)
        assert canonical(result) == canonical(serial_result)
        assert runner.last_telemetry.summary()["retries"] >= 1


class TestQuarantine:
    def test_poison_shard_quarantined_sweep_continues(
        self, grid, shards, serial_result, minute_trace, tmp_path
    ):
        poison = shards[2]
        plan = FaultPlan().inject(poison.key, Fault("error"), attempts=None)
        run_dir = str(tmp_path / "run")
        runner = ParallelRunner(
            run_dir=run_dir,
            fault_plan=plan,
            max_attempts=2,
            retry_backoff_s=0.001,
        )
        with pytest.warns(QuarantinedShards, match=poison.key):
            result = runner.run(grid, minute_trace)

        assert runner.quarantined.keys() == {poison.key}
        expected = [
            record_to_json(r)
            for r in serial_result.records
            if not (
                r.method == poison.spec.method
                and r.granularity == poison.spec.granularity
                and r.replication == poison.replication
            )
        ]
        assert canonical(result) == expected

        manifest = json.loads(Path(run_dir, "manifest.json").read_text())
        assert manifest["quarantined"] == [poison.key]
        lines = [
            json.loads(line)
            for line in Path(run_dir, "checkpoint.jsonl").read_text().splitlines()
        ]
        quarantine_lines = [e for e in lines if "quarantine" in e]
        assert len(quarantine_lines) == 1
        assert quarantine_lines[0]["quarantine"]["shard"] == poison.key
        assert quarantine_lines[0]["quarantine"]["attempts"] == 2

    def test_resume_reattempts_quarantined_shards(
        self, grid, shards, serial_result, minute_trace, tmp_path
    ):
        poison = shards[2]
        plan = FaultPlan().inject(poison.key, Fault("error"), attempts=None)
        run_dir = str(tmp_path / "run")
        with pytest.warns(QuarantinedShards):
            run_grid(
                grid,
                minute_trace,
                run_dir=run_dir,
                fault_plan=plan,
                max_attempts=2,
                retry_backoff_s=0.001,
            )
        # The fault is gone on resume (a fixed bug, a transient cleared):
        # the quarantined shard gets fresh attempts and the merged
        # result is whole again.
        result = run_grid(grid, minute_trace, run_dir=run_dir, resume=True)
        assert canonical(result) == canonical(serial_result)

    def test_max_attempts_validated(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ParallelRunner(max_attempts=0)
        with pytest.raises(ValueError, match="shard_timeout_s"):
            ParallelRunner(shard_timeout_s=0)


class TestCliWiring:
    def test_chaos_flag_builds_a_plan(self):
        from repro.cli import _engine_kwargs, build_parser

        args = build_parser().parse_args(
            [
                "experiment",
                "trace.pcap",
                "--jobs",
                "2",
                "--chaos",
                "seed=7,crash=0.1",
                "--shard-timeout",
                "30",
                "--max-attempts",
                "5",
            ]
        )
        kwargs = _engine_kwargs(args)
        assert kwargs["jobs"] == 2
        assert kwargs["max_attempts"] == 5
        assert kwargs["shard_timeout_s"] == 30.0
        assert kwargs["fault_plan"].rates == {"crash": 0.1}
        assert kwargs["fault_plan"].seed == 7

    def test_no_chaos_flag_means_no_plan(self):
        from repro.cli import _engine_kwargs, build_parser

        args = build_parser().parse_args(["experiment", "trace.pcap"])
        kwargs = _engine_kwargs(args)
        assert kwargs["fault_plan"] is None
        assert kwargs["shard_timeout_s"] is None

    def test_all_kinds_have_serial_semantics(self):
        # Guard: every declared kind is handled by the injection layer.
        assert set(FAULT_KINDS) == {"crash", "hang", "slow", "corrupt", "error"}
