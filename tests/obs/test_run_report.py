"""End-to-end observability: a real sweep, its artifacts, and the report.

One instrumented sweep (with a deterministic serial-safe fault) feeds
every assertion here: the manifest's obs block, the event log on disk,
the Prometheus exposition, the rendered report, the ``repro-traffic
report`` command — and the determinism contract that instrumentation
never changes results.
"""

import json
import os
import re

import pytest

from repro.cli import main
from repro.core.evaluation.experiment import ExperimentGrid
from repro.engine.checkpoint import record_to_json
from repro.engine.faults import Fault, FaultPlan
from repro.engine.planner import GridPlanner
from repro.engine.runner import ParallelRunner, QuarantinedShards
from repro.obs import (
    EVENTS_FILENAME,
    NULL_OBS,
    Instrumentation,
    RunReport,
    read_events,
    span_tree,
)


@pytest.fixture(scope="module")
def grid():
    return ExperimentGrid(granularities=(16,), replications=2, seed=11)


@pytest.fixture(scope="module")
def faulted_run(grid, tmp_path_factory, request):
    """One instrumented serial sweep with a first-attempt error fault."""
    trace = request.getfixturevalue("minute_trace")
    shard = GridPlanner(grid).shards()[0]
    plan = FaultPlan().inject(shard.key, Fault("error"))
    run_dir = str(tmp_path_factory.mktemp("obs") / "run")
    runner = ParallelRunner(
        run_dir=run_dir,
        fault_plan=plan,
        retry_backoff_s=0.001,
        profile=True,
    )
    result = runner.run(grid, trace)
    return run_dir, shard, result


class TestRunArtifacts:
    def test_run_dir_contains_observability_files(self, faulted_run):
        run_dir, _, _ = faulted_run
        names = sorted(os.listdir(run_dir))
        assert "events.jsonl" in names
        assert "metrics.prom" in names
        assert "manifest.json" in names

    def test_fault_and_retry_become_events(self, faulted_run):
        run_dir, shard, _ = faulted_run
        events = read_events(os.path.join(run_dir, EVENTS_FILENAME))
        kinds = {event.kind for event in events}
        assert {"run_start", "run_end", "fault_injected", "retry"} <= kinds
        fault = next(e for e in events if e.kind == "fault_injected")
        assert fault.get("shard") == shard.key
        assert fault.get("detail") == "error"

    def test_span_tree_reconstructs(self, faulted_run):
        run_dir, _, _ = faulted_run
        events = read_events(os.path.join(run_dir, EVENTS_FILENAME))
        roots = span_tree(events)
        names = [root.name for root in roots]
        assert "plan" in names and "execute" in names
        execute = roots[names.index("execute")]
        assert any(c.name == "checkpoint_io" for c in execute.children)

    def test_prometheus_exposition(self, faulted_run):
        run_dir, _, _ = faulted_run
        with open(os.path.join(run_dir, "metrics.prom")) as stream:
            text = stream.read()
        assert "# TYPE repro_shards_completed_total counter" in text
        assert "repro_faults_injected_total 1" in text
        assert "repro_shards_retried_total 1" in text
        assert 'repro_span_seconds_total{span="execute"}' in text


class TestRunReport:
    def test_phase_breakdown_merges_engine_and_worker(self, faulted_run):
        run_dir, _, _ = faulted_run
        report = RunReport.from_run_dir(run_dir)
        phases = report.phase_breakdown()
        assert "engine:execute" in phases
        assert "worker:sample" in phases and "worker:score" in phases
        assert phases["worker:sample"]["count"] > 0

    def test_render_has_every_section(self, faulted_run, grid):
        run_dir, shard, _ = faulted_run
        text = RunReport.from_run_dir(run_dir).render(top=3)
        assert "phase breakdown" in text
        assert "slowest shards (top 3" in text
        assert "retry / fault timeline" in text
        assert "fault_injected" in text and shard.key in text

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest.json"):
            RunReport.from_run_dir(str(tmp_path))


class TestReportCommand:
    def test_report_prints_fault_timeline(self, faulted_run, capsys):
        run_dir, shard, _ = faulted_run
        assert main(["report", run_dir]) == 0
        out = capsys.readouterr().out
        assert "run report" in out
        assert "fault_injected" in out and "retry" in out
        assert shard.key in out

    def test_report_metrics_mode(self, faulted_run, capsys):
        run_dir, _, _ = faulted_run
        assert main(["report", run_dir, "--metrics"]) == 0
        assert "repro_faults_injected_total" in capsys.readouterr().out

    def test_metrics_mode_fails_without_exposition(self, tmp_path, capsys):
        assert main(["report", str(tmp_path), "--metrics"]) == 1

    def test_negative_top_rejected(self, faulted_run, capsys):
        run_dir, _, _ = faulted_run
        assert main(["report", run_dir, "--top", "-1"]) == 2
        assert capsys.readouterr().err == "error: --top must be >= 0, got -1\n"


class TestMalformedManifest:
    """A manifest the report cannot read raises ``ValueError`` naming
    the file, which ``report`` prints as one ``error:`` line, exit 2."""

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            "[]",
            '{"shards": [1], "obs": {"timers": []}}',
            '{"shards_total": "x"}',
            '{"wall_s": Infinity}',
            '{"shards": {}}',
            '{"shards": [{"wall_s": "slow"}]}',
            '{"shards": [{"phases": {"sample": null}}]}',
            '{"obs": []}',
            '{"obs": {"timers": {"plan": 1}}}',
            '{"quarantined": "full/random/g2/r0"}',
        ],
    )
    def test_one_line_error(self, text, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            RunReport.from_run_dir(str(tmp_path))
        assert main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and "Traceback" not in err


#: Manifest fields that hold a measurement of this host, not an outcome.
_TIMING_FIELDS = (
    "wall_s",
    "busy_s",
    "worker_utilization",
    "workers",
    "packets_per_s",
    "phase_totals",
)
_SHARD_TIMING_FIELDS = ("wall_s", "packets_per_s", "phases", "maxrss_kb", "worker")

_CRASHED = "full/stratified/g4/r1"

#: The faulted sweep's manifest without its timings.  Counters keep
#: their values; timers and gauges only their names.
PINNED_MANIFEST = {
    "chaos": {
        "delay_s": 0.25,
        "explicit": {
            "full/stratified/g2/r0": [{"attempts": [0], "kind": "corrupt"}],
            _CRASHED: [{"attempts": "all", "kind": "crash"}],
            "full/systematic/g2/r1": [{"attempts": [0], "kind": "error"}],
        },
        "fault_attempts": 1,
        "hang_s": 30.0,
        "rates": {},
        "seed": 0,
    },
    "degraded_to_serial": False,
    "events": [
        {
            "attempt": 0,
            "detail": "error",
            "kind": "fault_injected",
            "shard": "full/systematic/g2/r1",
        },
        {
            "attempt": 1,
            "detail": "InjectedFaultError: injected error at "
            "full/systematic/g2/r1 (attempt 0)",
            "kind": "retry",
            "shard": "full/systematic/g2/r1",
        },
        {
            "attempt": 0,
            "detail": "corrupt",
            "kind": "fault_injected",
            "shard": "full/stratified/g2/r0",
        },
        {
            "attempt": 1,
            "detail": "ShardCorruptionError: result for shard "
            "full/stratified/g2/r0 failed its integrity digest",
            "kind": "retry",
            "shard": "full/stratified/g2/r0",
        },
        {"attempt": 0, "detail": "crash", "kind": "fault_injected", "shard": _CRASHED},
        {
            "attempt": 1,
            "detail": "InjectedFaultError: injected crash at "
            "full/stratified/g4/r1 (attempt 0)",
            "kind": "retry",
            "shard": _CRASHED,
        },
        {"attempt": 1, "detail": "crash", "kind": "fault_injected", "shard": _CRASHED},
        {
            "attempt": 2,
            "detail": "InjectedFaultError: injected crash at "
            "full/stratified/g4/r1 (attempt 1)",
            "kind": "quarantine",
            "shard": _CRASHED,
        },
    ],
    "jobs": 1,
    "obs": {
        "counters": {
            "faults_injected": 4,
            "packets_sampled": 86008,
            "packets_scanned": 291093,
            "shards_completed": 11,
            "shards_quarantined": 1,
            "shards_replayed": 0,
            "shards_retried": 3,
        },
        "gauges": ["worker_peak_rss_kb"],
        "timers": ["checkpoint_io", "execute", "plan"],
    },
    "packets_sampled_from": 291093,
    "pool_rebuilds": 0,
    "quarantined": [_CRASHED],
    "retries": 3,
    "shards": [
        {"cached": False, "key": key, "packets": 26463}
        for key in (
            "full/systematic/g2/r0",
            "full/systematic/g2/r1",
            "full/systematic/g4/r0",
            "full/systematic/g4/r1",
            "full/systematic/g8/r0",
            "full/systematic/g8/r1",
            "full/stratified/g2/r0",
            "full/stratified/g2/r1",
            "full/stratified/g4/r0",
            "full/stratified/g8/r0",
            "full/stratified/g8/r1",
        )
    ],
    "shards_executed": 11,
    "shards_skipped": 0,
    "shards_total": 12,
}

PINNED_EVENT_KINDS = [
    "run_start",
    "fault_injected",
    "retry",
    "fault_injected",
    "retry",
    "fault_injected",
    "retry",
    "fault_injected",
    "quarantine",
    "run_end",
]

PINNED_SAMPLE_NAMES = [
    "repro_faults_injected_total",
    "repro_packets_sampled_total",
    "repro_packets_scanned_total",
    "repro_shards_completed_total",
    "repro_shards_quarantined_total",
    "repro_shards_replayed_total",
    "repro_shards_retried_total",
    "repro_worker_peak_rss_kb",
] + [
    '%s{span="%s"}' % (family, span)
    for family in (
        "repro_span_seconds_total",
        "repro_span_count",
        "repro_span_seconds_max",
    )
    for span in ("checkpoint_io", "execute", "plan")
]


class TestPinnedRunRecord:
    """A faulted serial sweep writes the same run record, timings aside.

    One ``error`` and one ``corrupt`` fault retry to success; a
    ``crash`` on every attempt is quarantined at ``max_attempts=2``.
    """

    @pytest.fixture(scope="class")
    def run_dir(self, minute_trace, tmp_path_factory):
        grid = ExperimentGrid(
            methods=("systematic", "stratified"),
            granularities=(2, 4, 8),
            replications=2,
            seed=11,
        )
        shards = GridPlanner(grid).shards()
        plan = (
            FaultPlan()
            .inject(shards[1].key, Fault("error"))
            .inject(shards[6].key, Fault("corrupt"))
            .inject(shards[9].key, Fault("crash"), attempts=None)
        )
        run_dir = str(tmp_path_factory.mktemp("pinned") / "run")
        runner = ParallelRunner(
            run_dir=run_dir, fault_plan=plan, max_attempts=2, retry_backoff_s=0.001
        )
        with pytest.warns(QuarantinedShards):
            runner.run(grid, minute_trace)
        return run_dir

    def test_manifest_outcome(self, run_dir):
        with open(os.path.join(run_dir, "manifest.json")) as stream:
            manifest = json.load(stream)
        kept = {k: v for k, v in manifest.items() if k not in _TIMING_FIELDS}
        kept["shards"] = [
            {k: v for k, v in shard.items() if k not in _SHARD_TIMING_FIELDS}
            for shard in manifest["shards"]
        ]
        obs = manifest["obs"]
        kept["obs"] = {
            "counters": obs["counters"],
            "gauges": sorted(obs["gauges"]),
            "timers": sorted(obs["timers"]),
        }
        assert kept == PINNED_MANIFEST

    def test_event_kinds(self, run_dir):
        events = read_events(os.path.join(run_dir, EVENTS_FILENAME))
        assert [event.kind for event in events] == PINNED_EVENT_KINDS

    def test_report_counts_the_planned_shards(self, run_dir):
        """The quarantined shard is one of the run's total."""
        text = RunReport.from_run_dir(run_dir).render()
        assert "12 total / 11 executed / 0 replayed / 1 quarantined" in text

    def test_metric_sample_names(self, run_dir):
        with open(os.path.join(run_dir, "metrics.prom")) as stream:
            lines = stream.read().splitlines()
        names = [line.rsplit(" ", 1)[0] for line in lines if not line.startswith("#")]
        assert names == PINNED_SAMPLE_NAMES


class TestDeterminismContract:
    def test_instrumented_run_is_bit_identical(
        self, faulted_run, grid, minute_trace
    ):
        """Profiling, events, and fault recovery never change results."""
        _, _, instrumented = faulted_run
        plain = ParallelRunner().run(grid, minute_trace)
        assert [record_to_json(r) for r in instrumented.records] == [
            record_to_json(r) for r in plain.records
        ]

    def test_runner_without_run_dir_writes_no_file(
        self, grid, minute_trace, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        runner = ParallelRunner()
        runner.run(grid, minute_trace)
        assert os.listdir(tmp_path) == []
        kinds = [event["kind"] for event in runner.last_obs.events]
        assert kinds == ["run_start", "run_end"]


class TestOneEventRecord:
    """The run's registry is the one record of its recovery events."""

    def test_disabled_registry_refused(self):
        with pytest.raises(ValueError, match="live Instrumentation"):
            ParallelRunner(obs=NULL_OBS)

    def test_manifest_counts_only_this_runs_events(
        self, faulted_run, grid, minute_trace
    ):
        _, shard, _ = faulted_run
        obs = Instrumentation()
        obs.event("retry", shard="earlier/work/g2/r0", attempt=1, detail="x")
        obs.event("quarantine", shard="earlier/work/g2/r0", attempt=3)
        plan = FaultPlan().inject(shard.key, Fault("error"))
        runner = ParallelRunner(fault_plan=plan, retry_backoff_s=0.001, obs=obs)
        runner.run(grid, minute_trace)
        summary = runner.last_telemetry.summary()
        assert summary["retries"] == 1
        assert summary["quarantined"] == []
        assert [e["kind"] for e in summary["events"]] == ["fault_injected", "retry"]
        assert summary["obs"]["counters"]["shards_retried"] == 1
