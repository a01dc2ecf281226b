"""Parallel, resumable experiment execution engine.

The Section 7 sweep is an embarrassingly parallel grid — interval ×
method × granularity × replication — that the original harness executed
serially.  This subpackage runs it as a sharded task graph instead:

* :mod:`repro.engine.planner` expands a grid into independent
  :class:`~repro.engine.planner.Shard` cells, each with an RNG seeded
  from its *cell key* so results never depend on execution order;
* :mod:`repro.engine.sharedtrace` hands the parent trace to workers
  as column files they map read-only — a trace-store entry's own
  files, or one spill of an in-memory trace to a private temp dir — so
  no packet column is pickled per task;
* :mod:`repro.engine.checkpoint` journals completed shards to JSONL so
  an interrupted sweep resumes where it stopped;
* :mod:`repro.engine.telemetry` records per-shard wall time,
  throughput, and worker utilization into the run manifest;
* :mod:`repro.engine.runner` schedules it all.

Observability is layered on through :mod:`repro.obs`: the runner opens
hierarchical spans around planning, checkpoint I/O, trace
publication, and execution; workers report per-phase busy seconds
(window/sample/score) and peak RSS alongside each result; every
injected fault and recovery action becomes a structured event in the
run directory's ``events.jsonl``; and counters/gauges land in the
manifest plus a Prometheus-style ``metrics.prom``.  ``repro-traffic
report <run-dir>`` renders it all.  With no run directory and no
``profile=True`` the engine records into a shared null implementation —
no events, no files, near-zero overhead, bit-identical results.

The engine's contract: for a given grid and trace, the merged result is
**bit-identical** across ``jobs=1``, ``jobs=N``, and any
interrupt/resume sequence.  ``ExperimentGrid.run(trace, jobs=4)`` and
the CLI's ``--jobs/--resume/--run-dir`` flags are thin wrappers over
:func:`run_grid`.

Fault tolerance rides on the same shard independence
(:mod:`repro.engine.faults` + the runner's recovery machinery): failed
attempts retry with backoff, dead workers are detected and the pool
rebuilt, hung shards are preempted by deadline, poison shards are
quarantined with the sweep continuing, and a deterministic
:class:`~repro.engine.faults.FaultPlan` (CLI ``--chaos``) injects every
one of those failures on demand so the recovery paths are tested, not
hoped for.
"""

from repro.engine.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    record_from_json,
    record_to_json,
)
from repro.engine.faults import (
    Fault,
    FaultPlan,
    InjectedFaultError,
    PoolCrashError,
    ShardCorruptionError,
    ShardTimeoutError,
)
from repro.engine.planner import GridPlanner, Shard, shard_rng, shard_seed
from repro.engine.runner import ParallelRunner, QuarantinedShards, run_grid
from repro.engine.sharedtrace import (
    MemmapTraceBuffer,
    MemmapTraceSpec,
    SpilledTraceBuffer,
    attach_trace,
    publish_trace,
    reap_stale_dirs,
)
from repro.engine.telemetry import EngineEvent, RunTelemetry, ShardTiming
from repro.engine.worker import ShardContext, execute_shard, records_digest

__all__ = [
    "CheckpointError",
    "CheckpointJournal",
    "record_from_json",
    "record_to_json",
    "Fault",
    "FaultPlan",
    "InjectedFaultError",
    "PoolCrashError",
    "ShardCorruptionError",
    "ShardTimeoutError",
    "GridPlanner",
    "Shard",
    "shard_rng",
    "shard_seed",
    "ParallelRunner",
    "QuarantinedShards",
    "run_grid",
    "MemmapTraceBuffer",
    "MemmapTraceSpec",
    "SpilledTraceBuffer",
    "attach_trace",
    "publish_trace",
    "reap_stale_dirs",
    "EngineEvent",
    "RunTelemetry",
    "ShardTiming",
    "ShardContext",
    "execute_shard",
    "records_digest",
]
