"""Shard execution — the one code path both serial and parallel runs use.

Bit-identical parallelism is not an optimization property here, it is a
correctness contract, and the cheapest way to honor it is to have
exactly one implementation of "run a shard": the serial runner calls
:func:`execute_shard` inline; pool workers call it through the
module-level task function after mapping the published trace's column
files.  There is no second "fast path" to drift.

Per-process caching: window extraction, population proportions, and
attribute arrays are O(population) per (interval, target) pair and are
identical for every shard of an interval, so each process memoizes
them in its :class:`ShardContext`.  The cache affects only speed —
cached and uncached shards produce the same records.

Fault tolerance plumbing lives at this layer too, because it must be
common to both paths:

* :func:`execute_shard_with_faults` runs one timed attempt under the
  run's :class:`~repro.engine.faults.FaultPlan` (if any), consulted
  before and after the real work so injected crashes/hangs/corruption
  hit exactly where a real failure would, and returns the attempt as
  one :class:`ShardResult` — the inline path and the pool task alike;
* every result carries an integrity digest computed over its canonical
  JSON form *at the worker*, which the parent recomputes — a corrupted
  or misrouted result is a retryable failure, never a silent merge;
* pool workers drop a breadcrumb file naming the shard they are
  executing, so when a worker dies abruptly the parent knows which
  shard to blame instead of penalizing everything in flight (a worker
  the pool teardown itself SIGTERMed is never blamed);
* a pool worker ends itself once the process that started it is gone,
  so a SIGKILLed run leaves no worker behind.
"""

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.evaluation.comparison import (
    population_proportions,
    score_sample,
)
from repro.core.evaluation.experiment import ExperimentGrid, ExperimentRecord
from repro.engine.checkpoint import record_to_json
from repro.engine.faults import (
    FaultPlan,
    InjectedFaultError,
    ShardTimeoutError,
)
from repro.engine.planner import Shard, shard_rng
from repro.engine.sharedtrace import MemmapTraceSpec, attach_trace
from repro.trace.filters import prefix_interval
from repro.trace.trace import Trace

#: Exit status of an injected worker crash (visible in core dumps/strace).
CRASH_EXIT_CODE = 86

#: How often a pool worker checks that its parent is still alive.
_PARENT_POLL_S = 0.25


@dataclass(frozen=True)
class ShardResult:
    """One shard attempt's outcome, as the parent receives it.

    The inline path and the pool task return the same record; the
    parent verifies it, journals its records and keeps it as the
    shard's manifest entry.  A shard replayed from the checkpoint
    journal is one too, with ``cached=True`` and no timings.
    """

    index: int
    key: str
    records: List[ExperimentRecord]
    packets: int  # window size the shard sampled from
    #: Flow-level summary when the grid enables ``flow_stats``.
    flows: Optional[Dict[str, float]] = None
    #: Integrity digest taken at the worker, before any corruption.
    digest: str = ""
    worker: int = 0  # pid of the executing process
    wall_s: float = 0.0
    #: Per-phase busy seconds (window/sample/score/flows).
    phases: Dict[str, float] = field(default_factory=dict)
    #: Peak RSS of the executing process in KiB (0 when unknown).
    maxrss_kb: int = 0
    cached: bool = False  # replayed from a checkpoint, not executed


class ShardContext:
    """Per-process state: the parent trace plus interval-keyed caches."""

    def __init__(self, trace: Trace, grid: ExperimentGrid) -> None:
        self.trace = trace
        self.grid = grid
        self._full_proportions: Optional[Dict[str, np.ndarray]] = None
        self._windows: Dict[
            Optional[int],
            Tuple[Trace, Dict[str, np.ndarray], Dict[str, np.ndarray]],
        ] = {}
        self._flow_parents: Dict[Optional[int], object] = {}

    def parent_flowset(self, interval_us: Optional[int], window: Trace):
        """The window's ground-truth flow population (``flow_stats``).

        Aggregating the parent is O(window) and identical for every
        shard of an interval, so it is memoized per process exactly
        like the window itself.
        """
        if interval_us not in self._flow_parents:
            from repro.flows.sampled import parent_flows

            self._flow_parents[interval_us] = parent_flows(window)
        return self._flow_parents[interval_us]

    def full_proportions(self) -> Dict[str, np.ndarray]:
        if self._full_proportions is None:
            self._full_proportions = {
                t.name: population_proportions(self.trace, t)
                for t in self.grid.targets
            }
        return self._full_proportions

    def window(
        self, interval_us: Optional[int]
    ) -> Tuple[Trace, Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """The interval's window, scoring proportions, and attributes."""
        if interval_us not in self._windows:
            window = (
                self.trace
                if interval_us is None
                else prefix_interval(self.trace, interval_us)
            )
            if len(window):
                if self.grid.score_against == "full":
                    proportions = self.full_proportions()
                else:
                    proportions = {
                        t.name: population_proportions(window, t)
                        for t in self.grid.targets
                    }
                values = {
                    t.name: t.attribute_values(window)
                    for t in self.grid.targets
                }
            else:
                proportions, values = {}, {}
            self._windows[interval_us] = (window, proportions, values)
        return self._windows[interval_us]


def execute_shard(
    context: ShardContext,
    shard: Shard,
    phases: Optional[Dict[str, float]] = None,
) -> Tuple[List[ExperimentRecord], int, Optional[Dict[str, float]]]:
    """Run one cell: draw the sample, score it against every target.

    Returns the shard's records (target order matches the grid's), the
    window size for throughput telemetry, and — when the grid asks for
    ``flow_stats`` — the shard's flow-level summary (``None``
    otherwise).  An empty window yields no records, matching the
    serial harness's behavior of skipping intervals that contain no
    packets.

    When ``phases`` is a dict, the per-phase busy seconds of this
    execution (``window`` extraction, ``sample`` drawing, ``score``,
    and ``flows`` when enabled) are accumulated into it —
    monotonic-clock deltas only, and never an input to the
    computation, so the records are identical with or without timing.
    Flow accounting runs strictly *after* the sample is drawn and
    scored, so it cannot perturb either.
    """
    marks = time.perf_counter if phases is not None else None
    t0 = marks() if marks else 0.0
    window, proportions, values = context.window(shard.interval_us)
    if marks:
        phases["window"] = phases.get("window", 0.0) + marks() - t0
    if not len(window):
        return [], 0, None
    grid = context.grid
    # An interval that covers the whole trace is the full-trace cell:
    # identical windows must yield identical records, so the seed is
    # keyed on the effective window, not the requested length.
    effective_interval = shard.interval_us
    if effective_interval is not None and len(window) == len(context.trace):
        effective_interval = None
    t0 = marks() if marks else 0.0
    rng = shard_rng(grid.seed, shard, interval_us=effective_interval)
    sampler = shard.spec.build(trace=window, rng=rng)
    result = sampler.sample(window, rng=rng)
    if marks:
        phases["sample"] = phases.get("sample", 0.0) + marks() - t0
        t0 = marks()
    records = []
    for target in grid.targets:
        score = score_sample(
            window,
            result,
            target,
            proportions=proportions[target.name],
            attribute_values=values[target.name],
        )
        records.append(
            ExperimentRecord(
                target=target.name,
                method=shard.spec.method,
                granularity=shard.spec.granularity,
                interval_us=shard.interval_us,
                replication=shard.replication,
                score=score,
            )
        )
    if marks:
        phases["score"] = phases.get("score", 0.0) + marks() - t0
    flows: Optional[Dict[str, float]] = None
    if grid.flow_stats:
        from repro.flows.sampled import shard_flow_summary

        t0 = marks() if marks else 0.0
        flows = shard_flow_summary(
            window,
            result.indices,
            parent=context.parent_flowset(shard.interval_us, window),
        )
        if marks:
            phases["flows"] = phases.get("flows", 0.0) + marks() - t0
    return records, len(window), flows


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (0 if unknowable).

    ``resource`` is Unix-only and ``ru_maxrss`` is kibibytes on Linux;
    a platform without it simply reports 0 rather than failing the
    shard.
    """
    try:
        import resource
    except ImportError:
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# ----------------------------------------------------------------------
# result integrity

def records_digest(
    packets: int,
    records: List[ExperimentRecord],
    flows: Optional[Dict[str, float]] = None,
) -> str:
    """Integrity digest over a shard's result payload.

    Computed at the worker over the canonical JSON form and recomputed
    by the parent on receipt; any divergence (a corrupted score, a
    dropped record, a wrong packet count, a damaged flow summary)
    turns into a retryable
    :class:`~repro.engine.faults.ShardCorruptionError` instead of a
    silently wrong merge.  The flow summary joins the payload only
    when present, so digests of runs without ``flow_stats`` are
    unchanged (old checkpoint journals stay valid).
    """
    body: List[object] = [packets, [record_to_json(r) for r in records]]
    if flows is not None:
        body.append(flows)
    payload = json.dumps(body, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _corrupted(
    records: List[ExperimentRecord], packets: int
) -> Tuple[List[ExperimentRecord], int]:
    """A detectably damaged copy of a shard result (for ``corrupt``)."""
    if records:
        head = records[0]
        return [replace(head, replication=head.replication + 7919)] + list(
            records[1:]
        ), packets
    return records, packets + 1


def execute_shard_with_faults(
    context: ShardContext,
    shard: Shard,
    attempt: int,
    fault_plan: Optional[FaultPlan],
    in_pool: bool,
) -> ShardResult:
    """Run one timed shard attempt under the run's fault plan.

    The digest is computed *before* an injected corruption mutates the
    payload — exactly the ordering a real memory/transport corruption
    would have — so the parent's recomputation catches it.  The wall
    time covers the whole attempt, an injected delay included.
    """
    started = time.perf_counter()
    fault = (
        fault_plan.fault_for(shard.key, attempt)
        if fault_plan is not None
        else None
    )
    if fault is not None:
        if fault.kind == "crash":
            if in_pool:
                os._exit(CRASH_EXIT_CODE)
            raise InjectedFaultError(
                "injected crash at %s (attempt %d)" % (shard.key, attempt)
            )
        if fault.kind == "hang":
            if in_pool:
                # Sleep past the parent's deadline; the parent kills the
                # pool long before this returns.  If no timeout is set
                # the hang eventually resolves into a (very) slow shard.
                time.sleep(fault.hang_s)
            else:
                raise ShardTimeoutError(
                    "injected hang at %s (attempt %d)" % (shard.key, attempt)
                )
        if fault.kind == "error":
            raise InjectedFaultError(
                "injected error at %s (attempt %d)" % (shard.key, attempt)
            )
        if fault.kind == "slow":
            time.sleep(fault.delay_s)
    phases: Dict[str, float] = {}
    records, packets, flows = execute_shard(context, shard, phases=phases)
    digest = records_digest(packets, records, flows)
    if fault is not None and fault.kind == "corrupt":
        records, packets = _corrupted(records, packets)
    return ShardResult(
        shard.index,
        shard.key,
        records,
        packets,
        flows=flows,
        digest=digest,
        worker=os.getpid(),
        wall_s=time.perf_counter() - started,
        phases=phases,
        maxrss_kb=peak_rss_kb(),
    )


# ----------------------------------------------------------------------
# process-pool plumbing

#: Worker-global context, populated by :func:`init_worker`.  A module
#: global is the only channel a ProcessPoolExecutor task can reach
#: per-process state through.
_WORKER_CONTEXT: Optional[ShardContext] = None
_WORKER_FAULTS: Optional[FaultPlan] = None
_WORKER_CRUMB_DIR: Optional[str] = None


def init_worker(
    spec: MemmapTraceSpec,
    grid: ExperimentGrid,
    fault_plan: Optional[FaultPlan] = None,
    crumb_dir: Optional[str] = None,
) -> None:
    """Pool initializer: map the published trace, build the context.

    Runs once per worker process; the column maps live as long as the
    context's trace does.  It also starts the watch that ends the
    worker when its parent dies.
    """
    global _WORKER_CONTEXT, _WORKER_FAULTS, _WORKER_CRUMB_DIR
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),), daemon=True
    ).start()
    _WORKER_CONTEXT = ShardContext(attach_trace(spec), grid)
    _WORKER_FAULTS = fault_plan
    _WORKER_CRUMB_DIR = crumb_dir


def _exit_when_orphaned(parent: int) -> None:
    """End this process once ``parent`` is no longer its parent.

    A SIGKILLed runner cannot tear its pool down, and its workers,
    reparented, would otherwise run or sleep on.  ``PR_SET_PDEATHSIG``
    would fire when the thread that forked the worker exits, not the
    process, so the worker watches its parent pid instead.
    """
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def run_shard_task(shard: Shard, attempt: int = 0) -> ShardResult:
    """Pool task: execute one shard attempt in the initialized worker.

    The :class:`ShardResult` carries everything the parent needs for
    merging, journaling, integrity checking and telemetry, so
    observability costs no extra IPC round-trips.

    The breadcrumb written before execution names the shard this
    worker is holding; it is removed on any normal exit (including
    exceptions) but survives ``os._exit`` and any signal, which is how
    the parent attributes a dead worker to the shard that killed it.
    The parent charges it only when the worker did not exit by the
    SIGTERM of the pool teardown, which kills innocent siblings too.
    """
    if _WORKER_CONTEXT is None:
        raise RuntimeError("worker used before init_worker ran")
    crumb = None
    if _WORKER_CRUMB_DIR is not None:
        crumb = os.path.join(_WORKER_CRUMB_DIR, str(os.getpid()))
        try:
            with open(crumb, "w") as stream:
                stream.write(str(shard.index))
        except OSError:
            crumb = None
    try:
        return execute_shard_with_faults(
            _WORKER_CONTEXT, shard, attempt, _WORKER_FAULTS, in_pool=True
        )
    finally:
        if crumb is not None:
            try:
                os.remove(crumb)
            except OSError:
                pass
