"""The execution engine's front door: sharded, parallel, resumable runs.

:class:`ParallelRunner` turns a declarative
:class:`~repro.core.evaluation.experiment.ExperimentGrid` into a
completed :class:`~repro.core.evaluation.experiment.ExperimentResult`:

1. :class:`~repro.engine.planner.GridPlanner` expands the grid into
   independent shards;
2. completed shards from a previous run are replayed from the
   checkpoint journal (``resume=True``) and skipped;
3. the rest execute either inline (``jobs=1``) or on a
   ``ProcessPoolExecutor`` whose workers map the parent trace's column
   files — the trace store's own files on a warm cache hit, otherwise
   one spill to a private temp dir; no per-task pickling of packet
   columns;
4. per-shard records are journaled as they complete and merged in
   canonical sweep order, so the result is bit-identical to a serial
   run regardless of worker count, scheduling, or interruptions.

The engine is deliberately agnostic about *what* a shard computes —
that lives in :mod:`repro.engine.worker` — and owns only scheduling,
durability, and telemetry.

Failure model
-------------
A production-scale sweep must survive partial failure without
corrupting estimates, so every way a shard can go wrong maps to a
bounded, reported recovery:

* **worker exception** (including injected ``error`` faults) — the
  attempt failed; retry with exponential backoff + deterministic
  jitter, up to ``max_attempts``;
* **worker death** (``os._exit``, SIGKILL, OOM) — the pool breaks; the
  dead worker's breadcrumb names the shard it was holding, which is
  charged an attempt, every other in-flight shard is requeued free
  (the teardown SIGTERMs the surviving workers, and a worker that
  exited by SIGTERM is never charged), and the pool is rebuilt;
* **hang / straggler** — a shard running past ``shard_timeout_s`` is
  charged an attempt, the pool (the only way to preempt a stuck
  worker) is killed and rebuilt, and innocents are requeued free;
* **corrupted result** — the worker-computed integrity digest fails to
  verify in the parent; the attempt failed, retry;
* **poison shard** — a shard that exhausts ``max_attempts`` is
  *quarantined*: recorded in the checkpoint journal and the run
  manifest, excluded from the merged result, and the sweep continues;
* **repeated pool collapse** — after ``max_pool_rebuilds`` rebuilds the
  engine degrades to serial in-process execution for the remainder
  (slow beats dead).

Because shards are idempotent and cell-seeded, a retried or re-executed
shard produces bit-identical records, so none of the recovery paths
perturb results.  Deterministic fault injection
(:class:`~repro.engine.faults.FaultPlan`, ``fault_plan=...`` /
``--chaos``) exercises each path reproducibly.
"""

import os
import shutil
import signal
import time
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.evaluation.experiment import (
    ExperimentGrid,
    ExperimentRecord,
    ExperimentResult,
)
from repro.engine.checkpoint import CheckpointJournal
from repro.engine.faults import (
    FaultPlan,
    PoolCrashError,
    ShardCorruptionError,
    ShardTimeoutError,
)
from repro.engine.planner import GridPlanner, Shard
from repro.engine.sharedtrace import (
    TraceBuffer,
    owned_temp_dir,
    publish_trace,
    reap_stale_dirs,
)
from repro.engine.telemetry import RunTelemetry
from repro.engine.worker import (
    ShardContext,
    ShardResult,
    execute_shard_with_faults,
    init_worker,
    records_digest,
    run_shard_task,
)
from repro.obs.events import write_run_dir
from repro.obs.instrument import Instrumentation
from repro.trace.trace import Trace

#: Called after each shard reaches a terminal state (completed,
#: replayed, or quarantined): (shard key, done count, total).
ProgressCallback = Callable[[str, int, int], None]

#: Supervision-loop polling interval (seconds).  Bounds how stale the
#: timeout scan and backoff release can be; completions wake the loop
#: immediately via ``wait``.
_TICK_S = 0.05

#: How long a pool teardown waits for its SIGTERMed workers to exit.
_JOIN_S = 5.0


class QuarantinedShards(UserWarning):
    """Emitted when a sweep completes with shards quarantined."""


class ParallelRunner:
    """Executes experiment grids as fault-tolerant sharded task graphs.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` runs every shard inline in this
        process (no pool, no published trace) — the results are
        bit-identical either way.
    run_dir:
        Directory for the checkpoint journal and run manifest.  Without
        one the run is neither resumable nor telemetered to disk.
    resume:
        Replay completed shards from ``run_dir``'s journal instead of
        re-executing them.  Refused (``CheckpointError``) if the
        journal was written by a different grid or trace.
    progress:
        Optional callback fired after every shard (completed, replayed,
        or quarantined); exceptions it raises abort the run *after* the
        current shard has been journaled, which is what makes
        interruption safe at any point.
    max_attempts:
        Executions a shard may consume (first try included) before it
        is quarantined and the sweep moves on.
    retry_backoff_s:
        Base of the exponential backoff between a shard's attempts
        (``base * 2**(attempt-1)`` plus deterministic jitter in
        ``[0, base)`` keyed on the shard).
    shard_timeout_s:
        Wall-clock deadline per shard execution in pool mode; a shard
        exceeding it is failed and the pool rebuilt (the only way to
        preempt a stuck worker).  ``None`` disables the deadline.
    max_pool_rebuilds:
        Pool collapses (crash or timeout kill) tolerated before the
        engine stops rebuilding and degrades to serial execution.
    fault_plan:
        Deterministic fault injection for chaos testing (see
        :mod:`repro.engine.faults`).  ``None`` injects nothing.
    profile:
        Record ``span_start``/``span_end`` events for every engine
        span in the event log (deep-dive mode).  Timers, counters,
        gauges and recovery events are recorded on every run, profile
        or not.
    obs:
        An externally owned :class:`~repro.obs.Instrumentation` to
        record into (the CLI passes one so the trace-read span lands in
        the same log).  Defaults to a fresh instance per run.  The
        registry is the run's one record of its recovery events, so a
        disabled one (``NULL_OBS``) is refused.  Recording never
        changes the sweep's records.
    """

    def __init__(
        self,
        jobs: int = 1,
        run_dir: Optional[str] = None,
        resume: bool = False,
        progress: Optional[ProgressCallback] = None,
        max_attempts: int = 3,
        retry_backoff_s: float = 0.05,
        shard_timeout_s: Optional[float] = None,
        max_pool_rebuilds: int = 3,
        fault_plan: Optional[FaultPlan] = None,
        profile: bool = False,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1, got %d" % jobs)
        if resume and run_dir is None:
            raise ValueError("resume requires a run_dir")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1, got %d" % max_attempts)
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        if shard_timeout_s is not None and shard_timeout_s <= 0:
            raise ValueError("shard_timeout_s must be positive or None")
        if max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        if obs is not None and not obs.enabled:
            raise ValueError(
                "obs must be a live Instrumentation: the run's recovery "
                "events are counted from it"
            )
        self.jobs = jobs
        self.run_dir = run_dir
        self.resume = resume
        self.progress = progress
        self.max_attempts = max_attempts
        self.retry_backoff_s = retry_backoff_s
        self.shard_timeout_s = shard_timeout_s
        self.max_pool_rebuilds = max_pool_rebuilds
        self.fault_plan = fault_plan
        self.profile = profile
        self.obs = obs
        #: Telemetry of the most recent :meth:`run`, for inspection.
        self.last_telemetry: Optional[RunTelemetry] = None
        #: Instrumentation of the most recent :meth:`run`.
        self.last_obs: Optional[Instrumentation] = None
        #: Quarantined shards of the most recent run: key -> error text.
        self.quarantined: Dict[str, str] = {}

    def run(self, grid: ExperimentGrid, trace: Trace) -> ExperimentResult:
        """Execute the sweep; returns the merged, ordered result.

        Shards that exhaust their attempts are quarantined rather than
        aborting the sweep: their records are absent from the result,
        they are listed in :attr:`quarantined` and the run manifest,
        and a :class:`QuarantinedShards` warning is emitted — detected
        and reported, never silently absorbed.
        """
        obs = self.obs
        if obs is None:
            obs = Instrumentation(profile=self.profile)
        self.last_obs = obs
        obs.event("run_start", jobs=self.jobs)

        with obs.span("plan"):
            planner = GridPlanner(grid)
            shards = planner.shards()
        telemetry = RunTelemetry(self.jobs, obs=obs)
        self.last_telemetry = telemetry
        if self.fault_plan is not None:
            telemetry.chaos = self.fault_plan.describe()

        journal: Optional[CheckpointJournal] = None
        done: Dict[str, List[ExperimentRecord]] = {}
        if self.run_dir is not None:
            journal = CheckpointJournal(
                self.run_dir,
                planner.fingerprint(len(trace), trace.duration_us),
            )
            if self.resume:
                with obs.span("resume_replay"):
                    done = journal.load()
            journal.start(fresh=not self.resume)

        execution = _Execution(self, grid, trace, shards, journal, telemetry)
        replayed = obs.counter("shards_replayed")
        for shard in shards:
            if shard.key in done:
                execution.completed[shard.index] = done[shard.key]
                replayed.inc()
                telemetry.add(
                    ShardResult(
                        shard.index, shard.key, done[shard.key], 0, cached=True
                    )
                )
                execution.report(shard.key)
        pending = [s for s in shards if s.index not in execution.completed]

        try:
            if pending:
                with obs.span("execute"):
                    if self.jobs == 1:
                        execution.run_serial(pending)
                    else:
                        execution.run_pool(pending)
        finally:
            telemetry.finish()
            if journal is not None:
                journal.close()
            obs.event(
                "run_end",
                shards_completed=len(execution.completed),
                shards_quarantined=len(execution.quarantined),
                wall_s=round(telemetry.wall_s, 6),
            )
            if self.run_dir is not None:
                write_run_dir(self.run_dir, obs)
                telemetry.write_manifest(self.run_dir)

        self.quarantined = dict(execution.quarantined)
        records: List[ExperimentRecord] = []
        for shard in shards:
            if shard.index in execution.completed:
                records.extend(execution.completed[shard.index])
        if self.quarantined:
            warnings.warn(
                "%d shard(s) quarantined after %d attempts each and "
                "excluded from the result: %s (see the run manifest)"
                % (
                    len(self.quarantined),
                    self.max_attempts,
                    ", ".join(sorted(self.quarantined)),
                ),
                QuarantinedShards,
                stacklevel=2,
            )
        return ExperimentResult(records=tuple(records))


class _Execution:
    """One run's mutable scheduling state and recovery machinery."""

    def __init__(
        self,
        runner: ParallelRunner,
        grid: ExperimentGrid,
        trace: Trace,
        shards: Tuple[Shard, ...],
        journal: Optional[CheckpointJournal],
        telemetry: RunTelemetry,
    ) -> None:
        self.runner = runner
        self.grid = grid
        self.trace = trace
        self.total = len(shards)
        self.journal = journal
        self.telemetry = telemetry
        self.obs = telemetry.obs
        self.completed: Dict[int, List[ExperimentRecord]] = {}
        self.quarantined: Dict[str, str] = {}
        #: Failed executions consumed so far, by shard index.
        self.attempts: Dict[int, int] = {}
        # Hot-path metrics, resolved once (dict lookups off the shard loop).
        self._c_completed = self.obs.counter("shards_completed")
        self._c_scanned = self.obs.counter("packets_scanned")
        self._c_sampled = self.obs.counter("packets_sampled")

    # ------------------------------------------------------------------
    # shared bookkeeping

    def report(self, key: str) -> None:
        if self.runner.progress is not None:
            done = len(self.completed) + len(self.quarantined)
            self.runner.progress(key, done, self.total)

    def complete(self, shard: Shard, result: ShardResult) -> None:
        """Journal-then-account for one freshly executed shard."""
        records = result.records
        if self.journal is not None:
            with self.obs.span("checkpoint_io"):
                self.journal.append(shard.key, records)
        self.completed[shard.index] = records
        self._c_completed.inc()
        self._c_scanned.inc(result.packets)
        if records:
            # Every record of a shard scores the same drawn sample, so
            # the first one carries the shard's sample size.
            self._c_sampled.inc(records[0].score.sample_size)
        if self.obs.profile:
            self.obs.event(
                "shard_done",
                shard=shard.key,
                worker=result.worker,
                wall_s=round(result.wall_s, 6),
                packets=result.packets,
            )
        self.telemetry.add(result)
        self.report(shard.key)

    def note_injected_fault(self, shard: Shard, attempt: int) -> None:
        """Make an about-to-fire injected fault observable.

        The parent consults the fault plan with exactly the worker's
        inputs — the plan is a pure function of (seed, shard key,
        attempt) — so even a fault that kills the worker before it can
        say anything (``crash``) still lands in the event log.
        """
        plan = self.runner.fault_plan
        if plan is None:
            return
        fault = plan.fault_for(shard.key, attempt)
        if fault is not None:
            self.telemetry.record_event(
                "fault_injected",
                shard=shard.key,
                attempt=attempt,
                detail=fault.kind,
            )

    def verify(self, shard: Shard, result: ShardResult) -> None:
        """Integrity-check a received result; raises on any mismatch."""
        if result.index != shard.index or result.key != shard.key:
            raise ShardCorruptionError(
                "result for shard %s arrived labeled %s" % (shard.key, result.key)
            )
        digest = records_digest(result.packets, result.records, result.flows)
        if digest != result.digest:
            raise ShardCorruptionError(
                "result for shard %s failed its integrity digest" % shard.key
            )

    def register_failure(self, shard: Shard, exc: BaseException) -> bool:
        """Account one failed attempt; ``True`` means retry, ``False``
        means the shard was quarantined."""
        used = self.attempts.get(shard.index, 0) + 1
        self.attempts[shard.index] = used
        detail = "%s: %s" % (type(exc).__name__, exc)
        if used >= self.runner.max_attempts:
            self.quarantined[shard.key] = detail
            if self.journal is not None:
                self.journal.append_quarantine(shard.key, used, detail)
            self.telemetry.record_event(
                "quarantine", shard=shard.key, attempt=used, detail=detail
            )
            self.report(shard.key)
            return False
        self.telemetry.record_event(
            "retry", shard=shard.key, attempt=used, detail=detail
        )
        return True

    def backoff_delay(self, shard: Shard) -> float:
        """Exponential backoff with deterministic per-shard jitter."""
        attempt = self.attempts.get(shard.index, 1)
        base = self.runner.retry_backoff_s
        jitter = Random("%s|%d" % (shard.key, attempt)).random() * base
        return base * 2.0 ** (attempt - 1) + jitter

    # ------------------------------------------------------------------
    # serial execution (jobs=1, and the degraded-mode fallback)

    def run_serial(self, pending: List[Shard]) -> None:
        context = ShardContext(self.trace, self.grid)
        for shard in pending:
            while True:
                attempt = self.attempts.get(shard.index, 0)
                self.note_injected_fault(shard, attempt)
                try:
                    result = execute_shard_with_faults(
                        context,
                        shard,
                        attempt,
                        self.runner.fault_plan,
                        in_pool=False,
                    )
                    self.verify(shard, result)
                except Exception as exc:
                    if not self.register_failure(shard, exc):
                        break  # quarantined
                    time.sleep(self.backoff_delay(shard))
                    continue
                self.complete(shard, result)
                break

    # ------------------------------------------------------------------
    # pool execution

    def run_pool(self, pending: List[Shard]) -> None:
        reap_stale_dirs()
        crumb_dir = owned_temp_dir("crumbs")
        try:
            # The span and the gauge keep their names from when the
            # trace was copied into shared memory: perfbench reads the
            # span, and every sweep's metrics.prom carries the gauge.
            with self.obs.span("shared_memory_publish"):
                buffer = publish_trace(self.trace)
            self.obs.gauge("shared_memory_bytes").set(buffer.nbytes)
            with buffer:
                self._supervise(pending, buffer, crumb_dir)
        finally:
            shutil.rmtree(crumb_dir, ignore_errors=True)

    def _new_pool(
        self, buffer: TraceBuffer, crumb_dir: str
    ) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.runner.jobs,
            initializer=init_worker,
            initargs=(buffer.spec, self.grid, self.runner.fault_plan, crumb_dir),
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> Dict[int, Optional[int]]:
        """Tear a pool down *now*, stuck workers included.

        Returns each worker's exit code by pid, read once the worker is
        joined (``None`` if it did not exit within :data:`_JOIN_S`):
        when the parent first sees a broken pool, CPython's teardown may
        not have SIGTERMed the survivors yet.
        """
        # shutdown() drops the executor's process table: read it first.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        # wait=False: the terminated workers may never drain their
        # queues; the executor's threads clean themselves up once the
        # dead processes are reaped.
        pool.shutdown(wait=False, cancel_futures=True)
        codes: Dict[int, Optional[int]] = {}
        deadline = time.monotonic() + _JOIN_S
        for process in processes:
            # The executor's own thread may reap a worker first; its
            # exit code then reaches this handle a moment later.
            while process.exitcode is None and time.monotonic() < deadline:
                process.join(_TICK_S)
            codes[process.pid] = process.exitcode
        return codes

    def _blamed_indices(
        self, crumb_dir: str, exit_codes: Dict[int, Optional[int]]
    ) -> set:
        """Shards dead workers were holding (and clear the breadcrumbs).

        A breadcrumb is named for its worker's pid.  A worker that exited
        by SIGTERM was killed by the pool teardown — CPython's, or
        :meth:`_kill_pool`'s — whatever shard it held, so its breadcrumb
        charges nobody; any other exit (an injected crash's 86, an OOM
        kill's -9, or no exit code at all) charges the shard it names.
        """
        blamed = set()
        try:
            names = os.listdir(crumb_dir)
        except OSError:
            return blamed
        for name in names:
            path = os.path.join(crumb_dir, name)
            try:
                with open(path) as stream:
                    text = stream.read().strip()
                os.remove(path)
            except OSError:
                continue
            killed = name.isdigit() and exit_codes.get(int(name)) == -signal.SIGTERM
            if text.isdigit() and not killed:
                blamed.add(int(text))
        return blamed

    def _supervise(
        self, pending: List[Shard], buffer: TraceBuffer, crumb_dir: str
    ) -> None:
        """The pool supervision loop: submit, collect, recover."""
        runner = self.runner
        pool: Optional[ProcessPoolExecutor] = self._new_pool(buffer, crumb_dir)
        rebuilds = 0
        queue: deque = deque(pending)
        delayed: List[Tuple[float, Shard]] = []  # (due monotonic, shard)
        inflight: Dict[Future, List] = {}  # future -> [shard, running_since]

        def charge(shard: Shard, exc: BaseException) -> None:
            """Fail one attempt; a shard with attempts left retries
            after its backoff."""
            if self.register_failure(shard, exc):
                delayed.append((time.monotonic() + self.backoff_delay(shard), shard))

        def recover(reason: str) -> bool:
            """Kill + rebuild (or degrade); returns False on degrade."""
            nonlocal pool, rebuilds
            exit_codes = self._kill_pool(pool)
            rebuilds += 1
            self.telemetry.record_event("pool_rebuild", detail=reason)
            blamed = self._blamed_indices(crumb_dir, exit_codes)
            for shard, _ in inflight.values():
                if shard.index in blamed:
                    charge(shard, PoolCrashError(reason))
                else:
                    queue.append(shard)  # innocent bystander, no charge
            inflight.clear()
            if rebuilds > runner.max_pool_rebuilds:
                self.telemetry.record_event(
                    "serial_fallback",
                    detail="pool collapsed %d times; finishing serially"
                    % rebuilds,
                )
                pool = None
                return False
            pool = self._new_pool(buffer, crumb_dir)
            return True

        try:
            while queue or delayed or inflight:
                now = time.monotonic()
                if delayed:
                    due = [s for t, s in delayed if t <= now]
                    delayed = [(t, s) for t, s in delayed if t > now]
                    queue.extend(due)

                while queue:
                    shard = queue.popleft()
                    attempt = self.attempts.get(shard.index, 0)
                    try:
                        future = pool.submit(run_shard_task, shard, attempt)
                    except (BrokenExecutor, RuntimeError):
                        queue.appendleft(shard)
                        if not recover("pool broken at submit"):
                            break
                        continue
                    # Observed only after a successful submit, so a
                    # broken-pool resubmit does not double-log it.
                    self.note_injected_fault(shard, attempt)
                    inflight[future] = [shard, None]
                if pool is None:
                    break  # degraded

                if not inflight:
                    if delayed:
                        next_due = min(t for t, _ in delayed)
                        time.sleep(max(0.0, next_due - time.monotonic()))
                    continue

                finished, _ = wait(
                    set(inflight), timeout=_TICK_S, return_when=FIRST_COMPLETED
                )
                pool_broke = False
                for future in finished:
                    shard, _ = inflight.pop(future)
                    try:
                        result = future.result()
                        self.verify(shard, result)
                    except BrokenExecutor:
                        # Every in-flight future is dead with the pool;
                        # put this one back so recovery sees them all.
                        inflight[future] = [shard, None]
                        pool_broke = True
                        break
                    except Exception as exc:
                        charge(shard, exc)
                        continue
                    self.complete(shard, result)
                if pool_broke:
                    if not recover("worker process died"):
                        break
                    continue

                # Deadline scan: start a shard's clock when it is first
                # observed running, fail it once the deadline passes.
                now = time.monotonic()
                expired: Optional[Tuple[Future, Shard]] = None
                for future, entry in inflight.items():
                    shard, running_since = entry
                    if running_since is None:
                        if future.running():
                            entry[1] = now
                    elif (
                        runner.shard_timeout_s is not None
                        and now - running_since > runner.shard_timeout_s
                    ):
                        expired = (future, shard)
                        break
                if expired is not None:
                    future, shard = expired
                    inflight.pop(future)
                    charge(
                        shard,
                        ShardTimeoutError(
                            "shard %s exceeded its %.3gs deadline"
                            % (shard.key, runner.shard_timeout_s)
                        ),
                    )
                    # A stuck worker can only be preempted by tearing
                    # the pool down around it.  The teardown SIGTERMs
                    # every worker, so no breadcrumb charges the
                    # timed-out shard again, nor any sibling.
                    if not recover("killed pool to preempt %s" % shard.key):
                        break
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

        remaining = sorted(
            (
                [s for s in queue]
                + [s for _, s in delayed]
                + [s for s, _ in inflight.values()]
            ),
            key=lambda s: s.index,
        )
        if remaining:
            # Degraded mode: slow beats dead.  Same retry/quarantine
            # accounting, same shard code path, no pool.
            self.run_serial(remaining)

