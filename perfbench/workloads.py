"""The benchmark's workloads: inputs, one pass, a traced pass, a reference.

Every workload makes its inputs from the seed in set-up (generated
traces written as pcap files, plus warm :class:`TraceStore` entries for
the inputs a pass loads through the store).  A *pass* then runs the
library from those inputs to a complete result, as a user would.  The
*traced* pass runs the same work with spans around the calls into each
layer (see ``spans.py``) and returns the per-layer numbers.  The
*reference* computes, from the generated traces, outputs a pass must
reproduce, through the slower path each layer already keeps as its
oracle.  To keep a run short it covers a seed-chosen part of the work
(an eighth of the hour, one tolerance, one sampling method), so across
seeds every part is checked.

Why these two: ``online`` runs the online paths -- the production
monitor over the calibrated hour (decode, select, flows, monitor,
alerts, exposition; dominated by flow accounting and decode), then the
adaptive controller's tolerance sweep over a bursty trace loaded from
the store (selectors, monitor, controller).  ``batch`` runs the batch
studies no online path reaches: the paper's method x granularity grid
through the engine's process pool, memmap transport and checkpoint
journal (batch sampling and scoring), then the per-shard flow study,
the largest single cost in the repository, through the engine's serial
path.  Each is the other's control: the codec, the selector kernels,
the streaming flow tables, the monitor and the controller run only in
``online``; the engine, batch sampling, scoring and flow studies only
in ``batch``.  On a shared host whose speed swings by up to 1.8x for
tens of seconds, a separate adaptive workload of 0.5 s passes spread
more than its bound from run to run; in ``online`` it rides with the
4 s hour pass.
"""

import dataclasses
import hashlib
import json
import os
import shutil
from contextlib import contextmanager
from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.adaptive import (
    AccuracyFirstPolicy,
    AdaptiveController,
    AdaptivePipeline,
    ControllerConfig,
    run_adaptive,
)
from repro.cli import DEFAULT_MONITOR_RULES
from repro.core.evaluation.experiment import ExperimentGrid
from repro.core.sampling.streaming import StreamingStratified
from repro.engine import (
    CheckpointJournal,
    MemmapTraceBuffer,
    ParallelRunner,
    record_to_json,
)
from repro.engine import runner as engine_runner
from repro.fastpath import (
    FlowAccountantKernel,
    chunk_kernel_for,
    iter_trace_chunks,
    run_monitor,
)
from repro.flows.sampled import FlowSet, StreamFlowAccountant
from repro.flows.table import iter_flow_keys
from repro.obs.live import AlertEngine, AlertRule, QualityMonitor, TextfileExporter
from repro.trace.pcap import read_pcap, write_pcap
from repro.trace.store import TraceStore
from repro.trace.trace import Trace
from repro.workload.generator import nsfnet_hour_trace

from spans import Tracer

#: The calibrated hour is always generator seed 1993 (the paper's hour
#: as the rest of the repository generates it); ``--seed`` drives the
#: sampling draws over it.  Seeding the trace too would make the flow
#: fast path's per-packet fallback -- a whole chunk replayed per packet
#: on active timeouts -- hit 8 to 11 chunks depending on the seed, a
#: cost swing larger than the noise the bounds allow.
HOUR_SEED = 1993
HOUR_S = 3600
#: The self-test's tiny inputs.
TINY_HOUR_S = 60

# Online path: the monitor subcommand's defaults with flows switched on.
ONLINE_GRANULARITY = 50
ONLINE_WINDOW_US = 30_000_000
#: The online reference checks one of this many parts of the hour.
CHECKED_PARTS = 8

# Adaptive path: the accuracy-first tolerance sweep of the adaptive
# controller benchmark, over a six-regime trace whose rate swings 25x.
ADAPTIVE_WINDOW_US = 10_000_000
ADAPTIVE_MIN_SCORED = 2
TOLERANCE_SWEEP = (0.10, 0.14, 0.25, 0.30)
BURSTY_SIZES = np.array([40, 64, 128, 552, 576, 1500])
QUIET = (0.45, 0.20, 0.15, 0.10, 0.05, 0.05)
NORMAL = (0.30, 0.15, 0.15, 0.20, 0.10, 0.10)
BUSY = (0.15, 0.10, 0.10, 0.30, 0.15, 0.20)
BURSTY_REGIMES = (
    (100, QUIET), (500, NORMAL), (2500, BUSY),
    (500, NORMAL), (100, QUIET), (2500, BUSY),
)
#: Seconds per regime.  The per-packet reference costs ~5 us a packet,
#: so 100 s regimes (620k packets) keep one reference check within a
#: few seconds; the controller still sees 10 windows per regime.
REGIME_S = 100
TINY_REGIME_S = 10

# Batch studies: the paper's five methods x fifteen granularities, then
# the same grid with flow studies.
GRID_REPLICATIONS = 2
GRID_JOBS = 2
FLOWS_REPLICATIONS = 1
FLOWS_JOBS = 1
#: A quarter of the 600 s interval of the repository's flow studies:
#: they cost ~6 s on a 600 s window here, which would leave a run too
#: few passes.
FLOWS_INTERVAL_S = 150
TINY_FLOWS_INTERVAL_S = 30


@dataclasses.dataclass
class PassResult:
    """What one pass produced: outputs to check, and how much it did."""

    outputs: Any
    #: Operations completed: windows (online) or shards (batch).
    ops: int
    #: Packets offered, or for grids visited (sum of shard windows).
    packets: int


@dataclasses.dataclass
class Context:
    """A workload's inputs as the measuring process sees them."""

    seed: int
    tiny: bool
    workdir: str

    def pcap(self, name: str) -> str:
        return os.path.join(self.workdir, name + ".pcap")

    @property
    def store(self) -> TraceStore:
        return TraceStore(os.path.join(self.workdir, "store"))

    @property
    def run_dir(self) -> str:
        return os.path.join(self.workdir, "run")

    @property
    def export_path(self) -> str:
        return os.path.join(self.workdir, "metrics.prom")


def _flows_digest(flows: FlowSet) -> str:
    """Digest of flow records: 10x faster than their JSON for ~100k."""
    records = flows.records
    numbers = np.array(
        [
            (r.src_net, r.dst_net, r.src_port, r.dst_port, r.protocol,
             r.packets, r.bytes, r.first_us, r.last_us)
            for r in records
        ],
        dtype=np.int64,
    )
    reasons = ",".join(r.reason for r in records)
    return hashlib.sha256(numbers.tobytes() + reasons.encode("utf-8")).hexdigest()


def _canonical(value: Any) -> Any:
    if isinstance(value, FlowSet):
        return _flows_digest(value)
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value):
        return vars(value)
    if isinstance(value, MappingProxyType):
        return dict(value)
    raise TypeError("cannot digest %r" % type(value))


def digest(outputs: Any) -> str:
    """Order-sensitive SHA-256 of a pass's outputs, numpy scalars as Python."""
    text = json.dumps(outputs, sort_keys=True, default=_canonical)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load(ctx: Context, name: str) -> Tuple[Trace, bool]:
    """Input ``name`` through the store: a warm hit, or a rebuild on a miss."""
    store = ctx.store
    trace = store.load(ctx.pcap(name))
    if trace is not None:
        return trace, True
    return store.build(ctx.pcap(name)), False


def _counting_copies(
    chunks: Iterator[Trace], parent: Trace, copied: List[int]
) -> Iterator[Trace]:
    """Pass chunks through, adding to ``copied[0]`` the bytes of every
    chunk column that does not share memory with the ingested trace."""
    for chunk in chunks:
        for column in Trace.__slots__:
            values = getattr(chunk, column)
            if not np.may_share_memory(values, getattr(parent, column)):
                copied[0] += values.nbytes
        yield chunk


def _percentile_ms(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


@contextmanager
def _watching_publish(buffers: List[Any]) -> Iterator[None]:
    """Collect the buffer of every ``publish_trace`` call the runner
    makes, to tell the memmap transport from a copy into shared memory."""
    publish = engine_runner.publish_trace

    def watched(trace: Trace) -> Any:
        buffer = publish(trace)
        buffers.append(buffer)
        return buffer

    engine_runner.publish_trace = watched
    try:
        yield
    finally:
        engine_runner.publish_trace = publish


def _hour(ctx: Context) -> Trace:
    return nsfnet_hour_trace(
        seed=HOUR_SEED, duration_s=TINY_HOUR_S if ctx.tiny else HOUR_S
    )


class Workload:
    """One set of inputs and the pass the benchmark repeats over them."""

    name = ""
    #: What one counted operation is; failures are counted per operation.
    operation = ""
    #: The inputs a pass loads through the store (built in set-up).
    stored: Tuple[str, ...] = ()

    def generate(self, ctx: Context) -> Dict[str, Trace]:
        """The workload's input traces, by name."""
        raise NotImplementedError

    def setup(self, ctx: Context) -> Dict[str, Trace]:
        """Generate the traces, write the pcaps, build the store entries."""
        traces = self.generate(ctx)
        for name, trace in traces.items():
            write_pcap(trace, ctx.pcap(name))
            if name in self.stored:
                ctx.store.build(ctx.pcap(name))
        return traces

    def reference(self, ctx: Context, traces: Dict[str, Trace]) -> Any:
        """Outputs the pass must reproduce, by the reference path."""
        raise NotImplementedError

    def checked(self, ctx: Context, outputs: Any) -> Any:
        """What the reference must equal: the part of a pass's outputs
        it covers, or the pass's code rerun on the part it covers."""
        raise NotImplementedError

    def reset(self, ctx: Context) -> None:
        """Clear what the previous pass left behind (not timed)."""

    def run(self, ctx: Context) -> PassResult:
        raise NotImplementedError

    def traced(
        self, ctx: Context, tracer: Tracer
    ) -> Tuple[PassResult, Dict[str, float]]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# online, part 1: the production monitor over the calibrated hour


class _Online:
    """The online pipeline's objects, shared by every path."""

    def __init__(self, seed: int, export_path: str) -> None:
        self.sampler = StreamingStratified(
            ONLINE_GRANULARITY, rng=np.random.default_rng(seed)
        )
        self.monitor = QualityMonitor(window_us=ONLINE_WINDOW_US)
        self.accountant = StreamFlowAccountant(store=self.monitor.store)
        self.flow_kernel = FlowAccountantKernel(self.accountant)
        self.alerts = AlertEngine(
            [AlertRule.from_spec(spec) for spec in DEFAULT_MONITOR_RULES]
        )
        self.exporter = TextfileExporter(export_path)
        self.windows: List[Any] = []
        self.events: List[Any] = []

    def on_window(self, stats: Any) -> None:
        self.windows.append(stats)
        self.events.extend(self.alerts.observe(stats))
        self.exporter.export(self.monitor.store)

    def finish(self) -> None:
        final = self.monitor.flush()
        if final is not None:
            self.on_window(final)
        self.accountant.flush()

    def result(self, packets: int) -> PassResult:
        # The exported file is not compared: the fast path accounts a
        # whole chunk of flows before folding its windows, so flow
        # gauges in mid-stream snapshots legitimately differ.
        outputs = {
            "windows": [stats.as_dict() for stats in self.windows],
            "alerts": self.events,
            "parent_flows": self.accountant.parent(),
            "sampled_flows": self.accountant.sampled(),
            "store": self.monitor.store.snapshot(),
        }
        return PassResult(outputs, ops=len(self.windows), packets=packets)


def _hour_pass(trace: Trace, seed: int, export_path: str) -> PassResult:
    online = _Online(seed, export_path)
    run_monitor(
        iter_trace_chunks(trace),
        chunk_kernel_for(online.sampler),
        online.monitor,
        on_window=online.on_window,
        accountant=online.flow_kernel,
    )
    online.finish()
    return online.result(len(trace))


def _checked_part(ctx: Context, trace: Trace) -> Trace:
    # The per-packet reference costs ~15 us a packet, so each seed
    # checks one part of the hour through both paths; across seeds
    # every part is covered.
    part = ctx.seed % CHECKED_PARTS
    n = len(trace)
    return trace.slice_packets(
        part * n // CHECKED_PARTS, (part + 1) * n // CHECKED_PARTS
    )


def _hour_reference(ctx: Context, trace: Trace) -> Any:
    part = _checked_part(ctx, trace)
    online = _Online(ctx.seed, os.path.join(ctx.workdir, "reference.prom"))
    for timestamp, size, key in iter_flow_keys(part):
        kept = online.sampler.offer(timestamp)
        for stats in online.monitor.observe(timestamp, float(size), kept):
            online.on_window(stats)
        online.accountant.observe(timestamp, size, key, kept)
    online.finish()
    return online.result(len(part)).outputs


def _traced_hour(
    ctx: Context, tracer: Tracer, counts: Dict[str, int]
) -> Tuple[PassResult, Dict[str, float]]:
    with tracer.span("trace.decode"):
        trace = read_pcap(ctx.pcap("hour"))
    online = _Online(ctx.seed, ctx.export_path)
    kernel = chunk_kernel_for(online.sampler)
    tracer.wrap(kernel, "keep_mask", "selectors.keep_mask")
    tracer.wrap(online.flow_kernel, "observe_chunk", "flows.observe_chunk")
    tracer.wrap(online.accountant, "flush", "flows.flush")
    tracer.wrap(online.monitor, "flush", "monitor.observe")
    tracer.wrap(online.alerts, "observe", "alerts.observe")
    export = online.exporter.export
    exported_bytes = [0]

    def timed_export(store: Any) -> str:
        with tracer.span("expose.export"):
            path = export(store)
        exported_bytes[0] += os.path.getsize(path)
        return path

    online.exporter.export = timed_export  # type: ignore[method-assign]
    copied = [0]
    chunks = tracer.iterate(
        _counting_copies(iter_trace_chunks(trace), trace, copied),
        "pipeline.chunk",
    )
    # run_monitor's self time is the monitor's bulk fold plus the
    # driver loop: the library calls the fold as a module function, so
    # it is timed as what its children leave over.
    with tracer.span("monitor.observe"):
        run_monitor(
            chunks,
            kernel,
            online.monitor,
            on_window=online.on_window,
            accountant=online.flow_kernel,
        )
    online.finish()
    result = online.result(len(trace))

    counts["offered"] += sum(stats.offered for stats in online.windows)
    counts["kept"] += sum(stats.sampled for stats in online.windows)
    counts["windows"] += len(online.windows)
    counts["copied"] += copied[0]
    snapshot = online.monitor.store.snapshot()
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    chunk_calls = tracer.calls["flows.observe_chunk"]
    flows_s = tracer.total("flows.observe_chunk", "flows.flush")
    layers = {
        "trace.decode_pps": len(trace) / tracer.total("trace.decode"),
        "flows.pps": len(trace) / flows_s,
        "flows.chunk_p50_ms": _percentile_ms(chunk_calls, 50),
        "flows.chunk_max_ms": max(chunk_calls) * 1e3,
        "flows.exported": float(
            counters.get("flow_cache_exported_parent", 0)
            + counters.get("flow_cache_exported_sampled", 0)
        ),
        "flows.evicted": float(
            counters.get("flow_cache_evictions_parent", 0)
            + counters.get("flow_cache_evictions_sampled", 0)
        ),
        "flows.peak_occupancy": float(
            gauges.get("flow_cache_peak_occupancy_parent", 0)
        ),
        "alerts.raised": float(online.alerts.raised_total),
        "expose.bytes": float(exported_bytes[0]),
    }
    return result, layers


# ----------------------------------------------------------------------
# online, part 2: the adaptive tolerance sweep over a bursty trace


def bursty_trace(seed: int, regime_s: int) -> Trace:
    """Six Poisson regimes (quiet / normal / busy and back), 25x swing."""
    rng = np.random.default_rng(seed)
    timestamps = []
    sizes = []
    start_us = 0
    for pps, weights in BURSTY_REGIMES:
        n = int(regime_s * pps)
        gaps = rng.exponential(1e6 / pps, size=n)
        # Rescale each block to tile its interval exactly, so arrivals
        # stay Poisson-like within a regime and monotone across them.
        timestamps.append(start_us + np.cumsum(gaps) * (regime_s * 1e6 / gaps.sum()))
        sizes.append(rng.choice(BURSTY_SIZES, size=n, p=weights))
        start_us += regime_s * 1_000_000
    return Trace(
        timestamps_us=np.concatenate(timestamps).astype(np.int64),
        sizes=np.concatenate(sizes).astype(np.int32),
    )


def _controller(tolerance: float) -> AdaptiveController:
    return AdaptiveController(
        AccuracyFirstPolicy(phi_tol=tolerance, headroom=0.4),
        ControllerConfig(
            initial_granularity=16,
            step_finer_windows=2,
            step_coarser_windows=2,
            cooldown_windows=1,
        ),
    )


def _sweep_entry(
    tolerance: float,
    controller: AdaptiveController,
    windows: List[Dict[str, Any]],
    offered: int,
    kept: int,
) -> Dict[str, Any]:
    return {
        "tolerance": tolerance,
        "decisions": [decision.as_dict() for decision in controller.decisions],
        "windows": windows,
        "offered": offered,
        "kept": kept,
    }


def _checked_tolerance(ctx: Context) -> int:
    # The per-packet reference of one tolerance costs as much as ~50
    # fast sweeps, so each seed checks one of the four; across seeds
    # every tolerance is covered.
    return ctx.seed % len(TOLERANCE_SWEEP)


def _sweep_reference(ctx: Context, trace: Trace) -> Any:
    tolerance = TOLERANCE_SWEEP[_checked_tolerance(ctx)]
    controller = _controller(tolerance)
    run = run_adaptive(
        trace,
        controller,
        window_us=ADAPTIVE_WINDOW_US,
        min_scored=ADAPTIVE_MIN_SCORED,
        fastpath=False,
    )
    return _sweep_entry(tolerance, controller, run.windows, run.offered, run.kept)


def _sweep_pass(ctx: Context) -> PassResult:
    trace, _hit = _load(ctx, "bursty")
    outputs = []
    windows = 0
    for tolerance in TOLERANCE_SWEEP:
        controller = _controller(tolerance)
        run = run_adaptive(
            trace,
            controller,
            window_us=ADAPTIVE_WINDOW_US,
            min_scored=ADAPTIVE_MIN_SCORED,
        )
        outputs.append(
            _sweep_entry(tolerance, controller, run.windows, run.offered, run.kept)
        )
        windows += len(run.windows)
    return PassResult(outputs, ops=windows, packets=len(trace) * len(TOLERANCE_SWEEP))


def _traced_sweep(
    ctx: Context, tracer: Tracer, counts: Dict[str, int]
) -> Tuple[PassResult, Dict[str, float]]:
    with tracer.span("trace.store.load"):
        trace, hit = _load(ctx, "bursty")
    outputs = []
    copied = [0]
    offered = windows_closed = rate_changes = 0
    for tolerance in TOLERANCE_SWEEP:
        # run_adaptive builds its selector inside; driving the pipeline
        # here (as run_adaptive does) exposes it to a shim.
        controller = _controller(tolerance)
        monitor = QualityMonitor(
            window_us=ADAPTIVE_WINDOW_US, min_scored=ADAPTIVE_MIN_SCORED
        )
        windows: List[Dict[str, Any]] = []
        pipeline = AdaptivePipeline(
            "systematic",
            controller,
            monitor,
            on_window=lambda stats: windows.append(stats.as_dict()),
        )
        tracer.wrap(pipeline.selector, "keep_mask", "selectors.keep_mask")
        tracer.wrap(controller, "observe_window", "adaptive.controller")
        tracer.wrap(monitor, "advance_to", "monitor.observe")
        tracer.wrap(monitor, "flush", "monitor.observe")
        tracer.wrap(pipeline, "process_chunk", "adaptive.process_chunk")
        tracer.wrap(pipeline, "flush", "adaptive.process_chunk")
        chunks = tracer.iterate(
            _counting_copies(iter_trace_chunks(trace), trace, copied),
            "pipeline.chunk",
        )
        for chunk in chunks:
            pipeline.process_chunk(chunk)
        pipeline.flush()
        outputs.append(
            _sweep_entry(tolerance, controller, windows, pipeline.offered, pipeline.kept)
        )
        offered += pipeline.offered
        counts["kept"] += pipeline.kept
        windows_closed += len(windows)
        rate_changes += controller.changes
    counts["offered"] += offered
    counts["windows"] += windows_closed
    counts["copied"] += copied[0]
    layers = {
        "trace.store.hit": float(hit),
        "adaptive.rate_changes": float(rate_changes),
    }
    return PassResult(outputs, ops=windows_closed, packets=offered), layers


class Online(Workload):
    name = "online"
    operation = "window"
    stored = ("bursty",)

    def generate(self, ctx: Context) -> Dict[str, Trace]:
        return {
            "hour": _hour(ctx),
            "bursty": bursty_trace(ctx.seed, TINY_REGIME_S if ctx.tiny else REGIME_S),
        }

    def reference(self, ctx: Context, traces: Dict[str, Trace]) -> Any:
        return {
            "hour": _hour_reference(ctx, traces["hour"]),
            "bursty": _sweep_reference(ctx, traces["bursty"]),
        }

    def checked(self, ctx: Context, outputs: Any) -> Any:
        # The hour: the pass's own code, on the decoded part the
        # reference saw.  The sweep: the checked tolerance's entry.
        part = _checked_part(ctx, read_pcap(ctx.pcap("hour")))
        return {
            "hour": _hour_pass(part, ctx.seed, ctx.export_path).outputs,
            "bursty": outputs["bursty"][_checked_tolerance(ctx)],
        }

    @staticmethod
    def _result(hour: PassResult, sweep: PassResult) -> PassResult:
        return PassResult(
            {"hour": hour.outputs, "bursty": sweep.outputs},
            ops=hour.ops + sweep.ops,
            packets=hour.packets + sweep.packets,
        )

    def run(self, ctx: Context) -> PassResult:
        hour = _hour_pass(read_pcap(ctx.pcap("hour")), ctx.seed, ctx.export_path)
        return self._result(hour, _sweep_pass(ctx))

    def traced(
        self, ctx: Context, tracer: Tracer
    ) -> Tuple[PassResult, Dict[str, float]]:
        # Selector, monitor and chunking figures cover both parts.
        counts = {"offered": 0, "kept": 0, "windows": 0, "copied": 0}
        hour, layers = _traced_hour(ctx, tracer, counts)
        sweep, sweep_layers = _traced_sweep(ctx, tracer, counts)
        layers.update(sweep_layers)
        layers.update({
            "pipeline.copied_bytes": float(counts["copied"]),
            "selectors.pps": counts["offered"] / tracer.total("selectors.keep_mask"),
            "selectors.kept_fraction": counts["kept"] / counts["offered"],
            "monitor.pps": counts["offered"] / tracer.total("monitor.observe"),
            "monitor.windows": float(counts["windows"]),
        })
        return self._result(hour, sweep), layers


# ----------------------------------------------------------------------
# batch


@dataclasses.dataclass(frozen=True)
class _Study:
    """One batch study of a ``batch`` pass: a grid and its runner."""

    name: str
    grid: ExperimentGrid
    jobs: int


def _studies(ctx: Context) -> Tuple[_Study, ...]:
    interval_s = TINY_FLOWS_INTERVAL_S if ctx.tiny else FLOWS_INTERVAL_S
    return (
        _Study(
            "grid",
            ExperimentGrid(replications=GRID_REPLICATIONS, seed=ctx.seed),
            GRID_JOBS,
        ),
        _Study(
            "flows",
            ExperimentGrid(
                replications=FLOWS_REPLICATIONS,
                seed=ctx.seed,
                flow_stats=True,
                intervals_us=(interval_s * 1_000_000,),
            ),
            FLOWS_JOBS,
        ),
    )


def _study_outputs(
    grid: ExperimentGrid, runner: ParallelRunner, records: Any
) -> Dict[str, Any]:
    telemetry = runner.last_telemetry
    assert telemetry is not None
    outputs: Dict[str, Any] = {"records": [record_to_json(r) for r in records]}
    if grid.flow_stats:
        outputs["flows"] = {timing.key: timing.flows for timing in telemetry.timings}
    return outputs


class Batch(Workload):
    name = "batch"
    operation = "shard"
    stored = ("hour",)

    def generate(self, ctx: Context) -> Dict[str, Trace]:
        return {"hour": _hour(ctx)}

    def _checked_method(self, ctx: Context) -> str:
        # Shard seeds are keyed by cell, so a one-method grid gives the
        # same records for its cells as the full grid.  Each seed checks
        # one method, which keeps the reference at a fifth of a serial
        # pass; across seeds every method is covered.
        methods = ExperimentGrid().methods
        return methods[ctx.seed % len(methods)]

    def reference(self, ctx: Context, traces: Dict[str, Trace]) -> Any:
        # The serial engine over the generated trace: the records every
        # worker count and transport must reproduce bit for bit.
        outputs = {}
        for study in _studies(ctx):
            grid = dataclasses.replace(study.grid, methods=(self._checked_method(ctx),))
            runner = ParallelRunner(jobs=1)
            result = runner.run(grid, traces["hour"])
            outputs[study.name] = _study_outputs(grid, runner, result.records)
        return outputs

    def checked(self, ctx: Context, outputs: Any) -> Any:
        method = self._checked_method(ctx)
        checked = {}
        for name, study in outputs.items():
            checked[name] = {
                "records": [r for r in study["records"] if r["method"] == method]
            }
            if "flows" in study:
                checked[name]["flows"] = {
                    key: flows for key, flows in study["flows"].items()
                    if key.split("/")[1] == method
                }
        return checked

    def reset(self, ctx: Context) -> None:
        shutil.rmtree(ctx.run_dir, ignore_errors=True)

    def _runner(self, ctx: Context, study: _Study) -> ParallelRunner:
        return ParallelRunner(
            jobs=study.jobs, run_dir=os.path.join(ctx.run_dir, study.name)
        )

    def run(self, ctx: Context) -> PassResult:
        trace, _hit = _load(ctx, "hour")
        outputs = {}
        timings: List[Any] = []
        for study in _studies(ctx):
            runner = self._runner(ctx, study)
            result = runner.run(study.grid, trace)
            outputs[study.name] = _study_outputs(study.grid, runner, result.records)
            timings.extend(runner.last_telemetry.timings)
        packets = sum(timing.packets for timing in timings)
        return PassResult(outputs, ops=len(timings), packets=packets)

    def traced(
        self, ctx: Context, tracer: Tracer
    ) -> Tuple[PassResult, Dict[str, float]]:
        with tracer.span("trace.store.load"):
            trace, hit = _load(ctx, "hour")
        outputs = {}
        timings: List[Any] = []
        buffers: List[Any] = []
        journal_bytes = 0
        for study in _studies(ctx):
            runner = self._runner(ctx, study)
            # The same call as the untraced pass.  With a run dir the
            # runner keeps span timers of its own stages; they are filed
            # as child spans of this one, whose self time is the
            # runner's remaining bookkeeping (journal open and close,
            # events, manifest).
            with tracer.span("engine.run"), _watching_publish(buffers):
                result = runner.run(study.grid, trace)
                timers = runner.last_obs.snapshot()["timers"]

                def timer_s(name: str) -> float:
                    return timers[name]["total_s"] if name in timers else 0.0

                publish_s = timer_s("shared_memory_publish")
                checkpoint_s = timer_s("checkpoint_io")
                tracer.record("engine.plan", timer_s("plan"))
                tracer.record("engine.publish", publish_s)
                tracer.record("engine.checkpoint", checkpoint_s)
                # publish and checkpoint I/O run inside the runner's execute.
                tracer.record(
                    "engine.execute", timer_s("execute") - publish_s - checkpoint_s
                )
            outputs[study.name] = _study_outputs(study.grid, runner, result.records)
            timings.extend(runner.last_telemetry.timings)
            journal_bytes += os.path.getsize(
                os.path.join(runner.run_dir, CheckpointJournal.FILENAME)
            )
        walls = [timing.wall_s for timing in timings]

        def busy(phase: str) -> float:
            return sum(timing.phases.get(phase, 0.0) for timing in timings)

        copied = [b for b in buffers if not isinstance(b, MemmapTraceBuffer)]
        packets = sum(timing.packets for timing in timings)
        layers = {
            "trace.store.hit": float(hit),
            "engine.publish_copied_bytes": float(sum(b.nbytes for b in copied)),
            "engine.publish_memmap": float(bool(buffers) and not copied),
            "engine.shard_p50_ms": _percentile_ms(walls, 50),
            "engine.shard_p90_ms": _percentile_ms(walls, 90),
            "engine.window_s": busy("window"),
            "engine.checkpoint_bytes": float(journal_bytes),
            "core.sampling.sample_s": busy("sample"),
            "core.metrics.score_s": busy("score"),
            "flows.shard_summary_s": busy("flows"),
        }
        return PassResult(outputs, ops=len(timings), packets=packets), layers


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (Online(), Batch())
}

#: Stage metric -> the spans whose self time it sums.  Every span a
#: traced pass records belongs to exactly one stage, so the stages plus
#: ``other_s`` add up to the traced wall time.
STAGES: Dict[str, Tuple[str, ...]] = {
    "trace.decode_s": ("trace.decode",),
    "trace.store.load_s": ("trace.store.load",),
    "pipeline.chunk_s": ("pipeline.chunk",),
    "selectors.keep_mask_s": ("selectors.keep_mask",),
    "flows.observe_chunk_s": ("flows.observe_chunk", "flows.flush"),
    "monitor.observe_s": ("monitor.observe",),
    "alerts.observe_s": ("alerts.observe",),
    "expose.export_s": ("expose.export",),
    "adaptive.process_chunk_s": ("adaptive.process_chunk",),
    "adaptive.controller_s": ("adaptive.controller",),
    "engine.runner_s": ("engine.run",),
    "engine.plan_s": ("engine.plan",),
    "engine.publish_s": ("engine.publish",),
    "engine.execute_s": ("engine.execute",),
    "engine.checkpoint_s": ("engine.checkpoint",),
}
