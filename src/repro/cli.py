"""Command-line front end.

The subcommands (one bullet each, kept in lockstep with the parser by
``tests/test_cli.py``) cover the everyday workflow:

* ``generate`` — synthesize a calibrated trace and write it as pcap;
* ``describe`` — print Table 2/3-style summary statistics of a trace;
* ``validate`` — sanity-check a capture before analysis;
* ``sample`` — apply one sampling method to a trace and score it;
* ``experiment`` — run a method x granularity sweep and print the
  mean-phi series (a small Figure 8/9 on your own data), optionally
  saving every scored sample to CSV; ``--jobs N`` parallelizes the
  sweep, ``--run-dir``/``--resume`` make it checkpointed and
  resumable, and ``--max-attempts``/``--shard-timeout``/``--chaos``
  control the engine's fault tolerance (retry budget, per-shard
  deadline, deterministic fault injection);
* ``samplesize`` — Cochran sample-size planning for a trace's mean
  size/interarrival (Section 5.1);
* ``netmon`` — run a trace through a simulated collection node and
  report SNMP-vs-collector agreement (Section 2 / Figure 1);
* ``flows`` — flow-level analysis (:mod:`repro.flows`): aggregate a
  trace into NetFlow-style flow records, sample it and compare parent
  vs. sampled flow populations, invert 1-in-N sampled flows back to
  an estimated parent flow-size distribution, or score the estimators
  against ground truth; ``--csv`` saves the mode's table;
* ``reproduce`` — the paper's whole analysis on a trace of your own;
* ``fidelity`` — windowed phi of one sampling pass (drift detection);
* ``report`` — summarize a finished sweep's run directory
  (per-phase wall-clock breakdown, slowest shards, retry/fault
  timeline) from its manifest and ``events.jsonl``, or print any run
  directory's ``metrics.prom`` with ``--metrics``; sweeps also take
  ``--profile`` to record the full span tree while they run;
* ``adapt`` — stream a trace through the closed-loop adaptive
  sampling controller (:mod:`repro.adaptive`): per quality window the
  controller walks the granularity along the paper's power-of-two
  grid toward the declared objective — ``accuracy`` (cheapest rate
  whose φ / χ² significance stays within tolerance), ``budget`` (best
  accuracy under a selected-packets/sec budget), or ``static`` (the
  baseline, for comparison) — emitting a decision trace and the
  windowed quality series; ``--run-dir`` records both as
  ``events.jsonl`` + ``metrics.prom``, and ``--csv`` saves the
  decision log;
* ``monitor`` — stream a trace through an online sampler with the
  live quality monitor attached: windowed φ / χ² / cost per
  characterization target, threshold + hysteresis alert rules, a
  periodic console status line, OpenMetrics snapshots
  (``--metrics-out``) or a ``/metrics`` HTTP port (``--serve-port``),
  and an ``events.jsonl`` alert/heartbeat record under ``--run-dir``;
* ``cache`` — manage the on-disk columnar trace cache
  (:class:`repro.trace.store.TraceStore`): ``build`` decodes a capture
  once into memory-mapped column files, ``info`` prints the entry's
  manifest, ``verify`` rechecks the content digests, ``clear`` drops
  the trace's entry.

``flows``, ``monitor``, and ``adapt`` run on the chunked vectorized
pipeline (:mod:`repro.fastpath`), whose output is bit-identical to the
per-packet reference it is tested against.  The global
``--trace-cache DIR`` flag (or the ``REPRO_TRACE_CACHE``
environment variable) points every subcommand that reads a pcap at the
columnar cache: warm entries load as memory maps with no parsing, cold
ones are decoded once and cached on the way through.

Every subcommand that reads a trace gets it from one loader, and a
capture it cannot use — missing, a directory, malformed, or without a
single packet (``validate`` warns about that one instead) — is an
operational error, as is a flag value the library rejects, an output
path that cannot be written, or a port that cannot be bound.  Exit
status, the same for every subcommand:

- 0: success;
- 1: a finding — ``validate`` found errors, ``cache info`` has no
  entry, ``cache verify`` found problems, ``monitor --fail-on-alert``
  saw an alert, or ``report --metrics`` found no ``metrics.prom``;
- 2: an operational error, printed as one ``error: <message>`` line on
  stderr (argparse's usage errors exit 2 as well).

Installed as ``repro-traffic`` (see pyproject).
"""

import argparse
import contextlib
import os
import sys
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.core.evaluation.comparison import score_sample
from repro.core.evaluation.experiment import ExperimentGrid, mean_phi_series
from repro.core.evaluation.report import format_series_table
from repro.core.evaluation.targets import PAPER_TARGETS
from repro.core.sampling.factory import METHOD_NAMES, make_sampler
from repro.stats.describe import describe
from repro.trace.pcap import PcapError, read_pcap, write_pcap
from repro.trace.series import per_second_series
from repro.trace.trace import Trace
from repro.workload.generator import nsfnet_hour_trace

_TARGETS = {t.name: t for t in PAPER_TARGETS}


class CliError(Exception):
    """An operational error; :func:`main` prints ``error: <message>``
    on stderr and exits 2.  Nothing else it catches does so, so a
    library bug still shows its traceback."""


@contextlib.contextmanager
def _flag_values() -> Iterator[None]:
    """Guard for library calls that take flag values: the
    ``ValueError`` such a call raises for a bad value becomes a
    :class:`CliError` carrying the library's own message."""
    try:
        yield
    except ValueError as error:
        raise CliError(str(error)) from None


def _trace_cache_dir(args: argparse.Namespace) -> Optional[str]:
    """The configured trace-cache directory, or ``None``.

    The global ``--trace-cache`` flag wins; the ``REPRO_TRACE_CACHE``
    environment variable is the deployment-wide default.
    """
    return args.trace_cache or os.environ.get("REPRO_TRACE_CACHE") or None


def _read_trace(
    path: str, read: Callable[[str], Trace], allow_empty: bool = False
) -> Trace:
    """``read(path)``, with every way the capture can be unusable —
    missing, a directory, malformed, or (unless ``allow_empty``)
    without packets — raised as a :class:`CliError`."""
    try:
        trace = read(path)
    except FileNotFoundError:
        raise CliError("trace file not found: %s" % path) from None
    except IsADirectoryError:
        raise CliError("%s is a directory, not a pcap file" % path) from None
    except PcapError as error:
        raise CliError("unreadable trace %s: %s" % (path, error)) from None
    if not (len(trace) or allow_empty):
        raise CliError("trace %s is empty" % path)
    return trace


def _load_trace(
    args: argparse.Namespace, obs=None, allow_empty: bool = False
) -> Trace:
    """The subcommand's trace (``args.trace``); see :func:`_read_trace`.

    ``synthetic`` is generated in-process.  A capture is read through
    the configured trace cache, whose hits and misses are counted into
    ``obs``, the run's registry.  The read is not timed here: a sweep
    times it as its ``trace_read`` span, while ``monitor`` and
    ``adapt`` keep wall-clock values out of their exposition, which
    is byte-identical to the per-packet reference's.
    """
    from repro.obs import NULL_OBS

    if args.trace == "synthetic":
        return nsfnet_hour_trace(duration_s=600)
    cache_dir = _trace_cache_dir(args)
    if not cache_dir:
        return _read_trace(args.trace, read_pcap, allow_empty)
    from repro.trace.store import TraceStore

    store = TraceStore(cache_dir, obs=NULL_OBS if obs is None else obs)
    return _read_trace(args.trace, store.load_or_build, allow_empty)


def _cmd_generate(args: argparse.Namespace) -> int:
    trace = nsfnet_hour_trace(seed=args.seed, duration_s=args.duration)
    write_pcap(trace, args.output)
    print(
        "wrote %d packets (%.1f s, %d bytes) to %s"
        % (len(trace), trace.duration_us / 1e6, trace.total_bytes, args.output)
    )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    print("packets: %d  duration: %.1f s" % (len(trace), trace.duration_us / 1e6))
    print(describe(trace.sizes).row("packet size (bytes)", digits=0))
    iat = trace.interarrivals_us()
    if iat.size:
        print(describe(iat).row("interarrival (us)", digits=0))
    series = per_second_series(trace)
    if series.seconds:
        print(describe(series.packets).row("packets/s", digits=0))
        print(describe(series.bytes).row("bytes/s", digits=0))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    rng = np.random.default_rng(args.seed)
    with _flag_values():
        sampler = make_sampler(args.method, args.granularity, trace=trace, rng=rng)
    result = sampler.sample(trace, rng=rng)
    print(
        "%s 1/%d: %d of %d packets (fraction %.5f)"
        % (
            args.method,
            args.granularity,
            result.sample_size,
            len(trace),
            result.fraction,
        )
    )
    for target in PAPER_TARGETS:
        score = score_sample(trace, result, target)
        print(
            "  %-12s phi=%.4f chi2=%.2f significance=%.3f"
            % (
                target.name,
                score.scores.phi,
                score.scores.chi2,
                score.scores.significance,
            )
        )
    return 0


def _print_profile(obs) -> None:
    """End-of-run phase table for ``--profile`` without a run dir."""
    from repro.obs import format_phase_table

    snapshot = obs.snapshot()
    phases = {
        "engine:%s" % name: stats
        for name, stats in snapshot["timers"].items()
    }
    print()
    print("profile (busy seconds by engine span)")
    print(format_phase_table(phases))


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.obs import Instrumentation

    obs = Instrumentation(profile=args.profile)
    with obs.span("trace_read"):
        trace = _load_trace(args, obs=obs)
    granularities = tuple(2**i for i in range(1, args.max_log2_granularity + 1))
    with _flag_values():
        grid = ExperimentGrid(
            methods=tuple(args.methods),
            granularities=granularities,
            replications=args.replications,
            seed=args.seed,
            targets=(_TARGETS[args.target],),
        )
        result = _sweep_runner(args, obs).run(grid, trace)
    columns = {
        method: mean_phi_series(result, args.target, method)
        for method in args.methods
    }
    print(
        format_series_table(
            "mean phi, target=%s (x = granularity)" % args.target,
            "1/x",
            columns,
        )
    )
    if args.save:
        from repro.core.evaluation.persistence import save_result

        save_result(result, args.save)
        print("saved %d records to %s" % (len(result), args.save))
    if args.profile and not args.run_dir:
        _print_profile(obs)
    if args.run_dir:
        print(
            "run artifacts in %s (inspect with: repro-traffic report %s)"
            % (args.run_dir, args.run_dir)
        )
    return 0


def _cmd_samplesize(args: argparse.Namespace) -> int:
    from repro.core.samplesize import plan_for_population

    trace = _load_trace(args)
    quantities = {
        "packet size (B)": trace.sizes.astype(float),
        "interarrival (us)": trace.interarrivals_us().astype(float),
    }
    print(
        "sample sizes for +-%g%% accuracy at %g%% confidence "
        "(population of %d packets)"
        % (args.accuracy, 100 * args.confidence, len(trace))
    )
    for label, values in quantities.items():
        if values.size < 2:
            continue
        with _flag_values():
            plan = plan_for_population(
                float(values.mean()),
                float(values.std()),
                population_size=int(values.size),
                accuracy_percent=args.accuracy,
                confidence=args.confidence,
            )
        print(
            "  %-18s n = %8d  -> sample 1 in %d (fraction %.4f%%)"
            % (
                label,
                plan.required_samples,
                plan.granularity,
                100 * plan.sampling_fraction,
            )
        )
    return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    from repro.analysis.temporal import fidelity_series, worst_window

    trace = _load_trace(args)
    rng = np.random.default_rng(args.seed)
    with _flag_values():
        sampler = make_sampler(args.method, args.granularity, trace=trace, rng=rng)
        result = sampler.sample(trace, rng=rng)
        points = fidelity_series(
            trace, result, _TARGETS[args.target], window_us=args.window * 1_000_000
        )
    print(
        "windowed fidelity: %s 1-in-%d, target %s, %d s windows"
        % (args.method, args.granularity, args.target, args.window)
    )
    print("%10s %10s %10s %10s" % ("start (s)", "packets", "sampled", "phi"))
    for point in points:
        phi_text = "%.4f" % point.phi if point.usable else "(thin)"
        print(
            "%10d %10d %10d %10s"
            % (
                point.start_us // 1_000_000,
                point.population,
                point.sampled,
                phi_text,
            )
        )
    worst = worst_window(points)
    if worst is not None:
        print(
            "worst window starts at %d s with phi %.4f"
            % (worst.start_us // 1_000_000, worst.phi)
        )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.core.evaluation.suite import reproduce_study
    from repro.obs import Instrumentation

    obs = Instrumentation(profile=args.profile)
    with obs.span("trace_read"):
        trace = _load_trace(args, obs=obs)
    with _flag_values():
        report = reproduce_study(
            trace,
            quick=args.quick,
            phi_budget=args.phi_budget,
            replications=args.replications,
            seed=args.seed,
            runner=_sweep_runner(args, obs),
        )
    print(report.render())
    if args.profile and not args.run_dir:
        _print_profile(obs)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import EventLogError, RunReport, render_metrics

    if args.top < 0:
        raise CliError("--top must be >= 0, got %d" % args.top)
    try:
        if args.metrics:
            text = render_metrics(args.run_dir)
            if text is None:
                print(
                    "no metrics.prom in %s (was the run observability-enabled?)"
                    % args.run_dir
                )
                return 1
            print(text, end="")
            return 0
        report = RunReport.from_run_dir(args.run_dir)
        print(report.render(top=args.top))
        return 0
    except FileNotFoundError as error:
        raise CliError(str(error)) from None
    except (EventLogError, ValueError) as error:
        raise CliError(
            "unreadable run artifacts in %s: %s" % (args.run_dir, error)
        ) from None
    except OSError as error:
        raise CliError("cannot read %s: %s" % (args.run_dir, error)) from None


#: Default alert rules: the χ² goodness-of-fit test failing hard
#: (p < 0.01) for three consecutive windows, clearing at p ≥ 0.05.
#: Unlike a raw φ threshold, the significance level accounts for the
#: window's sample size, so thin windows do not false-alarm; pass
#: explicit --rule specs (e.g. φ thresholds sized to your windows) to
#: override.
DEFAULT_MONITOR_RULES = (
    "chi2_p[packet-size]<0.01@3~0.05",
    "chi2_p[interarrival]<0.01@3~0.05",
)


def _window_status_line(stats, active_alerts: int) -> str:
    phi_size = stats.get("phi[packet-size]")
    phi_iat = stats.get("phi[interarrival]")
    fraction = stats.get("sampled_fraction") or 0.0
    return (
        "window %4d  t=%6ds  offered=%7d sampled=%6d (%.2f%%)  "
        "phi[size]=%s phi[iat]=%s  alerts:%d"
        % (
            stats.index,
            stats.end_us // 1_000_000,
            stats.offered,
            stats.sampled,
            100.0 * fraction,
            "%.4f" % phi_size if phi_size is not None else "(thin)",
            "%.4f" % phi_iat if phi_iat is not None else "(thin)",
            active_alerts,
        )
    )


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.core.sampling.factory import make_selector
    from repro.core.sampling.timer import mean_interarrival_us
    from repro.fastpath import monitor_trace
    from repro.obs import Instrumentation, render_prometheus, write_run_dir
    from repro.obs.live import (
        AlertEngine,
        AlertRule,
        MetricsServer,
        QualityMonitor,
        TextfileExporter,
    )

    # One registry for the run: the monitor's quality metrics, the
    # alert engine's events and counters, and the trace cache's.
    obs = Instrumentation()
    with _flag_values():
        rules = [AlertRule.from_spec(spec) for spec in args.rule or DEFAULT_MONITOR_RULES]
        engine = AlertEngine(rules, obs=obs, heartbeat_every=args.heartbeat_every)
        monitor = QualityMonitor(
            window_us=int(args.window * 1_000_000),
            min_scored=args.min_scored,
            store=obs,
        )
    trace = _load_trace(args, obs=obs)
    with _flag_values():
        if args.method == "timer-systematic":
            # monitor's --period-us is the whole period (adapt's is per
            # unit granularity), so the timer runs at granularity 1.
            period_us = args.period_us or mean_interarrival_us(trace) * args.granularity
            selector = make_selector(args.method, 1, unit_period_us=period_us)
        else:
            selector = make_selector(
                args.method, args.granularity, seed=args.seed, phase=args.phase
            )
    exporter = TextfileExporter(args.metrics_out) if args.metrics_out else None
    server = None
    if args.serve_port is not None:
        with _flag_values():
            server = MetricsServer(
                lambda: render_prometheus(obs.snapshot()), port=args.serve_port
            )
        print("serving OpenMetrics on %s" % server.url)
    obs.event(
        "monitor_start",
        trace=args.trace,
        method=args.method,
        granularity=args.granularity,
        window_s=args.window,
        rules=[rule.label for rule in rules],
    )
    print(
        "monitoring %s: %s 1-in-%d, %gs windows, %d packets"
        % (args.trace, args.method, args.granularity, args.window, len(trace))
    )

    def handle_window(stats) -> None:
        obs.event("window", **stats.as_dict())
        for alert in engine.observe(stats):
            print(
                "ALERT %s: %s %s (value %.4f at window %d)"
                % (
                    "raised" if alert.kind == "alert_raised" else "cleared",
                    alert.rule,
                    "breached" if alert.kind == "alert_raised" else "recovered",
                    alert.value,
                    alert.window,
                )
            )
        if args.status_every and stats.index % args.status_every == 0:
            print(_window_status_line(stats, len(engine.active)))
        if exporter is not None:
            exporter.export(obs)

    try:
        monitor_trace(trace, selector, monitor, handle_window)
    finally:
        if server is not None:
            server.close()

    obs.event(
        "monitor_end",
        windows=monitor.windows_closed,
        alerts_raised=engine.raised_total,
        alerts_active=len(engine.active),
    )
    if args.run_dir:
        write_run_dir(args.run_dir, obs)
        print("monitor artifacts in %s" % args.run_dir)
    print(
        "done: %d windows, %d alerts raised, %d still active"
        % (monitor.windows_closed, engine.raised_total, len(engine.active))
    )
    if args.fail_on_alert and engine.raised_total:
        return 1
    return 0


def _adapt_policy(args: argparse.Namespace):
    """The rate policy the adapt flags select (raises ValueError)."""
    from repro.adaptive import (
        AccuracyFirstPolicy,
        BudgetFirstPolicy,
        StaticPolicy,
    )

    if args.objective == "accuracy":
        return AccuracyFirstPolicy(phi_tol=args.phi_tol, p_floor=args.p_floor)
    if args.objective == "budget":
        if args.budget_pps is None:
            raise ValueError(
                "--objective budget needs --budget-pps (the selected-"
                "packet rate the collector can afford)"
            )
        return BudgetFirstPolicy(budget_pps=args.budget_pps)
    return StaticPolicy()


def _cmd_adapt(args: argparse.Namespace) -> int:
    from repro.adaptive import (
        AdaptiveController,
        ControllerConfig,
        run_adaptive,
    )
    from repro.obs import Instrumentation, write_run_dir
    from repro.obs.live import QualityMonitor

    obs = Instrumentation()
    with _flag_values():
        policy = _adapt_policy(args)
        config = ControllerConfig(
            initial_granularity=args.initial_granularity,
            min_granularity=args.min_granularity,
            max_granularity=args.max_granularity,
            step_finer_windows=args.step_finer_windows,
            step_coarser_windows=args.step_coarser_windows,
            cooldown_windows=args.cooldown,
            seed=args.seed,
        )
        controller = AdaptiveController(policy, config)
        monitor = QualityMonitor(
            window_us=int(args.window * 1_000_000),
            min_scored=args.min_scored,
            store=obs,
        )
    trace = _load_trace(args, obs=obs)

    obs.event(
        "adapt_start",
        trace=args.trace,
        method=args.method,
        objective=args.objective,
        initial_granularity=controller.granularity,
        window_s=args.window,
    )
    print(
        "adapting %s: %s, objective %s, starting 1-in-%d, %gs windows, "
        "%d packets"
        % (
            args.trace,
            args.method,
            args.objective,
            controller.granularity,
            args.window,
            len(trace),
        )
    )

    def show_decision(decision) -> None:
        if decision.applied:
            print(
                "window %4d  rate 1/%-5d -> 1/%-5d  (%s)"
                % (
                    decision.window,
                    decision.granularity_before,
                    decision.granularity_after,
                    decision.reason,
                )
            )
        elif args.status_every and decision.window % args.status_every == 0:
            print(
                "window %4d  rate 1/%-5d holds       (%s)"
                % (decision.window, decision.granularity_after, decision.reason)
            )

    def on_window(stats) -> None:
        obs.event("window", **stats.as_dict())

    with _flag_values():
        result = run_adaptive(
            trace,
            controller,
            method=args.method,
            phase=args.phase,
            unit_period_us=args.period_us,
            monitor=monitor,
            obs=obs,
            on_window=on_window,
            on_decision=show_decision,
        )

    obs.event(
        "adapt_end",
        windows=len(result.windows),
        rate_changes=result.rate_changes,
        final_granularity=controller.granularity,
        sampled_fraction=result.sampled_fraction,
    )
    mean_size = result.mean_phi("packet-size")
    mean_iat = result.mean_phi("interarrival")
    print(
        "done: %d windows, %d rate changes, final rate 1/%d"
        % (len(result.windows), result.rate_changes, controller.granularity)
    )
    print(
        "  sampled %d of %d packets (fraction %.5f), rates used: %s"
        % (
            result.kept,
            result.offered,
            result.sampled_fraction,
            ", ".join("1/%d" % k for k in result.granularities_used()),
        )
    )
    print(
        "  mean windowed phi: size %s, interarrival %s"
        % (
            "%.4f" % mean_size if mean_size is not None else "(thin)",
            "%.4f" % mean_iat if mean_iat is not None else "(thin)",
        )
    )
    if args.csv:
        fields = [
            "window", "start_us", "end_us", "offered", "sampled", "policy",
            "proposed", "applied", "granularity_before", "granularity_after",
            "reason",
        ]
        rows = [[getattr(d, field) for field in fields] for d in result.decisions]
        _write_csv(args.csv, fields, rows)
    if args.run_dir:
        write_run_dir(args.run_dir, obs)
        print("adapt artifacts in %s" % args.run_dir)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.trace.validate import validate_trace

    trace = _load_trace(args, allow_empty=True)
    issues = validate_trace(trace)
    if not issues:
        print("clean: %d packets, no findings" % len(trace))
        return 0
    for issue in issues:
        print(issue)
    errors = sum(issue.severity == "error" for issue in issues)
    return 1 if errors else 0


def _cmd_netmon(args: argparse.Namespace) -> int:
    from repro.netmon.node import Node
    from repro.netmon.objects import t1_object_set

    trace = _load_trace(args)
    with _flag_values():
        node = Node(
            "node",
            interfaces=("t1",),
            granularity=args.granularity,
            capacity_pps=args.capacity,
            objects=t1_object_set(),
        )
    node.process_traces({"t1": trace})
    snmp = node.snmp_total_packets()
    estimate = node.estimated_total_packets()
    print(
        "collector budget %d pps, sampling 1-in-%d"
        % (args.capacity, args.granularity)
    )
    print("  SNMP forwarding-path total: %12d packets" % snmp)
    print("  collector estimate:         %12d packets" % estimate)
    print("  dropped by collector:       %12d selected packets"
          % node.dropped_packets)
    if snmp:
        print("  discrepancy:                %11.2f%%"
              % (100 * (snmp - estimate) / snmp))
    return 0


def _flow_table_from_args(args: argparse.Namespace):
    """A :class:`~repro.flows.table.FlowTable` from the flow flags."""
    from repro.flows.table import FlowTable

    return FlowTable(
        idle_timeout_us=int(args.idle_timeout * 1e6),
        active_timeout_us=int(args.active_timeout * 1e6),
        max_flows=args.max_flows,
    )


def _write_csv(path: str, header: List[str], rows: List[List[object]]) -> None:
    import csv

    with open(path, "w", newline="") as stream:
        writer = csv.writer(stream)
        writer.writerow(header)
        writer.writerows(rows)
    print("saved %d rows to %s" % (len(rows), path))


def _flows_study(args: argparse.Namespace, trace):
    """Draw one sample and build the parent/sampled flow populations,
    each aggregated through a fresh table built from the cache flags."""
    from repro.flows.sampled import flow_study

    rng = np.random.default_rng(args.seed)
    sampler = make_sampler(args.method, args.granularity, trace=trace, rng=rng)
    return flow_study(
        trace, sampler, rng=rng, new_table=lambda: _flow_table_from_args(args)
    )


def _cmd_flows(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    if args.granularity < 1:
        raise CliError("granularity must be >= 1, got %d" % args.granularity)
    if args.mode in ("invert", "compare") and args.granularity < 2:
        raise CliError(
            "mode %r inverts 1-in-N sampling and needs --granularity >= 2"
            % args.mode
        )
    with _flag_values():
        table = _flow_table_from_args(args)

    if args.mode == "aggregate":
        from repro.flows.sampled import parent_flows

        flows = parent_flows(trace, table)
        stats = table.stats()
        print(
            "%d packets -> %d flow records (%d distinct 5-tuples)"
            % (len(trace), len(flows), len(flows.keys()))
        )
        print(
            "  mean %.2f packets/flow, peak cache occupancy %d, "
            "evictions %d"
            % (
                flows.mean_size(),
                stats["peak_occupancy"],
                stats["exported_evicted"],
            )
        )
        for reason in ("idle", "active", "evicted", "flush"):
            print("  exported (%s): %d" % (reason, stats["exported_" + reason]))
        if args.csv:
            fields = [
                "src_net", "dst_net", "src_port", "dst_port", "protocol",
                "packets", "bytes", "first_us", "last_us", "reason",
            ]
            rows = [[getattr(r, field) for field in fields] for r in flows.records]
            _write_csv(args.csv, fields, rows)
        return 0

    study = _flows_study(args, trace)
    if args.mode == "sample":
        summary = study.summary()
        print(
            "%s 1/%d over %d packets:"
            % (args.method, args.granularity, len(trace))
        )
        print(
            "  parent:  %6d flows, mean %8.2f packets/flow"
            % (len(study.parent), study.parent.mean_size())
        )
        print(
            "  sampled: %6d flows, mean %8.2f packets/flow"
            % (len(study.sampled), study.sampled.mean_size())
        )
        print(
            "  detected fraction: %.4f (share of parent 5-tuples seen)"
            % summary["detected_fraction"]
        )
        if args.csv:
            _write_csv(
                args.csv,
                ["population", "metric", "value"],
                [
                    ["parent", "flows", len(study.parent)],
                    ["parent", "mean_packets", study.parent.mean_size()],
                    ["parent", "total_packets", study.parent.total_packets],
                    ["sampled", "flows", len(study.sampled)],
                    ["sampled", "mean_packets", study.sampled.mean_size()],
                    ["sampled", "total_packets", study.sampled.total_packets],
                    ["sampled", "detected_fraction",
                     summary["detected_fraction"]],
                ],
            )
        return 0

    sampled_sizes = study.sampled.sizes()
    if sampled_sizes.size == 0:
        raise CliError(
            "the sample contains no flows; lower --granularity or use a "
            "longer trace"
        )

    if args.mode == "invert":
        from repro.flows.inversion import (
            chabchoub_estimate,
            em_invert,
            naive_estimate,
        )

        estimates = [
            naive_estimate(sampled_sizes, args.granularity),
            em_invert(sampled_sizes, args.granularity),
        ]
        print(
            "inverting %d sampled flows (1/%d %s) — parent truth: %d flows"
            % (
                len(study.sampled),
                args.granularity,
                args.method,
                len(study.parent),
            )
        )
        for estimate in estimates:
            print(
                "  %-10s %10.0f flows, mean %8.2f packets/flow"
                % (estimate.method, estimate.total_flows, estimate.mean_size())
            )
        try:
            rescaling = chabchoub_estimate(sampled_sizes, args.granularity)
            estimates.append(rescaling.estimate)
            print(
                "  %-10s tail exponent %.3f above %d packets "
                "(%.0f tail flows)"
                % (
                    rescaling.estimate.method,
                    rescaling.fit.exponent,
                    rescaling.threshold_size,
                    rescaling.estimate.total_flows,
                )
            )
        except ValueError as error:
            print("  chabchoub-tail: skipped (%s)" % error)
        if args.csv:
            _write_csv(
                args.csv,
                ["estimator", "flow_size_packets", "estimated_flows"],
                [
                    [e.method, int(size), float(count)]
                    for e in estimates
                    for size, count in zip(
                        e.sizes.tolist(), e.counts.tolist()
                    )
                ],
            )
        return 0

    # compare: score naive vs EM against ground truth.
    from repro.flows.inversion import compare_estimators

    with _flag_values():
        scores = compare_estimators(
            study.parent.sizes(), sampled_sizes, args.granularity
        )
    print(
        "estimator disparity vs. ground truth (%d parent flows, "
        "%s 1/%d):" % (len(study.parent), args.method, args.granularity)
    )
    print(
        "  %-10s %10s %12s %14s"
        % ("estimator", "phi", "l1 cost", "significance")
    )
    for name in ("naive", "em"):
        score = scores[name]
        print(
            "  %-10s %10.4f %12.1f %14.4g"
            % (name, score.phi, score.l1_cost, score.chi2_significance)
        )
    better = scores["em"].phi < scores["naive"].phi
    print(
        "  EM inversion %s the naive rescaling on phi"
        % ("beats" if better else "does NOT beat")
    )
    if args.csv:
        _write_csv(
            args.csv,
            ["estimator", "phi", "l1_cost", "chi2_significance"],
            [
                [name, scores[name].phi, scores[name].l1_cost,
                 scores[name].chi2_significance]
                for name in ("naive", "em")
            ],
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.trace.store import TraceStore

    cache_dir = _trace_cache_dir(args)
    if not cache_dir:
        raise CliError(
            "no trace cache configured; pass --trace-cache DIR (before "
            "the subcommand) or set REPRO_TRACE_CACHE"
        )
    if args.trace == "synthetic":
        raise CliError(
            "the synthetic trace is generated in-process and is never cached"
        )
    store = TraceStore(cache_dir)

    if args.action == "build":
        trace = _read_trace(args.trace, store.build)
        print(
            "built cache entry for %s: %d packets at %s"
            % (args.trace, len(trace), store.entry_dir(args.trace))
        )
        return 0

    if args.action == "info":
        manifest = store.info(args.trace)
        if manifest is None:
            print("no cache entry for %s under %s" % (args.trace, cache_dir))
            return 1
        print("entry:    %s" % manifest["entry_dir"])
        print("source:   %s (%d bytes)"
              % (manifest["source_path"], manifest["source_size"]))
        print("sha256:   %s" % manifest["source_sha256"])
        print("packets:  %d" % manifest["n_packets"])
        for name, meta in sorted(manifest["columns"].items()):
            print("  %-14s %-5s x %d" % (name, meta["dtype"], meta["count"]))
        return 0

    if args.action == "verify":
        problems = store.verify(args.trace)
        if not problems:
            print("cache entry for %s is intact" % args.trace)
            return 0
        for problem in problems:
            print(problem)
        return 1

    removed = store.clear(args.trace)
    print("removed %d cache entr%s" % (removed, "y" if removed == 1 else "ies"))
    return 0


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Execution-engine controls shared by sweep-running subcommands."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (results are identical "
        "at any worker count)",
    )
    parser.add_argument(
        "--run-dir",
        default="",
        help="directory for the checkpoint journal and run manifest",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip shards already completed in --run-dir's checkpoint",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="executions a shard may consume before it is quarantined "
        "and the sweep continues without it (default 3)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="per-shard wall-clock deadline with --jobs > 1; a shard "
        "past it is retried on a rebuilt pool (0 = no deadline)",
    )
    parser.add_argument(
        "--chaos",
        default="",
        metavar="SPEC",
        help="deterministic fault injection for testing recovery, e.g. "
        "'seed=7,crash=0.1,hang=0.05,slow=0.1,corrupt=0.02' "
        "(kinds: crash, hang, slow, corrupt, error; plus seed=N, "
        "hang_s=S, slow_s=S, attempts=N|all)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record span start/end events for every engine phase; "
        "with --run-dir they land in events.jsonl (see 'repro-traffic "
        "report'), without one a phase table is printed after the run",
    )


def _sweep_runner(args: argparse.Namespace, obs):
    """The sweep's engine, configured from the parsed engine flags.

    ``obs`` is the command's registry, built before the trace is read
    so the trace-read span lands in the same event log as the
    engine's own spans.
    """
    from repro.engine import FaultPlan, ParallelRunner

    return ParallelRunner(
        jobs=args.jobs,
        run_dir=args.run_dir or None,
        resume=args.resume,
        max_attempts=args.max_attempts,
        shard_timeout_s=args.shard_timeout or None,
        fault_plan=FaultPlan.from_spec(args.chaos) if args.chaos else None,
        profile=args.profile,
        obs=obs,
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-traffic",
        description="Packet-sampling methodology toolkit "
        "(Claffy/Polyzos/Braun, SIGCOMM 1993 reproduction)",
    )
    parser.add_argument(
        "--trace-cache",
        default=None,
        metavar="DIR",
        help="columnar trace-cache directory: pcap reads hit the cache "
        "(decoding and caching on a miss) and load as memory maps on a "
        "hit; defaults to $REPRO_TRACE_CACHE, unset means no cache",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a calibrated trace")
    gen.add_argument("output", help="pcap output path")
    gen.add_argument("--seed", type=int, default=1993)
    gen.add_argument(
        "--duration", type=int, default=3600, help="trace length in seconds"
    )
    gen.set_defaults(func=_cmd_generate)

    desc = sub.add_parser("describe", help="summary statistics of a trace")
    desc.add_argument(
        "trace", help="pcap path, or 'synthetic' for a built-in 10-minute trace"
    )
    desc.set_defaults(func=_cmd_describe)

    smp = sub.add_parser("sample", help="apply one sampling method and score it")
    smp.add_argument("trace", help="pcap path or 'synthetic'")
    smp.add_argument("--method", choices=METHOD_NAMES, default="systematic")
    smp.add_argument("--granularity", type=int, default=50)
    smp.add_argument("--seed", type=int, default=0)
    smp.set_defaults(func=_cmd_sample)

    exp = sub.add_parser("experiment", help="method x granularity phi sweep")
    exp.add_argument("trace", help="pcap path or 'synthetic'")
    exp.add_argument(
        "--methods", nargs="+", choices=METHOD_NAMES, default=list(METHOD_NAMES)
    )
    exp.add_argument("--target", choices=sorted(_TARGETS), default="packet-size")
    exp.add_argument("--max-log2-granularity", type=int, default=10)
    exp.add_argument("--replications", type=int, default=3)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument(
        "--save", default="", help="write every scored sample to this CSV"
    )
    _add_engine_flags(exp)
    exp.set_defaults(func=_cmd_experiment)

    size = sub.add_parser(
        "samplesize", help="Cochran sample-size planning (Section 5.1)"
    )
    size.add_argument("trace", help="pcap path or 'synthetic'")
    size.add_argument(
        "--accuracy", type=float, default=5.0, help="accuracy r in percent"
    )
    size.add_argument("--confidence", type=float, default=0.95)
    size.set_defaults(func=_cmd_samplesize)

    mon = sub.add_parser(
        "netmon", help="simulate a collection node (Section 2)"
    )
    mon.add_argument("trace", help="pcap path or 'synthetic'")
    mon.add_argument(
        "--capacity", type=int, default=500, help="collector budget (pps)"
    )
    mon.add_argument(
        "--granularity",
        type=int,
        default=1,
        help="1-in-k selection before examination (1 = examine all)",
    )
    mon.set_defaults(func=_cmd_netmon)

    val = sub.add_parser("validate", help="sanity-check a trace")
    val.add_argument("trace", help="pcap path or 'synthetic'")
    val.set_defaults(func=_cmd_validate)

    rep = sub.add_parser(
        "reproduce",
        help="run the paper's full analysis on a trace of your own",
    )
    rep.add_argument("trace", help="pcap path or 'synthetic'")
    rep.add_argument(
        "--quick", action="store_true", help="smaller sweep, fewer phases"
    )
    rep.add_argument("--phi-budget", type=float, default=0.05)
    rep.add_argument("--replications", type=int, default=5)
    rep.add_argument("--seed", type=int, default=0)
    _add_engine_flags(rep)
    rep.set_defaults(func=_cmd_reproduce)

    flw = sub.add_parser(
        "flows",
        help="flow-level analysis: aggregate, sample, invert, compare",
    )
    flw.add_argument("trace", help="pcap path or 'synthetic'")
    flw.add_argument(
        "mode",
        choices=("aggregate", "sample", "invert", "compare"),
        help="aggregate: trace -> flow records; sample: parent vs "
        "sampled flow populations; invert: estimate the parent "
        "flow-size distribution from the sampled flows; compare: "
        "score naive vs EM inversion against ground truth",
    )
    flw.add_argument("--method", choices=METHOD_NAMES, default="systematic")
    flw.add_argument(
        "--granularity",
        type=int,
        default=100,
        help="1-in-N packet sampling before flow accounting",
    )
    flw.add_argument("--seed", type=int, default=0)
    flw.add_argument(
        "--idle-timeout",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="flow-cache idle timeout (default 15, the NetFlow default)",
    )
    flw.add_argument(
        "--active-timeout",
        type=float,
        default=1800.0,
        metavar="SECONDS",
        help="flow-cache active timeout (default 1800)",
    )
    flw.add_argument(
        "--max-flows",
        type=int,
        default=65536,
        help="flow-cache capacity; beyond it the least recently "
        "updated flow is evicted",
    )
    flw.add_argument("--csv", default="", help="save the mode's table as CSV")
    flw.set_defaults(func=_cmd_flows)

    fid = sub.add_parser(
        "fidelity", help="windowed phi of one sampling pass over a trace"
    )
    fid.add_argument("trace", help="pcap path or 'synthetic'")
    fid.add_argument("--method", choices=METHOD_NAMES, default="systematic")
    fid.add_argument("--granularity", type=int, default=50)
    fid.add_argument("--target", choices=sorted(_TARGETS), default="packet-size")
    fid.add_argument(
        "--window", type=int, default=60, help="window length in seconds"
    )
    fid.add_argument("--seed", type=int, default=0)
    fid.set_defaults(func=_cmd_fidelity)

    rpt = sub.add_parser(
        "report",
        help="summarize a run directory: wall-clock breakdown, slowest "
        "shards, retry/fault timeline",
    )
    rpt.add_argument(
        "run_dir", help="a --run-dir written by experiment/reproduce"
    )
    rpt.add_argument(
        "--top",
        type=int,
        default=10,
        help="slowest shards to list (default 10)",
    )
    rpt.add_argument(
        "--metrics",
        action="store_true",
        help="print the run's Prometheus exposition (metrics.prom) instead",
    )
    rpt.set_defaults(func=_cmd_report)

    adp = sub.add_parser(
        "adapt",
        help="closed-loop adaptive sampling: walk the granularity along "
        "the paper's power-of-two grid to meet an accuracy or budget "
        "objective, emitting a decision trace + quality series",
    )
    adp.add_argument("trace", help="pcap path or 'synthetic'")
    adp.add_argument(
        "--objective",
        choices=("accuracy", "budget", "static"),
        default="accuracy",
        help="accuracy: cheapest rate within phi/chi2 tolerance; "
        "budget: best accuracy under --budget-pps; static: hold the "
        "initial rate (the paper's baseline)",
    )
    adp.add_argument(
        "--phi-tol",
        type=float,
        default=0.05,
        help="worst-target windowed phi tolerance (accuracy objective)",
    )
    adp.add_argument(
        "--p-floor",
        type=float,
        default=0.01,
        help="chi2 significance floor (accuracy objective)",
    )
    adp.add_argument(
        "--budget-pps",
        type=float,
        default=None,
        help="selected packets/sec the collector can afford (budget "
        "objective)",
    )
    adp.add_argument(
        "--method",
        choices=("systematic", "stratified", "timer-systematic"),
        default="systematic",
        help="streaming selection rule being controlled",
    )
    adp.add_argument(
        "--initial-granularity",
        type=int,
        default=64,
        help="starting 1-in-k, snapped to the power-of-two grid",
    )
    adp.add_argument(
        "--min-granularity",
        type=int,
        default=2,
        help="finest rate the controller may reach (default 2)",
    )
    adp.add_argument(
        "--max-granularity",
        type=int,
        default=32768,
        help="coarsest rate the controller may reach (default 32768, "
        "the paper's grid ceiling)",
    )
    adp.add_argument(
        "--step-finer-windows",
        type=int,
        default=1,
        help="consecutive breaching windows before stepping finer",
    )
    adp.add_argument(
        "--step-coarser-windows",
        type=int,
        default=3,
        help="consecutive comfortable windows before stepping coarser",
    )
    adp.add_argument(
        "--cooldown",
        type=int,
        default=2,
        help="windows to hold after any rate change",
    )
    adp.add_argument(
        "--window",
        type=float,
        default=30.0,
        help="quality window length in seconds (default 30)",
    )
    adp.add_argument(
        "--min-scored",
        type=int,
        default=10,
        help="minimum parent and sampled values per window before a "
        "target is scored",
    )
    adp.add_argument(
        "--phase", type=int, default=0, help="systematic phase offset"
    )
    adp.add_argument(
        "--period-us",
        type=float,
        default=0.0,
        help="timer period per unit granularity for timer-systematic "
        "(default: the trace's mean interarrival)",
    )
    adp.add_argument("--seed", type=int, default=0)
    adp.add_argument(
        "--status-every",
        type=int,
        default=0,
        help="also print a line every N held windows (0 = changes only)",
    )
    adp.add_argument(
        "--csv", default="", help="save the decision trace as CSV"
    )
    adp.add_argument(
        "--run-dir",
        default="",
        help="directory for events.jsonl (decisions, windowed quality "
        "points) and the final metrics.prom",
    )
    adp.set_defaults(func=_cmd_adapt)

    live = sub.add_parser(
        "monitor",
        help="stream a trace through an online sampler with the live "
        "quality monitor: windowed phi/chi2/cost, alert rules, "
        "OpenMetrics exposition",
    )
    live.add_argument("trace", help="pcap path or 'synthetic'")
    live.add_argument(
        "--method",
        choices=("systematic", "stratified", "timer-systematic"),
        default="systematic",
        help="streaming selection rule (default systematic, the T3 "
        "firmware's)",
    )
    live.add_argument("--granularity", type=int, default=50)
    live.add_argument(
        "--phase", type=int, default=0, help="systematic phase offset"
    )
    live.add_argument(
        "--period-us",
        type=float,
        default=0.0,
        help="explicit timer period for timer-systematic (default: "
        "mean interarrival x granularity, derived from the trace)",
    )
    live.add_argument("--seed", type=int, default=0)
    live.add_argument(
        "--window",
        type=float,
        default=30.0,
        help="quality window length in seconds (default 30)",
    )
    live.add_argument(
        "--min-scored",
        type=int,
        default=10,
        help="minimum parent and sampled values per window before a "
        "target is scored (thinner windows report '(thin)')",
    )
    live.add_argument(
        "--rule",
        action="append",
        default=[],
        metavar="SPEC",
        help="alert rule 'metric>threshold[@N][~clear[@M]]', e.g. "
        "'phi[interarrival]>0.05@3~0.02'; repeatable (default: the "
        "chi2 test failing at p<0.01 for 3 windows on either target)",
    )
    live.add_argument(
        "--heartbeat-every",
        type=int,
        default=10,
        help="emit a heartbeat event every N windows (0 disables)",
    )
    live.add_argument(
        "--status-every",
        type=int,
        default=5,
        help="print a console status line every N windows (0 disables)",
    )
    live.add_argument(
        "--metrics-out",
        default="",
        metavar="PATH",
        help="write an atomic OpenMetrics textfile snapshot here after "
        "every window (node-exporter textfile collector format)",
    )
    live.add_argument(
        "--serve-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve GET /metrics on this port while monitoring "
        "(0 picks an ephemeral port)",
    )
    live.add_argument(
        "--run-dir",
        default="",
        help="directory for events.jsonl (alerts, heartbeats, windowed "
        "quality points) and the final metrics.prom",
    )
    live.add_argument(
        "--fail-on-alert",
        action="store_true",
        help="exit with status 1 if any alert was raised (for CI-style "
        "sampling-design checks)",
    )
    live.set_defaults(func=_cmd_monitor)

    cch = sub.add_parser(
        "cache",
        help="manage the columnar trace cache: build, inspect, verify, "
        "or clear one capture's entry (needs --trace-cache or "
        "$REPRO_TRACE_CACHE)",
    )
    cch.add_argument("trace", help="pcap path the entry is keyed on")
    cch.add_argument(
        "action",
        choices=("build", "info", "verify", "clear"),
        help="build: decode and cache the capture; info: print the "
        "entry manifest; verify: recheck content digests; clear: "
        "remove the entry",
    )
    cch.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the exit status the module docstring lists."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly the way
        # well-behaved Unix tools do.
        try:
            os.close(sys.stdout.fileno())
        except OSError:
            pass
        return 0
    except OSError as error:
        # A path the run writes or an address it binds is unusable (a
        # missing directory, a file where a directory must be, a port
        # in use); the message names it.
        print("error: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
