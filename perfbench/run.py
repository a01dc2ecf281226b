"""The repository's benchmark: one workload, one closed-loop run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload online --seed 1 --seconds 40 --trace 0

The run has two processes.  This one does the set-up (generate the
traces from the seed, write the pcaps, build the trace-store entries;
repeated ``SETUP_REPEATS`` times, median reported as ``setup_s``) and
computes the reference outputs.  A child process then measures
back-to-back passes for ``--seconds`` seconds, so its peak RSS and CPU
time cover the measured work and nothing else.  Every pass's outputs
must equal the first pass's, and the part the reference covers (see
``Workload.checked``) must equal the reference; any mismatch marks every
operation failed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` over
the run's passes (see ``_metrics``); ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics of the median traced
pass.  The last line of standard output is the result object; the line
before it records the seed, the machine and the input sizes.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3
#: The child must finish well inside the run's 180 s limit.
CHILD_TIMEOUT_S = 160


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="60 s inputs, for the self-test"
    )
    parser.add_argument("--measure", metavar="WORKDIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


def _cpu_s() -> float:
    """User+system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# the measuring child


def _measure(args: argparse.Namespace) -> Dict[str, Any]:
    from spans import Tracer
    from workloads import STAGES, WORKLOADS, Context, digest

    workload = WORKLOADS[args.workload]
    ctx = Context(seed=args.seed, tiny=args.tiny, workdir=args.measure)
    # A workload that never reaches a layer reports 0 for its metrics.
    declared = [metric["name"] for metric in _spec()["per_layer"]]

    passes: List[Dict[str, Any]] = []
    expected = checked = ""
    stable = True
    deadline = perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        workload.reset(ctx)
        tracer = Tracer()
        cpu0 = _cpu_s()
        started = perf_counter()
        if traced:
            result, layers = workload.traced(ctx, tracer)
        else:
            result = workload.run(ctx)
        wall = perf_counter() - started
        cpu = _cpu_s() - cpu0
        if not passes:
            # The first pass is timed and reported too: users pay its
            # cold allocator and lazy imports on every run of the CLI.
            expected = digest(result.outputs)
            checked = digest(workload.checked(ctx, result.outputs))
            first = result
        stable = stable and digest(result.outputs) == expected
        entry: Dict[str, Any] = {
            "traced": traced,
            "wall_s": wall,
            "cpu_s": cpu,
            "ops": result.ops,
            "packets": result.packets,
        }
        if traced:
            unstaged = set(tracer.self_s) - {
                span for spans in STAGES.values() for span in spans
            }
            if unstaged:
                raise RuntimeError("spans outside every stage: %s" % sorted(unstaged))
            unknown = set(layers) - set(declared)
            if unknown:
                raise RuntimeError("undeclared layer metrics: %s" % sorted(unknown))
            entry["layers"] = {name: 0.0 for name in declared}
            entry["layers"].update(layers)
            for stage, spans in STAGES.items():
                entry["layers"][stage] = tracer.total(*spans)
            entry["layers"]["other_s"] = wall - tracer.attributed()
        passes.append(entry)
        # Stop at the deadline once the run has what it reports: two
        # untraced passes, and a traced one with --trace 1.
        enough = len(passes) >= (3 if args.trace else 2)
        if enough and perf_counter() >= deadline:
            break
    workload.reset(ctx)
    return {
        "expected": expected,
        "checked": checked,
        "stable": stable,
        "passes": passes,
        "peak_rss_mb": _peak_rss_mb(),
        "packets": first.packets,
        "ops_per_pass": first.ops,
    }


# ----------------------------------------------------------------------
# set-up, reference, and the result


def _median_pass(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The median pass by wall time (the faster middle one of an even
    count), so that every figure reported comes from one pass."""
    ordered = sorted(passes, key=lambda p: p["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def _metrics(args: argparse.Namespace, measured: Dict[str, Any], setup_s: float) -> Dict[str, float]:
    # End-to-end times are means over every untraced pass of the run,
    # that is the run's closed-loop throughput.  On a shared VM whose
    # speed swings by up to 1.8x for tens of seconds, the mean uses all
    # the time measured, and across seeds it varied less than the median
    # or the fastest pass (see README.md).
    passes = measured["passes"]
    untraced = [p for p in passes if not p["traced"]]
    wall_s = sum(p["wall_s"] for p in untraced)
    if not args.trace:
        return {
            "setup_s": setup_s,
            "wall_s": wall_s / len(untraced),
            "throughput_pps": sum(p["packets"] for p in untraced) / wall_s,
            "cpu_s": sum(p["cpu_s"] for p in untraced) / len(untraced),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
    median = _median_pass(untraced)
    chosen = _median_pass([p for p in passes if p["traced"]])
    values = dict(chosen["layers"])
    values["traced_wall_s"] = chosen["wall_s"]
    values["trace_overhead_s"] = chosen["wall_s"] - median["wall_s"]
    return values


def _run(args: argparse.Namespace) -> int:
    spec = _spec()
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    if args.workload not in why:
        sys.exit("perfbench: unknown workload %r (have %s)" % (args.workload, ", ".join(why)))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    import numpy as np

    from workloads import WORKLOADS, Context, digest

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "tmp"))
    ctx = Context(seed=args.seed, tiny=args.tiny, workdir=workdir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            started = perf_counter()
            traces = workload.setup(ctx)
            setups.append(perf_counter() - started)
        started = perf_counter()
        reference = digest(workload.reference(ctx, traces))
        reference_s = perf_counter() - started
        trace_packets = {name: len(trace) for name, trace in traces.items()}
        del traces

        # The child keeps temporary files (the engine's pool breadcrumbs)
        # inside the checkout too.
        env = dict(os.environ, TMPDIR=os.path.join(workdir, "tmp"))
        command = [sys.executable, os.path.abspath(__file__), "--measure", workdir]
        command += ["--workload", args.workload, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            command.append("--tiny")
        started = perf_counter()
        child = subprocess.run(
            command, stdout=subprocess.PIPE, env=env, timeout=CHILD_TIMEOUT_S, check=False
        )
        child_s = perf_counter() - started
        if child.returncode != 0:
            sys.stderr.write("perfbench: measuring process exited %d\n" % child.returncode)
            return 1
        measured = json.loads(child.stdout.decode("utf-8").splitlines()[-1])
        pcap_bytes = {name: os.path.getsize(ctx.pcap(name)) for name in trace_packets}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = measured["stable"] and measured["checked"] == reference
    timed = measured["passes"]
    attempted = sum(p["ops"] for p in timed)
    failed = 0 if correct else attempted
    values = _metrics(args, measured, statistics.median(setups))
    info = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "inputs": {
            "trace_packets": trace_packets,
            "pcap_bytes": pcap_bytes,
            "packets_per_pass": measured["packets"],
            "operation": workload.operation,
            "operations_per_pass": measured["ops_per_pass"],
        },
        "pass_walls_s": [p["wall_s"] for p in timed if not p["traced"]],
        "pass_cpus_s": [p["cpu_s"] for p in timed if not p["traced"]],
        "traced_pass_walls_s": [p["wall_s"] for p in timed if p["traced"]],
        "setup_runs_s": setups,
        "reference_s": reference_s,
        "measuring_process_s": child_s,
        "failed_share": failed / attempted,
        "correct": correct,
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }))
    return 0


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("perfbench: no program source at %s; run from a checkout" % SRC)
    sys.path.insert(0, SRC)
    if args.measure:
        print(json.dumps(_measure(args)))
        return 0
    return _run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
