"""Fast-path throughput benchmark: chunked kernels vs per-packet loop.

The fast path's reason to exist is throughput: the same monitored,
flow-accounted 1-in-50 streaming pass over a fixed slice of the
calibrated hour, once through the per-packet reference loop (selector
``offer`` + monitor ``observe`` + accountant ``observe`` per packet)
and once through the chunked pipeline
(:func:`repro.fastpath.run_monitor`).  The pass runs twice, once per
leg: the stratified selector, and the timer-systematic selector at a
period of 50 mean gaps.  Each leg's outputs are asserted bit-identical
before any timing is recorded — a fast wrong answer is not a result —
and each leg's speedup is gated at 10x, below the observed ~20-25x
while still catching a de-vectorization regression (the per-packet
loop is ~7us/packet; anything near that on the fast path means a
kernel silently fell back, or a selector's ``keep_mask`` loops per
kept packet).

Both flow accountants use a 120 s active timeout.  The slice is about
460 s of traffic, so under the NetFlow default of 1800 s no active
timeout would fire and the gate would never see the flow kernel's
active-timeout reconstruction; at 120 s long-lived flows are exported
and restarted up to three times, on both tables.

The record lands in ``bench_fastpath_streaming.json`` for the CI
regression gate (``check_regression.py`` compares ``wall_s`` entries
against ``baseline.json``).
"""

import json
import os
import time

import numpy as np

from repro.core.sampling.streaming import (
    StreamingStratified,
    StreamingTimerSystematic,
)
from repro.core.sampling.timer import mean_interarrival_us
from repro.fastpath import (
    chunk_kernel_for,
    iter_trace_chunks,
    run_monitor,
)
from repro.flows.sampled import StreamFlowAccountant
from repro.flows.table import iter_flow_keys
from repro.obs.live.monitor import QualityMonitor

GRANULARITY = 50
PACKETS = 200_000
WINDOW_US = 30_000_000
ROUNDS = 3
MIN_SPEEDUP = 10.0
SEED = 42
#: Short enough that active timeouts fire inside the slice (see above).
ACTIVE_TIMEOUT_US = 120_000_000


def _best_of(rounds, fn):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_fastpath_streaming(hour_trace, emit):
    window = hour_trace.slice_packets(0, PACKETS)
    packets = list(iter_flow_keys(window))
    assert len(packets) == PACKETS
    period_us = mean_interarrival_us(window) * GRANULARITY
    # wall_s key prefix -> a fresh selector of that leg.
    legs = {
        "": lambda: StreamingStratified(
            GRANULARITY, rng=np.random.default_rng(SEED)
        ),
        "timer_": lambda: StreamingTimerSystematic(period_us=period_us),
    }

    def per_packet(selector):
        sampler = selector()
        monitor = QualityMonitor(window_us=WINDOW_US)
        accountant = StreamFlowAccountant(active_timeout_us=ACTIVE_TIMEOUT_US)
        windows = []
        for ts, size, key in packets:
            kept = sampler.offer(ts)
            windows.extend(monitor.observe(ts, float(size), kept))
            accountant.observe(ts, size, key, kept)
        final = monitor.flush()
        if final is not None:
            windows.append(final)
        accountant.flush()
        return windows, monitor, accountant

    def fastpath(selector):
        sampler = selector()
        monitor = QualityMonitor(window_us=WINDOW_US)
        accountant = StreamFlowAccountant(active_timeout_us=ACTIVE_TIMEOUT_US)
        windows = []
        run_monitor(
            iter_trace_chunks(window),
            chunk_kernel_for(sampler),
            monitor,
            on_window=windows.append,
            accountant=accountant,
        )
        final = monitor.flush()
        if final is not None:
            windows.append(final)
        accountant.flush()
        return windows, monitor, accountant

    walls = {}
    speedups = {}
    for leg, selector in legs.items():
        # Identity first: timing a divergent pipeline would be meaningless.
        ref_windows, ref_monitor, ref_accountant = per_packet(selector)
        fast_windows, fast_monitor, fast_accountant = fastpath(selector)
        assert [w.as_dict() for w in fast_windows] == [
            w.as_dict() for w in ref_windows
        ]
        assert fast_monitor.store.snapshot() == ref_monitor.store.snapshot()
        assert fast_accountant.parent() == ref_accountant.parent()
        assert fast_accountant.sampled() == ref_accountant.sampled()

        slow = walls[leg + "per_packet"] = _best_of(
            ROUNDS, lambda: per_packet(selector)
        )
        fast = walls[leg + "fastpath"] = _best_of(
            ROUNDS, lambda: fastpath(selector)
        )
        speedups[leg + "speedup"] = speedup = slow / fast
        assert speedup >= MIN_SPEEDUP, (
            "%sfastpath speedup %.1fx below the %.0fx gate "
            "(per-packet %.3fs, fastpath %.3fs)"
            % (leg, speedup, MIN_SPEEDUP, slow, fast)
        )

    record = {
        "benchmark": "fastpath_streaming",
        "packets": PACKETS,
        "granularity": GRANULARITY,
        "rounds": ROUNDS,
        **{name: round(value, 1) for name, value in speedups.items()},
        "cpu_count": os.cpu_count(),
        "wall_s": {name: round(wall, 4) for name, wall in walls.items()},
    }
    out_path = os.path.join(
        os.path.dirname(__file__), "bench_fastpath_streaming.json"
    )
    with open(out_path, "w") as stream:
        json.dump(record, stream, indent=2)
        stream.write("\n")
    emit("fastpath streaming: %s" % json.dumps(record, indent=2))
