"""Trace ingest benchmark: vectorized pcap decode and warm cache load.

Three ways to get the calibrated hour (~1.5 million packets) off disk
and into columns: the per-packet reference loop, the block-scan
vectorized decoder (:mod:`repro.trace.store`), and a warm
:class:`~repro.trace.store.TraceStore` hit that memory-maps the
already-decoded columns.  The reference is reached the way an
unverifiable capture reaches it: the decoder raises
:class:`~repro.trace.store.FastpathUnsupported` at offset 0, and
``iter_pcap`` re-parses the whole stream per record.  All three traces are asserted equal, column
for column, before any timing is recorded — a fast wrong answer is not
a result.  The vectorized decode is gated at 10x the reference and the
warm load at 50x (observed ~13x and ~400x; the gates catch a decoder
that silently falls back to the per-packet loop and a cache that
quietly re-parses).

The record lands in ``bench_trace_ingest.json`` for the CI regression
gate (``check_regression.py`` compares ``wall_s`` entries against
``baseline.json``).
"""

import json
import os
import time

import pytest

from repro.trace.pcap import read_pcap, write_pcap
from repro.trace.store import FastpathUnsupported, TraceStore

ROUNDS = 3
REF_ROUNDS = 2  # the reference loop is slow and stable; two is plenty
MIN_DECODE_SPEEDUP = 10.0
MIN_WARM_SPEEDUP = 50.0


def _best_of(rounds, fn):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _decline(*_args, **_kwargs):
    raise FastpathUnsupported("forced", 0)


def read_per_packet(path):
    """``read_pcap`` with the decoder demoting the whole stream to the
    per-record reference loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.trace.pcap.iter_decoded_columns", _decline)
        return read_pcap(path)


def test_trace_ingest(hour_trace, tmp_path, emit):
    path = str(tmp_path / "hour.pcap")
    write_pcap(hour_trace, path)
    store = TraceStore(str(tmp_path / "cache"))

    # Identity first, all columns, both decoders and the cache path.
    reference = read_per_packet(path)
    vectorized = read_pcap(path)
    assert vectorized == reference
    assert store.load(path) is None  # cold cache
    built = store.load_or_build(path)
    assert built == reference
    warm = store.load(path)
    assert warm is not None and warm == reference

    walls = {
        "per_packet": _best_of(REF_ROUNDS, lambda: read_per_packet(path)),
        "vectorized": _best_of(ROUNDS, lambda: read_pcap(path)),
        "warm_cache": _best_of(ROUNDS, lambda: store.load(path)),
    }
    decode_speedup = walls["per_packet"] / walls["vectorized"]
    warm_speedup = walls["per_packet"] / walls["warm_cache"]
    assert decode_speedup >= MIN_DECODE_SPEEDUP, (
        "vectorized decode %.1fx below the %.0fx gate "
        "(per-packet %.3fs, vectorized %.3fs)"
        % (decode_speedup, MIN_DECODE_SPEEDUP,
           walls["per_packet"], walls["vectorized"])
    )
    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        "warm cache load %.1fx below the %.0fx gate "
        "(per-packet %.3fs, warm %.3fs)"
        % (warm_speedup, MIN_WARM_SPEEDUP,
           walls["per_packet"], walls["warm_cache"])
    )

    record = {
        "benchmark": "trace_ingest",
        "packets": len(hour_trace),
        "pcap_bytes": os.path.getsize(path),
        "rounds": ROUNDS,
        "decode_speedup": round(decode_speedup, 1),
        "warm_speedup": round(warm_speedup, 1),
        "cpu_count": os.cpu_count(),
        "wall_s": {name: round(wall, 4) for name, wall in walls.items()},
    }
    out_path = os.path.join(
        os.path.dirname(__file__), "bench_trace_ingest.json"
    )
    with open(out_path, "w") as stream:
        json.dump(record, stream, indent=2)
        stream.write("\n")
    emit("trace ingest: %s" % json.dumps(record, indent=2))
