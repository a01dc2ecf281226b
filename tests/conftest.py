"""Shared fixtures.

The expensive synthetic traces are session-scoped: the calibrated
generator is deterministic for a given seed, so every test sees the
same population.
"""

import contextlib
import functools

import numpy as np
import pytest
from hypothesis import settings

from repro.adaptive import run_adaptive
from repro.flows import chunked
from repro.trace.store import FastpathUnsupported
from repro.trace.trace import Trace
from repro.workload.generator import nsfnet_hour_trace

# The nightly scheduled job reruns the property suites with a much
# larger search budget (`--hypothesis-profile=nightly`); the default
# profile stays untouched for interactive and per-PR runs.
settings.register_profile("nightly", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def minute_trace() -> Trace:
    """One synthetic minute (~25k packets), clock-quantized."""
    return nsfnet_hour_trace(seed=101, duration_s=60)


@pytest.fixture(scope="session")
def five_minute_trace() -> Trace:
    """Five synthetic minutes (~128k packets), clock-quantized."""
    return nsfnet_hour_trace(seed=202, duration_s=300)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture()
def tiny_trace() -> Trace:
    """Ten handcrafted packets with fully known fields.

    Timestamps are 1000 us apart except for a burst (packets 4-6 are
    100 us apart), sizes alternate 40/552 with one 1500 and one 28.
    """
    return Trace(
        timestamps_us=[0, 1000, 2000, 3000, 3100, 3200, 4200, 5200, 6200, 7200],
        sizes=[40, 552, 40, 552, 40, 1500, 28, 552, 40, 552],
        protocols=[6, 6, 6, 6, 6, 6, 1, 17, 6, 6],
        src_nets=[1, 1, 2, 2, 1, 1, 3, 4, 1, 1],
        dst_nets=[1001, 1001, 1002, 1002, 1001, 1001, 1003, 1004, 1001, 1001],
        src_ports=[1024, 1024, 1025, 1025, 1024, 1024, 0, 1026, 1024, 1024],
        dst_ports=[23, 23, 20, 20, 23, 23, 0, 53, 23, 23],
    )


def _decline_decode(*_args, **_kwargs):
    raise FastpathUnsupported("forced", 0)


#: How each production fast path is forced onto its per-packet
#: reference, through a seam production already has: the attribute to
#: replace and its stand-in.
REFERENCE_SEAMS = {
    # The decoder cannot verify byte 0, so iter_pcap re-parses the
    # whole stream with the per-record loop.
    "decode": ("repro.trace.pcap.iter_decoded_columns", _decline_decode),
    # The encoder declines, so write_pcap runs the per-record writer.
    "encode": ("repro.trace.pcap.encode_trace", lambda trace, snaplen: None),
    # No selector has a chunk path, so monitor_trace offers per packet.
    "select": ("repro.fastpath.pipeline.chunk_kernel_for", lambda selector: None),
    # Every chunk replays through the per-packet FlowTable.
    "flows": ("repro.flows.chunked.account_chunk", chunked._fallback),
    # The adaptive loop offers per packet (repro.adaptive.run_adaptive
    # is the name the CLI calls).
    "adapt": (
        "repro.adaptive.run_adaptive",
        functools.partial(run_adaptive, fastpath=False),
    ),
}


@pytest.fixture(scope="session")
def per_packet():
    """``with per_packet(stage, ...):`` runs the block with those
    stages of :data:`REFERENCE_SEAMS` forced onto the per-packet
    reference; with no stage it changes nothing.  Session-scoped, so
    hypothesis tests can use it too."""

    @contextlib.contextmanager
    def force(*stages):
        with pytest.MonkeyPatch.context() as patch:
            for stage in stages:
                patch.setattr(*REFERENCE_SEAMS[stage])
            yield

    return force
