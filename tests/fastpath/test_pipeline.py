"""The chunked pipeline end to end, and CLI --fastpath equivalence.

``repro-traffic monitor`` and ``flows`` must print byte-identical
output (and emit identical metrics files) with ``--fastpath on`` and
``--fastpath off`` — the user-visible face of the bit-identity
contract.  The pipeline primitives are covered directly too:
:func:`iter_trace_chunks` reassembly and :func:`run_monitor` against
the hand-rolled per-packet loop it replaces.
"""

import contextlib
import io

import numpy as np
import pytest

from repro.cli import main
from repro.core.sampling.streaming import StreamingStratified
from repro.fastpath import (
    DEFAULT_CHUNK_PACKETS,
    FlowAccountantKernel,
    chunk_kernel_for,
    iter_trace_chunks,
    run_monitor,
)
from repro.flows.sampled import StreamFlowAccountant
from repro.flows.table import iter_flow_keys
from repro.obs.live.monitor import QualityMonitor
from repro.trace.pcap import write_pcap
from repro.trace.trace import Trace


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def pcap_path(tmp_path_factory):
    rng = np.random.default_rng(31)
    n = 4000
    gaps = rng.integers(0, 3000, size=n)
    trace = Trace(
        timestamps_us=np.cumsum(gaps).astype(np.int64),
        sizes=rng.integers(28, 1500, size=n).astype(np.int32),
        protocols=rng.choice([6, 17], size=n).tolist(),
        src_nets=rng.integers(1, 8, size=n).tolist(),
        dst_nets=rng.integers(1000, 1010, size=n).tolist(),
        src_ports=rng.integers(1024, 1100, size=n).tolist(),
        dst_ports=rng.choice([23, 53, 80], size=n).tolist(),
    )
    path = tmp_path_factory.mktemp("trace") / "stream.pcap"
    write_pcap(trace, str(path))
    return str(path)


class TestIterTraceChunks:
    def test_reassembles_exactly(self, tiny_trace):
        chunks = list(iter_trace_chunks(tiny_trace, chunk_packets=3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert Trace.concat(chunks) == tiny_trace

    def test_single_chunk_default(self, tiny_trace):
        chunks = list(iter_trace_chunks(tiny_trace))
        assert len(chunks) == 1
        assert chunks[0] == tiny_trace
        assert DEFAULT_CHUNK_PACKETS >= len(tiny_trace)

    def test_empty_trace_yields_nothing(self):
        assert list(iter_trace_chunks(Trace.empty())) == []

    def test_rejects_nonpositive_chunk(self, tiny_trace):
        with pytest.raises(ValueError, match="chunk_packets"):
            list(iter_trace_chunks(tiny_trace, chunk_packets=0))


class TestRunMonitor:
    def test_matches_per_packet_loop(self, minute_trace):
        subset = minute_trace.slice_packets(0, 6000)

        reference_selector = StreamingStratified(
            20, rng=np.random.default_rng(5)
        )
        reference_monitor = QualityMonitor(window_us=2_000_000)
        reference_accountant = StreamFlowAccountant()
        expected_windows = []
        for timestamp, size, key in iter_flow_keys(subset):
            kept = reference_selector.offer(timestamp)
            expected_windows.extend(
                reference_monitor.observe(timestamp, float(size), kept)
            )
            reference_accountant.observe(timestamp, size, key, kept)
        reference_accountant.flush()

        subject_selector = StreamingStratified(
            20, rng=np.random.default_rng(5)
        )
        subject_monitor = QualityMonitor(window_us=2_000_000)
        subject_accountant = StreamFlowAccountant()
        actual_windows = []
        offered = run_monitor(
            iter_trace_chunks(subset, chunk_packets=1024),
            chunk_kernel_for(subject_selector),
            subject_monitor,
            on_window=actual_windows.append,
            accountant=FlowAccountantKernel(subject_accountant),
        )
        subject_accountant.flush()

        assert offered == len(subset)
        assert [w.as_dict() for w in actual_windows] == [
            w.as_dict() for w in expected_windows
        ]
        assert (
            subject_monitor.store.snapshot()
            == reference_monitor.store.snapshot()
        )
        assert subject_accountant.parent() == reference_accountant.parent()
        assert subject_accountant.sampled() == reference_accountant.sampled()


class TestCliEquivalence:
    """--fastpath on and off must be byte-identical, end to end."""

    @pytest.mark.parametrize(
        "method", ["systematic", "stratified", "timer-systematic"]
    )
    def test_monitor_output(self, method, pcap_path, tmp_path):
        outputs, metrics = {}, {}
        for fastpath in ("on", "off"):
            metrics_path = tmp_path / ("m-%s-%s.prom" % (method, fastpath))
            code, output = run_cli(
                [
                    "monitor",
                    pcap_path,
                    "--method",
                    method,
                    "--granularity",
                    "10",
                    "--window",
                    "1",
                    "--status-every",
                    "1",
                    "--metrics-out",
                    str(metrics_path),
                    "--fastpath",
                    fastpath,
                ]
            )
            assert code == 0
            outputs[fastpath] = output
            metrics[fastpath] = metrics_path.read_text()
        assert outputs["on"] == outputs["off"]
        assert metrics["on"] == metrics["off"]

    @pytest.mark.parametrize(
        "mode, cache",
        [
            pytest.param(mode, cache, id=mode + suffix)
            for suffix, cache in (
                ("", []),
                # A tiny cache forces the eviction fallback.
                ("-evicting", ["--max-flows", "8", "--idle-timeout", "0.5"]),
            )
            for mode in ("aggregate", "sample", "invert", "compare")
        ],
    )
    def test_flows_output(self, mode, cache, pcap_path, tmp_path):
        outputs, tables = {}, {}
        for fastpath in ("on", "off"):
            csv_path = tmp_path / ("%s.csv" % fastpath)
            code, output = run_cli(
                [
                    "flows",
                    pcap_path,
                    mode,
                    "--method",
                    "stratified",
                    "--granularity",
                    "10",
                    "--fastpath",
                    fastpath,
                    "--csv",
                    str(csv_path),
                ]
                + cache
            )
            assert code == 0
            outputs[fastpath] = output.replace(str(csv_path), "CSV")
            tables[fastpath] = csv_path.read_bytes()
        assert outputs["on"] == outputs["off"]
        assert tables["on"] == tables["off"]
        if mode == "aggregate" and cache:
            assert "exported (evicted): 0" not in outputs["on"]

    def test_fastpath_auto_is_default(self, pcap_path):
        _code, explicit = run_cli(
            ["flows", pcap_path, "aggregate", "--fastpath", "auto"]
        )
        _code, default = run_cli(["flows", pcap_path, "aggregate"])
        assert default == explicit
