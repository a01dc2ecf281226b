"""OpenMetrics rendering, atomic textfile export, and the /metrics port."""

import os
import urllib.error
import urllib.request

import pytest

from repro.core.metrics.bins import INTERARRIVAL_BINS_US
from repro.obs import Instrumentation, render_prometheus
from repro.obs.live import CONTENT_TYPE, MetricsServer, TextfileExporter


def render(store):
    return render_prometheus(store.snapshot())


def populated_store():
    store = Instrumentation()
    store.counter("monitor_windows_closed").inc(3)
    store.gauge("monitor_phi_packet_size").set(0.04)
    hist = store.histogram("packet_size_parent", (41.0, 181.0))
    hist.update_many([30.0, 100.0, 100.0, 500.0])
    return store


class TestRendering:
    def test_counter_gauge_and_histogram_families(self):
        text = render(populated_store())
        lines = text.splitlines()
        assert "repro_monitor_windows_closed_total 3" in lines
        assert "repro_monitor_phi_packet_size 0.04" in lines
        # Histogram buckets are cumulative with a +Inf catch-all; a
        # bin holds [lo, edge), so each label is the double below it.
        assert 'repro_packet_size_parent_bucket{le="40.99999999999999"} 1' in lines
        assert 'repro_packet_size_parent_bucket{le="180.99999999999997"} 3' in lines
        assert 'repro_packet_size_parent_bucket{le="+Inf"} 4' in lines
        assert "repro_packet_size_parent_count 4" in lines
        assert "# TYPE repro_packet_size_parent histogram" in lines
        assert text.endswith("\n")

    def test_empty_store_renders_empty(self):
        assert render(Instrumentation()) == ""

    def test_fractional_edges_keep_precision(self):
        store = Instrumentation()
        store.histogram("h", (0.5,)).update(0.1)
        assert 'repro_h_bucket{le="0.49999999999999994"} 1' in render(store)

    def test_buckets_count_values_at_most_their_le(self):
        # The paper's trace has a 400 us clock, so interarrival gaps sit
        # exactly on the bin edges as often as between them.
        edges = INTERARRIVAL_BINS_US.edges
        values = [0.0, 400.0, 799.0]
        for lo, hi in zip(edges, edges[1:] + (edges[-1] * 2,)):
            values += [float(lo), (lo + hi) / 2.0]
        store = Instrumentation()
        store.histogram("gaps", edges).update_many(values)
        buckets = [
            line for line in render(store).splitlines()
            if line.startswith("repro_gaps_bucket")
        ]
        assert len(buckets) == len(edges) + 1
        for line in buckets:
            label, count = line.split(" ")
            le = float(label.split('"')[1])
            assert int(count) == sum(value <= le for value in values), line


class TestTextfileExporter:
    def test_export_writes_snapshot_atomically(self, tmp_path):
        path = tmp_path / "scrape" / "monitor.prom"
        exporter = TextfileExporter(str(path))
        store = populated_store()
        assert exporter.export(store) == str(path)
        exporter.export(store)
        assert exporter.writes == 2
        content = path.read_text()
        assert content == render(store)
        # No temp file is left behind after the rename.
        assert os.listdir(path.parent) == ["monitor.prom"]

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            TextfileExporter("")


class TestMetricsServer:
    def test_serves_the_live_render(self):
        store = populated_store()
        with MetricsServer(lambda: render(store), port=0) as server:
            assert server.url == "http://127.0.0.1:%d/metrics" % server.port
            with urllib.request.urlopen(server.url) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode("utf-8")
            assert "repro_monitor_windows_closed_total 3" in body
            # The render callback is re-run per scrape, not cached.
            store.counter("monitor_windows_closed").inc()
            with urllib.request.urlopen(server.url) as response:
                assert "monitor_windows_closed_total 4" in response.read().decode()

    def test_unknown_path_is_404(self):
        with MetricsServer(lambda: "", port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    "http://127.0.0.1:%d/debug" % server.port
                )
            excinfo.value.close()
            assert excinfo.value.code == 404

    def test_close_releases_the_port(self):
        server = MetricsServer(lambda: "", port=0)
        port = server.port
        server.close()
        # The port is free again: a new server can bind it immediately.
        rebound = MetricsServer(lambda: "", port=port)
        assert rebound.port == port
        rebound.close()
