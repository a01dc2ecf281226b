"""The metrics registry: spans, counters, gauges, histograms, the
window ring, merge, and the disabled null twin."""

import pytest

from repro.obs import (
    NULL_OBS,
    Instrumentation,
    RingBuffer,
    SCHEMA_VERSION,
    WINDOW_HISTORY,
    render_prometheus,
)


class TestCounters:
    def test_increment(self):
        obs = Instrumentation()
        obs.counter("shards").inc()
        obs.counter("shards").inc(4)
        assert obs.counter("shards").value == 5

    def test_same_name_same_object(self):
        obs = Instrumentation()
        assert obs.counter("a") is obs.counter("a")
        assert obs.counter("a") is not obs.counter("b")


class TestGauges:
    def test_set_overwrites(self):
        obs = Instrumentation()
        obs.gauge("bytes").set(10)
        obs.gauge("bytes").set(3)
        assert obs.gauge("bytes").value == 3

    def test_high_keeps_maximum(self):
        obs = Instrumentation()
        for value in (5, 12, 7):
            obs.gauge("rss").high(value)
        assert obs.gauge("rss").value == 12


class TestSpans:
    def test_span_aggregates_into_timer(self):
        obs = Instrumentation()
        for _ in range(3):
            with obs.span("work"):
                pass
        timers = obs.snapshot()["timers"]
        assert timers["work"]["count"] == 3
        assert timers["work"]["total_s"] >= 0
        assert timers["work"]["max_s"] <= timers["work"]["total_s"] + 1e-9

    def test_span_ids_increment_and_parents_nest(self):
        obs = Instrumentation()
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with obs.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.span_id < inner.span_id < sibling.span_id

    def test_no_span_events_without_profile(self):
        obs = Instrumentation(profile=False)
        with obs.span("quiet"):
            pass
        assert obs.events == []
        assert "quiet" in obs.snapshot()["timers"]

    def test_profile_emits_paired_events(self):
        obs = Instrumentation(profile=True)
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        kinds = [e["kind"] for e in obs.events]
        assert kinds == ["span_start", "span_start", "span_end", "span_end"]
        start_outer, start_inner, end_inner, end_outer = obs.events
        assert start_outer["name"] == end_outer["name"] == "outer"
        assert start_inner["parent"] == start_outer["span"]
        assert "parent" not in start_outer  # None payloads are dropped
        assert end_inner["dur_s"] >= 0


class TestEvents:
    def test_seq_is_monotone_and_versioned(self):
        obs = Instrumentation()
        obs.event("run_start", jobs=2)
        obs.event("retry", shard="a/b/g2/r0", attempt=0)
        assert [e["seq"] for e in obs.events] == [1, 2]
        assert all(e["v"] == SCHEMA_VERSION for e in obs.events)

    def test_none_payload_values_dropped(self):
        obs = Instrumentation()
        obs.event("retry", shard="k", detail=None)
        assert "detail" not in obs.events[0]

    def test_no_wall_clock_in_events(self):
        """The determinism contract: durations only, never timestamps."""
        obs = Instrumentation(profile=True)
        with obs.span("work"):
            obs.event("fault_injected", shard="k", attempt=0)
        for event in obs.events:
            assert not {"time", "ts", "timestamp"} & event.keys()


class TestRingBuffer:
    def test_eviction_and_dropped_count(self):
        ring = RingBuffer(3)
        assert ring.latest() is None
        for i in range(5):
            ring.append(i)
        assert ring.to_list() == [2, 3, 4]
        assert list(ring) == [2, 3, 4]
        assert len(ring) == 3
        assert ring.dropped == 2
        assert ring.latest() == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            RingBuffer(0)


class TestHistogramsAndMerge:
    def test_merge_is_exact(self):
        a, b = Instrumentation(), Instrumentation()
        a.counter("n").inc(3)
        b.counter("n").inc(4)
        b.counter("only_b").inc(1)
        a.gauge("peak").high(2.0)
        b.gauge("peak").high(5.0)
        a.histogram("h", (10.0,)).update_many([1.0, 20.0])
        b.histogram("h", (10.0,)).update(2.0)
        a.windows.append({"start_us": 0, "window": 0})
        b.windows.append({"start_us": 100, "window": 0})
        with a.span("s"):
            pass
        for _ in range(2):
            with b.span("s"):
                pass

        merged = a.merge(b)
        snapshot = merged.snapshot()
        assert snapshot["counters"] == {"n": 7, "only_b": 1}
        assert snapshot["gauges"] == {"peak": 5.0}
        assert snapshot["histograms"]["h"]["counts"] == [2, 1]
        assert [w["start_us"] for w in merged.windows.to_list()] == [0, 100]
        timers = [side.snapshot()["timers"]["s"] for side in (a, b)]
        assert snapshot["timers"]["s"]["count"] == 3
        assert snapshot["timers"]["s"]["max_s"] == max(t["max_s"] for t in timers)

    def test_merge_mismatched_edges_raises(self):
        a, b = Instrumentation(), Instrumentation()
        a.histogram("h", (10.0,))
        b.histogram("h", (20.0,))
        with pytest.raises(ValueError, match="different edges"):
            a.merge(b)

    def test_reregistering_histogram_with_new_edges_raises(self):
        store = Instrumentation()
        store.histogram("h", (10.0, 20.0))
        assert store.histogram("h", (10.0, 20.0)) is store.histograms()["h"]
        with pytest.raises(ValueError, match="different edges"):
            store.histogram("h", (10.0, 30.0))

    def test_merge_keeps_newest_windows_up_to_capacity(self):
        a, b = Instrumentation(), Instrumentation()
        for t in range(0, 2 * WINDOW_HISTORY, 2):
            a.windows.append({"start_us": t})
        for t in range(1, 2 * WINDOW_HISTORY, 2):
            b.windows.append({"start_us": t})
        merged = a.merge(b)
        assert [w["start_us"] for w in merged.windows.to_list()] == list(
            range(WINDOW_HISTORY, 2 * WINDOW_HISTORY)
        )


class TestExposition:
    def test_sections_render_in_registry_order(self):
        obs = Instrumentation()
        obs.histogram("h", (1.0,)).update(0.5)
        with obs.span("s"):
            pass
        obs.gauge("g").set(1)
        obs.counter("c").inc()
        types = [
            line.split()[2]
            for line in render_prometheus(obs.snapshot()).splitlines()
            if line.startswith("# TYPE")
        ]
        assert types == [
            "repro_c_total",
            "repro_g",
            "repro_span_seconds_total",
            "repro_span_count",
            "repro_span_seconds_max",
            "repro_h",
        ]


class TestNullInstrumentation:
    def test_disabled_surface_is_inert(self):
        assert NULL_OBS.enabled is False
        with NULL_OBS.span("anything"):
            NULL_OBS.counter("c").inc(10)
            NULL_OBS.gauge("g").set(10)
            NULL_OBS.gauge("g").high(10)
            NULL_OBS.event("retry", shard="k")
        assert NULL_OBS.events == []
        assert NULL_OBS.snapshot() == {
            "counters": {},
            "gauges": {},
            "timers": {},
        }

    def test_null_handles_are_shared(self):
        assert NULL_OBS.counter("a") is NULL_OBS.counter("b")
        assert NULL_OBS.span("a") is NULL_OBS.span("b")
