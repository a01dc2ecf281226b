"""End-to-end `repro-traffic monitor`: the ISSUE acceptance scenario.

A synthetic bursty trace is monitored twice at the same 1-in-20
fraction: timer-driven selection (which favours the packet after each
inter-burst gap, the paper's Section 7.1.2 bias) must raise the
interarrival-φ degradation alert, while packet-driven systematic
selection over the identical stream must stay quiet.  Both verdicts
are read back from the emitted ``events.jsonl``.
"""

import contextlib
import io

import numpy as np
import pytest

from repro.cli import main
from repro.obs import read_events
from repro.trace.pcap import write_pcap
from repro.trace.trace import Trace

RULE = "phi[interarrival]>0.05@3"


def bursty_trace(duration_s=20, burst_n=37, iat_us=300, gap_us=9000, seed=7):
    """Bursts of ~300us-spaced packets separated by long idle gaps."""
    rng = np.random.default_rng(seed)
    cycle_us = gap_us + (burst_n - 1) * iat_us
    cycles = int(duration_s * 1_000_000 / cycle_us) + 2
    gaps = np.tile(np.r_[gap_us, np.full(burst_n - 1, iat_us)], cycles)
    timestamps = np.cumsum(gaps)
    timestamps = timestamps[timestamps < duration_s * 1_000_000]
    sizes = rng.choice([40, 120, 576], size=timestamps.size, p=[0.5, 0.3, 0.2])
    return Trace(
        timestamps_us=timestamps.astype(np.int64),
        sizes=sizes.astype(np.int32),
    )


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def bursty_pcap(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "bursty.pcap"
    write_pcap(bursty_trace(), str(path))
    return str(path)


@pytest.fixture(scope="module")
def monitor_runs(bursty_pcap, tmp_path_factory):
    """One monitor run per selection method, same fraction and rule."""
    runs = {}
    for method in ("timer-systematic", "systematic"):
        run_dir = tmp_path_factory.mktemp("run-%s" % method)
        code, output = run_cli(
            [
                "monitor",
                bursty_pcap,
                "--method",
                method,
                "--granularity",
                "20",
                "--window",
                "5",
                "--rule",
                RULE,
                "--run-dir",
                str(run_dir),
                "--fail-on-alert",
            ]
        )
        runs[method] = {
            "run_dir": str(run_dir),
            "code": code,
            "output": output,
            "events": read_events(str(run_dir / "events.jsonl")),
            "metrics": (run_dir / "metrics.prom").read_text(),
        }
    return runs


class TestTimerVsPacketDrivenContrast:
    def test_timer_design_raises_the_interarrival_alert(self, monitor_runs):
        run = monitor_runs["timer-systematic"]
        raised = [e for e in run["events"] if e.kind == "alert_raised"]
        assert raised, "timer-driven sampling must trip the degradation alert"
        assert raised[0].get("metric") == "phi[interarrival]"
        assert raised[0].get("value") > 0.05
        assert run["code"] == 1  # --fail-on-alert
        assert "ALERT raised" in run["output"]
        assert "repro_monitor_alerts_raised_total 1" in run["metrics"].splitlines()

    def test_packet_driven_design_stays_quiet(self, monitor_runs):
        run = monitor_runs["systematic"]
        kinds = {e.kind for e in run["events"]}
        assert "alert_raised" not in kinds
        assert run["code"] == 0
        assert "ALERT" not in run["output"]
        assert "monitor_alerts" not in run["metrics"]

    def test_same_fraction_for_both_designs(self, monitor_runs):
        fractions = {}
        for method, run in monitor_runs.items():
            windows = [e for e in run["events"] if e.kind == "window"]
            sampled = sum(e.get("sampled") for e in windows)
            offered = sum(e.get("offered") for e in windows)
            fractions[method] = sampled / offered
        assert fractions["timer-systematic"] == pytest.approx(
            fractions["systematic"], rel=0.05
        )
        assert fractions["systematic"] == pytest.approx(1 / 20, rel=0.05)

    def test_run_artifacts_are_complete(self, monitor_runs):
        for run in monitor_runs.values():
            kinds = [e.kind for e in run["events"]]
            assert kinds[0] == "monitor_start"
            assert kinds[-1] == "monitor_end"
            windows = [e for e in run["events"] if e.kind == "window"]
            assert len(windows) == 4  # 20s of trace in 5s windows
            assert {"offered", "sampled", "phi[interarrival]"} <= set(
                windows[0].data
            )
            end = run["events"][-1]
            assert end.get("windows") == 4
            assert "monitor_windows_closed_total 4" in run["metrics"]
            assert "interarrival_parent_bucket" in run["metrics"]


class TestMonitorOptions:
    def test_metrics_out_textfile(self, bursty_pcap, tmp_path):
        target = tmp_path / "scrape" / "live.prom"
        code, _ = run_cli(
            [
                "monitor",
                bursty_pcap,
                "--granularity",
                "20",
                "--window",
                "5",
                "--metrics-out",
                str(target),
            ]
        )
        assert code == 0
        assert "monitor_packets_offered_total" in target.read_text()

    def test_metrics_out_carries_alert_counters(self, bursty_pcap, tmp_path):
        target = tmp_path / "live.prom"
        code, output = run_cli(
            [
                "monitor",
                bursty_pcap,
                "--method",
                "timer-systematic",
                "--granularity",
                "20",
                "--window",
                "5",
                "--rule",
                RULE,
                "--metrics-out",
                str(target),
            ]
        )
        assert code == 0
        assert "ALERT raised" in output
        assert "repro_monitor_alerts_raised_total 1" in target.read_text().splitlines()

    def test_default_rules_quiet_on_healthy_sampling(self, bursty_pcap):
        code, output = run_cli(
            ["monitor", bursty_pcap, "--granularity", "20", "--window", "5"]
        )
        assert code == 0
        assert "0 alerts raised" in output


class TestOperationalErrors:
    def test_missing_trace_exits_nonzero(self, capsys):
        assert main(["monitor", "/does/not/exist.pcap"]) == 2
        assert "error: trace file not found" in capsys.readouterr().err

    def test_directory_trace_exits_nonzero(self, tmp_path, capsys):
        assert main(["monitor", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_garbage_trace_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "garbage.pcap"
        path.write_bytes(b"this is not a capture file")
        assert main(["monitor", str(path)]) == 2
        assert "unreadable trace" in capsys.readouterr().err

    def test_empty_trace_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "empty.pcap"
        write_pcap(Trace.empty(), str(path))
        assert main(["monitor", str(path)]) == 2
        assert "is empty" in capsys.readouterr().err

    def test_bad_rule_spec_exits_nonzero(self, bursty_pcap, capsys):
        assert main(["monitor", bursty_pcap, "--rule", "phi>="]) == 2
        assert "cannot parse alert rule" in capsys.readouterr().err

    def test_report_on_missing_run_dir_exits_nonzero(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "never-ran")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_report_on_monitor_run_dir_points_to_metrics(self, monitor_runs, capsys):
        run_dir = monitor_runs["systematic"]["run_dir"]
        assert main(["report", run_dir]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "report --metrics %s" % run_dir in lines[0]
