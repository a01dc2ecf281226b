"""Command-line interface."""

import socket
import struct

import pytest

from repro.cli import build_parser, main
from repro.flows.table import FlowTable, aggregate_trace
from repro.trace.pcap import PcapError, read_pcap


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out.pcap"])
        assert args.seed == 1993
        assert args.duration == 3600

    def test_sample_method_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sample", "x", "--method", "bogus"])


def _patch_u32(offset, value):
    """A corruption overwriting one little-endian u32 of the capture."""
    return lambda raw: raw[:offset] + struct.pack("<I", value) + raw[offset + 4 :]


#: Ways a capture can be unusable, each applied to the bytes of one
#: valid capture (24-byte global header; the first record's header
#: holds ts_usec at 28 and incl_len at 32, its IP header starts at 40).
#: ``None`` entries are not files: a missing path and a directory.
CORRUPTIONS = {
    "missing-file": None,
    "directory": None,
    "empty-file": lambda raw: b"",
    "10-byte-header": lambda raw: raw[:10],
    "bad-magic": _patch_u32(0, 0xDEADBEEF),
    "pcapng-magic": _patch_u32(0, 0x0A0D0D0A),
    "ethernet-link-type": _patch_u32(20, 1),
    "incl-len-huge": _patch_u32(32, 0x7FFFFFFF),
    "incl-len-0": _patch_u32(32, 0),
    "incl-len-12": _patch_u32(32, 12),
    "ipv6-version": lambda raw: raw[:40] + b"\x60" + raw[41:],
    "usec-1500000": _patch_u32(28, 1_500_000),
    "header-only": lambda raw: raw[:24],
}

#: Every trace-reading subcommand; TRACE stands for the capture path.
TRACE_COMMANDS = {
    name: [name, "TRACE"]
    for name in (
        "describe", "validate", "sample", "experiment", "samplesize",
        "netmon", "reproduce", "fidelity", "monitor", "adapt",
    )
}
TRACE_COMMANDS["flows"] = ["flows", "TRACE", "aggregate"]


def _argv(template, path):
    return [path if arg == "TRACE" else arg for arg in template]


@pytest.fixture(scope="module")
def clean_pcap(tmp_path_factory):
    """One valid 5 s capture."""
    from repro.trace.pcap import write_pcap
    from repro.workload.generator import nsfnet_hour_trace

    path = tmp_path_factory.mktemp("capture") / "t.pcap"
    write_pcap(nsfnet_hour_trace(seed=7, duration_s=5), str(path))
    return str(path)


@pytest.fixture(scope="module")
def malformed(clean_pcap, tmp_path_factory):
    """Path of each corruption of ``clean_pcap``, by case name."""
    root = tmp_path_factory.mktemp("malformed")
    with open(clean_pcap, "rb") as stream:
        raw = stream.read()
    paths = {"missing-file": str(root / "missing.pcap")}
    (root / "directory").mkdir()
    paths["directory"] = str(root / "directory")
    for case, corrupt in CORRUPTIONS.items():
        if corrupt is not None:
            path = root / ("%s.pcap" % case)
            path.write_bytes(corrupt(raw))
            paths[case] = str(path)
    return paths


class TestMalformedInput:
    """Unusable input is one ``error:`` line and exit 2, never a
    traceback, whether or not the read goes through the trace cache."""

    @pytest.mark.parametrize("command", sorted(TRACE_COMMANDS))
    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_one_line_error(self, case, command, malformed, tmp_path, capsys):
        path = malformed[case]
        argv = _argv(TRACE_COMMANDS[command], path)
        lines = []
        for route in ([], ["--trace-cache", str(tmp_path / "cache")]):
            code = main(route + argv)
            out, err = capsys.readouterr()
            if (case, command) == ("header-only", "validate"):
                # An empty capture is a validate finding, not an error.
                assert (code, err) == (0, "")
                assert "warning: trace is empty" in out
                continue
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1
            assert path in err and "Traceback" not in err
            lines.append(err)
        assert len(set(lines)) <= 1

    @pytest.mark.parametrize(
        "case", sorted(set(CORRUPTIONS) - {"missing-file", "directory"})
    )
    def test_both_codecs_agree(self, case, malformed, per_packet):
        outcomes = []
        for stages in ((), ("decode",)):
            try:
                with per_packet(*stages):
                    outcomes.append(len(read_pcap(malformed[case])))
            except PcapError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_cache_build_fails_like_the_loader(
        self, case, malformed, tmp_path, capsys
    ):
        path = malformed[case]
        assert main(["describe", path]) == 2
        expected = capsys.readouterr().err
        cache = str(tmp_path / "cache")
        assert main(["--trace-cache", cache, "cache", path, "build"]) == 2
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["experiment", "TRACE", "--chaos", "bogus"],
                "bad chaos spec item 'bogus' (expected key=value)",
            ),
            (["experiment", "TRACE", "--jobs", "0"], "jobs must be >= 1, got 0"),
            (
                ["sample", "TRACE", "--granularity", "0"],
                "granularity must be >= 1, got 0",
            ),
            (
                ["fidelity", "TRACE", "--window", "0"],
                "window length must be positive",
            ),
            (
                ["netmon", "TRACE", "--capacity", "0"],
                "capacity must be at least 1 packet/s",
            ),
            (
                ["samplesize", "TRACE", "--confidence", "2"],
                "confidence must be in (0, 1), got 2.0",
            ),
        ],
        ids=["chaos", "jobs", "granularity", "window", "capacity", "confidence"],
    )
    def test_rejected_flag_value(self, argv, message, clean_pcap, capsys):
        assert main(_argv(argv, clean_pcap)) == 2
        assert capsys.readouterr().err == "error: %s\n" % message


class TestErrorPaths:
    def test_bad_granularity_type(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sample", "x", "--granularity", "not-a-number"]
            )

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "command, granularity_flag",
        [("adapt", "--initial-granularity"), ("monitor", "--granularity")],
    )
    def test_out_of_range_phase_is_rejected(
        self, tmp_path, capsys, command, granularity_flag
    ):
        # Neither subcommand may clamp the phase into range silently.
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "5", "--seed", "5"])
        capsys.readouterr()
        argv = [command, trace_path, granularity_flag, "16", "--phase", "100"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: phase must be in [0, 16), got 100\n"

    def test_negative_timer_period_is_rejected(self, tmp_path, capsys):
        # 0 derives the period from the trace; a negative one is an
        # error, as it is for monitor, not silently derived as well.
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "5", "--seed", "5"])
        capsys.readouterr()
        argv = [
            "adapt", trace_path, "--method", "timer-systematic",
            "--period-us", "-5",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: timer period must not be negative "
            "(0 derives it from the trace), got -5\n"
        )

    def test_out_of_order_timestamps_are_rejected(self, tmp_path, capsys):
        # A record stamped before its predecessor is malformed input:
        # one line naming the record, exit 2, never a traceback.
        trace_path = tmp_path / "t.pcap"
        main(["generate", str(trace_path), "--duration", "5", "--seed", "5"])
        capsys.readouterr()
        trace = read_pcap(str(trace_path))
        raw = trace_path.read_bytes()
        first_record = raw[24 : 24 + 16 + struct.unpack_from("<I", raw, 32)[0]]
        trace_path.write_bytes(raw + first_record)
        assert main(["monitor", str(trace_path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: unreadable trace %s: time goes backwards at record "
            "index %d: %d us after %d us\n"
            % (
                trace_path,
                len(trace),
                trace.timestamps_us[0],
                trace.timestamps_us[-1],
            )
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-flows", "0"], "max_flows must be >= 1, got 0"),
            (["--idle-timeout", "0"], "idle timeout must be positive, got 0"),
            (
                ["--active-timeout", "1", "--idle-timeout", "5"],
                "active timeout (1000000) must be >= idle timeout (5000000)",
            ),
        ],
        ids=["max-flows", "idle-timeout", "active-below-idle"],
    )
    def test_invalid_flow_cache_options_are_rejected(
        self, tmp_path, capsys, flags, message
    ):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "5", "--seed", "5"])
        capsys.readouterr()
        assert main(["flows", trace_path, "aggregate"] + flags) == 2
        assert capsys.readouterr().err == "error: %s\n" % message

    @pytest.fixture()
    def trace_path(self, tmp_path, capsys):
        path = str(tmp_path / "t.pcap")
        main(["generate", path, "--duration", "5", "--seed", "5"])
        capsys.readouterr()
        return path

    SMALL_GRID = ["--methods", "systematic", "--max-log2-granularity", "2"]

    # Output paths a run cannot write: under a missing directory, or
    # under a regular file where a directory must be.  ``named`` is the
    # path the error line must name.
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["generate", "{missing}/x.pcap", "--duration", "1"], "{missing}/x.pcap"),
            (["flows", "{trace}", "aggregate", "--csv", "{missing}/x.csv"], "{missing}/x.csv"),
            (["adapt", "{trace}", "--csv", "{missing}/x.csv"], "{missing}/x.csv"),
            (["experiment", "{trace}", "--save", "{missing}/x.csv"] + SMALL_GRID, "{missing}/x.csv"),
            (["experiment", "{trace}", "--run-dir", "{file}/run"] + SMALL_GRID, "{file}/run"),
            (["monitor", "{trace}", "--metrics-out", "{file}/x.prom"], "{file}/x.prom"),
            (["monitor", "{trace}", "--run-dir", "{file}/run"], "{file}/run"),
            (["--trace-cache", "{file}/cache", "describe", "{trace}"], "{file}/cache"),
            (["--trace-cache", "{file}/cache", "cache", "{trace}", "build"], "{file}/cache"),
        ],
        ids=[
            "generate", "flows-csv", "adapt-csv", "experiment-save",
            "experiment-run-dir", "monitor-metrics-out", "monitor-run-dir",
            "describe-trace-cache", "cache-build",
        ],
    )
    def test_unwritable_path_fails_in_one_line(
        self, tmp_path, capsys, trace_path, argv, named
    ):
        (tmp_path / "file").write_text("not a directory")
        paths = dict(
            trace=trace_path,
            missing=str(tmp_path / "missing"),
            file=str(tmp_path / "file"),
        )
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'%s'" % named.format(**paths) in err

    @pytest.mark.parametrize("port", [70000, -1])
    def test_out_of_range_serve_port_is_rejected(self, capsys, trace_path, port):
        assert main(["monitor", trace_path, "--serve-port", str(port)]) == 2
        err = capsys.readouterr().err
        assert err == "error: port must be in [0, 65535], got %d\n" % port

    def test_bound_serve_port_fails_in_one_line(self, capsys, trace_path):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            assert main(["monitor", trace_path, "--serve-port", str(port)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "127.0.0.1:%d" % port in err


class TestCommands:
    def test_generate_and_describe(self, tmp_path, capsys):
        path = str(tmp_path / "t.pcap")
        assert main(["generate", path, "--duration", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out

        assert main(["describe", path]) == 0
        out = capsys.readouterr().out
        assert "packet size" in out
        assert "interarrival" in out

    def test_sample_on_generated_trace(self, tmp_path, capsys):
        path = str(tmp_path / "t.pcap")
        main(["generate", path, "--duration", "10", "--seed", "4"])
        capsys.readouterr()
        assert main(["sample", path, "--granularity", "25"]) == 0
        out = capsys.readouterr().out
        assert "systematic 1/25" in out
        assert "phi=" in out

    def test_experiment_on_generated_trace(self, tmp_path, capsys):
        path = str(tmp_path / "t.pcap")
        main(["generate", path, "--duration", "20", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(
                [
                    "experiment",
                    path,
                    "--methods",
                    "systematic",
                    "stratified",
                    "--max-log2-granularity",
                    "4",
                    "--replications",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mean phi" in out
        assert "systematic" in out
        assert "stratified" in out

    def test_experiment_save_csv(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        csv_path = str(tmp_path / "sweep.csv")
        main(["generate", trace_path, "--duration", "10", "--seed", "6"])
        capsys.readouterr()
        assert (
            main(
                [
                    "experiment",
                    trace_path,
                    "--methods",
                    "systematic",
                    "--max-log2-granularity",
                    "3",
                    "--replications",
                    "1",
                    "--save",
                    csv_path,
                ]
            )
            == 0
        )
        from repro.core.evaluation.persistence import load_result

        # 3 granularities x 1 replication on the CLI's single target.
        assert len(load_result(csv_path)) == 3

    def test_samplesize_command(self, tmp_path, capsys):
        path = str(tmp_path / "t.pcap")
        main(["generate", path, "--duration", "10", "--seed", "7"])
        capsys.readouterr()
        assert main(["samplesize", path, "--accuracy", "2"]) == 0
        out = capsys.readouterr().out
        assert "packet size" in out
        assert "sample 1 in" in out

    def test_netmon_command(self, tmp_path, capsys):
        path = str(tmp_path / "t.pcap")
        main(["generate", path, "--duration", "10", "--seed", "8"])
        capsys.readouterr()
        assert main(["netmon", path, "--capacity", "200"]) == 0
        out = capsys.readouterr().out
        assert "SNMP forwarding-path total" in out
        assert "discrepancy" in out

    def test_netmon_sampled_agrees(self, tmp_path, capsys):
        path = str(tmp_path / "t.pcap")
        main(["generate", path, "--duration", "10", "--seed", "9"])
        capsys.readouterr()
        main(["netmon", path, "--capacity", "200", "--granularity", "50"])
        out = capsys.readouterr().out
        dropped_line = [
            l for l in out.splitlines() if "dropped by collector" in l
        ][0]
        assert int(dropped_line.split()[-3]) == 0

    def test_fidelity_command(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "30", "--seed", "13"])
        capsys.readouterr()
        assert (
            main(
                [
                    "fidelity",
                    trace_path,
                    "--window",
                    "10",
                    "--granularity",
                    "20",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "windowed fidelity" in out
        assert "worst window" in out
        # 30 s of traffic in 10 s windows -> three data rows.
        assert len([l for l in out.splitlines() if l.strip().endswith(tuple("0123456789"))]) >= 3

    def test_describe_empty_synthetic_keyword(self, capsys):
        # 'synthetic' builds a 10-minute trace; smoke-check it summarizes.
        assert main(["describe", "synthetic"]) == 0
        out = capsys.readouterr().out
        assert "packets:" in out


class TestEngineFlags:
    def test_experiment_engine_defaults(self):
        args = build_parser().parse_args(["experiment", "x"])
        assert args.jobs == 1
        assert args.run_dir == ""
        assert args.resume is False

    def test_reproduce_engine_defaults(self):
        args = build_parser().parse_args(["reproduce", "x"])
        assert args.jobs == 1
        assert args.resume is False

    def test_experiment_with_run_dir_writes_checkpoint(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        run_dir = str(tmp_path / "run")
        main(["generate", trace_path, "--duration", "10", "--seed", "7"])
        capsys.readouterr()
        argv = [
            "experiment",
            trace_path,
            "--methods",
            "systematic",
            "--max-log2-granularity",
            "3",
            "--replications",
            "2",
            "--jobs",
            "1",
            "--run-dir",
            run_dir,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert (tmp_path / "run" / "checkpoint.jsonl").exists()
        assert (tmp_path / "run" / "manifest.json").exists()

        # A resumed invocation replays the checkpoint and prints the
        # same table.
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "mean phi" in out
        import json

        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["shards_executed"] == 0
        assert manifest["shards_skipped"] == manifest["shards_total"]


class TestCacheCommand:
    @pytest.fixture()
    def capture(self, tmp_path):
        path = str(tmp_path / "t.pcap")
        main(["generate", path, "--duration", "5", "--seed", "7"])
        return path

    def test_parser_accepts_global_flag(self):
        args = build_parser().parse_args(
            ["--trace-cache", "/tmp/c", "cache", "t.pcap", "info"]
        )
        assert args.trace_cache == "/tmp/c"
        assert args.action == "info"

    def test_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "t.pcap", "frobnicate"])

    def test_requires_configured_cache(self, capture, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert main(["cache", capture, "build"]) == 2
        assert "no trace cache configured" in capsys.readouterr().err

    def test_synthetic_is_never_cached(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["--trace-cache", cache, "cache", "synthetic", "build"]) == 2
        assert "never cached" in capsys.readouterr().err

    def test_build_info_verify_clear(self, tmp_path, capture, capsys):
        cache = str(tmp_path / "cache")
        base = ["--trace-cache", cache, "cache", capture]

        assert main(base + ["build"]) == 0
        assert "built cache entry" in capsys.readouterr().out

        assert main(base + ["info"]) == 0
        out = capsys.readouterr().out
        assert "packets:" in out and "timestamps_us" in out

        assert main(base + ["verify"]) == 0
        assert "intact" in capsys.readouterr().out

        assert main(base + ["clear"]) == 0
        assert "removed 1 cache entry" in capsys.readouterr().out

        assert main(base + ["info"]) == 1
        assert "no cache entry" in capsys.readouterr().out

    def test_build_missing_trace(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        missing = str(tmp_path / "missing.pcap")
        assert main(["--trace-cache", cache, "cache", missing, "build"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_env_var_configures_cache(self, tmp_path, capture, capsys,
                                      monkeypatch):
        cache = str(tmp_path / "cache")
        monkeypatch.setenv("REPRO_TRACE_CACHE", cache)
        assert main(["cache", capture, "build"]) == 0
        capsys.readouterr()
        assert main(["cache", capture, "verify"]) == 0

    def test_commands_warm_and_use_the_cache(self, tmp_path, capture, capsys):
        import os

        cache = str(tmp_path / "cache")
        assert main(["--trace-cache", cache, "describe", capture]) == 0
        capsys.readouterr()
        # The first load populated an entry; subsequent runs hit it.
        assert os.path.isdir(cache) and os.listdir(cache)
        assert main(["--trace-cache", cache, "cache", capture, "verify"]) == 0


class TestDocParserAgreement:
    """The module docstring's subcommand bullets track the parser.

    The docstring used to hardcode a subcommand count ("Eleven
    subcommands..."), which silently went stale every time a command
    was added.  Now the prose derives nothing it can get wrong — and
    this test pins the one thing it still states: exactly one
    ``* ``name`` —`` bullet per registered subparser.
    """

    @staticmethod
    def _registered_subcommands():
        import argparse

        parser = build_parser()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return set(action.choices)
        raise AssertionError("parser has no subparsers")

    @staticmethod
    def _documented_subcommands():
        import re

        import repro.cli

        return set(re.findall(r"^\* ``(\w+)``", repro.cli.__doc__, re.M))

    def test_every_subcommand_is_documented(self):
        registered = self._registered_subcommands()
        documented = self._documented_subcommands()
        assert registered <= documented, (
            "subcommands missing a docstring bullet: %s"
            % sorted(registered - documented)
        )

    def test_no_stale_documentation(self):
        registered = self._registered_subcommands()
        documented = self._documented_subcommands()
        assert documented <= registered, (
            "docstring bullets for unregistered subcommands: %s"
            % sorted(documented - registered)
        )

    def test_no_hardcoded_count(self):
        """No spelled-out or numeric subcommand count to go stale."""
        import re

        import repro.cli

        first_paragraph = repro.cli.__doc__.split("*")[0]
        assert not re.search(
            r"(?i)\b(eleven|twelve|thirteen|fourteen|\d+)\s+subcommands",
            first_paragraph,
        )


class TestFlowsCommand:
    def test_flows_parser_defaults(self):
        args = build_parser().parse_args(["flows", "x", "aggregate"])
        assert args.granularity == 100
        assert args.method == "systematic"
        assert args.max_flows == 65536

    def test_flows_mode_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flows", "x", "bogus-mode"])

    def test_flows_aggregate_and_csv(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        csv_path = tmp_path / "flows.csv"
        main(["generate", trace_path, "--duration", "10", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(["flows", trace_path, "aggregate", "--csv", str(csv_path)])
            == 0
        )
        out = capsys.readouterr().out
        assert "flow records" in out
        assert "exported (flush)" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("src_net,dst_net,src_port,dst_port")

    def test_flows_sample_reports_detection(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "10", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(["flows", trace_path, "sample", "--granularity", "20"]) == 0
        )
        out = capsys.readouterr().out
        assert "parent:" in out
        assert "sampled:" in out
        assert "detected fraction" in out

    def test_flows_sample_honours_max_flows(self, tmp_path, capsys):
        # The cache options shape the parent population in every mode,
        # not only in aggregate: a tiny cache splits flows by eviction.
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "10", "--seed", "5"])
        capsys.readouterr()
        assert main(["flows", trace_path, "sample", "--max-flows", "8"]) == 0
        out = capsys.readouterr().out
        trace = read_pcap(trace_path)
        expected = aggregate_trace(trace, FlowTable(max_flows=8))
        assert "parent:  %6d flows" % len(expected) in out
        assert len(expected) > len(aggregate_trace(trace))

    def test_flows_compare_scores_both_estimators(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        csv_path = tmp_path / "scores.csv"
        main(["generate", trace_path, "--duration", "30", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(
                [
                    "flows",
                    trace_path,
                    "compare",
                    "--granularity",
                    "20",
                    "--csv",
                    str(csv_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "naive" in out
        assert "em" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "estimator,phi,l1_cost,chi2_significance"
        assert len(lines) == 3

    def test_flows_invert_rejects_granularity_one(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "5", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(["flows", trace_path, "invert", "--granularity", "1"]) == 2
        )
        err = capsys.readouterr().err
        assert "granularity" in err

    def test_flows_missing_trace_fails_cleanly(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.pcap")
        assert main(["flows", missing, "aggregate"]) == 2
        err = capsys.readouterr().err
        assert "not found" in err


class TestAdaptCommand:
    def test_adapt_parser_defaults(self):
        args = build_parser().parse_args(["adapt", "x"])
        assert args.objective == "accuracy"
        assert args.initial_granularity == 64
        assert args.cooldown == 2

    def test_adapt_objective_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adapt", "x", "--objective", "bogus"])

    def test_adapt_runs_and_reports(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "120", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(
                [
                    "adapt", trace_path,
                    "--window", "10",
                    "--min-scored", "2",
                    "--initial-granularity", "1024",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "objective accuracy" in out
        assert "rate changes, final rate 1/" in out
        assert "mean windowed phi" in out

    def test_adapt_decision_csv_and_run_dir(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        csv_path = tmp_path / "decisions.csv"
        run_dir = tmp_path / "run"
        main(["generate", trace_path, "--duration", "120", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(
                [
                    "adapt", trace_path,
                    "--window", "10",
                    "--min-scored", "2",
                    "--csv", str(csv_path),
                    "--run-dir", str(run_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("window,start_us,end_us,offered,sampled")
        assert len(lines) >= 2
        events = (run_dir / "events.jsonl").read_text()
        assert "adapt_start" in events
        assert "adaptive_decision" in events
        assert "adapt_end" in events
        metrics = (run_dir / "metrics.prom").read_text()
        assert "adaptive_granularity" in metrics

    def test_adapt_run_dir_counts_trace_cache(self, tmp_path, capsys):
        # Like monitor, adapt reads through the cache into its live
        # store, so metrics.prom records the miss, then the hit.
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "20", "--seed", "5"])
        cache = ["--trace-cache", str(tmp_path / "cache")]
        for route, expected in (
            ([], None),
            (cache, "repro_trace_cache_miss_total 1\n"),
            (cache, "repro_trace_cache_hit_total 1\n"),
        ):
            run_dir = tmp_path / "run"
            argv = ["adapt", trace_path, "--window", "5", "--run-dir", str(run_dir)]
            assert main(route + argv) == 0
            metrics = (run_dir / "metrics.prom").read_text()
            if expected is None:
                assert "trace_cache" not in metrics
            else:
                assert expected in metrics
        capsys.readouterr()

    def test_adapt_fastpath_toggle_is_invisible(
        self, tmp_path, capsys, per_packet
    ):
        # The default chunked run prints what the per-packet reference
        # loop prints.
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "120", "--seed", "5"])
        capsys.readouterr()
        outputs = []
        for stages in ((), ("adapt",)):
            with per_packet(*stages):
                code = main(
                    [
                        "adapt", trace_path,
                        "--window", "10",
                        "--min-scored", "2",
                    ]
                )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_adapt_budget_objective_needs_budget(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "5", "--seed", "5"])
        capsys.readouterr()
        assert main(["adapt", trace_path, "--objective", "budget"]) == 2
        err = capsys.readouterr().err
        assert "budget" in err

    def test_adapt_rejects_bad_config(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "5", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(
                [
                    "adapt", trace_path,
                    "--min-granularity", "512",
                    "--max-granularity", "8",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "granularity" in err

    def test_adapt_missing_trace_fails_cleanly(self, tmp_path, capsys):
        assert main(["adapt", str(tmp_path / "nope.pcap")]) == 2
        err = capsys.readouterr().err
        assert "not found" in err
