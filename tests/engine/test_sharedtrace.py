"""Trace transport: fidelity of both routes, and cleanup of the spill."""

import os
import pickle
import subprocess
import sys
import tempfile

import pytest

from repro.engine.sharedtrace import (
    MemmapTraceBuffer,
    SpilledTraceBuffer,
    attach_trace,
    owned_temp_dir,
    publish_trace,
    reap_stale_dirs,
)
from repro.trace.trace import TRACE_COLUMNS, Trace


@pytest.fixture()
def temp_root(tmp_path, monkeypatch):
    """A fresh temp root for the engine's dirs, steered through TMPDIR."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setenv("TMPDIR", str(root))
    monkeypatch.setattr(tempfile, "tempdir", None)  # drop the cached root
    assert tempfile.gettempdir() == str(root)
    return root


def engine_dirs(root):
    return sorted(name for name in os.listdir(root) if name.startswith("repro-"))


def run_python(script, root):
    """Run ``script`` in a fresh interpreter whose temp root is ``root``;
    returns its stripped stdout."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, TMPDIR=str(root))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return done.stdout.strip()


def dead_pid(root):
    """The pid of a process that has already exited."""
    return int(run_python("import os; print(os.getpid())", root))


class TestRoundtrip:
    """An in-memory trace is spilled, and workers map it back intact."""

    def roundtrip(self, trace):
        with publish_trace(trace) as buffer:
            assert isinstance(buffer, SpilledTraceBuffer)
            assert not isinstance(buffer, MemmapTraceBuffer)
            attached = attach_trace(pickle.loads(pickle.dumps(buffer.spec)))
            assert attached == trace
            assert attached.duration_us == trace.duration_us
            assert buffer.nbytes == sum(
                getattr(trace, name).nbytes for name, _ in TRACE_COLUMNS
            )
            return attached

    def test_all_columns_preserved(self, tiny_trace, temp_root):
        self.roundtrip(tiny_trace)

    def test_minute_trace(self, minute_trace, temp_root):
        self.roundtrip(minute_trace)

    def test_synthetic_trace(self, minute_trace, temp_root):
        self.roundtrip(minute_trace.slice_packets(1000, 6000))

    def test_empty_trace(self, temp_root):
        assert len(self.roundtrip(Trace.empty())) == 0

    def test_spec_is_plain_data(self, tiny_trace, temp_root):
        with publish_trace(tiny_trace) as buffer:
            clone = pickle.loads(pickle.dumps(buffer.spec))
            assert clone == buffer.spec

    def test_maps_outlive_the_dir(self, minute_trace, temp_root):
        # A worker's maps stay valid after the owner removes the files.
        attached = self.roundtrip(minute_trace)
        assert engine_dirs(temp_root) == []
        assert attached == minute_trace

    def test_spill_dir_is_private_and_owned(self, tiny_trace, temp_root):
        with publish_trace(tiny_trace) as buffer:
            assert os.path.dirname(buffer.path) == str(temp_root)
            assert os.path.basename(buffer.path).startswith(
                "repro-trace-%d-" % os.getpid()
            )
            assert sorted(os.listdir(buffer.path)) == sorted(
                name + ".bin" for name, _ in TRACE_COLUMNS
            )


class TestMemmapTransport:
    """File-backed traces ride the memmap transport, copying nothing."""

    @pytest.fixture()
    def store_backed(self, tmp_path, minute_trace):
        from repro.trace.pcap import write_pcap
        from repro.trace.store import TraceStore

        subset = minute_trace.slice_packets(0, 1000)
        path = str(tmp_path / "capture.pcap")
        write_pcap(subset, path)
        store = TraceStore(str(tmp_path / "cache"))
        return store.build(path), subset

    def test_store_trace_publishes_as_memmap(self, store_backed, temp_root):
        trace, subset = store_backed
        buffer = publish_trace(trace)
        assert isinstance(buffer, MemmapTraceBuffer)
        assert buffer.nbytes == sum(
            getattr(trace, name).nbytes for name, _ in TRACE_COLUMNS
        )
        assert engine_dirs(temp_root) == []  # nothing spilled

    def test_attach_reconstructs_identically(self, store_backed):
        trace, subset = store_backed
        with publish_trace(trace) as buffer:
            assert attach_trace(buffer.spec) == subset

    def test_spec_is_plain_data(self, store_backed):
        trace, _ = store_backed
        buffer = publish_trace(trace)
        clone = pickle.loads(pickle.dumps(buffer.spec))
        assert clone == buffer.spec

    def test_plain_trace_is_spilled(self, tiny_trace, temp_root):
        with publish_trace(tiny_trace) as buffer:
            assert isinstance(buffer, SpilledTraceBuffer)
            assert attach_trace(buffer.spec) == tiny_trace
        assert engine_dirs(temp_root) == []

    def test_close_is_a_noop(self, store_backed):
        # The store owns the files; closing the buffer must not unmap
        # or unlink anything a reader still depends on.
        trace, subset = store_backed
        buffer = publish_trace(trace)
        buffer.close()
        buffer.close()
        assert attach_trace(buffer.spec) == subset


class TestLifecycle:
    def test_close_unlinks(self, tiny_trace, temp_root):
        buffer = publish_trace(tiny_trace)
        assert os.path.isdir(buffer.path)
        buffer.close()
        assert not os.path.exists(buffer.path)
        assert engine_dirs(temp_root) == []
        with pytest.raises(FileNotFoundError):
            attach_trace(buffer.spec)

    def test_close_idempotent(self, tiny_trace, temp_root):
        buffer = publish_trace(tiny_trace)
        buffer.close()
        buffer.close()  # must not raise
        assert engine_dirs(temp_root) == []

    def test_init_failure_removes_the_spill(self, tiny_trace, temp_root):
        """A column that cannot be written after others were must not
        leave the half-written spill behind."""

        class DiskFull:
            def tofile(self, path):
                raise OSError("no space left on device")

        broken = tiny_trace.slice_packets(0, len(tiny_trace))
        broken.src_ports = DiskFull()
        with pytest.raises(OSError, match="no space left"):
            SpilledTraceBuffer(broken)
        assert engine_dirs(temp_root) == []

    def test_interpreter_exit_removes_the_dir(self, temp_root):
        name = run_python(
            "import os\n"
            "from repro.engine.sharedtrace import publish_trace\n"
            "from repro.trace.trace import Trace\n"
            "buffer = publish_trace(Trace(timestamps_us=[0, 5], sizes=[40, 1500]))\n"
            "print(os.path.basename(buffer.path))\n",
            temp_root,
        )
        assert name.startswith("repro-trace-")
        assert engine_dirs(temp_root) == []

    def test_runner_startup_failure_unlinks(
        self, minute_trace, temp_root, monkeypatch
    ):
        """If the pool cannot even be constructed, neither the spill of
        the trace nor the breadcrumb dir may outlive the raised error."""
        import repro.engine.runner as runner_module
        from repro.core.evaluation.experiment import ExperimentGrid
        from repro.engine.runner import ParallelRunner

        def no_pool(*args, **kwargs):
            raise OSError("fork refused")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", no_pool)
        grid = ExperimentGrid(granularities=(32,), replications=1, seed=2)
        with pytest.raises(OSError, match="fork refused"):
            ParallelRunner(jobs=2).run(grid, minute_trace)
        assert engine_dirs(temp_root) == []


class TestReaper:
    def test_dead_owner_dirs_are_reaped(self, temp_root):
        """A SIGKILLed parent cannot clean up after itself; the next
        run's reaper removes its spill and its breadcrumb dir."""
        names = run_python(
            "import os\n"
            "from repro.engine.sharedtrace import owned_temp_dir, publish_trace\n"
            "from repro.trace.trace import Trace\n"
            "buffer = publish_trace(Trace(timestamps_us=[0, 5], sizes=[40, 1500]))\n"
            "crumbs = owned_temp_dir('crumbs')\n"
            "print(os.path.basename(buffer.path), os.path.basename(crumbs), flush=True)\n"
            "os._exit(0)  # no atexit hooks, as after a SIGKILL\n",
            temp_root,
        ).split()
        assert engine_dirs(temp_root) == sorted(names)  # leaked, owner dead

        assert sorted(reap_stale_dirs()) == sorted(names)
        assert engine_dirs(temp_root) == []

    def test_live_owner_dirs_are_spared(self, tiny_trace, temp_root):
        foreign = temp_root / ("repro-trace-%d-live" % os.getppid())
        foreign.mkdir()
        with publish_trace(tiny_trace) as buffer:
            crumbs = owned_temp_dir("crumbs")
            assert reap_stale_dirs() == []
            assert attach_trace(buffer.spec) == tiny_trace  # still mapped
            assert os.path.isdir(crumbs) and foreign.is_dir()
            os.rmdir(crumbs)

    def test_foreign_names_ignored(self, temp_root):
        pid = dead_pid(temp_root)
        spared = [
            "repro-trace-x%d-a" % pid,      # no pid
            "repro-other-%d-a" % pid,       # not an engine kind
            "scratch-trace-%d-a" % pid,     # not ours
            "repro-engine-a",               # an old unstamped crumb dir
            "repro-trace-%d-a" % 2**70,     # a pid no process can have
        ]
        for name in spared:
            (temp_root / name).mkdir()
        (temp_root / ("repro-trace-%d-file" % pid)).write_text("")  # not a dir
        assert reap_stale_dirs() == []
        assert len(os.listdir(temp_root)) == len(spared) + 1

    def test_missing_temp_root_is_a_noop(self, temp_root):
        os.rmdir(temp_root)
        assert reap_stale_dirs() == []
