"""Zero-copy trace transport between the parent and worker processes.

A parallel sweep must not pickle the parent population into every task:
an hour of calibrated traffic is ~1.6 million packets across seven
columns, and per-task serialization would swamp the work itself.  Every
worker instead maps the trace's columns from files: the picklable
:class:`MemmapTraceSpec` carries each column's path, dtype and file
offset, and :func:`attach_trace` rebuilds the trace as read-only
:class:`numpy.memmap` arrays over the page cache the parent shares, so
the per-worker cost is seven mmaps plus the trace's O(n) monotonicity
check.

:func:`publish_trace` decides who owns the files:

* a trace that is already file-backed — e.g. served out of a
  :class:`~repro.trace.store.TraceStore` cache entry — is published by
  reference: :class:`MemmapTraceBuffer` copies nothing, and its
  ``close`` is a no-op because the store owns the files;
* any other trace is spilled once: :class:`SpilledTraceBuffer` writes
  each column as a raw file into a private temp dir and removes the dir
  on ``close``.

The engine's temp dirs (the spill dir here, the runner's breadcrumb
dir) are named ``repro-<kind>-<owner pid>-<random>`` under
:func:`tempfile.gettempdir`.  Their owners remove them on every exit
path short of SIGKILL; :func:`reap_stale_dirs`, run at the start of
every pool run, removes the ones whose owner is dead.
"""

import atexit
import os
import re
import shutil
import tempfile
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.trace.trace import TRACE_COLUMNS, Trace

#: Name of a temp dir made by :func:`owned_temp_dir`: the kind (a
#: column spill or the runner's breadcrumbs), then the owner's pid.
_OWNED_DIR = re.compile(r"repro-(trace|crumbs)-(\d+)-")


@dataclass(frozen=True)
class MemmapTraceSpec:
    """Everything a worker needs to map the trace's column files."""

    n_packets: int
    columns: Tuple[Tuple[str, str, str, int], ...]  # (column, dtype, path, offset)


class TraceBuffer:
    """Owner side of a published trace: ``spec``, ``nbytes``, ``close``.

    The parent keeps the buffer for the duration of the pool and closes
    it (or uses it as a context manager) afterwards.
    """

    spec: MemmapTraceSpec
    #: Bytes of column data the workers map, for telemetry.
    nbytes: int

    def close(self) -> None:
        """Release whatever the buffer owns (idempotent)."""

    def __enter__(self) -> "TraceBuffer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class MemmapTraceBuffer(TraceBuffer):
    """A trace whose columns are already files: nothing to copy.

    The backing files belong to the trace store, so ``close`` releases
    nothing.
    """

    def __init__(self, spec: MemmapTraceSpec, nbytes: int) -> None:
        self.spec = spec
        self.nbytes = nbytes


class SpilledTraceBuffer(TraceBuffer):
    """An in-memory trace whose columns are written once to a temp dir.

    Cleanup is guaranteed on every exit path short of SIGKILL: a failure
    partway through the spill removes the dir before re-raising,
    ``close`` removes it, and an ``atexit`` hook removes it if the
    buffer is still open at interpreter shutdown.  A SIGKILLed owner
    leaves the dir behind; :func:`reap_stale_dirs` removes it.
    """

    def __init__(self, trace: Trace) -> None:
        self.path = owned_temp_dir("trace")
        self._closed = False
        try:
            columns = []
            for name, dtype in TRACE_COLUMNS:
                path = os.path.join(self.path, name + ".bin")
                getattr(trace, name).tofile(path)
                columns.append((name, dtype.str, path, 0))
        except BaseException:
            self.close()
            raise
        self.spec = MemmapTraceSpec(n_packets=len(trace), columns=tuple(columns))
        self.nbytes = _nbytes(trace)
        atexit.register(self.close)

    def close(self) -> None:
        """Remove the spill dir (idempotent)."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        shutil.rmtree(self.path, ignore_errors=True)


def _nbytes(trace: Trace) -> int:
    return sum(getattr(trace, name).nbytes for name, _ in TRACE_COLUMNS)


def _column_mapping(column: np.ndarray) -> Optional[Tuple[str, int]]:
    """The (path, file offset) backing ``column``, or ``None``.

    A trace served from a :class:`~repro.trace.store.TraceStore` entry
    holds base-class views of per-column :class:`numpy.memmap` arrays;
    walking the base chain recovers the map and the view's byte offset
    into the backing file.
    """
    if not column.flags.c_contiguous:
        return None
    base = column
    while base is not None and not isinstance(base, np.memmap):
        base = getattr(base, "base", None)
    if base is None or getattr(base, "filename", None) is None:
        return None
    delta = (
        column.__array_interface__["data"][0]
        - base.__array_interface__["data"][0]
    )
    if delta < 0:
        return None
    return os.fspath(base.filename), int(base.offset) + int(delta)


def publish_trace(trace: Trace) -> TraceBuffer:
    """Publish ``trace`` for worker attachment, copying at most once.

    When every column is already backed by an on-disk memory map (a
    warm :class:`~repro.trace.store.TraceStore` hit), workers map the
    same files and the publish step is free; otherwise the columns are
    spilled to a private temp dir.
    """
    mapped = []
    for name, _ in TRACE_COLUMNS:
        column = getattr(trace, name)
        backing = _column_mapping(column)
        if backing is None:
            return SpilledTraceBuffer(trace)
        mapped.append((name, column.dtype.str, backing[0], backing[1]))
    spec = MemmapTraceSpec(n_packets=len(trace), columns=tuple(mapped))
    return MemmapTraceBuffer(spec, _nbytes(trace))


def attach_trace(spec: MemmapTraceSpec) -> Trace:
    """Worker side: rebuild the trace as read-only maps of its files.

    The maps stay valid for as long as the trace's arrays live, even if
    the files are removed meanwhile, so there is nothing to close.  The
    arrays are never written to — :class:`Trace` is immutable by
    convention and samplers only read.
    """
    columns = {}
    for (name, dtype, path, offset) in spec.columns:
        if spec.n_packets:
            columns[name] = np.memmap(
                path, dtype=dtype, mode="r", offset=offset, shape=(spec.n_packets,)
            )
        else:
            columns[name] = np.empty(0, dtype=dtype)  # mmap rejects 0 bytes
    return Trace(**columns)


# ----------------------------------------------------------------------
# temp dirs and reaping

def owned_temp_dir(kind: str) -> str:
    """A new private temp dir stamped with this process's pid.

    ``kind`` is ``"trace"`` (a column spill) or ``"crumbs"`` (the
    runner's breadcrumbs); the pid in the name is what lets
    :func:`reap_stale_dirs` tell a live run's dir from a leaked one.
    """
    return tempfile.mkdtemp(prefix="repro-%s-%d-" % (kind, os.getpid()))


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OverflowError:
        return True  # no such pid can exist: not ours to reap
    return True


def reap_stale_dirs() -> List[str]:
    """Remove engine temp dirs whose owning process is dead.

    A parent killed with SIGKILL (or OOM-killed) cannot run its own
    cleanup, so its spill dir and breadcrumb dir survive in the temp
    root.  Every dir :func:`owned_temp_dir` makes carries its owner's
    pid in the name; this scan of :func:`tempfile.gettempdir` removes
    the ones whose owner no longer exists.  Dirs of live processes —
    this one included — and every other name are never touched.
    Returns the reaped names.
    """
    root = tempfile.gettempdir()
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return []
    reaped = []
    for name in names:
        match = _OWNED_DIR.match(name)
        if match is None:
            continue
        pid = int(match.group(2))
        path = os.path.join(root, name)
        if pid == os.getpid() or _pid_alive(pid) or not os.path.isdir(path):
            continue
        shutil.rmtree(path, ignore_errors=True)
        if not os.path.exists(path):
            reaped.append(name)
    return reaped
