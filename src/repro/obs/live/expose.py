"""Live exposition: OpenMetrics textfile snapshots and a /metrics port.

Two delivery paths, both stdlib-only:

* :class:`TextfileExporter` writes the registry's current exposition text
  to a path atomically (write-to-temp + rename), the contract
  node-exporter's textfile collector expects — a scraper never sees a
  half-written snapshot;
* :class:`MetricsServer` serves the same text over HTTP ``GET
  /metrics`` from a daemon thread (``http.server``), for direct
  Prometheus scraping of a long-running monitor.

Both carry :func:`repro.obs.exposition.render_prometheus` of the
monitor's registry, the same text a run directory's ``metrics.prom``
holds.
"""

import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.obs.exposition import render_prometheus
from repro.obs.instrument import Instrumentation

#: Content type of the exposition format we emit.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class TextfileExporter:
    """Atomic OpenMetrics textfile snapshots for a scrape directory."""

    def __init__(self, path: str) -> None:
        if not path:
            raise ValueError("exporter needs a target path")
        self.path = path
        self.writes = 0

    def write(self, text: str) -> str:
        """Replace the snapshot file atomically; returns the path."""
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        temp_path = self.path + ".tmp"
        with open(temp_path, "w") as stream:
            stream.write(text)
        os.replace(temp_path, self.path)
        self.writes += 1
        return self.path

    def export(self, store: Instrumentation) -> str:
        """Render and write the registry in one step."""
        return self.write(render_prometheus(store.snapshot()))


class _MetricsHandler(BaseHTTPRequestHandler):
    """GET /metrics returns the render callback's text; all else 404."""

    # Set per-server via type(); declared here for mypy.
    render: Callable[[], str] = staticmethod(lambda: "")

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path.split("?", 1)[0] not in ("/metrics", "/"):
            self.send_error(404, "only /metrics is served")
            return
        body = self.render().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        pass  # a monitor's stdout belongs to the status line, not access logs


class MetricsServer:
    """A background ``/metrics`` HTTP endpoint over a render callback.

    ``port=0`` binds an ephemeral port (useful in tests); the bound
    port is available as :attr:`port`.  The serving thread is a daemon,
    so a dying monitor process never hangs on it; call :meth:`close`
    (or use the instance as a context manager) for an orderly stop.
    """

    def __init__(
        self,
        render: Callable[[], str],
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        if not 0 <= port <= 65535:
            raise ValueError("port must be in [0, 65535], got %d" % port)
        handler = type(
            "_BoundMetricsHandler", (_MetricsHandler,), {"render": staticmethod(render)}
        )
        try:
            self._server = ThreadingHTTPServer((host, port), handler)
        except OSError as error:
            # The bare errno text (say, "Address already in use") does
            # not say which address.
            raise OSError(error.errno, error.strerror, "%s:%d" % (host, port)) from None
        self.host = host
        self.port = int(self._server.server_address[1])
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return "http://%s:%d/metrics" % (self.host, self.port)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
