"""One ``cuba serve --executor process`` daemon under the benchmark's control.

The daemon's stdout and stderr go to a log file under ``perfbench/out``.
They must not go to a pipe nobody reads: the daemon writes one JSON
audit line (~800 B) per submit, so an unread 64 KiB pipe fills after
about 80-100 submits and the daemon then blocks in ``write``.  (That is
what ``repro.service.loadtest.spawn_replicas`` does; see README.md.)
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

from repro.errors import ServiceError
from repro.service.client import RetryPolicy, ServiceClient

from env import ROOT, child_env

#: Engine-run worker processes; the box has two cores.
WORKERS = 2

#: Per-request read budget; a submit that takes longer counts as a
#: timeout (a failed attempt).
READ_TIMEOUT = 120.0

_STARTUP_TIMEOUT = 60.0


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Daemon:
    """Spawn a daemon on ``store`` and wait until ``/health`` answers.

    ``traced`` launches it through ``traced_serve.py``, which wraps the
    layer entry points in spans before handing over to ``repro.cli``;
    tracing itself stays off until ``POST /trace`` turns it on."""

    def __init__(self, store: Path, log: Path, traced: bool = False) -> None:
        for stale in store.parent.glob(store.name + "*"):
            stale.unlink()
        self.port = _free_port()
        entry = (
            [str(ROOT / "perfbench" / "traced_serve.py")]
            if traced
            else ["-m", "repro.cli"]
        )
        argv = [
            sys.executable, *entry, "serve",
            "--host", "127.0.0.1", "--port", str(self.port),
            "--store", str(store),
            "--executor", "process",
            "--workers", str(WORKERS),
            "--log-format", "json",
        ]
        started = time.perf_counter()
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            argv, stdout=self._log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
        )
        try:
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.startup_seconds = time.perf_counter() - started

    def client(self) -> ServiceClient:
        return ServiceClient(
            "127.0.0.1",
            self.port,
            retry=RetryPolicy(connect_timeout=5.0, read_timeout=READ_TIMEOUT, retries=0),
        )

    def call(self, method: str, path: str, payload: dict | None = None) -> dict:
        """One JSON request to an endpoint the client has no method for
        (``/trace``)."""
        connection = HTTPConnection("127.0.0.1", self.port, timeout=READ_TIMEOUT)
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            connection.request(method, path, body=body)
            response = connection.getresponse()
            decoded = json.loads(response.read())
        finally:
            connection.close()
        if response.status != 200:
            raise ServiceError(f"{method} {path} answered HTTP {response.status}: {decoded}")
        return decoded

    def _wait_healthy(self) -> None:
        probe = ServiceClient(
            "127.0.0.1",
            self.port,
            retry=RetryPolicy(connect_timeout=1.0, read_timeout=5.0, retries=0),
        )
        deadline = time.monotonic() + _STARTUP_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise ServiceError(f"daemon exited during start-up; see {self._log.name}")
            try:
                probe.health()
                return
            except ServiceError:
                if time.monotonic() > deadline:
                    raise ServiceError("daemon never became healthy") from None
                time.sleep(0.01)

    def stop(self) -> None:
        """Graceful shutdown through the API, then make sure the process
        (and with it its worker pool) is gone and reaped."""
        if self.proc.poll() is None:
            try:
                self.client().shutdown()
            except ServiceError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
