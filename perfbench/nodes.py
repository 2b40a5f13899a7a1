"""Serving nodes as subprocesses, and the load generator's one connection.

Nodes are real ``python -m repro serve`` processes started from the
checkout's ``src``.  They inherit the load generator's CPU affinity,
get a fixed ``PYTHONHASHSEED`` and a benchmark-owned bytecode cache
(``PYTHONPYCACHEPREFIX``), so no spawn recompiles ``repro`` from source.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import subprocess
import sys
import time

HASH_SEED = "0"
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0


class NodeError(RuntimeError):
    """A node failed to start, or a connection broke or timed out."""


def node_env(checkout: str, work: str) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPYCACHEPREFIX"] = os.path.join(work, "pycache")
    return env


class Node:
    """One ``repro serve`` subprocess; :meth:`stop` drains it with SIGTERM."""

    def __init__(self, env: dict[str, str], log_path: str,
                 *flags: str) -> None:
        self.flags = flags
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
            stdout=subprocess.PIPE, stderr=self._log, env=env)
        line = self._ready_line()
        host, _, port = line.rpartition(" ")[2].partition(":")
        self.address = (host, int(port))

    def _ready_line(self) -> str:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select(
                    [self.proc.stdout], [], [], remaining)[0]:
                break
            raw = self.proc.stdout.readline()
            if not raw:
                break
            line = raw.decode("utf-8", "replace").strip()
            if line.startswith("serving on "):
                return line
        self.stop()
        raise NodeError(f"node {self.flags} did not become ready")

    @property
    def name(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def status_field(self, field: str) -> int:
        """An integer field of ``/proc/<pid>/status`` in kB (``VmHWM``, …)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise NodeError(f"no {field} for pid {self.proc.pid}")

    def cpu_s(self) -> float:
        """User + system CPU seconds the node has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Connection:
    """One blocking connection with at most one request outstanding."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address,
                                             timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def call(self, line: bytes) -> bytes:
        """Send one request line; return the response line (with ``\\n``)."""
        try:
            self.sock.sendall(line)
            buffer = self._buffer
            end = buffer.find(b"\n")
            while end < 0:
                chunk = self.sock.recv(65536)
                if not chunk:
                    raise NodeError("connection closed by the node")
                buffer += chunk
                end = buffer.find(b"\n")
        except OSError as error:
            raise NodeError(f"connection failed: {error}") from error
        self._buffer = buffer[end + 1:]
        return buffer[:end + 1]

    def close(self) -> None:
        self.sock.close()
