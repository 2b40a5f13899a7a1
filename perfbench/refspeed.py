"""Reference speed: a fixed loop timed in short slices between the load.

Shared virtual CPUs run through speed phases (up to 1.65x, lasting
5-60 s, on the 2-vCPU VM the bounds were set on).  No run length or
statistic removes them, so every timing is
taken against this loop, run on the same CPU, with the load paused and
no request in flight.  The loop resembles the served path (JSON
encode/decode of a request-shaped dict, regex tokenising of a
dependency text) and imports nothing from ``repro``, so no node's work
can enter it.  It is timed by the process's own CPU time.

A time measured while the reference ran at ``speed`` is reported at
the nominal speed ``S0`` as ``time * speed / S0``; a rate is work over
normalised time, so it comes out as ``rate * S0 / speed``.  Units carry
a ``ref-`` prefix.
"""

from __future__ import annotations

import json
import re
import time

#: Nominal reference speed (loop iterations per CPU-second) at which
#: normalised timings are reported; near the loop's median speed on the
#: 2-vCPU VM the bounds were set on, so ref- values read close to raw ones.
S0 = 65000.0

#: CPU time one slice runs the loop for, and the load time between slices.
SLICE_S = 0.020
INTERVAL_S = 0.250

_REQUEST = {"v": 1, "id": 4711, "op": "implies",
            "params": {"session": "bench",
                       "dependency": "R(A3, L5[D5(B5, λ)]) ->> "
                                     "R(A7, L9[D9(C9)], L12[λ])"}}
_TOKEN = re.compile(r"\s+|λ|[A-Za-z_][A-Za-z0-9_-]*|[()\[\],]|->>?")


def reference_work(batch: int) -> int:
    """``batch`` iterations of the reference loop; returns a checksum."""
    total = 0
    for _ in range(batch):
        line = json.dumps(_REQUEST, ensure_ascii=False,
                          separators=(",", ":"))
        data = json.loads(line)
        total += len(_TOKEN.findall(data["params"]["dependency"]))
    return total


def measure_slice(batch: int = 40) -> float:
    """Run the loop for about :data:`SLICE_S` of CPU; iterations per CPU-s."""
    clock = time.process_time
    start = clock()
    deadline = start + SLICE_S
    iterations = 0
    now = start
    while now < deadline:
        reference_work(batch)
        iterations += batch
        now = clock()
    return iterations / (now - start)


def to_ref_time(raw: float, speed: float) -> float:
    """A time taken at reference ``speed``, expressed at ``S0``."""
    return raw * speed / S0


class Pacer:
    """Interleaves reference slices with a timed closed-loop load.

    The load calls :meth:`record` after every completed operation.
    Once :data:`INTERVAL_S` of load has passed, :meth:`record` closes
    the window, runs a slice and opens the next one; each window's
    samples are normalised at the mean speed of the two slices around
    it.  Slice time is excluded from every window.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.speeds: list[float] = []
        self.slice_wall = 0.0
        self.slice_cpu = 0.0
        #: Closed windows: (raw wall seconds, raw latencies, speed).
        self.windows: list[tuple[float, list[float], float]] = []
        self._latencies: list[float] = []
        self._window_start = 0.0
        self._deadline = 0.0

    def slice(self) -> float:
        wall, cpu = time.perf_counter(), time.process_time()
        speed = measure_slice()
        self.slice_wall += time.perf_counter() - wall
        self.slice_cpu += time.process_time() - cpu
        self.speeds.append(speed)
        return speed

    def start(self) -> None:
        """Take the opening slice and open the first window."""
        self.slice()
        self._open()

    def _open(self) -> None:
        self._latencies = []
        self._window_start = time.perf_counter()
        self._deadline = self._window_start + self.interval

    def _close(self, end: float) -> None:
        before = self.speeds[-1]
        speed = (before + self.slice()) / 2
        self.windows.append((end - self._window_start, self._latencies,
                             speed))

    def record(self, latency: float | None, end: float) -> None:
        """One operation ended at ``end``; ``latency`` is ``None`` when it
        failed, which keeps it out of the latency samples."""
        if latency is not None:
            self._latencies.append(latency)
        if end >= self._deadline:
            self._close(end)
            self._open()

    def finish(self) -> None:
        """Close the last window with a closing slice."""
        self._close(time.perf_counter())

    def timed(self, step):
        """Run ``step()`` between two slices; ``(result, raw s, ref-s)``."""
        before = self.speeds[-1] if self.speeds else self.slice()
        start = time.perf_counter()
        result = step()
        raw = time.perf_counter() - start
        return result, raw, to_ref_time(raw, (before + self.slice()) / 2)

    # -- results -------------------------------------------------------------

    def ops(self) -> int:
        return sum(len(latencies) for _, latencies, _ in self.windows)

    def wall(self) -> float:
        return sum(wall for wall, _, _ in self.windows)

    def ref_wall(self) -> float:
        """Load wall time, normalised; rates are operations over this."""
        return sum(to_ref_time(wall, speed) for wall, _, speed in self.windows)

    def latencies(self) -> tuple[list[float], list[float]]:
        """All latencies, raw and normalised, in completion order."""
        raw: list[float] = []
        ref: list[float] = []
        for _, latencies, speed in self.windows:
            raw.extend(latencies)
            ref.extend(to_ref_time(latency, speed) for latency in latencies)
        return raw, ref

    def share(self) -> float:
        """The share of slice and load time spent in slices."""
        return self.slice_wall / (self.slice_wall + self.wall())

    def mean_speed(self) -> float:
        return sum(self.speeds) / len(self.speeds)
