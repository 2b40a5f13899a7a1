"""The three served workloads, driven closed-loop from one process.

Each run repeats *rounds* until the timed load has lasted ``--seconds``
(and at least :data:`MIN_ROUNDS` times).  A round starts fresh nodes,
times their set-up step by step between reference slices, then sends
the workload's fixed request list over at most one connection per node
with one request outstanding, checking every reply byte for byte.
Every round does the same work, so the number of rounds a run fits
changes the sample count but not what is measured.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field

import inputs
from nodes import Connection, Node, NodeError, node_env
from refspeed import Pacer

MIN_ROUNDS = 3
#: Stop starting rounds after this much wall time, whatever ``--seconds``.
MAX_RUN_S = 120.0

HOT_CYCLES = 40             # the 64-read hot set, cycled this often per round
EDIT_FLAGS = ("--fsync", "interval", "--store-compact-records", "256")
#: Records in the prepared WAL tail both nodes replay on restart
#: (add/retract pairs; below the compaction threshold, so no snapshot).
PREPARED_TAIL = 200
PROBES = 16                 # end-of-round reads checked on every node


@dataclass
class Unit:
    """One unit op: its calls as ``(node index, request, expected reply)``."""

    calls: tuple[tuple[int, bytes, bytes], ...]


@dataclass
class Tally:
    """What a run measured, across its rounds."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    setups_raw: list[float] = field(default_factory=list)
    setups_ref: list[float] = field(default_factory=list)
    #: Normalised time of each named set-up step, per round (ref-s).
    steps: dict[str, list[float]] = field(default_factory=dict)
    rss_mb: list[float] = field(default_factory=list)
    loadgen_cpu_s: float = 0.0
    node_cpu_s: float = 0.0
    rounds: int = 0
    #: Per-round node-side counters (metrics / health / status ops).
    node_stats: list[dict] = field(default_factory=list)


class Harness:
    """Shared machinery: spawning, set-up bracketing, the timed loop."""

    def __init__(self, checkout: str, seed: int, seconds: float) -> None:
        self.checkout = checkout
        self.work = os.path.join(checkout, ".perfbench")
        os.makedirs(self.work, exist_ok=True)
        self.env = node_env(checkout, self.work)
        self.seed = seed
        self.seconds = seconds
        self.pacer = Pacer()
        self.tally = Tally()
        self.problem = inputs.build_problem()
        self._log = os.path.join(self.work, "nodes.log")

    def spawn(self, *flags: str) -> Node:
        return Node(self.env, self._log, *flags)

    # -- checking ------------------------------------------------------------

    def check(self, reply: bytes, expected: bytes) -> bool:
        """Account one reply; ``True`` when it is the expected bytes."""
        if reply == expected:
            return True
        if json.loads(reply).get("ok") is False:
            self.tally.failed += 1
        else:
            self.tally.mismatches.append(
                f"expected {expected[:200]!r}, got {reply[:200]!r}")
        return False

    def call_checked(self, conn: Connection, request: bytes,
                     expected: bytes) -> None:
        """An untimed set-up or verification call that must succeed."""
        reply = conn.call(request)
        if reply != expected:
            raise NodeError(f"set-up call {request[:120]!r} answered "
                            f"{reply[:200]!r}, expected {expected[:200]!r}")

    # -- the timed loop ------------------------------------------------------

    def drive(self, conns: list[Connection], units: list[Unit],
              nodes: list[Node]) -> None:
        """Send every unit closed-loop; record latencies between slices.

        A unit fails on a typed error, a disconnect or a timeout.  After
        a failed or wrong reply the rest of the round is counted as
        failed, since later expected answers assume every earlier one.
        """
        pacer, tally = self.pacer, self.tally
        clock = time.perf_counter
        node_cpu = sum(node.cpu_s() for node in nodes)
        pacer.start()
        slice_cpu = pacer.slice_cpu
        cpu = time.process_time()
        for index, unit in enumerate(units):
            tally.attempted += 1
            start = clock()
            ok = True
            try:
                for node_index, request, expected in unit.calls:
                    if not self.check(conns[node_index].call(request),
                                      expected):
                        ok = False
                        break
            except NodeError:
                tally.failed += 1
                ok = False
            end = clock()
            pacer.record(end - start if ok else None, end)
            if not ok:
                skipped = len(units) - index - 1
                tally.attempted += skipped
                tally.failed += skipped
                break
        tally.loadgen_cpu_s += (time.process_time() - cpu
                                - (pacer.slice_cpu - slice_cpu))
        pacer.finish()
        tally.node_cpu_s += sum(node.cpu_s() for node in nodes) - node_cpu

    def bracketed(self, steps) -> None:
        """Run named set-up steps, each between two reference slices."""
        self.pacer.slice()
        raw_total = ref_total = 0.0
        for name, step in steps:
            _, raw, ref = self.pacer.timed(step)
            raw_total += raw
            ref_total += ref
            self.tally.steps.setdefault(name, []).append(ref)
        self.tally.setups_raw.append(raw_total)
        self.tally.setups_ref.append(ref_total)

    def collect(self, conns: list[Connection]) -> list[dict]:
        """Each node's ``metrics`` for the session, after the load (untimed)."""
        sessions = []
        for conn in conns:
            reply = json.loads(conn.call(inputs.request_line(
                0, "metrics", {"session": inputs.SESSION})))
            sessions.append(reply["result"]["sessions"][inputs.SESSION])
        self.tally.node_stats.append(sessions)
        return sessions

    def finish_round(self, nodes: list[Node]) -> None:
        self.tally.rss_mb.append(
            sum(node.status_field("VmHWM") for node in nodes) / 1024)
        self.tally.rounds += 1

    def run(self, one_round) -> Tally:
        started = time.monotonic()
        while (self.tally.rounds < MIN_ROUNDS
               or self.pacer.wall() < self.seconds):
            if time.monotonic() - started > MAX_RUN_S:
                break
            one_round()
            if self.tally.mismatches:
                break
        return self.tally


# --------------------------------------------------------------------------
# Read workloads: one ephemeral node


def _open_call(problem: inputs.Problem, request_id: int,
               **seq: int) -> tuple[bytes, bytes]:
    """``open`` with Σ; a durable node's reply also carries ``seq``."""
    request = inputs.request_line(request_id, "open", problem.open_params())
    expected = inputs.ok_line(request_id, {
        "name": inputs.SESSION, "sigma": len(problem.sigma),
        "engine": "worklist", **seq})
    return request, expected


def _read_calls(reads, results, first_id: int,
                ) -> list[tuple[int, bytes, bytes]]:
    """Node-0 calls for ``reads``; ``results[i % len(results)]`` answers
    read ``i``."""
    return [(0, inputs.request_line(first_id + offset, op, params),
             inputs.ok_line(first_id + offset,
                            results[offset % len(results)]))
            for offset, (op, params) in enumerate(reads)]


class ReadWorkload(Harness):
    """``hot_read`` (warm set cycled) or ``cold_read`` (LHS never repeats)."""

    node_flags = ("--workers", "0")

    def __init__(self, name: str, checkout: str, seed: int,
                 seconds: float) -> None:
        super().__init__(checkout, seed, seconds)
        hot, cold = inputs.read_pool(self.problem)
        session = self.problem.session()
        self.open = _open_call(self.problem, 0)
        if name == "hot_read":
            stream = inputs.read_stream(hot, seed)
            results = [inputs.answer(session, op, params)
                       for op, params in stream]
            self.warm = _read_calls(stream, results, 1)
            calls = _read_calls(stream * HOT_CYCLES, results, 1 + len(stream))
        else:
            self.warm = []
            reads = inputs.read_stream(cold, seed)
            calls = _read_calls(reads, [inputs.answer(session, op, params)
                                        for op, params in reads], 1)
        self.units = [Unit((call,)) for call in calls]
        self.spawn().stop()     # untimed: fills the bytecode cache

    def one_round(self) -> None:
        box: dict = {}

        def spawn() -> None:
            box["node"] = self.spawn(*self.node_flags)

        def open_sigma() -> None:
            box["conn"] = Connection(box["node"].address)
            self.call_checked(box["conn"], *self.open)

        def warm() -> None:
            for _, request, expected in self.warm:
                self.call_checked(box["conn"], request, expected)

        steps = [("spawn", spawn), ("open", open_sigma)]
        if self.warm:
            steps.append(("warm", warm))
        try:
            self.bracketed(steps)
            self.drive([box["conn"]], self.units, [box["node"]])
            self.collect([box["conn"]])
            self.finish_round([box["node"]])
        finally:
            if "conn" in box:
                box["conn"].close()
            if "node" in box:
                box["node"].stop()


# --------------------------------------------------------------------------
# edit_replicated: a durable primary and one follower


class EditWorkload(Harness):
    """Edit on the primary, then a fenced read on the follower, per unit."""

    node_flags = ("--workers", "0", "--data-dir", "<per node>", *EDIT_FLAGS)

    def __init__(self, checkout: str, seed: int, seconds: float,
                 rounds: int = inputs.EDIT_ROUNDS) -> None:
        super().__init__(checkout, seed, seconds)
        self.stream = inputs.edit_stream(self.problem, seed, rounds)
        self.template = os.path.join(self.work, "template")
        self.live = os.path.join(self.work, "live")
        self.base_seq = self.prepare()
        self.units, self.final = self.expected()

    def prepare(self) -> int:
        """Write the data directories every round restarts from (untimed).

        The primary logs ``open`` and a tail of add/retract pairs; the
        follower tails it to the end.  Returns the last sequence number.
        """
        shutil.rmtree(self.template, ignore_errors=True)
        primary_dir = os.path.join(self.template, "primary")
        follower_dir = os.path.join(self.template, "follower")
        primary = self.spawn_durable(primary_dir)
        try:
            conn = Connection(primary.address)
            self.call_checked(conn, *_open_call(self.problem, 0, seq=1))
            seq = 1
            for index, (op, params) in enumerate(self._tail_edits()):
                seq += 1
                reply = json.loads(conn.call(inputs.request_line(
                    index + 1, op, params)))
                if reply.get("result", {}).get("seq") != seq:
                    raise NodeError(f"preparing the WAL tail: {reply}")
            follower = self.spawn_durable(follower_dir, primary)
            try:
                fconn = Connection(follower.address)
                self.call_checked(fconn, *self._probe(
                    self.problem.session(), seq, 0, self.stream[0][1]))
                fconn.close()
            finally:
                follower.stop()
            conn.close()
        finally:
            primary.stop()
        return seq

    def spawn_durable(self, data_dir: str, primary: Node | None = None,
                      ) -> Node:
        """A durable node; with ``primary``, a follower tailing it."""
        follow = ("--replicate-from", primary.name) if primary else ()
        return self.spawn("--workers", "0", "--data-dir", data_dir,
                          *follow, *EDIT_FLAGS)

    def _probe(self, session, min_seq: int, request_id: int,
               read: tuple[str, dict]) -> tuple[bytes, bytes]:
        """A read fenced at ``min_seq`` and the local session's reply."""
        op, params = read
        params = {**params, "min_seq": min_seq}
        return (inputs.request_line(request_id, op, params),
                inputs.ok_line(request_id, inputs.answer(session, op, params)))

    def expected(self) -> tuple[list[Unit], dict]:
        """The timed units and the local session's final state."""
        session = self.problem.session()
        units = []
        seq = self.base_seq
        for index, (edit, probe) in enumerate(self.stream):
            seq += 1
            op, params = edit
            result = {**inputs.answer(session, op, params), "seq": seq}
            edit_call = (0, inputs.request_line(2 * index + 1, op, params),
                         inputs.ok_line(2 * index + 1, result))
            request, reply = self._probe(session, seq, 2 * index + 1, probe)
            units.append(Unit((edit_call, (1, request, reply))))
        hot, _ = inputs.read_pool(self.problem)
        probes = [self._probe(session, seq, 10 ** 6 + i, read)
                  for i, read in enumerate(hot[:PROBES])]
        final = {"state": session.snapshot_state()["dependencies"],
                 "probes": probes}
        return units, final

    def one_round(self) -> None:
        shutil.rmtree(self.live, ignore_errors=True)
        shutil.copytree(self.template, self.live)
        primary_dir = os.path.join(self.live, "primary")
        follower_dir = os.path.join(self.live, "follower")
        # the prepared tail adds and retracts in pairs: Σ is the base Σ
        first_probe = self._probe(self.problem.session(), self.base_seq, 0,
                                  self.stream[0][1])
        box: dict = {}

        def spawn_primary() -> None:
            box["primary"] = self.spawn_durable(primary_dir)

        def spawn_follower() -> None:
            box["follower"] = self.spawn_durable(follower_dir,
                                                 box["primary"])

        def first_read() -> None:
            box["pconn"] = Connection(box["primary"].address)
            box["fconn"] = Connection(box["follower"].address)
            self.call_checked(box["fconn"], *first_probe)

        try:
            self.bracketed([("spawn", spawn_primary),
                            ("spawn_follower", spawn_follower),
                            ("first_read", first_read)])
            nodes = [box["primary"], box["follower"]]
            conns = [box["pconn"], box["fconn"]]
            self.drive(conns, self.units, nodes)
            sessions = self.collect(conns)
            if not self.tally.failed and not self.tally.mismatches:
                self.verify_live(conns, sessions)
            self.finish_round(nodes)
        finally:
            for key in ("pconn", "fconn"):
                if key in box:
                    box[key].close()
            for key in ("follower", "primary"):
                if key in box:
                    box[key].stop()
        if not self.tally.failed and not self.tally.mismatches:
            self.verify_durable(primary_dir, follower_dir)

    def _tail_edits(self) -> list[tuple[str, dict]]:
        """The prepared WAL tail: each candidate added, then retracted."""
        candidates = inputs.edit_candidates(self.problem)
        return [("add" if i % 2 == 0 else "retract",
                 {"session": inputs.SESSION,
                  "dependency": candidates[(i // 2) % len(candidates)]})
                for i in range(PREPARED_TAIL)]

    def verify_live(self, conns: list[Connection],
                    sessions: list[dict]) -> None:
        """Both nodes answer the probes, Σ size and generation as local."""
        for conn, session in zip(conns, sessions):
            for request, expected in self.final["probes"]:
                reply = conn.call(request)
                if reply != expected:
                    self.tally.mismatches.append(
                        f"end-of-round probe: expected {expected!r}, "
                        f"got {reply!r}")
            if session["sigma"] != len(self.final["state"]):
                self.tally.mismatches.append(
                    f"Σ has {session['sigma']} members, expected "
                    f"{len(self.final['state'])}")
        generations = [session["generation"] for session in sessions]
        if len(set(generations)) != 1:
            self.tally.mismatches.append(
                f"primary and follower generations differ: {generations}")

    def verify_durable(self, primary_dir: str, follower_dir: str) -> None:
        """Each node's data directory recovers to the local Σ, in order."""
        from repro.serve.server import SessionManager
        from repro.store.recovery import recover

        for data_dir in (primary_dir, follower_dir):
            manager = SessionManager(idle_ttl=None)
            recover(data_dir, manager)
            state = manager.snapshot_state()[inputs.SESSION]
            if state["dependencies"] != self.final["state"]:
                self.tally.mismatches.append(
                    f"{os.path.basename(data_dir)} recovered a Σ that "
                    f"differs from the acknowledged edits")



def make(name: str, checkout: str, seed: int, seconds: float) -> Harness:
    if name in ("hot_read", "cold_read"):
        return ReadWorkload(name, checkout, seed, seconds)
    if name == "edit_replicated":
        return EditWorkload(checkout, seed, seconds)
    raise ValueError(f"unknown workload {name!r}")
