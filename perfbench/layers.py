"""The traced run: per-layer metrics for one workload.

Three legs, all on the workload's own generated inputs:

1. **Served** — the workload's rounds exactly as in the untraced run,
   plus node-side counters (``metrics``/``health``/``replicate.status``)
   and ``/proc`` CPU and memory readings.
2. **In-process replay** — every request through the layers' public
   functions in the order the server calls them (``decode_request`` →
   ``from_wire`` → ``lhs_masks`` → cache prefetch → ``execute`` →
   ``encode``), once untraced and once with a span around each call.
   The difference is ``trace.overhead_pct``; the replies must be the
   served bytes.
3. **Write path** — ``repro.store`` and ``repro.replicate`` on the
   seed's edit stream: append/compact/recover/apply in process, and a
   served primary+follower leg that polls ``replicate.status`` for lag
   and times the fenced read after each compaction.  Read workloads run
   a shorter stream of the same kind, so every layer metric is measured
   on every workload.

Spans are ``(name, start, end, parent, request id)`` tuples kept in
memory; times are normalised by the reference slices around them.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
import tracemalloc
from collections import Counter

import inputs
from refspeed import Pacer, to_ref_time
from workloads import EditWorkload

#: Edit units the write-path leg serves on the read workloads.
SIDE_EDITS = 288
REPEATS = 5


class Spans:
    """In-memory spans of the traced replay."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, str | None, int]] = []

    def call(self, name: str, parent: str | None, rid: int, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.spans.append((name, start, time.perf_counter(), parent, rid))
        return result


class Counting:
    """Counts top-level calls of session methods (nested calls excluded)."""

    def __init__(self, session, groups: dict[str, tuple[str, ...]]) -> None:
        self.counts: Counter = Counter()
        self.kernel_calls: list[float] = []
        self._depth = Counter()
        stats = session.kernel_stats
        for group, names in groups.items():
            for name in names:
                setattr(session, name, self._wrap(
                    group, getattr(session, name), stats))

    def _wrap(self, group: str, method, stats):
        def wrapper(*args, **kwargs):
            if group == "parse" and not isinstance(args[0], str):
                return method(*args, **kwargs)
            top = self._depth[group] == 0
            self._depth[group] += 1
            runs = stats.runs
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                self._depth[group] -= 1
                if top:
                    self.counts[group] += 1
                    if group == "lookup" and stats.runs > runs:
                        self.kernel_calls.append(time.perf_counter() - start)
        return wrapper


def _requests(bench) -> list[tuple[int, bytes, bytes]]:
    """The served calls of one round, in order, as ``(node, line, reply)``."""
    if isinstance(bench, EditWorkload):
        return [call for unit in bench.units for call in unit.calls]
    return list(bench.warm) + [unit.calls[0] for unit in bench.units]


def _replay(bench, calls, traced: bool, pacer: Pacer) -> dict:
    """Run ``calls`` through the layers on a fresh local session."""
    from repro.attributes.parser import parse_subattribute
    from repro.attributes.printer import unparse_abbreviated
    from repro.core import commands
    from repro.dependencies.dependency import parse_dependency
    from repro.serve import protocol

    problem = bench.problem
    session = problem.session()
    session.plan  # compiled at open, as on the server
    counting = Counting(session, {
        "parse": ("dependency", "attribute"),
        "lookup": ("result_for", "result_for_mask", "closure_mask_for"),
    }) if traced else None
    spans = Spans()
    call = spans.call
    mismatches = []
    windows: list[int] = []
    response_bytes = 0
    # a durable node adds the WAL position to a mutation's result
    seqs = [json.loads(expected)["result"].get("seq")
            for _, _, expected in calls]
    pacer.start()
    for rid, (_, line, expected) in enumerate(calls):
        start = time.perf_counter()
        if traced:
            request = call("protocol.decode", "request", rid,
                           protocol.decode_request, line)
            command = call("commands.from_wire", "request", rid,
                           commands.from_wire, request.op, request.params)
            masks = call("commands.resolve", "request", rid,
                         command.lhs_masks, session)
            prefetched = [call("session.prefetch", "request", rid,
                               session.result_for_mask, mask)
                          for mask in dict.fromkeys(masks)]
            outcome = call("commands.execute", "request", rid,
                           commands.execute, command, session)
            result = outcome.result
            if outcome.mutated:
                result = {**result, "seq": seqs[rid]}
            reply = call("protocol.encode", "request", rid, protocol.encode,
                         protocol.ok_response(request.id, result))
            spans.spans.append(("request", start, time.perf_counter(), None,
                                rid))
            params = request.params
            text = params.get("dependency", params.get("x"))
            if text is not None:
                parse = (parse_dependency if "dependency" in params
                         else parse_subattribute)
                call("attributes.parse", None, rid, parse, text,
                     problem.root)
            if prefetched:
                call("attributes.render", None, rid, unparse_abbreviated,
                     prefetched[0].closure, problem.root)
        else:
            request = protocol.decode_request(line)
            command = commands.from_wire(request.op, request.params)
            for mask in dict.fromkeys(command.lhs_masks(session)):
                session.result_for_mask(mask)
            outcome = commands.execute(command, session)
            result = outcome.result
            if outcome.mutated:
                result = {**result, "seq": seqs[rid]}
            reply = protocol.encode(protocol.ok_response(request.id, result))
        if reply != expected:
            mismatches.append(f"in-process reply {reply[:200]!r} differs "
                              f"from {expected[:200]!r}")
        response_bytes += len(reply)
        windows.append(len(pacer.windows))
        end = time.perf_counter()
        pacer.record(end - start, end)
    pacer.finish()
    return {"session": session, "spans": spans.spans, "windows": windows,
            "counting": counting, "mismatches": mismatches,
            "response_bytes": response_bytes / len(calls)}


def _span_means(replay: dict, pacer: Pacer, count: int) -> dict[str, float]:
    """Per-request mean normalised µs of each span name."""
    speeds = [pacer.windows[w][2] for w in replay["windows"]]
    totals: Counter = Counter()
    for name, start, end, _, rid in replay["spans"]:
        totals[name] += to_ref_time(end - start, speeds[rid])
    return {name: total / count * 1e6 for name, total in totals.items()}


def _timed(pacer: Pacer, step) -> tuple[object, float]:
    """``(result, normalised seconds)`` of ``step()`` between slices."""
    pacer.slice()
    result, _, ref = pacer.timed(step)
    return result, ref


def write_path(edit: EditWorkload, pacer: Pacer) -> dict[str, tuple]:
    """``repro.store`` and ``repro.replicate`` in process on the edit stream."""
    from repro.serve.server import SessionManager
    from repro.store import SessionStore
    from repro.store.recovery import apply_record, recover
    from repro.store.wal import WalRecord

    out: dict[str, tuple] = {}
    scratch = os.path.join(edit.work, "inproc")
    samples = []
    for _ in range(REPEATS):
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(os.path.join(edit.template, "primary"), scratch)
        manager = SessionManager(idle_ttl=None)
        report, ref = _timed(pacer, lambda: recover(scratch, manager))
        samples.append(ref)
    out["store.recover_ms"] = (statistics.median(samples) * 1e3, "ref-ms")
    out["store.replayed_records"] = (report.replayed, "count")

    records = [WalRecord(edit.base_seq + 1 + i, op, params)
               for i, ((op, params), _) in enumerate(edit.stream)]

    def apply_all():
        for record in records:
            apply_record(manager, record)
    _, ref = _timed(pacer, apply_all)
    out["replicate.apply_us"] = (ref / len(records) * 1e6, "ref-us")

    shutil.rmtree(scratch, ignore_errors=True)
    store = SessionStore(scratch, fsync="interval",
                         compact_records=len(records) + 1)
    store.start(SessionManager(idle_ttl=None))

    def append_all():
        for record in records:
            store.append(record.op, record.params)
    _, ref = _timed(pacer, append_all)
    stats = store.stats()
    out["store.append_us"] = (ref / len(records) * 1e6, "ref-us")
    out["store.bytes_per_record"] = (
        stats["segment_bytes"] / stats["segment_records"], "bytes")
    state = manager.snapshot_state()
    samples = []
    for _ in range(REPEATS):
        _, ref = _timed(pacer, lambda: store.compact(state))
        samples.append(ref)
    out["store.compact_ms"] = (statistics.median(samples) * 1e3, "ref-ms")
    store.close()
    shutil.rmtree(scratch, ignore_errors=True)
    return out


def served_edit_leg(edit: EditWorkload, pacer: Pacer) -> dict[str, tuple]:
    """One primary+follower round polling lag and timing reset stalls."""
    from nodes import Connection

    shutil.rmtree(edit.live, ignore_errors=True)
    shutil.copytree(edit.template, edit.live)
    primary = edit.spawn_durable(os.path.join(edit.live, "primary"))
    follower = None
    lags, stalls = [], []
    try:
        follower = edit.spawn_durable(os.path.join(edit.live, "follower"),
                                      primary)
        pconn, fconn = Connection(primary.address), Connection(
            follower.address)
        health = inputs.request_line(0, "health", {})
        status = inputs.request_line(0, "replicate.status", {})

        def compactions() -> int:
            reply = json.loads(pconn.call(health))
            return reply["result"]["store"]["compactions"]

        def replica() -> dict:
            return json.loads(fconn.call(status))["result"]["replica"]

        start_compactions = compactions()
        resets_before = replica()["resets"]
        pacer.start()
        for unit in edit.units:
            (_, edit_line, edit_reply), (_, probe_line, probe_reply) = \
                unit.calls
            seq = int(edit_reply.rsplit(b'"seq":', 1)[1][:-3])
            before = compactions()
            if pconn.call(edit_line) != edit_reply:
                raise RuntimeError("edit leg: unexpected primary reply")
            acked = time.perf_counter()
            compacted = compactions() > before
            deadline = acked + 10.0
            while replica()["applied_seq"] < seq:
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"edit leg: follower never reached "
                                       f"seq {seq}")
            caught_up = time.perf_counter()
            if fconn.call(probe_line) != probe_reply:
                raise RuntimeError("edit leg: unexpected follower reply")
            answered = time.perf_counter()
            window = len(pacer.windows)
            if compacted:
                stalls.append((answered - acked, window))
            else:
                lags.append((caught_up - acked, window))
            pacer.record(answered - acked, answered)
        pacer.finish()
        total = compactions() - start_compactions
        resets = replica()["resets"] - resets_before
        pconn.close()
        fconn.close()
    finally:
        if follower is not None:
            follower.stop()
        primary.stop()

    def mean_ms(samples):
        if not samples:
            return 0.0
        return statistics.fmean(to_ref_time(raw, pacer.windows[w][2])
                                for raw, w in samples) * 1e3

    return {"replicate.lag_ms": (mean_ms(lags), "ref-ms"),
            "replicate.reset_stall_ms": (mean_ms(stalls), "ref-ms"),
            "replicate.resets": (resets, "count"),
            "store.compactions": (total, "count")}


def kb_per_entry(bench, calls) -> float:
    """Session-layer bytes held per cached left-hand side (tracemalloc)."""
    from repro.core import commands

    session = bench.problem.session()
    session.plan  # compiled at open, as on the server
    masks = []
    for _, line, _ in calls:
        message = json.loads(line)
        command = commands.from_wire(message["op"], message["params"])
        masks.extend(command.lhs_masks(session))
    masks = list(dict.fromkeys(masks))[:300]
    tracemalloc.start()
    try:
        for mask in masks:
            session.result_for_mask(mask)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return size / session.cache_info().computed / 1024


def run(bench):
    """The traced run of ``bench``: ``(tally, metrics, printable lines)``."""
    tally = bench.run(bench.one_round)
    served = bench.pacer
    raw_lat, ref_lat = served.latencies()
    served_ops = len(ref_lat)
    metrics: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (value, unit)

    calls = _requests(bench)
    replay_pacer = Pacer()
    plain = _replay(bench, calls, False, replay_pacer)
    plain_ref = replay_pacer.ref_wall()
    traced_pacer = Pacer()
    traced = _replay(bench, calls, True, traced_pacer)
    tally.mismatches.extend(plain["mismatches"] + traced["mismatches"])
    means = _span_means(traced, traced_pacer, len(calls))
    per_unit = 2 if isinstance(bench, EditWorkload) else 1

    put("protocol.decode_us", means["protocol.decode"], "ref-us")
    put("protocol.encode_us", means["protocol.encode"], "ref-us")
    put("protocol.response_bytes", traced["response_bytes"], "bytes")
    put("commands.from_wire_us", means["commands.from_wire"], "ref-us")
    put("commands.resolve_us", means["commands.resolve"], "ref-us")
    put("commands.execute_us", means["commands.execute"], "ref-us")
    counting = traced["counting"]
    put("commands.parses_per_request", counting.counts["parse"] / len(calls),
        "count")
    put("attributes.parse_us", means["attributes.parse"], "ref-us")
    put("attributes.render_us", means.get("attributes.render", 0.0),
        "ref-us")

    session = traced["session"]
    info = session.cache_info()
    lookups = counting.counts["lookup"]
    put("session.hit_ratio", info.hits / lookups, "ratio")
    put("session.lookups_per_request", lookups / len(calls), "count")
    put("session.kb_per_entry", kb_per_entry(bench, calls), "KB")
    # the node that answered the last read: the follower on edit_replicated
    put("session.cached_entries", tally.node_stats[-1][-1]["computed"],
        "count")
    edit = bench
    if not isinstance(bench, EditWorkload):
        edit = EditWorkload(bench.checkout, bench.seed, bench.seconds,
                            rounds=SIDE_EDITS)
        edit.one_round()
        tally.mismatches.extend(edit.tally.mismatches)
    node_session = edit.tally.node_stats[-1][-1]
    edits = len(edit.units)
    put("session.warm_starts_per_edit", node_session["warm_starts"] / edits,
        "count")
    put("session.invalidations_per_edit",
        node_session["invalidations"] / edits, "count")

    samples = []
    for _ in range(REPEATS):
        fresh = bench.problem.session()
        _, ref = _timed(served, lambda: fresh.plan)
        samples.append(ref)
    put("plan.compile_ms", statistics.median(samples) * 1e3, "ref-ms")
    plan = info.plan
    plan_lookups = plan.exact_hits + plan.interval_hits + plan.misses
    put("plan.interval_hit_ratio",
        plan.interval_hits / plan_lookups if plan_lookups else 0.0, "ratio")

    kernel = session.kernel_stats
    runs = max(1, kernel.runs)
    put("kernel.run_us", to_ref_time(
        statistics.fmean(counting.kernel_calls or [0.0]),
        statistics.fmean(w[2] for w in traced_pacer.windows)) * 1e6, "ref-us")
    put("kernel.passes_per_run", kernel.passes / runs, "count")
    put("kernel.firings_per_run", kernel.firings / runs, "count")
    put("kernel.requeue_scanned_per_run", kernel.requeue_scanned / runs,
        "count")

    service = sum(value for name, value in means.items()
                  if name.split(".")[0] in ("protocol", "commands", "session")
                  ) * per_unit
    speed = served.mean_speed()
    put("server.spawn_s", statistics.median(tally.steps["spawn"]), "ref-s")
    put("server.service_us", service, "ref-us")
    put("server.transport_us", statistics.fmean(ref_lat) * 1e6 - service,
        "ref-us")
    put("server.cpu_ms_per_op",
        to_ref_time(tally.node_cpu_s, speed) / served_ops * 1e3, "ref-ms")
    put("loadgen.cpu_ms_per_op",
        to_ref_time(tally.loadgen_cpu_s, speed) / served_ops * 1e3, "ref-ms")

    side = Pacer()
    metrics.update(write_path(edit, side))
    metrics.update(served_edit_leg(edit, side))

    put("ref.speed", served.mean_speed(), "iter/cpu-s")
    put("ref.share", served.share(), "ratio")
    put("trace.overhead_pct",
        (traced_pacer.ref_wall() - plain_ref) / plain_ref * 100, "%")

    lines = [f"layer {name} = {value:.6g} {unit}"
             for name, (value, unit) in metrics.items()]
    lines.append(f"served ops={served_ops} raw p50 "
                 f"{statistics.median(raw_lat) * 1e3:.4g} ms; in-process "
                 f"replay of {len(calls)} calls, {len(traced['spans'])} spans")
    return tally, metrics, lines

