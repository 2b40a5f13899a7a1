"""Tests of the benchmark's own arithmetic, inputs and accounting.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repro import parse_subattribute

import inputs
import refspeed
from nodes import NodeError
from refspeed import S0, Pacer, to_ref_time
from stats import percentile, rank, spread, tail_percentile
from workloads import Harness, Tally, Unit

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# -- normalisation -----------------------------------------------------------

def test_times_scale_with_speed():
    # a phase twice as fast as S0 halves raw times; normalising must
    # bring them back to what S0 would have shown, not halve them again
    assert to_ref_time(0.5, 2 * S0) == pytest.approx(1.0)
    assert to_ref_time(3.0, S0) == 3.0


def test_normalisation_cancels_a_speed_phase():
    work = 1.0  # seconds of work at S0
    for speed in (0.7 * S0, S0, 1.65 * S0):
        assert to_ref_time(work * S0 / speed, speed) == pytest.approx(work)


def _scripted(monkeypatch, speeds):
    script = iter(speeds)
    monkeypatch.setattr(refspeed, "measure_slice", lambda *_: next(script))


def test_pacer_scales_each_window_by_its_bracketing_slices(monkeypatch):
    _scripted(monkeypatch, [S0, 3 * S0, 2 * S0])
    pacer = Pacer(interval=1.0)
    pacer.start()
    pacer.record(0.010, 0.0)     # before the deadline: stays in window 0
    pacer.record(0.020, 1e12)    # past it: closes window 0 (slices S0, 3S0)
    pacer.record(0.030, 1e12)    # window 1 (slices 3S0, 2S0)
    raw, ref = pacer.latencies()
    assert raw == [0.010, 0.020, 0.030]
    assert ref == pytest.approx([0.020, 0.040, 0.075])
    assert len(pacer.windows) == 2


def test_pacer_rate_divides_by_speed(monkeypatch):
    # a phase twice as fast as S0 doubles the raw rate; the normalised
    # rate (operations over normalised time) must halve it back
    _scripted(monkeypatch, [2 * S0, 2 * S0])
    pacer = Pacer(interval=1e9)
    pacer.start()
    for _ in range(10):
        pacer.record(0.001, 0.0)
    pacer.finish()
    raw_rate = 10 / pacer.wall()
    assert pacer.ops() / pacer.ref_wall() == pytest.approx(raw_rate / 2)


def test_timed_step_is_bracketed(monkeypatch):
    _scripted(monkeypatch, [S0, 3 * S0])
    pacer = Pacer()
    pacer.slice()
    result, raw, ref = pacer.timed(lambda: 42)
    assert result == 42
    assert ref == pytest.approx(raw * 2)


# -- percentiles --------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99.9) == 7.0


@pytest.mark.parametrize("count, expected", [
    (100, 90.0), (200, 95.0), (1000, 99.0), (1009, 99.0), (1010, 99.0),
    (2000, 99.5), (10000, 99.9), (100000, 99.99), (25, 50.0), (19, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    p = tail_percentile(count)
    assert p == expected
    if p is not None:
        assert count - rank(p, count) >= 10


def test_spread_is_quartile_distance_over_median():
    q1, median, q3, share = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert median == 3.0
    assert share == pytest.approx((q3 - q1) / 3.0)


# -- generated inputs ----------------------------------------------------------

@pytest.fixture(scope="module")
def problem():
    return inputs.build_problem()


def _stream_bytes(problem, seed):
    hot, cold = inputs.read_pool(problem)
    reads = inputs.read_stream(hot, seed) + inputs.read_stream(cold, seed)
    edits = inputs.edit_stream(problem, seed, 96)
    lines = [inputs.request_line(i, op, params)
             for i, (op, params) in enumerate(reads)]
    lines += [inputs.request_line(i, op, params)
              for i, pair in enumerate(edits) for op, params in pair]
    return b"".join(lines)


def test_same_seed_gives_byte_identical_streams(problem):
    assert _stream_bytes(problem, 7) == _stream_bytes(problem, 7)


def test_other_seed_gives_other_streams(problem):
    assert _stream_bytes(problem, 7) != _stream_bytes(problem, 8)


def test_sigma_and_read_multiset_are_fixed_across_seeds(problem):
    assert inputs.build_problem().sigma == problem.sigma
    assert len(set(problem.sigma)) == inputs.SIGMA_SIZE
    hot, cold = inputs.read_pool(problem)
    key = lambda read: json.dumps(read, sort_keys=True)  # noqa: E731
    assert sorted(map(key, inputs.read_stream(cold, 1))) == \
        sorted(map(key, inputs.read_stream(cold, 2)))


def test_read_mix_and_distinct_cold_lhs(problem):
    hot, cold = inputs.read_pool(problem)
    assert len(hot) == inputs.HOT_READS and len(cold) == inputs.COLD_READS
    ops = [op for op, _ in cold]
    assert ops.count("implies") == 600
    assert ops.count("closure") == ops.count("basis") == 200
    texts = [params.get("x") or params["dependency"].split(" ->")[0]
             for _, params in hot + cold]
    masks = {problem.encoding.encode(parse_subattribute(text, problem.root))
             for text in texts}
    assert len(masks) == len(texts)


def test_edit_stream_never_fails(problem):
    session = problem.session()
    for (op, params), (probe_op, probe) in inputs.edit_stream(problem, 3):
        result = inputs.answer(session, op, params)
        assert result.get("added", True) is True
        inputs.answer(session, probe_op, probe)


# -- failure accounting ---------------------------------------------------------

class FakeConnection:
    def __init__(self, replies):
        self.replies = list(replies)

    def call(self, line):
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


def _harness():
    harness = Harness.__new__(Harness)
    harness.pacer = Pacer()
    harness.tally = Tally()
    return harness


def _unit(i):
    return Unit(((0, b"req", inputs.ok_line(i, {"implied": True})),))


def test_typed_error_counts_failed_and_ends_the_round():
    harness = _harness()
    error = inputs.encode_line({"v": 1, "id": 1, "ok": False, "error": {
        "code": "overloaded", "message": "busy"}})
    conn = FakeConnection([inputs.ok_line(0, {"implied": True}), error])
    harness.drive([conn], [_unit(0), _unit(1), _unit(2), _unit(3)], [])
    tally = harness.tally
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.mismatches == []
    assert harness.pacer.ops() == 1


def test_disconnect_counts_failed():
    harness = _harness()
    conn = FakeConnection([NodeError("closed")])
    harness.drive([conn], [_unit(0), _unit(1)], [])
    assert (harness.tally.attempted, harness.tally.failed) == (2, 2)
    assert harness.pacer.ops() == 0


def test_wrong_answer_is_a_mismatch_not_a_failure():
    harness = _harness()
    conn = FakeConnection([inputs.ok_line(0, {"implied": False})])
    harness.drive([conn], [_unit(0)], [])
    assert harness.tally.failed == 0
    assert len(harness.tally.mismatches) == 1


# -- BENCHMARK.json --------------------------------------------------------------

def test_benchmark_json_names_are_valid():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    for name in names:
        assert pattern.fullmatch(name), name
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == {
        "hot_read", "cold_read", "edit_replicated"}
