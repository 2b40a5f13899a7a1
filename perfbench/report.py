"""End-to-end metrics of a run, normalised to the reference speed."""

from __future__ import annotations

import json
import statistics

from stats import percentile, rank, tail_percentile


def end_to_end(bench) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """``({name: (value, unit)}, printable lines)`` for the run."""
    pacer, tally = bench.pacer, bench.tally
    raw_lat, ref_lat = pacer.latencies()
    ops = len(raw_lat)
    raw_sorted = sorted(raw_lat)
    ref_sorted = sorted(ref_lat)
    ok_ratio = 1 - tally.failed / tally.attempted
    rows = [
        # name, value, unit, raw value, raw unit, samples
        # set-up time in seconds at the nominal reference speed S0
        ("setup_s", statistics.median(tally.setups_ref), "s",
         statistics.median(tally.setups_raw), "s", len(tally.setups_ref)),
        ("ops_per_s", ops / pacer.ref_wall(), "ops/ref-s",
         ops / pacer.wall(), "ops/s", ops),
        ("p50_ms", percentile(ref_sorted, 50) * 1e3, "ref-ms",
         percentile(raw_sorted, 50) * 1e3, "ms", ops),
        ("p90_ms", percentile(ref_sorted, 90) * 1e3, "ref-ms",
         percentile(raw_sorted, 90) * 1e3, "ms", ops),
        ("ok_ratio", ok_ratio, "ok/attempted", ok_ratio, "ok/attempted",
         tally.attempted),
        ("rss_mb", statistics.median(tally.rss_mb), "MB",
         statistics.median(tally.rss_mb), "MB", len(tally.rss_mb)),
    ]
    lines = [f"metric {name} = {value:.6g} {unit}  "
             f"(raw {raw:.6g} {raw_unit}, n={count})"
             for name, value, unit, raw, raw_unit, count in rows]
    tail = tail_percentile(ops)
    if tail is not None:
        beyond = ops - rank(tail, ops)
        lines.append(
            f"ungated p{tail:g}_ms = "
            f"{percentile(ref_sorted, tail) * 1e3:.6g} ref-ms  (raw "
            f"{percentile(raw_sorted, tail) * 1e3:.6g} ms, n={ops}, "
            f"{beyond} beyond)")
    lines.append(f"measure ref.share = {pacer.share():.4f}"
                 f"  ref.speed = {pacer.mean_speed():.1f} iter/cpu-s "
                 f"(n={len(pacer.speeds)} slices)")
    metrics = {name: (value, unit) for name, value, unit, *_ in rows}
    raw = {name: raw for name, _, _, raw, *_ in rows}
    lines.append("detail " + json.dumps(
        {"raw": raw, "samples": {row[0]: row[5] for row in rows}}))
    return metrics, lines
