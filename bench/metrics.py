"""Metric names, units and the reductions that produce them."""
from __future__ import annotations

import math
import statistics

from spans import layer_table

TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile

# name -> unit; printed with --trace 0 (fail_ratio is printed but not part
# of the JSON result, because it is 0 on a healthy run; the result's
# attempted/failed fields carry it)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name -> unit; printed with --trace 1
PER_LAYER = {
    "lattices.sample_domain.self_s": "s",
    "lattices.sample_domain.useful_ratio": "ratio",
    "lattices.domain_contains.accept_ratio": "ratio",
    "lattices.fiber_interval_batch.self_s": "s",
    "lattices.cvp_corners_batch.self_s": "s",
    "lattices.enumerate_corners.calls": "count",
    "lattices.enumerate_corners.self_s": "s",
    "lattices.minimal_squared_norm.calls": "count",
    "lattices.minimal_squared_norm.self_s": "s",
    "boundary.eval_boundary_batch.self_s": "s",
    "boundary.eval_boundary_batch.points": "count",
    "boundary.eval_boundary_batch.gather_bytes": "B",
    "boundary.build_boundary.calls": "count",
    "boundary.build_boundary.self_s": "s",
    "boundary.decode_bit_batch.tie_ratio": "ratio",
    "folding.apply_fold.self_s": "s",
    "folding.apply_fold.points": "count",
    "folding.apply_fold.moved_ratio": "ratio",
    "folding.verify_fold_invariance.self_s": "s",
    "folding.verify_fold_invariance.parallelism": "ratio",
    "folding.folded_structure.self_s": "s",
    "folding.calls": "count",
    "network.synthesize.self_s": "s",
    "network.forward.self_s": "s",
    "network.forward.points": "count",
    "network.forward.translation_s": "s",
    "network.forward.reflection_s": "s",
    "network.forward.pieces_s": "s",
    "network.forward.maxmin_s": "s",
    "network.network_to_json.self_s": "s",
    "network.network_to_json.bytes": "B",
    "network.calls": "count",
    "analysis.l1_gap_mc.self_s": "s",
    "analysis.hyperplane_decoding_error_mc.self_s": "s",
    "cli.main.self_s": "s",
    "cli.main.out_bytes": "B",
    "trace.overhead_ratio": "ratio",
}


def tail(latencies: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile p with at least
    TAIL_BEYOND samples above its nearest-rank value. With too few samples
    for any percentile, the maximum is returned as percentile 100."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100
    p = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(p * n / 100))
    return xs[rank - 1], p


def end_to_end(setup_s, rounds, records, peak_rss_kb) -> tuple[dict, dict]:
    """Metric values from the untraced pass, and the details printed beside
    them (tail percentile, op count, fail ratio)."""
    lat = [r.seconds for r in records]
    tail_s, pct = tail(lat)
    point_ops = [r for r in records if r.op.points > 0]
    pts = sum(r.op.points for r in point_ops)
    busy = sum(r.seconds for r in point_ops)
    failed = sum(1 for r in records if r.failure)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(rounds),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * tail_s,
        "points_per_s": pts / busy if busy > 0 else 0.0,
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    details = {
        "ops": len(lat),
        "rounds": len(rounds),
        "tail_percentile": pct,
        "failed": failed,
        "fail_ratio": failed / len(lat),
    }
    return values, details


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(spans, traced_wall: float, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced round, and the full span table."""
    table = layer_table(spans)

    def row(name: str) -> dict:
        return table.get(name, {})

    values: dict[str, float] = {}
    for metric in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        values[metric] = float(row(layer).get(field, 0))
    sd = row("lattices.sample_domain")
    values["lattices.sample_domain.useful_ratio"] = _ratio(
        sd.get("returned", 0), sd.get("candidates", 0))
    dc = row("lattices.domain_contains")
    values["lattices.domain_contains.accept_ratio"] = _ratio(
        dc.get("accepted", 0), dc.get("rows", 0))
    dec = row("boundary.decode_bit_batch")
    values["boundary.decode_bit_batch.tie_ratio"] = _ratio(dec.get("ties", 0), dec.get("rows", 0))
    af = row("folding.apply_fold")
    values["folding.apply_fold.moved_ratio"] = _ratio(af.get("moved", 0), af.get("points", 0))
    vf = row("folding.verify_fold_invariance")
    values["folding.verify_fold_invariance.parallelism"] = _ratio(
        vf.get("child_busy_s", 0.0), vf.get("total_s", 0.0))
    for module in ("folding", "network"):
        values[f"{module}.calls"] = float(sum(
            r["calls"] for name, r in table.items() if name.startswith(module + ".")))
    values["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall)
    return values, table
