"""Tests of the benchmark itself: metric names, the tail rule, the output
checks and the tracer. Run with `python3 -m pytest bench/tests -q`."""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small_round(tmp_path, commands=workloads.SWEEP_COMMANDS + ("netcheck",)):
    inputs = workloads.Inputs()
    rng = np.random.default_rng(5)
    ops = workloads.instance_ops("an", 4, commands, inputs, str(tmp_path), rng, 300)
    return ops, inputs


def test_metric_names_are_well_formed_and_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for group in ("end_to_end", "per_layer", "workloads"):
        for entry in spec[group]:
            assert NAME.fullmatch(entry["name"]), entry["name"]
            assert len(entry["name"]) <= 64
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == {**metrics.END_TO_END, **metrics.PER_LAYER}[m["name"]]


@pytest.mark.parametrize(
    "n, pct, rank",
    [(11, 9, 1), (20, 50, 10), (100, 90, 90), (224, 95, 213), (1000, 99, 990)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, rank):
    samples = list(np.random.default_rng(n).permutation(np.arange(1.0, n + 1)))
    value, p = metrics.tail(samples)
    assert (value, p) == (float(rank), pct)
    assert sum(1 for s in samples if s > value) >= metrics.TAIL_BEYOND
    # one percentile higher leaves fewer than ten beyond
    higher = int(np.ceil((p + 1) * n / 100))
    assert p == 99 or n - higher < metrics.TAIL_BEYOND


def test_tail_with_too_few_samples_is_the_maximum():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100)


def _judged(op, out):
    rec = harness.Record(op, 0.0, op.expected_code, harness._sha(out))
    return rec, {(op.label, rec.sha): out}


def test_every_small_op_passes_its_check(tmp_path):
    ops, inputs = small_round(tmp_path)
    records, outputs = [], {}
    for op in ops:
        rec, out = harness.run_op(op, inputs)
        records.append(rec)
        outputs[(op.label, rec.sha)] = out
    harness.judge(records, outputs, inputs)
    assert [(r.op.label, r.failure) for r in records if r.failure] == []


def _corrupt_decode(out: str) -> str:
    lines = out.split("\n")
    i = next(k for k, s in enumerate(lines) if s in ("0", "1"))
    lines[i] = "1" if lines[i] == "0" else "0"
    return "\n".join(lines)


def _corrupt_eval(out: str) -> str:
    vals = out.split("\n")
    vals[0] = repr(float(vals[0]) + 1e-6)
    return "\n".join(vals)


def _corrupt_count(out: str) -> str:
    return out.replace(",20,20,", ",20,21,")


@pytest.mark.parametrize("command, corrupt", [
    ("decode", _corrupt_decode),
    ("eval", _corrupt_eval),
    ("count", _corrupt_count),
])
def test_corrupted_output_is_a_failed_op(tmp_path, command, corrupt):
    ops, inputs = small_round(tmp_path, (command,))
    op = ops[0]
    rec, out = harness.run_op(op, inputs)
    good = _judged(op, out)
    harness.judge([good[0]], good[1], inputs)
    assert good[0].failure is None
    bad_out = corrupt(out)
    assert bad_out != out
    bad = _judged(op, bad_out)
    harness.judge([bad[0]], bad[1], inputs)
    assert bad[0].failure


def test_unexpected_exit_code_is_a_failed_op(tmp_path):
    ops, inputs = small_round(tmp_path, ("mc",))
    rec, out = harness.run_op(ops[0], inputs)
    rec.code = 1 - rec.code
    harness.judge([rec], {(rec.op.label, rec.sha): out}, inputs)
    assert rec.failure.startswith("exit code")


def test_stdout_identical_with_tracing_on_and_off(tmp_path):
    ops, inputs = small_round(tmp_path)
    untraced = [harness.run_op(op, inputs)[0].sha for op in ops]
    tracer = Tracer()
    _, records = harness.traced_round(ops, inputs, tracer)
    assert [r.sha for r in records] == untraced
    assert all(r.failure is None for r in records)
    # the wrappers are gone again
    assert harness.lattices.sample_domain is tracer.originals["lattices.sample_domain"]


def test_pool_thread_spans_hang_under_the_verify_span(tmp_path):
    ops, inputs = small_round(tmp_path, ("fold",))
    tracer = Tracer()
    harness.traced_round(ops, inputs, tracer)
    verify = [s for s in tracer.spans if s.name == "folding.verify_fold_invariance"]
    assert len(verify) == 1
    samplers = [s for s in tracer.spans if s.name == "lattices.sample_domain"]
    assert len(samplers) == 16  # one per fold chunk
    assert {s.parent for s in samplers} == {verify[0].id}
    table, = [metrics.per_layer(tracer.spans, 1.0, 1.0)[0]]
    assert table["lattices.sample_domain.useful_ratio"] > 0
    assert table["folding.apply_fold.points"] == workloads.DEFAULT_SAMPLES


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
