"""Closed-loop driver: set-up, the timed loop, the traced round, the checks
and the report."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

from latticecpwl import analysis, boundary, cli, folding, lattices, network

import metrics
import workloads
from checks import Checker
from spans import Tracer

MODULES = {
    "cli": cli,
    "lattices": lattices,
    "boundary": boundary,
    "folding": folding,
    "network": network,
    "analysis": analysis,
}


@dataclass
class Record:
    op: workloads.Op
    seconds: float
    code: int | None
    sha: str
    failure: str | None = None


def _sha(out) -> str:
    data = out.encode() if isinstance(out, str) else np.ascontiguousarray(out).tobytes()
    return hashlib.sha256(data).hexdigest()


def _call(op, inputs):
    if op.command == "netcheck":
        return 0, workloads.netcheck(op, inputs)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_op(op, inputs) -> tuple[Record, object]:
    """Run one op, timing only the call. A crash is recorded, not raised."""
    t0 = time.perf_counter()
    try:
        code, out = _call(op, inputs)
    except Exception:  # noqa: BLE001 - the loop must go on and report it
        seconds = time.perf_counter() - t0
        return Record(op, seconds, None, "-", failure=traceback.format_exc()), None
    seconds = time.perf_counter() - t0
    return Record(op, seconds, code, _sha(out)), out


def timed_loop(ops, inputs, rounds: int):
    """Whole rounds in closed loop. Returns round wall times, records, and
    the first output per (label, sha)."""
    walls, records, outputs = [], [], {}
    for _ in range(rounds):
        r0 = time.perf_counter()
        for op in ops:
            rec, out = run_op(op, inputs)
            records.append(rec)
            outputs.setdefault((op.label, rec.sha), out)
        walls.append(time.perf_counter() - r0)
    return walls, records, outputs


def traced_round(ops, inputs, tracer: Tracer):
    """One round with the wrappers installed; returns wall time, records."""
    records = []
    tracer.install(MODULES)
    try:
        r0 = time.perf_counter()
        for i, op in enumerate(ops):
            root = tracer.begin_op(i)
            try:
                rec, out = run_op(op, inputs)
            finally:
                tracer.end_op(root)
            if isinstance(out, str):
                for span in reversed(tracer.spans):
                    if span.name == "cli.main" and span.parent == root.id:
                        span.counters["out_bytes"] = len(out.encode())
                        break
            records.append(rec)
        return time.perf_counter() - r0, records
    finally:
        tracer.uninstall()


def judge(records, outputs, inputs) -> None:
    """Set each record's failure: crash, unexpected exit code or bad output."""
    checker = Checker(inputs)
    verdicts = {}
    for rec in records:
        if rec.failure is not None:
            continue
        if rec.code != rec.op.expected_code:
            rec.failure = f"exit code {rec.code}, expected {rec.op.expected_code}"
            continue
        key = (rec.op.label, rec.sha)
        if key not in verdicts:
            verdicts[key] = checker.check(rec.op, outputs[key])
        rec.failure = verdicts[key]


def _git_commit(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_block(root: str) -> dict:
    nproc = os.cpu_count() or 1
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    src = os.path.join(root, "src", "latticecpwl")
    src_lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                src_lines += sum(1 for _ in fh)
    fold_env = os.environ.get(folding.THREADS_ENV)
    return {
        "nproc": nproc,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "fold_workers": int(fold_env) if fold_env else min(4, nproc),
        "git_commit": _git_commit(root),
        "src_lines": src_lines,
    }


def _print_metrics(values: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"  {name:<46} {values[name]:>14.6g} {unit}")


def set_up(workload, seed, workdir, repeats):
    """Seeded input generation plus warm-up, repeated; returns the last
    repetition's ops and inputs and the median repetition time."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ops, inputs = workloads.build(workload, seed, workdir)
        for op in workloads.warmup_ops(ops, inputs, workdir, seed):
            run_op(op, inputs)
        times.append(time.perf_counter() - t0)
    return ops, inputs, statistics.median(times)


def judge_traced(traced, records) -> None:
    """A traced op fails on an unexpected exit code, or when its stdout
    differs from the untraced run of the same op; else it shares that run's
    verdict."""
    first = {}
    for rec in records:
        first.setdefault(rec.op.label, rec)
    for rec in traced:
        if rec.failure is not None:
            continue
        if rec.code != rec.op.expected_code:
            rec.failure = f"exit code {rec.code}, expected {rec.op.expected_code}"
        elif rec.sha != first[rec.op.label].sha:
            rec.failure = "stdout differs with tracing on"
        else:
            rec.failure = first[rec.op.label].failure


def report(workload, seed, seconds, root, e2e, details, records, traced, layer) -> None:
    """The human-readable lines printed before the JSON result."""
    print(f"workload {workload} seed {seed} seconds {seconds:g} trace {int(layer is not None)}")
    print("machine " + json.dumps(machine_block(root), sort_keys=True))
    print("end-to-end (untraced):")
    _print_metrics(e2e, metrics.END_TO_END)
    print(f"  {'fail_ratio':<46} {details['fail_ratio']:>14.6g} ratio "
          f"({details['failed']} of {details['ops']} ops)")
    print(f"  op_tail_ms is p{details['tail_percentile']} of {details['ops']} ops "
          f"in {details['rounds']} rounds")
    if layer is not None:
        values, table = layer
        print("per-layer (one traced round):")
        _print_metrics(values, metrics.PER_LAYER)
        print("spans by self time:")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<46} calls {row['calls']:>6} self {row['self_s']:10.4f} s "
                  f"total {row['total_s']:10.4f} s")
    print("stdout sha256 per op:")
    for label, sha in sorted({(r.op.label, r.sha) for r in records}):
        print(f"  {sha} {label}")
    for rec in [r for r in records + traced if r.failure][:20]:
        print(f"FAILED {rec.op.label}: {rec.failure.strip().splitlines()[-1]}")


def run(workload, seed, seconds, trace, import_s, setup_repeats, root) -> int:
    workdir = os.path.join(root, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops, inputs, gen_s = set_up(workload, seed, workdir, setup_repeats)
        rounds, records, outputs = timed_loop(
            ops, inputs, workloads.rounds_for(workload, seconds))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        judge(records, outputs, inputs)
        e2e, details = metrics.end_to_end(import_s + gen_s, rounds, records, peak_kb)
        traced, layer = [], None
        if trace:
            tracer = Tracer()
            traced_wall, traced = traced_round(ops, inputs, tracer)
            judge_traced(traced, records)
            layer = metrics.per_layer(tracer.spans, traced_wall, e2e["wall_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    report(workload, seed, seconds, root, e2e, details, records, traced, layer)
    everything = records + traced
    failed = sum(1 for r in everything if r.failure)
    values, units = (layer[0], metrics.PER_LAYER) if trace else (e2e, metrics.END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0
