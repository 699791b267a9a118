"""Out-of-program tracing: wrap the public functions of the package modules
by replacing module attributes, record one span per call, and reduce the
spans to per-layer self times, call counts and counters.

Nothing is installed unless `Tracer.install` is called, so an untraced run
executes the program's own function objects. Because the wrappers replace
module attributes, calls that go through the module namespace are traced
too, including calls inside one module (for example `sample_domain`
calling `domain_contains`).
"""
from __future__ import annotations

import functools
import inspect
import threading
import time

import numpy as np

# cli.main is the only cli function wrapped: its self time is meant to cover
# argparse, point parsing and output formatting, which live in cli helpers
CLI_WRAPPED = ("main",)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread", "counters")

    def __init__(self, sid, name, start, parent, op, thread):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread
        self.counters: dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one benchmark process.

    Spans are recorded only while an op is open (`begin_op` .. `end_op`), so
    output checks and set-up run untraced even with the wrappers installed.
    A span opened on a thread with no open span of its own (the fold
    verification pool) takes the innermost open span of the op thread as
    its parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op: object = None
        self._op_stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- installation -------------------------------------------------------

    def install(self, modules: dict[str, object]) -> None:
        """Wrap public functions of each module, keyed by its short name."""
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if short == "cli" and attr not in CLI_WRAPPED:
                    continue
                name = f"{short}.{attr}"
                self.originals[name] = obj
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrap(name, obj, HOOKS.get(name)))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._op_stack:
            parent = self._op_stack[-1].id
        else:
            parent = None
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(), parent,
                        self._op, threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def begin_op(self, op_id: object) -> Span:
        self._op = op_id
        self._op_stack = self._stack()
        return self.open("bench.op")

    def end_op(self, root: Span) -> None:
        self.close(root)
        self._op = None
        self._op_stack = []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                # hook work is a span of its own so it is not charged to the
                # caller's self time
                extra = tracer.open("trace.hook")
                try:
                    hook(tracer, span, args, kwargs, result)
                finally:
                    tracer.close(extra)
            return result

        return wrapper

    def span_parent(self, span: Span) -> Span | None:
        return None if span.parent is None else self.spans[span.parent]


# ---------------------------------------------------------------------------
# counters recorded at layer boundaries
# ---------------------------------------------------------------------------

def _rows(x) -> int:
    arr = np.asarray(x)
    return 1 if arr.ndim <= 1 else int(arr.shape[0])


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _sample_domain(tracer, span, args, kwargs, result):
    span.counters["returned"] = _rows(result)


def _domain_contains(tracer, span, args, kwargs, result):
    mask = np.asarray(result)
    span.counters["rows"] = mask.size
    span.counters["accepted"] = int(mask.sum())
    parent = tracer.span_parent(span)
    if parent is not None and parent.name == "lattices.sample_domain":
        parent.counters["candidates"] = parent.counters.get("candidates", 0) + mask.size


def _eval_boundary_batch(tracer, span, args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    rows = int(np.asarray(result[0]).shape[0])
    span.counters["points"] = rows
    span.counters["gather_bytes"] = rows * int(f.memberships.shape[0]) * 8


def _decode_bit_batch(tracer, span, args, kwargs, result):
    bits = np.asarray(result)
    span.counters["rows"] = bits.size
    span.counters["ties"] = int((bits == -1).sum())


def _apply_fold(tracer, span, args, kwargs, result):
    before = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "Yt"), dtype=float))
    after = np.atleast_2d(np.asarray(result))
    span.counters["points"] = before.shape[0]
    span.counters["moved"] = int((before != after).any(axis=1).sum())


def _network_to_json(tracer, span, args, kwargs, result):
    span.counters["bytes"] = len(result)


def _forward(tracer, span, args, kwargs, result):
    """Time the same input through each run of equally tagged layers."""
    network = _arg(args, kwargs, 0, "network")
    X = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "x"), dtype=float))
    span.counters["points"] = X.shape[0]
    forward = tracer.originals["network.forward"]
    layers = network.layers
    i = 0
    while i < len(layers):
        j = i
        while j < len(layers) and layers[j].tag == layers[i].tag:
            j += 1
        part = type(network)(layers=tuple(layers[i:j]), meta={})
        t0 = time.perf_counter()
        X = forward(part, X)
        key = f"{layers[i].tag or 'untagged'}_s"
        span.counters[key] = span.counters.get(key, 0.0) + time.perf_counter() - t0
        i = j


HOOKS = {
    "lattices.sample_domain": _sample_domain,
    "lattices.domain_contains": _domain_contains,
    "boundary.eval_boundary_batch": _eval_boundary_batch,
    "boundary.decode_bit_batch": _decode_bit_batch,
    "folding.apply_fold": _apply_fold,
    "network.network_to_json": _network_to_json,
    "network.forward": _forward,
}


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s, self_s, child_busy_s and counter sums.

    Self time is a span's duration minus the part of its interval that its
    child spans cover; child_busy_s sums the children's durations, which
    exceeds the duration when children ran on several threads.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        kids = children.get(s.id, [])
        clipped = [(max(k.start, s.start), min(k.end, s.end)) for k in kids]
        covered = _covered([iv for iv in clipped if iv[1] > iv[0]])
        row = table.setdefault(
            s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "child_busy_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += s.seconds
        row["self_s"] += max(s.seconds - covered, 0.0)
        row["child_busy_s"] += sum(k.seconds for k in kids)
        for key, value in s.counters.items():
            row[key] = row.get(key, 0) + value
    return table
