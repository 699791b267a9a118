"""Workload definitions: the ops of one round and the seeded inputs they read.

A round is a fixed list of ops. The benchmark repeats whole rounds in closed
loop (one client, one op at a time) until its time is up. Every input comes
from `numpy.random.default_rng(seed)`; the program sees only argv and the
point files written here.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from latticecpwl import boundary as bnd
from latticecpwl import folding as fld
from latticecpwl import lattices as lat
from latticecpwl import network as net

WORKLOADS = ("verify-n8", "decode-n8", "sweep-small")

# A run is a fixed number of whole rounds: ROUNDS_PER_MINUTE of --seconds,
# rounded, at least one. At the commit that defined the benchmark, on a
# 2-core Xeon VM, a round took about 21 s, 4.5 s and 10 s, so a 30 s run
# measures about 21 s, 27 s and 20 s of ops. Fixed work keeps the op
# multiset, and so the rank the tail percentile picks, the same on every run
# and commit.
ROUNDS_PER_MINUTE = {"verify-n8": 2, "decode-n8": 12, "sweep-small": 4}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds * ROUNDS_PER_MINUTE[workload] / 60))


# verify-n8: the paper-verification path at the largest rank all families
# support, for one simplex family and one exceptional family
VERIFY_FAMILIES = ("an", "en")
VERIFY_N = 8
# per family and round: one count (7-10 s at n = 8; its sample budget is
# fixed), five folds, two mc and two netcheck ops, each with its own seed.
# Folds are the majority, so the median and the tail of a round's ops fall
# inside the fold block rather than on the edge between two op kinds of
# different cost.
VERIFY_FOLDS = 5
VERIFY_MCS = 2
VERIFY_NETCHECKS = 2
VERIFY_POINTS = 10_000  # --samples of fold and mc, points of netcheck
NETCHECK_M = 2

# decode-n8: point serving for every family at n = 8
DECODE_FAMILIES = lat.FAMILIES
DECODE_N = 8
DECODE_FILES = 2  # eval files and decode files per family
DECODE_POINTS = 10_000

# sweep-small: all eight commands over the small instances, default sizes
SWEEP_INSTANCES = (
    [("an", n) for n in range(2, 7)]
    + [("dn-const-a", n) for n in range(3, 7)]
    + [("dn-second", n) for n in range(3, 7)]
    + [("en", 6)]
)
SWEEP_COMMANDS = ("basis", "count", "fold", "synth", "eval", "decode", "mc", "bounds")
SWEEP_POINTS = 1_000  # points per eval/decode file
DEFAULT_SAMPLES = 10_000  # the CLI default of --samples

# set-up warms every command of the workload once on this instance
WARMUP_INSTANCE = ("an", 3)
WARMUP_POINTS = 200

# decode inputs keep every reduced coordinate this far from an integer, so
# the program's floor() and the benchmark's known shift agree
EDGE = 1e-6

# `mc` exits 1 when a row's estimate + 3 stderr does not clear its stated
# bound. Pinned per instance at the commit that defined the benchmark. Apart
# from an 6 (see instance_ops) every row misses or clears its bound by more
# than 20 stderr at 10k samples, so the code does not depend on the seed.
# The failing rows (n >= 6 outside the simplex family) are the stated bounds
# being contradicted by the measurement, a known result, not a failure.
MC_EXIT = {
    ("an", 2): 0, ("an", 3): 0, ("an", 4): 0, ("an", 5): 0, ("an", 6): 0,
    ("dn-const-a", 3): 0, ("dn-const-a", 4): 0, ("dn-const-a", 5): 0,
    ("dn-const-a", 6): 1,
    ("dn-second", 3): 0, ("dn-second", 4): 0, ("dn-second", 5): 0,
    ("dn-second", 6): 1,
    ("en", 6): 1,
    ("an", 8): 1, ("en", 8): 1,
}


@dataclass(frozen=True)
class Op:
    """One timed call: a CLI invocation (argv) or the Python-API netcheck."""

    label: str
    command: str
    family: str
    n: int
    argv: tuple[str, ...] = ()
    points: int = 0  # points handed over via --samples, a file or a batch
    expected_code: int = 0
    data: str | None = None  # key into Inputs for file or batch ops


@dataclass
class Inputs:
    files: dict[str, str] = field(default_factory=dict)
    # ground truth the program never sees: full points behind eval files,
    # reduced points behind decode files, extended points for netcheck
    truth: dict[str, np.ndarray] = field(default_factory=dict)
    batches: dict[str, np.ndarray] = field(default_factory=dict)


def _cli(command, family, n, *extra, label=None, **kw) -> Op:
    argv = (command, "--family", family, "--n", str(n)) + tuple(extra)
    label = label or " ".join((command, family, str(n)) + tuple(extra))
    return Op(label=label, command=command, family=family, n=n, argv=argv, **kw)


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def _write(path: str, pts: np.ndarray) -> None:
    np.savetxt(path, pts, fmt="%.17g")


def _eval_file(inputs, workdir, key, basis, rng, count) -> None:
    """Projections of uniform P(B) points; the full points are the truth."""
    Y = rng.random((count, basis.n)) @ basis.G
    path = os.path.join(workdir, key + ".txt")
    _write(path, Y[:, 1:])
    inputs.files[key] = path
    inputs.truth[key] = Y


def _decode_file(inputs, workdir, key, basis, rng, count) -> None:
    """Full points alpha G with alpha = u + k; half the rows get a nonzero
    integer shift k, so they lie outside P(B) and the reduction runs."""
    n = basis.n
    u = EDGE + (1.0 - 2 * EDGE) * rng.random((count, n))
    k = rng.integers(-2, 3, size=(count, n))
    k[: count // 2] = 0
    path = os.path.join(workdir, key + ".txt")
    _write(path, (u + k) @ basis.G)
    inputs.files[key] = path
    inputs.truth[key] = u @ basis.G


def _netcheck_op(family, n, inputs, rng, count, key) -> Op:
    """A netcheck op on points of the 2^M-extended box; the truth is their
    base-cell image."""
    basis = lat.build_basis(lat.FamilyId(family, n))
    u = EDGE + (1.0 - 2 * EDGE) * rng.random((count, n))
    k = np.zeros((count, n), dtype=np.int64)
    k[:, 1:] = rng.integers(0, 2**NETCHECK_M, size=(count, n - 1))
    inputs.batches[key] = (u + k) @ basis.G
    inputs.truth[key] = u @ basis.G
    return Op(label=key, command="netcheck", family=family, n=n, points=count, data=key)


def _point_ops(family, n, commands, inputs, workdir, rng, count, files, tag="") -> list[Op]:
    basis = lat.build_basis(lat.FamilyId(family, n))
    ops = []
    for command in commands:
        for i in range(files):
            key = f"{command}-{family}-{n}{tag}-{i}"
            make = _eval_file if command == "eval" else _decode_file
            make(inputs, workdir, key, basis, rng, count)
            ops.append(_cli(command, family, n, "--in", inputs.files[key],
                            label=key, points=count, data=key))
    return ops


def instance_ops(family, n, commands, inputs, workdir, rng, count, tag="") -> list[Op]:
    """One op per command on one instance, at the CLI's default sizes."""
    ops = []
    for command in commands:
        if command in ("eval", "decode"):
            ops += _point_ops(family, n, (command,), inputs, workdir, rng, count, 1, tag)
        elif command in ("count", "fold"):
            ops.append(_cli(command, family, n, "--seed", _seed(rng),
                            points=DEFAULT_SAMPLES if command == "fold" else 0))
        elif command == "mc":
            # the CLI's default seed: a drawn one could flip the exit code
            # of an 6, whose decode-error row clears its bound by ~5 stderr
            ops.append(_cli(command, family, n, points=DEFAULT_SAMPLES,
                            expected_code=MC_EXIT[(family, n)]))
        elif command == "netcheck":
            ops.append(_netcheck_op(family, n, inputs, rng, count,
                                    f"netcheck-{family}-{n}{tag}"))
        else:
            ops.append(_cli(command, family, n))
    return ops


def build(workload: str, seed: int, workdir: str) -> tuple[list[Op], Inputs]:
    """The ops of one round and their inputs, written under workdir."""
    rng = np.random.default_rng(seed)
    inputs = Inputs()
    ops: list[Op] = []
    if workload == "verify-n8":
        n = VERIFY_N
        for family in VERIFY_FAMILIES:
            code = MC_EXIT[(family, n)]
            ops.append(_cli("count", family, n, "--seed", _seed(rng)))
            for _ in range(VERIFY_FOLDS):
                ops.append(_cli("fold", family, n, "--samples", str(VERIFY_POINTS),
                                "--seed", _seed(rng), points=VERIFY_POINTS))
            for _ in range(VERIFY_MCS):
                ops.append(_cli("mc", family, n, "--samples", str(VERIFY_POINTS),
                                "--seed", _seed(rng), points=VERIFY_POINTS,
                                expected_code=code))
            for i in range(VERIFY_NETCHECKS):
                ops.append(_netcheck_op(family, n, inputs, rng, VERIFY_POINTS,
                                        f"netcheck-{family}-{n}-{i}"))
    elif workload == "decode-n8":
        for family in DECODE_FAMILIES:
            ops += _point_ops(family, DECODE_N, ("eval", "decode"), inputs, workdir,
                              rng, DECODE_POINTS, DECODE_FILES)
    elif workload == "sweep-small":
        for family, n in SWEEP_INSTANCES:
            ops += instance_ops(family, n, SWEEP_COMMANDS, inputs, workdir, rng,
                                 SWEEP_POINTS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, inputs


def warmup_ops(ops: list[Op], inputs: Inputs, workdir: str, seed: int) -> list[Op]:
    """One small op per command the workload uses, run untimed in set-up."""
    commands = tuple(dict.fromkeys(op.command for op in ops))
    family, n = WARMUP_INSTANCE
    rng = np.random.default_rng(seed)
    return instance_ops(family, n, commands, inputs, workdir, rng, WARMUP_POINTS,
                         tag="-warmup")


def netcheck(op: Op, inputs: Inputs) -> np.ndarray:
    """The Python-API op: synthesize the M = 2 network and evaluate it on
    extended-box points. Goes through module attributes so a trace sees it."""
    fid = lat.FamilyId(op.family, op.n)
    basis = lat.build_basis(fid)
    f = bnd.build_boundary(basis)
    schedule = fld.build_schedule(fid, basis)
    network = net.synthesize(basis, schedule, f, M=NETCHECK_M)
    return net.forward(network, inputs.batches[op.data])[:, 0]
