"""Command-line interface for basis export, piece counts, fold checks,
network synthesis, point evaluation, bit decoding, and Monte Carlo reports.

Every command is deterministic given its flags: outputs are byte-identical
across reruns. Exit code 0 means all checks in the run passed, 1 means a
check or internal invariant failed, 2 means invalid arguments or unreadable
input.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

import numpy as np

from . import analysis as ana
from . import boundary as bnd
from . import folding as fld
from . import lattices as lat
from . import network as net
from .errors import (
    ConstructionError,
    DomainError,
    InternalCheckError,
    ResourceError,
)


def _csv(header: list[str], rows: list[list[object]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _read_points(path: str, expect_dim: int) -> np.ndarray:
    """Points of a file with one whitespace-separated point per non-blank line."""
    # numpy's C reader takes the common file in one pass. A file it refuses, or
    # with no rows, the wrong width or a non-finite value, goes to the line
    # reader below, which takes every token float() takes and names bad lines.
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty input
            pts = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
        if len(pts) and pts.shape[1] == expect_dim and np.isfinite(pts).all():
            return pts
    except (OSError, ValueError):
        pass
    try:
        with open(path) as fh:
            raw = [line.split() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    lines = [k for k, row in enumerate(raw, 1) if row]
    rows = [row for row in raw if row]
    if not rows:
        raise DomainError(f"{path} contains no points")
    for k, row in zip(lines, rows):
        if len(row) != expect_dim:
            raise DomainError(
                f"{path}: line {k} has {len(row)} coordinates, expected {expect_dim}"
            )
    try:
        pts = np.array(rows, dtype=float)
    except ValueError as exc:
        raise DomainError(f"cannot parse {path}: {exc}") from exc
    _reject_rows(path, ~np.isfinite(pts).all(axis=1), "has a non-finite coordinate")
    return pts


def _reject_rows(path: str, bad: np.ndarray, what: str) -> None:
    if bad.any():
        # row k of the points is the k-th non-blank line of the file
        with open(path) as fh:
            lines = [k for k, line in enumerate(fh, 1) if line.split()]
        raise DomainError(f"{path}: line {lines[int(bad.argmax())]} {what}")


def cmd_basis(fid: lat.FamilyId, args: argparse.Namespace) -> tuple[int, str]:
    basis = lat.build_basis(fid)
    if args.format == "json":
        return 0, lat.basis_to_json(basis) + "\n"
    rows: list[list[object]] = [["family", fid.family], ["n", fid.n]]
    for row in np.asarray(basis.gram):
        rows.append(["gram"] + [int(v) for v in row])
    for row in basis.G:
        rows.append(["generator"] + [float(v) for v in row])
    return 0, _csv(["key", "values"], rows)


def cmd_count(fid: lat.FamilyId, args: argparse.Namespace) -> tuple[int, str]:
    row = bnd.piece_count_report(fid)
    code = 0 if row["match"] else 1
    if args.format == "json":
        # for the e-family the report already carries both formula readings
        # and names the adjudicated one
        return code, json.dumps(row, indent=2) + "\n"
    header = ["family", "n", "formula", "oracle", "sampled", "match"]
    return code, _csv(header, [[row[k] for k in header]])


def cmd_fold(fid: lat.FamilyId, args: argparse.Namespace) -> tuple[int, str]:
    if args.samples < 1:
        raise DomainError(f"--samples must be >= 1, got {args.samples}")
    f = bnd.build_boundary(lat.build_basis(fid))
    row = {
        "family": fid.family,
        "n": fid.n,
        "samples": args.samples,
        "max_dev": fld.verify_fold_invariance(f, args.seed, args.samples),
    }
    code = 0 if row["max_dev"] <= fld.FOLD_DEV_LIMIT else 1
    if args.format == "json":
        return code, json.dumps(row, indent=2) + "\n"
    header = ["family", "n", "samples", "max_dev"]
    return code, _csv(header, [[row[k] for k in header]])


def cmd_synth(fid: lat.FamilyId, args: argparse.Namespace) -> tuple[int, str]:
    basis = lat.build_basis(fid)
    schedule = fld.build_schedule(fid, basis)
    f = bnd.build_boundary(basis, fld.chamber_corners(basis, schedule))
    network = net.synthesize(basis, schedule, f, M=args.M)
    return 0, net.network_to_json(network) + "\n"


def cmd_eval(fid: lat.FamilyId, args: argparse.Namespace) -> tuple[int, str]:
    basis = lat.build_basis(fid)
    ff = fld.fold_first(basis)
    pts = _read_points(args.infile, fid.n - 1)
    # closed D(B): projected corners have a zero-length fiber
    lo, hi = lat.fiber_interval_batch(basis, pts)
    _reject_rows(args.infile, ~(hi - lo >= -lat.GEOM_TOL), "lies outside D(B)")
    vals = fld.eval_folded_batch(ff, pts)
    return 0, "\n".join(map(repr, vals.tolist())) + "\n"


def cmd_decode(fid: lat.FamilyId, args: argparse.Namespace) -> tuple[int, str]:
    basis = lat.build_basis(fid)
    ff = fld.fold_first(basis)
    pts = _read_points(args.infile, fid.n)
    # reduce into the fundamental parallelotope so arbitrary points decode to
    # the bit of their coset representative; where the spacing of alpha
    # exceeds the tie band, its fractional part is rounding noise
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = pts @ basis.Ginv
    far = (np.spacing(np.abs(alpha)) > bnd.DECODE_TOL).any(axis=1)
    _reject_rows(args.infile, far, "is too far from the origin to reduce")
    reduced = (alpha - np.floor(alpha)) @ basis.G
    bits = bnd.decode_bit_batch(reduced, fld.eval_folded_batch(ff, reduced[:, 1:]))
    # bits 0, 1 and -1 index "0", "1" and (from the end) "?"
    return 0, "\n".join(np.array(["0", "1", "?"])[bits].tolist()) + "\n"


def cmd_mc(fid: lat.FamilyId, args: argparse.Namespace) -> tuple[int, str]:
    if args.samples < 2:
        raise DomainError(f"--samples must be >= 2 for a standard error, got {args.samples}")
    bounds = {
        "decode_error": ana.decoding_error_bound(fid.n),
        "l1_gap": 2**fid.n / math.factorial(fid.n),
    }
    estimates = ana.mc_estimates(lat.build_basis(fid), seed=args.seed, samples=args.samples)
    rows = [dict({"kind": k}, **ana.mc_report_row(est, bounds[k])) for k, est in estimates.items()]
    code = 0 if all(r["pass"] for r in rows) else 1
    if args.format == "json":
        return code, json.dumps(rows, indent=2) + "\n"
    header = ["kind", "seed", "samples", "estimate", "stderr", "bound", "pass"]
    return code, _csv(header, [[r[k] for k in header] for r in rows])


def cmd_bounds(fid: lat.FamilyId, args: argparse.Namespace) -> tuple[int, str]:
    given = {"--M": args.M, "--L": args.L, "--w": args.w}
    missing = [flag for flag, value in given.items() if value is None]
    if 0 < len(missing) < len(given):
        raise DomainError(
            f"separation needs --M, --L and --w together; missing {' and '.join(missing)}"
        )
    basis = lat.build_basis(fid)
    report = ana.volume_report(basis)
    data: dict[str, object] = {
        "decoding_error_bound": ana.decoding_error_bound(fid.n),
        "volume_exact": report["exact"],
        "volume_lower": report["lower"],
        "volume_upper": report["upper"],
    }
    if not missing:
        sep = ana.separation_report(fid.n, args.M, args.L, args.w)
        for key in [
            "copies_log2",
            "piece_budget_log2",
            "required_M",
            "margin",
            "condition_satisfied",
        ]:
            data[f"separation_{key}"] = sep[key]
    code = 0
    if "separation_condition_satisfied" in data and not data["separation_condition_satisfied"]:
        code = 1
    if args.format == "json":
        return code, json.dumps(data, indent=2, sort_keys=True) + "\n"
    rows = [[k, data[k]] for k in sorted(data)]
    return code, _csv(["key", "value"], rows)


COMMANDS = {
    "basis": cmd_basis,
    "count": cmd_count,
    "fold": cmd_fold,
    "synth": cmd_synth,
    "eval": cmd_eval,
    "decode": cmd_decode,
    "mc": cmd_mc,
    "bounds": cmd_bounds,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticecpwl",
        description="Lattice decision boundaries: counts, folds, networks, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(
        name: str,
        help_text: str,
        seed: bool = False,
        samples: bool = False,
        fmt: bool = False,
        infile: bool = False,
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--family", default="an", choices=sorted(lat.FAMILIES))
        p.add_argument("--n", type=int, required=True)
        if seed:
            p.add_argument("--seed", type=int, default=42)
        if samples:
            p.add_argument("--samples", type=int, default=10_000)
        if fmt:
            p.add_argument("--format", default="csv", choices=["csv", "json"])
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        if infile:
            p.add_argument("--in", dest="infile", required=True,
                           help="input file, one space-separated point per line")
        return p

    add("basis", "print the Gram matrix and oriented generator", fmt=True)
    count = add("count", "piece counts: closed form vs enumeration vs certified witnesses", fmt=True)
    # existing benchmark argv pass --seed to count, so it still parses
    count.add_argument("--seed", type=int, default=42, help="ignored: count draws no samples")
    add("fold", "max deviation of the boundary under the folding maps",
        seed=True, samples=True, fmt=True)
    synth = add("synth", "emit the synthesized network as JSON")
    synth.add_argument("--M", type=int, default=0, help="translation levels")
    add("eval", "evaluate the boundary height at points of D(B)", infile=True)
    add("decode", "decode the first corner bit of each point", infile=True)
    add("mc", "Monte Carlo decode-error and L1-gap rows with bounds",
        seed=True, samples=True, fmt=True)
    bounds = add("bounds", "volume sandwich, decoding bound, separation arithmetic", fmt=True)
    bounds.add_argument("--M", type=int, default=None, help="translation levels for the separation row")
    bounds.add_argument("--L", type=int, default=None, help="competitor depth")
    bounds.add_argument("--w", type=int, default=None, help="competitor width")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise DomainError(f"--seed must be >= 0, got {args.seed}")
        fid = lat.FamilyId(args.family, args.n)
        code, text = COMMANDS[args.command](fid, args)
    except (DomainError, ResourceError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    if args.output is not None:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
