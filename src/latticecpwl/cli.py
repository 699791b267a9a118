"""Command-line interface for basis export, piece counts, fold checks,
network synthesis, point evaluation, bit decoding, and Monte Carlo reports.

Every command is deterministic given its flags: outputs are byte-identical
across reruns with the same seed. Exit code 0 means all checks in the run
passed, 1 means a check or internal invariant failed, 2 means invalid
arguments or unreadable input.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

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

FOLD_DEV_LIMIT = 1e-9


@dataclass(frozen=True)
class RunConfig:
    family: str
    n: int
    seed: int
    samples: int
    M: int
    L: int | None
    w: int | None
    fmt: str
    output: str | None
    infile: str | None

    @staticmethod
    def from_args(args: argparse.Namespace) -> "RunConfig":
        cfg = RunConfig(
            family=args.family,
            n=args.n,
            seed=args.seed,
            samples=args.samples,
            M=getattr(args, "M", 0),
            L=getattr(args, "L", None),
            w=getattr(args, "w", None),
            fmt=args.format,
            output=args.output,
            infile=getattr(args, "infile", None),
        )
        lat.FamilyId(cfg.family, cfg.n)  # validate the range before dispatch
        return cfg

    @property
    def fid(self) -> lat.FamilyId:
        return lat.FamilyId(self.family, self.n)


def _csv(header: list[str], rows: list[list[object]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _read_points(path: str, expect_dim: int) -> np.ndarray:
    try:
        with open(path) as fh:
            raw = [line.split() for line in fh]
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    try:
        pts = np.array([[float(tok) for tok in row] for row in raw if row], dtype=float)
    except ValueError as exc:
        raise DomainError(f"cannot parse {path}: {exc}") from exc
    if pts.size == 0:
        raise DomainError(f"{path} contains no points")
    if pts.shape[1] != expect_dim:
        raise DomainError(
            f"{path}: expected {expect_dim} coordinates per line, got {pts.shape[1]}"
        )
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        line = [k for k, row in enumerate(raw, 1) if row][bad[0]]
        raise DomainError(f"{path}: line {line} has a non-finite coordinate")
    return pts


def cmd_basis(cfg: RunConfig) -> tuple[int, str]:
    basis = lat.build_basis(cfg.fid)
    if cfg.fmt == "json":
        return 0, lat.basis_to_json(basis) + "\n"
    rows: list[list[object]] = [["family", cfg.family], ["n", cfg.n]]
    for row in np.asarray(basis.gram):
        rows.append(["gram"] + [int(v) for v in row])
    for row in basis.G:
        rows.append(["generator"] + [float(v) for v in row])
    return 0, _csv(["key", "values"], rows)


def cmd_count(cfg: RunConfig) -> tuple[int, str]:
    row = bnd.piece_count_report(cfg.fid, seed=cfg.seed)
    code = 0 if row["match"] else 1
    if cfg.fmt == "json":
        # for the e-family the report already carries both formula readings
        # and names the adjudicated one
        return code, json.dumps(row, indent=2) + "\n"
    header = ["family", "n", "formula", "oracle", "sampled", "match"]
    return code, _csv(header, [[row[k] for k in header]])


def cmd_fold(cfg: RunConfig) -> tuple[int, str]:
    basis = lat.build_basis(cfg.fid)
    f = bnd.build_boundary(basis)
    schedule = fld.build_schedule(cfg.fid, basis)
    row = fld.fold_invariance_report(
        basis, f, schedule, seed=cfg.seed, count=cfg.samples
    )
    code = 0 if row["max_dev"] <= FOLD_DEV_LIMIT else 1
    if cfg.fmt == "json":
        return code, json.dumps(row, indent=2) + "\n"
    header = ["family", "n", "samples", "max_dev"]
    return code, _csv(header, [[row[k] for k in header]])


def cmd_synth(cfg: RunConfig) -> tuple[int, str]:
    basis = lat.build_basis(cfg.fid)
    f = bnd.build_boundary(basis)
    schedule = fld.build_schedule(cfg.fid, basis)
    network = net.synthesize(basis, schedule, f, M=cfg.M)
    return 0, net.network_to_json(network) + "\n"


def cmd_eval(cfg: RunConfig) -> tuple[int, str]:
    if cfg.infile is None:
        raise DomainError("eval requires --in with one point per line")
    basis = lat.build_basis(cfg.fid)
    f = bnd.build_boundary(basis)
    pts = _read_points(cfg.infile, cfg.n - 1)
    vals, _ = bnd.eval_boundary_batch(f, pts)
    return 0, "\n".join(repr(float(v)) for v in vals) + "\n"


def cmd_decode(cfg: RunConfig) -> tuple[int, str]:
    if cfg.infile is None:
        raise DomainError("decode requires --in with one point per line")
    basis = lat.build_basis(cfg.fid)
    f = bnd.build_boundary(basis)
    pts = _read_points(cfg.infile, cfg.n)
    # reduce into the fundamental parallelotope so arbitrary points decode to
    # the bit of their coset representative
    alpha = pts @ basis.Ginv
    reduced = (alpha - np.floor(alpha)) @ basis.G
    bits = bnd.decode_bit_batch(f, reduced)
    symbols = {1: "1", 0: "0", -1: "?"}
    return 0, "\n".join(symbols[int(b)] for b in bits) + "\n"


def cmd_mc(cfg: RunConfig) -> tuple[int, str]:
    basis = lat.build_basis(cfg.fid)
    rows = []
    dec = ana.hyperplane_decoding_error_mc(basis, seed=cfg.seed, samples=cfg.samples)
    rows.append(dict({"kind": "decode_error"}, **ana.mc_report_row(dec, ana.decoding_error_bound(cfg.n))))
    if cfg.n <= ana.BRUTE_DECODER_MAX_N:
        f = bnd.build_boundary(basis)
        l1 = ana.l1_gap_mc(basis, f, seed=cfg.seed, samples=cfg.samples)
        bound = 2**cfg.n / math.factorial(cfg.n)
        rows.append(dict({"kind": "l1_gap"}, **ana.mc_report_row(l1, bound)))
    code = 0 if all(r["pass"] for r in rows) else 1
    if cfg.fmt == "json":
        return code, json.dumps(rows, indent=2) + "\n"
    header = ["kind", "seed", "samples", "estimate", "stderr", "bound", "pass"]
    return code, _csv(header, [[r[k] for k in header] for r in rows])


def cmd_bounds(cfg: RunConfig) -> tuple[int, str]:
    basis = lat.build_basis(cfg.fid)
    report = ana.volume_report(basis)
    data: dict[str, object] = {
        "decoding_error_bound": ana.decoding_error_bound(cfg.n),
        "volume_exact": report["exact"],
        "volume_lower": report["lower"],
        "volume_upper": report["upper"],
    }
    if cfg.L is not None and cfg.w is not None:
        sep = ana.separation_report(cfg.n, cfg.M, cfg.L, cfg.w)
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
    if cfg.fmt == "json":
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticecpwl",
        description="Lattice decision boundaries: counts, folds, networks, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, needs_infile: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--family", default="an", choices=sorted(lat.FAMILIES))
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--samples", type=int, default=10_000)
        p.add_argument("--format", default="csv", choices=["csv", "json"])
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        if needs_infile:
            p.add_argument("--in", dest="infile", required=True,
                           help="input file, one space-separated point per line")
        return p

    add("basis", "print the Gram matrix and oriented generator")
    add("count", "piece counts: closed form vs enumeration vs sampling")
    add("fold", "max deviation of the boundary under the folding maps")
    synth = add("synth", "emit the synthesized network as JSON")
    synth.add_argument("--M", type=int, default=0, help="translation levels")
    add("eval", "evaluate the boundary height at projected points", needs_infile=True)
    add("decode", "decode the first corner bit of each point", needs_infile=True)
    add("mc", "Monte Carlo decode-error and L1-gap rows with bounds")
    bounds = add("bounds", "volume sandwich, decoding bound, separation arithmetic")
    bounds.add_argument("--M", type=int, default=0, help="translation levels for the separation row")
    bounds.add_argument("--L", type=int, default=None, help="competitor depth")
    bounds.add_argument("--w", type=int, default=None, help="competitor width")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
        code, text = COMMANDS[args.command](cfg)
    except (DomainError, ResourceError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    if cfg.output is not None:
        try:
            with open(cfg.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
