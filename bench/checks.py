"""Output checks, one per op, run after the timed loop.

Each check reaches the expected answer by a route other than the one the
command took (pinned integers, brute nearest-corner search, the synthesized
network, or the seeded inputs' known base-cell images) and compares numbers
with a tolerance, never float bytes.
"""
from __future__ import annotations

import json
import math

import numpy as np

from latticecpwl import boundary as bnd
from latticecpwl import folding as fld
from latticecpwl import lattices as lat
from latticecpwl import network as net

# oracle == closed form, pinned from the acceptance table (and the E_n rows
# adjudicated there)
PIECE_COUNTS = {
    "an": {2: 3, 3: 8, 4: 20, 5: 48, 6: 112, 7: 256, 8: 576},
    "dn-const-a": {3: 5, 4: 18, 5: 56, 6: 160, 7: 432, 8: 1120},
    "dn-second": {3: 6, 4: 20, 5: 57, 6: 151, 7: 383, 8: 943},
    "en": {6: 156, 7: 445, 8: 1205},
}
FOLD_DEV_LIMIT = 1e-9  # criterion 3
NET_TOL = 1e-9  # criterion 5: |network - f|
TIE_BAND = 1e-7  # the decoder's band; eval signs inside it are not judged
# a "?" from decode is accepted only this close to the surface
TIE_SLACK = 1e-6
SYNTH_POINTS = 500


class CheckError(Exception):
    """An op's output is wrong or unreadable."""


def expected_gram(family: str, n: int) -> np.ndarray:
    """The family's Gram pattern: 2 on the diagonal, 1 elsewhere, then the
    family's adjustment of the first row."""
    g = np.ones((n, n), dtype=np.int64) + np.eye(n, dtype=np.int64)
    if family == "dn-const-a":
        g[0, :] = g[:, 0] = 2
        g[0, 0] = 4
    elif family == "dn-second":
        g[0, 1] = g[1, 0] = 0
    elif family == "en":
        g[0, 1] = g[1, 0] = g[0, 2] = g[2, 0] = 0
    return g


def decoding_bound(n: int) -> float:
    """1 / (sqrt(2 pi n) 2^(n log2(n/e) - n)), written out independently."""
    return 1.0 / (math.sqrt(2 * math.pi * n) * 2.0 ** (n * math.log2(n / math.e) - n))


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _forward_json(doc: dict, X: np.ndarray) -> np.ndarray:
    """Evaluate an exported network layer by layer, without the package."""
    for layer in doc["layers"]:
        b = np.asarray(layer["b"], dtype=float)
        W = np.asarray(layer["w"], dtype=float).reshape(b.shape[0], -1)
        Z = X @ W.T + b
        acts = np.asarray(layer["act"])
        out = Z.copy()
        out[:, acts == "relu"] = np.maximum(Z[:, acts == "relu"], 0.0)
        out[:, acts == "neg_relu"] = np.maximum(-Z[:, acts == "neg_relu"], 0.0)
        saw = acts == "sawtooth2"
        out[:, saw] = Z[:, saw] - np.floor(Z[:, saw])
        X = out
    return X


class Checker:
    """Checks op outputs against the workload's seeded inputs; caches the
    per-instance objects the references need."""

    def __init__(self, inputs) -> None:
        self.inputs = inputs
        self._cache: dict[tuple, object] = {}

    def _get(self, kind: str, family: str, n: int):
        key = (kind, family, n)
        if key not in self._cache:
            fid = lat.FamilyId(family, n)
            if kind == "basis":
                value = lat.build_basis(fid)
            elif kind == "f":
                value = bnd.build_boundary(self._get("basis", family, n))
            elif kind == "corner_z1":
                value = lat.enumerate_corners(self._get("basis", family, n)).z[:, 0]
            else:  # the M = 0 network, an evaluator independent of the dense one
                basis = self._get("basis", family, n)
                value = net.synthesize(basis, fld.build_schedule(fid, basis),
                                       self._get("f", family, n), M=0)
            self._cache[key] = value
        return self._cache[key]

    def _nearest_bits(self, op, Y: np.ndarray) -> np.ndarray:
        basis = self._get("basis", op.family, op.n)
        return self._get("corner_z1", op.family, op.n)[lat.cvp_corners_batch(basis, Y)]

    def _network_f(self, op, Yt: np.ndarray) -> np.ndarray:
        return net.forward(self._get("net0", op.family, op.n), Yt)[:, 0]

    def check(self, op, out) -> str | None:
        """None when the output is right, else the reason it is not."""
        try:
            getattr(self, "_check_" + op.command)(op, out)
        except CheckError as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        return None

    # -- one method per command ---------------------------------------------

    def _check_basis(self, op, out: str) -> None:
        _, rows = _csv(out)
        _require(rows[0] == ["family", op.family] and rows[1] == ["n", str(op.n)],
                 "family/n rows wrong")
        gram = np.array([[int(v) for v in r[1:]] for r in rows if r[0] == "gram"])
        G = np.array([[float(v) for v in r[1:]] for r in rows if r[0] == "generator"])
        _require(np.array_equal(gram, expected_gram(op.family, op.n)), "gram wrong")
        _require(np.allclose(G @ G.T, gram, rtol=0, atol=1e-9), "G G^T != gram")
        _require(np.allclose(np.tril(G, -1), 0, rtol=0, atol=1e-12)
                 and (np.diag(G) > 0).all(), "generator not oriented")

    def _check_count(self, op, out: str) -> None:
        header, rows = _csv(out)
        row = dict(zip(header, rows[0]))
        want = PIECE_COUNTS[op.family][op.n]
        _require(int(row["formula"]) == want and int(row["oracle"]) == want,
                 f"formula {row['formula']} / oracle {row['oracle']}, pinned {want}")
        _require(0 < int(row["sampled"]) <= want, f"sampled {row['sampled']}")
        _require(row["match"] == "True", "match is not True")

    def _check_fold(self, op, out: str) -> None:
        header, rows = _csv(out)
        row = dict(zip(header, rows[0]))
        _require(int(row["samples"]) == op.points, "samples echo wrong")
        dev = float(row["max_dev"])
        _require(0.0 <= dev <= FOLD_DEV_LIMIT, f"max_dev {dev!r} > {FOLD_DEV_LIMIT}")

    def _check_synth(self, op, out: str) -> None:
        doc = json.loads(out)
        _require(doc["meta"]["depth"] == len(doc["layers"]), "depth != layer count")
        prov = doc["meta"]["provenance"]
        _require((prov["family"], prov["n"]) == (op.family, op.n), "provenance wrong")
        basis = self._get("basis", op.family, op.n)
        rng = np.random.default_rng(0)
        Yt = (rng.random((SYNTH_POINTS, op.n)) @ basis.G)[:, 1:]
        ref, _ = bnd.eval_boundary_batch(self._get("f", op.family, op.n), Yt)
        got = _forward_json(doc, Yt)[:, 0]
        dev = float(np.abs(got - ref).max())
        _require(dev <= NET_TOL, f"|network - f| = {dev:.3e}")

    def _check_eval(self, op, out: str) -> None:
        Y = self.inputs.truth[op.data]
        vals = np.array([float(v) for v in out.split()])
        _require(vals.shape == (Y.shape[0],), f"{vals.size} values for {Y.shape[0]} points")
        _require(np.isfinite(vals).all(), "non-finite value")
        bits = self._nearest_bits(op, Y)
        above = Y[:, 0] > vals + TIE_BAND
        below = Y[:, 0] < vals - TIE_BAND
        wrong = int((above & (bits == 0)).sum() + (below & (bits == 1)).sum())
        _require(wrong == 0, f"{wrong} signs disagree with the nearest corner")
        dev = float(np.abs(vals - self._network_f(op, Y[:, 1:])).max())
        _require(dev <= NET_TOL, f"|value - network| = {dev:.3e}")

    def _check_decode(self, op, out: str) -> None:
        Y = self.inputs.truth[op.data]
        symbols = np.array(out.split())
        _require(symbols.shape == (Y.shape[0],), f"{symbols.size} bits for {Y.shape[0]} points")
        _require(np.isin(symbols, ["0", "1", "?"]).all(), "symbol outside 0/1/?")
        bits = self._nearest_bits(op, Y)
        sure = symbols != "?"
        wrong = int((symbols[sure].astype(int) != bits[sure]).sum())
        _require(wrong == 0, f"{wrong} bits disagree with the nearest corner")
        if not sure.all():
            gap = np.abs(Y[~sure, 0] - self._network_f(op, Y[~sure, 1:]))
            _require(gap.max() <= TIE_SLACK, f"'?' at {gap.max():.3e} from the surface")

    def _check_mc(self, op, out: str) -> None:
        header, rows = _csv(out)
        rows = [dict(zip(header, r)) for r in rows]
        kinds = [r["kind"] for r in rows]
        _require(kinds == ["decode_error", "l1_gap"], f"rows {kinds}")
        bounds = {"decode_error": decoding_bound(op.n),
                  "l1_gap": 2.0**op.n / math.factorial(op.n)}
        for r in rows:
            est, err, bound = float(r["estimate"]), float(r["stderr"]), float(r["bound"])
            _require(int(r["samples"]) == op.points, "samples echo wrong")
            _require(_close(bound, bounds[r["kind"]]), f"{r['kind']} bound {bound!r}")
            _require(0.0 <= est <= 1.0 and err >= 0.0, f"{r['kind']} estimate {est!r}")
            _require(r["pass"] == str(est + 3.0 * err < bound), f"{r['kind']} pass flag")

    def _check_bounds(self, op, out: str) -> None:
        _, rows = _csv(out)
        data = {k: float(v) for k, v in rows}
        _require(_close(data["decoding_error_bound"], decoding_bound(op.n)),
                 "decoding_error_bound wrong")
        _require(0.0 < data["volume_lower"] < data["volume_upper"], "volume bounds")
        _require(data["volume_exact"] > 0.0, "volume_exact <= 0")

    def _check_netcheck(self, op, out: np.ndarray) -> None:
        Y = self.inputs.truth[op.data]
        ref, _ = bnd.eval_boundary_batch(self._get("f", op.family, op.n), Y[:, 1:])
        _require(out.shape == ref.shape, "output shape")
        dev = float(np.abs(out - ref).max())
        _require(dev <= NET_TOL, f"criterion-5 bound: |network - f| = {dev:.3e}")
