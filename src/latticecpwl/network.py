"""Feed-forward synthesis of the boundary function.

Networks are explicit layer stacks: translation blocks that reduce the
extended box into the base cell, reflection blocks that fold onto the
non-negative side of the schedule hyperplanes, a parallel affine stage for
the surviving pieces, and max/min trees that combine them. Evaluation is
exact layer-by-layer arithmetic; nothing is trained.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import boundary as bnd
from . import folding as fold
from . import lattices as lat
from .errors import ConstructionError, DomainError, InternalCheckError

ACT_RELU = "relu"
ACT_NEG_RELU = "neg_relu"
ACT_IDENTITY = "identity"
ACT_SAWTOOTH2 = "sawtooth2"
ACTIVATIONS = (ACT_RELU, ACT_NEG_RELU, ACT_IDENTITY, ACT_SAWTOOTH2)

TAG_TRANSLATION = "translation"
TAG_REFLECTION = "reflection"
TAG_PIECES = "pieces"
TAG_MAXMIN = "maxmin"


@dataclass(frozen=True)
class Layer:
    """One affine map plus a per-unit activation. W has shape (out, in)."""

    W: np.ndarray
    b: np.ndarray
    acts: tuple[str, ...]
    tag: str = ""

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if W.ndim != 2 or b.shape != (W.shape[0],):
            raise ConstructionError(
                f"layer shapes inconsistent: W {W.shape}, b {b.shape}"
            )
        if len(self.acts) != W.shape[0]:
            raise ConstructionError(
                f"{len(self.acts)} activations for {W.shape[0]} units"
            )
        for a in self.acts:
            if a not in ACTIVATIONS:
                raise ConstructionError(f"unknown activation {a!r}")
        W.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class Network:
    layers: tuple[Layer, ...]
    meta: dict

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ConstructionError(
                    f"layer chain breaks: {prev.out_dim} -> {nxt.in_dim}"
                )


def _apply_acts(acts: tuple[str, ...], Z: np.ndarray) -> np.ndarray:
    out = Z.copy()
    kinds = np.array(acts)
    for kind in (ACT_RELU, ACT_NEG_RELU, ACT_SAWTOOTH2):
        idx = np.flatnonzero(kinds == kind)
        if idx.size == 0:
            continue
        if kind == ACT_RELU:
            out[:, idx] = np.maximum(Z[:, idx], 0.0)
        elif kind == ACT_NEG_RELU:
            out[:, idx] = np.maximum(-Z[:, idx], 0.0)
        else:
            out[:, idx] = Z[:, idx] - np.floor(Z[:, idx])
    return out


def forward(network: Network, x: np.ndarray) -> np.ndarray:
    """Evaluate the network; empty networks act as the identity."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    X = arr.reshape(1, -1) if single else arr
    if network.layers and X.shape[1] != network.layers[0].in_dim:
        raise DomainError(
            f"input dimension {X.shape[1]} does not match network input "
            f"dimension {network.layers[0].in_dim}"
        )
    for layer in network.layers:
        X = _apply_acts(layer.acts, X @ layer.W.T + layer.b)
    return X[0] if single else X


def reflection_block(v: np.ndarray) -> Network:
    """Two-layer fragment reflecting points on the negative side of the
    hyperplane {x . v = 0} and passing the rest through unchanged."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ConstructionError("reflection hyperplane normal is zero")
    d = v.shape[0]
    vhat = v / norm
    W1 = np.zeros((d + 2, d))
    W1[0] = vhat
    W1[1] = vhat
    W1[2:] = np.eye(d)
    b1 = np.zeros(d + 2)
    # the hyperplane units' offset -p at p = 0, which network_to_json prints as -0.0
    b1[:2] = -0.0
    acts1 = (ACT_RELU, ACT_NEG_RELU) + (ACT_IDENTITY,) * d
    W2 = np.zeros((d, d + 2))
    W2[:, 1] = 2.0 * vhat
    W2[:, 2:] = np.eye(d)
    layers = (
        Layer(W1, b1, acts1, tag=TAG_REFLECTION),
        Layer(W2, np.zeros(d), (ACT_IDENTITY,) * d, tag=TAG_REFLECTION),
    )
    return Network(layers=layers, meta={"kind": "reflection"})


def translation_block(basis: lat.OrientedBasis, level: int, M: int) -> Network:
    """Three-layer fragment subtracting the level-scale lattice shift: map to
    scaled cell coordinates, drop the integer part with the period-2 sawtooth,
    and map back."""
    if not 1 <= level <= M:
        raise DomainError(f"level must satisfy 1 <= level <= M, got {level}, M={M}")
    n = basis.n
    s = float(2 ** (M - level))
    eye = np.eye(n)
    layers = (
        Layer(basis.Ginv.T / s, np.zeros(n), (ACT_IDENTITY,) * n, tag=TAG_TRANSLATION),
        Layer(eye, np.zeros(n), (ACT_SAWTOOTH2,) * n, tag=TAG_TRANSLATION),
        Layer(s * basis.G.T, np.zeros(n), (ACT_IDENTITY,) * n, tag=TAG_TRANSLATION),
    )
    return Network(layers=layers, meta={"kind": "translation", "level": level, "M": M})


def _tree_stage(sizes: list[int], combine: str) -> tuple[Layer, Layer, list[int]]:
    """One pairwise-combine stage over concatenated per-group unit blocks.

    Returns the two layers and the new per-group sizes. Units without a
    partner are carried through with identity weights.
    """
    total_in = sum(sizes)
    rows_a = []  # (weights over inputs, act)
    combine_sign = 1.0 if combine == "max" else -1.0
    plan_b = []  # per output unit of layer B: list of (a_index, coef)
    offset = 0
    new_sizes = []
    for sz in sizes:
        pairs, leftover = divmod(sz, 2)
        for q in range(pairs):
            i, j = offset + 2 * q, offset + 2 * q + 1
            s_row = np.zeros(total_in)
            s_row[i] = 1.0
            s_row[j] = 1.0
            d_row = np.zeros(total_in)
            d_row[i] = 1.0
            d_row[j] = -1.0
            base = len(rows_a)
            rows_a.append((s_row, ACT_IDENTITY))
            rows_a.append((d_row, ACT_RELU))
            rows_a.append((d_row, ACT_NEG_RELU))
            plan_b.append(
                [(base, 0.5), (base + 1, 0.5 * combine_sign), (base + 2, 0.5 * combine_sign)]
            )
        if leftover:
            carry_row = np.zeros(total_in)
            carry_row[offset + 2 * pairs] = 1.0
            base = len(rows_a)
            rows_a.append((carry_row, ACT_IDENTITY))
            plan_b.append([(base, 1.0)])
        new_sizes.append(pairs + leftover)
        offset += sz
    Wa = np.stack([r for r, _ in rows_a])
    acts_a = tuple(a for _, a in rows_a)
    Wb = np.zeros((len(plan_b), len(rows_a)))
    for out_i, terms in enumerate(plan_b):
        for src, coef in terms:
            Wb[out_i, src] = coef
    la = Layer(Wa, np.zeros(Wa.shape[0]), acts_a, tag=TAG_MAXMIN)
    lb = Layer(Wb, np.zeros(Wb.shape[0]), (ACT_IDENTITY,) * Wb.shape[0], tag=TAG_MAXMIN)
    return la, lb, new_sizes


def _tree_layers(sizes: list[int], combine: str) -> list[Layer]:
    layers = []
    cur = list(sizes)
    while max(cur) > 1:
        la, lb, cur = _tree_stage(cur, combine)
        layers.extend([la, lb])
    return layers


def base_depth(schedule: fold.FoldingSchedule, group_sizes: list[int]) -> int:
    """Layer count of the base (unextended) network: two per reflection, one
    piece stage, and two per max/min tree stage."""
    s = len(schedule)
    gmax = max(group_sizes)
    g = len(group_sizes)
    return 2 * s + 1 + 2 * math.ceil(math.log2(gmax)) + 2 * math.ceil(math.log2(g))


def synthesize(
    basis: lat.OrientedBasis,
    schedule: fold.FoldingSchedule,
    f: bnd.BoundaryFunction,
    M: int = 0,
) -> Network:
    """Build the full network: M translation blocks, the reflection blocks in
    schedule order, the surviving-piece affine stage, and per-group max trees
    feeding a min tree. For M >= 1 the input is the full n-vector and the
    first folded-space layer absorbs the projection that drops the first
    coordinate; for M = 0 the input is the projected (n-1)-vector."""
    if M < 0:
        raise DomainError(f"M must be >= 0, got {M}")
    if f.basis.n != basis.n:
        raise ConstructionError(
            f"boundary function rank {f.basis.n} does not match basis rank {basis.n}"
        )
    n = basis.n
    d = n - 1
    memberships = fold.folded_structure(f, schedule)
    sizes = np.unique(memberships[:, 0], return_counts=True)[1].tolist()

    layers: list[Layer] = []
    for level in range(1, M + 1):
        layers.extend(translation_block(basis, level, M).layers)

    base: list[Layer] = []
    for step in schedule.steps:
        base.extend(reflection_block(step.v).layers)
    plane_rows = memberships[:, 1]
    base.append(
        Layer(
            f.A[plane_rows],
            f.c[plane_rows],
            (ACT_IDENTITY,) * len(memberships),
            tag=TAG_PIECES,
        )
    )
    base.extend(_tree_layers(sizes, "max"))
    base.extend(_tree_layers([len(sizes)], "min"))

    if M >= 1:
        first = base[0]
        W = np.hstack([np.zeros((first.out_dim, 1)), first.W])
        base[0] = Layer(W, first.b, first.acts, tag=first.tag)

    expected = 3 * M + base_depth(schedule, sizes)
    if len(layers) + len(base) != expected:
        raise InternalCheckError(
            f"depth bookkeeping broke: {len(layers) + len(base)} layers, "
            f"expected {expected}"
        )
    all_layers = tuple(layers) + tuple(base)
    width = max(l.out_dim for l in all_layers)
    meta = {
        "depth": len(all_layers),
        "width": width,
        "activations": [a for a in ACTIVATIONS if any(a in l.acts for l in all_layers)],
        "provenance": {
            "translation_blocks": M,
            "reflection_blocks": len(schedule),
            "pieces": len(memberships),
            "groups": len(sizes),
            "family": basis.fid.family if basis.fid else "custom",
            "n": n,
        },
    }
    return Network(layers=all_layers, meta=meta)


def network_to_json(network: Network) -> str:
    rows = []
    for layer in network.layers:
        rows.append(
            {
                "w": [[float(x) for x in row] for row in layer.W],
                "b": [float(x) for x in layer.b],
                "act": list(layer.acts),
                "tag": layer.tag,
            }
        )
    return json.dumps({"layers": rows, "meta": network.meta}, indent=2)
