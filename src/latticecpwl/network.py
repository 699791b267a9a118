"""Feed-forward synthesis of the boundary function.

Networks are explicit layer stacks: sawtooth layers that reduce the
extended box into the base cell, compare-exchange units that sort the
fold-first coordinates c (the fold onto the non-negative side of the
schedule hyperplanes, one unit per entry of `folding.comparators`), then
the surviving pieces' affine map and max/min trees that combine them.
Every linear map folds into the next layer. Each hidden layer applies one
activation to all its units, sawtooth2 in the translation layers and relu
in every other, and the closing layer is affine. Evaluation is exact
layer-by-layer arithmetic; nothing is trained. `forward` evaluates with
points as columns, so each layer's output is a (units x points) array, and
applies the layer's activation to it in place.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import boundary as bnd
from . import folding as fold
from . import lattices as lat
from .errors import ConstructionError, DomainError, InternalCheckError

ACT_RELU = "relu"
ACT_IDENTITY = "identity"
ACT_SAWTOOTH2 = "sawtooth2"
ACTIVATIONS = (ACT_RELU, ACT_IDENTITY, ACT_SAWTOOTH2)

TAG_TRANSLATION = "translation"
TAG_REFLECTION = "reflection"
TAG_PIECES = "pieces"
TAG_MAXMIN = "maxmin"


@dataclass(frozen=True)
class Layer:
    """One affine map plus the activation all its units apply (identity
    for an affine layer). W has shape (out, in).

    Construction also records whether the bias is all zero, so that
    `forward` can skip its add (x + 0.0 differs from x only at x = -0.0,
    which compares equal)."""

    W: np.ndarray
    b: np.ndarray
    act: str
    tag: str = ""
    zero_bias: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if W.ndim != 2 or b.shape != (W.shape[0],):
            raise ConstructionError(
                f"layer shapes inconsistent: W {W.shape}, b {b.shape}"
            )
        if self.act not in ACTIVATIONS:
            raise ConstructionError(f"unknown activation {self.act!r}")
        W.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "zero_bias", not b.any())

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


def forward(network: Network, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on the rows of x; empty networks act as the
    identity. Points go as columns, in blocks sized so that the widest
    layer's output holds about 2^18 values (the last block takes the tail,
    `bnd._tail_blocks`). Each layer's W Y is a new (units x points) array,
    so its bias add (skipped when all zero) and its activation run in place
    on it. Returns the (N, out) transposed view of the (out x N) result."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    X = arr.reshape(1, -1) if single else arr
    layers = network.layers
    if not layers:
        return arr
    if X.shape[1] != layers[0].in_dim:
        raise DomainError(
            f"input dimension {X.shape[1]} does not match network input "
            f"dimension {layers[0].in_dim}"
        )
    # a multiple of 8 points, so only the tail block can be ragged: measured
    # with OpenBLAS 0.3.31's AVX-512 kernels, a ragged run of points goes
    # through narrower kernels that can round W Y differently from X W^T
    step = max(8, (1 << 18) // max(layer.out_dim for layer in layers) // 8 * 8)
    out = np.empty((layers[-1].out_dim, X.shape[0]))
    for lo, hi in bnd._tail_blocks(X.shape[0], step):
        Y = X[lo:hi].T
        for layer in layers:
            Y = layer.W @ Y
            if not layer.zero_bias:
                Y += layer.b[:, None]
            if layer.act == ACT_RELU:
                np.maximum(Y, 0.0, out=Y)
            elif layer.act == ACT_SAWTOOTH2:
                Y -= np.floor(Y)
        out[:, lo:hi] = Y
    return out[:, 0] if single else out.T


def _max_min(
    dim: int, pairs: list[tuple[int, int]], keep: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The max/min gadget on a dim-vector x, as the map of its relu layer
    and the linear map that reads the result off that layer's units. Each
    pair (i, k) takes the units relu(x_i + x_k), relu(x_i - x_k) and
    relu(x_k - x_i); every input in no pair is carried by one relu unit.
    Exact for inputs x >= 0, where the sum and carry units pass their input
    unchanged: the result holds max(x_i, x_k) at i, min(x_i, x_k) at k and
    the carried inputs in place, less the ends of each pair that keep does
    not name ("max", "min"). Its outputs are then >= 0 as well."""
    free = sorted(set(range(dim)).difference(*pairs))
    eye = np.eye(dim)
    i, k = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    # per pair the rows e_i + e_k, e_i - e_k, e_k - e_i
    d = eye[i] - eye[k]
    units = np.stack([eye[i] + eye[k], d, -d], axis=1).reshape(-1, dim)
    Wa = np.concatenate([units, eye[free]])
    # max and min are (s +- (relu(d) + relu(-d))) / 2, so the read-out is
    # Wa's transpose with each pair's units scaled by 1/2, 1/2 and -1/2
    Wb = Wa.T * np.concatenate([np.tile([0.5, 0.5, -0.5], len(i)), np.ones(len(free))])
    rows = np.ones(dim, dtype=bool)
    rows[i] = "max" in keep
    rows[k] = "min" in keep
    return Wa, Wb[rows]


def _tree(sizes: list[int], combine: str) -> list:
    """The gadgets of pairwise combine stages over concatenated per-group
    unit blocks until every group is one unit; a unit without a partner is
    carried."""
    gadgets = []
    while max(sizes) > 1:
        starts = np.cumsum(sizes) - sizes
        pairs = [
            (a + 2 * q, a + 2 * q + 1)
            for a, sz in zip(starts.tolist(), sizes)
            for q in range(sz // 2)
        ]
        gadgets.append(_max_min(sum(sizes), pairs, (combine,)))
        sizes = [(sz + 1) // 2 for sz in sizes]
    return gadgets


def base_depth(steps: int, group_sizes: list[int]) -> int:
    """Layer count of the base (unextended) network: one relu layer per
    compare-exchange (steps of them) and per max/min tree stage, and the
    closing affine layer."""
    gmax = max(group_sizes)
    g = len(group_sizes)
    return steps + math.ceil(math.log2(gmax)) + math.ceil(math.log2(g)) + 1


def synthesize(
    basis: lat.OrientedBasis,
    schedule: fold.Schedule,
    f: bnd.BoundaryFunction,
    M: int = 0,
) -> Network:
    """Build the full network: M sawtooth layers, then on the fold-first
    coordinates c = y~ Gt^T of `folding.build_folded_boundary` one
    compare-exchange per pair (j, k) of its `pairs` (c_j <- max, c_k <- min),
    the list `folding.sort_fold` runs, then the surviving-piece affine map
    and per-group max trees feeding a min tree. In y~ each compare-exchange
    is the reflection across the bisector of b_{j+2} and b_{k+2}.

    Past the sawtooth layers each layer is a gadget's relu layer with the
    affine map pending before it folded in: (P, p) starts as the map to c,
    the gadget's relu map W gives the layer W P, W p, its read-out map
    becomes the pending map, the piece map is composed into it, and one
    affine layer emits what is left. For M >= 1 the input is the full
    n-vector, for M = 0 the projected (n-1)-vector.

    Every gadget unit is a relu unit, which the sum and carry units may be
    only where their inputs are >= 0 (`_max_min`). The c they see lies in
    the box [0, hi], hi = gram[:, 1:].sum(0): on P(B) c = alpha gram[:, 1:]
    with alpha in [0, 1]^n, and for M >= 1 alpha is u = frac(alpha) in
    [0, 1]^n at any input; no family's Gram has a negative entry. A
    compare-exchange only permutes c within a block, whose Gram columns are
    permutations of one another and so share one hi, so the box holds
    through the reflection layers. Piece heights can be negative, so each
    is lifted by one shift beta >= 0, the negated least height over the box
    (heights are affine in c, so that minimum is exact), and the closing
    layer subtracts beta. max and min commute with adding a constant, so
    every tree unit is then >= 0."""
    if M < 0:
        raise DomainError(f"M must be >= 0, got {M}")
    # decode's rule: where the spacing of 2^M exceeds the tie band, the
    # translation stage reduces to rounding noise (M >= 29)
    if math.ulp(2.0 ** min(M, 1023)) > bnd.DECODE_TOL:
        raise DomainError(
            f"M = {M} is too large: the spacing of 2^M exceeds the decode "
            f"tolerance {bnd.DECODE_TOL}"
        )
    if f.basis.n != basis.n:
        raise ConstructionError(
            f"boundary function rank {f.basis.n} does not match basis rank {basis.n}"
        )
    n = basis.n
    ff = fold.build_folded_boundary(f, schedule)
    sizes = np.unique(ff.group, return_counts=True)[1].tolist()

    layers: list[Layer] = []
    if M:
        # the lattice coordinates alpha = y Ginv reduced mod 1 by Telgarsky's
        # doubling map: u = frac(alpha / 2^(M-1)), then u <- frac(2u) per
        # further level (exact in floats), so u = frac(alpha) and c = gram[1:] u
        scales = [basis.Ginv.T / 2.0 ** (M - 1)] + [2.0 * np.eye(n)] * (M - 1)
        layers += [Layer(W, np.zeros(n), ACT_SAWTOOTH2, tag=TAG_TRANSLATION) for W in scales]
        P = basis.gram[1:].astype(float)
    else:
        # b_j . e_1 = 0 for j >= 2, so c = y~ G[1:, 1:]^T
        P = basis.G[1:, 1:]
    p = np.zeros(n - 1)

    for pair in ff.pairs:
        Wa, Wb = _max_min(n - 1, [pair], ("max", "min"))
        layers.append(Layer(Wa @ P, Wa @ p, ACT_RELU, tag=TAG_REFLECTION))
        P, p = Wb, np.zeros(len(Wb))
    hi = basis.gram[:, 1:].sum(axis=0)
    beta = max(0.0, -float((ff.bias + np.minimum(ff.W, 0.0).T @ hi).min()))
    P, p = ff.W.T @ P, ff.W.T @ p + ff.bias + beta
    tag = TAG_PIECES
    for Wa, Wb in _tree(sizes, "max") + _tree([len(sizes)], "min"):
        layers.append(Layer(Wa @ P, Wa @ p, ACT_RELU, tag=tag))
        P, p, tag = Wb, np.zeros(len(Wb)), TAG_MAXMIN
    layers.append(Layer(P, p - beta, ACT_IDENTITY, tag=tag))

    expected = M + base_depth(len(ff.pairs), sizes)
    if len(layers) != expected:
        raise InternalCheckError(
            f"depth bookkeeping broke: {len(layers)} layers, expected {expected}"
        )
    meta = {
        "depth": len(layers),
        "width": max(l.out_dim for l in layers),
        "activations": [a for a in ACTIVATIONS if any(l.act == a for l in layers[:-1])],
        "provenance": {
            "translation_blocks": M,
            "comparators": len(ff.pairs),
            "pieces": len(ff.group),
            "groups": len(sizes),
            "family": basis.fid.family,
            "n": n,
        },
    }
    return Network(layers=tuple(layers), meta=meta)


def network_to_json(network: Network) -> str:
    # one act entry per unit, as exported networks have always been read
    rows = [
        {"w": layer.W.tolist(), "b": layer.b.tolist(),
         "act": [layer.act] * layer.out_dim, "tag": layer.tag}
        for layer in network.layers
    ]
    return json.dumps({"layers": rows, "meta": network.meta}, indent=2)
