"""Feed-forward synthesis of the boundary function.

Networks are explicit layer stacks: translation blocks that reduce the
extended box into the base cell, compare-exchange units that sort the
fold-first coordinates c (the fold onto the non-negative side of the
schedule hyperplanes, one unit per entry of `folding.comparators`), a
parallel affine stage for the surviving pieces, and max/min trees that
combine them. Evaluation is exact layer-by-layer arithmetic; nothing is
trained. Each layer finds the units of each activation once, when it is
built. `forward` evaluates with points as columns, so each layer's output
is a (units x points) array, and applies the activations in place on its
rows.
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
ACT_NEG_RELU = "neg_relu"
ACT_IDENTITY = "identity"
ACT_SAWTOOTH2 = "sawtooth2"
ACTIVATIONS = (ACT_RELU, ACT_NEG_RELU, ACT_IDENTITY, ACT_SAWTOOTH2)

TAG_TRANSLATION = "translation"
TAG_REFLECTION = "reflection"
TAG_PIECES = "pieces"
TAG_MAXMIN = "maxmin"


def _units(acts: tuple[str, ...], kind: str) -> np.ndarray | None:
    """The indices of the units of acts that apply kind, or None if none does."""
    idx = [i for i, a in enumerate(acts) if a == kind]
    return np.array(idx) if idx else None


@dataclass(frozen=True)
class Layer:
    """One affine map plus a per-unit activation. W has shape (out, in).

    Construction also records the plan `forward` follows: the relu, neg_relu
    and sawtooth2 units, which are rows of forward's (units x points)
    output, and whether the bias is all zero, so that its add can be skipped
    (x + 0.0 differs from x only at x = -0.0, which compares equal).
    Sub-networks rebuilt from the same layers keep the plan."""

    W: np.ndarray
    b: np.ndarray
    acts: tuple[str, ...]
    tag: str = ""
    relu: np.ndarray | None = field(init=False, repr=False, compare=False)
    neg_relu: np.ndarray | None = field(init=False, repr=False, compare=False)
    sawtooth: np.ndarray | None = field(init=False, repr=False, compare=False)
    zero_bias: bool = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "relu", _units(self.acts, ACT_RELU))
        object.__setattr__(self, "neg_relu", _units(self.acts, ACT_NEG_RELU))
        object.__setattr__(self, "sawtooth", _units(self.acts, ACT_SAWTOOTH2))
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
    so its bias add (skipped when all zero) and its activations, on the
    rows the layer recorded, run in place on it. Returns the (N, out)
    transposed view of the (out x N) result."""
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
            if layer.relu is not None:
                Y[layer.relu] = np.maximum(Y[layer.relu], 0.0)
            if layer.neg_relu is not None:
                Y[layer.neg_relu] = np.maximum(-Y[layer.neg_relu], 0.0)
            if layer.sawtooth is not None:
                Z = Y[layer.sawtooth]
                Y[layer.sawtooth] = Z - np.floor(Z)
        out[:, lo:hi] = Y
    return out[:, 0] if single else out.T


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


def _max_min(
    dim: int, pairs: list[tuple[int, int]], keep: tuple[str, ...], tag: str
) -> list[Layer]:
    """The two-layer max/min gadget on a dim-vector x. Each pair (i, k) takes
    the units x_i + x_k, relu(x_i - x_k) and neg_relu(x_i - x_k); every input
    in no pair is carried by one identity unit. The output holds
    max(x_i, x_k) at i, min(x_i, x_k) at k and the carried inputs in place,
    less the ends of each pair that keep does not name ("max", "min")."""
    free = sorted(set(range(dim)).difference(*pairs))
    eye = np.eye(dim)
    i, k = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    # per pair the rows e_i + e_k, e_i - e_k, e_i - e_k
    units = (eye[i, None] + [[1.0], [-1.0], [-1.0]] * eye[k, None]).reshape(-1, dim)
    Wa = np.concatenate([units, eye[free]])
    # max and min are (s +- (relu(d) + neg_relu(d))) / 2, so the second layer
    # is the first's transpose with the pair units halved
    Wb = Wa.T.copy()
    Wb[:, : len(units)] *= 0.5
    rows = np.ones(dim, dtype=bool)
    rows[i] = "max" in keep
    rows[k] = "min" in keep
    out = int(rows.sum())
    acts = (ACT_IDENTITY, ACT_RELU, ACT_NEG_RELU) * len(i) + (ACT_IDENTITY,) * len(free)
    return [
        Layer(Wa, np.zeros(len(Wa)), acts, tag=tag),
        Layer(Wb[rows], np.zeros(out), (ACT_IDENTITY,) * out, tag=tag),
    ]


def _tree_layers(sizes: list[int], combine: str) -> list[Layer]:
    """Pairwise combine stages over concatenated per-group unit blocks until
    every group is one unit; a unit without a partner is carried."""
    layers = []
    while max(sizes) > 1:
        starts = np.cumsum(sizes) - sizes
        pairs = [
            (a + 2 * q, a + 2 * q + 1)
            for a, sz in zip(starts.tolist(), sizes)
            for q in range(sz // 2)
        ]
        layers += _max_min(sum(sizes), pairs, (combine,), TAG_MAXMIN)
        sizes = [(sz + 1) // 2 for sz in sizes]
    return layers


def base_depth(steps: int, group_sizes: list[int]) -> int:
    """Layer count of the base (unextended) network: two per compare-exchange
    (steps of them), one piece stage, and two per max/min tree stage."""
    gmax = max(group_sizes)
    g = len(group_sizes)
    return 2 * steps + 1 + 2 * math.ceil(math.log2(gmax)) + 2 * math.ceil(math.log2(g))


def synthesize(
    basis: lat.OrientedBasis,
    schedule: fold.Schedule,
    f: bnd.BoundaryFunction,
    M: int = 0,
) -> Network:
    """Build the full network: M translation blocks, then on the fold-first
    coordinates c = y~ Gt^T of `folding.build_folded_boundary` one
    compare-exchange per pair (j, k) of its `pairs` (c_j <- max, c_k <- min),
    the list `folding.sort_fold` runs, then the surviving-piece affine stage
    and per-group max trees feeding a min tree. In y~ each compare-exchange
    is the reflection across the bisector of b_{j+2} and b_{k+2}.
    The first of these layers absorbs the map to c: for M >= 1 the input is
    the full n-vector, for M = 0 the projected (n-1)-vector."""
    if M < 0:
        raise DomainError(f"M must be >= 0, got {M}")
    # decode's rule: where the spacing of 2^M exceeds the tie band, the
    # translation blocks reduce to rounding noise (M >= 29)
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
    for level in range(1, M + 1):
        layers.extend(translation_block(basis, level, M).layers)

    base: list[Layer] = []
    for pair in ff.pairs:
        base += _max_min(n - 1, [pair], ("max", "min"), TAG_REFLECTION)
    base.append(Layer(ff.W.T, ff.bias, (ACT_IDENTITY,) * len(ff.bias), tag=TAG_PIECES))
    base += _tree_layers(sizes, "max")
    base += _tree_layers([len(sizes)], "min")
    # b_j . e_1 = 0 for j >= 2, so c = y G[1:]^T
    first = base[0]
    to_c = f.basis.G[1:, 1 if M == 0 else 0 :]
    base[0] = Layer(first.W @ to_c, first.b, first.acts, tag=first.tag)

    expected = 3 * M + base_depth(len(ff.pairs), sizes)
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
            "comparators": len(ff.pairs),
            "pieces": len(ff.group),
            "groups": len(sizes),
            "family": basis.fid.family,
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
