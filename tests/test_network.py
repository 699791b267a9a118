"""Network synthesis checks: activation semantics, compare-exchange gadgets,
the sawtooth translation stage, max/min trees, the fused layer structure,
full synthesis equivalence, and serialization."""
from __future__ import annotations

import itertools
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from latticecpwl import boundary as bd
from latticecpwl import cli
from latticecpwl import folding as fo
from latticecpwl import lattices as lat
from latticecpwl import network as net
from latticecpwl.errors import ConstructionError, DomainError
from latticecpwl.lattices import FamilyId

import oracles


def make(family, n):
    fid = FamilyId(family, n)
    basis = lat.build_basis(fid)
    f = bd.build_boundary(basis)
    sched = fo.build_schedule(fid, basis)
    return basis, f, sched


def test_activation_semantics():
    # a layer applies its one activation to every unit
    for act, low, high in [
        (net.ACT_RELU, [0.0, 0.0], [2.0, 1.75]),
        (net.ACT_IDENTITY, [-1.5, -0.25], [2.0, 1.75]),
        (net.ACT_SAWTOOTH2, [0.5, 0.75], [0.0, 0.75]),
    ]:
        nw = net.Network(layers=(net.Layer(np.eye(2), np.zeros(2), act),), meta={})
        assert np.array_equal(net.forward(nw, np.array([-1.5, -0.25])), low)
        assert np.array_equal(net.forward(nw, np.array([2.0, 1.75])), high)
    assert net.ACTIVATIONS == (net.ACT_RELU, net.ACT_IDENTITY, net.ACT_SAWTOOTH2)


def test_layer_validation():
    with pytest.raises(ConstructionError):
        net.Layer(np.eye(2), np.zeros(3), net.ACT_IDENTITY)
    with pytest.raises(ConstructionError):
        net.Layer(np.eye(2), np.zeros(2), "bogus")
    with pytest.raises(ConstructionError):
        net.Network(
            layers=(
                net.Layer(np.eye(2), np.zeros(2), net.ACT_IDENTITY),
                net.Layer(np.eye(3), np.zeros(3), net.ACT_IDENTITY),
            ),
            meta={},
        )


def test_forward_plan_of_a_layer():
    """A layer records whether its bias is all zero; forward skips the add
    of a zero bias and, for each activation, equals the reference forward
    with and without a bias."""
    rng = np.random.default_rng(4)
    W, b = rng.normal(size=(7, 3)), rng.normal(size=7)
    X = rng.normal(size=(50, 3))
    for act in net.ACTIVATIONS:
        layer = net.Layer(W, b, act)
        assert not layer.zero_bias
        unbiased = net.Layer(W, np.array([-0.0, 0.0] * 3 + [0.0]), act)
        assert unbiased.zero_bias
        for lay in (layer, unbiased):
            nw = net.Network(layers=(lay,), meta={})
            assert np.array_equal(net.forward(nw, X), oracles.reference_forward(nw, X))


@pytest.mark.parametrize("M", [0, 2])
@pytest.mark.parametrize("family", lat.FAMILIES)
def test_forward_equals_reference(family, M):
    """The in-place forward equals the reference forward at n = 8 on a
    batch, a 1-D point and a zero-row batch; for M = 2 the points fill the
    2^M-extended box."""
    basis, f, sched = make(family, 8)
    nw = net.synthesize(basis, sched, f, M=M)
    alpha = np.random.default_rng(21).random((2_000, 8))
    alpha[:, 1:] *= 2.0**M
    X = alpha @ basis.G if M else lat.sample_domain(basis, seed=21, count=2_000)
    for x in (X, X[0], X[:0]):
        got, ref = net.forward(nw, x), oracles.reference_forward(nw, x)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)


def test_forward_working_set_is_bounded():
    """Points go through the layers in column blocks of about 2^18 values
    per layer output: at en 8, M = 2, 200k points peak near 7 MiB (the
    input is not traced), where whole-batch layers took 223 MiB."""
    basis, f, sched = make("en", 8)
    nw = net.synthesize(basis, sched, f, M=2)
    alpha = np.random.default_rng(5).random((200_000, 8))
    alpha[:, 1:] *= 4.0
    X = alpha @ basis.G
    tracemalloc.start()
    try:
        net.forward(nw, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_forward_empty_and_identity():
    empty = net.Network(layers=(), meta={})
    x = np.array([1.0, -2.0])
    assert np.array_equal(net.forward(empty, x), x)
    ident = net.Network(
        layers=(net.Layer(np.eye(2), np.zeros(2), net.ACT_IDENTITY),),
        meta={},
    )
    assert np.array_equal(net.forward(ident, x), x)
    with pytest.raises(DomainError):
        net.forward(ident, np.zeros(3))


def unfused(gadgets):
    """Gadgets as a network of their own: each gadget's relu layer, then its
    read-out map as an affine layer (synthesize folds that map into the
    next layer instead)."""
    layers = []
    for Wa, Wb in gadgets:
        layers += [
            net.Layer(Wa, np.zeros(len(Wa)), net.ACT_RELU),
            net.Layer(Wb, np.zeros(len(Wb)), net.ACT_IDENTITY),
        ]
    return net.Network(layers=tuple(layers), meta={})


def compare_exchange(d, j, k):
    """The compare-exchange of synthesize on a d-vector: max at j, min at k."""
    return unfused([net._max_min(d, [(j, k)], ("max", "min"))])


@pytest.mark.parametrize("j,k", [(0, 1), (1, 3), (3, 0)])
def test_compare_exchange_orders_the_pair(j, k):
    block = compare_exchange(5, j, k)
    assert [l.out_dim for l in block.layers] == [6, 5]
    assert [l.act for l in block.layers] == [net.ACT_RELU, net.ACT_IDENTITY]
    # the gadget is exact on inputs >= 0, the only ones synthesize feeds it
    X = np.abs(np.random.default_rng(j + k).normal(size=(2_000, 5)))
    out = net.forward(block, X)
    assert np.abs(out[:, j] - np.maximum(X[:, j], X[:, k])).max() <= 1e-12
    assert np.abs(out[:, k] - np.minimum(X[:, j], X[:, k])).max() <= 1e-12
    carried = [i for i in range(5) if i not in (j, k)]
    assert np.array_equal(out[:, carried], X[:, carried])


def test_compare_exchange_idempotent():
    block = compare_exchange(3, 0, 2)
    X = np.abs(np.random.default_rng(0).normal(size=(500, 3)))
    once = net.forward(block, X)
    assert (once[:, 0] >= once[:, 2]).all()
    assert np.abs(net.forward(block, once) - once).max() <= 1e-12


def translation_stage(basis, M):
    """The translation layers of the M network: their output is u = frac(y Ginv)."""
    f = bd.build_boundary(basis)
    nw = net.synthesize(basis, fo.build_schedule(basis.fid, basis), f, M=M)
    stage = tuple(l for l in nw.layers if l.tag == net.TAG_TRANSLATION)
    return net.Network(layers=stage, meta={})


def test_translation_block_shape_and_levels():
    """One sawtooth layer per level: y Ginv / 2^(M-1), then the doubling map 2u."""
    basis = lat.build_basis(FamilyId("an", 3))
    for M in (1, 2, 3):
        stage = translation_stage(basis, M)
        assert len(stage.layers) == M
        assert all(
            l.act == net.ACT_SAWTOOTH2 and l.out_dim == 3 and l.zero_bias for l in stage.layers
        )
        assert np.array_equal(stage.layers[0].W, basis.Ginv.T / 2 ** (M - 1))
        for layer in stage.layers[1:]:
            assert np.array_equal(layer.W, 2 * np.eye(3))


@pytest.mark.parametrize("M", [1, 2, 3])
def test_translation_blocks_match_floor_oracle(M):
    basis = lat.build_basis(FamilyId("dn-second", 4))
    stage = translation_stage(basis, M)
    rng = np.random.default_rng(10 + M)
    alpha = rng.random((1_000, 4))
    alpha[:, 1:] *= 2.0**M
    frac = alpha[:, 1:] - np.floor(alpha[:, 1:])
    keep = ((frac > 1e-6) & (frac < 1 - 1e-6)).all(axis=1)
    Y0 = alpha[keep] @ basis.G
    got = net.forward(stage, Y0)
    alpha0 = Y0 @ basis.Ginv
    assert np.abs(got - (alpha0 - np.floor(alpha0))).max() <= 1e-9
    y, _ = oracles.reduce_to_parallelotope(basis, Y0, M)
    assert np.abs(got @ basis.G - y).max() <= 1e-9


def test_translation_blocks_periodicity():
    basis = lat.build_basis(FamilyId("an", 3))
    stage = translation_stage(basis, 2)
    Y = lat.sample_parallelotope(basis, seed=11, count=500)
    shifted = Y + 2 * basis.G[1] + 3 * basis.G[2]
    alpha = Y @ basis.Ginv
    assert np.abs(net.forward(stage, Y) - alpha).max() <= 1e-9
    assert np.abs(net.forward(stage, shifted) - alpha).max() <= 1e-9


def tree(k, combine):
    """The max or min tree of synthesize over k scalar inputs."""
    return unfused(net._tree([k], combine))


def test_max_min_net_examples():
    assert float(net.forward(tree(2, "max"), np.array([3.0, 5.0]))[0]) == 5.0
    assert float(net.forward(tree(3, "min"), np.ones(3))[0]) == 1.0
    assert len(tree(1, "max").layers) == 0


@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_max_min_net_random(k):
    rng = np.random.default_rng(k)
    X = np.abs(rng.normal(size=(100_000 // k, k)))
    mx = net.forward(tree(k, "max"), X)[:, 0]
    mn = net.forward(tree(k, "min"), X)[:, 0]
    assert np.abs(mx - X.max(axis=1)).max() <= 1e-12
    assert np.abs(mn - X.min(axis=1)).max() <= 1e-12
    assert len(net._tree([k], "max")) == math.ceil(math.log2(k))


def test_stats_and_depth_accounting():
    basis, f, sched = make("an", 3)
    nw = net.synthesize(basis, sched, f, M=0)
    assert nw.meta["depth"] == len(nw.layers) == 5
    assert nw.meta["width"] == max(l.out_dim for l in nw.layers) == 7
    nw2 = net.synthesize(basis, sched, f, M=2)
    assert nw2.meta["depth"] == len(nw2.layers) == 5 + 2
    # the reduction stage never exceeds the width bound of the construction
    for layer in nw2.layers:
        if layer.tag in (net.TAG_TRANSLATION, net.TAG_REFLECTION):
            assert layer.out_dim <= 3 * (basis.n - 1)


@pytest.mark.parametrize(
    "family,n,depth",
    [
        ("an", 3, 5),
        ("dn-const-a", 3, 4),
        ("dn-const-a", 4, 7),
        ("dn-second", 3, 5),
        ("dn-second", 5, 9),
        ("en", 6, 12),
    ],
)
def test_depth_formula_frozen(family, n, depth):
    basis, f, sched = make(family, n)
    nw = net.synthesize(basis, sched, f, M=0)
    assert nw.meta["depth"] == depth
    memberships = fo.folded_structure(f, sched)
    sizes = list(Counter(memberships[:, 0].tolist()).values())
    assert depth == net.base_depth(len(fo.comparators(sched)), sizes)


@pytest.mark.parametrize(
    "family,n,M,width",
    [("an", 8, 0, 22), ("an", 8, 2, 22), ("en", 8, 2, 82), ("dn-const-a", 5, 1, 10),
     ("dn-second", 5, 2, 26), ("dn-second", 24, 0, 197)],
)
def test_fused_layer_structure(family, n, M, width):
    """Every linear map folds into the next layer: M sawtooth layers, one
    relu layer per compare-exchange and per max/min tree stage, and one
    closing affine layer; every hidden layer applies one activation, none
    of them the identity."""
    basis = lat.build_basis(FamilyId(family, n))
    sched = fo.build_schedule(basis.fid, basis)
    f = bd.build_boundary(basis, fo.chamber_corners(basis, sched))
    nw = net.synthesize(basis, sched, f, M=M)
    sizes = np.unique(fo.build_folded_boundary(f, sched).group, return_counts=True)[1]
    assert nw.meta["depth"] == len(nw.layers) == M + net.base_depth(
        len(fo.comparators(sched)), sizes.tolist())
    assert nw.meta["width"] == width
    assert nw.meta["activations"] == [net.ACT_RELU] + [net.ACT_SAWTOOTH2] * (M > 0)
    assert [l.tag == net.TAG_TRANSLATION for l in nw.layers] == [True] * M + [False] * (
        len(nw.layers) - M)
    assert sum(l.tag == net.TAG_PIECES for l in nw.layers) == 1
    assert [l.act for l in nw.layers] == [net.ACT_SAWTOOTH2] * M + [net.ACT_RELU] * (
        len(nw.layers) - M - 1) + [net.ACT_IDENTITY]


@pytest.mark.parametrize(
    "M,activations",
    [(0, ["relu"]), (1, ["relu", "sawtooth2"])],
)
def test_meta_lists_activations(M, activations):
    # the M = 0 network is a ReLU network; M >= 1 adds the discontinuous
    # sawtooth, and the closing affine layer is not listed
    basis, f, sched = make("dn-second", 4)
    nw = net.synthesize(basis, sched, f, M=M)
    assert nw.meta["activations"] == activations
    assert sorted({l.act for l in nw.layers[:-1]}) == sorted(activations)


ACCEPTANCE_INSTANCES = (
    [("an", n) for n in range(2, 9)]
    + [("dn-const-a", n) for n in range(3, 9)]
    + [("dn-second", n) for n in range(3, 9)]
    + [("en", n) for n in range(6, 9)]
)


@pytest.mark.parametrize("M", [0, 2])
@pytest.mark.parametrize("family,n", ACCEPTANCE_INSTANCES)
def test_sum_and_carry_units_are_never_clipped(family, n, M):
    """Each gadget's sum and carry units are relu units that must pass their
    input unchanged: layer by layer, their pre-activations are >= -1e-12 on
    10k points of the domain (the extended box for M = 2), every corner of
    it and every midpoint of two corners."""
    basis, f, sched = make(family, n)
    nw = net.synthesize(basis, sched, f, M=M)
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=n)))
    a, b = np.triu_indices(len(corners), 1)
    alpha = np.concatenate([corners, (corners[a] + corners[b]) / 2])
    alpha[:, 1:] *= 2.0**M
    if M:
        drawn = np.random.default_rng(n).random((10_000, n))
        drawn[:, 1:] *= 2.0**M
        X = np.concatenate([drawn, alpha]) @ basis.G
    else:
        drawn = lat.sample_domain(basis, seed=n, count=10_000)
        X = np.concatenate([drawn, (alpha @ basis.G)[:, 1:]])
    ff = fo.build_folded_boundary(f, sched)
    sizes = np.unique(ff.group, return_counts=True)[1].tolist()
    gadgets = [net._max_min(n - 1, [pair], ("max", "min")) for pair in ff.pairs]
    gadgets += net._tree(sizes, "max") + net._tree([len(sizes)], "min")
    hidden = nw.layers[M:-1]
    assert len(hidden) == len(gadgets)
    Y = net.forward(net.Network(layers=nw.layers[:M], meta={}), X).T
    for layer, (Wa, _) in zip(hidden, gadgets):
        Z = layer.W @ Y + layer.b[:, None]
        # per pair the units sum, +difference, -difference, then the carried
        pairs = Wa.shape[0] - Wa.shape[1]
        kept = np.r_[np.arange(0, 3 * pairs, 3), np.arange(3 * pairs, len(Wa))]
        assert Z[kept].min() >= -1e-12, layer.tag
        Y = np.maximum(Z, 0.0)


def test_piece_stage_unit_count_dn_const_a3():
    """The 3 surviving pieces, in groups of 2 and 1, fold into the first
    max-tree layer: the pair takes 3 units and the lone piece 1."""
    basis, f, sched = make("dn-const-a", 3)
    nw = net.synthesize(basis, sched, f, M=0)
    assert nw.meta["provenance"]["pieces"] == 3
    piece_layers = [l for l in nw.layers if l.tag == net.TAG_PIECES]
    assert len(piece_layers) == 1
    assert piece_layers[0].out_dim == 4
    assert piece_layers[0].act == net.ACT_RELU


@pytest.mark.parametrize(
    "family,n", [("an", 2), ("an", 3), ("dn-const-a", 3), ("dn-second", 3), ("en", 6)]
)
def test_synthesized_equals_boundary_m0(family, n):
    basis, f, sched = make(family, n)
    nw = net.synthesize(basis, sched, f, M=0)
    Yt = lat.sample_domain(basis, seed=12, count=2_000)
    out = net.forward(nw, Yt)[:, 0]
    ref, _ = bd.eval_boundary_batch(f, Yt)
    assert np.abs(out - ref).max() <= 1e-9


@pytest.mark.parametrize("M", [0, 1])
@pytest.mark.parametrize("family,n", [("an", 5), ("dn-const-a", 5), ("dn-second", 5), ("en", 7)])
def test_synthesize_full_and_chamber_f_agree(family, n, M):
    # both f have the same surviving groups as sets of planes, so the
    # networks differ at most in unit order
    basis, f, sched = make(family, n)
    chamber = bd.build_boundary(basis, fo.chamber_corners(basis, sched))
    a = net.synthesize(basis, sched, f, M=M)
    b = net.synthesize(basis, sched, chamber, M=M)
    assert a.meta == b.meta
    Y = lat.sample_parallelotope(basis, seed=17, count=2_000)
    X = Y if M else Y[:, 1:]
    assert np.abs(net.forward(a, X) - net.forward(b, X)).max() <= 1e-12


@pytest.mark.parametrize("M", [1, 2])
def test_synthesized_equals_extension(M):
    # off the faces of the extended box, where the sawtooth jumps on every
    # family but an
    for family, n in [("an", 3), ("dn-const-a", 5), ("dn-second", 5), ("en", 6)]:
        basis, f, sched = make(family, n)
        nw = net.synthesize(basis, sched, f, M=M)
        assert nw.layers[0].in_dim == basis.n
        rng = np.random.default_rng(13 + M)
        alpha = rng.random((2_000, n))
        alpha[:, 1:] *= 2.0**M
        frac = alpha[:, 1:] - np.floor(alpha[:, 1:])
        keep = ((frac > 1e-6) & (frac < 1 - 1e-6)).all(axis=1)
        Y0 = alpha[keep] @ basis.G
        out = net.forward(nw, Y0)[:, 0]
        y, _ = oracles.reduce_to_parallelotope(basis, Y0, M)
        ref, _ = bd.eval_boundary_batch(f, y[:, 1:])
        assert np.abs(out - ref).max() <= 1e-9, (family, n)


def test_synthesize_rejects_rank_mismatch():
    basis, f, _ = make("an", 3)
    other = lat.build_basis(FamilyId("an", 4))
    sched4 = fo.build_schedule(FamilyId("an", 4), other)
    with pytest.raises(ConstructionError):
        net.synthesize(other, sched4, f, M=0)


def test_distinct_gradients_match_folded_oracle():
    """The network realizes exactly as many affine pieces over the folded
    domain as the folded piece count. Pieces are identified by gradient plus
    intercept from finite differences: parallel pieces share a gradient, so
    the gradient alone undercounts."""
    for family, n in [("an", 3), ("dn-second", 4)]:
        basis, f, sched = make(family, n)
        nw = net.synthesize(basis, sched, f, M=0)
        expected = oracles.folded_piece_count_oracle(basis, f, sched, samples=40_000)
        ff = fo.build_folded_boundary(f, sched)
        pts = oracles.sample_folded_domain(basis, ff, seed=14, count=8_000)
        # keep points whose active piece wins by a clear margin, so the
        # gradient is constant in the finite-difference neighborhood
        A, c = oracles.reference_pieces(f)
        H = pts @ A.T + c
        group_planes = oracles.boundary_structure(f)[1]
        gvals = np.stack([H[:, list(g)].max(axis=1) for g in group_planes], axis=1)
        top2 = np.sort(gvals, axis=1)[:, :2]
        pts = pts[top2[:, 1] - top2[:, 0] > 1e-3]
        d = n - 1
        eps = 1e-6
        base_val = net.forward(nw, pts)[:, 0]
        grads = np.empty((pts.shape[0], d))
        for j in range(d):
            step = np.zeros(d)
            step[j] = eps
            grads[:, j] = (net.forward(nw, pts + step)[:, 0] - base_val) / eps
        intercepts = base_val - (grads * pts).sum(axis=1)
        pieces = np.column_stack([grads, intercepts])
        distinct = np.unique(np.round(pieces, 4), axis=0)
        assert distinct.shape[0] == expected


def test_network_json_round_trip(capsys):
    # `synth` output parses back to the in-memory network exactly; both take
    # f from the chamber corners, whose unit order differs from the full f's
    basis, _, sched = make("en", 6)
    f = bd.build_boundary(basis, fo.chamber_corners(basis, sched))
    nw = net.synthesize(basis, sched, f, M=1)
    assert cli.main(["synth", "--family", "en", "--n", "6", "--M", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    back = net.Network(
        layers=tuple(
            net.Layer(
                np.array(row["w"]).reshape(len(row["b"]), -1),
                np.array(row["b"]),
                row["act"][0],
                tag=row["tag"],
            )
            for row in doc["layers"]
        ),
        meta=doc["meta"],
    )
    assert len(back.layers) == len(nw.layers)
    for row, a, b in zip(doc["layers"], back.layers, nw.layers):
        assert row["act"] == [b.act] * b.out_dim
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.b, b.b)
        assert a.act == b.act
        assert a.tag == b.tag
    assert back.meta == nw.meta
    assert set(doc["meta"]) == {"depth", "width", "activations", "provenance"}
    Y = lat.sample_parallelotope(basis, seed=15, count=50)
    assert np.array_equal(net.forward(back, Y), net.forward(nw, Y))


@pytest.mark.parametrize(
    "family,n,continuous",
    [("an", 3, True), ("an", 5, True), ("dn-const-a", 4, False),
     ("dn-second", 4, False), ("en", 6, False)],
)
def test_m1_face_jump(family, n, continuous):
    """The M = 1 translation stage uses the discontinuous sawtooth. Across
    the face alpha_2 = 1 of the extended box the output moves by about
    epsilon times the slope for an, and jumps for the other families."""
    basis, f, sched = make(family, n)
    nw = net.synthesize(basis, sched, f, M=1)
    alpha = np.random.default_rng(16).random((200, n))
    alpha[:, 1:] *= 2
    below, above = alpha.copy(), alpha.copy()
    below[:, 1], above[:, 1] = 1 - 1e-7, 1 + 1e-7
    jump = np.abs(net.forward(nw, below @ basis.G) - net.forward(nw, above @ basis.G)).max()
    if continuous:
        assert jump < 1e-6
    else:
        assert jump > 0.1
