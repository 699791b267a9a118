"""Bit-identity of the points-as-columns kernels at the edges of their
layout: the fold's compare-exchange sort against the sort of point rows,
fold-first, dense and certified dense min-max values against their
references, and the blocked network forward against the layer-by-layer
reference, at point counts around the kernels' block and chunk sizes and
on exact-tie inputs."""
from __future__ import annotations

import numpy as np
import pytest

from latticecpwl import boundary as bd
from latticecpwl import folding as fo
from latticecpwl import lattices as lat
from latticecpwl import network as net
from latticecpwl.lattices import FamilyId

import oracles

INSTANCES = [
    (family, n)
    for family in lat.FAMILIES
    for n in range(lat.FAMILY_RANGES[family][0], 9)
]
# one block, around EVAL_ROWS and around two blocks' tail rule
COUNTS = (2, 511, 512, 513, 1023, 1024, 1025)


def edge_inputs(basis, f, counts):
    """Full points: prefixes of one uniform P(B) draw of each count, then
    every corner and every neighbor-pair midpoint (exact ties of f)."""
    Y = lat.sample_parallelotope(basis, seed=basis.n, count=max(counts))
    corners = lat.enumerate_corners(basis).z @ basis.G
    mids = (f.pair_x + f.pair_xp) @ basis.G / 2.0
    return [Y[:count] for count in counts] + [np.vstack([corners, mids])]


@pytest.mark.parametrize("family,n", INSTANCES)
def test_fold_first_kernels_match_the_row_sort(family, n):
    """The compare-exchange sort of C^T gives the row sort's c bit for bit,
    and fold-first values equal the min-max over the row sort's c."""
    basis = lat.build_basis(FamilyId(family, n))
    f = bd.build_boundary(basis)
    ff = fo.fold_first(basis)
    columns = np.arange(len(ff.group))
    for Y in edge_inputs(basis, f, COUNTS):
        ref = oracles.reference_sort_fold(basis, Y[:, 1:])
        assert np.array_equal(fo.sort_fold(ff, Y[:, 1:]), ref)
        assert np.array_equal(
            fo.eval_folded_batch(ff, Y[:, 1:]),
            bd._min_max(ref, ff.W, ff.bias, ff.group, columns),
        )


@pytest.mark.parametrize("family,n", INSTANCES)
def test_dense_values_match_eval_boundary_batch(family, n):
    """The values-only dense min-max and eval_boundary_batch share one
    product per block, so their values agree bit for bit."""
    basis = lat.build_basis(FamilyId(family, n))
    f = bd.build_boundary(basis)
    for Y in edge_inputs(basis, f, COUNTS):
        vals = bd._min_max(bd.tail_coords(basis, Y[:, 1:]), *bd.pieces(f), *f.memberships.T)
        assert vals.tobytes() == bd.eval_boundary_batch(f, Y[:, 1:])[0].tobytes()


@pytest.mark.parametrize("family,n", INSTANCES)
def test_certified_dense_values_match_min_max(family, n, monkeypatch):
    """The fold check's dense side, certified from the fold-first values,
    gives `_min_max`'s values byte for byte: at one point, around
    EVAL_ROWS, around the two-block tail rule, and on exact ties of f,
    where the certificate fails and the block takes `_min_max` itself.
    The certificate runs at every size here, below NEAR_MEMBERSHIPS too."""
    monkeypatch.setattr(bd, "NEAR_MEMBERSHIPS", 0)
    basis = lat.build_basis(FamilyId(family, n))
    f = bd.build_boundary(basis)
    ff = fo.fold_first(basis)
    for Y in edge_inputs(basis, f, (1,) + COUNTS):
        folded = fo.eval_folded_batch(ff, Y[:, 1:])
        args = (bd.tail_coords(basis, Y[:, 1:]), *bd.pieces(f), *f.memberships.T)
        near = bd._min_max_near(*args, folded, fo.FOLD_DEV_LIMIT)
        assert near.tobytes() == bd._min_max(*args).tobytes()


# around one chunk of _min_max_near (EVAL_CHUNK blocks), around its tail
# rule, and two chunks, the second taking the tail
CHUNK_COUNTS = (16_383, 16_384, 16_385, 16_895, 16_896, 16_897, 33_280)


@pytest.mark.parametrize("moved", [False, True])
@pytest.mark.parametrize("family", ["an", "en"])
def test_certified_dense_values_across_chunks(family, moved, monkeypatch):
    """The certificate's bits are packed block by block into each chunk's
    bytes; at counts around the chunk size the values still equal
    `_min_max`'s byte for byte. With the fold-first t every point is
    certified and no block falls back; with t moved by 1e-6 at every 7th
    point every block, in both chunks, takes `_min_max` itself."""
    basis = lat.build_basis(FamilyId(family, 8))
    f = bd.build_boundary(basis)
    Y = lat.sample_domain(basis, seed=8, count=max(CHUNK_COUNTS))
    folded = fo.eval_folded_batch(fo.fold_first(basis), Y)
    C = bd.tail_coords(basis, Y)
    if moved:
        folded[::7] += 1e-6
    min_max, fallbacks = bd._min_max, []

    def spy(X, *rest):
        fallbacks.append(len(X))
        return min_max(X, *rest)

    monkeypatch.setattr(bd, "_min_max", spy)
    for count in CHUNK_COUNTS:
        args = (C[:count], *bd.pieces(f), *f.memberships.T)
        fallbacks.clear()
        near = bd._min_max_near(*args, folded[:count], fo.FOLD_DEV_LIMIT)
        assert near.tobytes() == min_max(*args).tobytes()
        blocks = bd._tail_blocks(count, bd.EVAL_ROWS) if moved else []
        assert fallbacks == [hi - lo for lo, hi in blocks]


@pytest.mark.parametrize("M", [0, 1, 2])
@pytest.mark.parametrize("family,n", INSTANCES)
def test_forward_matches_reference_across_blocks(family, n, M):
    """Counts on both sides of forward's block size: one block of step
    points and of 2 * step - 8, then two blocks, the second taking the
    tail. The reference takes forward's blocks, so each product has the
    same shape on both sides and forward equals it bit for bit at every
    count, ragged ones too, whichever BLAS kernels run (checked with
    OpenBLAS's default, Haswell and Sandybridge kernels)."""
    fid = FamilyId(family, n)
    basis = lat.build_basis(fid)
    f = bd.build_boundary(basis)
    nw = net.synthesize(basis, fo.build_schedule(fid, basis), f, M=M)
    step = max(8, (1 << 18) // max(layer.out_dim for layer in nw.layers) // 8 * 8)
    counts = COUNTS + (step, 2 * step - 8, 2 * step, 2 * step + 8)
    for Y in edge_inputs(basis, f, counts):
        X = Y[:, 1:]
        if M:  # stretch P(B) over the 2^M-extended box
            alpha = Y @ basis.Ginv
            alpha[:, 1:] *= 2.0**M
            X = alpha @ basis.G
        assert np.array_equal(net.forward(nw, X), oracles.reference_forward(nw, X))
