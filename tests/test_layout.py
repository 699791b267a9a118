"""Bit-identity of the points-as-columns kernels at the edges of their
layout: the fold's compare-exchange sort against the sort of point rows,
fold-first, dense and certified dense min-max values against their
references, and the blocked network forward against the layer-by-layer
reference, at point counts around the kernels' block sizes and on
exact-tie inputs."""
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
        vals = bd._min_max(Y[:, 1:], f.A.T, f.c, *f.memberships.T)
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
        args = (Y[:, 1:], f.A.T, f.c, *f.memberships.T)
        near = bd._min_max_near(*args, folded, fo.FOLD_DEV_LIMIT)
        assert near.tobytes() == bd._min_max(*args).tobytes()


@pytest.mark.parametrize("M", [0, 1, 2])
@pytest.mark.parametrize("family,n", INSTANCES)
def test_forward_matches_reference_across_blocks(family, n, M):
    """Counts on both sides of forward's block size: one block of step
    points and of 2 * step - 8, then two blocks, the second taking the
    tail. Where every block holds a multiple of 8 points, as forward's step
    does, forward equals the reference bit for bit. A ragged run of points
    can go through other BLAS kernels (with OpenBLAS's Haswell and Zen
    kernels it does at n = 8, M >= 1, by up to 9e-15), so at ragged counts
    the two agree to 1e-12."""
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
        got, ref = net.forward(nw, X), oracles.reference_forward(nw, X)
        if len(X) % 8:
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        else:
            assert np.array_equal(got, ref)
