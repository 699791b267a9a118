"""Folding-schedule checks: reflections, invariance of the boundary function,
surviving-piece counts, and reduction into the base cell."""
from __future__ import annotations

import math

import numpy as np
import pytest

from latticecpwl import boundary as bd
from latticecpwl import folding as fo
from latticecpwl import lattices as lat
from latticecpwl import network as net
from latticecpwl.errors import ConstructionError, DomainError
from latticecpwl.lattices import FamilyId

import oracles

# frozen from independent enumeration: (memberships, hyperplanes, groups)
# surviving on the folded domain
FOLDED_STRUCTURE = {
    ("an", 2): (3, 3, 2),
    ("an", 3): (5, 5, 3),
    ("an", 4): (7, 7, 4),
    ("an", 5): (9, 9, 5),
    ("an", 6): (11, 11, 6),
    ("an", 7): (13, 13, 7),
    ("an", 8): (15, 15, 8),
    ("dn-const-a", 3): (3, 3, 2),
    ("dn-const-a", 4): (5, 5, 3),
    ("dn-const-a", 5): (7, 7, 4),
    ("dn-const-a", 6): (9, 9, 5),
    ("dn-const-a", 7): (11, 11, 6),
    ("dn-const-a", 8): (13, 13, 7),
    ("dn-second", 3): (6, 5, 3),
    ("dn-second", 4): (12, 10, 5),
    ("dn-second", 5): (18, 15, 7),
    ("dn-second", 6): (24, 20, 9),
    ("dn-second", 7): (30, 25, 11),
    ("dn-second", 8): (36, 30, 13),
    ("en", 6): (32, 26, 10),
    ("en", 7): (44, 36, 13),
    ("en", 8): (56, 46, 16),
}


def make(family, n):
    fid = FamilyId(family, n)
    basis = lat.build_basis(fid)
    f = bd.build_boundary(basis)
    sched = fo.build_schedule(fid, basis)
    return fid, basis, f, sched


def fold(basis, f, sched, Yt):
    """The fold image of each point: the sorted c mapped back to y~."""
    return fo.sort_fold(fo.build_folded_boundary(f, sched), Yt) @ basis.Ginv[1:, 1:].T


def on_folded_side(sched, Yt):
    """Mask: on the non-negative side of every schedule hyperplane, up to
    GEOM_TOL."""
    return np.all([Yt @ s.v >= -lat.GEOM_TOL for s in sched.steps], axis=0)


def reflection_layers(basis, f, sched):
    """The reflection layers of the M = 0 network, the paper's ReLU fold."""
    layers = net.synthesize(basis, sched, f, M=0).layers
    return net.Network(layers=tuple(l for l in layers if l.tag == net.TAG_REFLECTION), meta={})


@pytest.mark.parametrize(
    "family,n,count",
    [("dn-const-a", 4, 3), ("dn-second", 3, 0), ("en", 6, 4), ("an", 5, 6)],
)
def test_schedule_counts(family, n, count):
    fid = FamilyId(family, n)
    basis = lat.build_basis(fid)
    sched = fo.build_schedule(fid, basis)
    assert len(sched) == count


def test_schedule_count_binomials():
    for family, shift in [("an", 1), ("dn-const-a", 1), ("dn-second", 2)]:
        for n in range(3, 9):
            if (family, n) not in FOLDED_STRUCTURE:
                continue
            fid = FamilyId(family, n)
            sched = fo.build_schedule(fid, lat.build_basis(fid))
            assert len(sched) == math.comb(n - shift, 2)
    for n in range(6, 9):
        fid = FamilyId("en", n)
        sched = fo.build_schedule(fid, lat.build_basis(fid))
        assert len(sched) == math.comb(n - 3, 2) + 1
        assert (sched.steps[0].j, sched.steps[0].k) == (2, 3)


def test_schedule_normals_are_basis_differences():
    _, basis, _, sched = make("en", 6)
    for step in sched.steps:
        full = basis.G[step.j - 1] - basis.G[step.k - 1]
        assert full[0] == 0.0
        assert np.array_equal(step.v, full[1:])


def test_apply_fold_identity_on_folded_points():
    # the fold is idempotent and fixes points already on the folded side
    _, basis, f, sched = make("dn-const-a", 4)
    Yt = lat.sample_domain(basis, seed=0, count=2_000)
    folded = fold(basis, f, sched, Yt)
    np.testing.assert_allclose(fold(basis, f, sched, folded), folded, rtol=0, atol=1e-12)
    already = Yt[on_folded_side(sched, Yt)]
    assert 0 < len(already) < len(Yt)
    np.testing.assert_allclose(fold(basis, f, sched, already), already, rtol=0, atol=1e-12)


def test_apply_fold_single_reflection_same_orbit():
    _, basis, f, sched = make("an", 4)
    Yt = lat.sample_domain(basis, seed=1, count=500)
    step = sched.steps[2]
    dots = Yt @ step.v
    mirrored = Yt - np.outer(2 * dots / (step.v @ step.v), step.v)
    a = fold(basis, f, sched, Yt)
    b = fold(basis, f, sched, mirrored)
    assert np.abs(a - b).max() <= 1e-12


@pytest.mark.parametrize("family,n", sorted(FOLDED_STRUCTURE))
def test_apply_fold_output_satisfies_predicate(family, n):
    # in c the sort meets every step's inequality c_j >= c_k exactly, and it
    # only permutes c within each block
    _, basis, f, sched = make(family, n)
    ff = fo.build_folded_boundary(f, sched)
    Yt = lat.sample_domain(basis, seed=2, count=1_000)
    C = fo.sort_fold(ff, Yt)
    for step in sched.steps:
        assert (C[:, step.j - 2] >= C[:, step.k - 2]).all()
    C0 = Yt @ ff.Gt.T
    free = [c for c in range(n - 1) if not any(c in blk for blk in ff.blocks)]
    assert np.array_equal(C[:, free], C0[:, free])
    for blk in ff.blocks:
        assert np.array_equal(np.sort(C[:, blk], axis=1), np.sort(C0[:, blk], axis=1))


def test_single_pass_reaches_fixpoint():
    """A second reference for the fold, written out: one sweep of the
    schedule's reflections, in schedule order, lands every point on the
    sort's image."""
    for family, n in [("an", 6), ("dn-const-a", 6), ("dn-second", 6), ("en", 8)]:
        _, basis, f, sched = make(family, n)
        Yt = lat.sample_domain(basis, seed=3, count=1_000)
        out = Yt.copy()
        for step in sched.steps:
            dot = out @ step.v
            mask = dot < 0.0
            out[mask] -= np.outer(2 * dot[mask] / (step.v @ step.v), step.v)
        np.testing.assert_allclose(out, fold(basis, f, sched, Yt), rtol=0, atol=1e-12)


def test_apply_fold_scalar_and_empty_schedule():
    _, basis, f, sched = make("dn-second", 3)
    assert len(sched) == 0
    ff = fo.build_folded_boundary(f, sched)
    assert ff.blocks == ()
    yt = np.array([0.3, -0.4])
    np.testing.assert_allclose(fold(basis, f, sched, yt), [yt], rtol=0, atol=1e-15)
    _, basis4, f4, sched4 = make("dn-second", 4)
    yt = lat.sample_domain(basis4, seed=4, count=1)[0]
    out = fold(basis4, f4, sched4, yt)
    assert out.shape == (1, yt.size)
    assert on_folded_side(sched4, out).all()


@pytest.mark.parametrize(
    "family,n", [("an", 4), ("dn-const-a", 4), ("dn-second", 5), ("en", 6)]
)
def test_fold_invariance(family, n):
    _, basis, f, sched = make(family, n)
    dev = fo.verify_fold_invariance(f, sched, seed=0, count=10_000)
    assert dev <= 1e-9


@pytest.mark.parametrize("family,n", [("dn-const-a", 5), ("en", 6)])
def test_fold_invariance_samples_seeded_chunks(family, n):
    # the samples are fixed by (seed, count): chunk i is seeded (seed, i)
    _, basis, f, sched = make(family, n)
    ff = fo.build_folded_boundary(f, sched)
    sizes = fo._chunk_sizes(4_000)
    assert len(sizes) == fo.FOLD_CHUNKS == 16
    worst = 0.0
    for i, m in enumerate(sizes):
        Yt = lat.sample_domain(basis, seed=(7, i), count=m)
        dense, _ = bd.eval_boundary_batch(f, Yt)
        worst = max(worst, float(np.abs(dense - fo.eval_folded_batch(ff, Yt)).max()))
    assert fo.verify_fold_invariance(f, sched, seed=7, count=4_000) == worst


def test_fold_invariance_rejects_bad_count():
    _, basis, f, sched = make("an", 3)
    with pytest.raises(DomainError):
        fo.verify_fold_invariance(f, sched, seed=0, count=0)


@pytest.mark.parametrize("family,n", sorted(FOLDED_STRUCTURE))
def test_folded_structure_frozen(family, n):
    _, basis, f, sched = make(family, n)
    memberships = fo.folded_structure(f, sched)
    planes, groups = np.unique(memberships[:, 1]), np.unique(memberships[:, 0])
    assert (len(memberships), len(planes), len(groups)) == FOLDED_STRUCTURE[
        (family, n)
    ]


# every acceptance instance plus an 1, whose projected domain is a point
FOLD_FIRST_INSTANCES = [("an", 1)] + sorted(FOLDED_STRUCTURE)


def agreement_points(basis, f):
    """Seeded D(B) samples, every projected corner and every pair midpoint."""
    corners = lat.enumerate_corners(basis).z @ basis.G
    mids = (f.pair_x + f.pair_xp) @ basis.G / 2.0
    samples = lat.sample_domain(basis, seed=11, count=2_000)
    return np.vstack([samples, corners[:, 1:], mids[:, 1:]])


@pytest.mark.parametrize("family,n", FOLD_FIRST_INSTANCES)
def test_fold_first_equals_dense(family, n):
    _, basis, f, sched = make(family, n)
    ff = fo.build_folded_boundary(f, sched)
    Yt = agreement_points(basis, f)
    dense, _ = bd.eval_boundary_batch(f, Yt)
    np.testing.assert_allclose(fo.eval_folded_batch(ff, Yt), dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("family,n", [("an", 1), ("an", 8), ("en", 8)])
def test_fold_first_single_point_and_empty_input(family, n):
    _, basis, f, sched = make(family, n)
    ff = fo.build_folded_boundary(f, sched)
    one = lat.sample_domain(basis, seed=2, count=1)
    dense, _ = bd.eval_boundary_batch(f, one)
    np.testing.assert_allclose(fo.eval_folded_batch(ff, one), dense, rtol=0, atol=1e-12)
    assert fo.eval_folded_batch(ff, np.empty((0, n - 1))).shape == (0,)


@pytest.mark.parametrize("family,n", FOLD_FIRST_INSTANCES)
def test_sort_is_the_fold(family, n):
    # the sorted c, mapped back through Gt^-T, is the image under the
    # network's reflection layers
    _, basis, f, sched = make(family, n)
    Yt = agreement_points(basis, f)
    back = fold(basis, f, sched, Yt)
    ref = net.forward(reflection_layers(basis, f, sched), Yt)
    np.testing.assert_allclose(back, ref, rtol=0, atol=1e-12)
    assert on_folded_side(sched, back).all()
    # reflections through the origin preserve the norm
    np.testing.assert_allclose(
        (back**2).sum(axis=1), (Yt**2).sum(axis=1), rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize(
    "family,n,blocks",
    [
        ("an", 1, []),
        ("an", 2, []),
        ("an", 6, [[2, 3, 4, 5, 6]]),
        ("dn-const-a", 5, [[2, 3, 4, 5]]),
        ("dn-second", 3, []),
        ("dn-second", 6, [[3, 4, 5, 6]]),
        ("en", 8, [[2, 3], [4, 5, 6, 7, 8]]),
    ],
)
def test_fold_first_blocks_are_schedule_components(family, n, blocks):
    _, _, f, sched = make(family, n)
    got = fo.build_folded_boundary(f, sched).blocks
    assert sorted((blk + 2).tolist() for blk in got) == blocks


@pytest.mark.parametrize(
    "family,n,pairs",
    [
        ("dn-second", 4, [(2, 3)]),  # gram[0,1] = 0 but gram[0,2] = 1
        ("an", 3, [(1, 2)]),  # b_1 leaves the projected domain
        ("an", 4, [(3, 2)]),  # j > k would sort ascending
        ("an", 4, [(2, 4), (3, 4)]),  # block {2,3,4} lacks (2,3): no sort
    ],
)
def test_fold_first_rejects_steps_that_are_not_a_sort(family, n, pairs):
    _, basis, f, _ = make(family, n)
    steps = tuple(
        fo.FoldStep(j=j, k=k, v=basis.G[j - 1, 1:] - basis.G[k - 1, 1:]) for j, k in pairs
    )
    with pytest.raises(ConstructionError):
        fo.build_folded_boundary(f, fo.FoldingSchedule(steps=steps))


def test_folded_oracle_small():
    for family, n in [("an", 3), ("dn-const-a", 3), ("dn-const-a", 6), ("dn-second", 5), ("en", 6)]:
        _, basis, f, sched = make(family, n)
        got = oracles.folded_piece_count_oracle(basis, f, sched, samples=40_000)
        assert got == FOLDED_STRUCTURE[(family, n)][1]


def test_folded_oracle_an_linear_in_n():
    ns = np.arange(2, 9)
    vals = []
    for n in ns:
        _, basis, f, sched = make("an", int(n))
        samples = 300_000 if n == 8 else 60_000
        vals.append(oracles.folded_piece_count_oracle(basis, f, sched, samples=samples))
    coef = np.polyfit(ns, vals, 1)
    fit = np.polyval(coef, ns)
    assert np.abs(np.array(vals) - fit).max() <= 1e-9


def test_folded_count_report_dn_second():
    _, basis, f, sched = make("dn-second", 5)
    row = oracles.folded_count_report(basis, f, sched)
    assert row["enumerated"] == 15
    assert row["enumerated_pairs"] == 18
    assert row["stated"] == 24
    assert row["sketch"] == 18
    assert row["measured"] == 15
    assert row["stable"] and row["match_enum"]


def test_folded_count_report_en():
    _, basis, f, sched = make("en", 6)
    row = oracles.folded_count_report(basis, f, sched)
    assert row["enumerated"] == 26
    assert row["enumerated_pairs"] == 32
    assert row["stated"] == 32
    assert row["sketch"] == 44
    assert row["stable"] and row["match_enum"]


def test_sample_folded_domain_two_routes():
    # the sampler's sort images equal the reflection layers' images of the
    # same seeded samples
    _, basis, f, sched = make("an", 4)
    ff = fo.build_folded_boundary(f, sched)
    pts = oracles.sample_folded_domain(basis, ff, seed=5, count=5_000)
    assert pts.shape == (5_000, 3)
    ref = net.forward(reflection_layers(basis, f, sched), lat.sample_domain(basis, seed=5, count=5_000))
    np.testing.assert_allclose(pts, ref, rtol=0, atol=1e-12)
    assert on_folded_side(sched, pts).all()
    assert oracles.domain_contains(basis, pts).all()


def test_reduce_identity_inside_base_cell():
    basis = lat.build_basis(FamilyId("an", 3))
    Y = lat.sample_parallelotope(basis, seed=6, count=200)
    y, z = oracles.reduce_to_parallelotope(basis, Y, M=2)
    assert np.array_equal(y, Y)
    assert not z.any()


def test_reduce_known_shift():
    basis = lat.build_basis(FamilyId("an", 3))
    y = lat.sample_parallelotope(basis, seed=7, count=1)[0]
    y0 = y + 2 * basis.G[1]
    got, z = oracles.reduce_to_parallelotope(basis, y0, M=2)
    assert np.array_equal(z, [0, 2, 0])
    assert np.abs(got - y).max() <= 1e-12


def test_reduce_matches_floor_oracle_and_lands_in_cell():
    basis = lat.build_basis(FamilyId("dn-second", 4))
    M = 3
    rng = np.random.default_rng(8)
    alpha = rng.random((1_000, 4))
    alpha[:, 1:] *= 2**M
    Y0 = alpha @ basis.G
    y, z = oracles.reduce_to_parallelotope(basis, Y0, M)
    assert np.array_equal(z[:, 1:], np.floor(Y0 @ basis.Ginv)[:, 1:].astype(np.int64))
    assert not z[:, 0].any()
    back = y + z @ basis.G
    assert np.abs(back - Y0).max() <= 1e-9
    a = y @ basis.Ginv
    assert (a >= -lat.GEOM_TOL).all() and (a < 1.0 + lat.GEOM_TOL).all()


def test_reduce_rejects_outside_extended_box():
    basis = lat.build_basis(FamilyId("an", 3))
    with pytest.raises(DomainError):
        oracles.reduce_to_parallelotope(basis, 5.0 * basis.G[1], M=2)
    with pytest.raises(DomainError):
        oracles.reduce_to_parallelotope(basis, -0.5 * basis.G[0], M=1)
    with pytest.raises(DomainError):
        oracles.reduce_to_parallelotope(basis, np.zeros(4), M=1)
