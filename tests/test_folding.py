"""Folding-schedule checks: reflections, invariance of the boundary function,
surviving-piece counts, and reduction into the base cell."""
from __future__ import annotations

import math
import tracemalloc

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


def normal(basis, j, k):
    """The hyperplane normal b_j - b_k of comparator (j, k) on coordinates 2..n."""
    return basis.G[j - 1, 1:] - basis.G[k - 1, 1:]


def on_folded_side(basis, sched, Yt):
    """Mask: on the non-negative side of every comparator's hyperplane, up to
    GEOM_TOL."""
    return np.all(
        [Yt @ normal(basis, j, k) >= -lat.GEOM_TOL for j, k in fo.comparators(sched)], axis=0
    )


def reflection_image(basis, f, sched, Yt):
    """c of each point after the compare-exchange layers of the M = 0
    network, the paper's ReLU fold, read off the last one's units by its
    gadget's read-out map (the network folds that map into its piece layer);
    with no comparator c is y~ Gt^T."""
    layers = net.synthesize(basis, sched, f, M=0).layers
    stage = tuple(l for l in layers if l.tag == net.TAG_REFLECTION)
    if not stage:
        return Yt @ basis.G[1:, 1:].T
    last = fo.build_folded_boundary(f, sched).pairs[-1]
    _, read_out = net._max_min(basis.n - 1, [last], ("max", "min"))
    return net.forward(net.Network(layers=stage, meta={}), Yt) @ read_out.T


@pytest.mark.parametrize(
    "family,n,count",
    [("dn-const-a", 4, 3), ("dn-second", 3, 0), ("en", 6, 4), ("an", 5, 6)],
)
def test_schedule_counts(family, n, count):
    fid = FamilyId(family, n)
    basis = lat.build_basis(fid)
    sched = fo.build_schedule(fid, basis)
    assert len(fo.comparators(sched)) == count


def test_schedule_count_binomials():
    for family, shift in [("an", 1), ("dn-const-a", 1), ("dn-second", 2)]:
        for n in range(3, 9):
            if (family, n) not in FOLDED_STRUCTURE:
                continue
            fid = FamilyId(family, n)
            sched = fo.build_schedule(fid, lat.build_basis(fid))
            assert len(fo.comparators(sched)) == math.comb(n - shift, 2)
    for n in range(6, 9):
        fid = FamilyId("en", n)
        pairs = fo.comparators(fo.build_schedule(fid, lat.build_basis(fid)))
        assert len(pairs) == math.comb(n - 3, 2) + 1
        assert pairs[0] == (2, 3)


def test_schedule_normals_are_basis_differences():
    # the normal b_j - b_k has first coordinate exactly zero, and the
    # reflection across it swaps c_j and c_k
    _, basis, _, sched = make("en", 6)
    Yt = lat.sample_domain(basis, seed=0, count=500)
    C = Yt @ basis.G[1:, 1:].T
    for j, k in fo.comparators(sched):
        assert basis.G[j - 1, 0] - basis.G[k - 1, 0] == 0.0
        v = normal(basis, j, k)
        mirrored = Yt - np.outer(2 * (Yt @ v) / (v @ v), v)
        swapped = C.copy()
        swapped[:, [j - 2, k - 2]] = C[:, [k - 2, j - 2]]
        np.testing.assert_allclose(mirrored @ basis.G[1:, 1:].T, swapped, rtol=0, atol=1e-12)


def test_sort_fold_identity_on_folded_points():
    # the fold is idempotent and fixes points already on the folded side
    _, basis, f, sched = make("dn-const-a", 4)
    Yt = lat.sample_domain(basis, seed=0, count=2_000)
    folded = fold(basis, f, sched, Yt)
    np.testing.assert_allclose(fold(basis, f, sched, folded), folded, rtol=0, atol=1e-12)
    already = Yt[on_folded_side(basis, sched, Yt)]
    assert 0 < len(already) < len(Yt)
    np.testing.assert_allclose(fold(basis, f, sched, already), already, rtol=0, atol=1e-12)


def test_sort_fold_single_reflection_same_orbit():
    _, basis, f, sched = make("an", 4)
    Yt = lat.sample_domain(basis, seed=1, count=500)
    v = normal(basis, *fo.comparators(sched)[2])
    mirrored = Yt - np.outer(2 * (Yt @ v) / (v @ v), v)
    a = fold(basis, f, sched, Yt)
    b = fold(basis, f, sched, mirrored)
    assert np.abs(a - b).max() <= 1e-12


@pytest.mark.parametrize("family,n", sorted(FOLDED_STRUCTURE))
def test_sort_fold_output_satisfies_predicate(family, n):
    # in c the sort meets every comparator's inequality c_j >= c_k exactly,
    # and it only permutes c within each block
    _, basis, f, sched = make(family, n)
    ff = fo.build_folded_boundary(f, sched)
    Yt = lat.sample_domain(basis, seed=2, count=1_000)
    C = fo.sort_fold(ff, Yt)
    for j, k in fo.comparators(sched):
        assert (C[:, j - 2] >= C[:, k - 2]).all()
    C0 = Yt @ ff.Gt.T
    free = [c for c in range(n - 1) if not any(c + 2 in blk for blk in sched)]
    assert np.array_equal(C[:, free], C0[:, free])
    for blk in sched:
        cols = np.array(blk) - 2
        assert np.array_equal(np.sort(C[:, cols], axis=1), np.sort(C0[:, cols], axis=1))


def test_single_pass_reaches_fixpoint():
    """A second reference for the fold, written out: one sweep of the
    comparators' reflections, in comparator order, lands every point on the
    sort's image."""
    for family, n in [("an", 6), ("dn-const-a", 6), ("dn-second", 6), ("en", 8)]:
        _, basis, f, sched = make(family, n)
        Yt = lat.sample_domain(basis, seed=3, count=1_000)
        out = Yt.copy()
        for j, k in fo.comparators(sched):
            v = normal(basis, j, k)
            dot = out @ v
            mask = dot < 0.0
            out[mask] -= np.outer(2 * dot[mask] / (v @ v), v)
        np.testing.assert_allclose(out, fold(basis, f, sched, Yt), rtol=0, atol=1e-12)


def test_sort_fold_scalar_and_empty_schedule():
    _, basis, f, sched = make("dn-second", 3)
    assert len(sched) == 0
    ff = fo.build_folded_boundary(f, sched)
    assert ff.pairs == ()
    yt = np.array([0.3, -0.4])
    np.testing.assert_allclose(fold(basis, f, sched, yt), [yt], rtol=0, atol=1e-15)
    _, basis4, f4, sched4 = make("dn-second", 4)
    yt = lat.sample_domain(basis4, seed=4, count=1)[0]
    out = fold(basis4, f4, sched4, yt)
    assert out.shape == (1, yt.size)
    assert on_folded_side(basis4, sched4, out).all()


@pytest.mark.parametrize(
    "family,n", [("an", 4), ("dn-const-a", 4), ("dn-second", 5), ("en", 6)]
)
def test_fold_invariance(family, n):
    _, _, f, _ = make(family, n)
    dev = fo.verify_fold_invariance(f, seed=0, count=10_000)
    assert dev <= 1e-9


@pytest.mark.parametrize("family,n", [("dn-const-a", 5), ("en", 6)])
@pytest.mark.parametrize("count", [4_000, 1])
def test_fold_invariance_samples_one_seeded_draw(family, n, count):
    # the samples are one sample_domain draw, fixed by (seed, count)
    _, basis, f, sched = make(family, n)
    Yt = lat.sample_domain(basis, seed=7, count=count)
    dense, _ = bd.eval_boundary_batch(f, Yt)
    folded = fo.eval_folded_batch(fo.build_folded_boundary(f, sched), Yt)
    worst = float(np.abs(dense - folded).max())
    assert fo.verify_fold_invariance(f, seed=7, count=count) == worst


def test_fold_invariance_rejects_bad_count():
    _, _, f, _ = make("an", 3)
    with pytest.raises(DomainError):
        fo.verify_fold_invariance(f, seed=0, count=0)


def spy_dense(monkeypatch, f):
    """Records the row count of each full dense min-max `_min_max` runs
    over f's memberships (the fold-first side runs it over fewer)."""
    calls, min_max = [], bd._min_max

    def spy(X, W, bias, group, column):
        if len(group) == len(f.memberships):
            calls.append(len(X))
        return min_max(X, W, bias, group, column)

    monkeypatch.setattr(bd, "_min_max", spy)
    return calls


@pytest.mark.parametrize("family,n,full", [
    ("an", 8, []),
    ("dn-second", 8, []),
    ("en", 8, []),
    ("an", 5, [10_000]),
])
def test_fold_check_certifies_a_correct_fold(monkeypatch, family, n, full):
    """On a correct fold the certificate covers every point: no block of
    the dense side takes the full min-max. an 5 has 48 memberships, below
    NEAR_MEMBERSHIPS, so its dense side is the full min-max of all points."""
    _, _, f, _ = make(family, n)
    calls = spy_dense(monkeypatch, f)
    assert fo.verify_fold_invariance(f, seed=1, count=10_000) <= fo.FOLD_DEV_LIMIT
    assert calls == full


@pytest.mark.parametrize("wrong,fallbacks", [
    ("every 7th point", [512, 512, 612]),
    ("one whole block", [512]),
    ("the highest plane", [512, 512, 612]),
    ("the lowest plane", [512, 512, 612]),
])
def test_fold_check_shows_a_wrong_fold(monkeypatch, wrong, fallbacks):
    """A fold-first value off by more than FOLD_DEV_LIMIT leaves its point
    uncertified, so its block takes the full min-max, and the check still
    reports max |dense - folded| exactly. A value on the height of another
    plane than f's puts exactly one plane in the band: at the highest plane
    only the groups that hold it reach the band, and at the lowest plane
    every group has a member above it, so neither is certified."""
    _, basis, f, _ = make("en", 8)
    count = 3 * bd.EVAL_ROWS + 100
    Yt = lat.sample_domain(basis, seed=5, count=count)
    folded = fo.eval_folded_batch(fo.fold_first(basis), Yt)
    A, c = oracles.reference_pieces(f)
    heights = Yt @ A.T + c
    if wrong == "every 7th point":
        folded[::7] += 1e-6
    elif wrong == "one whole block":
        folded[bd.EVAL_ROWS : 2 * bd.EVAL_ROWS] -= 0.5
    else:
        folded = heights.max(axis=1) if wrong == "the highest plane" else heights.min(axis=1)
    dense, _ = bd.eval_boundary_batch(f, Yt)
    monkeypatch.setattr(fo, "eval_folded_batch", lambda ff, Y: folded)
    calls = spy_dense(monkeypatch, f)
    assert fo.verify_fold_invariance(f, seed=5, count=count) == np.abs(dense - folded).max()
    assert calls == fallbacks


def test_fold_check_memory_is_bounded():
    """200k samples at en 8 (161 planes, 1,205 memberships): the dense side
    takes its bits in chunks of EVAL_CHUNK blocks, packed block by block,
    so the check peaks near 26.6 MB, most of it the samples and their fold.
    The float-gather dense side it replaced peaked at 27.96 MB."""
    _, _, f, _ = make("en", 8)
    tracemalloc.start()
    try:
        fo.verify_fold_invariance(f, seed=3, count=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28_000_000


def test_fold_check_working_set_at_10k():
    """10k samples at en 8, traced on a second call, so every memoized
    builder has run: the dense side holds one block's bools and its chunk's
    packed bits, so the check peaks near 3.3 MB (5.1 MB on a first call,
    which also builds the fold-first boundary). Chunk-wide bool tables of
    planes x points, packed once per chunk, peaked at 5.9 MB (7.8 MB)."""
    _, _, f, _ = make("en", 8)
    fo.verify_fold_invariance(f, seed=3, count=10_000)
    tracemalloc.start()
    try:
        fo.verify_fold_invariance(f, seed=3, count=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_500_000


@pytest.mark.parametrize("family,n", sorted(FOLDED_STRUCTURE))
def test_folded_structure_frozen(family, n):
    _, basis, f, sched = make(family, n)
    memberships = fo.folded_structure(f, sched)
    planes, groups = np.unique(memberships[:, 1]), np.unique(memberships[:, 0])
    assert (len(memberships), len(planes), len(groups)) == FOLDED_STRUCTURE[
        (family, n)
    ]


# every acceptance instance plus an 1, whose projected domain is a point
CHAMBER_SIZE = {
    "an": lambda n: 2 * n,
    "dn-const-a": lambda n: 2 * n,
    "dn-second": lambda n: 4 * n - 4,
    "en": lambda n: 6 * n - 12,
}


@pytest.mark.parametrize(
    "family,n",
    [("an", n) for n in range(1, 13)]
    + [(fam, n) for fam in ("dn-const-a", "dn-second") for n in range(2, 13)]
    + [("en", n) for n in (6, 7, 8)],
)
def test_chamber_corners_pass_the_integer_step_test(family, n):
    # the corners z gram (e_j - e_k) >= 0 for every comparator (j, k), in the
    # lexicographic order of all 2^n corners
    fid = FamilyId(family, n)
    basis = lat.build_basis(fid)
    sched = fo.build_schedule(fid, basis)
    z = lat.enumerate_corners(basis).z
    chamber = fo.chamber_corners(basis, sched)
    assert np.array_equal(chamber, z[oracles.on_comparator_side(basis, sched, z)])
    assert len(chamber) == CHAMBER_SIZE[family](n)


def plane_key_groups(f, memberships):
    """The groups of the membership rows, each as the set of its plane keys."""
    plane_keys = oracles.boundary_structure(f)[0]
    groups = {}
    for g, p in memberships.tolist():
        groups.setdefault(g, set()).add(plane_keys[p])
    return {frozenset(keys) for keys in groups.values()}


@pytest.mark.parametrize(
    "family,n",
    sorted(FOLDED_STRUCTURE) + [("an", 10), ("dn-const-a", 10), ("dn-second", 10)],
)
def test_chamber_f_is_the_surviving_f(family, n):
    # f from the chamber corners alone keeps every pair, and its groups are
    # the surviving groups of the f built from all 2^n corners
    _, basis, f, sched = make(family, n)
    chamber = bd.build_boundary(basis, fo.chamber_corners(basis, sched))
    for z in (chamber.pair_x, chamber.pair_xp):
        assert oracles.on_comparator_side(basis, sched, z).all()
    memberships = fo.folded_structure(chamber, sched)
    assert np.array_equal(memberships, chamber.memberships)
    assert plane_key_groups(chamber, memberships) == plane_key_groups(
        f, fo.folded_structure(f, sched)
    )
    if (family, n) in FOLDED_STRUCTURE:
        group, plane = memberships.T
        got = (len(memberships), len(np.unique(plane)), len(np.unique(group)))
        assert got == FOLDED_STRUCTURE[(family, n)]


@pytest.mark.parametrize(
    "family,n,chamber",
    [(family, n, False) for family, n in sorted(FOLDED_STRUCTURE)]
    + [("an", 64, True), ("dn-second", 64, True)],
)
def test_folded_structure_is_the_gram_row_rule(family, n, chamber):
    # the label rule (descending within each block) keeps the memberships
    # whose pair has both labels on the non-negative side of every
    # comparator, by the Gram rows; past the corner cap on the chamber f
    fid = FamilyId(family, n)
    basis = lat.build_basis(fid)
    sched = fo.build_schedule(fid, basis)
    f = bd.build_boundary(basis, fo.chamber_corners(basis, sched) if chamber else None)
    keep = oracles.on_comparator_side(basis, sched, f.pair_x)
    keep &= oracles.on_comparator_side(basis, sched, f.pair_xp)
    want = f.memberships[np.unique(f.pair_memb[keep])]
    assert np.array_equal(fo.folded_structure(f, sched), want)


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
    np.testing.assert_allclose(
        fo.eval_folded_batch(fo.fold_first(basis), Yt), dense, rtol=0, atol=1e-12
    )


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
    # the sorted c is the image under the network's compare-exchange layers
    _, basis, f, sched = make(family, n)
    Yt = agreement_points(basis, f)
    ref = reflection_image(basis, f, sched, Yt)
    C = fo.sort_fold(fo.build_folded_boundary(f, sched), Yt)
    np.testing.assert_allclose(C, ref, rtol=0, atol=1e-12)
    # mapped back through Gt^-T, it lies on the folded side
    back = fold(basis, f, sched, Yt)
    assert on_folded_side(basis, sched, back).all()
    # reflections through the origin preserve the norm
    np.testing.assert_allclose(
        (back**2).sum(axis=1), (Yt**2).sum(axis=1), rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize(
    "family,n,blocks",
    [
        ("an", 1, ()),
        ("an", 2, ()),
        ("an", 6, ((2, 3, 4, 5, 6),)),
        ("dn-const-a", 5, ((2, 3, 4, 5),)),
        ("dn-second", 3, ()),
        ("dn-second", 6, ((3, 4, 5, 6),)),
        ("en", 8, ((2, 3), (4, 5, 6, 7, 8))),
    ],
)
def test_schedule_blocks_and_fold_first_pairs(family, n, blocks):
    """The schedule is the family's blocks, and the fold-first pairs are its
    comparators on the columns of c: per block, j ascending, then k."""
    _, _, f, sched = make(family, n)
    assert sched == blocks
    pairs = [(j - 2, k - 2) for blk in blocks for j in blk for k in blk if j < k]
    assert fo.build_folded_boundary(f, sched).pairs == tuple(pairs)
    if family == "en":
        assert pairs[:3] == [(0, 1), (2, 3), (2, 4)]


@pytest.mark.parametrize("family,n,other", [("an", 4, "dn-second"), ("an", 8, "en")])
def test_build_schedule_rejects_another_familys_basis(family, n, other):
    # the basis must be fid's: dn-second 4 and en 8 have the an fid's rank,
    # and their Grams give other blocks
    basis = lat.build_basis(FamilyId(other, n))
    with pytest.raises(ConstructionError):
        fo.build_schedule(FamilyId(family, n), basis)


def gram_keeps_swap(gram, j, k):
    """Whether swapping b_j and b_k (1-based) leaves the whole Gram as it is."""
    p = np.arange(len(gram))
    p[[j - 1, k - 1]] = [k - 1, j - 1]
    return np.array_equal(gram[np.ix_(p, p)], gram)


def family_instances(family):
    """Every rank of the family from its lowest to 40 (en: 6-8), and 64 and
    256 where it has no top."""
    lo, hi = lat.FAMILY_RANGES[family]
    return list(range(lo, (hi or 40) + 1)) + ([] if hi else [64, 256])


@pytest.mark.parametrize("family", lat.FAMILIES)
def test_schedule_is_the_family_table(family):
    # the blocks read off the Gram are the family's written-out blocks
    for n in family_instances(family):
        fid = FamilyId(family, n)
        assert fo.build_schedule(fid, lat.build_basis(fid)) == oracles.family_blocks(fid), n


@pytest.mark.parametrize("family", lat.FAMILIES)
def test_schedule_blocks_are_the_gram_swap_classes(family):
    # maximality: two indices >= 2 swap without changing the Gram exactly
    # when they share a block, so a swap across two blocks, or of a block
    # index with a free one, changes it
    for n in [m for m in family_instances(family) if m <= 64]:
        fid = FamilyId(family, n)
        basis = lat.build_basis(fid)
        block_of = {j: b for b, blk in enumerate(fo.build_schedule(fid, basis)) for j in blk}
        for j in range(2, n + 1):
            for k in range(j + 1, n + 1):
                same = j in block_of and block_of[j] == block_of.get(k)
                assert gram_keeps_swap(basis.gram, j, k) == same, (n, j, k)


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
    # the sampler's sort images, in c, equal the compare-exchange layers'
    # images of the same seeded samples
    _, basis, f, sched = make("an", 4)
    ff = fo.build_folded_boundary(f, sched)
    pts = oracles.sample_folded_domain(basis, ff, seed=5, count=5_000)
    assert pts.shape == (5_000, 3)
    ref = reflection_image(basis, f, sched, lat.sample_domain(basis, seed=5, count=5_000))
    np.testing.assert_allclose(pts @ ff.Gt.T, ref, rtol=0, atol=1e-12)
    assert on_folded_side(basis, sched, pts).all()
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
