"""Boundary-function checks: neighbor pairs, group structure, piece counts,
evaluation, and bit decoding against the brute-force corner oracle."""
from __future__ import annotations

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from latticecpwl import boundary as bd
from latticecpwl import folding as fo
from latticecpwl import lattices as lat
from latticecpwl.errors import InternalCheckError
from latticecpwl.lattices import FamilyId

import oracles

# closed-form piece counts, frozen from independent evaluation of the sums
AN_COUNTS = {2: 3, 3: 8, 4: 20, 5: 48, 6: 112, 7: 256, 8: 576}
DN_CONST_A_COUNTS = {3: 5, 4: 18, 5: 56, 6: 160, 7: 432, 8: 1120}
DN_SECOND_COUNTS = {3: 6, 4: 20, 5: 57, 6: 151, 7: 383, 8: 943}
EN_COUNTS = {6: 156, 7: 445, 8: 1205}
EN_LITERAL_READING = {6: 1, 7: 25, 8: 122}


@pytest.fixture(scope="module")
def a3():
    basis = lat.build_basis(FamilyId("an", 3))
    return basis, bd.build_boundary(basis)


def group_planes(f):
    """Each group's plane ids, ascending."""
    return oracles.boundary_structure(f)[1]


def heights(f, Yt):
    """Per point, every plane's height from `pieces` at the points'
    `tail_coords`: the heights eval_boundary_batch reduces, bit for bit."""
    W, bias = bd.pieces(f)
    return bd.tail_coords(f.basis, Yt) @ W + bias


def neighbors(f, x):
    """C^0 endpoints of the neighbor pairs whose C^1 endpoint is x."""
    pairs = zip(f.pair_x.tolist(), f.pair_xp.tolist())
    return {tuple(xp) for px, xp in pairs if tuple(px) == x}


def test_neighbors_a2_b1():
    f = bd.build_boundary(lat.build_basis(FamilyId("an", 2)))
    assert neighbors(f, (1, 0)) == {(0, 0), (0, 1)}


def test_neighbors_dn_second_examples():
    f = bd.build_boundary(lat.build_basis(FamilyId("dn-second", 3)))
    # b_1: perpendicular b_2 is excluded
    assert neighbors(f, (1, 0, 0)) == {(0, 0, 0), (0, 0, 1)}
    # b_1 + b_2: three neighbors
    assert neighbors(f, (1, 1, 0)) == {(0, 1, 0), (0, 1, 1), (0, 0, 1)}


def test_build_boundary_a2_groups():
    basis = lat.build_basis(FamilyId("an", 2))
    f = bd.build_boundary(basis)
    assert sorted(len(g) for g in group_planes(f)) == [1, 2]
    assert len(f.memberships) == 3


def test_build_boundary_a3_structure(a3):
    _, f = a3
    plane_keys, planes, _ = oracles.boundary_structure(f)
    assert len(planes) == 4
    assert sorted(len(g) for g in planes) == [1, 2, 2, 3]
    assert len(f.memberships) == 8
    # 8 memberships sit on only 5 distinct hyperplanes
    assert len(plane_keys) == len(f.d) == 5


def test_build_boundary_dn_const_a3_simplex_sizes():
    basis = lat.build_basis(FamilyId("dn-const-a", 3))
    f = bd.build_boundary(basis)
    # two 1-simplices and one 3-simplex; the all-ones corner has no neighbors
    assert sorted(len(g) for g in group_planes(f)) == [1, 1, 3]
    assert len(f.memberships) == 5


def test_build_boundary_dn_second3_merges_chain_corners():
    basis = lat.build_basis(FamilyId("dn-second", 3))
    f = bd.build_boundary(basis)
    # 7 neighbor pairs, two chain corners share their single bisector
    assert f.pair_memb.shape[0] == 7
    _, planes, corners = oracles.boundary_structure(f)
    assert sorted(len(g) for g in planes) == [1, 2, 3]
    assert len(f.memberships) == 6
    merged = [zs for zs in corners if len(zs) == 2]
    assert len(merged) == 1


@pytest.mark.parametrize("n,expected", sorted(AN_COUNTS.items()))
def test_formula_an(n, expected):
    assert bd.count_pieces_formula(FamilyId("an", n)) == expected


@pytest.mark.parametrize("n,expected", sorted(DN_CONST_A_COUNTS.items()))
def test_formula_dn_const_a(n, expected):
    assert bd.count_pieces_formula(FamilyId("dn-const-a", n)) == expected


@pytest.mark.parametrize("n,expected", sorted(DN_SECOND_COUNTS.items()))
def test_formula_dn_second(n, expected):
    assert bd.count_pieces_formula(FamilyId("dn-second", n)) == expected


@pytest.mark.parametrize("n", [6, 7, 8])
def test_formula_en_readings(n):
    readings = bd.en_formula_readings(n)
    assert readings["multiplicity_over_i"] == EN_COUNTS[n]
    assert readings["multiplicity_literal"] == EN_LITERAL_READING[n]
    assert bd.count_pieces_formula(FamilyId("en", n)) == EN_COUNTS[n]


@pytest.mark.parametrize(
    "family,lo,hi",
    [("an", 2, 6), ("dn-const-a", 3, 6), ("dn-second", 3, 6), ("en", 6, 7)],
)
def test_oracle_matches_formula_small(family, lo, hi):
    for n in range(lo, hi + 1):
        fid = FamilyId(family, n)
        f = bd.build_boundary(lat.build_basis(fid))
        assert len(f.memberships) == bd.count_pieces_formula(fid)


def test_bisector_through_midpoint(a3):
    basis, f = a3
    mid = (f.pair_x + f.pair_xp) @ basis.G / 2.0
    pair_plane = f.memberships[f.pair_memb, 1]
    A, c = oracles.reference_pieces(f)
    resid = np.abs(mid[:, 0] - ((mid[:, 1:] * A[pair_plane]).sum(axis=1) + c[pair_plane]))
    assert resid.max() <= 1e-9


def test_corner_above_own_cap(a3):
    basis, f = a3
    _, planes_per_group, group_corner_z = oracles.boundary_structure(f)
    A, c = oracles.reference_pieces(f)
    for planes, zs in zip(planes_per_group, group_corner_z):
        for z in zs:
            x = np.asarray(z, dtype=float) @ basis.G
            cap = (x[1:] @ A[list(planes)].T + c[list(planes)]).max()
            assert x[0] > cap


def test_eval_at_midpoints_equals_midheight(a3):
    basis, f = a3
    mids = (f.pair_x + f.pair_xp) @ basis.G / 2.0
    vals, _ = bd.eval_boundary_batch(f, mids[:, 1:])
    # at a pair midpoint f is at most the bisector height; for the pair whose
    # piece is active there it is exactly the midpoint height
    assert np.all(vals <= mids[:, 0] + 1e-9)
    active_exact = np.abs(vals - mids[:, 0]) <= 1e-9
    assert active_exact.any()


def test_eval_values_inside_slab(a3):
    basis, f = a3
    Yt = lat.sample_domain(basis, seed=3, count=1000)
    vals, _ = bd.eval_boundary_batch(f, Yt)
    assert np.all(vals >= -1e-9)
    assert np.all(vals <= basis.b1_e1 + 1e-9)


def _reference_eval(planes_per_group, h):
    """Plain-loop min-of-max with first-occurrence ties, for cross-checking.

    Takes the per-plane heights h directly so the comparison isolates the
    selection semantics (matrix-matrix and vector-matrix products can differ
    in the last ulp)."""
    best_val = None
    best_id = None
    mid = 0
    for planes in planes_per_group:
        gval = None
        gid = None
        for p in planes:
            if gval is None or h[p] > gval:
                gval, gid = h[p], mid
            mid += 1
        if best_val is None or gval < best_val:
            best_val, best_id = gval, gid
    return best_val, best_id


def test_eval_active_matches_reference():
    """Vectorized argmax/argmin must agree with a plain loop, including on
    exact float ties (first occurrence wins at both levels)."""
    for family, n, seed in [("an", 2, 5), ("an", 3, 6), ("dn-second", 3, 7)]:
        basis = lat.build_basis(FamilyId(family, n))
        f = bd.build_boundary(basis)
        Yt = lat.sample_domain(basis, seed=seed, count=300)
        # include points with exact cross-group ties (domain symmetry axis)
        lo, hi = oracles.domain_bbox(basis)
        Yt = np.vstack([Yt, [(lo + hi) / 2.0]])
        vals, act = bd.eval_boundary_batch(f, Yt)
        H = heights(f, Yt)
        planes = group_planes(f)
        for i in range(Yt.shape[0]):
            rv, rid = _reference_eval(planes, H[i])
            assert vals[i] == rv
            assert act[i] == rid


def n8_tie_inputs(family):
    """f at n = 8 and its exact-tie inputs: every projected corner and every
    pair midpoint."""
    basis = lat.build_basis(FamilyId(family, 8))
    f = bd.build_boundary(basis)
    corners = lat.enumerate_corners(basis).z @ basis.G
    mids = (f.pair_x + f.pair_xp) @ basis.G / 2.0
    return f, np.vstack([corners, mids])[:, 1:]


def assert_matches_reference(f, Yt):
    vals, act = bd.eval_boundary_batch(f, Yt)
    H = heights(f, Yt)
    planes = group_planes(f)
    for i in range(Yt.shape[0]):
        rv, rid = _reference_eval(planes, H[i])
        assert vals[i] == rv
        assert act[i] == rid
    return vals, act


@pytest.mark.parametrize("family", ["an", "en"])
def test_eval_active_matches_reference_on_ties_at_n8(family):
    """The same agreement at n = 8 (largest groups of 8 and 56 planes) on
    exact-tie inputs."""
    assert_matches_reference(*n8_tie_inputs(family))


@pytest.mark.parametrize("family", ["an", "en"])
def test_eval_matches_reference_across_ragged_blocks(family, monkeypatch):
    """Blocks of 7 rows: the n = 8 tie inputs span many blocks and end in a
    ragged one. Prefixes of every length mod 7, including the one that leaves
    a one-row tail, give the same bits as the whole batch."""
    monkeypatch.setattr(bd, "EVAL_ROWS", 7)
    f, Yt = n8_tie_inputs(family)
    vals, act = assert_matches_reference(f, Yt)
    for m in range(Yt.shape[0] - 7, Yt.shape[0]):
        v, a = bd.eval_boundary_batch(f, Yt[:m])
        assert v.tobytes() == vals[:m].tobytes()
        assert np.array_equal(a, act[:m])


@pytest.mark.parametrize("family,n", [("an", 2), ("an", 8), ("en", 8)])
def test_eval_single_point_and_empty_input(family, n):
    basis = lat.build_basis(FamilyId(family, n))
    f = bd.build_boundary(basis)
    assert_matches_reference(f, lat.sample_domain(basis, seed=2, count=1))
    vals, act = bd.eval_boundary_batch(f, np.empty((0, n - 1)))
    assert vals.shape == act.shape == (0,)
    assert act.dtype == np.int64


@pytest.mark.parametrize("family,n", [
    (family, n)
    for family in lat.FAMILIES
    for n in range(lat.FAMILY_RANGES[family][0], 9)
])
def test_min_max_values_alone_equal_eval_values(family, n):
    """The values-only kernel, which the fold check's dense side and
    fold-first serving call, gives eval_boundary_batch's values bit for bit.
    Row counts around EVAL_ROWS put the tail-block rule through both modes."""
    basis = lat.build_basis(FamilyId(family, n))
    f = bd.build_boundary(basis)
    rows = bd.EVAL_ROWS
    Yt = lat.sample_domain(basis, seed=5, count=2 * rows + 1)
    for count in (1, rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 1):
        C = bd.tail_coords(basis, Yt[:count])
        vals = bd._min_max(C, *bd.pieces(f), *f.memberships.T)
        assert vals.tobytes() == bd.eval_boundary_batch(f, Yt[:count])[0].tobytes()


def test_eval_working_set_is_bounded():
    """The kernel's memory does not grow with the batch: 200k points at en 8
    (1,205 memberships) stay far below one (points x memberships) gather."""
    basis = lat.build_basis(FamilyId("en", 8))
    f = bd.build_boundary(basis)
    Yt = lat.sample_domain(basis, seed=3, count=200_000)
    tracemalloc.start()
    try:
        bd.eval_boundary_batch(f, Yt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32_000_000


@pytest.mark.parametrize("family,n", [("en", 8), ("dn-const-a", 10), ("an", 12)])
def test_certify_working_set_is_bounded(family, n):
    """Witnesses go in blocks of EVAL_ROWS, so beside the witnesses the
    working set is one block's (planes x witnesses) heights and its packed
    bits: en 8 (1,205 memberships) peaks near 1.8 MiB, dn-const-a 10
    (6,912) near 2.1 MiB and an 12 (13,312) near 4.1 MiB. One unblocked
    (memberships x memberships) bit table alone is 6 MB at dn-const-a 10
    and 22 MB at an 12."""
    f = bd.build_boundary(lat.build_basis(FamilyId(family, n)))
    tracemalloc.start()
    try:
        certified = bd.certify_pieces(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert certified.all()
    assert peak < 6 * 2**20


@pytest.mark.parametrize(
    "family,n",
    [("an", n) for n in range(2, 9)]
    + [(fam, n) for fam in ("dn-const-a", "dn-second") for n in range(3, 9)]
    + [("en", n) for n in range(6, 9)],
)
def test_pair_memb_matches_corner_and_plane_key(family, n):
    """Each pair's membership, rebuilt from its upper corner's merged group
    and its bisector's integer key, both numbered by the per-pair loop, is
    the one build_boundary recorded; every membership has a pair."""
    basis = lat.build_basis(FamilyId(family, n))
    f = bd.build_boundary(basis)
    gram = np.asarray(basis.gram, dtype=np.int64)
    plane_keys, _, group_corner_z = _reference_build_boundary(basis)[1]
    group_of = {z: g for g, zs in enumerate(group_corner_z) for z in zs}
    plane_of = {key: pid for pid, key in enumerate(plane_keys)}
    expected = []
    for x, xp in zip(f.pair_x, f.pair_xp):
        d = x - xp
        key = (tuple(int(v) for v in d), int(2 * (xp @ gram @ d) + d @ gram @ d))
        expected.append((group_of[tuple(int(v) for v in x)], plane_of[key]))
    assert np.array_equal(f.memberships[f.pair_memb], np.array(expected))
    assert np.array_equal(np.unique(f.pair_memb), np.arange(len(f.memberships)))



def _reference_build_boundary(basis, z=None):
    """The per-pair loop build_boundary replaced, kept as its oracle: every
    C^1 corner of z (all 2^n by default) against every C^0 corner of z, one
    dict lookup per pair. Returns f and the loop's own (plane_keys,
    group_planes, group_corner_z)."""
    n = basis.n
    gram = basis.gram.astype(np.int64)
    if z is None:
        z = lat.enumerate_corners(basis).z
    c1, c0 = z[z[:, 0] == 1], z[z[:, 0] == 0]

    plane_ids = {}
    keys = []
    pair_x = []
    pair_xp = []
    pair_plane = []
    pair_corner = []  # index into corner_groups
    corner_groups = []

    for x in c1:
        d = x[None, :] - c0
        norms = np.einsum("ij,jk,ik->i", d, gram, d)
        members = set()
        for row in np.flatnonzero(norms == 2):
            dd = d[row]
            xp = c0[row]
            two_p = int(2 * (xp @ gram @ dd) + dd @ gram @ dd)
            key = (tuple(int(v) for v in dd), two_p)
            pid = plane_ids.get(key)
            if pid is None:
                pid = len(keys)
                plane_ids[key] = pid
                keys.append(key)
            members.add(pid)
            pair_x.append(x.copy())
            pair_xp.append(xp.copy())
            pair_plane.append(pid)
            pair_corner.append(len(corner_groups))
        if members:
            corner_groups.append((tuple(int(v) for v in x), frozenset(members)))

    # merge corners whose whole groups coincide
    merged = {}
    for zx, group in corner_groups:
        merged.setdefault(group, []).append(zx)
    group_items = sorted(merged.items(), key=lambda kv: tuple(sorted(kv[0])))
    group_planes = tuple(tuple(sorted(g)) for g, _ in group_items)
    group_corner_z = tuple(tuple(sorted(zs)) for _, zs in group_items)
    # a pair's membership is (the merged group of its C^1 corner, its plane)
    group_of = {g: gi for gi, (g, _) in enumerate(group_items)}
    memb_rows = [(gi, pid) for gi, planes in enumerate(group_planes) for pid in planes]
    memb_of = {row: m for m, row in enumerate(memb_rows)}
    pair_memb = [
        memb_of[group_of[corner_groups[ci][1]], pid]
        for ci, pid in zip(pair_corner, pair_plane)
    ]

    ref = bd.BoundaryFunction(
        basis=basis,
        d=np.asarray([k[0] for k in keys], dtype=np.int64).reshape(-1, n),
        p2=np.asarray([k[1] for k in keys], dtype=np.int64),
        memberships=np.asarray(memb_rows, dtype=np.int64).reshape(-1, 2),
        pair_x=np.asarray(pair_x, dtype=np.int64).reshape(-1, n),
        pair_xp=np.asarray(pair_xp, dtype=np.int64).reshape(-1, n),
        pair_memb=np.asarray(pair_memb, dtype=np.int64),
    )
    return ref, (tuple(keys), group_planes, group_corner_z)


def assert_same_boundary(f, reference):
    ref, structure = reference
    for name in ("d", "p2", "memberships", "pair_x", "pair_xp", "pair_memb"):
        got, want = getattr(f, name), getattr(ref, name)
        assert (got.shape, got.dtype) == (want.shape, want.dtype), name
        assert got.tobytes() == want.tobytes(), name
    assert oracles.boundary_structure(f) == structure


@pytest.mark.parametrize(
    "family,n",
    [("an", n) for n in range(1, 11)]
    + [(fam, n) for fam in ("dn-const-a", "dn-second") for n in range(2, 11)]
    + [("en", n) for n in range(6, 9)],
)
def test_build_boundary_matches_reference_loop(family, n):
    """The array pass reproduces the per-pair loop byte for byte."""
    basis = lat.build_basis(FamilyId(family, n))
    assert_same_boundary(bd.build_boundary(basis), _reference_build_boundary(basis))


@pytest.mark.parametrize(
    "family,n",
    [("an", 1), ("an", 8), ("an", 24), ("an", 64), ("dn-const-a", 12), ("dn-const-a", 64),
     ("dn-second", 3), ("dn-second", 30), ("dn-second", 64), ("en", 8)],
)
def test_build_boundary_on_chamber_corners_matches_reference_loop(family, n):
    """Given corner labels, the array pass pairs those alone, as the loop does,
    and numbers the plane keys at any rank."""
    fid = FamilyId(family, n)
    basis = lat.build_basis(fid)
    z = fo.chamber_corners(basis, fo.build_schedule(fid, basis))
    assert_same_boundary(bd.build_boundary(basis, z), _reference_build_boundary(basis, z))


FAMILY_INSTANCES = (
    [("an", n) for n in range(1, 11)]
    + [(family, n) for family in ("dn-const-a", "dn-second") for n in range(2, 11)]
    + [("en", n) for n in range(6, 9)]
)


@pytest.mark.parametrize("family,n", FAMILY_INSTANCES)
def test_family_bases_meet_what_build_boundary_assumes(family, n):
    """Every basis comes from its family, and these hold on each one, so
    build_boundary and exact_simplex_volume need no branch for a basis that
    breaks them."""
    basis = lat.build_basis(FamilyId(family, n))
    diag = np.diag(basis.gram)
    assert basis.gram.dtype == np.int64
    assert not (diag % 2).any() and diag.min() == 2
    f = bd.build_boundary(basis)
    assert len(f.memberships) >= 1
    # every plane has v_1 = (x - x') G e_1 = b1_e1 exactly: d_1 = 1 on every
    # pair and b_j . e_1 = 0 for j >= 2
    assert ((f.pair_x - f.pair_xp)[:, 0] == 1).all()
    assert not basis.G[1:, 0].any()
    det = abs(np.linalg.det(np.cumsum(basis.G, axis=0)))
    assert det == pytest.approx(np.sqrt(np.linalg.det(basis.gram)), rel=1e-12)


# the acceptance instances, each with its all-corner f, and the chamber f
# of the fold at ranks past the corner enumeration
KEY_INSTANCES = (
    [("an", n, "all") for n in range(2, 9)]
    + [(family, n, "all") for family in ("dn-const-a", "dn-second") for n in range(3, 9)]
    + [("en", n, "all") for n in range(6, 9)]
    + [(family, n, "chamber") for family in ("an", "dn-second") for n in (64, 256)]
)


@pytest.mark.parametrize("family,n,corners", KEY_INSTANCES)
def test_plane_keys_are_roots_that_give_the_pieces(family, n, corners):
    """Every plane's d is a root with d_1 = 1, and the float piece is its
    integer key over G: the reference A = -(d G)[1:] / G_11 and
    c = p2 / (2 G_11) over y~, and `pieces` over c' = y~ G[1:, 1:]^T, which
    is Ginv[1:, 1:]^T A^T and c."""
    fid = FamilyId(family, n)
    basis = lat.build_basis(fid)
    z = None if corners == "all" else fo.chamber_corners(basis, fo.build_schedule(fid, basis))
    f = bd.build_boundary(basis, z)
    assert (f.d.dtype, f.p2.dtype) == (np.int64, np.int64)
    assert (f.d[:, 0] == 1).all()
    assert (np.einsum("ij,jk,ik->i", f.d, basis.gram, f.d) == 2).all()
    G11 = basis.G[0, 0]
    A, c = oracles.reference_pieces(f)
    np.testing.assert_allclose(A, -(f.d @ basis.G)[:, 1:] / G11, rtol=0, atol=1e-12)
    np.testing.assert_allclose(c, f.p2 / (2 * G11), rtol=0, atol=1e-12)
    W, bias = bd.pieces(f)
    np.testing.assert_allclose(W, basis.Ginv[1:, 1:].T @ A.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bias, c, rtol=0, atol=1e-12)


# the surviving pieces, the columns of the fold-first evaluator
FOLDED_PIECES = {
    "an": lambda n: 2 * n - 1,
    "dn-const-a": lambda n: 2 * n - 3,
    "dn-second": lambda n: 6 * n - 12,
}


@pytest.mark.parametrize(
    "family,n",
    [("an", 64), ("dn-second", 24), ("an", 256), ("dn-const-a", 256), ("dn-second", 256)],
)
def test_fold_first_chamber_f_is_non_empty_past_the_corner_cap(family, n):
    ff = fo.fold_first(lat.build_basis(FamilyId(family, n)))
    assert len(ff.group) == FOLDED_PIECES[family](n)


@pytest.fixture(scope="module")
def dn5():
    return bd.build_boundary(lat.build_basis(FamilyId("dn-second", 5)))


def test_check_boundary_accepts_built_f(dn5):
    bd._check_boundary(dn5)


def test_check_boundary_rejects_plane_root_off_its_pair(dn5):
    d = dn5.d.copy()
    d[len(d) // 2, -1] += 1
    with pytest.raises(InternalCheckError, match="root"):
        bd._check_boundary(dataclasses.replace(dn5, d=d))


def test_check_boundary_rejects_plane_missing_midpoint(dn5):
    p2 = dn5.p2.copy()
    p2[len(p2) // 2] += 2
    with pytest.raises(InternalCheckError, match="midpoint"):
        bd._check_boundary(dataclasses.replace(dn5, p2=p2))


@pytest.mark.parametrize("lift", [4, 0], ids=["above", "touching"])
def test_check_boundary_rejects_corner_not_above_its_cap(dn5, lift):
    """Move one membership (h, q) into another group g, as a wrong merge
    would: g's first corner x then stands `lift` above plane q in units of
    2 x gram d - p2, not the 2 of its own planes. Every pair still meets its
    plane, and h keeps other members."""
    group, plane = dn5.memberships.T
    _, first = np.unique(group[dn5.pair_memb], return_index=True)
    X = dn5.pair_x[first]
    height = 2 * X @ dn5.basis.gram @ dn5.d.T - dn5.p2  # (groups, planes)
    sizes = np.bincount(group)
    m, g = next(
        (m, g)
        for m in range(len(group))
        if sizes[group[m]] > 1
        for g in range(len(sizes))
        if g != group[m] and height[g, plane[m]] == lift
    )
    memberships = dn5.memberships.copy()
    memberships[m, 0] = g
    with pytest.raises(InternalCheckError, match="cap"):
        bd._check_boundary(dataclasses.replace(dn5, memberships=memberships))


def test_check_boundary_rejects_group_at_kissing_number(dn5, monkeypatch):
    largest = max(len(planes) for planes in group_planes(dn5))
    monkeypatch.setattr(bd, "_kissing_formula", lambda fid: largest + 1)
    bd._check_boundary(dn5)
    monkeypatch.setattr(bd, "_kissing_formula", lambda fid: largest)
    with pytest.raises(InternalCheckError, match="kissing"):
        bd._check_boundary(dn5)


def test_build_boundary_memory_is_bounded():
    """Construction holds no whole C^1 x C^0 norm table: at dn-second 12
    (2,048 x 2,048 corners, 28,927 memberships) the blocked pass peaks at
    24 MiB, the per-pair loop at 35.5 MiB and one unblocked table at 65.7 MiB."""
    basis = lat.build_basis(FamilyId("dn-second", 12))
    tracemalloc.start()
    try:
        bd.build_boundary(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20

def test_lipschitz_bound(a3):
    basis, f = a3
    rng = np.random.default_rng(1)
    P = lat.sample_domain(basis, seed=21, count=400)
    Q = lat.sample_domain(basis, seed=22, count=400)
    fp, _ = bd.eval_boundary_batch(f, P)
    fq, _ = bd.eval_boundary_batch(f, Q)
    lhs = np.abs(fp - fq)
    rhs = oracles.lipschitz_bound(f) * np.sqrt(((P - Q) ** 2).sum(axis=1))
    assert np.all(lhs <= rhs + 1e-9)


CERTIFIED_CASES = (
    [("an", n) for n in range(1, 11)]
    + [(family, n) for family in ("dn-const-a", "dn-second") for n in range(2, 11)]
    + [("en", n) for n in range(6, 9)]
)


@pytest.mark.parametrize("family,n", CERTIFIED_CASES)
def test_certified_count_equals_oracle_and_formula(family, n):
    """Every enumerated membership clears both margins at its witness, and
    the dense evaluator picks that membership there."""
    fid = FamilyId(family, n)
    f = bd.build_boundary(lat.build_basis(fid))
    assert bd.certify_pieces(f).all()
    assert len(f.memberships) == bd.count_pieces_formula(fid)
    _, first = np.unique(f.pair_memb, return_index=True)
    witnesses = ((f.pair_x[first] + f.pair_xp[first]) @ f.basis.G / 2.0)[:, 1:]
    _, act = bd.eval_boundary_batch(f, witnesses)
    assert np.array_equal(act, np.arange(len(f.memberships)))


def test_certified_count_an_8_reports_576():
    """All 576 pieces of an 8 are certified; 200,000 uniform D(B) points at
    seed 42 hit only 575 of them."""
    row = bd.piece_count_report(FamilyId("an", 8))
    assert (row["formula"], row["oracle"], row["sampled"], row["match"]) == (576, 576, 576, True)


@pytest.mark.parametrize("family,n", [
    (family, n)
    for family in lat.FAMILIES
    for n in range(lat.FAMILY_RANGES[family][0], (lat.FAMILY_RANGES[family][1] or 10) + 1)
] + [("an", 12)])
def test_certificate_bits_equal_float_margins(family, n):
    """The packed-bit certificate gives the booleans of the float-margin
    test over every membership, from each family's lowest rank (an 1 and
    dn-second 2 have one plane) to n = 10, and at an 12."""
    f = bd.build_boundary(lat.build_basis(FamilyId(family, n)))
    assert np.array_equal(bd.certify_pieces(f), oracles.reference_certify_pieces(f))


def test_certificate_drops_a_lowered_plane(monkeypatch):
    """Lowering plane 0's p2 by 20 (its bias by 10: G_11 = 1 here) puts it
    below the other planes of its groups at their witnesses: exactly its
    memberships lose the certificate, and the report no longer matches."""
    fid = FamilyId("dn-second", 4)
    f = bd.build_boundary(lat.build_basis(fid))
    p2 = f.p2.copy()
    p2[0] -= 20
    lowered = dataclasses.replace(f, p2=p2)
    certified = bd.certify_pieces(lowered)
    own = f.memberships[:, 1] == 0
    assert own.sum() == 2
    assert np.array_equal(certified, ~own)
    monkeypatch.setattr(bd, "build_boundary", lambda basis: lowered)
    row = bd.piece_count_report(fid)
    assert (row["oracle"], row["sampled"], row["match"]) == (20, 18, False)


def witness_keys(f, m):
    """K_j = p2_j - d'_j . 2c' of every plane at membership m's witness."""
    pair = np.flatnonzero(f.pair_memb == m)[0]
    c2 = (f.pair_x[pair] + f.pair_xp[pair]) @ f.basis.gram
    return f.p2 - f.d[:, 1:] @ c2[1:]


@pytest.mark.parametrize("gap", [0, 1])
def test_certificate_order_is_strict_within_the_group(dn5, gap):
    """Raise another plane q of membership m's group to `gap` below m's own
    plane at m's witness: a tie takes m's certificate away, a gap of one
    integer keeps it."""
    group, plane = dn5.memberships.T
    m = int(np.flatnonzero(np.bincount(group)[group] > 1)[0])
    q = next(pl for pl in plane[group == group[m]] if pl != plane[m])
    K = witness_keys(dn5, m)
    p2 = dn5.p2.copy()
    p2[q] += K[plane[m]] - K[q] - gap
    assert bd.certify_pieces(dataclasses.replace(dn5, p2=p2))[m] == bool(gap)


@pytest.mark.parametrize("gap", [0, 1])
def test_certificate_order_is_strict_across_groups(dn5, gap):
    """Lower every plane of a group h that shares no plane with membership
    m's group to m's own height at m's witness, then raise one of them by
    `gap`: with no member strictly above, m is not certified."""
    group, plane = dn5.memberships.T
    m = 0
    own_planes = set(plane[group == group[m]].tolist())
    h = next(
        h for h in range(group.max() + 1)
        if not own_planes & set(plane[group == h].tolist())
    )
    K = witness_keys(dn5, m)
    members = plane[group == h]
    p2 = dn5.p2.copy()
    p2[members] += K[plane[m]] - K[members]
    p2[members[0]] += gap
    assert bd.certify_pieces(dataclasses.replace(dn5, p2=p2))[m] == bool(gap)


def test_piece_connectivity_small_n():
    """No hyperplane hosts two disconnected regions inside D(B) at n <= 4.

    Grid points sharing an active membership id must form one connected
    component under grid adjacency (with a tolerant radius to bridge the
    membership's own piece boundary discretization)."""
    for family, n in [("an", 3), ("dn-second", 3), ("dn-const-a", 3), ("an", 4)]:
        basis = lat.build_basis(FamilyId(family, n))
        f = bd.build_boundary(basis)
        d = n - 1
        density = 40 if d <= 2 else 24
        lo, hi = oracles.domain_bbox(basis)
        axes = [np.linspace(lo[j], hi[j], density) for j in range(d)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        inside = oracles.domain_contains(basis, mesh)
        pts = mesh[inside]
        _, act = bd.eval_boundary_batch(f, pts)
        # drop points on (or within float noise of) a piece boundary: exact
        # ties there resolve to the lowest id, which may sit far from that
        # piece's open cell
        A, c = oracles.reference_pieces(f)
        h = pts @ A.T + c
        planes_per_group = group_planes(f)
        gvals = np.stack([h[:, list(g)].max(axis=1) for g in planes_per_group], axis=1)
        top2 = np.sort(gvals, axis=1)[:, :2]
        interior = (top2[:, 1] - top2[:, 0]) > 1e-9
        for planes in planes_per_group:
            if len(planes) < 2:
                continue
            hp = np.sort(h[:, list(planes)], axis=1)[:, -2:]
            interior &= (hp[:, 1] - hp[:, 0]) > 1e-9
        pts, act = pts[interior], act[interior]
        step = np.array([(hi[j] - lo[j]) / (density - 1) for j in range(d)])
        r2 = (1.8 * np.linalg.norm(step)) ** 2
        for m in np.unique(act):
            cloud = pts[act == m]
            if cloud.shape[0] <= 1:
                continue
            # breadth-first flood over the epsilon-graph
            seen = np.zeros(cloud.shape[0], dtype=bool)
            stack = [0]
            seen[0] = True
            while stack:
                i = stack.pop()
                d2 = ((cloud - cloud[i]) ** 2).sum(axis=1)
                for j in np.flatnonzero((d2 <= r2) & ~seen):
                    seen[j] = True
                    stack.append(int(j))
            assert seen.all(), f"{family} n={n}: membership {m} disconnected"


def test_decode_bit_examples(a3):
    basis, f = a3
    # b_1 decodes to 1, the origin to 0, a point exactly on the boundary is ambiguous
    yt = lat.sample_domain(basis, seed=8, count=1)[0]
    val = bd.eval_boundary_batch(f, yt[None, :])[0][0]
    Y = np.stack([basis.G[0], np.zeros(3), np.concatenate([[val], yt])])
    vals, _ = bd.eval_boundary_batch(f, Y[:, 1:])
    assert bd.decode_bit_batch(Y, vals).tolist() == [1, 0, -1]


def test_decode_agrees_with_cvp(a3):
    basis, f = a3
    Y = lat.sample_parallelotope(basis, seed=17, count=10_000)
    bits = bd.decode_bit_batch(Y, bd.eval_boundary_batch(f, Y[:, 1:])[0])
    corners = lat.enumerate_corners(basis)
    z1 = corners.z[lat.cvp_corners_batch(basis, Y), 0]
    sure = bits >= 0
    assert np.array_equal(bits[sure], z1[sure].astype(np.int8))


def test_piece_count_report_and_json():
    row = bd.piece_count_report(FamilyId("an", 3))
    assert row["formula"] == row["oracle"] == 8
    assert row["match"] is True
    en_row = bd.piece_count_report(FamilyId("en", 6))
    assert en_row["adjudicated_reading"] == "multiplicity_over_i"
    # `count --format json` prints the row as it is: plain JSON types only
    assert json.loads(json.dumps(en_row)) == en_row


# ---------------------------------------------------------------------------
# the builders, memoized per process for one instance

MEMO_FID, OTHER_FID = FamilyId("dn-second", 5), FamilyId("en", 6)


def array_fields(obj) -> dict[str, np.ndarray]:
    fields = {fl.name: getattr(obj, fl.name) for fl in dataclasses.fields(obj)}
    return {name: a for name, a in fields.items() if isinstance(a, np.ndarray)}


def test_builders_hand_out_one_object_per_instance():
    basis = lat.build_basis(MEMO_FID)
    assert lat.build_basis(MEMO_FID) is basis
    assert bd.build_boundary(basis) is bd.build_boundary(basis)
    assert fo.fold_first(basis) is fo.fold_first(basis)
    # f from given corner labels is built afresh on every call
    z = fo.chamber_corners(basis, fo.build_schedule(MEMO_FID, basis))
    assert bd.build_boundary(basis, z) is not bd.build_boundary(basis, z)


def test_builders_hold_one_instance():
    basis = lat.build_basis(MEMO_FID)
    f, ff = bd.build_boundary(basis), fo.fold_first(basis)
    other = lat.build_basis(OTHER_FID)
    bd.build_boundary(other)
    fo.fold_first(other)
    assert lat.build_basis(MEMO_FID) is not basis
    assert bd.build_boundary(basis) is not f
    assert fo.fold_first(basis) is not ff


def test_cleared_memos_rebuild_equal_objects():
    basis = lat.build_basis(MEMO_FID)
    memoized = [basis, bd.build_boundary(basis), fo.fold_first(basis)]
    for memo in (lat._basis, bd._corner_boundary, fo._fold_first):
        memo.cache_clear()
    fresh = [lat.build_basis(MEMO_FID), bd.build_boundary(basis), fo.fold_first(basis)]
    assert fresh[0].fid == basis.fid and fresh[2].pairs == memoized[2].pairs
    for old, new in zip(memoized, fresh):
        assert new is not old
        old_arrays, new_arrays = array_fields(old), array_fields(new)
        assert old_arrays.keys() == new_arrays.keys()
        for name, a in old_arrays.items():
            b = new_arrays[name]
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_built_arrays_are_read_only():
    basis = lat.build_basis(MEMO_FID)
    f, ff = bd.build_boundary(basis), fo.fold_first(basis)
    arrays = {**array_fields(f), **{f"ff.{k}": a for k, a in array_fields(ff).items()}}
    assert len(arrays) == 10
    for name, a in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0
