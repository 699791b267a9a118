"""Boundary-function checks: neighbor pairs, group structure, piece counts,
evaluation, and bit decoding against the brute-force corner oracle."""
from __future__ import annotations

import json

import numpy as np
import pytest

from latticecpwl import boundary as bd
from latticecpwl import lattices as lat
from latticecpwl.errors import ConstructionError
from latticecpwl.lattices import FamilyId

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


@pytest.mark.parametrize(
    "gram",
    [
        np.eye(3, dtype=np.int64),  # odd diagonal
        2 * (np.ones((3, 3), dtype=np.int64) + np.eye(3, dtype=np.int64)),  # minimum 4
    ],
    ids=["odd-diagonal", "diagonal-min-4"],
)
def test_build_boundary_rejects_gram_without_norm_two_diagonal(gram):
    with pytest.raises(ConstructionError):
        bd.build_boundary(lat.orient_basis(gram))


def test_build_boundary_a2_groups():
    basis = lat.build_basis(FamilyId("an", 2))
    f = bd.build_boundary(basis)
    assert sorted(len(g) for g in f.group_planes) == [1, 2]
    assert bd.count_pieces_oracle(f) == 3


def test_build_boundary_a3_structure(a3):
    _, f = a3
    assert len(f.group_planes) == 4
    assert sorted(len(g) for g in f.group_planes) == [1, 2, 2, 3]
    assert bd.count_pieces_oracle(f) == 8
    # 8 memberships sit on only 5 distinct hyperplanes
    assert len(f.plane_keys) == 5


def test_build_boundary_dn_const_a3_simplex_sizes():
    basis = lat.build_basis(FamilyId("dn-const-a", 3))
    f = bd.build_boundary(basis)
    # two 1-simplices and one 3-simplex; the all-ones corner has no neighbors
    assert sorted(len(g) for g in f.group_planes) == [1, 1, 3]
    assert bd.count_pieces_oracle(f) == 5


def test_build_boundary_dn_second3_merges_chain_corners():
    basis = lat.build_basis(FamilyId("dn-second", 3))
    f = bd.build_boundary(basis)
    # 7 neighbor pairs, two chain corners share their single bisector
    assert f.pair_plane.shape[0] == 7
    assert sorted(len(g) for g in f.group_planes) == [1, 2, 3]
    assert bd.count_pieces_oracle(f) == 6
    merged = [zs for zs in f.group_corner_z if len(zs) == 2]
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
        assert bd.count_pieces_oracle(f) == bd.count_pieces_formula(fid)


def test_bisector_through_midpoint(a3):
    basis, f = a3
    mid = (f.pair_x + f.pair_xp) @ basis.G / 2.0
    v = f.V[f.pair_plane]
    resid = np.abs((mid * v).sum(axis=1) - f.p[f.pair_plane])
    assert resid.max() <= 1e-9


def test_corner_above_own_cap(a3):
    basis, f = a3
    for planes, zs in zip(f.group_planes, f.group_corner_z):
        for z in zs:
            x = np.asarray(z, dtype=float) @ basis.G
            cap = (x[1:] @ f.A[list(planes)].T + f.c[list(planes)]).max()
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


def _reference_eval(f, h):
    """Plain-loop min-of-max with first-occurrence ties, for cross-checking.

    Takes the per-plane heights h directly so the comparison isolates the
    selection semantics (matrix-matrix and vector-matrix products can differ
    in the last ulp)."""
    best_val = None
    best_id = None
    mid = 0
    for planes in f.group_planes:
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
        lo, hi = lat.domain_bbox(basis)
        Yt = np.vstack([Yt, [(lo + hi) / 2.0]])
        vals, act = bd.eval_boundary_batch(f, Yt)
        H = Yt @ f.A.T + f.c
        for i in range(Yt.shape[0]):
            rv, rid = _reference_eval(f, H[i])
            assert vals[i] == rv
            assert act[i] == rid


def test_lipschitz_bound(a3):
    basis, f = a3
    rng = np.random.default_rng(1)
    P = lat.sample_domain(basis, seed=21, count=400)
    Q = lat.sample_domain(basis, seed=22, count=400)
    fp, _ = bd.eval_boundary_batch(f, P)
    fq, _ = bd.eval_boundary_batch(f, Q)
    lhs = np.abs(fp - fq)
    rhs = f.lipschitz_bound * np.sqrt(((P - Q) ** 2).sum(axis=1))
    assert np.all(lhs <= rhs + 1e-9)


def test_count_pieces_sampled_matches_small():
    cases = [("an", 2, 200, 3), ("an", 3, 60, 8), ("dn-second", 3, 60, 6)]
    for family, n, density, expected in cases:
        basis = lat.build_basis(FamilyId(family, n))
        f = bd.build_boundary(basis)
        assert bd.count_pieces_sampled(basis, f, grid_density=density) == expected


def test_count_pieces_sampled_never_exceeds_oracle():
    basis = lat.build_basis(FamilyId("dn-const-a", 5))
    f = bd.build_boundary(basis)
    sampled = bd.count_pieces_sampled(basis, f, grid_density=30, seed=4)
    assert sampled <= bd.count_pieces_oracle(f)


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
        lo, hi = lat.domain_bbox(basis)
        axes = [np.linspace(lo[j], hi[j], density) for j in range(d)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        inside = lat.domain_contains(basis, mesh)
        pts = mesh[inside]
        _, act = bd.eval_boundary_batch(f, pts)
        # drop points on (or within float noise of) a piece boundary: exact
        # ties there resolve to the lowest id, which may sit far from that
        # piece's open cell
        h = pts @ f.A.T + f.c
        gvals = np.stack([h[:, list(g)].max(axis=1) for g in f.group_planes], axis=1)
        top2 = np.sort(gvals, axis=1)[:, :2]
        interior = (top2[:, 1] - top2[:, 0]) > 1e-9
        for planes in f.group_planes:
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
    assert bd.decode_bit_batch(f, Y).tolist() == [1, 0, -1]


def test_decode_agrees_with_cvp(a3):
    basis, f = a3
    Y = lat.sample_parallelotope(basis, seed=17, count=10_000)
    bits = bd.decode_bit_batch(f, Y)
    corners = lat.enumerate_corners(basis)
    z1 = corners.z[lat.cvp_corners_batch(basis, Y), 0]
    sure = bits >= 0
    assert np.array_equal(bits[sure], z1[sure].astype(np.int8))


def test_piece_count_report_and_json(a3):
    row = bd.piece_count_report(FamilyId("an", 3))
    assert row["formula"] == row["oracle"] == 8
    assert row["match"] is True
    en_row = bd.piece_count_report(FamilyId("en", 6), grid_density=12)
    assert en_row["adjudicated_reading"] == "multiplicity_over_i"
    _, f = a3
    rows = json.loads(bd.boundary_to_json(f))
    assert len(rows) == 8
    assert set(rows[0]) == {"v", "p", "group"}
