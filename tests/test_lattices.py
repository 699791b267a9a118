"""Lattice-core checks: Gram patterns, orientation, corners, shells, CVP oracles."""
from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest

from latticecpwl import cli
from latticecpwl import lattices as lat
from latticecpwl.errors import (
    ConstructionError,
    DomainError,
    FactorizationError,
    ResourceError,
)

import oracles

# kissing numbers of the four families (known values for root lattices)
KISSING = {
    ("an", 1): 2,
    ("an", 2): 6,
    ("an", 3): 12,
    ("an", 4): 20,
    ("dn-const-a", 3): 12,
    ("dn-const-a", 4): 24,
    ("dn-second", 3): 12,
    ("dn-second", 4): 24,
    ("dn-second", 5): 40,
    ("en", 6): 72,
    ("en", 7): 126,
    ("en", 8): 240,
}

# determinants of the Gram matrices: det(A_n) = n+1, det(D_n) = 4, det(E_n) = 9-n
GRAM_DETS = {
    ("an", 5): 6,
    ("dn-const-a", 5): 4,
    ("dn-second", 5): 4,
    ("en", 6): 3,
    ("en", 7): 2,
    ("en", 8): 1,
}


def test_family_validation():
    with pytest.raises(DomainError):
        lat.FamilyId("en", 5)
    with pytest.raises(DomainError):
        lat.FamilyId("an", 0)
    with pytest.raises(DomainError):
        lat.FamilyId("zn", 3)
    assert lat.FamilyId("an", 1).n == 1
    assert lat.FamilyId("dn-const-a", 2).n == 2


def test_gram_patterns_frozen():
    a2 = lat.build_gram(lat.FamilyId("an", 2))
    assert a2.tolist() == [[2, 1], [1, 2]]
    d3a = lat.build_gram(lat.FamilyId("dn-const-a", 3))
    assert d3a.tolist() == [[4, 2, 2], [2, 2, 1], [2, 1, 2]]
    d3b = lat.build_gram(lat.FamilyId("dn-second", 3))
    assert d3b.tolist() == [[2, 0, 1], [0, 2, 1], [1, 1, 2]]
    e6 = lat.build_gram(lat.FamilyId("en", 6))
    assert e6[0].tolist() == [2, 0, 0, 1, 1, 1]
    assert e6[1].tolist() == [0, 2, 1, 1, 1, 1]
    assert e6[2].tolist() == [0, 1, 2, 1, 1, 1]
    assert e6[3].tolist() == [1, 1, 1, 2, 1, 1]


@pytest.mark.parametrize(
    "family,n,det", [(f, n, d) for (f, n), d in sorted(GRAM_DETS.items())]
)
def test_gram_determinants(family, n, det):
    g = lat.build_gram(lat.FamilyId(family, n)).astype(float)
    assert round(np.linalg.det(g)) == det


def all_family_instances(n_max=8):
    out = []
    for family in lat.FAMILIES:
        lo, hi = lat.FAMILY_RANGES[family]
        hi = min(hi or n_max, n_max)
        for n in range(max(lo, 2), hi + 1):
            out.append(lat.FamilyId(family, n))
    return out


@pytest.mark.parametrize("fid", all_family_instances(), ids=str)
def test_orientation_invariants(fid):
    basis = lat.build_basis(fid)
    gram = basis.gram.astype(float)
    assert np.abs(basis.G @ basis.G.T - gram).max() <= 1e-9
    if basis.n > 1:
        assert np.abs(basis.G[1:, 0]).max() <= 1e-12
    assert basis.G[0, 0] > 0
    # determinant sign convention: +sqrt(det gram)
    assert np.linalg.det(basis.G) == pytest.approx(
        math.sqrt(np.linalg.det(gram)), rel=1e-9
    )


def test_orientation_a2_frozen():
    basis = lat.build_basis(lat.FamilyId("an", 2))
    assert basis.G[0] == pytest.approx([math.sqrt(1.5), math.sqrt(0.5)], abs=1e-12)
    assert basis.G[1] == pytest.approx([0.0, math.sqrt(2.0)], abs=1e-12)


def test_orientation_identity_gram():
    basis = lat.orient_basis(np.eye(2))
    assert basis.G == pytest.approx(np.eye(2), abs=1e-12)


def test_orient_rejects_non_pd():
    with pytest.raises(FactorizationError):
        lat.orient_basis(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_corners_partition_and_closure():
    basis = lat.build_basis(lat.FamilyId("an", 3))
    corners = lat.enumerate_corners(basis)
    assert corners.z.shape == (8, 3)
    assert len(corners.c0_rows) == len(corners.c1_rows) == 4
    # adding b_1 to any c0 member yields a c1 member
    zset = {tuple(z) for z in corners.z[corners.c1_rows]}
    for row in corners.c0_rows:
        shifted = corners.z[row].copy()
        shifted[0] += 1
        assert tuple(shifted) in zset


def test_corners_e6_count():
    basis = lat.build_basis(lat.FamilyId("en", 6))
    corners = lat.enumerate_corners(basis)
    assert len(corners.c1_rows) == 2 ** (basis.n - 1)


def test_corner_cap():
    big = lat.orient_basis(np.eye(21))
    with pytest.raises(ResourceError):
        lat.enumerate_corners(big)


@pytest.mark.parametrize("family_n", sorted(KISSING), ids=str)
def test_relevant_vector_counts(family_n):
    family, n = family_n
    basis = lat.build_basis(lat.FamilyId(family, n))
    Z, X = oracles.relevant_vectors(basis)
    assert Z.shape[0] == KISSING[(family, n)]
    norms = np.einsum("ij,jk,ik->i", Z, basis.gram, Z)
    assert np.all(norms == norms[0])
    assert np.abs((X**2).sum(axis=1) - norms).max() <= 1e-9


def test_relevant_vectors_negation_symmetry():
    basis = lat.build_basis(lat.FamilyId("dn-second", 4))
    Z, _ = oracles.relevant_vectors(basis)
    zset = {tuple(z) for z in Z}
    assert all(tuple(-z) in zset for z in Z)


@pytest.mark.parametrize("family,n", [("an", 4), ("dn-const-a", 4), ("dn-second", 5), ("en", 6)])
def test_shell_stable_r3_to_r4(family, n):
    basis = lat.build_basis(lat.FamilyId(family, n))
    Z3, _ = oracles.relevant_vectors(basis, r=3)
    Z4, _ = oracles.relevant_vectors(basis, r=4)
    assert Z3.shape == Z4.shape
    assert np.array_equal(Z3, Z4)


def test_shell_norm_is_two_everywhere():
    # build_boundary takes the shell norm 2 from the Gram; check it by enumeration
    for fid in all_family_instances():
        basis = lat.build_basis(fid)
        Z, _ = oracles.relevant_vectors(basis, r=2)
        norms = np.einsum("ij,jk,ik->i", Z, basis.gram, Z)
        assert Z.shape[0] > 0 and np.all(norms == 2), fid


def test_relevant_vectors_rejects_non_integer_gram():
    basis = lat.orient_basis(np.array([[2.0, 0.5], [0.5, 2.0]]))
    with pytest.raises(ConstructionError):
        oracles.relevant_vectors(basis)


def nearest_corner_z(basis, Y):
    rows = lat.cvp_corners_batch(basis, np.atleast_2d(Y))
    return lat.enumerate_corners(basis).z[rows].tolist()


def test_cvp_corners_examples():
    basis = lat.build_basis(lat.FamilyId("an", 3))
    # the origin, b_1, and the midpoint of b_1 and 0 nudged towards b_1
    Y = np.stack([np.zeros(3), basis.G[0], 0.51 * basis.G[0]])
    assert nearest_corner_z(basis, Y) == [[0, 0, 0], [1, 0, 0], [1, 0, 0]]


def test_cvp_corners_tie_break_lex():
    # equidistant between corner 0 and corner b_2: lex-smallest z wins
    basis = lat.build_basis(lat.FamilyId("an", 2))
    y = basis.G[1] / 2
    assert nearest_corner_z(basis, y) == [[0, 0]]


def test_cvp_box_matches_corners_on_parallelotope():
    basis = lat.build_basis(lat.FamilyId("an", 3))
    Y = lat.sample_parallelotope(basis, seed=11, count=200)
    corners = lat.enumerate_corners(basis)
    rows = lat.cvp_corners_batch(basis, Y)
    for y, row in zip(Y, rows):
        zbox, _ = oracles.cvp_box(basis, y, r=2)
        assert zbox.tolist() == corners.z[row].tolist()


def test_cvp_box_exact_on_lattice_points():
    basis = lat.build_basis(lat.FamilyId("dn-second", 3))
    z = np.array([2, -1, 1])
    zout, _ = oracles.cvp_box(basis, z @ basis.G, r=2)
    assert zout.tolist() == z.tolist()


def test_sample_parallelotope_determinism_and_range():
    basis = lat.build_basis(lat.FamilyId("en", 6))
    Y1 = lat.sample_parallelotope(basis, seed=42, count=500)
    Y2 = lat.sample_parallelotope(basis, seed=42, count=500)
    assert np.array_equal(Y1, Y2)
    alpha = Y1 @ basis.Ginv
    assert alpha.min() >= 0.0 and alpha.max() < 1.0


def test_fiber_interval_and_domain():
    basis = lat.build_basis(lat.FamilyId("an", 3))
    Y = lat.sample_parallelotope(basis, seed=5, count=300)
    Yt = Y[:, 1:]
    lo, hi = lat.fiber_interval_batch(basis, Yt)
    # the sampled first coordinate lies inside its own fiber
    assert np.all(Y[:, 0] >= lo - 1e-9) and np.all(Y[:, 0] <= hi + 1e-9)
    assert oracles.domain_contains(basis, Yt).all()
    # far-away points are outside
    assert not oracles.domain_contains(basis, Yt + 100.0).any()


def test_sample_domain_uniform_members():
    basis = lat.build_basis(lat.FamilyId("dn-const-a", 4))
    Yt = lat.sample_domain(basis, seed=9, count=400)
    assert Yt.shape == (400, 3)
    assert oracles.domain_contains(basis, Yt).all()
    assert Yt.tobytes() == lat.sample_domain(basis, seed=9, count=400).tobytes()
    # tuple seeds, as verify_fold_invariance passes per chunk
    Ut = lat.sample_domain(basis, seed=(9, 3), count=400)
    assert Ut.tobytes() == lat.sample_domain(basis, seed=(9, 3), count=400).tobytes()
    assert not np.array_equal(Ut, Yt)
    assert not np.array_equal(Ut, lat.sample_domain(basis, seed=(9, 4), count=400))


# ---------------------------------------------------------------------------
# sample_domain against an independent bounding-box rejection sampler

ORACLE_COUNT = 200_000
ORACLE_CASES = [("an", 4), ("an", 8), ("dn-second", 6), ("en", 8)]


@functools.lru_cache(maxsize=None)
def _rejection_oracle(family: str, n: int) -> tuple[np.ndarray, int, int]:
    """ORACLE_COUNT uniform D(B) points by rejection from oracles.domain_bbox, plus
    the accepted and tested candidate counts over every batch drawn."""
    basis = lat.build_basis(lat.FamilyId(family, n))
    lo, hi = oracles.domain_bbox(basis)
    rng = np.random.default_rng(101)
    batch, kept, accepted, tested = 4 * ORACLE_COUNT, [], 0, 0
    while accepted < ORACLE_COUNT:
        cand = lo + rng.random((batch, n - 1)) * (hi - lo)
        kept.append(cand[oracles.domain_contains(basis, cand)])
        accepted += kept[-1].shape[0]
        tested += batch
    return np.concatenate(kept)[:ORACLE_COUNT], accepted, tested


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    fa = np.searchsorted(a, both, side="right") / a.size
    fb = np.searchsorted(b, both, side="right") / b.size
    return float(np.abs(fa - fb).max())


@pytest.mark.parametrize("family,n", ORACLE_CASES)
def test_sample_domain_matches_rejection_oracle(family, n):
    basis = lat.build_basis(lat.FamilyId(family, n))
    Yt = lat.sample_domain(basis, seed=202, count=ORACLE_COUNT)
    assert Yt.shape == (ORACLE_COUNT, n - 1)
    assert oracles.domain_contains(basis, Yt).all()
    ref, _, _ = _rejection_oracle(family, n)
    # per-coordinate two-sample KS at 1%, Bonferroni-corrected over the n - 1
    # coordinates; asymptotic critical value c(a) sqrt(2 / N), N per sample
    crit = math.sqrt(-0.5 * math.log(0.01 / (n - 1) / 2) * 2 / ORACLE_COUNT)
    stats = [_ks_statistic(Yt[:, j], ref[:, j]) for j in range(n - 1)]
    assert max(stats) < crit, (stats, crit)


@pytest.mark.parametrize("family,n", ORACLE_CASES)
def test_lower_facet_volumes_match_rejection_acceptance(family, n):
    basis = lat.build_basis(lat.FamilyId(family, n))
    Gt = basis.G[:, 1:]
    facets = sum(abs(np.linalg.det(np.delete(Gt, i, axis=0))) for i in range(n))
    lo, hi = oracles.domain_bbox(basis)
    _, accepted, tested = _rejection_oracle(family, n)
    p = accepted / tested
    box = float(np.prod(hi - lo))
    stderr = box * math.sqrt(p * (1 - p) / tested)
    assert abs(facets - box * p) <= 4 * stderr, (facets, box * p, stderr)


def test_sample_domain_low_rank():
    # n = 2: D(B) is the interval oracles.domain_bbox, sampled uniformly
    basis = lat.build_basis(lat.FamilyId("an", 2))
    Yt = lat.sample_domain(basis, seed=5, count=ORACLE_COUNT)
    lo, hi = oracles.domain_bbox(basis)
    assert Yt.shape == (ORACLE_COUNT, 1)
    assert oracles.domain_contains(basis, Yt).all()
    assert Yt.min() >= lo[0] and Yt.max() <= hi[0]
    # one-sample KS against U[lo, hi] at 1%
    cdf = (np.sort(Yt[:, 0]) - lo[0]) / (hi[0] - lo[0])
    steps = np.arange(ORACLE_COUNT + 1) / ORACLE_COUNT
    stat = max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max())
    assert stat < math.sqrt(-0.5 * math.log(0.01 / 2) / ORACLE_COUNT)
    # n = 1: D(B) is a point in R^0
    one = lat.sample_domain(lat.build_basis(lat.FamilyId("an", 1)), seed=5, count=7)
    assert one.shape == (7, 0)


def test_basis_json_roundtrip(capsys):
    # `basis --format json` output parses back to the in-memory basis exactly
    basis = lat.build_basis(lat.FamilyId("en", 7))
    assert cli.main(["basis", "--family", "en", "--n", "7", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.array_equal(np.array(doc["generator"]), basis.G)
    gram = np.array(doc["gram"])
    assert gram.dtype.kind == "i" and np.array_equal(gram, basis.gram)
    assert lat.FamilyId(doc["family"], doc["n"]) == basis.fid
