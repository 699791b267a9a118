"""Tests for volume bounds, L1 gap estimates, and decoding-error rates."""
from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pytest

from latticecpwl import analysis as ana
from latticecpwl import boundary as bnd
from latticecpwl import folding as fld
from latticecpwl import lattices as lat
from latticecpwl.errors import DomainError

import oracles


def make(family: str, n: int) -> lat.OrientedBasis:
    return lat.build_basis(lat.FamilyId(family, n))


def l1_gap(basis: lat.OrientedBasis, seed: int, samples: int) -> ana.McEstimate:
    return ana.mc_estimates(basis, seed=seed, samples=samples)["l1_gap"]


def decode_error(basis: lat.OrientedBasis, seed: int, samples: int) -> ana.McEstimate:
    return ana.mc_estimates(basis, seed=seed, samples=samples)["decode_error"]


# ---------------------------------------------------------------------------
# volume sandwich


def test_simplex_volume_bounds_n2_closed_form():
    lower, upper = ana.simplex_volume_bounds(2)
    assert lower == pytest.approx(2 * 1 / (2**2 * 3**1.5 * 2), rel=1e-15)
    assert upper == pytest.approx(math.sqrt(3) / 2, rel=1e-15)


def test_simplex_volume_bounds_ordering():
    for n in range(2, 11):
        lower, upper = ana.simplex_volume_bounds(n)
        assert 0 < lower < upper


def test_simplex_volume_bounds_rejects_small_n():
    with pytest.raises(DomainError):
        ana.simplex_volume_bounds(1)


def test_exact_simplex_volume_simplex_family_hits_upper_bound():
    for n in range(2, 9):
        basis = make("an", n)
        _, upper = ana.simplex_volume_bounds(n)
        assert ana.exact_simplex_volume(basis) == pytest.approx(upper, rel=1e-12)


def test_exact_simplex_volume_rank3_d_variants():
    assert ana.exact_simplex_volume(make("dn-const-a", 3)) == pytest.approx(1 / 3, rel=1e-12)
    assert ana.exact_simplex_volume(make("dn-second", 3)) == pytest.approx(1 / 3, rel=1e-12)


def test_exact_simplex_volume_scales_with_dimension_power():
    basis = make("an", 3)
    doubled = lat.OrientedBasis(gram=4 * basis.gram, G=2 * basis.G, fid=basis.fid)
    ratio = ana.exact_simplex_volume(doubled) / ana.exact_simplex_volume(basis)
    assert ratio == pytest.approx(2**3, rel=1e-12)


def _apex_simplex_volume(basis: lat.OrientedBasis) -> float | None:
    """Volume from a boundary corner with exactly n neighbor pairs, edges
    running to its neighbors. Returns None when no such corner exists."""
    f = bnd.build_boundary(basis)
    by_corner: dict[tuple[int, ...], list[int]] = defaultdict(list)
    for i in range(len(f.pair_x)):
        by_corner[tuple(f.pair_x[i])].append(i)
    full = sorted(z for z, v in by_corner.items() if len(v) == basis.n)
    if not full:
        return None
    idxs = by_corner[full[0]]
    edges = (f.pair_xp[idxs] - f.pair_x[idxs[0]]) @ basis.G
    return abs(float(np.linalg.det(edges))) / math.factorial(basis.n)


def test_exact_simplex_volume_matches_apex_neighbor_route():
    # the corner-with-n-neighbors construction exists for the whole simplex
    # family and the rank-3 D variants, and must give the same value
    for family, n in [("an", 2), ("an", 3), ("an", 4), ("an", 5), ("an", 6),
                      ("dn-const-a", 3), ("dn-second", 3)]:
        basis = make(family, n)
        apex = _apex_simplex_volume(basis)
        assert apex is not None, (family, n)
        assert apex == pytest.approx(ana.exact_simplex_volume(basis), rel=1e-10)


@pytest.mark.parametrize(
    "family,n",
    [(family, n) for family in lat.FAMILIES
     for n in range(lat.FAMILY_RANGES[family][0], min(lat.FAMILY_RANGES[family][1] or 10, 10) + 1)]
    + [(family, 64) for family in ("an", "dn-const-a", "dn-second")],
)
def test_exact_simplex_volume_is_the_integer_det_closed_form(family, n):
    """det gram is n (g_11 - |g|^2) + (sum g)^2 by gram[1:, 1:] = I + J:
    n + 1 on an, 4 on both D_n families and 9 - n on en. The volume is its
    square root over n!, to the last bit, whatever BLAS kernels run."""
    gram = lat.build_gram(lat.FamilyId(family, n))
    g = gram[1:, 0]
    det = n * (gram[0, 0] - g @ g) + g.sum() ** 2
    assert det == {"an": n + 1, "en": 9 - n}.get(family, 4)
    assert ana.exact_simplex_volume(make(family, n)) == math.sqrt(det) / math.factorial(n)


def test_volume_report_fields():
    report = ana.volume_report(make("an", 4))
    assert report["n"] == 4
    assert report["lower"] < report["exact"] <= report["upper"] * (1 + 1e-12)


# ---------------------------------------------------------------------------
# closed-form decoding bound


def test_decoding_error_bound_frozen_values():
    assert ana.decoding_error_bound(8) == pytest.approx(0.006415654927377436, rel=1e-12)
    assert ana.decoding_error_bound(12) == pytest.approx(8.610695291507141e-06, rel=1e-12)
    assert ana.decoding_error_bound(16) == pytest.approx(3.1486326390167216e-09, rel=1e-12)


def test_decoding_error_bound_decreasing_and_positive():
    vals = [ana.decoding_error_bound(n) for n in range(3, 21)]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_decoding_error_bound_rejects_small_n():
    with pytest.raises(DomainError):
        ana.decoding_error_bound(1)


# ---------------------------------------------------------------------------
# L1 gap Monte Carlo


def test_l1_gap_deterministic_per_seed():
    basis = make("an", 4)
    a = l1_gap(basis, seed=5, samples=4_000)
    b = l1_gap(basis, seed=5, samples=4_000)
    assert a == b
    c = l1_gap(basis, seed=6, samples=4_000)
    assert c.estimate != a.estimate


def test_l1_gap_stderr_scales_with_samples():
    basis = make("an", 4)
    small = l1_gap(basis, seed=5, samples=4_000)
    large = l1_gap(basis, seed=5, samples=16_000)
    assert small.stderr / large.stderr == pytest.approx(2.0, rel=0.15)


def test_l1_gap_frozen_values():
    expected = {
        3: 0.08360537862824884,
        4: 0.08143035417854162,
        5: 0.07842405760417133,
        6: 0.07442436489007605,
    }
    for n, value in expected.items():
        est = l1_gap(make("an", n), seed=7, samples=20_000)
        assert est.estimate == pytest.approx(value, abs=1e-12), n
        assert est.samples == 20_000 and est.seed == 7


def test_l1_gap_within_covering_bound_small_n():
    # the covering bound 2^n/n! holds with three-sigma margin up to n = 6;
    # beyond that the measured gap exceeds it (decays far slower than 2^n/n!)
    for n in range(3, 7):
        est = l1_gap(make("an", n), seed=7, samples=20_000)
        assert est.estimate + 3 * est.stderr < 2**n / math.factorial(n), n


def test_l1_gap_graph_distance_dominates_clipped():
    # the raw graph distance to the mid-height plane, on the same samples and
    # without the parallelotope clipping, bounds the clipped gap
    basis = make("an", 5)
    est = l1_gap(basis, seed=3, samples=10_000)
    Yt = lat.sample_parallelotope(basis, seed=3, count=10_000)[:, 1:]
    lo, hi = lat.fiber_interval_batch(basis, Yt)
    graph = np.abs(fld.eval_folded_batch(fld.fold_first(basis), Yt) - basis.b1_e1 / 2) / (hi - lo)
    assert graph.mean() >= est.estimate


def test_l1_gap_agrees_with_decode_error_route():
    # the clipped fiber gap integrates the same disagreement volume that the
    # nearest-corner indicator samples; the two estimators must agree, here
    # with the indicator on an independent draw and by brute-force search
    basis = make("an", 4)
    a = l1_gap(basis, seed=21, samples=50_000)
    b = oracles.decode_error_cvp(basis, seed=22, samples=50_000)
    sigma = math.hypot(a.stderr, b.stderr)
    assert abs(a.estimate - b.estimate) < 5 * sigma


# ---------------------------------------------------------------------------
# hyperplane decoding error Monte Carlo


def test_decode_error_deterministic_per_seed():
    basis = make("an", 4)
    a = decode_error(basis, seed=5, samples=4_000)
    b = decode_error(basis, seed=5, samples=4_000)
    assert a == b


MC_FOLD_INSTANCES = (
    [("an", n) for n in range(2, 11)]
    + [(family, n) for family in ("dn-const-a", "dn-second") for n in range(2, 13)]
    + [("en", n) for n in (6, 7, 8)]
)


@pytest.mark.parametrize("family,n", MC_FOLD_INSTANCES)
def test_decode_error_equals_brute_force_route(family, n):
    # y_1 > f(y~) is the nearest corner's first bit, so the fold-first row
    # is the brute-force estimate exactly, value and stderr, also past the
    # rank 10 up to which mc once built f from all 2^n corners
    basis = make(family, n)
    for seed in (0, 3, 42):
        for samples in (2, 10_000):
            got = decode_error(basis, seed=seed, samples=samples)
            want = oracles.decode_error_cvp(basis, seed=seed, samples=samples)
            assert (got.estimate, got.stderr) == (want.estimate, want.stderr), (seed, samples)
            assert (got.seed, got.samples) == (seed, samples)


def spy(monkeypatch, module, name: str) -> list:
    """Record the rank of each call of module.name."""
    calls = []
    real = getattr(module, name)

    def wrapper(basis, *args):
        calls.append(basis.n)
        return real(basis, *args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_decode_error_within_bound_at_n6(monkeypatch):
    brute_calls = spy(monkeypatch, lat, "cvp_corners_batch")
    basis = make("an", 6)
    est = decode_error(basis, seed=11, samples=50_000)
    assert est.estimate == pytest.approx(0.07454, abs=1e-12)
    assert est.estimate + 3 * est.stderr < ana.decoding_error_bound(6)
    assert brute_calls == []  # f decoded every point


def test_decode_error_fast_decoder_beyond_brute_cap(monkeypatch):
    # f from the chamber corners decodes past the brute-force rank, with the
    # estimate the sorted decoder gave there, and gives the l1_gap row too
    corner_calls = spy(monkeypatch, lat, "enumerate_corners")
    basis = make("an", 12)
    rows = ana.mc_estimates(basis, seed=2, samples=5_000)
    assert corner_calls == []
    assert list(rows) == ["decode_error", "l1_gap"]
    assert rows["decode_error"].estimate == pytest.approx(0.0554, abs=1e-12)


@pytest.mark.parametrize("n", [11, 12, 16, 20])
def test_decode_error_equals_sorted_decoder_route(n):
    # for the simplex family the sorted nearest-corner decoder is exact at
    # any rank, so the fold-first row equals its route, value and stderr
    basis = make("an", n)
    for seed in (0, 42):
        got = decode_error(basis, seed=seed, samples=3_000)
        want = oracles.decode_error_sorted(basis, seed=seed, samples=3_000)
        assert (got.estimate, got.stderr) == (want.estimate, want.stderr), seed


def test_fast_decoder_matches_brute_exhaustively():
    for n in [6, 8, 10]:
        basis = make("an", n)
        Y = lat.sample_parallelotope(basis, seed=3, count=5_000)
        fast = oracles.sorted_corner_bits(basis, Y)
        brute = oracles.nearest_corner_bits(basis, Y)
        assert np.array_equal(fast, brute), n


@pytest.mark.parametrize("family", lat.FAMILIES)
def test_sorted_corner_bits_equal_nearest_corner_bits(family):
    # the sorting decoder carries to every family: gram[1:, 1:] = I + J
    lo, hi = lat.FAMILY_RANGES[family]
    for n in range(lo, min(hi or 10, 10) + 1):
        basis = make(family, n)
        Y = lat.sample_parallelotope(basis, seed=n, count=2_000)
        sorted_bits = oracles.sorted_corner_bits(basis, Y)
        assert np.array_equal(sorted_bits, oracles.nearest_corner_bits(basis, Y)), n


def test_mc_estimates_two_rows_at_dn_second_11():
    # f from the chamber corners gives both rows past the rank where 2^n
    # corners were enumerated
    rows = ana.mc_estimates(make("dn-second", 11), seed=1, samples=2_000)
    assert list(rows) == ["decode_error", "l1_gap"]
    a, b = rows["decode_error"], rows["l1_gap"]
    assert abs(a.estimate - b.estimate) < 5 * math.hypot(a.stderr, b.stderr)


# ---------------------------------------------------------------------------
# separation report and MC report rows


def test_separation_report_example():
    report = ana.separation_report(4, 10, 2, 4)
    assert report["required_M"] == pytest.approx(8.0)
    assert report["margin"] == pytest.approx(2.0)
    assert report["condition_satisfied"] is True
    assert report["piece_budget_log2"] == pytest.approx(12.0)
    assert report["simplex_volume_lower"] == pytest.approx(
        ana.simplex_volume_bounds(4)[0], rel=1e-15
    )


def test_separation_report_boundary_case_satisfied():
    assert ana.separation_report(4, 8, 2, 4)["condition_satisfied"] is True


def test_separation_report_width_scan_flips_condition():
    flags = [ana.separation_report(4, 10, 2, w)["condition_satisfied"] for w in [4, 8, 16, 64]]
    assert flags == [True, True, False, False]


def test_separation_report_validates_inputs():
    with pytest.raises(DomainError):
        ana.separation_report(4, 0, 2, 4)
    with pytest.raises(DomainError):
        ana.separation_report(1, 10, 2, 4)
    with pytest.raises(DomainError):
        ana.separation_report(4, 10, 2, 1)


def test_mc_report_row_pass_and_fail():
    good = ana.McEstimate(estimate=0.01, samples=100, seed=1, stderr=0.001)
    bad = ana.McEstimate(estimate=0.5, samples=100, seed=1, stderr=0.001)
    row = ana.mc_report_row(good, bound=0.1)
    assert row["pass"] is True
    assert set(row) == {"seed", "samples", "estimate", "stderr", "bound", "pass"}
    assert ana.mc_report_row(bad, bound=0.1)["pass"] is False
