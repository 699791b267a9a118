"""Acceptance gate: one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. No check
fails by design. Three stated constants are refuted by the measured geometry,
and the checks on them assert the measurement against an exact value that the
test derives itself, without calling `folding`, `boundary` or `analysis`;
the report lines still print each stated constant and the distance to it:

  - criterion 4, first clause: the folded piece count for the doubled-row D
    construction is 2n-3 (orbits of neighbour pairs under the schedule's
    transpositions), not the stated 2n-1, which is the A_n count;
  - criterion 7: the hyperplane decoding error of A_n is exactly
    E(n) = E|S_{n-1} - (n-1)/2| / (n+1), with S_m an Irwin-Hall sum
    (E(8) = 113149/1658880 ~ 0.0682, decaying like 0.23/sqrt(n)), far above
    the stated closed-form bound at n = 8, 12, 16;
  - criterion 8: the unit-volume L1 gap of A_n measures the same volume E(n),
    which exceeds the stated covering bound 2^n/n! from n = 7 on.
"""
from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from latticecpwl import analysis as ana
from latticecpwl import boundary as bnd
from latticecpwl import folding as fld
from latticecpwl import lattices as lat
from latticecpwl import network as net

import oracles

ALL_INSTANCES = (
    [("an", n) for n in range(2, 9)]
    + [("dn-const-a", n) for n in range(3, 9)]
    + [("dn-second", n) for n in range(3, 9)]
    + [("en", n) for n in range(6, 9)]
)

PIECE_COUNTS = {
    "an": {2: 3, 3: 8, 4: 20, 5: 48, 6: 112, 7: 256, 8: 576},
    "dn-const-a": {3: 5, 4: 18, 5: 56, 6: 160, 7: 432, 8: 1120},
    "dn-second": {3: 6, 4: 20, 5: 57, 6: 151, 7: 383, 8: 943},
}


def report(num: object, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"CRITERION {num}: {state} — {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget"
    assert ok, f"criterion {num}: {detail}"


def make(family: str, n: int):
    fid = lat.FamilyId(family, n)
    basis = lat.build_basis(fid)
    f = bnd.build_boundary(basis)
    return fid, basis, f


# a measured estimate must sit within this many standard errors of its exact
# value (the same margin as the facet-volume check of the D(B) sampler)
Z_MARGIN = 4.0


def folded_orbit_count(family: str, n: int) -> int:
    """Closest-neighbour pairs of the unit cube, up to permuting coordinates 2..n.

    A pair is a corner x with x_1 = 1 and a corner x' with x'_1 = 0 such that
    d = x - x' has d gram d = 2, the minimal squared norm. For `an` and
    `dn-const-a` the Gram is unchanged by permutations of coordinates 2..n and
    the schedule folds by every transposition of b_2..b_n, so each orbit leaves
    one folded piece. An orbit is the multiset of the patterns (x_j, x'_j), j >= 2.
    """
    gram = lat.build_gram(lat.FamilyId(family, n))
    cube = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    upper, lower = cube[cube[:, 0] == 1], cube[cube[:, 0] == 0]
    orbits = set()
    for x in upper:
        d = x - lower
        norms = np.einsum("ij,jk,ik->i", d, gram, d)
        for xp in lower[norms == 2]:
            orbits.add(tuple(sorted(zip(x[1:].tolist(), xp[1:].tolist()))))
    return len(orbits)


def hyperplane_error_exact(n: int) -> Fraction:
    """Exact share of P(B) for `an` n where "y_1 > b1_e1/2" and the nearest
    corner disagree on z_1: E(n) = E|S_m - m/2| / (n+1), with m = n-1 and S_m
    a sum of m i.i.d. U(0,1).

    With y = alpha G and Gram J+I, the nearest corner has z_1 = 1 iff
    2 alpha_1 - 1 + sum_{j>=2} (alpha_j - [alpha_j > alpha_1]) > 0, and given
    alpha_1 each term is uniform on (alpha_1 - 1, alpha_1). Integrating over
    alpha_1 gives E(n) = 2 E[(m/2 - S_m)^+] / (n+1), and the Irwin-Hall law
    gives E[(x - S_m)^+] = sum_k (-1)^k C(m,k) (x-k)_+^(m+1) / (m+1)!.
    """
    m = n - 1
    x = Fraction(m, 2)
    tail = sum(
        (-1) ** k * math.comb(m, k) * (x - k) ** (m + 1) for k in range(m + 1) if x > k
    ) / math.factorial(m + 1)
    return 2 * tail / (n + 1)


def test_criterion_1_piece_count_exactness():
    t0 = time.perf_counter()
    bad = []
    for family, counts in PIECE_COUNTS.items():
        for n, expected in counts.items():
            fid, basis, f = make(family, n)
            oracle = len(f.memberships)
            formula = bnd.count_pieces_formula(fid)
            if not (oracle == formula == expected):
                bad.append((family, n, formula, oracle, expected))
    detail = "oracle == closed form on all 19 instances" if not bad else f"mismatches {bad}"
    report(1, not bad, detail, time.perf_counter() - t0, 60)


def test_criterion_2_en_reading_adjudication():
    t0 = time.perf_counter()
    named = []
    ok = True
    for n in range(6, 9):
        fid, basis, f = make("en", n)
        oracle = len(f.memberships)
        readings = bnd.en_formula_readings(n)
        hits = [name for name, value in readings.items() if value == oracle]
        row = bnd.piece_count_report(fid)
        named.append(f"n={n}: {row['adjudicated_reading']}")
        ok = ok and len(hits) == 1 and hits[0] == row["adjudicated_reading"]
    report(2, ok, "; ".join(named), time.perf_counter() - t0, 60)


def test_criterion_3_fold_invariance():
    t0 = time.perf_counter()
    worst = 0.0
    for family, n in ALL_INSTANCES:
        _, _, f = make(family, n)
        dev = fld.verify_fold_invariance(f, seed=3, count=10_000)
        worst = max(worst, dev)
    report(
        3,
        worst <= 1e-9,
        f"max |f - f(fold)| = {worst:.3e} over 22 instances at 1e4 samples",
        time.perf_counter() - t0,
        120,
    )


def test_criterion_4_folded_count_stated_constant():
    t0 = time.perf_counter()
    rows = []
    ok = True
    for n in range(3, 9):
        fid, basis, f = make("dn-const-a", n)
        sched = fld.build_schedule(fid, basis)
        oracle = oracles.folded_piece_count_oracle(basis, f, sched)
        orbits = folded_orbit_count("dn-const-a", n)
        stated = 2 * n - 1
        rows.append(
            f"n={n}: oracle {oracle}, orbits {orbits}, derived 2n-3 = {2 * n - 3}; "
            f"stated {stated} ({oracle - stated:+d})"
        )
        ok = ok and oracle == orbits == 2 * n - 3
    report(
        "4 (doubled-row D, derived 2n-3, stated 2n-1)",
        ok,
        "; ".join(rows),
        time.perf_counter() - t0,
        120,
    )


def test_criterion_4_folded_count_reports_and_stability():
    t0 = time.perf_counter()
    ok = True
    rows = []
    for family, lo in [("dn-second", 3), ("en", 6)]:
        for n in range(lo, 9):
            fid, basis, f = make(family, n)
            sched = fld.build_schedule(fid, basis)
            row = oracles.folded_count_report(basis, f, sched)
            rows.append(
                f"{family} n={n}: stated {row['stated']} sketch {row['sketch']} "
                f"measured {row['measured']}"
            )
            ok = ok and row["stable"] and row["match_enum"]
    report(
        "4 (second-basis D and E reports)",
        ok,
        "stable across densities and equal to enumeration; " + "; ".join(rows),
        time.perf_counter() - t0,
        120,
    )


def test_criterion_5_network_equivalence_and_depth():
    t0 = time.perf_counter()
    worst = 0.0
    depth_ok = True
    for family, n in ALL_INSTANCES:
        fid, basis, f = make(family, n)
        sched = fld.build_schedule(fid, basis)
        base = None
        for M in (0, 1, 2):
            nw = net.synthesize(basis, sched, f, M=M)
            if M == 0:
                base = nw.meta["depth"]
                Yt = lat.sample_domain(basis, seed=5, count=10_000)
                out = net.forward(nw, Yt)[:, 0]
                ref, _ = bnd.eval_boundary_batch(f, Yt)
            else:
                depth_ok = depth_ok and nw.meta["depth"] == M + base
                rng = np.random.default_rng(1000 * M + n)
                alpha = rng.random((12_000, n))
                alpha[:, 1:] *= 2.0**M
                frac = alpha[:, 1:] - np.floor(alpha[:, 1:])
                keep = ((frac > 1e-6) & (frac < 1 - 1e-6)).all(axis=1)
                Y0 = (alpha[keep] @ basis.G)[:10_000]
                out = net.forward(nw, Y0)[:, 0]
                reduced, _ = oracles.reduce_to_parallelotope(basis, Y0, M)
                ref, _ = bnd.eval_boundary_batch(f, reduced[:, 1:])
            worst = max(worst, float(np.abs(out - ref).max()))
    ok = worst <= 1e-9 and depth_ok
    report(
        5,
        ok,
        f"max |network - boundary| = {worst:.3e} over 22 instances x M in 0..2; "
        f"depth = M + L_base {'holds' if depth_ok else 'violated'}",
        time.perf_counter() - t0,
        300,
    )


def test_criterion_6_decode_bit_oracle_agreement():
    t0 = time.perf_counter()
    disagreements = 0
    for n in range(2, 11):
        fid, basis, f = make("an", n)
        ff = fld.build_folded_boundary(f, fld.build_schedule(fid, basis))
        Y = lat.sample_parallelotope(basis, seed=6, count=10_000)
        bits = bnd.decode_bit_batch(Y, fld.eval_folded_batch(ff, Y[:, 1:]))
        corners = lat.enumerate_corners(basis)
        oracle = corners.z[lat.cvp_corners_batch(basis, Y), 0]
        sure = bits >= 0
        disagreements += int((bits[sure] != oracle[sure]).sum())
    report(
        6,
        disagreements == 0,
        f"{disagreements} disagreements outside the 1e-7 band, n = 2..10",
        time.perf_counter() - t0,
        60,
    )


@pytest.mark.parametrize("n", [8, 12, 16])
def test_criterion_7_decoding_error_bound(n):
    t0 = time.perf_counter()
    basis = lat.build_basis(lat.FamilyId("an", n))
    est = ana.mc_estimates(basis, seed=7, samples=1_000_000)["decode_error"]
    bound = ana.decoding_error_bound(n)
    exact = float(hyperplane_error_exact(n))
    z = (est.estimate - exact) / est.stderr
    report(
        f"7 (n={n})",
        abs(z) <= Z_MARGIN,
        f"decode error {est.estimate:.6f} vs exact E(n) = {exact:.6f} ({z:+.2f}σ); "
        f"stated bound {bound:.3e}, E(n)/bound = {exact / bound:.3g}",
        time.perf_counter() - t0,
        300,
    )


@pytest.mark.parametrize("n", [4, 6, 8])
def test_criterion_8_l1_gap_bound(n):
    t0 = time.perf_counter()
    basis = lat.build_basis(lat.FamilyId("an", n))
    est = ana.mc_estimates(basis, seed=8, samples=1_000_000)["l1_gap"]
    bound = 2**n / math.factorial(n)
    exact = float(hyperplane_error_exact(n))
    z = (est.estimate - exact) / est.stderr
    report(
        f"8 (n={n})",
        abs(z) <= Z_MARGIN,
        f"unit-volume L1 gap {est.estimate:.6f} vs exact E(n) = {exact:.6f} ({z:+.2f}σ); "
        f"stated 2^n/n! = {bound:.5g}, E(n)/bound = {exact / bound:.3g}",
        time.perf_counter() - t0,
        300,
    )


def test_criterion_9_volume_sandwich():
    t0 = time.perf_counter()
    ok = True
    rows = []
    for n in range(3, 9):
        basis = lat.build_basis(lat.FamilyId("an", n))
        lower, upper = ana.simplex_volume_bounds(n)
        exact = ana.exact_simplex_volume(basis)
        inside = lower * (1 - 1e-12) <= exact <= upper * (1 + 1e-12)
        ok = ok and inside
        rows.append(f"n={n}: {lower:.3e} <= {exact:.3e} <= {upper:.3e}")
    report(9, ok, "; ".join(rows), time.perf_counter() - t0, 1)


def test_criterion_10_translation_reduction_and_periodicity():
    t0 = time.perf_counter()
    worst_floor = 0.0
    worst_periodic = 0.0
    for family, n in [("an", 3), ("dn-second", 4)]:
        fid, basis, f = make(family, n)
        for M in (1, 2, 3):
            layers = net.synthesize(basis, fld.build_schedule(fid, basis), f, M=M).layers
            stack = net.Network(
                layers=tuple(l for l in layers if l.tag == net.TAG_TRANSLATION), meta={}
            )
            rng = np.random.default_rng(20 + M)
            alpha = rng.random((1_200, n))
            alpha[:, 1:] *= 2.0**M
            frac = alpha[:, 1:] - np.floor(alpha[:, 1:])
            keep = ((frac > 1e-6) & (frac < 1 - 1e-6)).all(axis=1)
            Y0 = (alpha[keep] @ basis.G)[:1_000]
            # the sawtooth layers give the lattice coordinates u = frac(y Ginv)
            got = net.forward(stack, Y0) @ basis.G
            reduced, _ = oracles.reduce_to_parallelotope(basis, Y0, M)
            worst_floor = max(worst_floor, float(np.abs(got - reduced).max()))
            # periodicity: shifting by basis multiples inside the extended box
            # must not change the reduced value or the boundary height
            base = lat.sample_parallelotope(basis, seed=30 + M, count=1_000)
            shift = (2**M - 1) * basis.G[1]
            a, _ = oracles.reduce_to_parallelotope(basis, base, M)
            b, _ = oracles.reduce_to_parallelotope(basis, base + shift, M)
            fa, _ = bnd.eval_boundary_batch(f, a[:, 1:])
            fb, _ = bnd.eval_boundary_batch(f, b[:, 1:])
            worst_periodic = max(worst_periodic, float(np.abs(fa - fb).max()))
    ok = worst_floor <= 1e-9 and worst_periodic <= 1e-9
    report(
        10,
        ok,
        f"max |translation stage - floor oracle| = {worst_floor:.3e}; "
        f"max periodic deviation = {worst_periodic:.3e}",
        time.perf_counter() - t0,
        60,
    )


def test_hyperplane_error_rank_rule_matches_brute_decoder():
    # the rank rule behind E(n) (see hyperplane_error_exact) gives the nearest
    # corner's first bit on every row
    rng = np.random.default_rng(17)
    for n in range(2, 11):
        basis = lat.build_basis(lat.FamilyId("an", n))
        alpha = rng.random((20_000, n))
        a1 = alpha[:, :1]
        score = 2 * a1[:, 0] - 1 + (alpha[:, 1:] - (alpha[:, 1:] > a1)).sum(axis=1)
        brute = oracles.nearest_corner_bits(basis, alpha @ basis.G)
        assert np.array_equal((score > 0).astype(np.int8), brute), n


def test_hyperplane_error_exact_small_n():
    # by hand: E(2) = E|U - 1/2| / 3 with E|U - 1/2| = 1/4, and
    # E(3) = E|S_2 - 1| / 4 with S_2 triangular on (0, 2), E|S_2 - 1| = 1/3
    assert hyperplane_error_exact(2) == Fraction(1, 4) / 3 == Fraction(1, 12)
    assert hyperplane_error_exact(3) == Fraction(1, 3) / 4 == Fraction(1, 12)
    assert hyperplane_error_exact(4) == Fraction(13, 160)


def test_folded_orbit_count_an_matches_folded_structure():
    # for the simplex family the stated 2n-1 holds: one more orbit per |S|
    # than dn-const-a, from the vertical neighbour x - x' = b_1
    for n in range(2, 9):
        fid, basis, f = make("an", n)
        planes = np.unique(fld.folded_structure(f, fld.build_schedule(fid, basis))[:, 1])
        assert folded_orbit_count("an", n) == len(planes) == 2 * n - 1, n
