"""Folding-schedule checks: reflections, invariance of the boundary function,
surviving-piece counts, and reduction into the base cell."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from latticecpwl import boundary as bd
from latticecpwl import folding as fo
from latticecpwl import lattices as lat
from latticecpwl.errors import DomainError
from latticecpwl.lattices import FamilyId

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
    _, basis, _, sched = make("dn-const-a", 4)
    Yt = lat.sample_domain(basis, seed=0, count=2_000)
    folded = fo.apply_fold(sched, Yt)
    again = fo.apply_fold(sched, folded)
    assert np.array_equal(folded, again)
    already = Yt[fo.fold_predicate(sched, Yt)]
    assert np.array_equal(fo.apply_fold(sched, already), already)


def test_apply_fold_single_reflection_same_orbit():
    _, basis, _, sched = make("an", 4)
    Yt = lat.sample_domain(basis, seed=1, count=500)
    step = sched.steps[2]
    dots = Yt @ step.v
    mirrored = Yt - np.outer(2 * dots / (step.v @ step.v), step.v)
    a = fo.apply_fold(sched, Yt)
    b = fo.apply_fold(sched, mirrored)
    assert np.abs(a - b).max() <= 1e-12


@pytest.mark.parametrize("family,n", sorted(FOLDED_STRUCTURE))
def test_apply_fold_output_satisfies_predicate(family, n):
    _, basis, _, sched = make(family, n)
    Yt = lat.sample_domain(basis, seed=2, count=1_000)
    out = fo.apply_fold(sched, Yt)
    assert fo.fold_predicate(sched, out).all()
    # reflections through the origin preserve the norm
    assert np.allclose(
        (out**2).sum(axis=1), (Yt**2).sum(axis=1), rtol=1e-12, atol=1e-12
    )


def test_single_pass_reaches_fixpoint():
    """One sweep in schedule order already lands every point; the re-sweep in
    apply_fold is a guard, not a requirement, for these schedules."""
    for family, n in [("an", 6), ("dn-const-a", 6), ("dn-second", 6), ("en", 8)]:
        _, basis, _, sched = make(family, n)
        out = lat.sample_domain(basis, seed=3, count=1_000).copy()
        for step in sched.steps:
            dot = out @ step.v
            mask = dot < 0.0
            out[mask] -= np.outer(2 * dot[mask] / (step.v @ step.v), step.v)
        assert fo.fold_predicate(sched, out).all()


def test_apply_fold_scalar_and_empty_schedule():
    _, basis, _, sched = make("dn-second", 3)
    assert len(sched) == 0
    yt = np.array([0.3, -0.4])
    assert np.array_equal(fo.apply_fold(sched, yt), yt)
    _, basis4, _, sched4 = make("dn-second", 4)
    yt = lat.sample_domain(basis4, seed=4, count=1)[0]
    out = fo.apply_fold(sched4, yt)
    assert out.shape == yt.shape
    assert fo.fold_predicate(sched4, out).all()


@pytest.mark.parametrize(
    "family,n", [("an", 4), ("dn-const-a", 4), ("dn-second", 5), ("en", 6)]
)
def test_fold_invariance(family, n):
    _, basis, f, sched = make(family, n)
    dev = fo.verify_fold_invariance(basis, f, sched, seed=0, count=10_000)
    assert dev <= 1e-9


def test_fold_invariance_deterministic_across_thread_counts(monkeypatch):
    _, basis, f, sched = make("dn-const-a", 5)
    monkeypatch.setenv(fo.THREADS_ENV, "1")
    a = fo.verify_fold_invariance(basis, f, sched, seed=7, count=4_000)
    monkeypatch.setenv(fo.THREADS_ENV, "3")
    b = fo.verify_fold_invariance(basis, f, sched, seed=7, count=4_000)
    assert a == b


def test_fold_invariance_rejects_bad_count():
    _, basis, f, sched = make("an", 3)
    with pytest.raises(DomainError):
        fo.verify_fold_invariance(basis, f, sched, seed=0, count=0)


@pytest.mark.parametrize("family,n", sorted(FOLDED_STRUCTURE))
def test_folded_structure_frozen(family, n):
    _, basis, f, sched = make(family, n)
    memberships, planes, groups = fo.folded_structure(f, sched)
    assert (len(memberships), len(planes), len(groups)) == FOLDED_STRUCTURE[
        (family, n)
    ]


def test_folded_oracle_small():
    for family, n in [("an", 3), ("dn-const-a", 3), ("dn-const-a", 6), ("dn-second", 5), ("en", 6)]:
        _, basis, f, sched = make(family, n)
        got = fo.folded_piece_count_oracle(basis, f, sched, samples=40_000)
        assert got == FOLDED_STRUCTURE[(family, n)][1]


def test_folded_oracle_an_linear_in_n():
    ns = np.arange(2, 9)
    vals = []
    for n in ns:
        _, basis, f, sched = make("an", int(n))
        samples = 300_000 if n == 8 else 60_000
        vals.append(fo.folded_piece_count_oracle(basis, f, sched, samples=samples))
    coef = np.polyfit(ns, vals, 1)
    fit = np.polyval(coef, ns)
    assert np.abs(np.array(vals) - fit).max() <= 1e-9


def test_folded_count_report_dn_second():
    _, basis, f, sched = make("dn-second", 5)
    row = fo.folded_count_report(basis, f, sched)
    assert row["enumerated"] == 15
    assert row["enumerated_pairs"] == 18
    assert row["stated"] == 24
    assert row["sketch"] == 18
    assert row["measured"] == 15
    assert row["stable"] and row["match_enum"]


def test_folded_count_report_en():
    _, basis, f, sched = make("en", 6)
    row = fo.folded_count_report(basis, f, sched)
    assert row["enumerated"] == 26
    assert row["enumerated_pairs"] == 32
    assert row["stated"] == 32
    assert row["sketch"] == 44
    assert row["stable"] and row["match_enum"]


def test_sample_folded_domain_two_routes():
    _, basis, _, sched = make("an", 4)
    pts = fo.sample_folded_domain(basis, sched, seed=5, count=5_000)
    assert pts.shape[0] >= 5_000
    assert fo.fold_predicate(sched, pts).all()
    assert lat.domain_contains(basis, pts).all()


def test_reduce_identity_inside_base_cell():
    basis = lat.build_basis(FamilyId("an", 3))
    Y = lat.sample_parallelotope(basis, seed=6, count=200)
    y, z = fo.reduce_to_parallelotope(basis, Y, M=2)
    assert np.array_equal(y, Y)
    assert not z.any()


def test_reduce_known_shift():
    basis = lat.build_basis(FamilyId("an", 3))
    y = lat.sample_parallelotope(basis, seed=7, count=1)[0]
    y0 = y + 2 * basis.G[1]
    got, z = fo.reduce_to_parallelotope(basis, y0, M=2)
    assert np.array_equal(z, [0, 2, 0])
    assert np.abs(got - y).max() <= 1e-12


def test_reduce_matches_floor_oracle_and_lands_in_cell():
    basis = lat.build_basis(FamilyId("dn-second", 4))
    M = 3
    rng = np.random.default_rng(8)
    alpha = rng.random((1_000, 4))
    alpha[:, 1:] *= 2**M
    Y0 = alpha @ basis.G
    y, z = fo.reduce_to_parallelotope(basis, Y0, M)
    assert np.array_equal(z[:, 1:], np.floor(Y0 @ basis.Ginv)[:, 1:].astype(np.int64))
    assert not z[:, 0].any()
    back = y + z @ basis.G
    assert np.abs(back - Y0).max() <= 1e-9
    a = y @ basis.Ginv
    assert (a >= -lat.GEOM_TOL).all() and (a < 1.0 + lat.GEOM_TOL).all()


def test_reduce_rejects_outside_extended_box():
    basis = lat.build_basis(FamilyId("an", 3))
    with pytest.raises(DomainError):
        fo.reduce_to_parallelotope(basis, 5.0 * basis.G[1], M=2)
    with pytest.raises(DomainError):
        fo.reduce_to_parallelotope(basis, -0.5 * basis.G[0], M=1)
    with pytest.raises(DomainError):
        fo.reduce_to_parallelotope(basis, np.zeros(4), M=1)


def test_schedule_json_round_trip():
    fid, basis, _, sched = make("en", 7)
    text = fo.schedule_to_json(sched)
    rows = json.loads(text)
    assert [(r["j"], r["k"]) for r in rows] == [(s.j, s.k) for s in sched.steps]
    back = fo.schedule_from_json(text)
    assert len(back) == len(sched)
    for a, b in zip(back.steps, sched.steps):
        assert (a.j, a.k) == (b.j, b.k)
        assert np.array_equal(a.v, b.v)


@pytest.mark.parametrize("family,n", [("an", 4), ("dn-second", 5), ("en", 7)])
def test_schedule_from_json_folds_like_the_original(family, n):
    # the parsed schedule needs no basis: apply_fold and folded_structure
    # take everything from the points and from f
    _, basis, f, sched = make(family, n)
    back = fo.schedule_from_json(fo.schedule_to_json(sched))
    Yt = lat.sample_domain(basis, seed=5, count=2000)
    assert fo.apply_fold(back, Yt).tobytes() == fo.apply_fold(sched, Yt).tobytes()
    assert fo.folded_structure(f, back) == fo.folded_structure(f, sched)
