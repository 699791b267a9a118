"""The CPWL decision-boundary function f: min over corner groups of max over
bisector pieces, plus independent piece-count oracles and the bit decoder.

Every C^1 corner x contributes a group of hyperplanes, one per closest C^0
neighbor x'. A "piece" is a (group, hyperplane) membership after merging
corners whose whole hyperplane sets coincide; that merge is what reproduces
the coincidence corrections in the closed-form counts (two chain corners of
the second D_n basis share their single bisector, and three E_n corner pairs
collapse the same way).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lattices as lat
from .errors import ConstructionError, DomainError, InternalCheckError
from .lattices import FamilyId, OrientedBasis

DECODE_TOL = 1e-7
# points per block of eval_boundary_batch's (N x memberships) gather
EVAL_ROWS = 20_000
# sample_domain points of count_pieces_sampled above n = 4
SAMPLE_BUDGET = 200_000

PlaneKey = tuple[tuple[int, ...], int]  # (difference z-vector, 2p as integer)


@dataclass(frozen=True, eq=False)
class BoundaryFunction:
    """Evaluation structure for f(ytilde) = min_groups max_members h_j(ytilde).

    Planes are deduplicated by exact integer keys; groups are deduplicated as
    whole sets. Membership m is the pair (group g, plane p) laid out in
    (g, p) order, and eval reports the active membership id, so distinct
    active ids over the domain count pieces.
    """

    basis: OrientedBasis
    plane_keys: tuple[PlaneKey, ...]
    V: np.ndarray  # (P, n) plane normals v = (x - x') G
    p: np.ndarray  # (P,) plane offsets
    A: np.ndarray  # (P, n-1) piece gradients a = -vtilde / v_1
    c: np.ndarray  # (P,) piece biases p / v_1
    group_planes: tuple[tuple[int, ...], ...]  # sorted plane ids per merged group
    group_corner_z: tuple[tuple[tuple[int, ...], ...], ...]  # corners sharing each group
    pair_x: np.ndarray  # (Np, n) int, C^1 endpoint of each neighbor pair
    pair_xp: np.ndarray  # (Np, n) int, C^0 endpoint
    pair_plane: np.ndarray  # (Np,) plane id per pair

    @property
    def n(self) -> int:
        return self.basis.n

    @cached_property
    def memberships(self) -> np.ndarray:
        """(Pm, 2) array of (group id, plane id) in canonical order."""
        rows = [(g, pid) for g, planes in enumerate(self.group_planes) for pid in planes]
        return np.asarray(rows, dtype=np.int64).reshape(-1, 2)

    @cached_property
    def _memb_slices(self) -> list[tuple[int, int]]:
        out, start = [], 0
        for planes in self.group_planes:
            out.append((start, start + len(planes)))
            start += len(planes)
        return out

    @cached_property
    def lipschitz_bound(self) -> float:
        """max over planes of ||vtilde|| / |v . e_1|, a Lipschitz constant for f."""
        return float(np.sqrt((self.A**2).sum(axis=1)).max()) if len(self.A) else 0.0


def build_boundary(basis: OrientedBasis) -> BoundaryFunction:
    """Construct f from all (x in C^1, x' in C^0) closest-neighbor pairs.

    The bisector of (x, x') has v = x - x' and p = (||x||^2 - ||x'||^2)/2.
    With integer Gram data both are exact: the plane key stores the integer
    difference vector d and 2p = 2 z' gram d + d gram d.
    """
    if not basis.gram_is_integral:
        raise ConstructionError("boundary construction needs an integer gram matrix")
    n = basis.n
    gram = basis.gram.astype(np.int64)
    diag = np.diag(gram)
    # an even diagonal spans an even lattice (norms >= 2); a diagonal 2 attains it
    if (diag % 2).any() or diag.min() != 2:
        raise ConstructionError(
            f"boundary construction needs an even gram diagonal with minimum 2, "
            f"got {diag.tolist()}"
        )
    corners = lat.enumerate_corners(basis)
    c1 = corners.z[corners.c1_rows]
    c0 = corners.z[corners.c0_rows]

    plane_ids: dict[PlaneKey, int] = {}
    keys: list[PlaneKey] = []
    pair_x: list[np.ndarray] = []
    pair_xp: list[np.ndarray] = []
    pair_plane: list[int] = []
    corner_groups: list[tuple[tuple[int, ...], frozenset[int]]] = []

    for x in c1:
        d = x[None, :] - c0
        norms = np.einsum("ij,jk,ik->i", d, gram, d)
        members: set[int] = set()
        for row in np.flatnonzero(norms == 2):
            dd = d[row]
            xp = c0[row]
            two_p = int(2 * (xp @ gram @ dd) + dd @ gram @ dd)
            key: PlaneKey = (tuple(int(v) for v in dd), two_p)
            pid = plane_ids.get(key)
            if pid is None:
                pid = len(keys)
                plane_ids[key] = pid
                keys.append(key)
            members.add(pid)
            pair_x.append(x.copy())
            pair_xp.append(xp.copy())
            pair_plane.append(pid)
        if members:
            corner_groups.append((tuple(int(v) for v in x), frozenset(members)))

    # merge corners whose whole groups coincide
    merged: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for zx, group in corner_groups:
        merged.setdefault(group, []).append(zx)
    group_items = sorted(merged.items(), key=lambda kv: tuple(sorted(kv[0])))
    group_planes = tuple(tuple(sorted(g)) for g, _ in group_items)
    group_corner_z = tuple(tuple(sorted(zs)) for _, zs in group_items)

    V = np.array([np.asarray(k[0], dtype=float) @ basis.G for k in keys]).reshape(-1, n)
    p = np.array([k[1] / 2.0 for k in keys])
    v1 = V[:, 0] if len(V) else np.empty(0)
    if len(V) and np.abs(v1).min() <= lat.GEOM_TOL:
        bad = int(np.abs(v1).argmin())
        raise ConstructionError(
            f"bisector normal {keys[bad][0]} has zero first coordinate"
        )
    A = -V[:, 1:] / v1[:, None] if len(V) else np.empty((0, max(n - 1, 0)))
    c = p / v1 if len(V) else np.empty(0)

    f = BoundaryFunction(
        basis=basis,
        plane_keys=tuple(keys),
        V=V,
        p=p,
        A=A,
        c=c,
        group_planes=group_planes,
        group_corner_z=group_corner_z,
        pair_x=np.asarray(pair_x, dtype=np.int64).reshape(-1, n),
        pair_xp=np.asarray(pair_xp, dtype=np.int64).reshape(-1, n),
        pair_plane=np.asarray(pair_plane, dtype=np.int64),
    )
    _check_boundary(f)
    return f


def _check_boundary(f: BoundaryFunction) -> None:
    """Construction-time invariants: midpoints on planes, corners above caps."""
    basis = f.basis
    mid = (f.pair_x + f.pair_xp) @ basis.G / 2.0
    v = f.V[f.pair_plane]
    resid = np.abs((mid * v).sum(axis=1) - f.p[f.pair_plane])
    if resid.size and resid.max() > 1e-9:
        raise InternalCheckError(f"bisector misses pair midpoint by {resid.max():.2e}")
    kiss = _kissing_formula(basis.fid)
    for planes, zs in zip(f.group_planes, f.group_corner_z):
        if kiss is not None and len(planes) >= kiss:
            raise InternalCheckError("group size reached the kissing number")
        x = np.asarray(zs[0], dtype=float) @ basis.G
        cap = (x[None, 1:] @ f.A[list(planes)].T + f.c[list(planes)]).max()
        if x[0] <= cap:
            raise InternalCheckError("C^1 corner not strictly above its own cap")


def _kissing_formula(fid: FamilyId | None) -> int | None:
    """Known kissing numbers per family (cross-checked by shell enumeration
    in the lattice-core tests); None for unknown bases."""
    if fid is None:
        return None
    n = fid.n
    if fid.family == lat.FAMILY_AN:
        return n * (n + 1)
    if fid.family in (lat.FAMILY_DN_CONST_A, lat.FAMILY_DN_SECOND):
        return 2 * n * (n - 1) if n >= 3 else 4
    return {6: 72, 7: 126, 8: 240}[n]


def eval_boundary_batch(
    f: BoundaryFunction, Yt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized f evaluation, EVAL_ROWS points per block.

    Returns (values, active membership ids). The active id is the argmin-of-
    argmax membership; numpy's first-minimum/first-maximum rule realizes the
    smallest-id tie-break because memberships are laid out in (group, plane)
    order with plane ids ascending.
    """
    Yt = np.atleast_2d(np.asarray(Yt, dtype=float))
    N = Yt.shape[0]
    vals = np.empty(N)
    act = np.empty(N, dtype=np.int64)
    slices = f._memb_slices
    memb_plane = f.memberships[:, 1]
    for lo in range(0, N, EVAL_ROWS):
        block = Yt[lo : lo + EVAL_ROWS]
        H = block @ f.A.T + f.c  # (N, P) piece values per plane
        Hm = H[:, memb_plane]  # (N, Pm) per membership
        gmax = np.empty((block.shape[0], len(slices)))
        garg = np.empty((block.shape[0], len(slices)), dtype=np.int64)
        for g, (s, e) in enumerate(slices):
            sub = Hm[:, s:e]
            garg[:, g] = sub.argmax(axis=1) + s
            gmax[:, g] = np.take_along_axis(sub, (garg[:, g] - s)[:, None], 1)[:, 0]
        gmin = gmax.argmin(axis=1)
        vals[lo : lo + EVAL_ROWS] = np.take_along_axis(gmax, gmin[:, None], 1)[:, 0]
        act[lo : lo + EVAL_ROWS] = np.take_along_axis(garg, gmin[:, None], 1)[:, 0]
    return vals, act


# ---------------------------------------------------------------------------
# piece counts: closed forms, pair-enumeration oracle, sampled cross-check
# ---------------------------------------------------------------------------

def _binom(a: int, b: int) -> int:
    return math.comb(a, b) if 0 <= b <= a else 0


def count_pieces_formula(fid: FamilyId) -> int:
    """Closed-form piece count of f over D(B) for the family.

    For the E_n family the published sum is ambiguous about one binomial index;
    en_formula_readings computes both and the enumeration oracle adjudicates
    (tests pin the multiplicity reading binom(n-3, i)).
    """
    n = fid.n
    if fid.family == lat.FAMILY_AN:
        return sum(i * _binom(n - 1, n - i) for i in range(1, n + 1))
    if fid.family == lat.FAMILY_DN_CONST_A:
        return sum(
            ((n - 1 - i) + _binom(n - 1 - i, 2)) * _binom(n - 1, i)
            for i in range(0, n - 1)
        )
    if fid.family == lat.FAMILY_DN_SECOND:
        total = sum(
            ((1 + (n - 2 - i)) + (1 + 2 * (n - 2 - i) + _binom(n - 2 - i, 2)))
            * _binom(n - 2, i)
            for i in range(0, n - 1)
        )
        return total - 1
    return en_formula_readings(n)["multiplicity_over_i"]


def en_formula_readings(n: int) -> dict[str, int]:
    """Both readings of the E_n closed form (ambiguous multiplicity binomial)."""

    def term(i: int) -> int:
        k = n - 3 - i
        return (
            (1 + k)
            + 2 * (1 + 2 * k + _binom(k, 2))
            + (1 + 3 * k + 3 * _binom(k, 2) + _binom(k, 3))
        )

    over_i = sum(term(i) * _binom(n - 3, i) for i in range(0, n - 2)) - 3
    literal = sum(term(i) * _binom(n - 3, n - i) for i in range(0, n - 2)) - 3
    return {"multiplicity_over_i": over_i, "multiplicity_literal": literal}


def count_pieces_oracle(f: BoundaryFunction) -> int:
    """Piece count by pair enumeration: total memberships of the merged groups."""
    return sum(len(planes) for planes in f.group_planes)


def count_pieces_sampled(
    basis: OrientedBasis,
    f: BoundaryFunction,
    grid_density: int = 60,
    seed: int = 0,
) -> int:
    """Distinct active membership ids over a dense sample of the D(B) interior.

    Uses a regular grid for n - 1 <= 3 and at most SAMPLE_BUDGET seeded
    uniform samples above that (the grid would explode combinatorially).
    Always <= the oracle count.
    """
    if grid_density < 10:
        raise DomainError("grid_density must be >= 10")
    Yt = _domain_cloud(basis, grid_density, seed)
    _, act = eval_boundary_batch(f, Yt)
    return int(np.unique(act).size)


def _domain_cloud(basis: OrientedBasis, grid_density: int, seed: int) -> np.ndarray:
    """D(B) points: the bbox grid masked by domain_contains at n <= 4 (exact,
    pinned counts), else min(grid_density^d, SAMPLE_BUDGET) sample_domain points."""
    d = basis.n - 1
    if d == 0:
        return np.zeros((1, 0))
    if d <= 3:
        lo, hi = lat.domain_bbox(basis)
        axes = [np.linspace(lo[j], hi[j], grid_density) for j in range(d)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        return mesh[lat.domain_contains(basis, mesh)]
    count = min(grid_density ** d, SAMPLE_BUDGET)
    return lat.sample_domain(basis, seed, count)


def decode_bit_batch(
    f: BoundaryFunction, Y: np.ndarray, tol: float = DECODE_TOL
) -> np.ndarray:
    """Decode z_1 of each y in P(B): 1 above f, 0 below, -1 inside the tol band."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    vals, _ = eval_boundary_batch(f, Y[:, 1:])
    out = np.full(Y.shape[0], -1, dtype=np.int8)
    out[Y[:, 0] > vals + tol] = 1
    out[Y[:, 0] < vals - tol] = 0
    return out


# ---------------------------------------------------------------------------
# reports and export
# ---------------------------------------------------------------------------

def piece_count_report(
    fid: FamilyId,
    grid_density: int = 60,
    seed: int = 0,
) -> dict:
    """One row of the piece-count verification: formula vs oracle vs sampling."""
    basis = lat.build_basis(fid)
    f = build_boundary(basis)
    oracle = count_pieces_oracle(f)
    sampled = count_pieces_sampled(basis, f, grid_density=grid_density, seed=seed)
    row = {
        "family": fid.family,
        "n": fid.n,
        "formula": count_pieces_formula(fid),
        "oracle": oracle,
        "sampled": sampled,
        "match": bool(count_pieces_formula(fid) == oracle and sampled <= oracle),
    }
    if fid.family == lat.FAMILY_EN:
        readings = en_formula_readings(fid.n)
        row["formula_readings"] = readings
        row["adjudicated_reading"] = (
            "multiplicity_over_i"
            if oracle == readings["multiplicity_over_i"]
            else "multiplicity_literal"
            if oracle == readings["multiplicity_literal"]
            else "neither"
        )
    return row


def boundary_to_json(f: BoundaryFunction) -> str:
    """Export the grouped hyperplanes as a JSON list of {v, p, group}."""
    rows = []
    for g, planes in enumerate(f.group_planes):
        for pid in planes:
            rows.append(
                {"v": [float(x) for x in f.V[pid]], "p": float(f.p[pid]), "group": g}
            )
    return json.dumps(rows, indent=2)
