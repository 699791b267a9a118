"""The CPWL decision-boundary function f: min over corner groups of max over
bisector pieces, plus closed-form piece counts, a certificate that every
enumerated piece is one, and the bit decoder.

Every C^1 corner x contributes a group of hyperplanes, one per closest C^0
neighbor x'. A "piece" is a (group, hyperplane) membership after merging
corners whose whole hyperplane sets coincide; that merge is what reproduces
the coincidence corrections in the closed-form counts (two chain corners of
the second D_n basis share their single bisector, and three E_n corner pairs
collapse the same way).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lattices as lat
from .errors import ConstructionError, InternalCheckError
from .lattices import FamilyId, OrientedBasis

DECODE_TOL = 1e-7
# rows per block of _min_max, whose plane-major heights and (groups x rows)
# maxima then stay in cache (the last block takes the tail too), and of
# certify_pieces, which holds one (witnesses x memberships) table per block
EVAL_ROWS = 512

PlaneKey = tuple[tuple[int, ...], int]  # (difference z-vector, 2p as integer)


@dataclass(frozen=True, eq=False)
class BoundaryFunction:
    """Evaluation structure for f(ytilde) = min_groups max_members h_j(ytilde).

    Planes are deduplicated by exact integer keys; groups are deduplicated as
    whole sets. Row m of `memberships` is the pair (group g, plane p), laid
    out in (g, p) order, so each group's rows are contiguous; eval reports
    the active membership id, so distinct active ids over the domain count
    pieces. `pair_memb` holds the membership of each neighbor pair (the group
    of its C^1 endpoint, the plane of its bisector); every membership has at
    least one pair. All of it is read by the dense oracle and membership-id
    route `eval_boundary_batch`; `folding.FoldedBoundary` serves points.
    `build_boundary` fills every field in one array pass over blocks of C^1
    rows (about 2^20 corner pairs each); only the corner merge and the rows
    of V loop in Python.
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
    memberships: np.ndarray  # (Pm, 2) int, (group id, plane id) in (g, p) order
    pair_memb: np.ndarray  # (Np,) membership id per pair

    @property
    def n(self) -> int:
        return self.basis.n


def build_boundary(basis: OrientedBasis) -> BoundaryFunction:
    """Construct f from all (x in C^1, x' in C^0) closest-neighbor pairs.

    The bisector of (x, x') has v = x - x' and p = (||x||^2 - ||x'||^2)/2.
    With integer Gram data both are exact: the plane key stores the integer
    difference vector d and 2p = 2 z' gram d + d gram d.

    Built in one array pass. The pairs are the entries equal to 2 of the
    integer norm table q(x) + q(x') - 2 x gram x'^T, taken over blocks of C^1
    rows of about 2^20 entries each, so no C^1 x C^0 table is ever held; read
    row-major, they come corner by corner, x' ascending. Each key packs into
    one int64, and plane ids number the distinct keys in first-occurrence
    order. Corners merge by their sorted plane-id tuples, which also order the
    groups; a pair's membership id is its group's start plus its plane's rank
    in the group. Only the merge (per corner) and V (per plane) loop in Python.
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

    q0 = np.einsum("ij,jk,ik->i", c0, gram, c0)
    q1 = np.einsum("ij,jk,ik->i", c1, gram, c1)
    cross = -2 * gram @ c0.T
    step = max(1, (1 << 20) // len(c0))
    hits = np.concatenate([
        np.flatnonzero(c1[lo : lo + step] @ cross + q0 + q1[lo : lo + step, None] == 2)
        + lo * len(c0)
        for lo in range(0, len(c1), step)
    ])
    pair_corner, pair_col = np.divmod(hits, len(c0))  # corner ascending, then x'
    pair_x, pair_xp = c1[pair_corner], c0[pair_col]

    d = pair_x - pair_xp
    # 2p = 2 z' gram d + d gram d, and d gram d = 2 on every pair
    key_rows = np.column_stack([d, 2 * np.einsum("ij,jk,ik->i", pair_xp, gram, d) + 2])
    base = key_rows.min(axis=0, initial=0)
    dims = tuple((key_rows.max(axis=0, initial=0) - base + 1).tolist())
    code = np.ravel_multi_index(tuple((key_rows - base).T), dims)
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)
    pair_plane = np.argsort(order)[inverse]
    keys = key_rows[first[order]]

    # merge corners whose whole sorted plane-id tuples coincide
    corner_ids, starts, counts = np.unique(pair_corner, return_index=True, return_counts=True)
    by_corner = np.lexsort((pair_plane, pair_corner))
    flat = pair_plane[by_corner].tolist()
    corner_planes = [tuple(flat[a : a + k]) for a, k in zip(starts.tolist(), counts.tolist())]
    merged: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for zx, planes in zip(c1[corner_ids].tolist(), corner_planes):
        merged.setdefault(planes, []).append(tuple(zx))
    group_planes = tuple(sorted(merged))
    group_corner_z = tuple(tuple(sorted(merged[g])) for g in group_planes)
    group_of = {g: gi for gi, g in enumerate(group_planes)}
    sizes = np.array([len(g) for g in group_planes], dtype=np.int64)
    group_start = np.cumsum(sizes) - sizes
    corner_start = group_start[np.array([group_of[g] for g in corner_planes], dtype=np.int64)]
    pair_memb = np.empty(len(pair_plane), dtype=np.int64)
    pair_memb[by_corner] = np.arange(len(pair_plane)) + np.repeat(corner_start - starts, counts)
    memberships = np.column_stack([
        np.repeat(np.arange(len(group_planes), dtype=np.int64), sizes),
        np.fromiter(itertools.chain.from_iterable(group_planes), dtype=np.int64),
    ])

    plane_keys = tuple((tuple(k[:-1]), k[-1]) for k in keys.tolist())
    # one row per plane: a stacked D @ G can round differently in the last bit
    V = np.array([row @ basis.G for row in keys[:, :-1].astype(float)]).reshape(-1, n)
    p = keys[:, -1] / 2.0
    v1 = V[:, 0] if len(V) else np.empty(0)
    if len(V) and np.abs(v1).min() <= lat.GEOM_TOL:
        bad = int(np.abs(v1).argmin())
        raise ConstructionError(
            f"bisector normal {plane_keys[bad][0]} has zero first coordinate"
        )
    A = -V[:, 1:] / v1[:, None] if len(V) else np.empty((0, max(n - 1, 0)))
    c = p / v1 if len(V) else np.empty(0)

    f = BoundaryFunction(
        basis=basis,
        plane_keys=plane_keys,
        V=V,
        p=p,
        A=A,
        c=c,
        group_planes=group_planes,
        group_corner_z=group_corner_z,
        pair_x=pair_x,
        pair_xp=pair_xp,
        memberships=memberships,
        pair_memb=pair_memb,
    )
    _check_boundary(f)
    return f


def _check_boundary(f: BoundaryFunction) -> None:
    """Construction-time invariants: midpoints on planes, groups smaller than
    the kissing number, each group's first corner strictly above its cap."""
    basis = f.basis
    mid = (f.pair_x + f.pair_xp) @ basis.G / 2.0
    pair_plane = f.memberships[f.pair_memb, 1]
    resid = np.abs((mid * f.V[pair_plane]).sum(axis=1) - f.p[pair_plane])
    if resid.size and resid.max() > 1e-9:
        raise InternalCheckError(f"bisector misses pair midpoint by {resid.max():.2e}")
    if not len(f.memberships):
        return
    group, plane = f.memberships.T
    sizes = np.bincount(group)
    kiss = _kissing_formula(basis.fid)
    if kiss is not None and sizes.max() >= kiss:
        raise InternalCheckError("group size reached the kissing number")
    X = np.array([zs[0] for zs in f.group_corner_z], dtype=float) @ basis.G
    heights = np.einsum("ij,ij->i", X[group, 1:], f.A[plane]) + f.c[plane]
    cap = np.maximum.reduceat(heights, np.cumsum(sizes) - sizes)
    if (X[:, 0] <= cap).any():
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


def _min_max(
    X: np.ndarray, W: np.ndarray, bias: np.ndarray, group: np.ndarray, column: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The min-max kernel of both evaluators: per row of X, the min over groups
    of the max over their members' heights (X W + bias)[column], members in
    ascending `group` order; returns (values, first argmin-of-argmax member).
    A block of EVAL_ROWS rows goes plane-major, and the groups, largest first,
    take their max one rank at a time, rank r over the prefix larger than r.
    The last block takes the tail too, so no block has one row unless X does:
    numpy sends a one-row product to gemv, which can differ from gemm."""
    _, starts, sizes = np.unique(group, return_index=True, return_counts=True)
    # each group's columns by rank, padded by repeating the group's last one
    table = column[starts[:, None] + np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)]
    order = np.argsort(-sizes, kind="stable")
    ranked, back = table[order], np.argsort(order)
    larger = (sizes > np.arange(1, table.shape[1])[:, None]).sum(axis=1).tolist()
    count = X.shape[0]
    vals, act = np.empty(count), np.empty(count, dtype=np.int64)
    for lo in range(0, max(count - EVAL_ROWS + 1, 1), EVAL_ROWS):
        hi = lo + EVAL_ROWS if lo + 2 * EVAL_ROWS <= count else count
        Ht = np.ascontiguousarray((X[lo:hi] @ W + bias).T)  # (columns, rows)
        gmax = Ht[ranked[:, 0]]
        for r, k in enumerate(larger, 1):
            np.maximum(gmax[:k], Ht[ranked[:k, r]], out=gmax[:k])
        gmax = gmax[back]
        g = gmax.argmin(axis=0)
        rows = np.arange(hi - lo)
        vals[lo:hi] = gmax[g, rows]
        act[lo:hi] = starts[g] + Ht[table[g], rows[:, None]].argmax(axis=1)
    return vals, act


def eval_boundary_batch(
    f: BoundaryFunction, Yt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dense f evaluation over every membership (the oracle of the fold-first
    `folding.eval_folded_batch`): (values, active membership ids) from
    `_min_max` over the per-plane heights Yt A^T + c. Its first-minimum/
    first-maximum rule realizes the smallest-id tie-break because memberships
    are laid out in (group, plane) order with plane ids ascending."""
    return _min_max(np.atleast_2d(np.asarray(Yt, dtype=float)), f.A.T, f.c, *f.memberships.T)


# ---------------------------------------------------------------------------
# piece counts: closed forms and the witness certificate
# ---------------------------------------------------------------------------

def _binom(a: int, b: int) -> int:
    return math.comb(a, b) if 0 <= b <= a else 0


def count_pieces_formula(fid: FamilyId) -> int:
    """Closed-form piece count of f over D(B) for the family.

    For the E_n family the published sum is ambiguous about one binomial index;
    en_formula_readings computes both and the enumerated count adjudicates
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


def certify_pieces(f: BoundaryFunction) -> np.ndarray:
    """Per membership (g, p), whether its witness proves it is a piece of f.

    The witness is the projected midpoint of the membership's first neighbor
    pair; it lies in D(B), since P(B) is convex. It certifies (g, p) when
    there plane p beats the other planes of group g, and group g's max beats
    every other group's max, each by at least DECODE_TOL. Strict margins hold
    on an open neighborhood, so (g, p) is active on a set of positive volume.
    Witnesses go in blocks of EVAL_ROWS against every membership at once.
    """
    group, plane = f.memberships.T
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    _, first = np.unique(f.pair_memb, return_index=True)
    W = ((f.pair_x[first] + f.pair_xp[first]) @ f.basis.G / 2.0)[:, 1:]
    A, c = f.A[plane].T, f.c[plane]
    margin = np.empty(len(group))
    for lo in range(0, len(group), EVAL_ROWS):
        m = np.arange(lo, min(lo + EVAL_ROWS, len(group)))  # witness m certifies membership m
        rows = m - lo
        H = W[m] @ A + c  # (witnesses, memberships), row-major for reduceat
        own = H[rows, m]
        H[rows, m] = -np.inf
        gmax = np.maximum.reduceat(H, starts, axis=1)
        runner_up = gmax[rows, group[m]]  # best other plane of the own group
        gmax[rows, group[m]] = np.inf
        margin[m] = np.minimum(own - runner_up, gmax.min(axis=1) - own)
    return margin >= DECODE_TOL


def decode_bit_batch(Y: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Decode z_1 of each y in P(B) from vals = f(y~): 1 above, 0 below, -1
    within DECODE_TOL."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    out = np.full(Y.shape[0], -1, dtype=np.int8)
    out[Y[:, 0] > vals + DECODE_TOL] = 1
    out[Y[:, 0] < vals - DECODE_TOL] = 0
    return out


# ---------------------------------------------------------------------------
# reports and export
# ---------------------------------------------------------------------------

def piece_count_report(fid: FamilyId) -> dict:
    """One row of the piece-count verification: formula vs oracle (the
    enumerated memberships) vs the memberships certify_pieces proves. The
    certified count keeps the field name `sampled`."""
    f = build_boundary(lat.build_basis(fid))
    oracle = len(f.memberships)
    certified = int(certify_pieces(f).sum())
    formula = count_pieces_formula(fid)
    row = {
        "family": fid.family,
        "n": fid.n,
        "formula": formula,
        "oracle": oracle,
        "sampled": certified,
        "match": bool(formula == oracle == certified),
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
