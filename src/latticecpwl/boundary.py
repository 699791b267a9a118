"""The CPWL decision-boundary function f: min over corner groups of max over
bisector pieces, plus closed-form piece counts, an integer certificate that
every enumerated piece is one, and the bit decoder.

Every C^1 corner x contributes a group of hyperplanes, one per closest C^0
neighbor x', the bisector of the integer root x - x'. A "piece" is a (group,
hyperplane) membership after merging corners whose whole hyperplane sets
coincide; that merge is what reproduces the coincidence corrections in the
closed-form counts (two chain corners of the second D_n basis share their
single bisector, and three E_n corner pairs collapse the same way).

f holds integers only; `pieces` forms from them the one float table of
pieces that every evaluator reads."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lattices as lat
from .errors import InternalCheckError
from .lattices import FamilyId, OrientedBasis

DECODE_TOL = 1e-7
# points per block of _height_blocks, whose (planes x points) heights and
# (groups x points) maxima then stay in cache
EVAL_ROWS = 512
# blocks per chunk of _min_max_near: 16,384 points (the last chunk takes the
# tail, up to 32,767), so its group reductions take packed rows of 2-4 kB;
# only one block's bools are held, 2 x 161 x 1,023 at most at en 8
EVAL_CHUNK = 32
# fewest memberships for which _min_max_near certifies: below it the float
# gather of _min_max costs less than the certificate's per-point work (on
# 10k points they break even between 57 and 112 memberships, n = 5 and 6)
NEAR_MEMBERSHIPS = 100


@dataclass(frozen=True, eq=False)
class BoundaryFunction:
    """f(ytilde) = min_groups max_members h_j(ytilde), held in integers:
    `pieces` forms the float heights h_j that the evaluators read.

    Row j of d and p2 is plane j's integer key, which deduplicates planes:
    the root d = x - x' of its pairs (d_1 = 1, d gram d = 2) and
    p2 = 2p = (x + x') gram d. Groups are deduplicated as whole sets. Row m
    of `memberships` is the pair (group g, plane p), laid out in (g, p)
    order, so each group's rows are contiguous. The dense oracle
    `eval_boundary_batch` returns each point's active membership id, so
    distinct active ids over the domain count pieces; the `eval` command
    prints values only, served by `folding.FoldedBoundary`. `pair_memb`
    holds the membership of each neighbor pair (the group of its C^1
    endpoint, the plane of its bisector); every membership has a pair, and
    pairs come corner by corner.
    """

    basis: OrientedBasis
    d: np.ndarray  # (P, n) int, root x - x' of each plane
    p2: np.ndarray  # (P,) int, 2p = (x + x') gram d
    memberships: np.ndarray  # (Pm, 2) int, (group id, plane id) in (g, p) order
    pair_x: np.ndarray  # (Np, n) int, C^1 endpoint of each neighbor pair
    pair_xp: np.ndarray  # (Np, n) int, C^0 endpoint
    pair_memb: np.ndarray  # (Np,) membership id per pair

    def __post_init__(self) -> None:
        for a in (self.d, self.p2, self.memberships, self.pair_x, self.pair_xp, self.pair_memb):
            a.setflags(write=False)


def build_boundary(basis: OrientedBasis, z: np.ndarray | None = None) -> BoundaryFunction:
    """Construct f from the (x in C^1, x' in C^0) closest-neighbor pairs among
    the corner labels z, lexicographically ordered; by default all 2^n
    corners. `folding.chamber_corners` gives the labels of the folded f.

    Built in one array pass. Every family Gram has an even diagonal with
    minimum 2, so the lattice is even with minimal norm 2, and the pairs are
    the entries equal to 2 of the integer norm table
    q(x) + q(x') - 2 x gram x'^T, in float64 (exact on its small integers,
    and its product goes through BLAS) over blocks of C^1 rows of about 2^20
    entries each, so no C^1 x C^0 table is ever held; read row-major, they
    come corner by corner, x' ascending. Plane ids number the distinct keys
    (d, p2) in first-occurrence order, found by a stable lexsort of the key rows, so
    no key is packed into one integer at any n. Corners merge by their sorted
    plane-id tuples, which also order the groups; a pair's membership id is
    its group's start plus its plane's rank in the group. Only the merge (per
    corner) loops in Python.

    The all-corner f is memoized per process for the last basis asked for
    (by identity, as `lat.build_basis` hands it out): calls on one instance
    share one read-only f. An explicit z builds afresh.
    """
    return _corner_boundary(basis) if z is None else _build_boundary(basis, z)


@lru_cache(maxsize=1)
def _corner_boundary(basis: OrientedBasis) -> BoundaryFunction:
    return _build_boundary(basis, lat.enumerate_corners(basis).z)


def _build_boundary(basis: OrientedBasis, z: np.ndarray) -> BoundaryFunction:
    gram = basis.gram
    c1, c0 = z[z[:, 0] == 1], z[z[:, 0] == 0]
    q0, q1 = _quad(c0, c0, gram), _quad(c1, c1, gram)
    rows, cross = c1.astype(float), (-2 * gram @ c0.T).astype(float)
    step = max(1, (1 << 20) // len(c0))
    hits = np.concatenate([
        np.flatnonzero(rows[lo : lo + step] @ cross + q0 + q1[lo : lo + step, None] == 2)
        + lo * len(c0)
        for lo in range(0, len(c1), step)
    ])
    pair_corner, pair_col = np.divmod(hits, len(c0))  # corner ascending, then x'
    pair_x, pair_xp = c1[pair_corner], c0[pair_col]

    d = pair_x - pair_xp
    # 2p = 2 z' gram d + d gram d, and d gram d = 2 on every pair
    key_rows = np.column_stack([d, 2 * _quad(pair_xp, d, gram) + 2])
    by_key = np.lexsort(key_rows.T[::-1])
    new = np.ones(len(by_key), dtype=bool)
    new[1:] = (np.diff(key_rows[by_key], axis=0) != 0).any(axis=1)
    first = by_key[new]  # the sort is stable: each key's first pair
    inverse = np.empty_like(by_key)
    inverse[by_key] = np.cumsum(new) - 1
    order = np.argsort(first)
    pair_plane = np.argsort(order)[inverse]
    keys = key_rows[first[order]]

    # merge corners whose whole sorted plane-id tuples coincide
    _, starts, counts = np.unique(pair_corner, return_index=True, return_counts=True)
    by_corner = np.lexsort((pair_plane, pair_corner))
    flat = pair_plane[by_corner].tolist()
    corner_planes = [tuple(flat[a : a + k]) for a, k in zip(starts.tolist(), counts.tolist())]
    group_planes = sorted(set(corner_planes))
    group_of = {g: gi for gi, g in enumerate(group_planes)}
    sizes = np.array([len(g) for g in group_planes], dtype=np.int64)
    group_start = np.cumsum(sizes) - sizes
    corner_start = group_start[np.array([group_of[g] for g in corner_planes], dtype=np.int64)]
    pair_memb = np.empty(len(pair_plane), dtype=np.int64)
    pair_memb[by_corner] = np.arange(len(pair_plane)) + np.repeat(corner_start - starts, counts)
    memberships = np.column_stack([
        np.repeat(np.arange(len(group_planes), dtype=np.int64), sizes),
        np.array([pl for g in group_planes for pl in g], dtype=np.int64),
    ])

    f = BoundaryFunction(basis, keys[:, :-1], keys[:, -1], memberships, pair_x, pair_xp, pair_memb)
    _check_boundary(f)
    return f


def pieces(f: BoundaryFunction, plane=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """(W, bias) of the planes (all by default): heights c' W + bias over
    c' = `tail_coords`. In c = y G^T plane j is d_j . c = p_j, and
    c_1 = G_11 y_1 + r . c' with r = gram[1:, 1:]^-1 g, g = gram[1:, 0].
    gram[1:, 1:] = I + J in every family, so r = g - (sum g / n) 1, and
    W = -(d' + r)^T / G_11, bias = p2 / (2 G_11), elementwise."""
    g, G11 = f.basis.gram[1:, 0], f.basis.G[0, 0]
    return -(f.d[plane, 1:] + (g - g.sum() / f.basis.n)).T / G11, f.p2[plane] / (2 * G11)


def tail_coords(basis: OrientedBasis, Yt: np.ndarray) -> np.ndarray:
    """c' = y~ G[1:, 1:]^T per row of Yt, the tail of c = y G^T: `pieces`' coordinates."""
    return np.atleast_2d(np.asarray(Yt, dtype=float)) @ basis.G[1:, 1:].T


def _quad(a: np.ndarray, b: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """The rows' a gram b^T in float64 BLAS, exact on these small integers."""
    return ((a.astype(float) @ gram) * b).sum(1).astype(np.int64)


def _check_boundary(f: BoundaryFunction) -> None:
    """Construction-time invariants, in integers, in this order: groups
    smaller than the kissing number; per pair (x, x'), its plane's d = x - x'
    and (x + x') gram d = p2, so its midpoint lies on its plane; per
    membership, 2 x gram d - p2 = 2 at its group's first corner x (the C^1
    end of its first pair): x sits one unit above each plane of its group."""
    gram = f.basis.gram
    group, plane = f.memberships.T
    if np.bincount(group).max() >= _kissing_formula(f.basis.fid):
        raise InternalCheckError("group size reached the kissing number")
    pair_plane = plane[f.pair_memb]
    if (f.d[pair_plane] != f.pair_x - f.pair_xp).any():
        raise InternalCheckError("plane root is not its pair's x - x'")
    if (_quad(f.pair_x + f.pair_xp, f.d[pair_plane], gram) != f.p2[pair_plane]).any():
        raise InternalCheckError("pair midpoint is off its bisector")
    _, first = np.unique(group[f.pair_memb], return_index=True)
    if (2 * _quad(f.pair_x[first][group], f.d[plane], gram) - f.p2[plane] != 2).any():
        raise InternalCheckError("C^1 corner not one unit above each plane of its cap")


def _kissing_formula(fid: FamilyId) -> int:
    """Known kissing numbers per family (cross-checked by shell enumeration
    in the lattice-core tests)."""
    n = fid.n
    if fid.family == lat.FAMILY_AN:
        return n * (n + 1)
    if fid.family in (lat.FAMILY_DN_CONST_A, lat.FAMILY_DN_SECOND):
        return 2 * n * (n - 1) if n >= 3 else 4
    return {6: 72, 7: 126, 8: 240}[n]


def _tail_blocks(count: int, step: int) -> list[tuple[int, int]]:
    """(lo, hi) of consecutive blocks of step >= 2 rows over count rows, the
    last taking the tail too, so no block has one row unless count is 1:
    numpy sends a one-row product to gemv, which can round differently from
    gemm. A zero count gives the one empty block (0, 0)."""
    return [
        (lo, lo + step if lo + 2 * step <= count else count)
        for lo in range(0, max(count - step + 1, 1), step)
    ]


def _height_blocks(X: np.ndarray, W: np.ndarray, bias: np.ndarray):
    """Yields (lo, hi, heights) per block of EVAL_ROWS rows of X (the last
    takes the tail, `_tail_blocks`): the (columns x points) heights
    W^T X[lo:hi]^T + bias. W^T is made contiguous once per call and each
    block's X^T once per block, so the product, and with it its rounding,
    does not depend on how X is laid out: rows, or the transposed view
    `folding.sort_fold` returns. Every evaluation of f reads its heights
    here, so the same point in the same block gets the same heights."""
    Wt, bias = np.ascontiguousarray(W.T), bias[:, None]
    for lo, hi in _tail_blocks(X.shape[0], EVAL_ROWS):
        Ht = Wt @ np.ascontiguousarray(X[lo:hi].T)
        Ht += bias
        yield lo, hi, Ht


def _ranked(group: np.ndarray, column: np.ndarray):
    """The groups' columns for the rank-at-a-time reductions: (ranked, back,
    larger). Row g of the table holds group g's columns by rank, padded by
    repeating its last one; ranked is that table with the groups largest
    first, back the order that restores group order, and larger[r - 1] the
    number of groups with more than r members."""
    _, starts, sizes = np.unique(group, return_index=True, return_counts=True)
    table = column[starts[:, None] + np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)]
    order = np.argsort(-sizes, kind="stable")
    larger = (sizes > np.arange(1, table.shape[1])[:, None]).sum(axis=1).tolist()
    return table[order], np.argsort(order), larger


def _group_reduce(op, rows: np.ndarray, ranked: np.ndarray, larger: list[int]) -> np.ndarray:
    """Per group of `_ranked`, largest first, op (np.maximum, np.bitwise_or)
    over its members' rows, one rank at a time: rank r over the prefix of
    groups with more than r members."""
    out = rows[ranked[:, 0]]
    for r, k in enumerate(larger, 1):
        op(out[:k], rows[ranked[:k, r]], out=out[:k])
    return out


def _min_max(
    X: np.ndarray, W: np.ndarray, bias: np.ndarray, group: np.ndarray, column: np.ndarray
) -> np.ndarray:
    """The values-only min-max kernel: per row of X, the min over groups
    of the max over their members' heights (X W + bias)[column], members in
    ascending `group` order. Points go as columns: each block of
    `_height_blocks` is in the (columns x points) layout, so every step after
    it reads contiguous rows. The group maxima gather a float row per
    membership (`_group_reduce`) and the values are the min over them, in
    rank order. Where a value within a tolerance is at hand,
    `_min_max_near` gives the same values from packed bits per column."""
    ranked, _, larger = _ranked(group, column)
    vals = np.empty(X.shape[0])
    for lo, hi, Ht in _height_blocks(X, W, bias):
        _group_reduce(np.maximum, Ht, ranked, larger).min(axis=0, out=vals[lo:hi])
    return vals


def _min_max_near(
    X: np.ndarray, W: np.ndarray, bias: np.ndarray, group: np.ndarray, column: np.ndarray,
    t: np.ndarray, tol: float,
) -> np.ndarray:
    """`_min_max`'s values, bit for bit, given a candidate t per row of X
    that is within tol of its value.

    A row's value is certified to be the height v of the one column whose
    height lies in the band [t - tol, t + tol] when some group has no member
    above the band and every group has a member in it or above it: then the
    min-max lies in the band, and it is one of the heights, so it is v.
    Heights come from `_height_blocks`, as in `_min_max`. The tests are
    bits per column, "at most the band's ceiling" and "at least its floor".
    Each block packs its bits into its chunk's bytes (chunks of EVAL_CHUNK
    blocks, the last taking the tail), and per chunk: AND over each group's
    members then OR over the groups, OR then AND, and one column in both.
    A block with a row that fails takes `_min_max` itself, so the values
    never depend on t, and a t off by more than tol shows in |values - t|. Below NEAR_MEMBERSHIPS memberships it is `_min_max`
    itself."""
    if len(group) < NEAR_MEMBERSHIPS:
        return _min_max(X, W, bias, group, column)
    ranked, _, larger = _ranked(group, column)
    floor, ceil = t - tol, t + tol
    count = X.shape[0]
    vals, ok = np.empty(count), np.empty(count, dtype=bool)
    for clo, chi in _tail_blocks(count, EVAL_CHUNK * EVAL_ROWS):
        # per column, the chunk's packed bits: height at most the band's
        # ceiling, and at least its floor
        low, high = packed = np.empty((2, W.shape[1], (chi - clo + 7) // 8), dtype=np.uint8)
        for lo, hi, Ht in _height_blocks(X[clo:chi], W, bias):
            rows = slice(clo + lo, clo + hi)
            under, reach = bits = np.empty((2, *Ht.shape), dtype=bool)
            np.less_equal(Ht, ceil[rows], out=under)
            np.greater_equal(Ht, floor[rows], out=reach)
            # the max over the band is v where the row is certified (a sparse
            # mask: numpy's masked max is several times slower on a dense one)
            Ht.max(axis=0, where=under & reach, initial=-np.inf, out=vals[rows])
            # lo is a multiple of EVAL_ROWS, so the block's bits start a byte
            packed[:, :, lo // 8 : (hi + 7) // 8] = np.packbits(bits, axis=2)
        certified = (
            np.bitwise_or.reduce(_group_reduce(np.bitwise_and, low, ranked, larger))
            & np.bitwise_and.reduce(_group_reduce(np.bitwise_or, high, ranked, larger))
            & _exactly_one(low & high)
        )
        ok[clo:chi] = np.unpackbits(certified, count=chi - clo).view(bool)
    if not ok.all():
        for lo, hi in _tail_blocks(count, EVAL_ROWS):
            if not ok[lo:hi].all():
                vals[lo:hi] = _min_max(X[lo:hi], W, bias, group, column)
    return vals


def _exactly_one(packed: np.ndarray) -> np.ndarray:
    """Per bit of the packed rows, whether exactly one row sets it."""
    one, two = np.zeros_like(packed[0]), np.zeros_like(packed[0])
    for row in packed:
        two |= one & row
        one |= row
    return one & ~two


def eval_boundary_batch(
    f: BoundaryFunction, Yt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dense f evaluation over every membership (the oracle of the fold-first
    `folding.eval_folded_batch`): (values, active membership ids) over the
    per-plane `pieces` at the points' `tail_coords`. Each block of
    `_height_blocks` takes one group-max reduction for both: the values are
    the min of the group maxima, as in `_min_max`, and a min is exact in any
    order, so they are `_min_max`'s values bit for bit. A point's id is the
    first membership whose height equals its value in a group with no member
    above it: the first group whose max is the value, at its first top member."""
    C = tail_coords(f.basis, Yt)
    group, plane = f.memberships.T
    ranked, back, larger = _ranked(group, plane)
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    vals, ids = np.empty(C.shape[0]), np.empty(C.shape[0], dtype=np.int64)
    for lo, hi, Ht in _height_blocks(C, *pieces(f)):
        peaks = _group_reduce(np.maximum, Ht, ranked, larger)
        v = peaks.min(axis=0, out=vals[lo:hi])
        g = (peaks[back] == v).argmax(axis=0)
        top = Ht[ranked[back[g]], np.arange(hi - lo)[:, None]] == v[:, None]
        ids[lo:hi] = starts[g] + top.argmax(axis=1)
    return vals, ids


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
    pair (x, x'); it lies in D(B), since P(B) is convex. It certifies (g, p)
    when there plane p is strictly above the other planes of group g, and
    group g's max strictly below every other group's max. Strict order holds
    on an open neighborhood, so (g, p) is active on a set of positive volume.

    The order is exact. Along a fiber, plane j's height is
    (p_j - d'_j . c' - G[0, 1:] . ytilde) / G_11, G_11 > 0, with c' the tail
    of c = y G^T, and at the witness 2c' = ((x + x') gram)[1:]. So the
    integers K_j = p2_j - d'_j . 2c' order the heights, and a strict gap is
    at least 1 / (2 G_11) in y_1. `_height_blocks` forms K (a float gemm is
    exact on small integers); per block, K minus each witness's own K gives
    two bit sets, packed over witnesses: "beats own" (K > own) and "below
    own" (K < own). The order holds when every other group has a member that
    beats own (OR over its members, AND over the groups) and every other
    member of g is below own (AND over g). Marks take g and p out: p counts
    as below own (its bit is read for g only), and g's OR is set.
    """
    group, plane = f.memberships.T
    ranked, back, larger = _ranked(group, plane)
    _, first = np.unique(f.pair_memb, return_index=True)
    C2 = ((f.pair_x[first] + f.pair_xp[first]) @ f.basis.gram)[:, 1:].astype(float)
    certified = np.empty(len(group), dtype=bool)
    for lo, hi, Kt in _height_blocks(C2, -f.d[:, 1:].T.astype(float), f.p2.astype(float)):
        m = np.arange(lo, hi)  # witness m certifies membership m
        own, byte, bit = back[group[m]], (m - lo) >> 3, (128 >> ((m - lo) & 7)).astype(np.uint8)
        Kt -= Kt[plane[m], m - lo]
        below, beats = Kt < 0, Kt > 0
        below[plane[m], m - lo] = True  # p itself, read for the own group only
        alone = _group_reduce(np.bitwise_and, np.packbits(below, axis=1), ranked, larger)
        beaten = _group_reduce(np.bitwise_or, np.packbits(beats, axis=1), ranked, larger)
        np.bitwise_or.at(beaten, (own, byte), bit)  # g itself passes
        others = np.bitwise_and.reduce(beaten)[byte]
        certified[lo:hi] = (others & alone[own, byte] & bit) != 0
    return certified


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
        # the first reading that the enumeration meets, in dict order
        row["adjudicated_reading"] = next((k for k, v in readings.items() if v == oracle), "neither")
    return row
