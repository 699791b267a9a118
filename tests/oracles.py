"""Reference oracles and reports that only the tests use.

Brute-force nearest-point search and shell enumeration for the lattices,
f and the nearest corner's first bit in closed form by sorting, at any rank,
the decode-error estimate by brute-force nearest-corner search and by sorting,
membership and the bounding box of the projected domain D(B), f's pieces
over y~ by their original route, a Lipschitz constant of f, the plane keys,
group planes and group corners of f derived from its pair arrays, the
comparator sides of corner labels by Gram rows, sampled folded-domain
counts with the stated folded constants beside them, the reduction of
extended-box points into the base cell, the fold as a sort of point rows,
the layer-by-layer reference forward of a network, the line-by-line
point-file reader, and the float-margin piece certificate.
None of it runs in a command; each is an independent route that the tests
compare the program against.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from latticecpwl import analysis as ana
from latticecpwl import boundary as bnd
from latticecpwl import folding as fld
from latticecpwl import lattices as lat
from latticecpwl import network as net
from latticecpwl.errors import DomainError, InternalCheckError, ResourceError

BOX_BUDGET = 2_000_000


def _box_vectors(n: int, r: int) -> np.ndarray:
    """All integer vectors in [-r, r]^n, materialized in blocks along axis 0."""
    side = 2 * r + 1
    if side**n > 50_000_000:
        raise ResourceError(f"box enumeration (2r+1)^n = {side**n} too large")
    grid = np.indices((side,) * n).reshape(n, side**n).T - r
    return grid.astype(np.int64)


def relevant_vectors(basis: lat.OrientedBasis, r: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-norm shell by exhaustive enumeration of z in [-r, r]^n.

    For root lattices the Voronoi-relevant vectors are exactly this shell, and
    its size is the kissing number. Returns (Z, X) with X = Z G.

    The box is enumerated in 2r + 1 blocks along the first coordinate to keep
    memory at a few hundred MB at n = 8, r = 4.
    """
    gram = basis.gram
    tail = _box_vectors(basis.n - 1, r)
    minn = None
    blocks: list[np.ndarray] = []
    for a in range(-r, r + 1):
        zblock = np.concatenate(
            [np.full((tail.shape[0], 1), a, dtype=np.int64), tail], axis=1
        )
        norms = np.einsum("ij,jk,ik->i", zblock, gram, zblock)
        pos = norms > 0
        if not pos.any():
            continue
        bmin = norms[pos].min()
        if minn is None or bmin < minn:
            minn = bmin
            blocks = [zblock[pos & (norms == bmin)]]
        elif bmin == minn:
            blocks.append(zblock[pos & (norms == bmin)])
    if minn is None:
        raise InternalCheckError("empty shell: no nonzero vectors enumerated")
    Z = np.concatenate(blocks, axis=0)
    # canonical order for reproducibility
    order = np.lexsort(Z.T[::-1])
    Z = Z[order]
    return Z, Z @ basis.G


def cvp_box(basis: lat.OrientedBasis, y: np.ndarray, r: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force nearest lattice point over z in floor(alpha) + [-r, r+1]^n.

    Ground-truth oracle for small n; raises ResourceError when the box exceeds
    the budget. Ties go to the lexicographically smallest z.
    """
    if r < 1:
        raise DomainError("cvp_box requires r >= 1")
    n = basis.n
    side = 2 * r + 2
    if side**n > BOX_BUDGET:
        raise ResourceError(f"cvp_box budget exceeded: (2r+2)^n = {side**n}")
    y = np.asarray(y, dtype=float)
    base = np.floor(y @ basis.Ginv).astype(np.int64)
    offs = np.array(list(itertools.product(range(-r, r + 2), repeat=n)), dtype=np.int64)
    Z = base[None, :] + offs
    X = Z @ basis.G
    d2 = ((X - y) ** 2).sum(axis=1)
    rows = np.flatnonzero(d2 == d2.min())
    # lexicographic tie-break over the candidate z rows
    best = rows[np.lexsort(Z[rows].T[::-1])[0]]
    return Z[best].copy(), X[best].copy()


def nearest_corner_bits(basis: lat.OrientedBasis, Y: np.ndarray) -> np.ndarray:
    """First bit z_1 of each point's nearest corner, by search over all 2^n."""
    corners = lat.enumerate_corners(basis)
    return corners.z[lat.cvp_corners_batch(basis, Y), 0].astype(np.int8)


def _sorted_split(basis: lat.OrientedBasis, C: np.ndarray) -> np.ndarray:
    """g_11 + m_1 - m_0 per row of C = (c_2 .. c_n), where c = y G^T: the
    nearest corner has z_1 = 1 exactly when 2 c_1 exceeds it (Conway &
    Sloane's sorting decoder, "Fast quantizing and decoding algorithms for
    lattice quantizers and codes", 1982, carried to every family).

    Every family's gram has gram[1:, 1:] = I + J. With g = gram[0, 1:] and k
    the ones of z' = (z_2 .. z_n), |y - zG|^2 - |y|^2 is
    z_1 (g_11 - 2 c_1) + k^2 + k - 2 z' . (C - z_1 g), so the best z' with k
    ones takes the k largest entries of C - z_1 g, and
    m_z = min over k = 0..n-1 of k^2 + k - 2 S_k(C - z g), with S_k the sum
    of the k largest entries."""
    gram = basis.gram
    k = np.arange(basis.n)

    def best(V: np.ndarray) -> np.ndarray:
        S = np.cumsum(-np.sort(-V, axis=1), axis=1)
        return (k * k + k - 2 * np.concatenate([np.zeros((len(V), 1)), S], axis=1)).min(axis=1)

    return gram[0, 0] + best(C - gram[0, 1:]) - best(C)


def sorted_height(basis: lat.OrientedBasis, Yt: np.ndarray) -> np.ndarray:
    """f at each projected point y~ in closed form, at any rank: the y_1 where
    the fiber crosses from z_1 = 0 to z_1 = 1, c_1 = G_11 y_1 + G[0, 1:] . y~
    equal to half of `_sorted_split`."""
    G = basis.G
    return (_sorted_split(basis, Yt @ G[1:, 1:].T) / 2 - Yt @ G[0, 1:]) / G[0, 0]


def sorted_corner_bits(basis: lat.OrientedBasis, Y: np.ndarray) -> np.ndarray:
    """First bit z_1 of each point's nearest corner, by `_sorted_split`, at
    any rank and for every family."""
    C = Y @ basis.G.T
    return (2 * C[:, 0] > _sorted_split(basis, C[:, 1:])).astype(np.int8)


def _decode_error(basis, seed, samples, corner_bits) -> ana.McEstimate:
    Y = lat.sample_parallelotope(basis, seed=seed, count=samples)
    pred = (Y[:, 0] > 0.5 * basis.b1_e1).astype(np.int8)
    ind = (pred != corner_bits(basis, Y)).astype(float)
    return ana.McEstimate(
        estimate=float(ind.mean()),
        samples=samples,
        seed=seed,
        stderr=float(ind.std(ddof=1) / math.sqrt(samples)),
    )


def decode_error_cvp(basis: lat.OrientedBasis, seed: int = 0, samples: int = 10_000) -> ana.McEstimate:
    """The decode-error row by the brute-force route: on the seeded P(B) draw
    that `analysis.mc_estimates` takes, the fraction of points whose y_1 >
    b1_e1 / 2 differs from the nearest corner's first bit."""
    return _decode_error(basis, seed, samples, nearest_corner_bits)


def decode_error_sorted(basis: lat.OrientedBasis, seed: int = 0, samples: int = 10_000) -> ana.McEstimate:
    """The decode-error row of `decode_error_cvp`, with the nearest corner's
    first bit from the sorting decoder `sorted_corner_bits`."""
    return _decode_error(basis, seed, samples, sorted_corner_bits)


def domain_contains(basis: lat.OrientedBasis, Yt: np.ndarray) -> np.ndarray:
    """Boolean mask: ytilde rows whose fiber through P(B) is nonempty."""
    lo, hi = lat.fiber_interval_batch(basis, Yt)
    return hi - lo > 1e-12


def domain_bbox(basis: lat.OrientedBasis) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounding box of D(B) from the projected corners.

    D(B) is the projection of a parallelotope, i.e. a zonotope; coordinate
    extremes are attained at projected corners, so the corner hull box is exact.
    """
    proj = (lat.enumerate_corners(basis).z @ basis.G)[:, 1:]
    return proj.min(axis=0), proj.max(axis=0)


def reference_pieces(f: bnd.BoundaryFunction) -> tuple[np.ndarray, np.ndarray]:
    """(A, c) per plane, the piece y_1 = y~ . A_j + c_j over y~, by the route
    `boundary.pieces` replaced: the normal v = d G one row at a time (a
    stacked D @ G can round differently in the last bit), then
    A = -v~ / v_1 and c = p / v_1."""
    V = np.array([row @ f.basis.G for row in f.d.astype(float)]).reshape(-1, f.basis.n)
    return -V[:, 1:] / V[:, :1], f.p2 / 2 / V[:, 0]


def lipschitz_bound(f: bnd.BoundaryFunction) -> float:
    """max over planes of ||vtilde|| / |v . e_1|, a Lipschitz constant for f."""
    A, _ = reference_pieces(f)
    return float(np.sqrt((A**2).sum(axis=1)).max()) if len(A) else 0.0


def boundary_structure(f: bnd.BoundaryFunction) -> tuple[tuple, tuple, tuple]:
    """(plane_keys, group_planes, group_corner_z) of f, derived from its
    `memberships`, `pair_memb`, `pair_x` and `pair_xp`: per plane id its
    integer key (difference z-vector d, 2p = 2 z' gram d + d gram d), per
    group its plane ids ascending, and per group its C^1 corners in
    lexicographic order. Every pair of a plane must give it the same key."""
    gram = f.basis.gram
    group, plane = f.memberships.T
    d = f.pair_x - f.pair_xp
    two_p = 2 * np.einsum("ij,jk,ik->i", f.pair_xp, gram, d) + np.einsum("ij,jk,ik->i", d, gram, d)
    keys: dict[int, tuple] = {}
    corners: dict[int, set] = {}
    for x, dd, tp, m in zip(f.pair_x.tolist(), d.tolist(), two_p.tolist(), f.pair_memb.tolist()):
        key = (tuple(dd), tp)
        assert keys.setdefault(int(plane[m]), key) == key
        corners.setdefault(int(group[m]), set()).add(tuple(x))
    group_planes = np.split(plane, np.flatnonzero(np.diff(group)) + 1)
    return (
        tuple(keys[p] for p in range(len(keys))),
        tuple(tuple(planes.tolist()) for planes in group_planes),
        tuple(tuple(sorted(corners[g])) for g in range(len(group_planes))),
    )


def reference_certify_pieces(f: bnd.BoundaryFunction) -> np.ndarray:
    """`boundary.certify_pieces` by its original route, float margins over
    every membership: per witness block, the (witnesses x memberships)
    heights, the own membership set to -inf for the runner-up of its group,
    then the group maxima by reduceat, the own group's set to +inf. Each
    block's table holds about 2^16 entries (the last block takes the tail)."""
    group, plane = f.memberships.T
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    _, first = np.unique(f.pair_memb, return_index=True)
    W = ((f.pair_x[first] + f.pair_xp[first]) @ f.basis.G / 2.0)[:, 1:]
    A, c = reference_pieces(f)
    A, c = A[plane].T, c[plane]
    margin = np.empty(len(group))
    for lo, hi in bnd._tail_blocks(len(group), max(2, (1 << 16) // len(group))):
        m = np.arange(lo, hi)  # witness m certifies membership m
        rows = m - lo
        H = W[m] @ A + c  # (witnesses, memberships), row-major for reduceat
        own = H[rows, m]
        H[rows, m] = -np.inf
        gmax = np.maximum.reduceat(H, starts, axis=1)
        runner_up = gmax[rows, group[m]]  # best other plane of the own group
        gmax[rows, group[m]] = np.inf
        margin[m] = np.minimum(own - runner_up, gmax.min(axis=1) - own)
    return margin >= bnd.DECODE_TOL


def reference_sort_fold(basis: lat.OrientedBasis, Yt: np.ndarray) -> np.ndarray:
    """`folding.sort_fold` by its original route, with points as rows:
    C = y~ Gt^T, then the columns of each `build_schedule` block sorted
    descending by np.sort, not by the comparators."""
    C = np.atleast_2d(np.asarray(Yt, dtype=float)) @ basis.G[1:, 1:].T
    for blk in fld.build_schedule(basis.fid, basis):
        cols = np.array(blk) - 2  # b_j is column j - 2
        C[:, cols] = -np.sort(-C[:, cols], axis=1)
    return C


def family_blocks(fid: lat.FamilyId) -> fld.Schedule:
    """The fold's blocks written out per family, less blocks of one index:
    an and dn-const-a (2..n), dn-second (3..n), en (2,3) and (4..n)."""
    n = fid.n
    if fid.family == lat.FAMILY_EN:
        blocks = [range(2, 4), range(4, n + 1)]
    else:
        blocks = [range(3 if fid.family == lat.FAMILY_DN_SECOND else 2, n + 1)]
    return tuple(tuple(blk) for blk in blocks if len(blk) > 1)


def on_comparator_side(
    basis: lat.OrientedBasis, schedule: fld.Schedule, z: np.ndarray
) -> np.ndarray:
    """Mask over the corner label rows z: z gram (e_j - e_k) >= 0 for every
    comparator (j, k) of the schedule, in integers, by one Gram row
    gram[j] - gram[k] per comparator. The reference for the label rule of
    `folding.chamber_corners` and `folding.folded_structure`."""
    gram = np.asarray(basis.gram)
    rows = np.array([gram[j - 1] - gram[k - 1] for j, k in fld.comparators(schedule)])
    return (z @ rows.reshape(-1, basis.n).T >= 0).all(axis=1)


def sample_folded_domain(
    basis: lat.OrientedBasis, ff: fld.FoldedBoundary, seed: int = 0, count: int = 10_000
) -> np.ndarray:
    """Fold images of uniform D(B) samples: the sorted c mapped back to y~."""
    Yt = lat.sample_domain(basis, seed=seed, count=count)
    return fld.sort_fold(ff, Yt) @ basis.Ginv[1:, 1:].T


def folded_piece_count_oracle(
    basis: lat.OrientedBasis,
    f: bnd.BoundaryFunction,
    schedule: fld.Schedule,
    samples: int = 60_000,
    seed: int = 0,
) -> int:
    """Distinct bisector hyperplanes active over the folded domain.

    Sampled route: distinct hyperplanes behind the active piece over dense
    folded-domain samples. Enumeration route: surviving neighbor pairs
    deduplicated by hyperplane. The two must agree exactly.
    """
    planes = set(fld.folded_structure(f, schedule)[:, 1].tolist())
    pts = sample_folded_domain(
        basis, fld.build_folded_boundary(f, schedule), seed=seed, count=samples
    )
    _, act = bnd.eval_boundary_batch(f, pts)
    sampled = set(np.unique(f.memberships[act, 1]).tolist())
    if sampled != planes:
        raise InternalCheckError(
            f"folded piece count mismatch: sampled {len(sampled)} hyperplanes, "
            f"enumeration {len(planes)} (missing {sorted(planes - sampled)}, "
            f"extra {sorted(sampled - planes)}); try more samples"
        )
    return len(planes)


# dn-const-a's stated 2n-1 is the A_n count carried over: with ||b_1||^2 = 4
# there is no vertical neighbour x - x' = b_1, so the orbits of neighbour pairs
# under the transpositions of b_2..b_n, and hence the folded pieces, number 2n-3
_STATED_SKETCH = {
    lat.FAMILY_AN: (None, None),
    lat.FAMILY_DN_CONST_A: (lambda n: 2 * n - 1, None),
    lat.FAMILY_DN_SECOND: (lambda n: 6 * n - 6, lambda n: 6 * n - 12),
    lat.FAMILY_EN: (lambda n: 12 * n - 40, lambda n: 12 * n - 28),
}


def folded_count_report(
    basis: lat.OrientedBasis,
    f: bnd.BoundaryFunction,
    schedule: fld.Schedule,
    densities: tuple[int, int] = (20_000, 60_000),
    seed: int = 0,
) -> dict:
    """Side-by-side folded counts: enumeration, two sampling densities, and
    the stated closed-form constants versus the arithmetic their derivation
    sketches imply. Nothing is adjudicated here; the caller compares."""
    fid = basis.fid
    memberships = fld.folded_structure(f, schedule)
    planes, groups = np.unique(memberships[:, 1]), np.unique(memberships[:, 0])
    ff = fld.build_folded_boundary(f, schedule)
    sampled = []
    for i, dens in enumerate(densities):
        pts = sample_folded_domain(basis, ff, seed=(seed, i), count=dens)
        _, act = bnd.eval_boundary_batch(f, pts)
        sampled.append(len(np.unique(f.memberships[act, 1])))
    stated_fn, sketch_fn = _STATED_SKETCH[fid.family]
    return {
        "family": fid.family,
        "n": basis.n,
        "enumerated": len(planes),
        "enumerated_pairs": len(memberships),
        "surviving_groups": len(groups),
        "sampled_lo": sampled[0],
        "sampled_hi": sampled[1],
        "measured": sampled[1],
        "stated": stated_fn(basis.n) if stated_fn else None,
        "sketch": sketch_fn(basis.n) if sketch_fn else None,
        "stable": sampled[0] == sampled[1],
        "match_enum": sampled[0] == len(planes) == sampled[1],
    }


def reduce_to_parallelotope(
    basis: lat.OrientedBasis, y0: np.ndarray, M: int
) -> tuple[np.ndarray, np.ndarray]:
    """Translate a point of the 2^M-extended box back into the base cell.

    The input must lie in the box spanned by b_1 and 2^M b_2 .. 2^M b_n.
    Returns (y, z) with y in the base cell, y0 = y + z B, and z the integer
    shift (zero in its first coordinate).
    """
    if M < 0:
        raise DomainError(f"M must be >= 0, got {M}")
    arr = np.asarray(y0, dtype=float)
    single = arr.ndim == 1
    Y = arr.reshape(1, -1) if single else arr
    if Y.shape[1] != basis.n:
        raise DomainError(
            f"point dimension {Y.shape[1]} does not match basis rank {basis.n}"
        )
    alpha = Y @ basis.Ginv
    scale = float(2**M)
    tol = lat.GEOM_TOL
    bad_first = (alpha[:, 0] < -tol) | (alpha[:, 0] >= 1.0 + tol)
    bad_rest = (alpha[:, 1:] < -tol) | (alpha[:, 1:] >= scale + tol)
    if bad_first.any() or bad_rest.any():
        i = int(np.flatnonzero(bad_first | bad_rest.any(axis=1))[0])
        raise DomainError(
            f"point {Y[i]} lies outside the extended box (coordinates {alpha[i]})"
        )
    z = np.zeros(Y.shape, dtype=np.int64)
    z[:, 1:] = np.clip(np.floor(alpha[:, 1:]).astype(np.int64), 0, 2**M - 1)
    y = Y - z @ basis.G
    if single:
        return y[0], z[0]
    return y, z


def reference_forward(network: net.Network, x: np.ndarray) -> np.ndarray:
    """`network.forward` by a plain route: per block of points and per layer
    W X^T + b, then a new array holding the layer's one activation applied
    to it. The blocks are forward's own (a step of a multiple of 8 points
    from the widest layer, the last block taking the tail), so each product
    has forward's shape and rounds as it does on any BLAS kernel."""
    arr = np.asarray(x, dtype=float)
    X = np.atleast_2d(arr)
    widest = max((layer.out_dim for layer in network.layers), default=1)
    step = max(8, (1 << 18) // widest // 8 * 8)
    blocks = []
    for lo, hi in bnd._tail_blocks(X.shape[0], step):
        Y = X[lo:hi].T
        for layer in network.layers:
            Z = layer.W @ Y + layer.b[:, None]
            if layer.act == net.ACT_RELU:
                Y = np.maximum(Z, 0.0)
            elif layer.act == net.ACT_SAWTOOTH2:
                Y = Z - np.floor(Z)
            else:
                Y = Z
        blocks.append(Y.T)
    X = np.concatenate(blocks)
    return X[0] if arr.ndim == 1 else X


def read_points_by_line(path: str, expect_dim: int) -> np.ndarray:
    """The line-by-line point reader that `cli._read_points` now keeps only
    for files numpy's C reader refuses: `str.split` per line, then one
    `np.array` conversion. Raises DomainError with the program's messages."""
    try:
        with open(path) as fh:
            raw = [line.split() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    lines = [k for k, row in enumerate(raw, 1) if row]
    rows = [row for row in raw if row]
    if not rows:
        raise DomainError(f"{path} contains no points")
    for k, row in zip(lines, rows):
        if len(row) != expect_dim:
            raise DomainError(
                f"{path}: line {k} has {len(row)} coordinates, expected {expect_dim}"
            )
    try:
        pts = np.array(rows, dtype=float)
    except ValueError as exc:
        raise DomainError(f"cannot parse {path}: {exc}") from exc
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        raise DomainError(f"{path}: line {lines[int(bad.argmax())]} has a non-finite coordinate")
    return pts
