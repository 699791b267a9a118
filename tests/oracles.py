"""Reference oracles and reports that only the tests use.

Brute-force nearest-point search and shell enumeration for the lattices,
membership and the bounding box of the projected domain D(B), a Lipschitz
constant of f, sampled folded-domain counts with the stated
folded constants beside them, and the reduction of extended-box points
into the base cell. None of it runs in a command; each is an independent
route that the tests compare the program against.
"""
from __future__ import annotations

import itertools

import numpy as np

from latticecpwl import boundary as bnd
from latticecpwl import folding as fld
from latticecpwl import lattices as lat
from latticecpwl.errors import (
    ConstructionError,
    DomainError,
    InternalCheckError,
    ResourceError,
)

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
    if not basis.gram_is_integral:
        raise ConstructionError("shell enumeration needs an integer gram matrix")
    gram = basis.gram.astype(np.int64)
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


def domain_contains(basis: lat.OrientedBasis, Yt: np.ndarray) -> np.ndarray:
    """Boolean mask: ytilde rows whose fiber through P(B) is nonempty."""
    lo, hi = lat.fiber_interval_batch(basis, Yt)
    return hi - lo > 1e-12


def domain_bbox(basis: lat.OrientedBasis) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounding box of D(B) from the projected corners.

    D(B) is the projection of a parallelotope, i.e. a zonotope; coordinate
    extremes are attained at projected corners, so the corner hull box is exact.
    """
    corners = lat.enumerate_corners(basis)
    proj = corners.x[:, 1:]
    return proj.min(axis=0), proj.max(axis=0)


def lipschitz_bound(f: bnd.BoundaryFunction) -> float:
    """max over planes of ||vtilde|| / |v . e_1|, a Lipschitz constant for f."""
    return float(np.sqrt((f.A**2).sum(axis=1)).max()) if len(f.A) else 0.0


def sample_folded_domain(
    basis: lat.OrientedBasis, ff: fld.FoldedBoundary, seed: int = 0, count: int = 10_000
) -> np.ndarray:
    """Fold images of uniform D(B) samples: the sorted c mapped back to y~."""
    Yt = lat.sample_domain(basis, seed=seed, count=count)
    return fld.sort_fold(ff, Yt) @ basis.Ginv[1:, 1:].T


def folded_piece_count_oracle(
    basis: lat.OrientedBasis,
    f: bnd.BoundaryFunction,
    schedule: fld.FoldingSchedule,
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
    schedule: fld.FoldingSchedule,
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
    stated_fn, sketch_fn = _STATED_SKETCH[fid.family] if fid else (None, None)
    return {
        "family": fid.family if fid is not None else "custom",
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
