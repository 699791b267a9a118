"""Reflection folding of the boundary-function domain.

Builds per-family reflection schedules and evaluates f on the folded domain.
Each schedule reflection swaps two coordinates of c = y~ Gt^T, so the fold
is the sort: `sort_fold` orders c descending within each block of linked
steps, and `network.reflection_block` is the ReLU construction of the same
map. The module also verifies that f is invariant under the fold, reduces
points from the extended box back into the base parallelotope, and counts
the pieces that survive on the folded domain.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import boundary as bnd
from . import lattices as lat
from .errors import ConstructionError, DomainError, InternalCheckError

# fixed chunk count for parallel verification; results are merged by max so
# the outcome is independent of worker count
FOLD_CHUNKS = 16
THREADS_ENV = "LATTICE_FOLD_THREADS"


@dataclass(frozen=True)
class FoldStep:
    """One reflection: across the bisector of b_j and b_k (1-based indices).

    v is the normal restricted to coordinates 2..n; the full normal has first
    coordinate exactly zero, so the reflection acts on the projected domain.
    The hyperplane passes through the origin.
    """

    j: int
    k: int
    v: np.ndarray


@dataclass(frozen=True)
class FoldingSchedule:
    steps: tuple[FoldStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


def _schedule_pairs(fid: lat.FamilyId) -> list[tuple[int, int]]:
    n = fid.n
    if fid.family in (lat.FAMILY_AN, lat.FAMILY_DN_CONST_A):
        lo = 2
    elif fid.family == lat.FAMILY_DN_SECOND:
        lo = 3
    else:
        # the (2,3) bisector comes first, then the tail coordinates
        return [(2, 3)] + [
            (j, k) for j in range(4, n + 1) for k in range(j + 1, n + 1)
        ]
    return [(j, k) for j in range(lo, n + 1) for k in range(j + 1, n + 1)]


def build_schedule(fid: lat.FamilyId, basis: lat.OrientedBasis) -> FoldingSchedule:
    """Reflection schedule for the family, in its required order."""
    if basis.n != fid.n:
        raise ConstructionError(
            f"basis rank {basis.n} does not match family rank {fid.n}"
        )
    steps = []
    for j, k in _schedule_pairs(fid):
        full = basis.G[j - 1] - basis.G[k - 1]
        if full[0] != 0.0:
            raise ConstructionError(
                f"bisector normal for pair ({j},{k}) has nonzero first "
                f"coordinate {full[0]!r}"
            )
        v = full[1:].copy()
        v.setflags(write=False)
        steps.append(FoldStep(j=j, k=k, v=v))
    return FoldingSchedule(steps=tuple(steps))


def _chunk_sizes(count: int) -> list[int]:
    base, rem = divmod(count, FOLD_CHUNKS)
    return [base + (1 if i < rem else 0) for i in range(FOLD_CHUNKS)]


def _worker_count() -> int:
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return min(4, os.cpu_count() or 1)
    try:
        return max(1, int(raw))
    except ValueError:
        raise DomainError(f"{THREADS_ENV} must be an integer, got {raw!r}")


def verify_fold_invariance(
    basis: lat.OrientedBasis,
    f: bnd.BoundaryFunction,
    schedule: FoldingSchedule,
    seed: int = 0,
    count: int = 10_000,
) -> float:
    """Max |f(y~) - f(F(y~))| over exact D(B) samples from P(B)'s lower facets.
    The two sides take independent routes: f(y~) is dense, the min-max over
    every membership at y~; f(F(y~)) is fold-first, the sort F of c = y~ Gt^T
    and then the min-max over the surviving memberships in c.

    Sampling is split into FOLD_CHUNKS independently seeded chunks evaluated
    by a thread pool (capped by the LATTICE_FOLD_THREADS variable); the merge
    is a max, so the result is byte-identical for any worker count.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")

    ff = build_folded_boundary(f, schedule)

    def run_chunk(i: int, m: int) -> float:
        Yt = lat.sample_domain(basis, seed=(seed, i), count=m)
        a, _ = bnd.eval_boundary_batch(f, Yt)
        return float(np.abs(a - eval_folded_batch(ff, Yt)).max())

    sizes = _chunk_sizes(count)
    jobs = [(i, m) for i, m in enumerate(sizes) if m > 0]
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        devs = list(pool.map(lambda im: run_chunk(*im), jobs))
    return max(devs)


def surviving_pairs(f: bnd.BoundaryFunction, schedule: FoldingSchedule) -> np.ndarray:
    """Mask over pair rows: both endpoints on the non-negative side of every
    schedule hyperplane, tested exactly in integers.

    Corner z lies on the non-negative side of step (j, k) iff
    z gram (e_j - e_k) >= 0, so the integer rows are gram[j] - gram[k].
    """
    if not schedule.steps:
        return np.ones(f.pair_memb.shape[0], dtype=bool)
    gram = np.asarray(f.basis.gram)
    rows = np.array([gram[s.j - 1] - gram[s.k - 1] for s in schedule.steps])
    return ((f.pair_x @ rows.T >= 0) & (f.pair_xp @ rows.T >= 0)).all(axis=1)


def folded_structure(
    f: bnd.BoundaryFunction, schedule: FoldingSchedule
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Surviving (group, plane) membership rows, plane ids, and group ids after
    folding, each in ascending order.

    A membership survives when at least one of its neighbor pairs has both
    endpoints on the non-negative side of all hyperplanes.
    """
    memberships = f.memberships[np.unique(f.pair_memb[surviving_pairs(f, schedule)])]
    return memberships, np.unique(memberships[:, 1]), np.unique(memberships[:, 0])


@dataclass(frozen=True, eq=False)
class FoldedBoundary:
    """f on the folded domain, in the coordinates c = y~ Gt^T (Gt = G[1:, 1:],
    rows b_2..b_n). Step (j, k) swaps c_j and c_k, so the fold sorts c
    descending within each block of linked steps, and f is the min over the
    surviving groups of the max over their pieces c W + bias."""

    Gt: np.ndarray  # (n-1, n-1)
    blocks: tuple[np.ndarray, ...]  # ascending columns of c per block
    W: np.ndarray  # (n-1, Pm) = Gt^-T A^T over the surviving memberships
    bias: np.ndarray  # (Pm,)
    group: np.ndarray  # (Pm,) surviving group id of each column of W


def build_folded_boundary(
    f: bnd.BoundaryFunction, schedule: FoldingSchedule
) -> FoldedBoundary:
    """The fold-first evaluator of f. Raises ConstructionError unless each step
    (j, k), 2 <= j < k <= n, leaves the integer Gram invariant when b_j and
    b_k trade places (so the reflection is the swap) and each block holds all
    its pairs (so the non-negative side of every step is the descending
    order)."""
    gram = np.asarray(f.basis.gram)
    blocks: list[set[int]] = []
    for s in schedule.steps:
        if not 2 <= s.j < s.k <= f.n:
            raise ConstructionError(f"step ({s.j},{s.k}) is not a pair 2 <= j < k <= {f.n}")
        swap = np.arange(f.n)
        swap[[s.j - 1, s.k - 1]] = s.k - 1, s.j - 1
        if not np.array_equal(gram[np.ix_(swap, swap)], gram):
            raise ConstructionError(f"step ({s.j},{s.k}) does not swap b_{s.j} and b_{s.k}")
        linked = [b for b in blocks if s.j in b or s.k in b]
        blocks = [b for b in blocks if b not in linked] + [{s.j, s.k}.union(*linked)]
    if len({(s.j, s.k) for s in schedule.steps}) != sum(len(b) * (len(b) - 1) // 2 for b in blocks):
        raise ConstructionError("a schedule block lacks a pair, so the fold is not a sort")
    group, plane = folded_structure(f, schedule)[0].T
    return FoldedBoundary(
        Gt=f.basis.G[1:, 1:],
        blocks=tuple(np.array(sorted(b)) - 2 for b in blocks),  # b_j is column j - 2
        W=f.basis.Ginv[1:, 1:].T @ f.A[plane].T,
        bias=f.c[plane],
        group=group,
    )


def sort_fold(ff: FoldedBoundary, Yt: np.ndarray) -> np.ndarray:
    """c of each point's fold image: y~ Gt^T sorted descending per block."""
    C = np.atleast_2d(np.asarray(Yt, dtype=float)) @ ff.Gt.T
    for blk in ff.blocks:
        C[:, blk] = -np.sort(-C[:, blk], axis=1)
    return C


def eval_folded_batch(ff: FoldedBoundary, Yt: np.ndarray) -> np.ndarray:
    """f at each point, fold-first: sort, then `bnd._min_max` over the
    surviving groups and their pieces."""
    return bnd._min_max(sort_fold(ff, Yt), ff.W, ff.bias, ff.group, np.arange(len(ff.group)))[0]


def sample_folded_domain(
    basis: lat.OrientedBasis, ff: FoldedBoundary, seed: int = 0, count: int = 10_000
) -> np.ndarray:
    """Fold images of uniform D(B) samples: the sorted c mapped back to y~."""
    Yt = lat.sample_domain(basis, seed=seed, count=count)
    return sort_fold(ff, Yt) @ basis.Ginv[1:, 1:].T


def folded_piece_count_oracle(
    basis: lat.OrientedBasis,
    f: bnd.BoundaryFunction,
    schedule: FoldingSchedule,
    samples: int = 60_000,
    seed: int = 0,
) -> int:
    """Distinct bisector hyperplanes active over the folded domain.

    Sampled route: distinct hyperplanes behind the active piece over dense
    folded-domain samples. Enumeration route: surviving neighbor pairs
    deduplicated by hyperplane. The two must agree exactly.
    """
    planes = set(folded_structure(f, schedule)[1].tolist())
    pts = sample_folded_domain(
        basis, build_folded_boundary(f, schedule), seed=seed, count=samples
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
    schedule: FoldingSchedule,
    densities: tuple[int, int] = (20_000, 60_000),
    seed: int = 0,
) -> dict:
    """Side-by-side folded counts: enumeration, two sampling densities, and
    the stated closed-form constants versus the arithmetic their derivation
    sketches imply. Nothing is adjudicated here; the caller compares."""
    fid = basis.fid
    memberships, planes, groups = folded_structure(f, schedule)
    ff = build_folded_boundary(f, schedule)
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
