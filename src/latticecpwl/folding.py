"""Reflection folding of the boundary-function domain.

Builds per-family reflection schedules, folds points onto the non-negative
side of every schedule hyperplane, verifies that the boundary function is
invariant under the fold, reduces points from the extended box back into the
base parallelotope, and counts the pieces that survive on the folded domain.
"""
from __future__ import annotations

import json
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

    @property
    def V(self) -> np.ndarray:
        if not self.steps:
            return np.zeros((0, 0))
        return np.stack([s.v for s in self.steps])


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


def apply_fold(schedule: FoldingSchedule, Yt: np.ndarray) -> np.ndarray:
    """Fold points onto the non-negative side of every schedule hyperplane.

    Processes reflections in schedule order and re-sweeps until no reflection
    fires; a point already on the non-negative side of all hyperplanes is
    returned unchanged.
    """
    arr = np.asarray(Yt, dtype=float)
    single = arr.ndim == 1
    out = arr.reshape(1, -1).copy() if single else arr.copy()
    if not schedule.steps:
        return out[0] if single else out
    n = out.shape[1] + 1  # basis rank
    for _ in range(n * n):
        moved = False
        for step in schedule.steps:
            dot = out @ step.v
            mask = dot < 0.0
            if mask.any():
                scale = 2.0 / (step.v @ step.v)
                out[mask] -= np.outer(scale * dot[mask], step.v)
                moved = True
        if not moved:
            return out[0] if single else out
    raise InternalCheckError(
        f"fold did not reach a fixpoint within {n * n} sweeps"
    )


def fold_predicate(schedule: FoldingSchedule, Yt: np.ndarray) -> np.ndarray:
    """Boolean mask: on the non-negative side of all schedule hyperplanes."""
    arr = np.atleast_2d(np.asarray(Yt, dtype=float))
    if not schedule.steps:
        return np.ones(arr.shape[0], dtype=bool)
    return (arr @ schedule.V.T >= 0.0).all(axis=1)


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

    Sampling is split into FOLD_CHUNKS independently seeded chunks evaluated
    by a thread pool (capped by the LATTICE_FOLD_THREADS variable); the merge
    is a max, so the result is byte-identical for any worker count.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")

    def run_chunk(i: int, m: int) -> float:
        Yt = lat.sample_domain(basis, seed=(seed, i), count=m)
        Ft = apply_fold(schedule, Yt)
        a, _ = bnd.eval_boundary_batch(f, Yt)
        b, _ = bnd.eval_boundary_batch(f, Ft)
        return float(np.abs(a - b).max())

    sizes = _chunk_sizes(count)
    jobs = [(i, m) for i, m in enumerate(sizes) if m > 0]
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        devs = list(pool.map(lambda im: run_chunk(*im), jobs))
    return max(devs)


def fold_invariance_report(
    basis: lat.OrientedBasis,
    f: bnd.BoundaryFunction,
    schedule: FoldingSchedule,
    seed: int = 0,
    count: int = 10_000,
) -> dict:
    fid = basis.fid
    return {
        "family": fid.family if fid is not None else "custom",
        "n": basis.n,
        "samples": count,
        "max_dev": verify_fold_invariance(basis, f, schedule, seed, count),
    }


def _pair_groups(f: bnd.BoundaryFunction) -> np.ndarray:
    """Group id of each neighbor pair row (via its upper corner)."""
    corner_group = {}
    for gi, zs in enumerate(f.group_corner_z):
        for z in zs:
            corner_group[tuple(z)] = gi
    return np.array([corner_group[tuple(z)] for z in f.pair_x], dtype=np.int64)


def surviving_pairs(f: bnd.BoundaryFunction, schedule: FoldingSchedule) -> np.ndarray:
    """Mask over pair rows: both endpoints on the non-negative side of every
    schedule hyperplane, tested exactly in integers.

    Corner z lies on the non-negative side of step (j, k) iff
    z gram (e_j - e_k) >= 0, so the integer rows are gram[j] - gram[k].
    """
    if not schedule.steps:
        return np.ones(f.pair_plane.shape[0], dtype=bool)
    gram = np.asarray(f.basis.gram)
    rows = np.array([gram[s.j - 1] - gram[s.k - 1] for s in schedule.steps])
    return ((f.pair_x @ rows.T >= 0) & (f.pair_xp @ rows.T >= 0)).all(axis=1)


def folded_structure(f: bnd.BoundaryFunction, schedule: FoldingSchedule):
    """Surviving memberships, plane ids, and group ids after folding.

    A membership (group, plane) survives when at least one of its neighbor
    pairs has both endpoints on the non-negative side of all hyperplanes.
    """
    mask = surviving_pairs(f, schedule)
    pg = _pair_groups(f)
    memberships = sorted(
        {(int(g), int(p)) for g, p in zip(pg[mask], f.pair_plane[mask])}
    )
    planes = sorted({p for _, p in memberships})
    groups = sorted({g for g, _ in memberships})
    return memberships, planes, groups


def sample_folded_domain(
    basis: lat.OrientedBasis,
    schedule: FoldingSchedule,
    seed: int = 0,
    count: int = 10_000,
) -> np.ndarray:
    """Points of the folded domain from two independent routes: fold images
    of uniform domain samples, plus domain samples that already satisfy the
    predicate (rejection route)."""
    Yt = lat.sample_domain(basis, seed=seed, count=count)
    images = apply_fold(schedule, Yt)
    kept = Yt[fold_predicate(schedule, Yt)]
    return np.vstack([images, kept])


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
    _, planes, _ = folded_structure(f, schedule)
    pts = sample_folded_domain(basis, schedule, seed=seed, count=samples)
    _, act = bnd.eval_boundary_batch(f, pts)
    sampled = set(np.unique(f.memberships[act, 1]).tolist())
    if sampled != set(planes):
        raise InternalCheckError(
            f"folded piece count mismatch: sampled {len(sampled)} hyperplanes, "
            f"enumeration {len(planes)} (missing {sorted(set(planes) - sampled)}, "
            f"extra {sorted(sampled - set(planes))}); try more samples"
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
    sampled = []
    for i, dens in enumerate(densities):
        pts = sample_folded_domain(basis, schedule, seed=(seed, i), count=dens)
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


def schedule_to_json(schedule: FoldingSchedule) -> str:
    rows = [
        {"j": s.j, "k": s.k, "v": [repr(float(c)) for c in s.v]}
        for s in schedule.steps
    ]
    return json.dumps(rows, indent=2)


def schedule_from_json(text: str) -> FoldingSchedule:
    """Parse an exported schedule (inverse of schedule_to_json)."""
    steps = []
    for row in json.loads(text):
        v = np.array([float(c) for c in row["v"]])
        v.setflags(write=False)
        steps.append(FoldStep(j=int(row["j"]), k=int(row["k"]), v=v))
    return FoldingSchedule(steps=tuple(steps))
