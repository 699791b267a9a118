"""Reflection folding of the boundary-function domain.

Builds per-family reflection schedules and evaluates f on the folded domain.
Each schedule reflection swaps two coordinates of c = y~ Gt^T, so the fold
is the sort: `sort_fold` orders c descending within each block of linked
steps by the block's compare-exchanges, which the compare-exchange units of
`network.synthesize` compile into ReLU layers. The module also finds the
pieces that survive on the folded domain, evaluates f fold-first over them,
and verifies that f is invariant under the fold.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boundary as bnd
from . import lattices as lat
from .errors import ConstructionError, DomainError

# read only by the benchmark's machine block
THREADS_ENV = "LATTICE_FOLD_THREADS"
# the largest |f(y~) - f(F(y~))| the fold check passes, and the half-width of
# the band in which its dense side certifies f from the fold-first value
FOLD_DEV_LIMIT = 1e-9


@dataclass(frozen=True)
class FoldStep:
    """One reflection: across the bisector of b_j and b_k (1-based indices),
    a hyperplane through the origin. Its normal b_j - b_k has first
    coordinate zero (j, k >= 2), so it acts on the projected domain, where
    it swaps c_j and c_k (`_swap_blocks`)."""

    j: int
    k: int


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
    return FoldingSchedule(steps=tuple(FoldStep(j=j, k=k) for j, k in _schedule_pairs(fid)))


def verify_fold_invariance(
    f: bnd.BoundaryFunction,
    seed: int = 0,
    count: int = 10_000,
) -> float:
    """Max |f(y~) - f(F(y~))| over exact D(B) samples from P(B)'s lower facets,
    with B = f.basis. The two sides take independent routes. f(F(y~)) is
    fold-first, `fold_first(f.basis)`: the sort F of c = y~ Gt^T and then the
    min-max over the f built from the chamber corners alone. f(y~) is dense,
    the min-max over every membership of f at y~, with the values
    `eval_boundary_batch` gives, bit for bit. `bnd._min_max_near` computes
    them: where the fold-first value t is within FOLD_DEV_LIMIT of f, f is
    certified to be the height of the one plane in that band, and a block
    with any point it does not certify (or an f with fewer than
    `bnd.NEAR_MEMBERSHIPS` memberships) takes the full min-max, so a wrong
    fold shows in the result as it is.

    The count samples are one sample_domain draw from seed, so seed and count
    alone fix the samples and the result.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    Yt = lat.sample_domain(f.basis, seed=seed, count=count)
    folded = eval_folded_batch(fold_first(f.basis), Yt)
    dense = bnd._min_max_near(Yt, f.A.T, f.c, *f.memberships.T, folded, FOLD_DEV_LIMIT)
    return float(np.abs(dense - folded).max())


def _swap_blocks(basis: lat.OrientedBasis, schedule: FoldingSchedule) -> list[list[int]]:
    """The blocks of linked schedule steps, each its ascending basis indices
    (1-based). Raises ConstructionError unless each step (j, k),
    2 <= j < k <= n, leaves the integer Gram invariant when b_j and b_k trade
    places, and each block holds all its pairs.

    Then step (j, k) is the swap of c_j and c_k, and
    z gram (e_j - e_k) = (g_jj - g_jk)(z_j - z_k) with g_jj > g_jk (the Gram
    is positive definite), so the non-negative side of every step is the
    descending order within each block, for points and corners alike.
    """
    n, gram = basis.n, np.asarray(basis.gram).tolist()
    blocks: list[set[int]] = []
    for s in schedule.steps:
        if not 2 <= s.j < s.k <= n:
            raise ConstructionError(f"step ({s.j},{s.k}) is not a pair 2 <= j < k <= {n}")
        # the Gram is symmetric, so it is invariant under the swap iff row k
        # is row j with its entries j and k traded
        row = gram[s.j - 1][:]
        row[s.j - 1], row[s.k - 1] = row[s.k - 1], row[s.j - 1]
        if row != gram[s.k - 1]:
            raise ConstructionError(f"step ({s.j},{s.k}) does not swap b_{s.j} and b_{s.k}")
        linked = [b for b in blocks if s.j in b or s.k in b]
        blocks = [b for b in blocks if b not in linked] + [{s.j, s.k}.union(*linked)]
    if len({(s.j, s.k) for s in schedule.steps}) != sum(len(b) * (len(b) - 1) // 2 for b in blocks):
        raise ConstructionError("a schedule block lacks a pair, so the fold is not a sort")
    return [sorted(b) for b in blocks]


def chamber_corners(basis: lat.OrientedBasis, schedule: FoldingSchedule) -> np.ndarray:
    """The corner labels z on the non-negative side of every schedule step,
    lexicographically ordered: sorted descending within each block of
    `_swap_blocks` and free elsewhere. These are the corners of the neighbor
    pairs that survive the fold: 2n for an and dn-const-a, 4n - 4 for
    dn-second, 6n - 12 for en, against 2^n in all."""
    blocks = _swap_blocks(basis, schedule)
    free = set(range(1, basis.n + 1)).difference(*blocks)
    z = np.zeros((1, basis.n), dtype=np.int64)
    for blk in blocks + [[j] for j in sorted(free)]:
        m = len(blk)
        labels = np.arange(m) < np.arange(m + 1)[:, None]  # row k: k leading ones
        z = np.repeat(z, m + 1, axis=0)
        z[:, np.array(blk) - 1] = np.tile(labels, (len(z) // (m + 1), 1))
    return z[np.lexsort(z.T[::-1])]


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


def folded_structure(f: bnd.BoundaryFunction, schedule: FoldingSchedule) -> np.ndarray:
    """Surviving (group, plane) membership rows after folding, in ascending
    order.

    A membership survives when at least one of its neighbor pairs has both
    endpoints on the non-negative side of all hyperplanes.
    """
    return f.memberships[np.unique(f.pair_memb[surviving_pairs(f, schedule)])]


@dataclass(frozen=True, eq=False)
class FoldedBoundary:
    """f on the folded domain, in the coordinates c = y~ Gt^T (Gt = G[1:, 1:],
    rows b_2..b_n, stored contiguous). Step (j, k) swaps c_j and c_k, so the
    fold sorts c descending within each block of linked steps, and f is the
    min over the surviving groups of the max over their pieces c W + bias.
    Points are evaluated as columns: `sort_fold` sorts the rows of
    C^T = Gt Y~^T, and `bnd._min_max` takes the heights W^T C^T + bias."""

    Gt: np.ndarray  # (n-1, n-1), C-contiguous
    blocks: tuple[np.ndarray, ...]  # ascending columns of c per block
    W: np.ndarray  # (n-1, Pm) = Gt^-T A^T over the surviving memberships
    bias: np.ndarray  # (Pm,)
    group: np.ndarray  # (Pm,) surviving group id of each column of W


def build_folded_boundary(
    f: bnd.BoundaryFunction, schedule: FoldingSchedule
) -> FoldedBoundary:
    """The fold-first evaluator of f: its surviving memberships in the
    coordinates c, with the blocks of `_swap_blocks`, which raises
    ConstructionError unless the fold is the sort."""
    blocks = _swap_blocks(f.basis, schedule)
    group, plane = folded_structure(f, schedule).T
    return FoldedBoundary(
        Gt=np.ascontiguousarray(f.basis.G[1:, 1:]),
        blocks=tuple(np.array(b) - 2 for b in blocks),  # b_j is column j - 2
        W=f.basis.Ginv[1:, 1:].T @ f.A[plane].T,
        bias=f.c[plane],
        group=group,
    )


def fold_first(basis: lat.OrientedBasis) -> FoldedBoundary:
    """The fold-first evaluator of f: the basis family's schedule, f from
    the chamber corners alone, and build_folded_boundary. Every pair of that
    f survives the fold, and its groups, as sets of planes, are the surviving
    groups of the f built from all 2^n corners."""
    schedule = build_schedule(basis.fid, basis)
    return build_folded_boundary(
        bnd.build_boundary(basis, chamber_corners(basis, schedule)), schedule
    )


def sort_fold(ff: FoldedBoundary, Yt: np.ndarray) -> np.ndarray:
    """c of each point's fold image: y~ Gt^T sorted descending per block.

    Computed with points as columns: C^T = Gt Y~^T, then within each block,
    for its indices j < k in ascending order (the order of the family
    schedules), the compare-exchange c_j <- max, c_k <- min on whole rows.
    That is a selection sort, so it sorts any block. Returns the (N, n-1)
    transposed view of C^T."""
    Ct = ff.Gt @ np.atleast_2d(np.asarray(Yt, dtype=float)).T
    low = np.empty(Ct.shape[1])
    for blk in ff.blocks:
        for a, j in enumerate(blk.tolist()):
            for k in blk[a + 1 :].tolist():
                np.minimum(Ct[j], Ct[k], out=low)
                np.maximum(Ct[j], Ct[k], out=Ct[j])
                Ct[k] = low
    return Ct.T


def eval_folded_batch(ff: FoldedBoundary, Yt: np.ndarray) -> np.ndarray:
    """f at each point, fold-first: sort, then `bnd._min_max`, values alone,
    over the surviving groups and their pieces; the sorted (N, n-1) view
    goes in as it is."""
    return bnd._min_max(sort_fold(ff, Yt), ff.W, ff.bias, ff.group, np.arange(len(ff.group)))
