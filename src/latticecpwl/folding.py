"""Reflection folding of the boundary-function domain.

A schedule is the blocks of basis indices whose swaps keep the Gram. Each
reflection of the fold swaps two coordinates of c = y~ Gt^T within a block,
so the fold is the sort of c descending per block. `comparators` lists
that sort's compare-exchanges once: `sort_fold` runs them on points, and
`network.synthesize` compiles each into a ReLU unit. The module also finds
the pieces that survive on the folded domain, evaluates f fold-first over
them (`boundary.pieces` gives their heights over the same c), and verifies
that f is invariant under the fold.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import boundary as bnd
from . import lattices as lat
from .errors import ConstructionError, DomainError

# read only by the benchmark's machine block
THREADS_ENV = "LATTICE_FOLD_THREADS"
# the largest |f(y~) - f(F(y~))| the fold check passes, and the half-width of
# the band in which its dense side certifies f from the fold-first value
FOLD_DEV_LIMIT = 1e-9

# a basis's fold: ascending 1-based basis indices per block, blocks disjoint
Schedule = tuple[tuple[int, ...], ...]


def build_schedule(fid: lat.FamilyId, basis: lat.OrientedBasis) -> Schedule:
    """The fold as blocks of basis indices (1-based, ascending), read off the
    integer Gram: the classes of indices 2..n whose transpositions keep it,
    less classes of one index. Index 1 carries the decoded bit and stays out.
    The transpositions that keep the Gram generate a group, and (i k) =
    (i j)(j k)(i j), so they are an equivalence: k joins the block whose
    first index it swaps with. Raises ConstructionError unless basis is fid's.

    The reflection across the bisector of b_j and b_k of a block (its normal
    b_j - b_k has first coordinate zero) swaps c_j and c_k of c = y~ Gt^T,
    and z gram (e_j - e_k) = (g_jj - g_jk)(z_j - z_k) with g_jj > g_jk (the
    Gram is positive definite), so the non-negative side of all of them is
    the descending order within each block, for points and corners alike:
    the fold is the sort.
    """
    if fid != basis.fid:
        raise ConstructionError(f"the basis is {basis.fid}, not {fid}")
    gram = basis.gram.tolist()
    blocks: list[list[int]] = []
    for k in range(2, basis.n + 1):
        for blk in blocks:
            # the Gram is symmetric, so it is invariant under the swap iff
            # row k is row j with its entries j and k traded
            j = blk[0]
            row = gram[j - 1][:]
            row[j - 1], row[k - 1] = row[k - 1], row[j - 1]
            if row == gram[k - 1]:
                blk.append(k)
                break
        else:
            blocks.append([k])
    return tuple(tuple(blk) for blk in blocks if len(blk) > 1)


def comparators(schedule: Schedule) -> list[tuple[int, int]]:
    """The fold's compare-exchanges (j, k), 1-based, in the order they run:
    within each block, j ascending and then k ascending. c_j <- max and
    c_k <- min in that order is a selection sort, so it sorts any block
    descending. `sort_fold` and `network.synthesize` both run this list."""
    return [(j, k) for blk in schedule for a, j in enumerate(blk) for k in blk[a + 1 :]]


def verify_fold_invariance(
    f: bnd.BoundaryFunction,
    seed: int = 0,
    count: int = 10_000,
) -> float:
    """Max |f(y~) - f(F(y~))| over exact D(B) samples from P(B)'s lower facets,
    with B = f.basis. The two sides take independent routes. f(F(y~)) is
    fold-first, `fold_first(f.basis)`: the sort F of c = y~ Gt^T and then the
    min-max over the f built from the chamber corners alone. f(y~) is dense,
    the min-max over every plane's `bnd.pieces` at c, with the values
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
    C = bnd.tail_coords(f.basis, Yt)
    del Yt  # the dense side holds one (count, n - 1) array
    dense = bnd._min_max_near(C, *bnd.pieces(f), *f.memberships.T, folded, FOLD_DEV_LIMIT)
    return float(np.abs(dense - folded).max())


def chamber_corners(basis: lat.OrientedBasis, schedule: Schedule) -> np.ndarray:
    """The corner labels z on the non-negative side of every comparator,
    lexicographically ordered: sorted descending within each schedule block
    and free elsewhere. These are the corners of the neighbor pairs that
    survive the fold: m + 1 per block of m indices times 2 per free index,
    against 2^n in all."""
    free = set(range(1, basis.n + 1)).difference(*schedule)
    z = np.zeros((1, basis.n), dtype=np.int64)
    for blk in schedule + tuple((j,) for j in sorted(free)):
        m = len(blk)
        labels = np.arange(m) < np.arange(m + 1)[:, None]  # row k: k leading ones
        z = np.repeat(z, m + 1, axis=0)
        z[:, np.array(blk) - 1] = np.tile(labels, (len(z) // (m + 1), 1))
    return z[np.lexsort(z.T[::-1])]


def folded_structure(f: bnd.BoundaryFunction, schedule: Schedule) -> np.ndarray:
    """Surviving (group, plane) membership rows after folding, in ascending
    order.

    A membership survives when at least one of its neighbor pairs has both
    corner labels in the fold's chamber: descending within each schedule
    block, the rule `chamber_corners` generates by. For a schedule from
    `build_schedule` that is the non-negative side of every comparator's
    hyperplane, z gram (e_j - e_k) >= 0.
    """
    keep = np.ones(len(f.pair_memb), dtype=bool)
    for blk in schedule:
        cols = np.array(blk) - 1
        for z in (f.pair_x, f.pair_xp):
            keep &= (z[:, cols[:-1]] >= z[:, cols[1:]]).all(axis=1)
    return f.memberships[np.unique(f.pair_memb[keep])]


@dataclass(frozen=True, eq=False)
class FoldedBoundary:
    """f on the folded domain, in the coordinates c = y~ Gt^T (Gt = G[1:, 1:],
    rows b_2..b_n, stored contiguous). The fold sorts c descending within
    each schedule block, and f is the min over the surviving groups of the
    max over their pieces c W + bias (`bnd.pieces`). Points are evaluated as
    columns: `sort_fold` sorts the rows of C^T = Gt Y~^T, and `bnd._min_max`
    takes the heights W^T C^T + bias."""

    Gt: np.ndarray  # (n-1, n-1), C-contiguous
    pairs: tuple[tuple[int, int], ...]  # `comparators`, b_j as column j - 2 of c
    W: np.ndarray  # (n-1, Pm), `bnd.pieces` of the surviving memberships' planes
    bias: np.ndarray  # (Pm,)
    group: np.ndarray  # (Pm,) surviving group id of each column of W

    def __post_init__(self) -> None:
        for a in (self.Gt, self.W, self.bias, self.group):
            a.setflags(write=False)


def build_folded_boundary(f: bnd.BoundaryFunction, schedule: Schedule) -> FoldedBoundary:
    """The fold-first evaluator of f: its surviving memberships in the
    coordinates c, and the schedule's comparators on the columns of c."""
    group, plane = folded_structure(f, schedule).T
    pairs = tuple((j - 2, k - 2) for j, k in comparators(schedule))
    W, bias = bnd.pieces(f, plane)
    return FoldedBoundary(np.ascontiguousarray(f.basis.G[1:, 1:]), pairs, W, bias, group)


def fold_first(basis: lat.OrientedBasis) -> FoldedBoundary:
    """The fold-first evaluator of f: the basis's schedule, f from
    the chamber corners alone, and build_folded_boundary. Every pair of that
    f survives the fold, and its groups, as sets of planes, are the surviving
    groups of the f built from all 2^n corners.

    Memoized per process for the last basis asked for (by identity, as
    `lat.build_basis` hands it out): calls on one instance share one
    read-only evaluator."""
    return _fold_first(basis)


@lru_cache(maxsize=1)
def _fold_first(basis: lat.OrientedBasis) -> FoldedBoundary:
    schedule = build_schedule(basis.fid, basis)
    return build_folded_boundary(
        bnd.build_boundary(basis, chamber_corners(basis, schedule)), schedule
    )


def sort_fold(ff: FoldedBoundary, Yt: np.ndarray) -> np.ndarray:
    """c of each point's fold image: y~ Gt^T sorted descending per block.

    Computed with points as columns: C^T = Gt Y~^T, then for each pair
    (j, k) of `ff.pairs` the compare-exchange c_j <- max, c_k <- min on
    whole rows. Returns the (N, n-1) transposed view of C^T."""
    Ct = ff.Gt @ np.atleast_2d(np.asarray(Yt, dtype=float)).T
    low = np.empty(Ct.shape[1])
    for j, k in ff.pairs:
        np.minimum(Ct[j], Ct[k], out=low)
        np.maximum(Ct[j], Ct[k], out=Ct[j])
        Ct[k] = low
    return Ct.T


def eval_folded_batch(ff: FoldedBoundary, Yt: np.ndarray) -> np.ndarray:
    """f at each point, fold-first: sort, then `bnd._min_max`, values alone,
    over the surviving groups and their pieces; the sorted (N, n-1) view
    goes in as it is."""
    return bnd._min_max(sort_fold(ff, Yt), ff.W, ff.bias, ff.group, np.arange(len(ff.group)))
