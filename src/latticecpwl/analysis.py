"""Volume bounds, L1 gap estimates, and decoding-error rates.

The Monte Carlo estimators sample the parallelotope uniformly, project onto
coordinates 2..n, and correct by the first-coordinate fiber length, which
turns parallelotope averages into projected-domain integrals without meshing
the projected zonotope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import folding as fld
from . import lattices as lat
from .errors import DomainError, InternalCheckError


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    samples: int
    seed: int
    stderr: float


def mc_report_row(est: McEstimate, bound: float) -> dict:
    """Uniform report row for MC results: the estimate passes when it clears
    the bound with a three-sigma margin."""
    return {
        "seed": est.seed,
        "samples": est.samples,
        "estimate": est.estimate,
        "stderr": est.stderr,
        "bound": bound,
        "pass": bool(est.estimate + 3.0 * est.stderr < bound),
    }


def simplex_volume_bounds(n: int) -> tuple[float, float]:
    """Volume sandwich for the non-truncated simplex of the rank-n simplex
    family cell decomposition (edge length sqrt(2) convention)."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    lower = n * (n - 1) / (2**n * (n + 1) ** 1.5 * math.factorial(n))
    upper = math.sqrt(n + 1) / math.factorial(n)
    return lower, upper


def exact_simplex_volume(basis: lat.OrientedBasis) -> float:
    """Volume of the corner simplex with vertices 0, s_1, .., s_n where s_k
    is the k-th partial sum of the basis rows: |det of the vertex matrix|/n!.

    The successive-difference chain of these vertices is exactly the edge
    path from a top corner through its neighbor chain, so the value is tied
    to the boundary structure rather than an arbitrary simplex choice. The
    vertex matrix is T G with T unit lower triangular, so its |det| is
    sqrt(det gram). det gram is exact, by Bareiss elimination in integers
    (its pivots are the leading minors, > 0), so no BLAS kernel shows in it:
    n + 1 on an, 4 on both D_n families and 9 - n on en.
    """
    a, prev = basis.gram.astype(object), 1
    for k in range(basis.n - 1):
        s = slice(k + 1, None)
        a[s, s], prev = (a[s, s] * a[k, k] - np.outer(a[s, k], a[k, s])) // prev, a[k, k]
    return math.sqrt(a[-1, -1]) / math.factorial(basis.n)


def volume_report(basis: lat.OrientedBasis) -> dict:
    lower, upper = simplex_volume_bounds(basis.n)
    return {"n": basis.n, "exact": exact_simplex_volume(basis), "lower": lower, "upper": upper}


def decoding_error_bound(n: int) -> float:
    """The stated closed-form decoding-error bound
    1/(sqrt(2 pi n) 2^(n log2(n/e) - n)).

    It is not met by the simplex family: the hyperplane decoding error there
    is exactly E(n) = E|S_{n-1} - (n-1)/2| / (n+1) (S_m an Irwin-Hall sum of
    m uniforms), about 0.23/sqrt(n), which exceeds this bound for n >= 7.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    exponent = n * math.log2(n / math.e) - n
    return 2.0 ** (-exponent) / math.sqrt(2.0 * math.pi * n)


def _estimate(x: np.ndarray, seed: int) -> McEstimate:
    x = np.asarray(x, dtype=float)
    return McEstimate(
        estimate=float(x.mean()),
        samples=len(x),
        seed=seed,
        stderr=float(x.std(ddof=1) / math.sqrt(len(x))),
    )


def mc_estimates(
    basis: lat.OrientedBasis,
    seed: int = 0,
    samples: int = 10_000,
) -> dict[str, McEstimate]:
    """Both Monte Carlo rows from one seeded draw of uniform P(B) points y,
    against the mid-height plane h = b1_e1 / 2.

    decode_error is the fraction of points where thresholding y_1 at h
    decodes a different first corner bit than the nearest corner, whose bit
    is y_1 > f(y~). l1_gap integrates, over the projected domain, the share
    of the first-coordinate fiber on which f and h disagree as classifiers,
    clipping both graphs to the fiber first. It is expressed in the
    convention where the parallelotope has volume one (equivalently, lengths
    scaled by det(Gamma)^(-1/2n)).

    Both rows come from one fold-first evaluation of f, at every rank.
    """
    Y = lat.sample_parallelotope(basis, seed=seed, count=samples)
    h = 0.5 * basis.b1_e1
    vals = fld.eval_folded_batch(fld.fold_first(basis), Y[:, 1:])
    lo, hi = lat.fiber_interval_batch(basis, Y[:, 1:])
    ell = hi - lo
    if (ell <= 0).any():
        raise InternalCheckError("projected sample with empty fiber")
    gap = np.abs(np.clip(vals, lo, hi) - np.clip(h, lo, hi)) / ell
    return {
        "decode_error": _estimate((Y[:, 0] > h) != (Y[:, 0] > vals), seed),
        "l1_gap": _estimate(gap, seed),
    }


def separation_report(n: int, M: int, L: int, w: int) -> dict:
    """Pure arithmetic of the depth-separation counting argument, in log2
    so no term overflows at any size: how many translated cell copies the
    extension creates, the piece budget of a width-w depth-L competitor, and
    whether the exponent condition holds."""
    if M < 1:
        raise DomainError(f"M must be >= 1, got {M}")
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if L < 1 or w < 2:
        raise DomainError(f"need L >= 1 and w >= 2, got L={L}, w={w}")
    budget_log2 = (n - 1) * L * math.log2(w)
    required = L * math.log2(w) + n
    return {
        "n": n,
        "M": M,
        "L": L,
        "w": w,
        "copies_log2": M * (n - 1),
        "simplex_volume_lower": simplex_volume_bounds(n)[0],
        "piece_budget_log2": budget_log2,
        "required_M": required,
        "margin": M - required,
        "condition_satisfied": M >= required,
    }
