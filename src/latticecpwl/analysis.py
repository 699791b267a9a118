"""Volume bounds, L1 gap estimates, and decoding-error rates.

The Monte Carlo estimators sample the parallelotope uniformly, project onto
coordinates 2..n, and correct by the first-coordinate fiber length, which
turns parallelotope averages into projected-domain integrals without meshing
the projected zonotope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import boundary as bnd
from . import lattices as lat
from .errors import ConstructionError, DomainError, InternalCheckError

# brute-force corner search is used up to this rank; beyond it only the
# simplex family has a specialized decoder
BRUTE_DECODER_MAX_N = 10
CROSS_CHECK_SAMPLES = 1_000


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    samples: int
    seed: int
    stderr: float
    extras: dict = field(default_factory=dict)


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
    to the boundary structure rather than an arbitrary simplex choice.
    """
    n = basis.n
    vertices = np.cumsum(basis.G, axis=0)
    det = float(np.linalg.det(vertices))
    scale = float(np.abs(basis.G).max()) ** n
    if abs(det) <= 1e-12 * max(scale, 1.0):
        raise ConstructionError("degenerate simplex vertex set")
    return abs(det) / math.factorial(n)


def volume_report(basis: lat.OrientedBasis) -> dict:
    lower, upper = simplex_volume_bounds(basis.n)
    return {
        "n": basis.n,
        "exact": exact_simplex_volume(basis),
        "lower": lower,
        "upper": upper,
    }


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


def _fiber_quantities(basis: lat.OrientedBasis, f: bnd.BoundaryFunction, Y):
    vals, _ = bnd.eval_boundary_batch(f, Y[:, 1:])
    lo, hi = lat.fiber_interval_batch(basis, Y[:, 1:])
    ell = hi - lo
    if (ell <= 0).any():
        raise InternalCheckError("projected sample with empty fiber")
    return vals, lo, hi, ell


def l1_gap_mc(
    basis: lat.OrientedBasis,
    f: bnd.BoundaryFunction,
    seed: int = 0,
    samples: int = 10_000,
    unit_volume: bool = True,
) -> McEstimate:
    """Gap between the boundary function and the constant mid-height plane.

    The primary estimate integrates, over the projected domain, the length of
    the first-coordinate fiber segment on which the two disagree as
    classifiers, intersecting both graphs with the parallelotope first. The raw
    graph distance without that intersection is reported alongside in extras
    as graph_gap; it exceeds the covering bound already at moderate n because
    the constant plane leaves the parallelotope fibers.

    With unit_volume the result is expressed in the convention where the
    parallelotope has volume one (equivalently, lengths scaled by
    det(Gamma)^(-1/2n)); otherwise in the raw coordinates of the basis.
    """
    Y = lat.sample_parallelotope(basis, seed=seed, count=samples)
    vals, lo, hi, ell = _fiber_quantities(basis, f, Y)
    h = 0.5 * basis.b1_e1
    f_clip = np.clip(vals, lo, hi)
    h_clip = np.clip(h, lo, hi)
    disagree = np.abs(f_clip - h_clip) / ell
    graph = np.abs(vals - h) / ell
    volume = math.sqrt(float(np.linalg.det(np.asarray(basis.gram, dtype=float))))
    factor = 1.0 if unit_volume else volume
    est = float(disagree.mean()) * factor
    err = float(disagree.std(ddof=1) / math.sqrt(samples)) * factor
    return McEstimate(
        estimate=est,
        samples=samples,
        seed=seed,
        stderr=err,
        extras={
            "graph_gap": float(graph.mean()) * factor,
            "graph_gap_stderr": float(graph.std(ddof=1) / math.sqrt(samples)) * factor,
            "threshold": h,
            "parallelotope_volume": volume,
            "unit_volume": unit_volume,
        },
    )


def _an_corner_bits(basis: lat.OrientedBasis, Y: np.ndarray) -> np.ndarray:
    """First coordinate of the nearest corner for the simplex family.

    Minimizing |y - zB|^2 over z in {0,1}^n reduces, for the Gram matrix
    J + I, to -2 sum z_i c_i + S^2 + S with c = y B^T and S = sum z_i, so the
    best z with S = k takes the k largest c_i and the best k minimizes
    k^2 + k - 2 (top-k partial sum). z_1 = 1 iff c_1 ranks inside the top k.
    """
    n = basis.n
    c = Y @ basis.G.T
    order = np.sort(c, axis=1)[:, ::-1]
    csum = np.cumsum(order, axis=1)
    k = np.arange(n + 1)
    obj = k * k + k - 2.0 * np.concatenate(
        [np.zeros((Y.shape[0], 1)), csum], axis=1
    )
    kstar = obj.argmin(axis=1)
    rank0 = (c > c[:, :1]).sum(axis=1)
    return (rank0 < kstar).astype(np.int8)


def _nearest_corner_bits(basis: lat.OrientedBasis, Y: np.ndarray) -> np.ndarray:
    corners = lat.enumerate_corners(basis)
    idx = lat.cvp_corners_batch(basis, Y)
    return corners.z[idx, 0].astype(np.int8)


def hyperplane_decoding_error_mc(
    basis: lat.OrientedBasis,
    seed: int = 0,
    samples: int = 10_000,
) -> McEstimate:
    """Fraction of uniform parallelotope samples where thresholding the first
    coordinate at half height decodes a different first corner bit than the
    nearest-corner search."""
    n = basis.n
    Y = lat.sample_parallelotope(basis, seed=seed, count=samples)
    pred = (Y[:, 0] > 0.5 * basis.b1_e1).astype(np.int8)
    if n <= BRUTE_DECODER_MAX_N:
        bits = _nearest_corner_bits(basis, Y)
        decoder = "brute"
    else:
        fid = basis.fid
        if fid is None or fid.family != lat.FAMILY_AN:
            raise DomainError(
                f"rank {n} exceeds the brute-force decoder limit "
                f"{BRUTE_DECODER_MAX_N} and no specialized decoder applies"
            )
        bits = _an_corner_bits(basis, Y)
        m = min(CROSS_CHECK_SAMPLES, samples)
        brute = _nearest_corner_bits(basis, Y[:m])
        if not np.array_equal(bits[:m], brute):
            bad = int(np.flatnonzero(bits[:m] != brute)[0])
            raise InternalCheckError(
                f"specialized decoder disagrees with brute force at sample {bad}"
            )
        decoder = "sorted-fast"
    ind = (pred != bits).astype(float)
    return McEstimate(
        estimate=float(ind.mean()),
        samples=samples,
        seed=seed,
        stderr=float(ind.std(ddof=1) / math.sqrt(samples)),
        extras={"decoder": decoder, "rule": "first coordinate above half height"},
    )


def separation_report(n: int, M: int, L: int, w: int) -> dict:
    """Pure arithmetic of the depth-separation counting argument: how many
    translated cell copies the extension creates, the piece budget of a
    width-w depth-L competitor, and whether the exponent condition holds."""
    if M < 1:
        raise DomainError(f"M must be >= 1, got {M}")
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if L < 1 or w < 2:
        raise DomainError(f"need L >= 1 and w >= 2, got L={L}, w={w}")
    copies = 2 ** (M * (n - 1))
    budget_log2 = (n - 1) * L * math.log2(w)
    required = L * math.log2(w) + n
    return {
        "n": n,
        "M": M,
        "L": L,
        "w": w,
        "copies": copies,
        "copies_log2": M * (n - 1),
        "simplex_volume_lower": simplex_volume_bounds(n)[0],
        "piece_budget_log2": budget_log2,
        "piece_budget": 2.0**budget_log2,
        "required_M": required,
        "margin": M - required,
        "condition_satisfied": M >= required,
    }
