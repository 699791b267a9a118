"""Root-lattice bases of the four families: Gram construction, orientation,
corners, nearest-corner search, uniform sampling of P(B) and of its projection
D(B), and JSON export. Every basis is built from its FamilyId by build_basis.

Bases are kept as generator matrices G whose rows b_1..b_n satisfy b_j . e_1 = 0
for j >= 2 and b_1 . e_1 > 0, so the first coordinate plays the role of the
decoded bit axis everywhere downstream.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, InternalCheckError, ResourceError

FAMILY_AN = "an"
FAMILY_DN_CONST_A = "dn-const-a"
FAMILY_DN_SECOND = "dn-second"
FAMILY_EN = "en"
FAMILIES = (FAMILY_AN, FAMILY_DN_CONST_A, FAMILY_DN_SECOND, FAMILY_EN)

#: smallest/largest dimension per family (None = no upper limit here; the
#: corner cap below still applies to anything that enumerates {0,1}^n).
FAMILY_RANGES = {
    FAMILY_AN: (1, None),
    FAMILY_DN_CONST_A: (2, None),
    FAMILY_DN_SECOND: (2, None),
    FAMILY_EN: (6, 8),
}

CORNER_CAP = 20
GEOM_TOL = 1e-9
FIRST_COORD_TOL = 1e-12


@dataclass(frozen=True)
class FamilyId:
    """A lattice family tag plus dimension, validated on construction."""

    family: str
    n: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        lo, hi = FAMILY_RANGES[self.family]
        if self.n < lo or (hi is not None and self.n > hi):
            hi_s = str(hi) if hi is not None else "inf"
            raise DomainError(
                f"family {self.family!r} requires {lo} <= n <= {hi_s}, got n={self.n}"
            )


def build_gram(fid: FamilyId) -> np.ndarray:
    """Integer Gram matrix of the family, unscaled (minimal squared norm 2).

    All four patterns share the base "2 on the diagonal, 1 off the diagonal";
    the variants adjust the first rows:
      - dn-const-a doubles the first row/column (so ||b_1||^2 = 4),
      - dn-second zeroes b_1 . b_2,
      - en zeroes b_1 . b_2 and b_1 . b_3.
    """
    n = fid.n
    g = np.ones((n, n), dtype=np.int64) + np.eye(n, dtype=np.int64)
    if fid.family == FAMILY_DN_CONST_A:
        g[0, :] = 2
        g[:, 0] = 2
        g[0, 0] = 4
    elif fid.family == FAMILY_DN_SECOND:
        g[0, 1] = g[1, 0] = 0
    elif fid.family == FAMILY_EN:
        g[0, 1] = g[1, 0] = 0
        g[0, 2] = g[2, 0] = 0
    return g


@dataclass(frozen=True, eq=False)
class OrientedBasis:
    """Generator matrix G (rows b_1..b_n) of the family fid, with integer
    gram = G G^T.

    The orientation puts b_2..b_n inside the hyperplane {y : y . e_1 = 0}
    and makes b_1 . e_1 > 0, i.e. G is upper triangular with positive diagonal.
    """

    gram: np.ndarray
    G: np.ndarray
    fid: FamilyId

    def __post_init__(self) -> None:
        self.gram.setflags(write=False)
        self.G.setflags(write=False)

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def b1_e1(self) -> float:
        """First coordinate of b_1 (height of the C^1 corner layer)."""
        return float(self.G[0, 0])

    @cached_property
    def Ginv(self) -> np.ndarray:
        inv = np.linalg.inv(self.G)
        inv.setflags(write=False)
        return inv


def build_basis(fid: FamilyId) -> OrientedBasis:
    """The oriented basis of a family instance: build_gram, then a Cholesky
    factorization with row/column order reversed so the zero pattern lands in
    the leading coordinates of b_2..b_n:
        G = J . chol(J . gram . J) . J,   J = anti-identity.
    The result is upper triangular with positive diagonal, which gives both
    orientation conditions at once (determinant = +sqrt(det gram)).

    Memoized per process for the last fid asked for: calls on one instance
    share one read-only basis, and so the builders keyed by it hit too.
    """
    return _basis(fid)


@lru_cache(maxsize=1)
def _basis(fid: FamilyId) -> OrientedBasis:
    gram = build_gram(fid)
    J = np.eye(fid.n)[::-1]
    try:
        L = np.linalg.cholesky(J @ gram @ J)
    except np.linalg.LinAlgError as exc:
        raise InternalCheckError(f"family gram matrix not positive definite: {exc}") from exc
    basis = OrientedBasis(gram=gram, G=J @ L @ J, fid=fid)
    _check_orientation(basis)
    return basis


def _check_orientation(basis: OrientedBasis) -> None:
    G, gram = basis.G, basis.gram.astype(float)
    if not np.allclose(G @ G.T, gram, atol=GEOM_TOL):
        raise InternalCheckError("G G^T does not reproduce the gram matrix")
    if basis.n > 1 and np.abs(G[1:, 0]).max() > FIRST_COORD_TOL:
        raise InternalCheckError("b_j . e_1 != 0 for some j >= 2 after orientation")
    if G[0, 0] <= 0:
        raise InternalCheckError("b_1 . e_1 <= 0 after orientation")


@dataclass(frozen=True, eq=False)
class CornerSet:
    """The 2^n corners zG of P(B), by their integer labels z in {0,1}^n."""

    z: np.ndarray  # (2^n, n) int64, lexicographically ordered


def enumerate_corners(basis: OrientedBasis) -> CornerSet:
    """The labels of all corners zG, z in {0,1}^n."""
    n = basis.n
    if n > CORNER_CAP:
        raise ResourceError(f"corner enumeration capped at n <= {CORNER_CAP}, got {n}")
    z = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    return CornerSet(z=z)


def cvp_corners_batch(basis: OrientedBasis, Y: np.ndarray) -> np.ndarray:
    """Row indices into the lexicographic corner list of the nearest corner.

    Ties go to the lexicographically smallest z: argmin takes the first
    minimum. Each block of rows holds about 2^20 distances, so the distance
    table stays near 8 MB at any n; callers map rows to z via
    enumerate_corners(basis).z[rows].
    """
    X = enumerate_corners(basis).z @ basis.G
    x2 = (X**2).sum(axis=1)
    out = np.empty(Y.shape[0], dtype=np.int64)
    step = max(1, (1 << 20) // len(X))
    for lo in range(0, Y.shape[0], step):
        d2 = x2[None, :] - 2.0 * (Y[lo : lo + step] @ X.T)
        out[lo : lo + step] = d2.argmin(axis=1)
    return out


def sample_parallelotope(
    basis: OrientedBasis, seed: int, count: int
) -> np.ndarray:
    """count i.i.d. uniform points of P(B): y = alpha G, alpha ~ U[0,1)^n."""
    if count < 1:
        raise DomainError("count must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.random((count, basis.n)) @ basis.G


# ---------------------------------------------------------------------------
# projected domain D(B): the image of P(B) under dropping the first coordinate
# ---------------------------------------------------------------------------

def fiber_interval_batch(
    basis: OrientedBasis, Yt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each ytilde row, the t-interval with (t, ytilde) in P(B).

    alpha(t) = t * Ginv[0] + (0, ytilde) Ginv must lie in [0,1)^n coordinatewise;
    the interval is empty iff hi <= lo. Returns (lo, hi) arrays.
    """
    n = basis.n
    Yt = np.atleast_2d(np.asarray(Yt, dtype=float))
    r = basis.Ginv[0]
    # a coordinate near the largest double overflows to +-inf (or nan where
    # infinities of both signs meet), which the interval arithmetic below and
    # the callers' checks reject
    with np.errstate(over="ignore", invalid="ignore"):
        a0 = np.concatenate([np.zeros((Yt.shape[0], 1)), Yt], axis=1) @ basis.Ginv
    lo = np.full(Yt.shape[0], -np.inf)
    hi = np.full(Yt.shape[0], np.inf)
    for j in range(n):
        rj = r[j]
        if abs(rj) < 1e-15:
            inside = (a0[:, j] >= 0.0) & (a0[:, j] < 1.0)
            lo = np.where(inside, lo, np.inf)
            continue
        with np.errstate(over="ignore", divide="ignore"):
            t0 = (0.0 - a0[:, j]) / rj
            t1 = (1.0 - a0[:, j]) / rj
        lo = np.maximum(lo, np.minimum(t0, t1))
        hi = np.minimum(hi, np.maximum(t0, t1))
    return lo, hi


def sample_domain(basis: OrientedBasis, seed: int, count: int) -> np.ndarray:
    """count uniform points of D(B), exact and without rejection.

    Dropping the first coordinate maps the lower boundary of P(B) one-to-one
    onto D(B). With y = alpha G it is n facets: facet i pins alpha_i = 0 when
    Ginv[0, i] > 0, alpha_i = 1 when Ginv[0, i] < 0, and projects with volume
    |det(G[:, 1:] without row i)| = |Ginv[0, i]| |det G| (Cramer; a vertical
    facet, Ginv[0, i] = 0, gets 0). Each point picks a facet in proportion to
    volume, draws the other alpha from U[0, 1) and returns alpha G[:, 1:].
    seed is anything numpy.random.default_rng accepts (an int or a tuple).
    """
    r = basis.Ginv[0]
    vol = np.where(np.abs(r) < 1e-15, 0.0, np.abs(r))
    rng = np.random.default_rng(seed)
    facet = rng.choice(basis.n, size=count, p=vol / vol.sum())
    alpha = rng.random((count, basis.n))
    alpha[np.arange(count), facet] = r[facet] < 0
    return alpha @ basis.G[:, 1:]


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------

def basis_to_json(basis: OrientedBasis) -> str:
    """Serialize {family, n, gram, generator} row-major.

    Floats go through repr (shortest round-trip form, up to 17 significant
    digits), so reloading reproduces bit-identical matrices.
    """
    payload = {
        "family": basis.fid.family,
        "n": basis.n,
        "gram": basis.gram.tolist(),
        "generator": [[float(v) for v in row] for row in basis.G.tolist()],
    }
    return json.dumps(payload, indent=2)
