"""Approximation families indexed by a free spread parameter xi.

Three families approximate a possibility contour around the MLE anchor
(theta_hat, J):

* :class:`GaussianScalarFamily` — N(theta_hat, xi^2 J^{-1}); its possibility
  contour is the closed form 1 - G_d{(theta-theta_hat)' J (theta-theta_hat)
  / xi^2} with G_d the ChiSq(d) distribution function.
* :class:`GaussianVectorFamily` — J is eigen-decomposed as U Psi U' and each
  xi_s rescales one eigen direction: J(xi) = U diag(1/xi) Psi diag(1/xi) U'.
  A constant xi-vector c reproduces the scalar family with xi = c.
* :class:`DirichletFamily` — Dirichlet with the empirical mean and precision
  n*xi; its contour is the Monte Carlo probability-to-possibility transform
  of the density ordering, a sorted lookup in the log densities of m draws
  made once per contour.

Families are immutable; refitting replaces xi via ``with_xi``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy import special

from ._rng import REF_TAG, derive_rng
from .contours import PossibilityContour, _lookup_batch
from .models import SingularInformationError

__all__ = [
    "GaussianScalarFamily",
    "GaussianVectorFamily",
    "chi2_sf",
    "chi2_ppf",
    "DirichletFamily",
    "sample",
    "stratified_offsets",
    "gaussian_contour",
    "gaussian_info_matrix",
    "gaussian_cov_matrix",
    "boundary_points",
    "gaussian_contour_object",
    "dirichlet_contour_object",
    "family_to_json",
]


def chi2_sf(q, d):
    """ChiSq(d) survival function, 1 - G_d(q); 1 for q <= 0.

    ``chdtrc`` is NaN below 0, where a quadratic form can land by rounding
    (e.g. -1e-17), so q is clamped at 0 first.
    """
    return special.chdtrc(d, np.maximum(q, 0.0))


def chi2_ppf(p, d):
    """ChiSq(d) quantile G_d^{-1}(p)."""
    return 2.0 * special.gammaincinv(d / 2.0, p)


def _check_anchor(theta_hat, info):
    theta_hat = np.asarray(theta_hat, dtype=float).ravel()
    info = np.atleast_2d(np.asarray(info, dtype=float))
    d = theta_hat.size
    if info.shape != (d, d):
        raise ValueError(f"information must be {d}x{d}, got {info.shape}")
    if not np.allclose(info, info.T, rtol=1e-8, atol=1e-10):
        raise ValueError("information matrix must be symmetric")
    return theta_hat, 0.5 * (info + info.T)


@dataclass(frozen=True)
class GaussianScalarFamily:
    """N(theta_hat, xi^2 J^{-1}) with a single spread multiplier xi."""

    theta_hat: np.ndarray
    info: np.ndarray
    xi: float = 1.0

    def __post_init__(self):
        th, J = _check_anchor(self.theta_hat, self.info)
        object.__setattr__(self, "theta_hat", th)
        object.__setattr__(self, "info", J)
        object.__setattr__(self, "xi", float(self.xi))
        if self.xi < 0:
            raise ValueError("xi must be nonnegative")

    @property
    def dim(self) -> int:
        return self.theta_hat.size

    def with_xi(self, xi) -> "GaussianScalarFamily":
        return dataclasses.replace(self, xi=float(np.asarray(xi).ravel()[0]))


@dataclass(frozen=True)
class GaussianVectorFamily:
    """Gaussian family with one spread multiplier per eigen direction of J.

    Eigenvalues are stored descending; each eigenvector's first component
    exceeding 1e-12 in absolute value is made positive, so boundary points
    are reproducible.
    """

    theta_hat: np.ndarray
    info: np.ndarray
    xi: np.ndarray
    eigvals: np.ndarray = field(init=False, repr=False)
    eigvecs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        th, J = _check_anchor(self.theta_hat, self.info)
        xi = np.asarray(self.xi, dtype=float).ravel()
        if xi.size != th.size:
            raise ValueError("xi must have one entry per parameter dimension")
        if np.any(xi < 0):
            raise ValueError("xi entries must be nonnegative")
        w, v = np.linalg.eigh(J)
        w, v = w[::-1].copy(), v[:, ::-1].copy()
        for s in range(v.shape[1]):
            nz = np.nonzero(np.abs(v[:, s]) > 1e-12)[0]
            if nz.size and v[nz[0], s] < 0:
                v[:, s] = -v[:, s]
        object.__setattr__(self, "theta_hat", th)
        object.__setattr__(self, "info", J)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eigvals", w)
        object.__setattr__(self, "eigvecs", v)

    @property
    def dim(self) -> int:
        return self.theta_hat.size

    def with_xi(self, xi) -> "GaussianVectorFamily":
        return dataclasses.replace(self, xi=np.asarray(xi, dtype=float).ravel())


@dataclass(frozen=True)
class DirichletFamily:
    """Dirichlet(n * xi * mean): empirical simplex mean, precision n*xi."""

    mean: np.ndarray
    n: int
    xi: float = 1.0

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        if mean.size < 2 or np.any(mean <= 0):
            raise ValueError("mean must be a strictly positive simplex point")
        if abs(mean.sum() - 1.0) > 1e-8:
            raise ValueError("mean must sum to 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.xi > 0:
            raise ValueError("xi must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "xi", float(self.xi))

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def concentration(self) -> np.ndarray:
        return self.n * self.xi * self.mean

    def with_xi(self, xi) -> "DirichletFamily":
        return dataclasses.replace(self, xi=float(np.asarray(xi).ravel()[0]))


GaussianFamily = Union[GaussianScalarFamily, GaussianVectorFamily]


def _positive_eigs(family: GaussianVectorFamily) -> np.ndarray:
    if np.any(~np.isfinite(family.eigvals)) or family.eigvals[-1] <= 0:
        raise SingularInformationError(
            f"information has a nonpositive eigenvalue ({family.eigvals[-1]:.3g})"
        )
    return family.eigvals


def _positive_xi(xi) -> np.ndarray:
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(xi <= 0):
        raise ValueError("operation requires strictly positive xi")
    return xi


def gaussian_info_matrix(family: GaussianFamily) -> np.ndarray:
    """The information J(xi) whose inverse is the family's covariance."""
    if isinstance(family, GaussianScalarFamily):
        xi = _positive_xi(family.xi)[0]
        return family.info / xi**2
    psi = _positive_eigs(family)
    xi = _positive_xi(family.xi)
    U = family.eigvecs
    return (U * (psi / xi**2)) @ U.T


def gaussian_cov_matrix(family: GaussianFamily) -> np.ndarray:
    if isinstance(family, GaussianScalarFamily):
        xi = _positive_xi(family.xi)[0]
        # invert via eigh for symmetry
        w, v = np.linalg.eigh(family.info)
        if w[0] <= 0:
            raise SingularInformationError("information not positive definite")
        return (v * (xi**2 / w)) @ v.T
    psi = _positive_eigs(family)
    xi = _positive_xi(family.xi)
    U = family.eigvecs
    return (U * (xi**2 / psi)) @ U.T


def _scale_factor(family: GaussianFamily) -> np.ndarray:
    """A with A A' the family's covariance, so theta_hat + A z with z
    standard normal is a draw."""
    if isinstance(family, GaussianScalarFamily):
        xi = _positive_xi(family.xi)[0]
        w, v = np.linalg.eigh(family.info)
        if w[0] <= 0:
            raise SingularInformationError("information not positive definite")
        return v * (xi / np.sqrt(w))  # A A' = xi^2 J^{-1}
    if isinstance(family, GaussianVectorFamily):
        psi = _positive_eigs(family)
        xi = _positive_xi(family.xi)
        return family.eigvecs * (xi / np.sqrt(psi))
    raise TypeError(f"unknown family type {type(family).__name__}")


def sample(family, k: int, rng: np.random.Generator) -> np.ndarray:
    """k iid draws from the family, as a (k, dim) array."""
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(family, DirichletFamily):
        return rng.dirichlet(family.concentration, size=k)
    A = _scale_factor(family)
    z = rng.standard_normal((k, family.dim))
    return family.theta_hat[None, :] + z @ A.T


def stratified_offsets(family: GaussianFamily, k: int, rng: np.random.Generator) -> np.ndarray:
    """k offsets from theta_hat whose draws theta_hat + offset follow the
    family with one draw per ChiSq(d) stratum of radius, as a (k, d) array.

    Offset i is r_i u_i A' with u_i uniform on the unit sphere, A the
    family's scale factor (as :func:`sample` builds it) and
    r_i^2 = G_d^{-1}((i + U_i) / k), U_i uniform on [0, 1): the squared
    Mahalanobis radius G_d(r_i^2) lands in [i/k, (i+1)/k), so the pool's
    share inside any level set of the family is exact to 1/k.  At d = 1 the
    quantile is 2 erfcinv(q)^2 in closed form, which agrees with ``chdtri``
    to 3e-14 and costs under a hundredth of its iteration at half-integer
    shape.
    """
    k = int(k)
    A = _scale_factor(family)
    z = rng.standard_normal((k, family.dim))
    u = z / np.linalg.norm(z, axis=1, keepdims=True)
    q = 1.0 - (np.arange(k) + rng.random(k)) / k
    r2 = 2.0 * special.erfcinv(q) ** 2 if family.dim == 1 else special.chdtri(family.dim, q)
    return (np.sqrt(r2)[:, None] * u) @ A.T


def _quadratic_forms(family: GaussianFamily, thetas) -> np.ndarray:
    """(theta - theta_hat)' J(xi) (theta - theta_hat) at each row, its terms
    summed in one fixed order, so a row's value does not depend on the rows
    beside it (einsum's order does)."""
    diff = np.atleast_2d(np.asarray(thetas, dtype=float)) - family.theta_hat[None, :]
    terms = (diff[:, :, None] * gaussian_info_matrix(family)[None]) * diff[:, None, :]
    return np.add.accumulate(terms.reshape(len(diff), -1), axis=1)[:, -1]


def gaussian_contour(family: GaussianFamily, theta) -> float:
    """Closed-form contour 1 - G_d(quadratic form) of the Gaussian family."""
    return float(_gaussian_contour_batch(family, np.reshape(theta, (1, -1)))[0])


def _gaussian_contour_batch(family: GaussianFamily, thetas) -> np.ndarray:
    return chi2_sf(_quadratic_forms(family, thetas), family.dim)


def boundary_points(family: GaussianVectorFamily, alpha: float) -> np.ndarray:
    """The 2d ellipsoid-boundary representatives, shaped (d, 2, d).

    Along eigen direction s the offset is xi_s * sqrt(chi2_d(1-alpha) /
    psi_s), which satisfies the ellipsoid equation
    (theta - theta_hat)' J(xi) (theta - theta_hat) = chi2_d(1-alpha) with
    equality for every xi (the d=1 case reduces to the scalar family's cut
    endpoint).  [s, 0] is the '+' point, [s, 1] the '-' point.
    """
    psi = _positive_eigs(family)
    xi = np.asarray(family.xi, dtype=float)
    d = family.dim
    c = chi2_ppf(1.0 - alpha, d)
    offsets = xi * np.sqrt(c / psi)  # (d,)
    pts = np.empty((d, 2, d))
    for s in range(d):
        step = offsets[s] * family.eigvecs[:, s]
        pts[s, 0] = family.theta_hat + step
        pts[s, 1] = family.theta_hat - step
    return pts


# ---------------------------------------------------------------------------
# Dirichlet contour (Monte Carlo probability-to-possibility transform)
# ---------------------------------------------------------------------------


def _dirichlet_log_density_kernel(conc: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Unnormalized Dirichlet log density; the normalizer cancels in ranks."""
    return np.sum(special.xlogy(conc - 1.0, thetas), axis=-1)


# ---------------------------------------------------------------------------
# contour objects
# ---------------------------------------------------------------------------


def gaussian_contour_object(family: GaussianFamily) -> PossibilityContour:
    """Deterministic closed-form contour of the family, evaluated in one
    vectorized batch; it carries the family."""
    return PossibilityContour(
        kind="closed-form-gaussian",
        dim=family.dim,
        evaluate_batch=lambda thetas, rng: _gaussian_contour_batch(family, thetas),
        family=family,
    )


def dirichlet_contour_object(
    family: DirichletFamily, m: int, seed: int
) -> PossibilityContour:
    """Monte Carlo Dirichlet contour Q{q(Theta) <= q(theta)} over the first
    K-1 simplex coordinates: small density means small possibility.

    Grid axes cannot span the simplex itself, so the contour takes the first
    K-1 coordinates and completes the last as 1 - sum; embedded points off
    the open simplex evaluate to 0.  Its m draws of Theta are made once, on
    the stream ``(seed, REF_TAG)``, so the contour is a deterministic lookup.
    The contour carries the family.
    """
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    conc = family.concentration

    def statistic(thetas):
        full = np.column_stack([thetas, 1.0 - np.sum(thetas, axis=1)])
        on = np.all(full > 0.0, axis=1) & (np.abs(full.sum(axis=1) - 1.0) <= 1e-8)
        return np.where(on, _dirichlet_log_density_kernel(conc, full), -np.inf)

    draws = derive_rng(seed, REF_TAG).dirichlet(conc, size=m)
    return PossibilityContour(
        kind="dirichlet-mc",
        dim=family.dim - 1,
        evaluate_batch=_lookup_batch(statistic, _dirichlet_log_density_kernel(conc, draws)),
        meta={"m": m, "seed": int(seed)},
        family=family,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def family_to_json(family, **extra) -> dict:
    """Plain-JSON description of a family; extras (alpha, seed, ...) pass through."""
    if isinstance(family, GaussianScalarFamily):
        doc = {
            "family": "gaussian-scalar",
            "theta_hat": family.theta_hat.tolist(),
            "info": family.info.tolist(),
            "xi": family.xi,
        }
    elif isinstance(family, GaussianVectorFamily):
        doc = {
            "family": "gaussian-vector",
            "theta_hat": family.theta_hat.tolist(),
            "info": family.info.tolist(),
            "xi": family.xi.tolist(),
        }
    elif isinstance(family, DirichletFamily):
        doc = {
            "family": "dirichlet",
            "mean": family.mean.tolist(),
            "n": family.n,
            "xi": family.xi,
        }
    else:
        raise TypeError(f"unknown family type {type(family).__name__}")
    doc.update(extra)
    return doc
