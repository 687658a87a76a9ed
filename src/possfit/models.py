"""Parametric model layer: datasets, model specifications, likelihood ops.

A :class:`ModelSpec` bundles the callables the contour machinery needs:
log-likelihood, sampler, maximum-likelihood estimator and observed
information.  Models may additionally carry two fast paths used by the
Monte Carlo contour engine:

``log_rel_lik_for(data)``
    a function mapping a ``(k, d)`` array of parameter points to the
    ``(k,)`` exact log relative likelihoods of the observed data, with what
    depends on the data alone (sufficient statistics, the MLE) computed
    once; it shares the code path of the simulated values, so ties at the
    MLE are exact, and
``sim_log_rel_lik(thetas, n, m, rng)``
    for each row of a ``(k, d)`` array of parameter points, the log
    relative likelihoods of ``m`` datasets of size ``n`` simulated under
    that row, as a ``(k, m)`` array.  A kernel only has to match, row by
    row, the distribution of ``log R(X, theta)`` for ``X`` drawn by
    ``sample``; it may draw the sufficient statistics directly (or, for a
    discrete statistic, the counts of its support points), so it need not
    consume the random stream the way ``sample`` does.  Kernels whose
    statistics are small broadcast over the rows; kernels that simulate
    whole datasets loop over the rows on the shared generator
    (:func:`_rowwise`), so their memory stays that of one point.  Without
    a kernel the engine falls back to a per-dataset loop through
    ``sample``/``mle``.

A model may also declare ``censored_sim(ghat)``, which maps an estimated
censoring distribution to a kernel of the same contract for data pushed
through left censoring at levels drawn from ``ghat``;
``nuisance.censored_model`` installs it in place of the uncensored kernel.

Conventions: a parameter outside the domain makes ``log_lik`` return
``-inf`` (so the relative likelihood is 0 there); ``mle`` returns the
likelihood-supremum point even when it sits on the domain boundary, and
:func:`mle_and_information` is the operation that rejects boundary cases.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special

__all__ = [
    "Dataset",
    "ModelSpec",
    "DegenerateMLEError",
    "MLEConvergenceError",
    "SingularInformationError",
    "relative_likelihood",
    "log_relative_likelihood",
    "observed_log_rel_lik",
    "mle_and_information",
    "finite_difference_information",
    "soft_threshold",
    "binomial",
    "bvn_correlation",
    "logistic_regression",
    "multinomial",
    "poisson_loglinear",
    "gamma_shape_scale",
    "gamma_mean_shape",
    "normal_means",
    "normal_means_lasso",
    "lognormal",
    "lognormal_censored",
    "log_reparam",
    "read_dataset_csv",
]


class DegenerateMLEError(RuntimeError):
    """Maximum likelihood estimate on the boundary of the parameter domain."""


class MLEConvergenceError(RuntimeError):
    """Likelihood optimizer failed to converge."""


class SingularInformationError(RuntimeError):
    """Observed information numerically singular (condition number > 1e12)."""


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    """Observed data: responses, optional covariates, optional censor flags.

    ``responses`` is an (n,) vector, or an (n, 2) array for paired-response
    models.  ``censor`` entries are 1 for an exactly observed response and 0
    for a censored one.
    """

    responses: np.ndarray
    covariates: Optional[np.ndarray] = None
    censor: Optional[np.ndarray] = None

    def __post_init__(self):
        self.responses = np.asarray(self.responses)
        if self.responses.ndim not in (1, 2):
            raise ValueError("responses must be a vector or an (n, k) array")
        n = self.responses.shape[0]
        if self.covariates is not None:
            self.covariates = np.asarray(self.covariates, dtype=float)
            if self.covariates.ndim != 2 or self.covariates.shape[0] != n:
                raise ValueError("covariates must be an (n, p) matrix")
        if self.censor is not None:
            self.censor = np.asarray(self.censor)
            if self.censor.shape != (n,):
                raise ValueError("censor flags must have length n")
            if not np.isin(self.censor, (0, 1)).all():
                raise ValueError("censor flags must be 0 or 1")
            self.censor = self.censor.astype(int)

    @property
    def n(self) -> int:
        return self.responses.shape[0]


def read_dataset_csv(path, response, covariates=(), censor=None) -> Dataset:
    """Load a Dataset from a headered CSV file.

    ``response`` is a column name, or a sequence of names for paired
    responses; ``covariates`` an optional sequence of column names; ``censor``
    an optional 0/1 column name.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path}: no data rows")

    def column(name):
        try:
            return np.array([float(r[name]) for r in rows])
        except KeyError:
            raise ValueError(f"{path}: missing column {name!r}") from None

    if isinstance(response, str):
        resp = column(response)
    else:
        resp = np.column_stack([column(c) for c in response])
    cov = np.column_stack([column(c) for c in covariates]) if covariates else None
    cen = column(censor).astype(int) if censor else None
    return Dataset(responses=resp, covariates=cov, censor=cen)


# ---------------------------------------------------------------------------
# model specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """A parametric model as the contour machinery sees it."""

    name: str
    dim: Optional[int]  # None: parameter dimension equals the sample size
    log_lik: Callable[[Dataset, np.ndarray], float]
    sample: Callable[[np.ndarray, int, np.random.Generator], Dataset]
    mle: Callable[[Dataset], np.ndarray]
    information: Callable[[Dataset], np.ndarray]
    boundary_mle: Optional[Callable[[Dataset], bool]] = None
    log_rel_lik_for: Optional[
        Callable[[Dataset], Callable[[np.ndarray], np.ndarray]]
    ] = None
    sim_log_rel_lik: Optional[
        Callable[[np.ndarray, int, int, np.random.Generator], np.ndarray]
    ] = None
    censored_sim: Optional[
        Callable[[object], Callable[[np.ndarray, int, int, np.random.Generator],
                                    np.ndarray]]
    ] = None
    meta: dict = field(default_factory=dict)


def observed_log_rel_lik(
    model: ModelSpec, data: Dataset
) -> Callable[[np.ndarray], np.ndarray]:
    """(k, d) points -> (k,) log of L(theta)/L(thetahat) for fixed data;
    -inf off the domain.

    What depends on the data alone is computed once, for every theta the
    returned function sees.  Without a ``log_rel_lik_for`` hook each row
    goes through ``log_lik``, and the maximized log-likelihood is computed
    on first use, and only for a theta on the domain; a failing ``mle``
    raises from every call that needs it.
    """
    if model.log_rel_lik_for is not None:
        raw = model.log_rel_lik_for(data)
    else:
        ll_hat = functools.cache(
            lambda: model.log_lik(data, np.asarray(model.mle(data), dtype=float))
        )

        def raw(thetas):
            ll = np.array([model.log_lik(data, theta) for theta in thetas], dtype=float)
            live = np.isfinite(ll)
            if live.any():
                ll[live] -= ll_hat()
            return np.where(live, ll, -np.inf)

    def log_rel(thetas) -> np.ndarray:
        # far out, log-likelihoods overflow to -inf or inf - inf; both are
        # read as a relative likelihood of 0 below
        with np.errstate(over="ignore", invalid="ignore"):
            val = np.asarray(raw(np.atleast_2d(np.asarray(thetas, dtype=float))),
                             dtype=float)
        return np.minimum(np.where(np.isnan(val), -np.inf, val), 0.0)

    return log_rel


def log_relative_likelihood(model: ModelSpec, data: Dataset, theta) -> float:
    """log of L(theta)/L(thetahat); -inf when theta is off the domain."""
    point = np.asarray(theta, dtype=float).ravel()[None, :]
    return float(observed_log_rel_lik(model, data)(point)[0])


def relative_likelihood(model: ModelSpec, data: Dataset, theta) -> float:
    return float(np.exp(log_relative_likelihood(model, data, theta)))


def mle_and_information(model: ModelSpec, data: Dataset):
    """(thetahat, observed information), rejecting degenerate cases."""
    if model.boundary_mle is not None and model.boundary_mle(data):
        raise DegenerateMLEError(
            f"{model.name}: maximum likelihood estimate on the domain boundary"
        )
    theta = np.asarray(model.mle(data), dtype=float)
    info = np.atleast_2d(np.asarray(model.information(data), dtype=float))
    info = 0.5 * (info + info.T)
    cond = np.linalg.cond(info)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularInformationError(
            f"{model.name}: observed information condition number {cond:.3g}"
        )
    return theta, info


def finite_difference_information(model: ModelSpec, data: Dataset, theta=None):
    """Observed information by central differences, h_i = 1e-5 (1+|theta_i|)."""
    if theta is None:
        theta = model.mle(data)
    theta = np.asarray(theta, dtype=float).ravel()
    return -_fd_hessian(lambda t: model.log_lik(data, t), theta)


def _fd_hessian(f, x):
    x = np.asarray(x, dtype=float)
    d = x.size
    h = 1e-5 * (1.0 + np.abs(x))
    H = np.empty((d, d))
    f0 = f(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h[i] ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h[j]
            val = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
            H[i, j] = H[j, i] = val
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# generic optimizers
# ---------------------------------------------------------------------------


def _damped_newton(loglik, grad, hess, x0, max_iter=80, tol=1e-9, max_norm=1e4):
    """Maximize loglik by Newton steps with backtracking; None on failure."""
    x = np.asarray(x0, dtype=float).copy()
    f = loglik(x)
    if not np.isfinite(f):
        return None
    for _ in range(max_iter):
        g = grad(x)
        if np.max(np.abs(g)) < tol * (1.0 + abs(f)):
            return x
        H = hess(x)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            return None
        a = 1.0
        for _ in range(40):
            cand = x + a * step
            fc = loglik(cand)
            if np.isfinite(fc) and fc >= f - 1e-12:
                break
            a *= 0.5
        else:
            return None
        if np.linalg.norm(cand) > max_norm:
            return None
        x, f = cand, fc
    g = grad(x)
    if np.max(np.abs(g)) < 1e-5 * (1.0 + abs(f)):
        return x
    return None


def _simplex_fallback(loglik, x0):
    from scipy import optimize

    res = optimize.minimize(lambda t: -loglik(t), x0, method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-12,
                                     "maxiter": 4000})
    if not res.success:
        raise MLEConvergenceError(f"simplex search failed: {res.message}")
    return res.x


def _rowwise(kernel):
    """Batch kernel from a one-point ``kernel(theta, n, m, rng) -> (m,)``.

    The rows are simulated in order on the shared generator, so a batch
    draws exactly what the same one-point calls made in sequence draw, and
    only one point's datasets are held at a time.
    """

    def batch(thetas, n, m, rng):
        thetas = np.asarray(thetas, dtype=float)
        out = np.empty((thetas.shape[0], int(m)))
        for i, theta in enumerate(thetas):
            out[i] = kernel(theta, n, m, rng)
        return out

    return batch


# ---------------------------------------------------------------------------
# binomial (success probability of n Bernoulli trials)
# ---------------------------------------------------------------------------


def _binom_log_rel(s, n, theta):
    """log R for count(s) at theta; vectorized over s and/or theta."""
    s = np.asarray(s, dtype=float)
    return (
        special.xlogy(s, theta)
        + special.xlogy(n - s, 1.0 - theta)
        - special.xlogy(s, s / n)
        - special.xlogy(n - s, 1.0 - s / n)
    )


def _binom_log_pmf(s, n, log_rel):
    """log P_theta(S = s) for S ~ binomial(n, theta), from log R(s; theta).

    The pmf is R(s; theta) P_{s/n}(S = s): the relative likelihood times the
    pmf at the count's own MLE, which depends on s alone.
    """
    log_peak = (
        special.gammaln(n + 1.0) - special.gammaln(s + 1.0)
        - special.gammaln(n - s + 1.0)
        + special.xlogy(s, s / n) + special.xlogy(n - s, 1.0 - s / n)
    )
    return log_rel + log_peak


def binomial() -> ModelSpec:
    def log_lik(data, theta):
        t = float(theta[0])
        if not 0.0 <= t <= 1.0:
            return -np.inf
        s = float(np.sum(data.responses))
        return float(special.xlogy(s, t) + special.xlogy(data.n - s, 1.0 - t))

    def sample(theta, n, rng):
        return Dataset(responses=rng.binomial(1, float(theta[0]), size=n))

    def mle(data):
        return np.array([float(np.mean(data.responses))])

    def information(data):
        p = float(np.mean(data.responses))
        return np.array([[data.n / (p * (1.0 - p))]])

    def boundary(data):
        s = int(np.sum(data.responses))
        return s == 0 or s == data.n

    def log_rel_for(data):
        s, n = float(np.sum(data.responses)), data.n

        def log_rel(thetas):
            t = thetas[:, 0]
            valid = (t >= 0.0) & (t <= 1.0)
            return np.where(valid, _binom_log_rel(s, n, np.where(valid, t, 0.5)), -np.inf)

        return log_rel

    def sim_log_rel(thetas, n, m, rng):
        t = np.asarray(thetas, dtype=float)[:, :1]
        if not np.all((t >= 0.0) & (t <= 1.0)):
            raise ValueError("binomial: theta outside [0, 1]")
        # log R takes only the n + 1 values of the count, so draw how many of
        # the m datasets land on each: the values are then exactly as
        # distributed as m iid draws, listed in count order
        s = np.arange(n + 1, dtype=float)
        table = _binom_log_rel(s, n, t)
        pmf = np.exp(_binom_log_pmf(s, n, table))
        counts = rng.multinomial(int(m), pmf / pmf.sum(axis=1, keepdims=True))
        return np.repeat(table.ravel(), counts.ravel()).reshape(t.shape[0], int(m))

    return ModelSpec(
        name="binomial",
        dim=1,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        boundary_mle=boundary,
        log_rel_lik_for=log_rel_for,
        sim_log_rel_lik=sim_log_rel,
    )


# ---------------------------------------------------------------------------
# bivariate normal correlation
# ---------------------------------------------------------------------------


def _bvn_stats(responses):
    x1, x2 = responses[..., 0], responses[..., 1]
    return np.sum(x1 * x1 + x2 * x2, axis=-1), np.sum(x1 * x2, axis=-1)


def _bvn_loglik_stats(a, b, n, rho):
    # a = sum(x1^2 + x2^2), b = sum(x1 x2)
    one = 1.0 - rho * rho
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = (
            -n * np.log(2 * np.pi)
            - 0.5 * n * np.log(one)
            - (a - 2 * rho * b) / (2 * one)
        )
    # |rho| >= 1 is the singular limit: zero density off the diagonal line
    return np.where(one > 0.0, ll, -np.inf)


def _bvn_score_roots(a, b, n):
    """Real roots of the score cubic n r^3 - b r^2 + (a - n) r - b, as (m, 3).

    Closed form on the depressed cubic t^3 + p t + q (r = t + b / 3n): the
    trigonometric form when all three roots are real, otherwise Cardano's
    formula for the one real root, repeated three times.  The triple root of
    p = q = 0 (b = 0, a = n) is the trigonometric form's h = 0 case.
    """
    c2, c1 = -b / n, (a - n) / n  # monic coefficients; c0 = c2
    p = c1 - c2 * c2 / 3.0
    q = (2.0 * c2**3 - 9.0 * c2 * c1 + 27.0 * c2) / 27.0
    disc = q * q / 4.0 + p**3 / 27.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # three real roots (disc <= 0, hence p <= 0)
        h = np.sqrt(np.maximum(-p / 3.0, 0.0))
        phi = np.arccos(np.clip(np.where(h > 0.0, -q / (2.0 * h**3), 0.0), -1.0, 1.0))
        three = 2.0 * h[:, None] * np.cos(
            (phi[:, None] - 2.0 * np.pi * np.arange(3)) / 3.0
        )
        # one real root (disc > 0, so u != 0); the sign choice keeps u free
        # of cancellation
        u = np.cbrt(-q / 2.0 - np.copysign(np.sqrt(np.maximum(disc, 0.0)), q))
        one = u - p / (3.0 * u)
    t = np.where((disc <= 0.0)[:, None], three, one[:, None])
    return t - (c2 / 3.0)[:, None]


def _bvn_mle_from_stats(a, b, n):
    """Vectorized MLE of the correlation: argmax over real cubic roots.

    The score equation is n r^3 - b r^2 + (a - n) r - b = 0; the root in
    (-1, 1) maximizing the likelihood is the MLE (the likelihood decreases
    into both endpoints, so an interior maximizer always exists).  One
    function serves observed and simulated data, so ties at the MLE are exact.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    cand = np.clip(_bvn_score_roots(a, b, n), -1.0 + 1e-10, 1.0 - 1e-10)
    ll = _bvn_loglik_stats(a[:, None], b[:, None], n, cand)
    return cand[np.arange(a.size), np.argmax(ll, axis=1)]


def bvn_correlation() -> ModelSpec:
    def log_lik(data, theta):
        r = float(theta[0])
        if not -1.0 < r < 1.0:
            return -np.inf
        a, b = _bvn_stats(np.asarray(data.responses, dtype=float))
        return float(_bvn_loglik_stats(a, b, data.n, r))

    def sample(theta, n, rng):
        r = float(theta[0])
        z = rng.standard_normal((n, 2))
        x2 = r * z[:, 0] + np.sqrt(1.0 - r * r) * z[:, 1]
        return Dataset(responses=np.column_stack([z[:, 0], x2]))

    def mle(data):
        a, b = _bvn_stats(np.asarray(data.responses, dtype=float))
        return np.array([float(_bvn_mle_from_stats(a, b, data.n)[0])])

    def information(data):
        rho = mle(data)
        return finite_difference_information(spec, data, rho)

    def sim_log_rel(thetas, n, m, rng):
        r = np.asarray(thetas, dtype=float)[:, :1]
        shape = (r.shape[0], int(m))
        # Degenerate boundary |r| >= 1: replicates drawn there sit exactly on
        # a line, where the relative likelihood at theta is 1 (log 0); the
        # observed value is -inf, so the contour is exactly 0.
        inside = np.abs(r) < 1.0
        r = np.where(inside, r, 0.0)
        # sum x x^T ~ Wishart_2(n, Sigma(r)), drawn by the Bartlett
        # decomposition: sum x x^T = (L B)(L B)^T with L = chol Sigma(r) and
        # B lower triangular, B11^2 ~ chi2_n, B22^2 ~ chi2_{n-1}, B21 ~ N(0, 1)
        b11_sq = rng.chisquare(n, size=shape)
        b22_sq = 2.0 * rng.standard_gamma(0.5 * (n - 1), size=shape)  # 0 at n = 1
        b21 = rng.standard_normal(shape)
        s = np.sqrt(1.0 - r * r)
        b11 = np.sqrt(b11_sq)
        lb21 = r * b11 + s * b21
        a = b11_sq + lb21 * lb21 + s * s * b22_sq
        b = b11 * lb21
        rhat = _bvn_mle_from_stats(a.ravel(), b.ravel(), n).reshape(shape)
        out = _bvn_loglik_stats(a, b, n, r) - _bvn_loglik_stats(a, b, n, rhat)
        return np.where(inside, out, 0.0)

    def log_rel_for(data):
        n = data.n
        a, b = _bvn_stats(np.asarray(data.responses, dtype=float))
        ll_hat = _bvn_loglik_stats(a, b, n, float(_bvn_mle_from_stats(a, b, n)[0]))

        def log_rel(thetas):
            # -inf for |r| >= 1 (and NaN), from the log-likelihood itself
            return _bvn_loglik_stats(a, b, n, thetas[:, 0]) - ll_hat

        return log_rel

    spec = ModelSpec(
        name="bvn-correlation",
        dim=1,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        log_rel_lik_for=log_rel_for,
        sim_log_rel_lik=sim_log_rel,
    )
    return spec


# ---------------------------------------------------------------------------
# log-linear GLMs with a fixed design (logistic, Poisson)
# ---------------------------------------------------------------------------


def _glm_loglik_batch(design, Y, Th, kind):
    eta = Th @ design.T
    if kind == "poisson":
        return np.sum(Y * eta - np.exp(eta), axis=-1) - np.sum(
            special.gammaln(Y + 1.0), axis=-1
        )
    return np.sum(Y * eta - np.logaddexp(0.0, eta), axis=-1)


def _glm_mle_batch(design, Y, kind, max_iter=60, tol=1e-8):
    """Damped Newton over a batch of response vectors; NaN rows on failure."""
    m, n = Y.shape
    d = design.shape[1]
    Th = np.zeros((m, d))
    if kind == "poisson":
        Th[:, 0] = np.log(np.maximum(Y.mean(axis=1), 0.5 / n))
    ll = _glm_loglik_batch(design, Y, Th, kind)
    for _ in range(max_iter):
        eta = Th @ design.T
        if kind == "poisson":
            mu = np.exp(np.clip(eta, -700, 700))
            w = mu
        else:
            mu = special.expit(eta)
            w = mu * (1.0 - mu)
        G = (Y - mu) @ design
        if np.max(np.abs(G)) < tol:
            break
        H = np.einsum("mn,ni,nj->mij", w, design, design)
        H[:, np.arange(d), np.arange(d)] += 1e-10
        try:
            step = np.linalg.solve(H, G[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.stack([np.linalg.lstsq(H[i], G[i], rcond=None)[0] for i in range(m)])
        a = np.ones(m)
        for _ in range(25):
            cand = Th + a[:, None] * step
            llc = _glm_loglik_batch(design, Y, cand, kind)
            bad = ~(np.isfinite(llc) & (llc >= ll - 1e-10))
            if not bad.any():
                break
            a[bad] *= 0.5
        Th = Th + a[:, None] * step
        ll = _glm_loglik_batch(design, Y, Th, kind)
    eta = Th @ design.T
    mu = np.exp(np.clip(eta, -700, 700)) if kind == "poisson" else special.expit(eta)
    G = (Y - mu) @ design
    ok = (np.max(np.abs(G), axis=1) < 1e-5 * (1.0 + np.abs(ll))) & (
        np.max(np.abs(Th), axis=1) < 1e3
    )
    Th = np.where(ok[:, None], Th, np.nan)
    return Th


def _make_glm(design, kind):
    design = np.asarray(design, dtype=float)
    if design.ndim != 2:
        raise ValueError("design must be an (n, d) matrix")
    n_design, d = design.shape

    def log_lik(data, theta):
        theta = np.asarray(theta, dtype=float)
        return float(_glm_loglik_batch(design, data.responses[None, :].astype(float),
                                       theta[None, :], kind)[0])

    def sample(theta, n, rng):
        if n != n_design:
            raise ValueError("sample size must match the fixed design")
        eta = design @ np.asarray(theta, dtype=float)
        if kind == "poisson":
            y = rng.poisson(np.exp(eta))
        else:
            y = (rng.random(n) < special.expit(eta)).astype(int)
        return Dataset(responses=y, covariates=design)

    def mle(data):
        th = _glm_mle_batch(design, data.responses[None, :].astype(float), kind)[0]
        if np.isnan(th).any():
            # one more attempt with a derivative-free search before giving up
            th = _simplex_fallback(lambda t: log_lik(data, t), np.zeros(d))
            if np.max(np.abs(th)) > 1e3:
                raise MLEConvergenceError(f"{kind}: estimate diverged (separation?)")
        return th

    def information(data):
        th = mle(data)
        eta = design @ th
        if kind == "poisson":
            w = np.exp(eta)
        else:
            p = special.expit(eta)
            w = p * (1.0 - p)
        return (design.T * w) @ design

    @_rowwise
    def sim_log_rel(theta, n, m, rng):
        eta = design @ theta
        if kind == "poisson":
            Y = rng.poisson(np.exp(eta), size=(m, n)).astype(float)
        else:
            Y = (rng.random((m, n)) < special.expit(eta)).astype(float)
        Th = _glm_mle_batch(design, Y, kind)
        out = _glm_loglik_batch(design, Y, theta[None, :], kind) - _glm_loglik_batch(
            design, Y, Th, kind
        )
        return out  # NaN rows (non-converged MLEs) are tie-counted downstream

    return ModelSpec(
        name=f"{kind}-loglinear" if kind == "poisson" else "logistic",
        dim=d,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        sim_log_rel_lik=sim_log_rel,
    )


def logistic_regression(design) -> ModelSpec:
    """Bernoulli responses with success probability expit(design @ theta)."""
    return _make_glm(design, "logistic")


def poisson_loglinear(design) -> ModelSpec:
    """Poisson responses with rate exp(design @ theta)."""
    return _make_glm(design, "poisson")


# ---------------------------------------------------------------------------
# multinomial frequencies
# ---------------------------------------------------------------------------


def multinomial(k: int) -> ModelSpec:
    def counts(data):
        return np.bincount(np.asarray(data.responses, dtype=int), minlength=k).astype(float)

    def _valid(theta):
        return (np.min(theta, axis=-1) >= 0.0) & (
            np.abs(np.sum(theta, axis=-1) - 1.0) <= 1e-8
        )

    def log_lik(data, theta):
        theta = np.asarray(theta, dtype=float)
        if not _valid(theta):
            return -np.inf
        return float(np.sum(special.xlogy(counts(data), theta)))

    def sample(theta, n, rng):
        return Dataset(responses=rng.choice(k, size=n, p=np.asarray(theta, dtype=float)))

    def mle(data):
        return counts(data) / data.n

    def information(data):
        p = mle(data)
        return data.n * np.diag(1.0 / p)

    def boundary(data):
        return bool((counts(data) == 0).any())

    def _log_rel_counts(x, n, theta):
        return np.sum(special.xlogy(x, theta) - special.xlogy(x, x / n), axis=-1)

    def log_rel_for(data):
        x, n = counts(data), data.n

        def log_rel(thetas):
            valid = _valid(thetas)
            safe = np.where(valid[:, None], thetas, 1.0 / k)
            return np.where(valid, _log_rel_counts(x, n, safe), -np.inf)

        return log_rel

    @_rowwise
    def sim_log_rel(theta, n, m, rng):
        x = rng.multinomial(n, theta, size=m).astype(float)
        return _log_rel_counts(x, n, theta)

    return ModelSpec(
        name="multinomial",
        dim=k,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        boundary_mle=boundary,
        log_rel_lik_for=log_rel_for,
        sim_log_rel_lik=sim_log_rel,
    )


# ---------------------------------------------------------------------------
# gamma: (shape, scale) and (shape, mean) parametrizations
# ---------------------------------------------------------------------------


def _gamma_shape_root(c):
    """Solve log(a) - digamma(a) = c (c > 0), vectorized Newton in log a."""
    c = np.asarray(c, dtype=float)
    c = np.maximum(c, 1e-12)
    # standard closed-form starting value
    a = (3.0 - c + np.sqrt((c - 3.0) ** 2 + 24.0 * c)) / (12.0 * c)
    a = np.maximum(a, 1e-8)
    u = np.log(a)
    for _ in range(50):
        a = np.exp(u)
        fv = np.log(a) - special.digamma(a) - c
        fp = 1.0 - special.polygamma(1, a) * a  # d/du of f(exp(u)); < 0
        du = fv / fp
        u = u - du
        if np.max(np.abs(du)) < 1e-13:
            break
    return np.exp(u)


def _gamma_ss_loglik_stats(t1, s, n, a, b):
    return (a - 1.0) * t1 - s / b - n * a * np.log(b) - n * special.gammaln(a)


def gamma_shape_scale() -> ModelSpec:
    def log_lik(data, theta):
        a, b = float(theta[0]), float(theta[1])
        if a <= 0.0 or b <= 0.0:
            return -np.inf
        x = np.asarray(data.responses, dtype=float)
        return float(_gamma_ss_loglik_stats(np.sum(np.log(x)), np.sum(x), data.n, a, b))

    def sample(theta, n, rng):
        return Dataset(responses=rng.gamma(float(theta[0]), float(theta[1]), size=n))

    def _c(data):
        x = np.asarray(data.responses, dtype=float)
        return float(np.log(np.mean(x)) - np.mean(np.log(x)))

    def mle(data):
        x = np.asarray(data.responses, dtype=float)
        a = float(_gamma_shape_root(_c(data)))
        return np.array([a, float(np.mean(x)) / a])

    def information(data):
        a, b = mle(data)
        s = float(np.sum(data.responses))
        n = data.n
        return np.array(
            [
                [n * special.polygamma(1, a), n / b],
                [n / b, 2.0 * s / b**3 - n * a / b**2],
            ]
        )

    def boundary(data):
        return _c(data) < 1e-12  # all observations (numerically) equal

    @_rowwise
    def sim_log_rel(theta, n, m, rng):
        a0, b0 = float(theta[0]), float(theta[1])
        x = rng.gamma(a0, b0, size=(m, n))
        t1 = np.sum(np.log(x), axis=1)
        s = np.sum(x, axis=1)
        c = np.log(s / n) - t1 / n
        ahat = _gamma_shape_root(c)
        bhat = s / n / ahat
        return _gamma_ss_loglik_stats(t1, s, n, a0, b0) - _gamma_ss_loglik_stats(
            t1, s, n, ahat, bhat
        )

    return ModelSpec(
        name="gamma",
        dim=2,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        boundary_mle=boundary,
        sim_log_rel_lik=sim_log_rel,
    )


def _gamma_ms_loglik_stats(t1, s, n, a, phi):
    return (
        (a - 1.0) * t1
        - a * s / phi
        - n * special.gammaln(a)
        - n * a * np.log(phi)
        + n * a * np.log(a)
    )


def gamma_mean_shape() -> ModelSpec:
    """Gamma with parameters (shape, mean); mean = shape * scale."""

    def log_lik(data, theta):
        a, phi = float(theta[0]), float(theta[1])
        if a <= 0.0 or phi <= 0.0:
            return -np.inf
        x = np.asarray(data.responses, dtype=float)
        return float(_gamma_ms_loglik_stats(np.sum(np.log(x)), np.sum(x), data.n, a, phi))

    def sample(theta, n, rng):
        a, phi = float(theta[0]), float(theta[1])
        return Dataset(responses=rng.gamma(a, phi / a, size=n))

    def mle(data):
        x = np.asarray(data.responses, dtype=float)
        c = float(np.log(np.mean(x)) - np.mean(np.log(x)))
        return np.array([float(_gamma_shape_root(c)), float(np.mean(x))])

    def information(data):
        a, phi = mle(data)
        s = float(np.sum(data.responses))
        n = data.n
        return np.array(
            [
                [n * (special.polygamma(1, a) - 1.0 / a), n / phi - s / phi**2],
                [n / phi - s / phi**2, 2.0 * a * s / phi**3 - n * a / phi**2],
            ]
        )

    def boundary(data):
        x = np.asarray(data.responses, dtype=float)
        return float(np.log(np.mean(x)) - np.mean(np.log(x))) < 1e-12

    @_rowwise
    def sim_log_rel(theta, n, m, rng):
        a0, phi0 = float(theta[0]), float(theta[1])
        x = rng.gamma(a0, phi0 / a0, size=(m, n))
        t1 = np.sum(np.log(x), axis=1)
        s = np.sum(x, axis=1)
        c = np.log(s / n) - t1 / n
        ahat = _gamma_shape_root(c)
        return _gamma_ms_loglik_stats(t1, s, n, a0, phi0) - _gamma_ms_loglik_stats(
            t1, s, n, ahat, s / n
        )

    return ModelSpec(
        name="gamma-mean-shape",
        dim=2,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        boundary_mle=boundary,
        sim_log_rel_lik=sim_log_rel,
    )


# ---------------------------------------------------------------------------
# many normal means (known sigma), optionally lasso-penalized
# ---------------------------------------------------------------------------


def soft_threshold(x, lam):
    """sign(x) * max(|x| - lam, 0), elementwise."""
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
    return float(out) if out.ndim == 0 else out


def normal_means(sigma: float) -> ModelSpec:
    sigma = float(sigma)

    def log_lik(data, theta):
        x = np.asarray(data.responses, dtype=float)
        theta = np.asarray(theta, dtype=float)
        return float(
            -0.5 * data.n * np.log(2 * np.pi * sigma**2)
            - np.sum((x - theta) ** 2) / (2 * sigma**2)
        )

    def sample(theta, n, rng):
        theta = np.asarray(theta, dtype=float)
        return Dataset(responses=rng.normal(theta, sigma, size=n))

    def mle(data):
        return np.asarray(data.responses, dtype=float).copy()

    def information(data):
        return np.eye(data.n) / sigma**2

    def sim_log_rel(thetas, n, m, rng):
        # log R = -|x - theta|^2 / (2 sigma^2) = -chi2_n / 2 at every theta
        return -0.5 * rng.chisquare(n, size=(np.shape(thetas)[0], int(m)))

    return ModelSpec(
        name="normal-means",
        dim=None,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        sim_log_rel_lik=sim_log_rel,
    )


def normal_means_lasso(sigma: float, lam: float) -> ModelSpec:
    """Normal means with an L1-penalized likelihood driving the contour.

    The penalized log-likelihood is -||x - theta||^2 / (2 sigma^2) -
    lam * ||theta||_1, whose exact maximizer is the soft-threshold estimate
    with shrinkage lam * sigma^2.  Sampling stays the plain normal model.
    """
    sigma = float(sigma)
    lam = float(lam)

    def _pen(x, theta, n):
        return (
            -0.5 * n * np.log(2 * np.pi * sigma**2)
            - np.sum((x - theta) ** 2, axis=-1) / (2 * sigma**2)
            - lam * np.sum(np.abs(theta), axis=-1)
        )

    def log_lik(data, theta):
        return float(_pen(np.asarray(data.responses, dtype=float),
                          np.asarray(theta, dtype=float), data.n))

    def sample(theta, n, rng):
        theta = np.asarray(theta, dtype=float)
        return Dataset(responses=rng.normal(theta, sigma, size=n))

    def mle(data):
        return soft_threshold(np.asarray(data.responses, dtype=float), lam * sigma**2)

    def information(data):
        return np.eye(data.n) / sigma**2

    def log_rel_for(data):
        x, n = np.asarray(data.responses, dtype=float), data.n
        pen_hat = _pen(x, mle(Dataset(responses=x)), n)

        def log_rel(thetas):
            return _pen(x, thetas, n) - pen_hat

        return log_rel

    @_rowwise
    def sim_log_rel(theta, n, m, rng):
        x = rng.normal(theta[None, :], sigma, size=(m, n))
        th_hat = soft_threshold(x, lam * sigma**2)
        return _pen(x, theta[None, :], n) - _pen(x, th_hat, n)

    return ModelSpec(
        name="normal-means-lasso",
        dim=None,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        log_rel_lik_for=log_rel_for,
        sim_log_rel_lik=sim_log_rel,
        meta={"sigma": sigma, "lam": lam},
    )


# ---------------------------------------------------------------------------
# log-normal, uncensored and left-censored
# ---------------------------------------------------------------------------


def lognormal() -> ModelSpec:
    """Log-normal with theta = (mean, variance) of log Y."""

    def log_lik(data, theta):
        mu, v = float(theta[0]), float(theta[1])
        if v <= 0.0:
            return -np.inf
        y = np.asarray(data.responses, dtype=float)
        w = np.log(y)
        return float(
            -np.sum(w)  # Jacobian of y -> log y
            - 0.5 * data.n * np.log(2 * np.pi * v)
            - np.sum((w - mu) ** 2) / (2 * v)
        )

    def sample(theta, n, rng):
        mu, v = float(theta[0]), float(theta[1])
        return Dataset(responses=np.exp(rng.normal(mu, np.sqrt(v), size=n)))

    def mle(data):
        w = np.log(np.asarray(data.responses, dtype=float))
        mu = float(np.mean(w))
        return np.array([mu, float(np.mean((w - mu) ** 2))])

    def information(data):
        w = np.log(np.asarray(data.responses, dtype=float))
        mu, v = mle(data)
        n = data.n
        return np.array(
            [
                [n / v, float(np.sum(w - mu)) / v**2],
                [float(np.sum(w - mu)) / v**2,
                 float(np.sum((w - mu) ** 2)) / v**3 - 0.5 * n / v**2],
            ]
        )

    def sim_log_rel(thetas, n, m, rng):
        thetas = np.asarray(thetas, dtype=float)
        mu0, v0 = thetas[:, :1], thetas[:, 1:2]
        shape = (thetas.shape[0], int(m))
        # the sufficient statistics of log Y are independent:
        # muhat ~ N(mu0, v0 / n) and n vhat ~ v0 chi2_{n-1}
        muh = rng.normal(mu0, np.sqrt(v0 / n), size=shape)
        vh = v0 * 2.0 * rng.standard_gamma(0.5 * (n - 1), size=shape) / n
        ll0 = -0.5 * n * np.log(v0) - (n * vh + n * (muh - mu0) ** 2) / (2 * v0)
        llh = -0.5 * n * np.log(vh) - 0.5 * n
        return ll0 - llh

    return ModelSpec(
        name="lognormal",
        dim=2,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        sim_log_rel_lik=sim_log_rel,
    )


@dataclass(frozen=True)
class _CensStats:
    """Per-row sufficient statistics of left-censored normal samples.

    For m rows: the count, mean and centred sum of squares of the exactly
    observed values, and an (m, K) matrix counting the censored slots at
    each of the K distinct censoring bounds (a row without exact
    observations has mean and sum of squares 0).
    """

    n_exact: np.ndarray  # (m,) ints
    mean: np.ndarray  # (m,)
    ss: np.ndarray  # (m,)
    counts: np.ndarray  # (m, K) ints
    bounds: np.ndarray  # (K,)

    @classmethod
    def build(cls, W, exact, idx, bounds):
        """Statistics of (m, n) values ``W``; slot (i, j) is exact where
        ``exact`` holds and censored at ``bounds[idx[i, j]]`` elsewhere."""
        m = W.shape[0]
        k = bounds.size
        n_exact = exact.sum(axis=1)
        mean = np.where(exact, W, 0.0).sum(axis=1) / np.maximum(n_exact, 1)
        ss = np.where(exact, (W - mean[:, None]) ** 2, 0.0).sum(axis=1)
        slots = (np.arange(m)[:, None] * k + idx)[~exact]
        counts = np.bincount(slots, minlength=m * k).reshape(m, k)
        return cls(n_exact, mean, ss, counts, bounds)

    @classmethod
    def from_slots(cls, W, T):
        """Statistics of (m, n) log-scale values with flags T (1 = exact,
        0 = censored at the value); the bounds are the distinct censored
        values."""
        W = np.atleast_2d(np.asarray(W, dtype=float))
        exact = np.broadcast_to(np.atleast_2d(T), W.shape) == 1
        bounds, inv = np.unique(W[~exact], return_inverse=True)
        idx = np.zeros(W.shape, dtype=np.intp)
        idx[~exact] = inv
        return cls.build(W, exact, idx, bounds)

    @classmethod
    def stack(cls, parts):
        """The rows of several statistics over the same bounds, in order."""
        return cls(*(np.concatenate([getattr(p, name) for p in parts])
                     for name in ("n_exact", "mean", "ss", "counts")),
                   parts[0].bounds)

    def take(self, rows):
        return _CensStats(self.n_exact[rows], self.mean[rows], self.ss[rows],
                          self.counts[rows], self.bounds)

    def censored_sum(self, x):
        """(m,) sums over the censored slots of x, an (m, K) array of
        per-bound values; bounds a row does not use contribute nothing."""
        return np.where(self.counts > 0, self.counts * x, 0.0).sum(axis=1)

    def mills(self, mu, sd):
        """Standardized bounds alpha and the inverse Mills ratio phi/Phi at
        them, both (m, K), for rows at (mu, sd) of shape (m,)."""
        alpha = (self.bounds - mu[:, None]) / sd[:, None]
        # stable in the deep lower tail
        r = np.exp(-0.5 * alpha * alpha - 0.5 * np.log(2 * np.pi)
                   - special.log_ndtr(alpha))
        return alpha, r


def _cens_normal_loglik(st: _CensStats, mu, v):
    """(m,) left-censored normal log-likelihoods (log scale, no Jacobian)
    of the rows of ``st`` at (mu, v), scalars or (m,) arrays."""
    mu = np.broadcast_to(np.asarray(mu, dtype=float), st.mean.shape)
    v = np.broadcast_to(np.asarray(v, dtype=float), st.mean.shape)
    z = (st.bounds - mu[:, None]) / np.sqrt(v)[:, None]
    dens = (-0.5 * st.n_exact * np.log(2 * np.pi * v)
            - (st.ss + st.n_exact * (st.mean - mu) ** 2) / (2 * v))
    return dens + st.censored_sum(special.log_ndtr(z))


def _cens_normal_mle(st: _CensStats, max_iter=600):
    """(m, 2) censored normal MLEs (mu, v) of the rows of ``st`` by EM.

    The E-step fills each censored slot with the first two moments of the
    normal truncated above at its bound; the M-step is the complete-data
    mean and variance.  EM is monotone in the likelihood, so it is robust
    to heavy censoring where a Newton iteration stalls.  A row leaves the
    iteration as soon as its own update is below the tolerance, so its MLE
    does not depend on the other rows.  Rows whose analytic score is not
    near zero at the end come back NaN.
    """
    ne = st.n_exact
    n = ne + st.counts.sum(axis=1)
    # start from the exact observations' mean and variance; where those
    # are undefined, from the mean and variance of all slots
    has = ne > 0
    v_exact = np.divide(st.ss, ne, out=np.full(ne.shape, np.nan), where=has)
    mean_all = (ne * st.mean + st.censored_sum(st.bounds)) / n
    var_all = (st.ss + ne * (st.mean - mean_all) ** 2
               + st.censored_sum((st.bounds - mean_all[:, None]) ** 2)) / n
    bad = ~has | ~np.isfinite(st.mean) | ~np.isfinite(v_exact)
    mu = np.where(bad, mean_all, st.mean)
    v = np.where(bad | (v_exact <= 1e-12), np.maximum(var_all, 1e-4), v_exact)

    act = np.arange(ne.size)  # rows still iterating, and their statistics
    s, n_a, mu_a, v_a = st, n, mu.copy(), v.copy()
    for _ in range(max_iter):
        if act.size == 0:
            break
        sd = np.sqrt(v_a)
        alpha, r = s.mills(mu_a, sd)
        ew = mu_a[:, None] - sd[:, None] * r
        var_trunc = np.maximum(v_a[:, None] * (1.0 - alpha * r - r * r), 0.0)
        mu_new = (s.n_exact * s.mean + s.censored_sum(ew)) / n_a
        v_new = np.maximum(
            (s.ss + s.n_exact * (s.mean - mu_new) ** 2
             + s.censored_sum(var_trunc + (ew - mu_new[:, None]) ** 2)) / n_a,
            1e-12,
        )
        done = (np.abs(mu_new - mu_a) < 1e-11 * (1.0 + np.abs(mu_a))) & (
            np.abs(v_new - v_a) < 1e-11 * (1.0 + v_a)
        )
        mu[act], v[act] = mu_new, v_new
        keep = ~done
        act, mu_a, v_a = act[keep], mu_new[keep], v_new[keep]
        if not keep.all():
            s, n_a = s.take(keep), n_a[keep]

    sd = np.sqrt(v)
    alpha, r = st.mills(mu, sd)
    d = st.mean - mu
    g1 = ne * d / v - st.censored_sum(r) / sd
    g2 = (st.ss + ne * d * d - ne * v) / (2 * v * v) - st.censored_sum(alpha * r) / (2 * v)
    ok = (np.abs(g1) < 1e-4 * n) & (np.abs(g2) < 1e-4 * n) & np.isfinite(mu) & (v > 1e-12)
    return np.column_stack([np.where(ok, mu, np.nan), np.where(ok, v, np.nan)])


def _lognormal_censored_sim(ghat):
    """Batch kernel of the left-censored log-normal for data pushed through
    Z = max(Y, C), T = 1(Y >= C), with censoring levels C drawn from ghat
    (``support`` and ``sampling_probs``, as a ``nuisance.CensoringEstimate``).

    Each row draws its latent log responses and then the censoring level
    indices, the stream ``ghat.sample`` draws, and every replicate is
    refitted from its sufficient statistics.  An EM iteration evaluates the
    special functions once per replicate and censoring level, so at most
    m n times when the levels are the data's distinct censored values.  A
    fully censored replicate has likelihood supremum exactly 1 (every CDF
    factor tends to 1 as the location drops), so its log relative
    likelihood needs no refit.  An estimate with no mass raises when the
    kernel runs.
    """

    def sim(thetas, n, m, rng):
        thetas = np.asarray(thetas, dtype=float)
        n, m = int(n), int(m)
        probs = ghat.sampling_probs
        bounds = np.log(ghat.support)
        parts = []  # only one row's (m, n) draws are held at a time
        for mu, v in thetas[:, :2]:
            if not np.isfinite(mu) or not v > 0.0:
                raise ValueError("invalid log-normal parameter")
            w = rng.normal(mu, np.sqrt(v), size=(m, n))
            idx = rng.choice(bounds.size, size=(m, n), p=probs)
            parts.append(_CensStats.build(w, w >= bounds[idx], idx, bounds))
        st = _CensStats.stack(parts)
        ll = _cens_normal_loglik(st, np.repeat(thetas[:, 0], m),
                                 np.repeat(thetas[:, 1], m))
        fit = np.nonzero(st.n_exact > 0)[0]
        if fit.size:
            sub = st.take(fit)
            hat = _cens_normal_mle(sub)
            ll[fit] -= _cens_normal_loglik(sub, hat[:, 0], hat[:, 1])
        return ll.reshape(thetas.shape[0], m)

    return sim


def lognormal_censored() -> ModelSpec:
    """Left-censored log-normal: censor flag 1 = exact, 0 = response is a bound.

    The model's own sampler draws uncensored responses (flag identically 1);
    censoring is injected by the caller, which owns the censoring
    distribution, through the ``censored_sim`` hook.
    """

    def _parts(data):
        if data.censor is None:
            t = np.ones(data.n, dtype=int)
        else:
            t = data.censor
        return np.log(np.asarray(data.responses, dtype=float)), t

    def log_lik(data, theta):
        mu, v = float(theta[0]), float(theta[1])
        if v <= 0.0:
            return -np.inf
        w, t = _parts(data)
        jac = -float(np.sum(w[t == 1]))  # d log y for exact observations only
        return float(_cens_normal_loglik(_CensStats.from_slots(w, t), mu, v)[0]) + jac

    def sample(theta, n, rng):
        mu, v = float(theta[0]), float(theta[1])
        y = np.exp(rng.normal(mu, np.sqrt(v), size=n))
        return Dataset(responses=y, censor=np.ones(n, dtype=int))

    def mle(data):
        w, t = _parts(data)
        st = _CensStats.from_slots(w, t)
        th = _cens_normal_mle(st)[0]
        if np.isnan(th).any():
            th = _simplex_fallback(
                lambda p: float(_cens_normal_loglik(st, p[0], np.exp(p[1]))[0]),
                np.array([np.mean(w), np.log(np.var(w) + 1e-4)]),
            )
            th = np.array([th[0], np.exp(th[1])])
        return th

    def information(data):
        return finite_difference_information(spec, data, mle(data))

    def boundary(data):
        _, t = _parts(data)
        return int(np.sum(t)) == 0  # nothing exactly observed

    spec = ModelSpec(
        name="lognormal-censored",
        dim=2,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        boundary_mle=boundary,
        # the model's own sampler draws uncensored log-normal responses
        sim_log_rel_lik=lognormal().sim_log_rel_lik,
        censored_sim=_lognormal_censored_sim,
    )
    return spec


# ---------------------------------------------------------------------------
# log reparametrization wrapper
# ---------------------------------------------------------------------------


def log_reparam(base: ModelSpec, indices=None) -> ModelSpec:
    """Work with eta_i = log(theta_i) on the given coordinates (all by
    default) of a model whose corresponding parameters are positive.

    The likelihood is invariant under the reparametrization, so relative
    likelihoods and simulated contour values carry over; the observed
    information transforms as D J D with D diagonal, D_ii = theta_i on
    logged coordinates and 1 elsewhere.
    """
    if base.dim is None:
        raise ValueError("log_reparam requires a model of fixed dimension")
    logged = np.zeros(base.dim, dtype=bool)
    logged[list(range(base.dim)) if indices is None else list(indices)] = True

    def _to_theta(eta):
        """theta for points eta of shape (..., d), and which points are far
        out: beyond 690 on a logged coordinate, exp overflows or underflows
        to 0, so the likelihood is read as 0 there."""
        eta = np.asarray(eta, dtype=float)
        far = np.max(np.abs(eta[..., logged]), axis=-1, initial=0.0) > 690.0
        theta = eta.copy()
        theta[..., logged] = np.exp(np.clip(eta[..., logged], -690.0, 690.0))
        return theta, far

    def _to_eta(theta):
        theta = np.asarray(theta, dtype=float).copy()
        if np.any(theta[logged] <= 0.0):
            raise DegenerateMLEError(
                "log reparametrization needs positive MLE coordinates"
            )
        theta[logged] = np.log(theta[logged])
        return theta

    def log_lik(data, eta):
        theta, far = _to_theta(eta)
        return -np.inf if far else base.log_lik(data, theta)

    def sample(eta, n, rng):
        theta, far = _to_theta(eta)
        if far:
            raise ValueError("log_reparam: cannot sample beyond |eta| = 690")
        return base.sample(theta, n, rng)

    def mle(data):
        return _to_eta(base.mle(data))

    def information(data):
        theta = np.asarray(base.mle(data), dtype=float)
        d = np.where(logged, theta, 1.0)
        D = np.diag(d)
        return D @ np.atleast_2d(np.asarray(base.information(data), dtype=float)) @ D

    log_rel_for = None
    if base.log_rel_lik_for is not None:
        def log_rel_for(data):  # noqa: F811
            base_log_rel = base.log_rel_lik_for(data)

            def log_rel(etas):
                thetas, far = _to_theta(etas)
                return np.where(far, -np.inf, base_log_rel(thetas))

            return log_rel

    def on_domain(kernel):
        def sim(etas, n, m, rng):
            # the base kernel gets the whole batch of points on the domain
            thetas, far = _to_theta(etas)
            out = np.full((thetas.shape[0], int(m)), -np.inf)
            if not far.all():
                out[~far] = kernel(thetas[~far], n, m, rng)
            return out

        return sim

    sim = None
    if base.sim_log_rel_lik is not None:
        sim = on_domain(base.sim_log_rel_lik)
    censored_sim = None
    if base.censored_sim is not None:
        def censored_sim(ghat):  # noqa: F811
            return on_domain(base.censored_sim(ghat))

    return dataclasses.replace(
        base,
        name=base.name + "-log",
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        log_rel_lik_for=log_rel_for,
        sim_log_rel_lik=sim,
        censored_sim=censored_sim,
        meta=dict(base.meta, reparam_base=base.name,
                  reparam_log_indices=[int(i) for i in np.where(logged)[0]]),
    )
