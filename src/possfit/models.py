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
    consume the random stream the way ``sample`` does.  ``rng`` is one
    Generator or a list of one per row, where rows sharing one are
    consecutive, a run (:func:`_runs`); the result equals, bit for bit, one
    call per run on its Generator, concatenated.  The binomial, bvn,
    multinomial, normal-means, log-normal and censored kernels draw run by
    run and compute the call at once.  Kernels whose arithmetic couples
    the rows of a call make one call per run (:func:`_run_by_run`): the
    GLMs' batched Newton refit stops on the batch's largest score, the
    gamma kernels' shape root on its largest step, and the lasso kernel
    draws one term per distinct (coordinate, value) pair of the batch,
    shared by the rows that hold it.  The engine bounds the datasets
    of one call, and so a kernel's memory, unless the model declares
    ``sim_whole_batch``: its kernel shares draws across rows and bounds its
    own memory, so the engine passes it every live row at once (the
    lasso).  Without a kernel the engine falls back to a per-dataset loop
    through ``sample``/``mle``.

A model may also declare ``censored_sim(ghat)``, which maps an estimated
censoring distribution to a kernel of the same contract for data pushed
through left censoring at levels drawn from ``ghat``;
``nuisance.censored_model`` installs it in place of the uncensored kernel.

A model whose contour has a closed form declares it:

``exact_contour_for(data)``
    a function mapping a ``(k, d)`` array of parameter points to the
    ``(k,)`` exact contour values of the observed data, 0 off the domain.
    The ``exact`` and ``naive`` contour methods use it in place of Monte
    Carlo, which would only add noise around it (the binomial declares
    its enumeration).

A model in other coordinates is its base model wrapped by ``_reparam``,
which carries every hook over (:func:`log_reparam`, :func:`gamma_mean_shape`).

Conventions: a model states its parameter space once, as
``domain(thetas)``, which maps a ``(k, d)`` array to a ``(k,)`` bool mask
and a short description of the rule (every finite point by default).
``log_lik`` returns ``-inf`` off it, :func:`observed_log_rel_lik` gives
``-inf`` and :func:`where_on_domain` the caller's value there without
calling the model's hooks, and the Monte Carlo engine simulates only rows
whose observed value is finite.  So kernels and samplers only ever see
finite points on the domain and check nothing.  ``mle`` returns the
likelihood-supremum point even when it sits on the domain boundary, and
:func:`mle_and_information` is the operation that rejects boundary cases.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special

__all__ = [
    "Dataset",
    "ModelSpec",
    "DegenerateMLEError",
    "MLEConvergenceError",
    "SingularInformationError",
    "log_relative_likelihood",
    "observed_log_rel_lik",
    "where_on_domain",
    "domain_violation",
    "mle_and_information",
    "finite_difference_information",
    "soft_threshold",
    "TIE_EPS",
    "exact_binomial_contour",
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


TIE_EPS = 1e-9  # log-scale slack for the inclusive tie rule


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
    """Observed data: responses and optional censor flags; a regression's
    design belongs to its model (``poisson_loglinear(design)``), not here.

    ``responses`` is an (n,) vector, or an (n, 2) array for paired-response
    models.  ``censor`` entries are 1 for an exactly observed response and 0
    for a censored one.
    """

    responses: np.ndarray
    censor: Optional[np.ndarray] = None

    def __post_init__(self):
        self.responses = np.asarray(self.responses)
        if not np.issubdtype(self.responses.dtype, np.number):
            raise ValueError(f"responses must be numbers, got dtype {self.responses.dtype}")
        if self.responses.ndim not in (1, 2):
            raise ValueError("responses must be a vector or an (n, k) array")
        n = self.responses.shape[0]
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


def read_dataset_csv(path, response, censor=None) -> Dataset:
    """Load a Dataset from a headered CSV file.

    ``response`` is a column name, or a sequence of names for paired
    responses; ``censor`` an optional 0/1 column name.
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
    cen = column(censor).astype(int) if censor else None
    return Dataset(responses=resp, censor=cen)


# ---------------------------------------------------------------------------
# model specification
# ---------------------------------------------------------------------------


def _finite(thetas):
    """The default domain: every finite point."""
    return np.all(np.isfinite(thetas), axis=1), "finite coordinates"


def _inside(domain, theta) -> bool:
    """Whether one point lies in a domain function's mask."""
    return bool(domain(np.asarray(theta, dtype=float).reshape(1, -1))[0][0])


def _finite_responses(responses):
    """The default sample space: every finite response."""
    return bool(np.all(np.isfinite(responses))), "finite responses"


def _binary(responses):
    return bool(np.all(np.isin(responses, (0, 1)))), "responses 0 or 1"


def _counts(responses):
    ok = np.isfinite(responses) & (responses >= 0) & (responses == np.floor(responses))
    return bool(np.all(ok)), "nonnegative integer responses"


def _positive(responses):
    return bool(np.all(np.isfinite(responses) & (responses > 0))), "finite positive responses"


def _finite_pairs(responses):
    ok = responses.ndim == 2 and responses.shape[1] == 2 and np.all(np.isfinite(responses))
    return bool(ok), "an (n, 2) array of finite response pairs"


@dataclass(frozen=True)
class ModelSpec:
    """A parametric model as the contour machinery sees it.

    ``domain(thetas) -> (mask, rule)`` says which parameter points the model
    takes and ``support(responses) -> (ok, rule)`` whether a dataset's
    responses lie in its sample space, each with a description of the rule.
    """

    name: str
    dim: Optional[int]  # None: parameter dimension equals the sample size
    log_lik: Callable[[Dataset, np.ndarray], float]
    sample: Callable[[np.ndarray, int, np.random.Generator], Dataset]
    mle: Callable[[Dataset], np.ndarray]
    information: Callable[[Dataset], np.ndarray]
    domain: Callable[[np.ndarray], tuple] = _finite
    support: Callable[[np.ndarray], tuple] = _finite_responses
    boundary_mle: Optional[Callable[[Dataset], bool]] = None
    log_rel_lik_for: Optional[
        Callable[[Dataset], Callable[[np.ndarray], np.ndarray]]
    ] = None
    sim_log_rel_lik: Optional[  # rng: a Generator, or a list of one per row
        Callable[[np.ndarray, int, int, object], np.ndarray]
    ] = None
    censored_sim: Optional[
        Callable[[object], Callable[[np.ndarray, int, int, object], np.ndarray]]
    ] = None
    exact_contour_for: Optional[
        Callable[[Dataset], Callable[[np.ndarray], np.ndarray]]
    ] = None
    sim_whole_batch: bool = False


def _runs(rng, k: int) -> list:
    """(rows, Generator) of each run of a kernel call on k rows: the one
    Generator, or each stretch of rows that share one in a list of k."""
    if not isinstance(rng, list):
        return [(slice(0, k), rng)]
    starts = [i for i in range(k) if i == 0 or rng[i] is not rng[i - 1]]
    return [(slice(a, b), rng[a]) for a, b in zip(starts, starts[1:] + [k])]


def _draws(rng, rows, m: int, draw):
    """The draws ``draw(g, rows[run], (run length, m))``, a tuple of arrays,
    of each run of a call on ``rng``, stacked over the runs in row order."""
    parts = [draw(g, rows[run], (run.stop - run.start, int(m)))
             for run, g in _runs(rng, len(rows))]
    return parts[0] if len(parts) == 1 else [np.concatenate(d) for d in zip(*parts)]


def _run_by_run(kernel):
    """A kernel whose arithmetic couples the rows of a call, called once
    per run, so that each run's values are those of its own call."""
    return lambda thetas, n, m, rng: _draws(
        rng, np.asarray(thetas, dtype=float), m, lambda g, th, _: (kernel(th, n, m, g),))[0]


def where_on_domain(model: ModelSpec, fn, thetas, off: float) -> np.ndarray:
    """(k,) values of ``fn`` at the rows of a (k, d) array that are finite
    and on the model's domain, and ``off`` at the others, where ``fn`` is
    not called."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    inside = np.all(np.isfinite(thetas), axis=1) & model.domain(thetas)[0]
    out = np.full(thetas.shape[0], float(off))
    if inside.any():
        out[inside] = fn(thetas[inside])
    return out


def domain_violation(model: ModelSpec, theta, n: Optional[int] = None) -> Optional[str]:
    """What a single parameter point lacks to be usable with the model, or
    None: ``model.dim`` coordinates (``n`` for a model whose dimension is
    the sample size), all finite, on the model's domain."""
    theta = np.asarray(theta, dtype=float).ravel()
    size = model.dim if model.dim is not None else n
    if size is not None and theta.size != size:
        return f"a point of dimension {size}, got {theta.size}"
    if not np.all(np.isfinite(theta)):
        return "finite coordinates"
    inside, rule = model.domain(theta[None, :])
    return None if inside[0] else rule


def observed_log_rel_lik(
    model: ModelSpec, data: Dataset
) -> Callable[[np.ndarray], np.ndarray]:
    """(k, d) points -> (k,) log of L(theta)/L(thetahat) for fixed data;
    -inf off the domain, where nothing is computed.

    What depends on the data alone is computed once, for every theta the
    returned function sees.  Without a ``log_rel_lik_for`` hook each row
    goes through ``log_lik``, and the maximized log-likelihood is computed
    on first use, and only for a finite log-likelihood; a failing ``mle``
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

    def on_domain(thetas) -> np.ndarray:
        # far out, log-likelihoods overflow to -inf or inf - inf; both are
        # read as a relative likelihood of 0 below
        with np.errstate(over="ignore", invalid="ignore"):
            val = np.asarray(raw(thetas), dtype=float)
        return np.minimum(np.where(np.isnan(val), -np.inf, val), 0.0)

    return lambda thetas: where_on_domain(model, on_domain, thetas, -np.inf)


def log_relative_likelihood(model: ModelSpec, data: Dataset, theta) -> float:
    """log of L(theta)/L(thetahat); -inf when theta is off the domain."""
    point = np.asarray(theta, dtype=float).ravel()[None, :]
    return float(observed_log_rel_lik(model, data)(point)[0])


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


def _simplex_fallback(loglik, x0):
    from scipy import optimize

    res = optimize.minimize(lambda t: -loglik(t), x0, method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-12,
                                     "maxiter": 4000})
    if not res.success:
        raise MLEConvergenceError(f"simplex search failed: {res.message}")
    return res.x


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


def exact_binomial_contour(n: int, s_obs: int, theta):
    """P_theta{R(S, theta) <= R(s_obs, theta)} for S ~ binomial(n, theta).

    Exact by enumeration of the n+1 support points, vectorized over theta.
    Values of theta outside [0, 1] give 0.
    """
    n = int(n)
    s_obs = int(s_obs)
    if not 0 <= s_obs <= n:
        raise ValueError("s_obs must lie in {0, ..., n}")
    scalar = np.ndim(theta) == 0
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    valid = (th >= 0.0) & (th <= 1.0)
    tv = np.where(valid, th, 0.5)  # placeholder to keep the math NaN-free

    s = np.arange(n + 1, dtype=float)[:, None]
    # log R(s; theta), rows over s, columns over theta
    logrel = _binom_log_rel(s, n, tv[None, :])
    cutoff = logrel[s_obs]
    include = logrel <= cutoff[None, :] + TIE_EPS
    pmf = np.exp(_binom_log_pmf(s, n, logrel))
    vals = np.sum(pmf * include, axis=0)
    vals = np.where(valid, np.minimum(vals, 1.0), 0.0)
    return float(vals[0]) if scalar else vals


def _unit_interval(thetas):
    t = thetas[:, 0]
    return (t >= 0.0) & (t <= 1.0), "a success probability in [0, 1]"


def binomial() -> ModelSpec:
    def log_lik(data, theta):
        if not _inside(_unit_interval, theta):
            return -np.inf
        t = float(theta[0])
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

        return lambda thetas: _binom_log_rel(s, n, thetas[:, 0])

    def sim_log_rel(thetas, n, m, rng):
        t = np.asarray(thetas, dtype=float)[:, :1]
        # log R takes only the n + 1 values of the count, so draw how many of
        # the m datasets land on each: the values are then exactly as
        # distributed as m iid draws, listed in count order
        s = np.arange(n + 1, dtype=float)
        table = _binom_log_rel(s, n, t)
        pmf = np.exp(_binom_log_pmf(s, n, table))
        counts, = _draws(rng, pmf / pmf.sum(axis=1, keepdims=True), m,
                         lambda g, p, size: (g.multinomial(int(m), p),))
        return np.repeat(table.ravel(), counts.ravel()).reshape(t.shape[0], int(m))

    def exact_for(data):
        s, n = int(np.sum(data.responses)), data.n
        return lambda thetas: exact_binomial_contour(n, s, thetas[:, 0])

    return ModelSpec(
        name="binomial",
        dim=1,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        domain=_unit_interval,
        support=_binary,
        boundary_mle=boundary,
        log_rel_lik_for=log_rel_for,
        sim_log_rel_lik=sim_log_rel,
        exact_contour_for=exact_for,
    )


# ---------------------------------------------------------------------------
# bivariate normal correlation
# ---------------------------------------------------------------------------


def _bvn_stats(responses):
    x1, x2 = responses[..., 0], responses[..., 1]
    return np.sum(x1 * x1 + x2 * x2, axis=-1), np.sum(x1 * x2, axis=-1)


def _bvn_loglik_stats(a, b, n, rho):
    # a = sum(x1^2 + x2^2), b = sum(x1 x2); |rho| < 1
    one = 1.0 - rho * rho
    return -n * np.log(2 * np.pi) - 0.5 * n * np.log(one) - (a - 2 * rho * b) / (2 * one)


def _bvn_score_roots(c2, p, q):
    """Trigonometric roots of the score cubic n r^3 - b r^2 + (a - n) r - b, as (k, 3).

    Only for rows with three real roots (disc <= 0, hence p <= 0).  Written on
    the depressed cubic t^3 + p t + q, r = t - c2 / 3, with c2 = -b / n.  The
    triple root of p = q = 0 (b = 0, a = n) is the h = 0 case.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.sqrt(np.maximum(-p / 3.0, 0.0))
        phi = np.arccos(np.clip(np.where(h > 0.0, -q / (2.0 * h**3), 0.0), -1.0, 1.0))
        three = 2.0 * h[:, None] * np.cos(
            (phi[:, None] - 2.0 * np.pi * np.arange(3)) / 3.0
        )
    return three - (c2 / 3.0)[:, None]


def _bvn_mle_from_stats(a, b, n):
    """Vectorized MLE of the correlation: the likelihood's best real score root.

    The score equation is n r^3 - b r^2 + (a - n) r - b = 0; the root in
    (-1, 1) maximizing the likelihood is the MLE (the likelihood decreases
    into both endpoints, so an interior maximizer always exists).  A row with
    one real root (disc > 0, or NaN) takes Cardano's root; only the rows with
    disc <= 0 take the trigonometric roots and the likelihood argmax over them.
    One function serves observed and simulated data, so ties at the MLE are
    exact.  The cube of c2 is a product, not ``c2**3``: IEEE products give
    the same bits on every CPU and cost a tenth of numpy's ``power``, which
    sends negative bases to scalar libm ``pow``.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    c2, c1 = -b / n, (a - n) / n  # monic coefficients; c0 = c2
    p = c1 - c2 * c2 / 3.0
    q = (2.0 * (c2 * c2 * c2) - 9.0 * c2 * c1 + 27.0 * c2) / 27.0
    disc = q * q / 4.0 + p**3 / 27.0
    three = disc <= 0.0
    any_three = three.any()
    # NaN rows take Cardano's root; an all-one-root batch is not copied out
    one = ~three if any_three else slice(None)
    lo, hi = -1.0 + 1e-10, 1.0 - 1e-10
    rhat = np.empty_like(a)
    # disc > 0, so u != 0; the sign choice keeps u free of cancellation
    u = np.cbrt(-q[one] / 2.0 - np.copysign(np.sqrt(disc[one]), q[one]))
    rhat[one] = np.clip(u - p[one] / (3.0 * u) - c2[one] / 3.0, lo, hi)
    if any_three:
        cand = np.clip(_bvn_score_roots(c2[three], p[three], q[three]), lo, hi)
        ll = _bvn_loglik_stats(a[three, None], b[three, None], n, cand)
        rhat[three] = cand[np.arange(cand.shape[0]), np.argmax(ll, axis=1)]
    return rhat


def _open_correlation(thetas):
    return np.abs(thetas[:, 0]) < 1.0, "a correlation strictly inside (-1, 1)"


def bvn_correlation() -> ModelSpec:
    def log_lik(data, theta):
        if not _inside(_open_correlation, theta):
            return -np.inf
        a, b = _bvn_stats(np.asarray(data.responses, dtype=float))
        return float(_bvn_loglik_stats(a, b, data.n, float(theta[0])))

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
        # sum x x^T ~ Wishart_2(n, Sigma(r)), drawn by the Bartlett
        # decomposition: sum x x^T = (L B)(L B)^T with L = chol Sigma(r) and
        # B lower triangular, B11^2 ~ chi2_n, B22^2 ~ chi2_{n-1}, B21 ~ N(0, 1)
        b11_sq, b22_sq, b21 = _draws(rng, r, m, lambda g, _, size: (
            g.chisquare(n, size=size),
            2.0 * g.standard_gamma(0.5 * (n - 1), size=size),  # 0 at n = 1
            g.standard_normal(size)))
        s = np.sqrt(1.0 - r * r)
        b11 = np.sqrt(b11_sq)
        lb21 = r * b11 + s * b21
        a = b11_sq + lb21 * lb21 + s * s * b22_sq
        b = b11 * lb21
        rhat = _bvn_mle_from_stats(a.ravel(), b.ravel(), n).reshape(shape)
        return _bvn_loglik_stats(a, b, n, r) - _bvn_loglik_stats(a, b, n, rhat)

    def log_rel_for(data):
        n = data.n
        a, b = _bvn_stats(np.asarray(data.responses, dtype=float))
        ll_hat = _bvn_loglik_stats(a, b, n, float(_bvn_mle_from_stats(a, b, n)[0]))

        return lambda thetas: _bvn_loglik_stats(a, b, n, thetas[:, 0]) - ll_hat

    spec = ModelSpec(
        name="bvn-correlation",
        dim=1,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        domain=_open_correlation,
        support=_finite_pairs,
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


def _glm_recession(design, y, kind) -> bool:
    """Whether the log-likelihood of responses y has a direction of
    recession d, along which it never decreases, so that its supremum lies
    at infinity and no MLE exists (Geyer 2009, EJS 3:259).

    Such a d has z_i . d >= 0 for the rows z_i of Z and E d = 0: for the
    logistic, Z = (2y - 1) x (complete or quasi-complete separation); for
    the Poisson, Z = -x over the zero counts and E = x over the positive
    ones.  On a design of full column rank one exists exactly when the LP
    max sum_i z_i . d over the box |d_j| <= 1 is positive.
    """
    from scipy import optimize

    if kind == "poisson":
        zero = y == 0
        if not zero.any():
            return False
        Z, E = -design[zero], design[~zero]
    else:
        Z, E = (2.0 * y - 1.0)[:, None] * design, design[:0]
    res = optimize.linprog(-Z.sum(axis=0), A_ub=-Z, b_ub=np.zeros(len(Z)), A_eq=E,
                           b_eq=np.zeros(len(E)), bounds=(-1.0, 1.0), method="highs")
    return bool(res.status == 0 and -res.fun > 1e-7 * (1.0 + np.abs(Z).sum()))


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
        return Dataset(responses=y)

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

    def boundary(data):
        return _glm_recession(design, np.asarray(data.responses, dtype=float), kind)

    def sim_log_rel(thetas, n, m, rng):
        thetas = np.asarray(thetas, dtype=float)
        k, m = thetas.shape[0], int(m)
        eta = (thetas @ design.T)[:, None, :]
        if kind == "poisson":
            Y = rng.poisson(np.exp(eta), size=(k, m, n)).astype(float)
        else:
            Y = (rng.random((k, m, n)) < special.expit(eta)).astype(float)
        Y = Y.reshape(k * m, n)
        Th = _glm_mle_batch(design, Y, kind)
        out = _glm_loglik_batch(design, Y, np.repeat(thetas, m, axis=0), kind) - (
            _glm_loglik_batch(design, Y, Th, kind))
        return out.reshape(k, m)  # NaN (non-converged MLEs) is tie-counted downstream

    return ModelSpec(
        name=f"{kind}-loglinear" if kind == "poisson" else "logistic",
        dim=d,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        support=_counts if kind == "poisson" else _binary,
        boundary_mle=boundary,
        sim_log_rel_lik=_run_by_run(sim_log_rel),
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


def _simplex(thetas):
    inside = (np.min(thetas, axis=1) >= 0.0) & (np.abs(np.sum(thetas, axis=1) - 1.0) <= 1e-8)
    return inside, "probabilities that are >= 0 and sum to 1"


def multinomial(k: int) -> ModelSpec:
    def counts(data):
        y = np.asarray(data.responses, dtype=float)
        if not np.all((y == np.floor(y)) & (y >= 0) & (y < k)):
            raise ValueError(f"multinomial labels must be integers in 0..{k - 1}")
        return np.bincount(y.astype(int), minlength=k).astype(float)

    def log_lik(data, theta):
        if not _inside(_simplex, theta):
            return -np.inf
        return float(np.sum(special.xlogy(counts(data), np.asarray(theta, dtype=float))))

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
        return lambda thetas: _log_rel_counts(x, n, thetas)

    def sim_log_rel(thetas, n, m, rng):
        thetas = np.asarray(thetas, dtype=float)[:, None, :]
        x, = _draws(rng, thetas, m, lambda g, th, size: (g.multinomial(n, th, size=size),))
        return _log_rel_counts(x.astype(float), n, thetas)

    return ModelSpec(
        name="multinomial",
        dim=k,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        domain=_simplex,
        boundary_mle=boundary,
        log_rel_lik_for=log_rel_for,
        sim_log_rel_lik=sim_log_rel,
    )


# ---------------------------------------------------------------------------
# gamma: (shape, scale) and (shape, mean) parametrizations
# ---------------------------------------------------------------------------


# above this c the shape root lies below 1e-6, where Newton's derivative
# overflows; there 1/a = c - log a + digamma(1 + a) is a fast contraction
_TINY_SHAPE_C = 1e6


def _gamma_shape_root(c, scale=1.0):
    """Solve log(a) - digamma(a) = c (c > 0), vectorized Newton in log a;
    by fixed-point iteration for c > _TINY_SHAPE_C.  Given ``scale`` (which
    broadcasts to c) the argument is scale * c and the fixed point runs on
    a / scale, so a c that overflows at a tiny scale is never formed."""
    c = np.maximum(np.asarray(c, dtype=float), 1e-12 * scale)
    tiny = c > _TINY_SHAPE_C * scale
    if tiny.any() or np.any(scale != 1.0):
        scale = np.broadcast_to(scale, c.shape)
        out = np.empty_like(c)
        out[~tiny] = _gamma_shape_root(c[~tiny] / scale[~tiny])
        ct, st = c[tiny], scale[tiny]
        r = 1.0 / ct
        for _ in range(4):  # contracts by a factor of about a per step
            r = 1.0 / (ct - st * np.log(st * r) + st * special.digamma(1.0 + st * r))
        out[tiny] = st * r
        return out
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
        if np.max(np.abs(du), initial=0.0) < 1e-13:
            break
    return np.exp(u)


def _gamma_ss_loglik_stats(t1, s, n, a, b):
    return (a - 1.0) * t1 - s / b - n * a * np.log(b) - n * special.gammaln(a)


def _standard_gammas(shapes, m, n, rng):
    """(k, m, n) standard gamma draws at the k shapes in row order; a draw
    per row streams as one broadcast draw does, a third faster in numpy."""
    x = np.empty((np.size(shapes), int(m), int(n)))
    for row, a in zip(x, np.ravel(shapes)):
        rng.standard_gamma(a, size=row.shape, out=row)
    return x


def _scaled_log_gammas(a, m, n, rng):
    """(k, m, n) draws of a log x, x ~ Gamma(a) at scale 1, for the k
    shapes a < 1 of a (k, 1) array, in row order: a log x = a log Y - E with
    Y ~ Gamma(a + 1) and E ~ Exp(1) (Liu, Martin & Syring 2017), since a
    gamma draw at a tiny shape underflows to 0."""
    y = _standard_gammas(a + 1.0, m, n, rng)
    return a[..., None] * np.log(y) - rng.standard_exponential(size=y.shape)


def _gamma_sim_log_rel(thetas, n, m, rng):
    """Batch kernel of both gamma models: log R of m gamma samples of size n
    drawn at each row, whose first column is the shape a0, against each
    sample's MLE, as a (k, m) array.

    log R does not depend on the scale (the MLE scale is equivariant), so
    the samples are drawn at scale 1.  Rows at shape 1 and more draw x
    itself.  Rows below shape 1 are a second group, drawn after the first
    on the log scale (:func:`_scaled_log_gammas`); log(sum x) is then a
    logsumexp.  Near the smallest normal shape log x and its sum overflow,
    so that group forms v = a0 log x and a0 c (c = log mean x - mean log
    x).  With the MLE scale written on the log scale (s / b_hat = n a_hat,
    log b_hat = log(s/n) - log a_hat) the sum-of-logs terms of the two
    log-likelihoods cancel before they are formed, so log R stays finite at
    any positive shape.
    """
    a0 = np.asarray(thetas, dtype=float)[:, 0]
    out = np.empty((a0.size, int(m)))
    big = a0 >= 1.0
    if big.any():
        a = a0[big, None]
        x = _standard_gammas(a, m, n, rng)
        t1 = np.sum(np.log(x), axis=2)
        s = np.sum(x, axis=2)
        log_mean = np.log(s / n)
        ahat = _gamma_shape_root(log_mean - t1 / n)
        out[big] = (
            (a - ahat) * t1 - s + n * ahat * (1.0 + log_mean - np.log(ahat))
            - n * (special.gammaln(a) - special.gammaln(ahat))
        )
    if not big.all():
        a = a0[~big, None]
        v = _scaled_log_gammas(a, m, n, rng)
        top = np.max(v, axis=2)
        # terms below e^-800 of the largest x vanish from the sum either way
        z = np.maximum(v - top[..., None], -800.0 * a[..., None]) / a[..., None]
        a0_log_mean = top + a * (np.log(np.sum(np.exp(z), axis=2)) - np.log(n))
        a0c = a0_log_mean - np.mean(v, axis=2)
        ahat = _gamma_shape_root(a0c, a)
        out[~big] = (
            n * a0_log_mean - n * a0c * (1.0 - ahat / a)
            - n * np.exp(np.maximum(a0_log_mean, -800.0 * a) / a)
            + n * ahat * (1.0 - np.log(ahat))
            - n * (special.gammaln(a) - special.gammaln(ahat))
        )
    return out


def _positive_pair(thetas):
    return np.all(thetas[:, :2] > 0.0, axis=1), "two strictly positive parameters"


def gamma_shape_scale() -> ModelSpec:
    def log_lik(data, theta):
        if not _inside(_positive_pair, theta):
            return -np.inf
        a, b = float(theta[0]), float(theta[1])
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

    return ModelSpec(
        name="gamma",
        dim=2,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        domain=_positive_pair,
        support=_positive,
        boundary_mle=boundary,
        sim_log_rel_lik=_run_by_run(_gamma_sim_log_rel),
    )


def gamma_mean_shape() -> ModelSpec:
    """Gamma with parameters (shape, mean): :func:`gamma_shape_scale` at
    (a, mean / a)."""
    return _reparam(
        gamma_shape_scale(), "gamma-mean-shape",
        lambda eta: np.stack([eta[..., 0], eta[..., 1] / eta[..., 0]], axis=-1),
        lambda theta: np.array([theta[0], theta[0] * theta[1]]),
        lambda theta: np.array([[1.0, 0.0], [-theta[1] / theta[0], 1.0 / theta[0]]]),
        _positive_pair,
    )


# ---------------------------------------------------------------------------
# many normal means (known sigma), optionally lasso-penalized
# ---------------------------------------------------------------------------


def soft_threshold(x, lam):
    """sign(x) * max(|x| - lam, 0), elementwise."""
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
    return float(out) if out.ndim == 0 else out


def _check_normal_means(sigma, lam=0.0):
    """sigma and lam as floats; a ValueError unless sigma is finite and > 0
    and lam is finite and >= 0."""
    sigma, lam = float(sigma), float(lam)
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    return sigma, lam


def normal_means(sigma: float) -> ModelSpec:
    sigma, _ = _check_normal_means(sigma)

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
        chi2, = _draws(rng, np.asarray(thetas), m, lambda g, _, size: (g.chisquare(n, size=size),))
        return -0.5 * chi2

    return ModelSpec(
        name="normal-means",
        dim=None,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        sim_log_rel_lik=sim_log_rel,
    )


# simulated terms per block of the lasso kernel: bounds its temporaries
_TERMS_PER_BLOCK = 1 << 14


def _column_pairs(thetas: np.ndarray):
    """The distinct (column, value) pairs of a (k, d) batch.

    Returns their values (P,), ordered by column and then value; the pair
    index of each entry, (k, d); each pair's count of entries, (P,); and
    each column's most common pair, (d,), the smallest value among equally
    common ones.
    """
    k, d = thetas.shape
    cols = np.arange(d)
    order = np.argsort(thetas, axis=0)
    srt = thetas[order, cols].T  # (d, k), each row sorted
    new = np.ones((d, k), dtype=bool)
    np.not_equal(srt[:, 1:], srt[:, :-1], out=new[:, 1:])
    ids = np.cumsum(new).reshape(d, k) - 1
    pair = np.empty((k, d), dtype=np.intp)
    pair[order, cols] = ids.T
    count = np.bincount(ids.ravel())
    mode = ids[cols, np.argmax(count[ids], axis=1)]
    return srt[new], pair, count, mode


def normal_means_lasso(sigma: float, lam: float) -> ModelSpec:
    """Normal means with an L1-penalized likelihood driving the contour.

    The penalized log-likelihood is -||x - theta||^2 / (2 sigma^2) -
    lam * ||theta||_1, whose exact maximizer is the soft-threshold estimate
    with shrinkage c = lam * sigma^2.  Sampling stays the plain normal model.

    log R splits over the coordinates: coordinate i adds h_i = [(x_i -
    t_i)^2 - (x_i - theta_i)^2] / (2 sigma^2) + lam (|t_i| - |theta_i|) at
    the soft-threshold estimate t_i, whose residual |x_i - t_i| is
    min(|x_i|, c) and whose size |t_i| is (|x_i| - c)_+.  At theta_i = 0
    this is h_i = -(|x_i| - c)_+^2 / (2 sigma^2), nonzero with probability
    p = 2 Phi(-lam sigma), and given that, |x_i| / sigma follows the normal
    tail beyond lam sigma.

    So the simulator draws one length-m term per distinct (coordinate,
    value) pair of its ``(k, n)`` batch (:func:`_column_pairs`), and a row
    is the sum of its n pairs' terms.  A nonzero value draws x_i ~
    N(theta_i, sigma^2).  A zero value draws U uniform on [0, 1) per
    dataset: it exceeds when U < p, and then U / p is uniform, so |x| /
    sigma = -ndtri(Phi(-lam sigma) - U / 2) is its normal tail, never
    infinite.  A dataset of a row with neither a nonzero entry nor an
    exceedance gets exactly 0, the tie value of the observed all-zero fit.

    Each row keeps the law of its own datasets; rows that share a pair
    share its draws (common random numbers), so equal rows get equal
    values.  The boundary points of a fit differ from the estimate in one
    coordinate each, so their batch draws about 3n terms per dataset.  A
    column whose most common pair holds a majority of the rows adds that
    pair's term to every row once, and each row corrects it where it
    differs.  The zero pairs that only ever enter that shared sum are drawn
    together, as their number of exceedances, N ~ Binomial(count, p), and
    each exceedance's tail.  Terms are built in blocks of datasets of at most
    ``_TERMS_PER_BLOCK`` terms, so the kernel bounds its own memory and
    takes a whole batch per call (``sim_whole_batch``).
    """
    sigma, lam = _check_normal_means(sigma, lam)
    c = lam * sigma**2
    tail = special.ndtr(-lam * sigma)  # Phi(-c / sigma)
    p = 2.0 * tail

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
        return soft_threshold(np.asarray(data.responses, dtype=float), c)

    def information(data):
        return np.eye(data.n) / sigma**2

    def log_rel_for(data):
        x, n = np.asarray(data.responses, dtype=float), data.n
        pen_hat = _pen(x, mle(Dataset(responses=x)), n)

        def log_rel(thetas):
            return _pen(x, thetas, n) - pen_hat

        return log_rel

    def terms(nonzero, zeros, b, rng):
        """(b, P) draws of h: b datasets at the ``nonzero`` pair values and
        then at ``zeros`` zero ones."""
        out = np.empty((b, nonzero.size + zeros))
        e = rng.standard_normal((b, nonzero.size))
        e *= sigma  # x - theta
        a = np.abs(e + nonzero)
        h = np.minimum(a, c, out=out[:, :nonzero.size])  # |x - t|, t the estimate
        h *= h
        e *= e
        h -= e
        h /= 2 * sigma**2
        a -= c
        np.maximum(a, 0.0, out=a)  # |t|
        a -= np.abs(nonzero)
        a *= lam
        h += a
        u = rng.random((b, zeros))
        hit = u < p
        z = -special.ndtri(tail - 0.5 * u[hit])
        h = out[:, nonzero.size:]
        h.fill(0.0)
        h[hit] = -((sigma * z - c) ** 2) / (2 * sigma**2)
        return out

    def exceedances(count, b, rng):
        """(b,) draws of the summed h of ``count`` zero coordinates: the
        number of exceedances, then each one's normal tail."""
        hits = rng.binomial(count, p, size=b)
        z = -special.ndtri((1.0 - rng.random(int(hits.sum()))) * tail)
        return np.bincount(np.repeat(np.arange(b), hits), minlength=b,
                           weights=-((sigma * z - c) ** 2) / (2 * sigma**2))

    def sim_log_rel(thetas, n, m, rng):
        thetas = np.asarray(thetas, dtype=float)
        k, m = thetas.shape[0], int(m)
        values, pair, count, mode = _column_pairs(thetas)
        # every row sums the base: the most common pair of each column that
        # a majority of rows share; a row's entries add its other pairs
        # (plus) and, in a shared column, remove that column's base (minus)
        shared = count[mode] * 2 > k
        rows, cols = np.nonzero((pair != mode) | ~shared)
        plus = pair[rows, cols]
        fix = shared[cols]
        minus = mode[cols[fix]]
        # a zero pair that no entry names enters only the base sum; those
        # are drawn together, as one exceedance count per dataset
        zero = values == 0.0
        alone = zero.copy()
        alone[plus] = alone[minus] = False
        order = np.concatenate([np.flatnonzero(~zero), np.flatnonzero(zero & ~alone)])
        index = np.empty(values.size, dtype=np.intp)
        index[order] = np.arange(order.size)
        base = mode[shared]
        base = index[base[~alone[base]]]
        plus, minus = index[plus], index[minus]
        nonzero, pooled = values[~zero], int(np.count_nonzero(alone))
        zeros = order.size - nonzero.size
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        rows = rows[first]
        out = np.empty((m, k))
        b = max(1, min(m, _TERMS_PER_BLOCK // max(1, order.size, plus.size)))
        for lo in range(0, m, b):
            t = terms(nonzero, zeros, min(b, m - lo), rng)
            block = out[lo:lo + t.shape[0]]
            block[:] = np.sum(t[:, base], axis=1, keepdims=True)
            if pooled:
                block += exceedances(pooled, t.shape[0], rng)[:, None]
            if plus.size:
                dev = t[:, plus]
                dev[:, fix] -= t[:, minus]
                if first.size < plus.size:  # a row with several entries
                    dev = np.add.reduceat(dev, first, axis=1)
                if rows.size < k:
                    block[:, rows] += dev
                else:
                    block += dev
        return out.T

    return ModelSpec(
        name="normal-means-lasso",
        dim=None,
        log_lik=log_lik,
        sample=sample,
        mle=mle,
        information=information,
        log_rel_lik_for=log_rel_for,
        sim_log_rel_lik=_run_by_run(sim_log_rel),
        sim_whole_batch=True,
    )


# ---------------------------------------------------------------------------
# log-normal, uncensored and left-censored
# ---------------------------------------------------------------------------


def _positive_variance(thetas):
    return thetas[:, 1] > 0.0, "a strictly positive variance"


def lognormal() -> ModelSpec:
    """Log-normal with theta = (mean, variance) of log Y."""

    def log_lik(data, theta):
        if not _inside(_positive_variance, theta):
            return -np.inf
        mu, v = float(theta[0]), float(theta[1])
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
        # the sufficient statistics of log Y are independent:
        # muhat ~ N(mu0, v0 / n) and n vhat ~ v0 chi2_{n-1}
        muh, g2 = _draws(rng, thetas, m, lambda g, th, size: (
            g.normal(th[:, :1], np.sqrt(th[:, 1:2] / n), size=size),
            g.standard_gamma(0.5 * (n - 1), size=size)))
        vh = v0 * 2.0 * g2 / n
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
        domain=_positive_variance,
        support=_positive,
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
        for run, g in _runs(rng, thetas.shape[0]):
            for mu, v in thetas[run, :2]:
                w = g.normal(mu, np.sqrt(v), size=(m, n))
                idx = g.choice(bounds.size, size=(m, n), p=probs)
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
        if not _inside(_positive_variance, theta):
            return -np.inf
        mu, v = float(theta[0]), float(theta[1])
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
        domain=_positive_variance,
        support=_positive,
        boundary_mle=boundary,
        # the model's own sampler draws uncensored log-normal responses
        sim_log_rel_lik=lognormal().sim_log_rel_lik,
        censored_sim=_lognormal_censored_sim,
    )
    return spec


# ---------------------------------------------------------------------------
# reparametrization
# ---------------------------------------------------------------------------


def _reparam(base: ModelSpec, name: str, to_theta, to_eta, jacobian,
             domain=None) -> ModelSpec:
    """``base`` in coordinates eta, where theta = to_theta(eta) maps arrays
    of shape (..., d) and eta = to_eta(theta) one point.

    The likelihood is invariant under the change, so log-likelihoods, the
    sampler, relative likelihoods, exact contour values and the simulation
    kernels are the base model's at to_theta(eta), and the MLE is to_eta of
    the base MLE.  The observed information transforms as J^T I J with
    J = jacobian(theta_hat), d theta / d eta at the MLE, where the score
    vanishes and with it the chain rule's second-derivative term.  The
    domain is ``domain`` or else the base domain at to_theta(eta).
    """
    at = lambda eta: to_theta(np.asarray(eta, dtype=float))
    if domain is None:
        domain = lambda etas: base.domain(at(etas))

    def information(data):
        J = jacobian(np.asarray(base.mle(data), dtype=float))
        return J.T @ np.atleast_2d(np.asarray(base.information(data), dtype=float)) @ J

    def at_theta(hook):
        """An observed-data hook of the base model, evaluated at to_theta(eta)."""
        if hook is None:
            return None

        def for_data(data):
            values = hook(data)
            return lambda etas: values(at(etas))

        return for_data

    def sim_at_theta(kernel):
        """A base kernel at to_theta(eta), its ``rng`` passed through unchanged."""
        if kernel is None:
            return None
        return lambda etas, n, m, rng: kernel(at(etas), n, m, rng)

    return dataclasses.replace(
        base,
        name=name,
        log_lik=lambda data, eta: (
            base.log_lik(data, at(eta)) if _inside(domain, eta) else -np.inf),
        sample=lambda eta, n, rng: base.sample(at(eta), n, rng),
        mle=lambda data: to_eta(np.asarray(base.mle(data), dtype=float)),
        information=information,
        domain=domain,
        log_rel_lik_for=at_theta(base.log_rel_lik_for),
        exact_contour_for=at_theta(base.exact_contour_for),
        sim_log_rel_lik=sim_at_theta(base.sim_log_rel_lik),
        censored_sim=None if base.censored_sim is None else (
            lambda ghat: sim_at_theta(base.censored_sim(ghat))),
    )


def log_reparam(base: ModelSpec, indices=None) -> ModelSpec:
    """Work with eta_i = log(theta_i) on the given coordinates (all by
    default) of a model whose corresponding parameters are positive.

    A :func:`_reparam` of the base model with J = D, diagonal, D_ii =
    theta_i on logged coordinates and 1 elsewhere.  The domain is |eta_i| <=
    690 on the logged coordinates (beyond, exp overflows or underflows to
    0) and the base domain at exp(eta).
    """
    if base.dim is None:
        raise ValueError("log_reparam requires a model of fixed dimension")
    logged = np.zeros(base.dim, dtype=bool)
    logged[list(range(base.dim)) if indices is None else list(indices)] = True

    def to_theta(eta):
        """theta for points eta of shape (..., d); clipped, so that off the
        domain it stays free of overflow."""
        theta = np.array(eta, dtype=float)
        theta[..., logged] = np.exp(np.clip(theta[..., logged], -690.0, 690.0))
        return theta

    def to_eta(theta):
        if np.any(theta[logged] <= 0.0):
            raise DegenerateMLEError(
                "log reparametrization needs positive MLE coordinates"
            )
        theta = theta.copy()
        theta[logged] = np.log(theta[logged])
        return theta

    def domain(etas):
        inside, rule = base.domain(to_theta(etas))
        near = np.max(np.abs(etas[:, logged]), axis=1, initial=0.0) <= 690.0
        return near & inside, f"|eta| <= 690 on the logged coordinates and {rule} at exp(eta)"

    return _reparam(base, base.name + "-log", to_theta, to_eta,
                    lambda theta: np.diag(np.where(logged, theta, 1.0)), domain)
