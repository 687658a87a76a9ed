"""Possibility contours when only part of the parameter is of interest.

Three constructions, in increasing order of how little they assume:

* profile likelihood for a parametric model (``ProfileSpec``), with the
  outer supremum over the fiber approximated by simulating at the
  constrained maximizer plus a few probe points along the fiber;
* empirical-risk ratios for a functional defined by a loss minimizer
  (``RiskSpec``), with the sampling distribution replaced by bootstrap
  resampling of the observed data; the resamples are scored at the
  observed minimizer, so one set, drawn once per contour, serves every
  theta and the contour is a sorted lookup of the observed ratio;
* a censored-data plug-in where the censoring distribution is estimated
  by the product-limit method with the censoring labels swapped and then
  held fixed while the parametric part is validated by Monte Carlo.

Each is built as one :class:`~possfit.contours.PossibilityContour`, by
:func:`make_profile_contour`, :func:`make_empirical_risk_contour` and
:func:`make_censored_contour`; a point value is a batch of one.

The companions :func:`profile_companion_family` and
:func:`quantile_companion_family` are
:class:`~possfit.families.GaussianScalarFamily` anchors for the interest
value, fitted to a contour by :func:`possfit.sa.fit_scalar_anchored`.
"""

import dataclasses
from typing import Callable, Optional

import numpy as np
from scipy import special

from ._rng import REF_TAG, derive_rng
from .contours import PossibilityContour, _lookup_batch, _mc_batch, make_mc_contour
from .families import GaussianScalarFamily
from .models import (
    Dataset,
    ModelSpec,
    _gamma_shape_root,
    _run_by_run,
    _scaled_log_gammas,
    _standard_gammas,
)

__all__ = [
    "CensoringEstimate",
    "FiberOptimizationError",
    "ProfileSpec",
    "RiskMinimizationError",
    "RiskSpec",
    "censored_model",
    "empirical_risk",
    "gamma_mean_profile",
    "kaplan_meier_swapped",
    "make_censored_contour",
    "make_empirical_risk_contour",
    "make_profile_contour",
    "normal_reference_kde",
    "profile_companion_family",
    "quantile_companion_family",
    "quantile_erm",
    "quantile_loss",
    "quantile_risk_spec",
    "relative_profile_likelihood",
]


class FiberOptimizationError(RuntimeError):
    """The constrained maximizer on a fiber {g(theta) = phi} failed."""


class RiskMinimizationError(RuntimeError):
    """The empirical-risk minimizer produced no usable value."""


# ---------------------------------------------------------------------------
# profile likelihood
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ProfileSpec:
    """Interest map plus the machinery to maximize over its fibers.

    ``constrained_mle(data, phi)`` returns the likelihood maximizer on the
    fiber.  ``fiber_probes(data, phi, count)`` returns ``count`` points on
    the fiber (the constrained maximizer first) at which the sampling
    distribution of the profile ratio is probed; without it the outer sup
    collapses to the constrained maximizer alone.  ``sim_profile_log_rel``
    is an optional kernel of the model kernels' ``(k, d) -> (k, m)``
    contract whose rows are fiber points; it and the fallback without it
    simulate log ratios at g(row), so probes need g(point) == phi exactly.
    """

    name: str
    g: Callable
    constrained_mle: Callable
    probes: int = 5
    fiber_probes: Optional[Callable] = None
    g_grad: Optional[Callable] = None
    sim_profile_log_rel: Optional[Callable] = None

    def __post_init__(self):
        if int(self.probes) < 1:
            raise ValueError("probe count must be >= 1")


def _fiber_point(spec: ProfileSpec, data: Dataset, phi: float) -> np.ndarray:
    try:
        theta = np.asarray(spec.constrained_mle(data, phi), dtype=float)
    except Exception as exc:
        raise FiberOptimizationError(
            f"constrained maximizer failed at phi={phi}: {exc}"
        ) from exc
    if not np.all(np.isfinite(theta)):
        raise FiberOptimizationError(
            f"constrained maximizer returned a non-finite point at phi={phi}: {theta}"
        )
    return theta


def _profile_log_rel(model: ModelSpec, data: Dataset, spec: ProfileSpec, phi: float) -> float:
    theta_c = _fiber_point(spec, data, phi)
    diff = model.log_lik(data, theta_c) - model.log_lik(data, model.mle(data))
    if np.isnan(diff):
        raise FiberOptimizationError(
            f"profile ratio undefined at phi={phi} (fiber point {theta_c})"
        )
    return float(min(diff, 0.0))


def relative_profile_likelihood(
    model: ModelSpec, data: Dataset, spec: ProfileSpec, phi: float
) -> float:
    """sup over the fiber {g = phi} of L(theta), relative to the global sup."""
    return float(np.exp(_profile_log_rel(model, data, spec, float(phi))))


def _probe_delta(k: int) -> float:
    if k == 0:
        return 0.0
    return 0.5 * ((k + 1) // 2) * (1.0 if k % 2 == 1 else -1.0)


def _profile_model(model: ModelSpec, spec: ProfileSpec) -> ModelSpec:
    """The model whose log relative likelihood at theta is the log profile
    ratio at g(theta), so the Monte Carlo loop simulates profile ratios."""
    def log_rel_for(ds):
        return lambda thetas: np.array(
            [_profile_log_rel(model, ds, spec, float(spec.g(th))) for th in thetas])

    return dataclasses.replace(model, log_rel_lik_for=log_rel_for,
                               sim_log_rel_lik=spec.sim_profile_log_rel,
                               sim_whole_batch=False)


def _probe_values(model, data, spec, phis, m, rng) -> list:
    """Per-probe Monte Carlo values at each phi, as a list of arrays: the
    probes of all phis are one batch of the Monte Carlo contour loop, in
    order, every probe of a phi on that phi's Generator (``rng``, or its
    row of a list of one per phi).  A phi whose fiber maximizer or probe
    points fail gets no probes and draws nothing."""
    rngs = rng if isinstance(rng, list) else [rng] * len(phis)
    obs, points, sizes, gens = [], [], [], []
    for phi, phi_rng in zip(phis, rngs):
        try:
            o = _profile_log_rel(model, data, spec, phi)
            p = np.atleast_2d(np.asarray(
                _fiber_point(spec, data, phi) if spec.fiber_probes is None
                else spec.fiber_probes(data, phi, int(spec.probes)), dtype=float))
            obs += [o] * len(p)
            points += list(p)
        except Exception:
            p = []
        sizes.append(len(p))
        gens += [phi_rng] * len(p)
    values = np.empty(0)
    if points:
        values = _mc_batch(_profile_model(model, spec), data, np.array(points), int(m),
                           gens, lambda thetas: np.array(obs))
    return np.split(values, np.cumsum(sizes)[:-1])


def make_profile_contour(
    model: ModelSpec, data: Dataset, spec: ProfileSpec, m: int, seed: int
) -> PossibilityContour:
    """Monte Carlo profile contour over the scalar interest value: at phi,
    the max over the fiber probes of the inner probability
    P_theta{R^pr(X, phi) <= R^pr(x, phi)}.  Its batch simulates the probes
    of all phis together, so a phi whose fiber fails is NaN.  A raising
    kernel makes NaN every phi in its call when the phis share one
    generator, and only the phis whose own call raises in a keyed batch.
    Simulated replicates whose refit fails count as included, as in the
    Monte Carlo contour.
    """
    def batch(thetas, rng):
        phis = np.atleast_2d(np.asarray(thetas, dtype=float))[:, 0].tolist()
        values = _probe_values(model, data, spec, phis, m, rng)
        return np.array([np.max(v) if v.size else np.nan for v in values])

    return PossibilityContour(
        kind="profile-mc",
        dim=1,
        evaluate_batch=batch,
        seed=int(seed),
        meta={"model": model.name, "spec": spec.name, "m": int(m), "probes": int(spec.probes)},
    )


def _gamma_ms_loglik_stats(t1, s, n, a, phi):
    return (
        (a - 1.0) * t1
        - a * s / phi
        - n * special.gammaln(a)
        - n * a * np.log(phi)
        + n * a * np.log(a)
    )


def gamma_mean_profile(probes: int = 5) -> ProfileSpec:
    """Profile spec for the mean of a gamma model in (shape, mean) form.

    On the fiber {mean = phi} the shape maximizer solves
    log a - digamma(a) = log phi - 1 - T1/n + S/(n phi), with T1 the log-data
    total and S the data total; the right side exceeds its value at the
    global MLE (where it reduces to the AM-GM gap), so a unique root exists.
    Probes move the shape by multiples of its profile-information standard
    deviation [n(psi'(a) - 1/a)]^{-1/2}.
    """

    def _stats(data):
        x = np.asarray(data.responses, dtype=float)
        if x.size == 0 or np.any(x <= 0.0):
            raise ValueError("gamma data must be positive")
        return float(np.sum(np.log(x))), float(np.sum(x)), data.n

    def constrained_mle(data, phi):
        phi = float(phi)
        if phi <= 0.0:
            raise ValueError("the gamma mean must be positive")
        t1, s, n = _stats(data)
        c = np.log(phi) - 1.0 - t1 / n + s / (n * phi)
        return np.array([float(_gamma_shape_root(c)), phi])

    def fiber_probes(data, phi, count):
        a0 = constrained_mle(data, phi)[0]
        sigma = 1.0 / np.sqrt(data.n * (special.polygamma(1, a0) - 1.0 / a0))
        deltas = np.array([_probe_delta(k) for k in range(int(count))])
        a_vals = np.maximum(a0 + deltas * sigma, 1e-8)
        return np.column_stack([a_vals, np.full(a_vals.size, float(phi))])

    def sim_profile_log_rel(thetas, n, m, rng):
        # as the model kernel: rows at shape 1 and more draw x itself, rows
        # below shape 1 draw log x after them, and carry log s for the data
        # total s, which would underflow to 0 at tiny shapes
        thetas = np.asarray(thetas, dtype=float)
        out = np.empty((thetas.shape[0], int(m)))
        big = thetas[:, 0] >= 1.0
        if big.any():
            a_p, phi = thetas[big, :1], thetas[big, 1:2]
            x = _standard_gammas(a_p, m, n, rng) * (phi / a_p)[..., None]
            t1 = np.sum(np.log(x), axis=2)
            s = np.sum(x, axis=2)
            a_full = _gamma_shape_root(np.log(s / n) - t1 / n)
            a_prof = _gamma_shape_root(np.log(phi) - 1.0 - t1 / n + s / (n * phi))
            out[big] = _gamma_ms_loglik_stats(t1, s, n, a_prof, phi) - _gamma_ms_loglik_stats(
                t1, s, n, a_full, s / n
            )
        if not big.all():
            a_p, phi = thetas[~big, :1], thetas[~big, 1:2]
            log_x = (_scaled_log_gammas(a_p, m, n, rng) / a_p[..., None]
                     + np.log(phi / a_p)[..., None])
            t1 = np.sum(log_x, axis=2)
            log_mean = special.logsumexp(log_x, axis=2) - np.log(n)
            mean_over_phi = np.exp(log_mean - np.log(phi))
            a_full = _gamma_shape_root(log_mean - t1 / n)
            a_prof = _gamma_shape_root(np.log(phi) - 1.0 - t1 / n + mean_over_phi)
            # the two log-likelihoods of _gamma_ms_loglik_stats, the full one
            # at mean s / n, differenced term by term
            out[~big] = (
                (a_prof - a_full) * t1 - n * (a_prof * mean_over_phi - a_full)
                - n * (special.gammaln(a_prof) - special.gammaln(a_full))
                - n * (a_prof * np.log(phi) - a_full * log_mean)
                + n * (a_prof * np.log(a_prof) - a_full * np.log(a_full))
            )
        return out

    return ProfileSpec(
        name="gamma-mean-profile",
        g=lambda th: float(np.asarray(th, dtype=float).ravel()[1]),
        constrained_mle=constrained_mle,
        probes=int(probes),
        fiber_probes=fiber_probes,
        g_grad=lambda th: np.array([0.0, 1.0]),
        sim_profile_log_rel=_run_by_run(sim_profile_log_rel),
    )


def profile_companion_family(
    model: ModelSpec, data: Dataset, spec: ProfileSpec
) -> GaussianScalarFamily:
    """Gaussian family for the interest value: mean g(theta_hat), variance
    grad' J^{-1} grad (the delta-method variance of the plug-in)."""
    if spec.g_grad is None:
        raise ValueError("spec has no interest gradient; cannot build the family")
    theta_hat = np.asarray(model.mle(data), dtype=float)
    J = np.atleast_2d(np.asarray(model.information(data), dtype=float))
    grad = np.asarray(spec.g_grad(theta_hat), dtype=float).ravel()
    v = float(grad @ np.linalg.solve(J, grad))
    if not np.isfinite(v) or v <= 0.0:
        raise FiberOptimizationError("interest variance is not positive")
    phi_hat = float(spec.g(theta_hat))
    return GaussianScalarFamily(theta_hat=np.array([phi_hat]), info=np.array([[1.0 / v]]))


# ---------------------------------------------------------------------------
# empirical risk with bootstrap
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RiskSpec:
    """A functional defined as a loss minimizer, plus bootstrap settings.

    ``loss(values, theta)`` broadcasts elementwise; ``erm(values)`` minimizes
    the mean loss along the last axis (vectorized over leading axes so a
    whole bootstrap batch is handled in one call).
    """

    name: str
    loss: Callable
    erm: Callable
    B: int = 500

    def __post_init__(self):
        if int(self.B) < 1:
            raise ValueError("B must be >= 1")


def quantile_loss(values, theta, tau: float):
    """The tau-quantile loss 0.5{(|x - theta| - x) + (1 - 2 tau) theta}."""
    values = np.asarray(values, dtype=float)
    theta = np.asarray(theta, dtype=float)
    out = 0.5 * ((np.abs(values - theta) - values) + (1.0 - 2.0 * tau) * theta)
    return float(out) if out.ndim == 0 else out


def quantile_erm(values, tau: float):
    """Leftmost minimizer of the empirical tau-quantile risk: the
    ceil(n tau)-th order statistic, along the last axis."""
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    idx = int(np.ceil(n * tau - 1e-9)) - 1
    idx = min(max(idx, 0), n - 1)
    out = np.sort(v, axis=-1)[..., idx]
    return float(out) if out.ndim == 0 else out


def quantile_risk_spec(tau: float, B: int = 500) -> RiskSpec:
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly between 0 and 1")
    return RiskSpec(
        name=f"quantile-{tau:g}",
        loss=lambda values, theta: quantile_loss(values, theta, tau),
        erm=lambda values: quantile_erm(values, tau),
        B=int(B),
    )


def empirical_risk(spec: RiskSpec, values, theta) -> float:
    """Mean loss of theta over the observations (last axis)."""
    out = np.mean(spec.loss(np.asarray(values, dtype=float), theta), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def make_empirical_risk_contour(
    data: Dataset, spec: RiskSpec, seed: int
) -> PossibilityContour:
    """Bootstrap empirical-risk contour: at theta, the share of ``spec.B``
    resamples of the data whose risk ratio is at most the observed one
    (ties included).  The resamples are drawn once, on the stream
    ``(seed, REF_TAG)``, so the contour is a deterministic lookup.  The
    observed minimizer is the truth of the bootstrap world, so each
    resample's ratio is taken at theta_hat, not at theta, and one set of
    resamples serves every theta.  Responses that are not a vector (paired
    data, say) raise ValueError."""
    v = np.asarray(data.responses, dtype=float)
    if v.ndim != 1:
        raise ValueError(
            f"the bootstrap contour needs a vector of responses, got shape {v.shape}")
    n = v.size
    theta_hat = spec.erm(v)
    if np.any(np.isnan(theta_hat)):
        raise RiskMinimizationError(
            "empirical-risk minimizer failed on the observed data"
        )
    rho_hat = empirical_risk(spec, v, float(theta_hat))
    vb = v[derive_rng(seed, REF_TAG).integers(0, n, size=(int(spec.B), n))]
    th_b = np.asarray(spec.erm(vb), dtype=float)
    if np.any(np.isnan(th_b)):
        raise RiskMinimizationError(
            "empirical-risk minimizer failed on a bootstrap resample"
        )
    rho_t = np.mean(spec.loss(vb, float(theta_hat)), axis=-1)
    rho_h = np.mean(spec.loss(vb, th_b[:, None]), axis=-1)
    return PossibilityContour(
        kind="bootstrap-er",
        dim=1,
        evaluate_batch=_lookup_batch(
            lambda thetas: -(np.mean(spec.loss(v, thetas[:, :1]), axis=-1) - rho_hat),
            -(rho_t - rho_h),
        ),
        meta={"spec": spec.name, "B": int(spec.B), "seed": int(seed)},
    )


# ---------------------------------------------------------------------------
# quantile companion family
# ---------------------------------------------------------------------------


def normal_reference_kde(values, at):
    """Gaussian kernel density with the normal-reference bandwidth
    1.06 * sd * n^{-1/5}, evaluated at ``at``."""
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    if n < 2:
        raise ValueError("need at least two observations for a density estimate")
    sd = float(np.std(x, ddof=1))
    if sd <= 0.0:
        raise ValueError("sample is degenerate; bandwidth would be zero")
    h = 1.06 * sd * n ** (-0.2)
    z = (np.asarray(at, dtype=float)[..., None] - x) / h
    dens = np.mean(np.exp(-0.5 * z * z), axis=-1) / (h * np.sqrt(2.0 * np.pi))
    return float(dens) if np.ndim(dens) == 0 else dens


def quantile_companion_family(data: Dataset, tau: float) -> GaussianScalarFamily:
    """Gaussian family for the sample tau-quantile: mean the empirical-risk
    minimizer theta_hat, information n f^2 / (tau (1 - tau)) with f the
    :func:`normal_reference_kde` estimate at theta_hat, so xi = 1 gives the
    asymptotic variance of the sample quantile."""
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly between 0 and 1")
    x = np.asarray(data.responses, dtype=float).ravel()
    theta_hat = quantile_erm(x, tau)
    density = float(normal_reference_kde(x, theta_hat))
    if not density > 0.0:
        raise ValueError("density at the minimizer must be positive")
    return GaussianScalarFamily(
        theta_hat=np.array([theta_hat]),
        info=np.array([[x.size * density**2 / (tau * (1.0 - tau))]]),
    )


# ---------------------------------------------------------------------------
# censored data with a product-limit plug-in
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CensoringEstimate:
    """Step-function estimate of the censoring distribution.

    ``masses`` sit at ``support`` (strictly increasing); any unassigned mass
    (``residual``, a sub-distribution tail) is lumped at the last support
    point for sampling purposes, the standard product-limit convention.
    """

    support: np.ndarray
    masses: np.ndarray
    residual: Optional[float] = None

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float).ravel()
        masses = np.asarray(self.masses, dtype=float).ravel()
        if support.size == 0:
            raise ValueError("support must be nonempty")
        if support.size != masses.size:
            raise ValueError("support and masses must have equal length")
        if np.any(np.diff(support) <= 0.0):
            raise ValueError("support must be strictly increasing")
        if np.any(masses < -1e-12):
            raise ValueError("masses must be nonnegative")
        total = float(np.sum(masses))
        if total > 1.0 + 1e-9:
            raise ValueError("masses must sum to at most 1")
        residual = self.residual
        if residual is None:
            residual = 1.0 - total
        residual = float(max(residual, 0.0))
        if total + residual > 1.0 + 1e-6:
            raise ValueError("masses plus residual exceed 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "masses", np.maximum(masses, 0.0))
        object.__setattr__(self, "residual", residual)

    @property
    def sampling_probs(self) -> np.ndarray:
        p = self.masses.copy()
        p[-1] += self.residual
        total = float(np.sum(p))
        if total <= 0.0:
            raise ValueError("no mass available to sample from")
        return p / total

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self.support, size=size, p=self.sampling_probs)


def kaplan_meier_swapped(data: Dataset) -> CensoringEstimate:
    """Product-limit estimate of the censoring distribution, treating the
    *censored* observations (flag 0) as the events.

    At tied times the events are processed first, so a same-time censored
    observation stays in the risk set.  Surviving mass is reported as the
    residual; with no events at all, everything degenerates to the largest
    observation.
    """
    z = np.asarray(data.responses, dtype=float).ravel()
    if z.size == 0:
        raise ValueError("no observations")
    if data.censor is None:
        t = np.ones(z.size, dtype=int)
    else:
        t = np.asarray(data.censor, dtype=int).ravel()
    delta = 1 - t
    events = np.unique(z[delta == 1])
    if events.size == 0:
        return CensoringEstimate(
            support=np.array([float(np.max(z))]), masses=np.array([0.0]), residual=1.0
        )
    surv = 1.0
    masses = np.empty(events.size)
    for j, u in enumerate(events):
        at_risk = int(np.sum(z >= u))
        d = int(np.sum((z == u) & (delta == 1)))
        masses[j] = surv * d / at_risk
        surv *= 1.0 - d / at_risk
    return CensoringEstimate(support=events, masses=masses, residual=float(max(surv, 0.0)))


def censored_model(model: ModelSpec, ghat: CensoringEstimate) -> ModelSpec:
    """Model whose sampler pushes draws through the censoring rule
    Z = max(Y, C), T = 1(Y >= C) with C drawn from ghat.

    Any uncensored simulation shortcut on the base model is dropped (it
    would skip the censoring); a model that declares a ``censored_sim``
    hook gets that hook's kernel for ghat instead, and models without one
    fall back to the per-dataset loop.
    """
    base_sample = model.sample

    def sample(theta, n, rng):
        ds = base_sample(theta, n, rng)
        y = np.asarray(ds.responses, dtype=float)
        c = ghat.sample(y.shape, rng)
        return Dataset(
            responses=np.maximum(y, c), censor=(y >= c).astype(int)
        )

    sim = None if model.censored_sim is None else model.censored_sim(ghat)
    return dataclasses.replace(
        model,
        sample=sample,
        sim_log_rel_lik=sim,
        sim_whole_batch=False,
        censored_sim=None,  # its sampler already applies this censoring
    )


def make_censored_contour(
    model: ModelSpec, data: Dataset, ghat: CensoringEstimate, m: int, seed: int
) -> PossibilityContour:
    """Monte Carlo contour for the parametric part, with censoring levels
    resampled from ghat in every replicate."""
    return make_mc_contour(censored_model(model, ghat), data, m=int(m), seed=int(seed))
