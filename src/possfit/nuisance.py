"""Possibility contours when only part of the parameter is of interest.

Three constructions, in increasing order of how little they assume:

* profile likelihood for a parametric model (``ProfileSpec``), with the
  outer supremum over the fiber approximated by simulating at the
  constrained maximizer plus a few probe points along the fiber;
* empirical-risk ratios for a functional defined by a loss minimizer
  (``RiskSpec``), with the sampling distribution replaced by bootstrap
  resampling of the observed data;
* a censored-data plug-in where the censoring distribution is estimated
  by the product-limit method with the censoring labels swapped and then
  held fixed while the parametric part is validated by Monte Carlo.
"""

import dataclasses
from dataclasses import field
from typing import Callable, Mapping, Optional

import numpy as np
from scipy import special

from .contours import (
    TIE_EPS,
    PossibilityContour,
    log_relative_likelihood,
    make_mc_contour,
    mc_contour,
)
from .families import GaussianScalarFamily, chi2_sf
from .models import (
    Dataset,
    ModelSpec,
    _gamma_ms_loglik_stats,
    _gamma_shape_root,
)
from .sa import SAConfig, _fit_credal, fit_scalar_anchored

__all__ = [
    "CensoredPlugin",
    "CensoringEstimate",
    "FiberOptimizationError",
    "ProfileSpec",
    "QuantileCompanionFamily",
    "RiskMinimizationError",
    "RiskSpec",
    "censored_contour",
    "censored_model",
    "empirical_risk",
    "empirical_risk_contour",
    "empirical_risk_rel",
    "fit_profile_companion",
    "fit_quantile_companion",
    "gamma_mean_profile",
    "kaplan_meier_swapped",
    "make_censored_contour",
    "make_empirical_risk_contour",
    "make_profile_contour",
    "normal_reference_kde",
    "profile_companion_family",
    "profile_contour",
    "profile_probe_values",
    "quantile_companion_contour",
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
    is an optional vectorized shortcut returning ``m`` simulated log profile
    ratios at once.
    """

    name: str
    g: Callable
    constrained_mle: Callable
    probes: int = 5
    fiber_probes: Optional[Callable] = None
    g_grad: Optional[Callable] = None
    sim_profile_log_rel: Optional[Callable] = None
    meta: Mapping = field(default_factory=dict)

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


def profile_probe_values(
    model: ModelSpec,
    data: Dataset,
    spec: ProfileSpec,
    phi: float,
    m: int,
    rng: np.random.Generator,
    probes: Optional[int] = None,
) -> np.ndarray:
    """Per-probe Monte Carlo estimates whose maximum is the profile contour.

    The spread across probes is the diagnostic for how flat the sampling
    distribution is along the fiber.  Simulated replicates whose refit
    fails count as included, mirroring mc_contour.
    """
    phi = float(phi)
    count = int(spec.probes if probes is None else probes)
    if count < 1:
        raise ValueError("probe count must be >= 1")
    obs = _profile_log_rel(model, data, spec, phi)
    if spec.fiber_probes is not None:
        points = np.atleast_2d(np.asarray(spec.fiber_probes(data, phi, count), dtype=float))
    else:
        points = _fiber_point(spec, data, phi)[None, :]
    m = int(m)
    values = np.empty(len(points))
    for i, theta_p in enumerate(points):
        if spec.sim_profile_log_rel is not None:
            sim = np.asarray(spec.sim_profile_log_rel(theta_p, data.n, m, rng), dtype=float)
        else:
            sim = np.empty(m)
            for j in range(m):
                ds = model.sample(theta_p, data.n, rng)
                try:
                    sim[j] = _profile_log_rel(model, ds, spec, phi)
                except Exception:
                    sim[j] = np.nan
        include = np.isnan(sim) | (sim <= obs + TIE_EPS)
        values[i] = float(np.mean(include))
    return values


def profile_contour(
    model: ModelSpec,
    data: Dataset,
    spec: ProfileSpec,
    phi: float,
    m: int,
    rng: np.random.Generator,
    probes: Optional[int] = None,
) -> float:
    """Monte Carlo profile contour: max over fiber probes of the inner
    probability P_theta{R^pr(X, phi) <= R^pr(x, phi)}."""
    return float(np.max(profile_probe_values(model, data, spec, phi, m, rng, probes)))


def make_profile_contour(
    model: ModelSpec, data: Dataset, spec: ProfileSpec, m: int, seed: int
) -> PossibilityContour:
    """Profile contour over the scalar interest value, as a contour object."""
    return PossibilityContour(
        kind="profile-mc",
        dim=1,
        evaluate=lambda th, rng: profile_contour(
            model, data, spec, float(np.asarray(th, dtype=float).ravel()[0]), m, rng
        ),
        seed=int(seed),
        meta={"model": model.name, "spec": spec.name, "m": int(m), "probes": int(spec.probes)},
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

    def sim_profile_log_rel(theta, n, m, rng):
        a_p, phi = float(theta[0]), float(theta[1])
        x = rng.gamma(a_p, phi / a_p, size=(int(m), int(n)))
        t1 = np.sum(np.log(x), axis=1)
        s = np.sum(x, axis=1)
        a_full = _gamma_shape_root(np.log(s / n) - t1 / n)
        a_prof = _gamma_shape_root(np.log(phi) - 1.0 - t1 / n + s / (n * phi))
        return _gamma_ms_loglik_stats(t1, s, n, a_prof, phi) - _gamma_ms_loglik_stats(
            t1, s, n, a_full, s / n
        )

    return ProfileSpec(
        name="gamma-mean-profile",
        g=lambda th: float(np.asarray(th, dtype=float).ravel()[1]),
        constrained_mle=constrained_mle,
        probes=int(probes),
        fiber_probes=fiber_probes,
        g_grad=lambda th: np.array([0.0, 1.0]),
        sim_profile_log_rel=sim_profile_log_rel,
    )


def profile_companion_family(
    model: ModelSpec, data: Dataset, spec: ProfileSpec, xi: float = 1.0
) -> GaussianScalarFamily:
    """Gaussian family for the interest value: mean g(theta_hat), variance
    xi^2 * grad' J^{-1} grad (the delta-method variance of the plug-in)."""
    if spec.g_grad is None:
        raise ValueError("spec has no interest gradient; cannot build the family")
    theta_hat = np.asarray(model.mle(data), dtype=float)
    J = np.atleast_2d(np.asarray(model.information(data), dtype=float))
    grad = np.asarray(spec.g_grad(theta_hat), dtype=float).ravel()
    v = float(grad @ np.linalg.solve(J, grad))
    if not np.isfinite(v) or v <= 0.0:
        raise FiberOptimizationError("interest variance is not positive")
    phi_hat = float(spec.g(theta_hat))
    return GaussianScalarFamily(
        theta_hat=np.array([phi_hat]), info=np.array([[1.0 / v]]), xi=float(xi)
    )


def fit_profile_companion(
    model: ModelSpec,
    data: Dataset,
    spec: ProfileSpec,
    contour: PossibilityContour,
    config: SAConfig,
):
    """Fit the companion family's spread to a profile contour."""
    fam = profile_companion_family(model, data, spec)
    return fit_scalar_anchored(fam.theta_hat, fam.info, contour, config)


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
    meta: Mapping = field(default_factory=dict)

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
        meta={"tau": tau},
    )


def empirical_risk(spec: RiskSpec, values, theta) -> float:
    """Mean loss of theta over the observations (last axis)."""
    out = np.mean(spec.loss(np.asarray(values, dtype=float), theta), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def empirical_risk_rel(spec: RiskSpec, values, theta) -> float:
    """exp[-{rho(theta) - rho(theta_hat)}], the risk analogue of a relative
    likelihood; equals 1 exactly at the empirical-risk minimizer."""
    v = np.asarray(values, dtype=float)
    theta_hat = spec.erm(v)
    if np.any(np.isnan(theta_hat)):
        raise RiskMinimizationError("empirical-risk minimizer failed on the data")
    gap = empirical_risk(spec, v, float(theta)) - empirical_risk(spec, v, float(theta_hat))
    return float(np.exp(min(-gap, 0.0)))


def empirical_risk_contour(
    data: Dataset,
    spec: RiskSpec,
    theta,
    rng: np.random.Generator,
    B: Optional[int] = None,
) -> float:
    """Share of B bootstrap resamples whose risk ratio is at most the
    observed one at theta (ties included).

    The observed minimizer is the truth of the bootstrap world, so each
    resample's ratio is taken at theta_hat, not at theta.
    """
    v = np.asarray(data.responses, dtype=float).ravel()
    n = v.size
    theta = float(np.asarray(theta, dtype=float).ravel()[0])
    B = int(spec.B if B is None else B)
    theta_hat = spec.erm(v)
    if np.any(np.isnan(theta_hat)):
        raise RiskMinimizationError(
            "empirical-risk minimizer failed on the observed data"
        )
    obs = -(empirical_risk(spec, v, theta) - empirical_risk(spec, v, float(theta_hat)))
    idx = rng.integers(0, n, size=(B, n))
    vb = v[idx]
    th_b = np.asarray(spec.erm(vb), dtype=float)
    if np.any(np.isnan(th_b)):
        raise RiskMinimizationError(
            "empirical-risk minimizer failed on a bootstrap resample"
        )
    rho_t = np.mean(spec.loss(vb, float(theta_hat)), axis=-1)
    rho_h = np.mean(spec.loss(vb, th_b[:, None]), axis=-1)
    sim = -(rho_t - rho_h)
    include = np.isnan(sim) | (sim <= obs + TIE_EPS)
    return float(np.mean(include))


def make_empirical_risk_contour(
    data: Dataset, spec: RiskSpec, seed: int, B: Optional[int] = None
) -> PossibilityContour:
    B = int(spec.B if B is None else B)
    return PossibilityContour(
        kind="bootstrap-er",
        dim=1,
        evaluate=lambda th, rng: empirical_risk_contour(data, spec, th, rng, B=B),
        seed=int(seed),
        meta={"spec": spec.name, "B": B},
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


@dataclasses.dataclass(frozen=True)
class QuantileCompanionFamily:
    """Gaussian family for a sample quantile, centered at the empirical-risk
    minimizer with variance tau(1-tau)/(n xi^2 density^2).

    The spread *shrinks* as xi grows, so fits against this family flip the
    update direction (see fit_quantile_companion).
    """

    theta_hat: float
    n: int
    tau: float
    density: float
    xi: float = 1.0

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < float(self.tau) < 1.0:
            raise ValueError("tau must lie strictly between 0 and 1")
        if not float(self.density) > 0.0:
            raise ValueError("density at the minimizer must be positive")
        if not float(self.xi) > 0.0:
            raise ValueError("xi must be positive")

    @property
    def dim(self) -> int:
        return 1

    @property
    def sd(self) -> float:
        return float(
            np.sqrt(self.tau * (1.0 - self.tau)) / (np.sqrt(self.n) * self.xi * self.density)
        )

    def with_xi(self, xi: float) -> "QuantileCompanionFamily":
        return dataclasses.replace(self, xi=float(xi))

    def sample_points(self, k: int, rng: np.random.Generator) -> np.ndarray:
        return self.theta_hat + self.sd * rng.standard_normal((int(k), 1))


def quantile_companion_contour(family: QuantileCompanionFamily, theta):
    """Closed-form contour 1 - G_1(((theta - theta_hat)/sd)^2)."""
    q = ((np.asarray(theta, dtype=float) - family.theta_hat) / family.sd) ** 2
    out = chi2_sf(q, 1)
    return float(out) if np.ndim(out) == 0 else out


def quantile_companion_family(
    data: Dataset, tau: float, xi: float = 1.0
) -> QuantileCompanionFamily:
    x = np.asarray(data.responses, dtype=float).ravel()
    theta_hat = quantile_erm(x, tau)
    return QuantileCompanionFamily(
        theta_hat=float(theta_hat),
        n=x.size,
        tau=float(tau),
        density=float(normal_reference_kde(x, theta_hat)),
        xi=float(xi),
    )


def fit_quantile_companion(
    contour: PossibilityContour, family: QuantileCompanionFamily, config: SAConfig
):
    """Fit xi so the family's (1-alpha)-credible interval matches the target
    contour's alpha-cut.  Spread falls as xi rises, hence the flipped sign."""
    return _fit_credal(family, contour, config, sign=-1)


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

    def cdf(self, u):
        """Sub-distribution function (residual mass excluded)."""
        idx = np.searchsorted(self.support, np.asarray(u, dtype=float), side="right")
        csum = np.concatenate([[0.0], np.cumsum(self.masses)])
        out = csum[idx]
        return float(out) if np.ndim(out) == 0 else out


@dataclasses.dataclass(frozen=True)
class CensoredPlugin:
    """A parametric response model paired with an estimated censoring
    distribution, ready to drive Monte Carlo contour evaluation."""

    model: ModelSpec
    ghat: CensoringEstimate


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
        censored_sim=None,  # its sampler already applies this censoring
        meta=dict(model.meta, censoring="product-limit-plugin"),
    )


def censored_contour(
    model: ModelSpec,
    data: Dataset,
    ghat: CensoringEstimate,
    theta,
    m: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo contour for the parametric part, with censoring levels
    resampled from ghat in every replicate."""
    return mc_contour(censored_model(model, ghat), data, theta, int(m), rng)


def make_censored_contour(
    model: ModelSpec, data: Dataset, ghat: CensoringEstimate, m: int, seed: int
) -> PossibilityContour:
    return make_mc_contour(censored_model(model, ghat), data, m=int(m), seed=int(seed))
