"""Stochastic-approximation fitting of variational possibility families.

A fit tunes the spread xi of a family until its 100(1-alpha)% credible set
matches the target contour's alpha-cut.  One driver (``_fit``) solves
f(xi) = 0 by the Robbins-Monro recursion

    xi_{t} = clamp( xi_{t-1} + sign * w_t * f_hat(xi_{t-1}) ),   w_t = 2/(1+t),

where f_hat is a noisy evaluation of the criterion the family calls for:

* a scalar Gaussian: the credal mass, the share of K parameters from the
  family inside the contour's alpha-cut, against 1 - alpha;
* a per-axis Gaussian: boundary matching, the contour at the 2d points
  where the credal ellipsoid touches its principal axes, against alpha;
* a Dirichlet: the credal mass on fresh draws, with sign = -1, since its
  spread shrinks as xi, a precision, grows.

The public ``fit_*`` functions build the family at xi = 1 about an anchor
(the model's MLE and information, or one given) and call it.  A fit to a
model given no target contour targets the one the ``naive`` method builds
(:func:`possfit.contours.naive_contour`): the model's exact contour where
it declares one (the binomial does), read by value with no dataset
simulated, and otherwise its Monte Carlo contour of size
``config.m_inner`` on ``config.seed``.

The credal-mass criterion reads only the indicator 1{pi(theta) > alpha}
at each draw.  A contour with a decision evaluator (``exceeds_batch``, which
the Monte Carlo contour has) decides it early: a draw stops simulating once
exact curtailment settles its indicator, or once a sequential test decides
it, at the indifference band and risk stated in the README's "Determinism"
section.  Other contours are read by value.  The boundary-matching
criterion always reads values.

A Gaussian credal-mass fit solves the criterion on one sample (sample
average approximation): a pool of K offsets from theta_hat, drawn once per
fit on key ``(SA_TAG, 0)`` of ``config.seed``, one per ChiSq(d) stratum of
the squared radius (:func:`possfit.families.stratified_offsets`), so that
the pool's own share inside the family's level sets is exact to 1/K.
Iteration t's draws are theta_hat + xi_{t-1} * offset_i.  Each draw keeps
the largest xi at which it was decided inside and the smallest at which it
was decided outside; the alpha-cut is assumed star-shaped about theta_hat
along each draw's ray (true of a unimodal contour, approximately of the
exact contour of a discrete model), so a draw inside at xi' is inside for
every xi <= xi', one outside at xi' outside for every xi >= xi', and only
the draws between their two bounds are decided afresh.  A Dirichlet draw is
not an offset scaled by xi, so the Dirichlet fit draws K fresh parameters
at each iteration, on key ``(SA_TAG, t)``.

Key ``(SA_TAG, t, 0)`` seeds one batch evaluation of the iteration's
points (the draws it decides afresh, or its 2d boundary points) for a
seeded contour.  The decision evaluator consumes that stream chunk by chunk
of datasets, for the draws still undecided, so the credal-mass fits of a
Monte Carlo contour draw different datasets than a full-m evaluation of
each point would.
``FitTrace.evaluations`` counts the points each iteration evaluated or
decided afresh.
An evaluation that fails (a NaN value) counts as inside the cut, as a
Monte Carlo replicate whose refit fails counts as included, and is tallied
in ``FitTrace.failures``; a pool draw that fails is not remembered, so the
next iteration decides it again.  This raises the credal mass, so failures
widen the fitted spread, the conservative direction, never shrink it.  The
boundary-matching criterion reads a failed point as 0 and takes the larger
value of each pair, so one failure of a pair is absorbed by its partner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ._render import csv_text
from ._rng import SA_TAG, derive_rng
from .contours import (
    ConfigError, PossibilityContour, config_float, config_int, config_keys, naive_contour)
from .families import (
    DirichletFamily,
    GaussianScalarFamily,
    GaussianVectorFamily,
    boundary_points,
    sample,
    stratified_offsets,
)
from .models import Dataset, ModelSpec, mle_and_information

__all__ = [
    "SAConfig",
    "FitTrace",
    "default_step",
    "robbins_monro",
    "f_hat",
    "fit_scalar",
    "fit_scalar_anchored",
    "fit_vector",
    "fit_vector_anchored",
    "fit_dirichlet",
]

_XI_FLOOR = 1e-6


def default_step(t: int) -> float:
    """Step size w_t = 2/(1+t); the first update carries full weight."""
    return 2.0 / (1.0 + t)


@dataclass(frozen=True)
class SAConfig:
    """Tuning knobs for the stochastic-approximation fits.

    ``seed`` is mandatory: every random draw inside a fit is derived from it,
    so two runs with the same config produce bit-identical traces.
    ``k_outer`` is the size of the one draw pool of a Gaussian credal-mass
    fit, and the number of fresh draws per iteration of a Dirichlet fit;
    the boundary-matching fits do not read it.
    """

    seed: int
    alpha: float = 0.1
    k_outer: int = 200
    m_inner: int = 500
    epsilon: float = 0.005
    min_iter: int = 5
    max_iter: int = 500

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.k_outer < 1 or self.m_inner < 1:
            raise ValueError("sample sizes must be at least 1")
        if self.min_iter < 1:
            raise ValueError("min_iter must be at least 1")
        if self.max_iter < self.min_iter:
            raise ValueError("max_iter must be at least min_iter")

    @classmethod
    def from_dict(cls, doc) -> "SAConfig":
        """The config a run config's ``sa`` object describes; absent fields
        take their defaults.  A ConfigError names a non-object, a key it
        does not read, or a bad field."""
        if not isinstance(doc, dict):
            raise ConfigError(f"invalid sa block: it must be an object, got {doc!r}")
        try:
            config_keys(doc, ("seed", "alpha", "k_outer", "m_inner", "epsilon", "min_iter",
                              "max_iter"))
            return cls(
                seed=config_int(doc.get("seed", 0), "seed"),
                alpha=config_float(doc.get("alpha", 0.1), "alpha"),
                k_outer=config_int(doc.get("k_outer", 200), "k_outer"),
                m_inner=config_int(doc.get("m_inner", 500), "m_inner"),
                epsilon=config_float(doc.get("epsilon", 0.005), "epsilon"),
                min_iter=config_int(doc.get("min_iter", 5), "min_iter"),
                max_iter=config_int(doc.get("max_iter", 500), "max_iter"),
            )
        except ValueError as exc:
            raise ConfigError(f"invalid sa block: {exc}") from None


@dataclass
class FitTrace:
    """Per-iteration record of a Robbins-Monro run.

    Row t stores the iterate *after* update t together with the objective
    estimate that produced the update (evaluated at the previous iterate).
    A fit also records ``failures``, its failed contour evaluations, and
    ``evaluations``, the points each iteration evaluated or decided afresh.
    """

    ts: List[int]
    xis: List[np.ndarray]
    objectives: List[np.ndarray]
    xi_final: np.ndarray
    reason: str  # "converged" | "max-iterations"
    failures: int = 0
    evaluations: List[int] = field(default_factory=list)

    def csv_text(self, header=()) -> str:
        """One row per iteration: t, the iterate, then the objective
        estimate, after the ``header`` comment lines."""
        d = self.xi_final.size
        k = self.objectives[0].size if self.objectives else d
        columns = ["t", *(f"xi_{j}" for j in range(d)),
                   *(f"objective_{j}" for j in range(k))]
        rows = [
            ",".join([str(int(t)), *(repr(float(v)) for v in xi),
                      *(repr(float(v)) for v in obj)])
            for t, xi, obj in zip(self.ts, self.xis, self.objectives)
        ]
        return csv_text(header, columns, rows)


def robbins_monro(
    objective: Callable[[np.ndarray, int], np.ndarray],
    x0: Sequence[float],
    config: SAConfig,
    sign: int = +1,
) -> FitTrace:
    """Run the clamped Robbins-Monro recursion until the update stalls.

    ``objective(xi, t)`` returns the (possibly noisy) criterion value at the
    current iterate; components update independently.  Iterates are clamped
    below at 1e-6 to keep the family parameters valid.  Stopping requires
    both t >= min_iter and max-component |update| < epsilon; running out of
    iterations is reported via ``reason`` rather than raised, because a
    max-iterations iterate is still usable.
    """
    xi = np.asarray(x0, dtype=float).copy()
    ts: List[int] = []
    xis: List[np.ndarray] = []
    objs: List[np.ndarray] = []
    reason = "max-iterations"
    for t in range(1, config.max_iter + 1):
        w = default_step(t)
        f = np.atleast_1d(np.asarray(objective(xi, t), dtype=float))
        new = np.maximum(xi + sign * w * f, _XI_FLOOR)
        delta = float(np.max(np.abs(new - xi)))
        xi = new
        ts.append(t)
        xis.append(xi.copy())
        objs.append(f.copy())
        if t >= config.min_iter and delta < config.epsilon:
            reason = "converged"
            break
    return FitTrace(ts=ts, xis=xis, objectives=objs, xi_final=xi.copy(), reason=reason)


def _evaluate(
    contour: PossibilityContour,
    points: np.ndarray,
    rng: np.random.Generator,
    failure_count: Optional[list] = None,
    alpha: Optional[float] = None,
) -> np.ndarray:
    """Contour values at the rows of ``points``, as one batch on ``rng``
    when the contour is seeded; NaN where one failed.

    Given ``alpha``, a contour with a decision evaluator returns its 1/0
    decisions of value > alpha instead, which compare with ``alpha`` as the
    values would.  Failures are tallied into ``failure_count[0]`` when a
    one-element list is supplied.
    """
    rng = None if contour.seed is None else rng
    if alpha is not None and contour.exceeds_batch is not None:
        vals = contour.exceeds_batch(points, alpha, rng)
    else:
        vals = contour.evaluate_batch(points, rng)
    vals = np.asarray(vals, dtype=float).ravel()
    if failure_count is not None:
        failure_count[0] += int(np.sum(np.isnan(vals)))
    return vals


def _stream(contour: PossibilityContour, config: SAConfig, t: int):
    """Iteration t's contour stream, key (t, 0); None for an unseeded contour."""
    return None if contour.seed is None else derive_rng(config.seed, SA_TAG, t, 0)


def f_hat(
    family,
    contour: PossibilityContour,
    alpha: float,
    k: int,
    rng: np.random.Generator,
    eval_rng: Optional[np.random.Generator] = None,
    failure_count: Optional[list] = None,
) -> float:
    """Monte-Carlo credal-mass criterion at the current family, on k fresh
    draws (the Dirichlet fit's; the Gaussian fits use one pool):
    mean(contour > alpha) - (1 - alpha), decided early by a contour with a
    decision evaluator (see the module docstring).  ``eval_rng`` is the
    contour's stream, on which the draws are evaluated as one batch;
    without it the evaluation continues on ``rng``.  A draw whose
    evaluation fails counts as inside the cut, the conservative direction,
    and is tallied into ``failure_count[0]`` when a one-element list is
    supplied.
    """
    draws = np.atleast_2d(sample(family, k, rng))
    vals = _evaluate(contour, draws, rng if eval_rng is None else eval_rng, failure_count, alpha)
    return float(np.mean(np.isnan(vals) | (vals > alpha)) - (1.0 - alpha))


def _pooled_mass(base: GaussianScalarFamily, contour: PossibilityContour,
                 config: SAConfig, failures: list, evaluations: list):
    """The credal-mass objective on one stratified pool of k_outer offsets,
    deciding afresh only the draws that lie strictly between ``inside_to``
    (decided inside at that xi, so inside below it) and ``outside_from``
    (decided outside at that xi, so outside above it); see the module
    docstring.  A failed draw counts as inside and is not remembered."""
    alpha = config.alpha
    offsets = stratified_offsets(base, config.k_outer, derive_rng(config.seed, SA_TAG, 0))
    inside_to = np.zeros(config.k_outer)
    outside_from = np.full(config.k_outer, np.inf)

    def objective(xi: np.ndarray, t: int) -> float:
        xi = float(xi[0])
        live = np.flatnonzero((inside_to < xi) & (xi < outside_from))
        failed = np.zeros(config.k_outer, dtype=bool)
        if live.size:
            vals = _evaluate(contour, base.theta_hat + xi * offsets[live],
                             _stream(contour, config, t), failures, alpha)
            failed[live] = np.isnan(vals)
            inside_to[live[vals > alpha]] = xi
            outside_from[live[vals <= alpha]] = xi
        evaluations.append(int(live.size))
        return float(np.mean(failed | (xi <= inside_to)) - (1.0 - alpha))

    return objective


def _fit(base, contour: PossibilityContour, config: SAConfig):
    """Fit the spread of ``base``, a family at xi = 1, to ``contour`` by
    the criterion its type calls for (see the module docstring)."""
    failures, evaluations = [0], []
    if isinstance(base, GaussianVectorFamily):
        d = base.theta_hat.size

        def objective(xi: np.ndarray, t: int) -> np.ndarray:
            pts = boundary_points(base.with_xi(xi), config.alpha).reshape(2 * d, d)
            vals = _evaluate(contour, pts, _stream(contour, config, t), failures)
            evaluations.append(2 * d)
            pair = np.where(np.isnan(vals), 0.0, vals).reshape(d, 2)
            return np.max(pair, axis=1) - config.alpha
    elif isinstance(base, GaussianScalarFamily):
        objective = _pooled_mass(base, contour, config, failures, evaluations)
    else:
        def objective(xi: np.ndarray, t: int) -> float:
            evaluations.append(config.k_outer)
            return f_hat(base.with_xi(xi), contour, config.alpha, config.k_outer,
                         derive_rng(config.seed, SA_TAG, t),
                         eval_rng=_stream(contour, config, t), failure_count=failures)

    sign = -1 if isinstance(base, DirichletFamily) else +1
    trace = robbins_monro(objective, np.ones(np.size(base.xi)), config, sign=sign)
    trace.failures, trace.evaluations = failures[0], evaluations
    return base.with_xi(trace.xi_final), trace


def _anchor_and_target(model: ModelSpec, data: Dataset, config: SAConfig,
                       contour: Optional[PossibilityContour]):
    """(theta_hat, information, target) of a fit to a model; the target is
    ``contour`` or else the naive contour at m = config.m_inner."""
    theta_hat, info = mle_and_information(model, data)
    if contour is None:
        contour = naive_contour(model, data, config.m_inner, config.seed)
    return theta_hat, info, contour


def fit_scalar(
    model: ModelSpec,
    data: Dataset,
    config: SAConfig,
    contour: Optional[PossibilityContour] = None,
) -> Tuple[GaussianScalarFamily, FitTrace]:
    """Fit the single-spread Gaussian family to a model's contour by the
    pooled credal mass.

    When ``contour`` is omitted the target is the contour the ``naive``
    method builds (:func:`possfit.contours.naive_contour`): the model's
    exact contour, read by value, when it declares one, and otherwise its
    Monte Carlo contour with m = config.m_inner simulations per evaluation,
    seeded from the config so the whole fit is reproducible.
    """
    return fit_scalar_anchored(*_anchor_and_target(model, data, config, contour), config)


def fit_scalar_anchored(
    theta_hat: np.ndarray,
    info: np.ndarray,
    contour: PossibilityContour,
    config: SAConfig,
) -> Tuple[GaussianScalarFamily, FitTrace]:
    """fit_scalar against an explicit anchor and target (no model needed)."""
    return _fit(GaussianScalarFamily(theta_hat=theta_hat, info=info, xi=1.0), contour, config)


def fit_vector(
    model: ModelSpec,
    data: Dataset,
    config: SAConfig,
    contour: Optional[PossibilityContour] = None,
) -> Tuple[GaussianVectorFamily, FitTrace]:
    """Fit the per-axis Gaussian family by matching contour values at the 2d
    points where the credal ellipsoid touches its principal axes.

    Each iteration costs exactly 2d contour evaluations, which is what makes
    this variant usable when every evaluation is itself a Monte-Carlo run.
    Without ``contour`` the target is the one :func:`fit_scalar` takes.
    """
    return fit_vector_anchored(*_anchor_and_target(model, data, config, contour), config)


def fit_vector_anchored(
    theta_hat: np.ndarray,
    info: np.ndarray,
    contour: PossibilityContour,
    config: SAConfig,
) -> Tuple[GaussianVectorFamily, FitTrace]:
    """fit_vector against an explicit anchor and target (no model needed)."""
    base = GaussianVectorFamily(theta_hat=theta_hat, info=info,
                                xi=np.ones(np.size(theta_hat)))
    return _fit(base, contour, config)


def fit_dirichlet(
    model: ModelSpec,
    data: Dataset,
    config: SAConfig,
    contour: Optional[PossibilityContour] = None,
) -> Tuple[DirichletFamily, FitTrace]:
    """Fit the Dirichlet family (mean fixed at the observed proportions) to a
    multinomial contour by the credal mass on fresh draws.  Spread *shrinks*
    as xi grows (the concentration is n * xi * mean), so the update
    direction is flipped.  Without ``contour`` the target is the one
    :func:`fit_scalar` takes.
    """
    theta_hat, _, contour = _anchor_and_target(model, data, config, contour)
    return _fit(DirichletFamily(mean=theta_hat, n=float(data.n), xi=1.0), contour, config)
