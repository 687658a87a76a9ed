"""Replicated simulation studies over possibility contours.

Three study types share one scenario description: empirical validity checks
(the distribution of the contour evaluated at the true parameter), calibration
curves for the possibility assigned to fixed true hypotheses, and a
timing/accuracy comparison of the naive contour against a fitted variational
family on a common grid.  Every contour is built by :func:`build_contour`.

Randomness contract
-------------------
Every stream is derived from the scenario's master seed, so reports are
reproducible bit-for-bit regardless of thread count or completion order.  For
replication ``r``:

    data stream          derive_rng(seed, CAL_TAG, r, 1)
    child seed           derive_rng(seed, CAL_TAG, r, 2).integers(2**63)
    timing child seed    derive_rng(seed, CAL_TAG, r, 3, METHODS.index(method))
                         .integers(2**63)
    hypothesis search    derive_rng(seed, CAL_TAG, r, 4, k).integers(2**63)

The child seed seeds the replication's contour object or stochastic fit.  The
timing study keys its child stream by the contour *method* rather than by
pair position, so comparing a method against itself reproduces identical
contours (and an exactly zero L1 distance).

Wall-clock figures cover contour construction and evaluation only — dataset
generation and process startup are excluded — and the timing study runs both
methods sequentially in the same process so the ratio is meaningful.

Reports render text, never files: ``to_json_dict`` and ``csv_text`` hold what
a rerun reproduces, so the wall-clock ``timings`` stay on the object, and the
command line (:mod:`possfit.cli`) writes the files.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from ._render import csv_text
from ._rng import CAL_TAG, derive_rng
from .contours import (
    AxisSpec,
    ConfigError,
    config_fields,
    config_float,
    config_floats,
    config_int,
    config_keys,
    grid_eval,
    make_exact_contour,
    naive_contour,
    ordered_map,
)
from .families import (
    GaussianScalarFamily,
    GaussianVectorFamily,
    gaussian_contour_object,
)
from .inference import Hypothesis, upper_probability
from .models import (
    Dataset,
    ModelSpec,
    domain_violation,
    log_reparam,
    mle_and_information,
)
from . import models as _models
from .nuisance import (
    kaplan_meier_swapped,
    make_censored_contour,
    make_empirical_risk_contour,
    quantile_risk_spec,
)
from .sa import SAConfig, fit_scalar, fit_vector

__all__ = [
    "METHODS",
    "DEFAULT_ALPHA_GRID",
    "POISSON_DESIGN_SEED",
    "Scenario",
    "StudyError",
    "CalibrationReport",
    "HypothesisCalibrationResult",
    "TimingAccuracyResult",
    "build_model",
    "build_contour",
    "check_support",
    "search_family",
    "variational_fit",
    "model_from_id",
    "empirical_cdf",
    "poisson_study_design",
    "validity_study",
    "hypothesis_calibration",
    "timing_accuracy_study",
]

#: contour-construction methods a scenario may name
METHODS = (
    "naive",
    "variational-scalar",
    "variational-vector",
    "bootstrap",
    "censored",
)

#: default levels for reported empirical CDFs: 0.01, 0.02, ..., 0.99
DEFAULT_ALPHA_GRID = np.round(np.arange(1, 100) / 100.0, 2)

#: seed for the fixed covariate matrix of the Poisson regression study
POISSON_DESIGN_SEED = 0x706F6973


class StudyError(RuntimeError):
    """Too many replications failed for the report to be trustworthy."""

    def __init__(self, message: str, failures: Sequence = ()):
        super().__init__(message)
        self.failures = tuple(failures)


# ---------------------------------------------------------------------------
# the fixed Poisson study design
# ---------------------------------------------------------------------------


def poisson_study_design(n: int, seed: int = POISSON_DESIGN_SEED) -> np.ndarray:
    """Intercept plus two columns of correlation 0.6, generated once per (n, seed).

    Each covariate column is scaled to sum zero and mean square one, then held
    fixed across every replication of a study; regenerating with the same
    arguments reproduces the matrix exactly.
    """
    n = int(n)
    if n < 3:
        raise ValueError("the study design needs at least 3 observations")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), n)))
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    z = rng.multivariate_normal(np.zeros(2), cov, size=n)
    z = z - z.mean(axis=0)
    z = z / np.sqrt(np.mean(z * z, axis=0))
    return np.column_stack([np.ones(n), z])


# ---------------------------------------------------------------------------
# model registry: id -> builder(n, model_kwargs)
# ---------------------------------------------------------------------------


def _poisson_design_for(n, kw) -> np.ndarray:
    if "design" in kw:
        if "design_seed" in kw:
            raise ConfigError("design_seed seeds the study design, which an "
                              "explicit design replaces; give one or the other")
        design = config_floats(kw["design"], "design")
        if np.ndim(design) != 2 or (n is not None and design.shape[0] != n):
            raise ConfigError("design must be an (n, p) matrix")
        return design
    if n is None:
        raise ConfigError(
            "poisson-loglinear needs n or an explicit design matrix"
        )
    seed = config_int(kw.get("design_seed", POISSON_DESIGN_SEED), "design_seed")
    return poisson_study_design(n, seed=seed)


def _lasso_lam(n, kw):
    sigma = config_float(kw.get("sigma", 1.0), "sigma")
    if "lam" in kw:
        return sigma, config_float(kw["lam"], "lam")
    if n is None:
        raise ConfigError(
            "normal-means-lasso needs n or an explicit model_kwargs['lam']"
        )
    return sigma, math.sqrt(sigma * sigma * math.log(n))


_REGISTRY = {
    "binomial": lambda n, kw: _models.binomial(),
    "bvn-correlation": lambda n, kw: _models.bvn_correlation(),
    "gamma": lambda n, kw: _models.gamma_shape_scale(),
    "gamma-mean-shape": lambda n, kw: _models.gamma_mean_shape(),
    "lognormal": lambda n, kw: _models.lognormal(),
    "lognormal-censored": lambda n, kw: _models.lognormal_censored(),
    "normal-means": lambda n, kw: _models.normal_means(
        config_float(kw.get("sigma", 1.0), "sigma")),
    "normal-means-lasso": lambda n, kw: _models.normal_means_lasso(*_lasso_lam(n, kw)),
    "poisson-loglinear": lambda n, kw: _models.poisson_loglinear(_poisson_design_for(n, kw)),
    "logistic": lambda n, kw: _models.logistic_regression(
        config_floats(kw["design"], "design")),
}

#: the model_kwargs keys each model reads; :func:`model_from_id` rejects others
_MODEL_KEYS = {
    "normal-means": ("sigma",),
    "normal-means-lasso": ("sigma", "lam"),
    "poisson-loglinear": ("design", "design_seed"),
    "logistic": ("design",),
}

#: the model_kwargs keys a study's contour method reads, kept from the model
_METHOD_KEYS = {"bootstrap": ("tau", "B"), "censored": ("limits",)}


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One replicated study: a model, a truth, and a contour method.

    ``truth`` is the parameter the data are generated from and the contour is
    evaluated at; for the ``bootstrap`` method it is instead the functional
    value under scrutiny (e.g. the target quantile) and ``data_params`` names
    the generating parameter; no other method reads ``data_params``, and
    giving it to one is a :class:`ConfigError`.  ``m`` is the Monte Carlo
    size of naive and censored contour evaluations (and of the inner
    evaluations in the timing study); the variational methods read their
    own ``sa.m_inner``.  With ``log_params`` the model is refit on
    log-parameters and the contour is evaluated at ``log(truth)``.  ``model_kwargs`` holds only keys the model
    or the method reads (``_MODEL_KEYS``, ``_METHOD_KEYS``).  ``n``, ``reps``,
    ``seed`` and ``m`` must be integers and ``log_params`` a bool, as in a
    run config.
    """

    model_id: str
    truth: tuple
    n: int
    reps: int
    method: str
    seed: int
    sa: Optional[SAConfig] = None
    grid: Optional[tuple] = None
    m: int = 500
    log_params: bool = False
    data_params: Optional[tuple] = None
    model_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        coerce = lambda v: tuple(
            float(t) for t in np.atleast_1d(np.asarray(v, dtype=float))
        )
        object.__setattr__(self, "truth", coerce(self.truth))
        if self.data_params is not None:
            object.__setattr__(self, "data_params", coerce(self.data_params))
        object.__setattr__(self, "model_kwargs", dict(self.model_kwargs))
        config_fields(self)
        if self.grid is not None:
            axes = tuple(self.grid)
            if not axes or not all(isinstance(a, AxisSpec) for a in axes):
                raise ConfigError("grid must be a sequence of AxisSpec")
            object.__setattr__(self, "grid", axes)

        _check_model_id(self.model_id)
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown contour method {self.method!r}; "
                f"expected one of {METHODS}"
            )
        if self.reps < 1:
            raise ConfigError("reps must be at least 1")
        if self.n < 1 or self.m < 1:
            raise ConfigError("n and m must be at least 1")
        model = model_from_id(self.model_id, self.n, _model_kwargs(self))
        if self.method.startswith("variational"):
            if not isinstance(self.sa, SAConfig):
                raise ConfigError(
                    f"method {self.method!r} requires an SAConfig"
                )
        if self.data_params is not None and self.method != "bootstrap":
            raise ConfigError(
                f"data_params is read only by the bootstrap method; the "
                f"{self.method} method draws its data at truth"
            )
        if self.method == "bootstrap":
            kw = self.model_kwargs
            _bootstrap_spec(kw.get("tau"), kw.get("B", 500))
            if self.data_params is None:
                raise ConfigError(
                    "bootstrap method needs data_params (the generating "
                    "parameter; truth is the functional value)"
                )
            if len(self.truth) != 1 or not np.isfinite(self.truth[0]):
                raise ConfigError(
                    "bootstrap truth must be a single finite functional value"
                )
        if self.method == "censored":
            if model.censored_sim is None:
                raise ConfigError(
                    "censored method needs a model that declares a censored "
                    "simulator, such as lognormal-censored"
                )
            limits = np.ravel(config_floats(self.model_kwargs.get("limits", ()), "limits"))
            if limits.size == 0 or not np.all(
                np.isfinite(limits) & (limits > 0.0)
            ):
                raise ConfigError(
                    "censored method needs positive detection limits under "
                    "model_kwargs['limits']"
                )
        if self.log_params:
            if self.method in ("bootstrap", "censored"):
                raise ConfigError(
                    f"log_params is not meaningful for the {self.method} "
                    "method"
                )
            if not all(t > 0.0 for t in self.truth):
                raise ConfigError(
                    "log_params needs strictly positive truth coordinates"
                )

        target = self.data_params if self.method == "bootstrap" else self.truth
        msg = domain_violation(model, target, self.n)
        if msg is not None:
            raise ConfigError(
                f"truth outside the model domain: {self.model_id} needs {msg}"
            )

    @property
    def truth_eval(self) -> np.ndarray:
        """The point the contour is evaluated at (log scale if requested)."""
        arr = np.asarray(self.truth, dtype=float)
        return np.log(arr) if self.log_params else arr

    # -- run-config (JSON) round trip ---------------------------------------

    def to_config(self) -> dict:
        sa = None if self.sa is None else asdict(self.sa)
        grid = None if self.grid is None else [asdict(a) for a in self.grid]
        return {
            "model": self.model_id,
            "truth": list(self.truth),
            "n": self.n,
            "reps": self.reps,
            "method": self.method,
            "seed": self.seed,
            "m": self.m,
            "log_params": self.log_params,
            "data_params": None
            if self.data_params is None
            else list(self.data_params),
            "model_kwargs": dict(self.model_kwargs),
            "sa": sa,
            "grid": grid,
        }

    @classmethod
    def from_config(cls, config: dict) -> "Scenario":
        """The scenario a run config describes: a field's key is its name,
        but ``model`` is the model id, ``truth`` and ``data_params`` are
        lists of numbers, and ``sa`` and ``grid`` are config blocks."""
        for key in ("model", "truth", "n", "reps", "method", "seed"):
            if key not in config:
                raise ConfigError(f"run config missing required key {key!r}")
        try:
            doc = {f.name: config[f.name] for f in fields(cls) if f.name in config}
            doc.update(
                model_id=config["model"],
                truth=tuple(config_floats(config["truth"], "truth")),
                sa=None if config.get("sa") is None else SAConfig.from_dict(config["sa"]),
                grid=None if config.get("grid") is None
                else tuple(AxisSpec.from_dict(g) for g in config["grid"]),
                data_params=None if config.get("data_params") is None
                else tuple(config_floats(config["data_params"], "data_params")),
            )
            return cls(**doc)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid run config: {exc!r}") from None


def _check_model_id(model_id) -> None:
    if not isinstance(model_id, str) or model_id not in _REGISTRY:
        raise ConfigError(
            f"unknown model id {model_id!r}; "
            f"expected one of {sorted(_REGISTRY)}"
        )


def model_from_id(
    model_id: str,
    n: Optional[int] = None,
    model_kwargs: Optional[dict] = None,
    log_params: bool = False,
) -> ModelSpec:
    """Instantiate a registered model outside of any scenario; a key the
    model does not read, or settings it rejects, raise :class:`ConfigError`."""
    _check_model_id(model_id)
    kw = model_kwargs or {}
    config_keys(kw, _MODEL_KEYS.get(model_id, ()), f"the {model_id} model's model_kwargs")
    try:
        base = _REGISTRY[model_id](None if n is None else int(n), kw)
    except KeyError as exc:
        raise ConfigError(f"the {model_id} model needs model_kwargs[{exc}]") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"invalid settings for the {model_id} model: {exc}"
        ) from None
    return log_reparam(base) if log_params else base


def _model_kwargs(scenario: Scenario) -> dict:
    """The scenario's model_kwargs without the keys its method reads."""
    method_keys = _METHOD_KEYS.get(scenario.method, ())
    return {k: v for k, v in scenario.model_kwargs.items() if k not in method_keys}


def build_model(scenario: Scenario) -> ModelSpec:
    """The scenario's model, wrapped to log-parameters when requested."""
    return model_from_id(
        scenario.model_id,
        scenario.n,
        _model_kwargs(scenario),
        scenario.log_params,
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def empirical_cdf(values, alphas) -> np.ndarray:
    """P{value <= alpha} under the empirical distribution of ``values``."""
    vals = np.sort(np.asarray(values, dtype=float).ravel())
    if vals.size == 0:
        raise ValueError("empirical CDF needs at least one value")
    return np.searchsorted(
        vals, np.asarray(alphas, dtype=float), side="right"
    ) / vals.size


def _json_floats(arr) -> list:
    return [None if not np.isfinite(v) else float(v) for v in arr]


@dataclass
class CalibrationReport:
    """Result of a validity study.

    ``values`` holds the sorted contour-at-truth draws from the successful
    replications; ``timings`` has one wall-clock entry per replication (NaN
    where the replication failed), which the renderings leave out so that a
    rerun reproduces them byte for byte.
    """

    scenario: dict
    values: np.ndarray
    alphas: np.ndarray
    cdf: np.ndarray
    timings: np.ndarray
    failures: tuple = ()

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        self.alphas = np.asarray(self.alphas, dtype=float).ravel()
        self.cdf = np.asarray(self.cdf, dtype=float).ravel()
        self.timings = np.asarray(self.timings, dtype=float).ravel()
        self.failures = tuple(
            (int(i), str(msg)) for i, msg in self.failures
        )
        if np.any(np.diff(self.values) < 0):
            raise ValueError("contour-at-truth values must be sorted")
        if self.alphas.shape != self.cdf.shape:
            raise ValueError("alphas and cdf must have matching lengths")
        if np.any((self.cdf < 0.0) | (self.cdf > 1.0)):
            raise ValueError("empirical CDF values must lie in [0, 1]")
        if np.any(np.diff(self.cdf) < 0):
            raise ValueError("empirical CDF must be nondecreasing in alpha")

    def cdf_at(self, alpha: float) -> float:
        """Exact empirical CDF at one level (not interpolated from the grid)."""
        return float(
            np.searchsorted(self.values, float(alpha), side="right")
        ) / self.values.size

    def to_json_dict(self) -> dict:
        return {
            "report": "validity",
            "scenario": self.scenario,
            "alphas": [float(a) for a in self.alphas],
            "cdf": [float(c) for c in self.cdf],
            "values": [float(v) for v in self.values],
            "failures": [[i, msg] for i, msg in self.failures],
        }

    def csv_text(self, header=()) -> str:
        """alpha,cdf rows after the ``header`` comment lines."""
        rows = [f"{float(a)!r},{float(c)!r}" for a, c in zip(self.alphas, self.cdf)]
        return csv_text(header, ["alpha", "cdf"], rows)


@dataclass
class HypothesisCalibrationResult:
    """Per-hypothesis CDF curves of the assigned possibility at the truth;
    like :class:`CalibrationReport`, its renderings leave out ``timings``."""

    scenario: dict
    hypotheses: tuple
    alphas: np.ndarray
    values: tuple
    curves: np.ndarray
    timings: np.ndarray
    failures: tuple = ()

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float).ravel()
        self.curves = np.atleast_2d(np.asarray(self.curves, dtype=float))
        self.values = tuple(
            np.asarray(v, dtype=float).ravel() for v in self.values
        )
        self.timings = np.asarray(self.timings, dtype=float).ravel()
        self.failures = tuple(
            (int(i), str(msg)) for i, msg in self.failures
        )
        if self.curves.shape != (len(self.hypotheses), self.alphas.size):
            raise ValueError("curves must be (hypotheses, alphas)-shaped")
        if np.any((self.curves < 0.0) | (self.curves > 1.0)):
            raise ValueError("empirical CDF values must lie in [0, 1]")
        if np.any(np.diff(self.curves, axis=1) < 0):
            raise ValueError("empirical CDF must be nondecreasing in alpha")

    def to_json_dict(self) -> dict:
        return {
            "report": "hypothesis-calibration",
            "scenario": self.scenario,
            "hypotheses": list(self.hypotheses),
            "alphas": [float(a) for a in self.alphas],
            "curves": [[float(c) for c in row] for row in self.curves],
            "values": [[float(v) for v in vals] for vals in self.values],
            "failures": [[i, msg] for i, msg in self.failures],
        }

    def csv_text(self, header=()) -> str:
        """One row per level: alpha, then each hypothesis's CDF value,
        after the ``header`` comment lines."""
        columns = ["alpha", *(f"cdf_{j + 1}" for j in range(len(self.hypotheses)))]
        rows = [
            ",".join(repr(float(v)) for v in (a, *col))
            for a, col in zip(self.alphas, self.curves.T)
        ]
        return csv_text(header, columns, rows)


@dataclass
class TimingAccuracyResult:
    """Naive-vs-variational comparison on shared datasets and grids."""

    naive_scenario: dict
    approx_scenario: dict
    relative_time: float
    mean_l1: float
    ratios: np.ndarray
    l1: np.ndarray
    naive_seconds: np.ndarray
    approx_seconds: np.ndarray

    def __post_init__(self):
        for name in ("ratios", "l1", "naive_seconds", "approx_seconds"):
            setattr(
                self, name, np.asarray(getattr(self, name), dtype=float)
            )

    def to_json_dict(self) -> dict:
        return {
            "report": "timing-accuracy",
            "naive_scenario": self.naive_scenario,
            "approx_scenario": self.approx_scenario,
            "relative_time": float(self.relative_time),
            "mean_l1": float(self.mean_l1),
            "ratios": _json_floats(self.ratios),
            "l1": _json_floats(self.l1),
            "naive_seconds": _json_floats(self.naive_seconds),
            "approx_seconds": _json_floats(self.approx_seconds),
        }


# ---------------------------------------------------------------------------
# replication machinery
# ---------------------------------------------------------------------------


def _child_seed(master: int, *key: int) -> int:
    return int(derive_rng(master, CAL_TAG, *key).integers(2 ** 63))


def _simulate(scenario: Scenario, model: ModelSpec,
              rng: np.random.Generator) -> Dataset:
    """One dataset of the scenario, censored at the detection limits for the
    censored method.  Responses off the model's sample space (a sampler
    that underflows, say) raise a RuntimeError, a failure of this
    replication; bootstrap data are not checked, as in :func:`build_contour`."""
    if scenario.method == "bootstrap":
        return model.sample(np.asarray(scenario.data_params, dtype=float), scenario.n, rng)
    data = model.sample(scenario.truth_eval, scenario.n, rng)
    if scenario.method == "censored":
        y = data.responses
        limits = np.resize(
            np.asarray(scenario.model_kwargs["limits"], dtype=float), scenario.n
        )
        data = Dataset(responses=np.maximum(y, limits), censor=(y >= limits).astype(int))
    ok, rule = model.support(data.responses)
    if not ok:
        raise RuntimeError(
            f"simulated responses outside the {model.name} sample space: needs {rule}")
    return data


def _bootstrap_spec(tau, B):
    """The quantile risk spec of the bootstrap settings: a level tau in
    (0, 1) and an integer count B >= 1 of resamples; a ConfigError
    names a bad setting."""
    if tau is None:
        raise ConfigError("the bootstrap method needs a quantile level tau")
    try:
        return quantile_risk_spec(config_float(tau, "tau"), config_int(B, "B"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid bootstrap settings: {exc}") from None


def variational_fit(method: str, model: ModelSpec, data: Dataset,
                    sa: Optional[SAConfig], seed: int):
    """``(family, trace)`` of ``fit_scalar`` for ``variational-scalar`` or
    ``fit_vector`` for ``variational-vector``, run with ``sa`` reseeded by
    ``seed``; any other method, no ``sa``, or responses off the model's
    sample space raise :class:`ConfigError`."""
    if method not in ("variational-scalar", "variational-vector"):
        raise ConfigError("fit method must be variational-scalar or "
                          f"variational-vector, got {method!r}")
    if sa is None:
        raise ConfigError(f"method {method!r} requires an 'sa' block (SAConfig)")
    check_support(model, data)
    fit = fit_scalar if method == "variational-scalar" else fit_vector
    return fit(model, data, replace(sa, seed=seed))


def check_support(model: ModelSpec, data: Dataset) -> None:
    """A :class:`ConfigError` unless the data's responses lie in the
    model's sample space (``model.support``)."""
    ok, rule = model.support(data.responses)
    if not ok:
        raise ConfigError(f"responses outside the {model.name} sample space: needs {rule}")


def build_contour(method: str, model: ModelSpec, data: Dataset, seed: int, *,
                  m: int, sa: Optional[SAConfig] = None, tau=None, B: int = 500):
    """The contour ``method`` names for one dataset.  A variational
    method's contour is the closed-form contour of its fitted family and
    carries it (``contour.family``); the other contours carry none.

    What the model declares decides the construction: ``exact`` needs an
    ``exact_contour_for`` hook, and ``naive`` is :func:`naive_contour`, the
    exact contour where the model declares one and otherwise the Monte
    Carlo contour of size ``m``.  ``censored`` needs a
    ``censored_sim`` hook, ``bootstrap`` a quantile level ``tau`` (with
    ``B`` resamples) and a vector of responses, and the variational methods
    an ``sa`` config.
    ``seed`` seeds the contour's streams or the fit.  A method the model
    cannot serve, ``m`` below 1, or responses off the model's sample space
    (:func:`check_support`; not for ``bootstrap``, whose contour reads the
    responses alone) raise :class:`ConfigError`.
    """
    if m < 1:
        raise ConfigError(f"m must be at least 1, got {m}")
    if method != "bootstrap":
        check_support(model, data)
    if method == "exact":
        if model.exact_contour_for is None:
            raise ConfigError(
                f"the exact contour is not available for the {model.name} model"
            )
        return make_exact_contour(model, data)
    if method == "naive":
        return naive_contour(model, data, m, seed)
    if method in ("variational-scalar", "variational-vector"):
        return gaussian_contour_object(variational_fit(method, model, data, sa, seed)[0])
    if method == "bootstrap":
        spec = _bootstrap_spec(tau, B)
        try:
            return make_empirical_risk_contour(data, spec, seed=seed)
        except ValueError as exc:
            raise ConfigError(f"the bootstrap method: {exc}") from None
    if method == "censored":
        if model.censored_sim is None:
            raise ConfigError(
                f"the censored method needs a censored simulator, which the "
                f"{model.name} model does not declare"
            )
        ghat = kaplan_meier_swapped(data)
        return make_censored_contour(model, data, ghat, m, seed=seed)
    raise ConfigError(
        f"unknown contour method {method!r}; expected exact, naive, "
        "variational-scalar, variational-vector, bootstrap, or censored"
    )


def _run_replications(reps: int, threads: int, fn):
    """Index-ordered results; identical for any thread count."""
    return ordered_map(fn, range(reps), int(threads or 1))


def _replicate(scenario: Scenario, model: ModelSpec, threads: int, measure):
    """``(values, timings, failures)`` over the scenario's replications.

    Replication ``r`` simulates its data, builds the scenario's contour on
    its child seed and returns ``measure(contour, data, r)``, timed
    with the contour; ``values`` lists the successful results in order.  A
    failure is recorded as ``(r, message)`` with a NaN timing; more than 5%
    of them raise :class:`StudyError`.  A :class:`ConfigError` is raised.
    """
    kw = scenario.model_kwargs

    def rep(r: int):
        try:
            data = _simulate(scenario, model, derive_rng(scenario.seed, CAL_TAG, r, 1))
            child = _child_seed(scenario.seed, r, 2)
            start = perf_counter()
            contour = build_contour(
                scenario.method, model, data, child, m=scenario.m,
                sa=scenario.sa, tau=kw.get("tau"), B=kw.get("B", 500))
            value = measure(contour, data, r)
            return value, perf_counter() - start, None
        except ConfigError:
            raise
        except Exception as exc:  # recorded, not fatal
            return None, np.nan, f"{type(exc).__name__}: {exc}"

    rows = _run_replications(scenario.reps, threads, rep)
    failures = tuple((r, msg) for r, (_, _, msg) in enumerate(rows) if msg is not None)
    if len(failures) > 0.05 * scenario.reps:
        raise StudyError(f"{len(failures)} of {scenario.reps} replications failed "
                         f"(more than 5%); first failure: {failures[0][1]}", failures=failures)
    values = [v for v, _, msg in rows if msg is None]
    return values, np.array([t for _, t, _ in rows], dtype=float), failures


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def _alpha_grid(alphas) -> np.ndarray:
    """A study's alphas (``DEFAULT_ALPHA_GRID`` for None); a ConfigError
    unless they are in nondecreasing order, as its CDF is read off them."""
    grid = np.asarray(DEFAULT_ALPHA_GRID if alphas is None else alphas, dtype=float).ravel()
    if not np.all(np.diff(grid) >= 0.0):
        raise ConfigError(f"alphas must be in nondecreasing order, got {grid.tolist()}")
    return grid


def validity_study(
    scenario: Scenario, alphas=None, threads: int = 1
) -> CalibrationReport:
    """Distribution of the contour at the truth over ``reps`` replications.

    Per-replication failures are recorded on the report rather than raised;
    more than 5% of them abort the study with :class:`StudyError`.  A
    :class:`ConfigError`, a scenario no replication can run, is raised.
    """
    model, alphas = build_model(scenario), _alpha_grid(alphas)

    def measure(contour, data, r):
        value = float(contour(scenario.truth_eval))
        if np.isnan(value):  # a Monte Carlo evaluation whose kernel raised
            raise RuntimeError("contour evaluation at the truth failed")
        return value

    values, timings, failures = _replicate(scenario, model, threads, measure)
    values = np.sort(values)
    return CalibrationReport(
        scenario=scenario.to_config(),
        values=values,
        alphas=alphas,
        cdf=empirical_cdf(values, alphas),
        timings=timings,
        failures=failures,
    )


def search_family(method: str, contour, model: ModelSpec, data: Dataset):
    """The proposal family of a search over ``method``'s ``contour``: the
    family the contour carries, else the model's Gaussian at the MLE and
    observed information (xi = 1).  A :class:`ConfigError` names
    ``method`` when its dimension is not the contour's."""
    family = contour.family
    if family is None:
        theta_hat, info = mle_and_information(model, data)
        family = (GaussianScalarFamily(theta_hat=theta_hat, info=info)
                  if theta_hat.size == 1 else
                  GaussianVectorFamily(theta_hat=theta_hat, info=info,
                                       xi=np.ones(theta_hat.size)))
    _check_search_dim(method, family.dim, contour.dim)
    return family


def _check_search_dim(method: str, family_dim: int, contour_dim: int) -> None:
    """A :class:`ConfigError` naming ``method`` unless the family that
    hypothesis searches run on has the contour's dimension."""
    if family_dim != contour_dim:
        raise ConfigError(
            f"the {method} method has no proposal family of dimension "
            f"{contour_dim} to search with"
        )


def hypothesis_calibration(
    scenario: Scenario,
    hypotheses: Sequence[Hypothesis],
    alphas=None,
    threads: int = 1,
) -> HypothesisCalibrationResult:
    """CDF curves of the possibility assigned to fixed true hypotheses.

    Hypotheses live in the contour's space, that of the scenario truth (a
    functional value for the bootstrap method), and the search runs on a
    family of the model's dimension; either mismatch is a configuration
    error, raised before any replication.  Every hypothesis must contain
    the scenario truth — the study measures calibration on true hypotheses,
    so a false one is a configuration error too.
    """
    hyps = tuple(hypotheses)
    if not hyps:
        raise ConfigError("needs at least one hypothesis")
    model, alphas = build_model(scenario), _alpha_grid(alphas)
    truth_pt = np.atleast_2d(scenario.truth_eval)
    dim = truth_pt.shape[1]
    for k, h in enumerate(hyps):
        if h.dim != dim:
            raise ConfigError(
                f"hypothesis {k + 1} has dimension {h.dim}, expected {dim}"
            )
    _check_search_dim(
        scenario.method, model.dim if model.dim is not None else scenario.n, dim
    )
    for k, h in enumerate(hyps):
        if not bool(h.contains(truth_pt)[0]):
            raise ConfigError(
                f"hypothesis {k + 1} ({h.describe()}) is not "
                "true at the scenario truth"
            )

    def measure(contour, data, r):
        family = search_family(scenario.method, contour, model, data)
        vals = np.empty(len(hyps))
        for k, h in enumerate(hyps):
            result = upper_probability(
                contour,
                h,
                family=family,
                seed=_child_seed(scenario.seed, r, 4, k),
            )
            if np.isnan(result.value):  # a Monte Carlo evaluation whose kernel raised
                raise RuntimeError(f"possibility of hypothesis {k + 1} failed")
            vals[k] = min(max(result.value, 0.0), 1.0)
        return vals

    ok, timings, failures = _replicate(scenario, model, threads, measure)
    values = tuple(np.sort(np.array(ok, dtype=float), axis=0).T)
    curves = np.vstack([empirical_cdf(v, alphas) for v in values])
    return HypothesisCalibrationResult(
        scenario=scenario.to_config(),
        hypotheses=tuple(h.describe() for h in hyps),
        alphas=alphas,
        values=values,
        curves=curves,
        timings=timings,
        failures=failures,
    )


_TIMEABLE = ("naive", "variational-scalar", "variational-vector")


def timing_accuracy_study(
    naive_scenario: Scenario, approx_scenario: Scenario
) -> TimingAccuracyResult:
    """Wall-time ratio and L1 distance between two contour methods.

    Both scenarios must describe the same model, truth, sample size,
    replication count, master seed, and evaluation grid; each replication
    generates one shared dataset, evaluates both contours on the grid, and
    reports naive-time / approx-time along with the Riemann-sum L1 distance.
    Replications run sequentially so the wall times stay comparable.

    Each side is :func:`build_contour` of its method, so the naive side is
    :func:`naive_contour`: the model's exact contour when it declares one
    (``exact_contour_for``; the binomial does) and the Monte Carlo contour
    of size ``m`` otherwise.  A variational side fits against that same
    contour, with its ``sa.m_inner`` set to ``m``, so for a model with an
    exact contour both sides read it by value and neither simulates.
    """
    pair = (naive_scenario, approx_scenario)
    for scn in pair:
        if scn.method not in _TIMEABLE:
            raise ConfigError(
                f"method {scn.method!r} cannot enter a timing study; "
                f"expected one of {_TIMEABLE}"
            )
        if scn.grid is None:
            raise ConfigError(
                "timing study scenarios need an evaluation grid"
            )
    for attr in ("model_id", "truth", "n", "reps", "seed", "m",
                 "log_params", "model_kwargs", "grid"):
        a, b = getattr(naive_scenario, attr), getattr(approx_scenario, attr)
        if a != b:
            raise ConfigError(
                f"timing study scenarios must share {attr}: {a!r} != {b!r}"
            )

    model = build_model(naive_scenario)
    axes = naive_scenario.grid
    volume = float(np.prod([a.hi - a.lo for a in axes]))

    l1, seconds = np.empty(naive_scenario.reps), np.empty((2, naive_scenario.reps))
    for r in range(naive_scenario.reps):
        data = _simulate(naive_scenario, model, derive_rng(naive_scenario.seed, CAL_TAG, r, 1))
        sides = []
        for j, scn in enumerate(pair):
            child = _child_seed(naive_scenario.seed, r, 3, METHODS.index(scn.method))
            start = perf_counter()
            sa = None if scn.sa is None else replace(scn.sa, m_inner=scn.m)
            contour = build_contour(scn.method, model, data, child, m=scn.m, sa=sa)
            sides.append(grid_eval(contour, axes).values.ravel())
            seconds[j, r] = perf_counter() - start
        l1[r] = float(np.mean(np.abs(sides[1] - sides[0])) * volume)
    ratios = seconds[0] / seconds[1]
    return TimingAccuracyResult(
        naive_scenario=naive_scenario.to_config(),
        approx_scenario=approx_scenario.to_config(),
        relative_time=float(np.mean(ratios)),
        mean_l1=float(np.mean(l1)),
        ratios=ratios,
        l1=l1,
        naive_seconds=seconds[0],
        approx_seconds=seconds[1],
    )
