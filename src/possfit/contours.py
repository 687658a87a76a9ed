"""Possibility contours: exact enumeration, Monte Carlo, grids.

The central object is :class:`PossibilityContour`, a thin wrapper around one
batch evaluator ``evaluate_batch(thetas, rng) -> values`` and metadata; its
point evaluator ``evaluate(theta, rng)`` is a batch of one.  A batch
evaluates its points in order on ``rng`` (one Generator for every row, or
a list of one per row) and gives NaN for a point whose evaluation failed.
Stochastic contours carry a seed; a set of keyed points is one batch
(:meth:`PossibilityContour.evaluate_keyed`), each row on a Generator derived
from that seed and its key, the grid-node index (:func:`grid_eval`) or the
bit pattern of the point itself (:meth:`PossibilityContour.__call__`),
so values never depend on batching, evaluation order or thread scheduling:
a kernel call packs the rows of several streams and gives each the values
of its own call (:mod:`possfit.models`).  The stochastic-approximation
fits evaluate an iteration's points as one batch on one stream, keyed
``(t, 0)`` (:mod:`possfit.sa`); the profile contour simulates the fiber
probes of a batch as one batch, each on its point's Generator.
The bootstrap and Dirichlet contours, whose reference law does not depend
on theta, draw one reference sample from their seed and are deterministic
lookups in it (:func:`_lookup_batch`), with seed None and the seed in meta.
The factories here are :func:`make_exact_contour` (with
:func:`make_exact_binomial`) and :func:`make_mc_contour`;
:func:`naive_contour` is the rule between them, the exact contour where
the model declares one and the Monte Carlo contour otherwise.  A
:class:`ContourGrid` renders itself as CSV and JSON text under a header the
caller gives; the command line writes the files.

A Monte Carlo contour also carries a batch decision evaluator,
``exceeds_batch(thetas, alpha, rng)``, for callers that read only the
indicator 1{pi(theta) > alpha}.  It simulates the datasets of the live
points chunk by chunk and drops a point as soon as its indicator is decided,
by one of two rules.  Exact curtailment: its count of included datasets
exceeds the largest count whose share is still <= alpha, or the datasets
left can no longer take it there; such a decision equals ``value > alpha``
of the value the same draws give when all m datasets are simulated.  A
sequential probability ratio test with an indifference zone (Wald 1945;
Gandy & Hahn 2014): at each checkpoint before the last chunk, Wald's test of
p = alpha - delta against p = alpha + delta, p being the chance that one
dataset is included, decides the point 0 or 1 (:func:`_decision_bounds`).
A point with |p - alpha| >= delta is decided on the wrong side early with
probability at most ``_DECISION_RISK``; one inside the band may be decided
otherwise than on all m datasets.  README "Determinism" states the band and
the risk.  A point neither rule decides early is decided on all m datasets.

Ties in the Monte Carlo comparison ``R(X, theta) <= R(x, theta)`` are decided
on the log scale with an absolute slack of ``TIE_EPS``, counting ties (and
replicates whose refitting failed) as included — the conservative direction.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from ._render import csv_text, json_text
from ._rng import NODE_TAG, THETA_TAG, derive_rng, theta_key
from .models import (
    TIE_EPS,
    Dataset,
    ModelSpec,
    _runs,
    binomial,
    exact_binomial_contour,
    log_relative_likelihood,
    observed_log_rel_lik,
    where_on_domain,
)

__all__ = [
    "TIE_EPS",
    "ConfigError",
    "NonFiniteContourError",
    "PossibilityContour",
    "AxisSpec",
    "ContourGrid",
    "exact_binomial_contour",
    "make_exact_contour",
    "make_exact_binomial",
    "make_mc_contour",
    "naive_contour",
    "grid_eval",
    "ordered_map",
]

# ---------------------------------------------------------------------------
# contour objects
# ---------------------------------------------------------------------------


class NonFiniteContourError(ValueError):
    """A contour value that is not finite: its evaluation failed."""


@dataclass
class PossibilityContour:
    """A possibility contour theta -> pi(theta) in [0, 1].

    ``evaluate_batch(thetas, rng)`` does the work: it evaluates an (N, dim)
    array of points in order on ``rng``, None for deterministic contours
    (seed None) and otherwise one Generator or a list of one per row, and
    gives NaN for a point whose evaluation failed.  ``evaluate(theta, rng)``
    is its batch of one, set at construction.  Grids and pointwise inference
    evaluate their points with ``evaluate_keyed``, one batch with one
    derived stream per row; the stochastic-approximation fits pass every
    point of an iteration as one batch on one shared stream.

    ``exceeds_batch(thetas, alpha, rng)``, when present, returns for each
    row 1.0 where the contour exceeds ``alpha``, 0.0 where it does not and
    NaN where the evaluation failed.  The evaluator may stop simulating a
    row once its decision is settled, so it leaves ``rng`` in a different
    state.  A decision made by exact curtailment or on all m datasets is
    exactly ``evaluate_batch(thetas, rng) > alpha`` for the same draws; one
    made early by the sequential test carries the band and risk stated in
    the README's "Determinism" section.  The credal-mass criterion of the
    stochastic-approximation fits uses it for every contour that has one.

    ``family`` is the approximation family a contour is the contour of (a
    Gaussian or Dirichlet contour), None for the others.  Inference reads
    its exact answers off it and searches with it by default.
    """

    kind: str
    dim: int
    evaluate_batch: Callable[[np.ndarray, Optional[np.random.Generator]], np.ndarray]
    seed: Optional[int] = None
    meta: dict = field(default_factory=dict)
    exceeds_batch: Optional[
        Callable[[np.ndarray, float, Optional[np.random.Generator]], np.ndarray]
    ] = None
    family: object = None

    def __post_init__(self):
        # a closure over the constructor's function, not the attribute, so a
        # wrapper later set on either evaluator sees each point once
        batch = self.evaluate_batch
        self.evaluate = lambda theta, rng: float(
            batch(np.asarray(theta, dtype=float).reshape(1, -1), rng)[0])

    def evaluate_keyed(self, thetas, keys) -> np.ndarray:
        """Evaluate the points as one batch, row i on the Generator
        ``derive_rng(seed, *keys[i])`` (a deterministic contour gets None)."""
        thetas = np.asarray(thetas, dtype=float).reshape(len(keys), -1)
        if self.dim is not None and thetas.shape[1] != self.dim:
            raise ValueError(
                f"{self.kind} contour expects a point of dimension {self.dim}, "
                f"got {thetas.shape[1]}"
            )
        rng = None if self.seed is None else [derive_rng(self.seed, *k) for k in keys]
        return np.asarray(self.evaluate_batch(thetas, rng), dtype=float).ravel()

    def __call__(self, theta) -> float:
        """Evaluate at one point; stochastic streams keyed by the point itself."""
        return float(self.evaluate_keyed(theta, [(THETA_TAG, *theta_key(theta))])[0])


def _lookup_batch(statistic, reference):
    """Batch evaluator of pi(theta) = P{T <= statistic(theta)}, T drawn from
    the reference sample: the share of it at or below a row's statistic,
    ties within ``TIE_EPS`` and NaN references included.  A statistic of
    -inf (off the domain) reads 0; one that raises or is NaN gives NaN."""
    ref = np.asarray(reference, dtype=float).ravel()
    ref = np.sort(np.where(np.isnan(ref), -np.inf, ref))

    def batch(thetas, rng):
        s = _observed_rows(statistic, np.atleast_2d(np.asarray(thetas, dtype=float)))
        share = np.searchsorted(ref, s + TIE_EPS, side="right") / ref.size
        return np.where(np.isnan(s), np.nan, np.where(s == -np.inf, 0.0, share))

    return batch


# ---------------------------------------------------------------------------
# exact contours a model declares
# ---------------------------------------------------------------------------


def make_exact_contour(model: ModelSpec, data: Dataset) -> PossibilityContour:
    """The exact contour the model declares through ``exact_contour_for``;
    0 off the model's domain."""
    exact = model.exact_contour_for(data)
    return PossibilityContour(
        kind="exact-discrete",
        dim=model.dim,
        evaluate_batch=lambda thetas, rng: where_on_domain(model, exact, thetas, 0.0),
        meta={"model": model.name},
    )


def make_exact_binomial(data: Dataset) -> PossibilityContour:
    """Exact possibility contour for the binomial success probability."""
    return make_exact_contour(binomial(), data)


# ---------------------------------------------------------------------------
# naive Monte Carlo contour
# ---------------------------------------------------------------------------


# simulated datasets per kernel call: bounds the memory a batch holds at once
_DATASETS_PER_CALL = 4096


def _observed_rows(observed, thetas: np.ndarray) -> np.ndarray:
    """Observed log relative likelihoods of the rows; NaN for a row whose
    value cannot be computed, so each row's outcome is its own."""
    try:
        return observed(thetas)
    except Exception:
        if thetas.shape[0] == 1:
            return np.full(1, np.nan)
        return np.concatenate([_observed_rows(observed, th[None, :]) for th in thetas])


def _simulate(model: ModelSpec, data: Dataset, thetas: np.ndarray, m: int, rng) -> np.ndarray:
    """(k, m) simulated log relative likelihoods, one row per point."""
    if model.sim_log_rel_lik is not None:
        return np.asarray(model.sim_log_rel_lik(thetas, data.n, m, rng), dtype=float)
    sim = np.empty((thetas.shape[0], m))
    for i, theta in enumerate(thetas):
        for j in range(m):
            ds = model.sample(theta, data.n, rng)
            try:
                sim[i, j] = log_relative_likelihood(model, ds, theta)
            except Exception:
                sim[i, j] = np.nan
    return sim


def _simulate_isolated(model: ModelSpec, data: Dataset, thetas: np.ndarray, m: int, rng):
    """(sim, ok): one kernel call on ``rng``, a Generator or the rows' list,
    each run's Generator state saved first when there are several.  If it
    raises, the states are put back and each run is called alone, as a
    model without a kernel always is; the rows of a run that raises alone
    are NaN and False in ``ok``."""
    runs, ok = _runs(rng, thetas.shape[0]), np.ones(thetas.shape[0], dtype=bool)
    if len(runs) > 1 and model.sim_log_rel_lik is not None:
        states = [g.bit_generator.state for _, g in runs]
        try:
            return _simulate(model, data, thetas, m, rng), ok
        except Exception:
            for (_, g), state in zip(runs, states):
                g.bit_generator.state = state
    sims = []
    for run, g in runs:
        try:
            sims.append(_simulate(model, data, thetas[run], m, g))
        except Exception:
            sims.append(np.full((run.stop - run.start, m), np.nan))
            ok[run] = False
    return (sims[0] if len(sims) == 1 else np.concatenate(sims)), ok


# the risk of a wrong early decision: a row whose datasets are each included
# with probability p is decided 1 before its last chunk with probability at
# most this when p <= alpha - delta, and 0 when p >= alpha + delta, delta
# being the indifference band of _decision_bounds
_DECISION_RISK = 1e-3


def _decision_schedule(m: int) -> list:
    """Dataset chunks of the decision loop: min(16, m) first, then each
    chunk as large as all chunks before it, the last one cut at m."""
    sizes = [min(16, m)]
    done = sizes[0]
    while done < m:
        sizes.append(min(done, m - done))
        done += sizes[-1]
    return sizes


@lru_cache(maxsize=128)
def _decision_bounds(m: int, alpha: float, risk: float) -> tuple:
    """(lo, hi): one pair of counts per chunk of :func:`_decision_schedule`.

    After a chunk, a live row whose count of included datasets is <= lo is
    decided 0 and one whose count is >= hi is decided 1.  The pairs join
    exact curtailment against need, the largest c with c / m <= alpha in
    float64, to Wald's test of p = alpha - delta against alpha + delta: at a
    checkpoint before the last chunk, with c of n datasets included, it
    decides once its log likelihood ratio c * up - (n - c) * down reaches
    log(1 / risk) or -log(1 / risk).  The last pair is (need, need + 1)."""
    need = int(np.count_nonzero(np.arange(m + 1) / m <= alpha)) - 1
    n = np.cumsum(_decision_schedule(m))[:-1]
    # four standard errors of the full-m estimate, inside (0, 1)
    delta = min(4.0 * np.sqrt(alpha * (1.0 - alpha) / m), alpha / 2, (1.0 - alpha) / 2)
    with np.errstate(divide="ignore", invalid="ignore"):  # risk 0, alpha 0 or 1
        up = np.log((alpha + delta) / (alpha - delta))
        down = np.log((1.0 - alpha + delta) / (1.0 - alpha - delta))
        lo = np.floor((n * down + np.log(risk)) / (up + down))
        hi = np.ceil((n * down - np.log(risk)) / (up + down))
    lo = np.fmax(lo, np.maximum(-1, need - (m - n))).astype(int)
    hi = np.fmin(hi, np.minimum(n, need) + 1).astype(int)
    return tuple(lo.tolist()) + (need,), tuple(hi.tolist()) + (need + 1,)


def _calls(rng, k: int, step: int):
    """(start, stop) of each kernel call over k rows on ``rng``: each run
    of rows on one Generator cut into pieces of ``step`` rows from its first
    row, as alone, and the pieces packed into calls of <= ``step`` rows."""
    begin = 0
    for run, _ in _runs(rng, k):
        for start in range(run.start, run.stop, step):
            if min(start + step, run.stop) - begin > step:
                yield begin, start
                begin = start
    if k:
        yield begin, k


def _mc_batch(
    model: ModelSpec,
    data: Dataset,
    thetas: np.ndarray,
    m: int,
    rng,
    observed: Callable[[np.ndarray], np.ndarray],
    alpha: Optional[float] = None,
) -> np.ndarray:
    """Monte Carlo contour at each row of a (k, d) array, on one generator
    or a list of one per row.

    Rows off the domain are 0 and rows whose observed value fails are 1,
    both without simulating, so a kernel only sees rows on the domain.  The
    other rows are simulated chunk by chunk of datasets, the live rows of a
    chunk in order, the rows of one or several generators per kernel call
    (:func:`_calls`): at most ``_DATASETS_PER_CALL`` datasets, or all live
    rows for a model that declares ``sim_whole_batch``.  A call of several
    generators that raises is undone and made again generator by generator
    (:func:`_simulate_isolated`).  Every row of a generator whose call
    raises comes back NaN and leaves the live set, so one failure fails
    every live row of its call on that generator.
    Without ``alpha`` the one chunk is all m datasets, and a row's value is
    its count of included datasets over m.  With ``alpha`` the rows are
    decided instead (1.0 for a value > alpha, 0.0 otherwise) on the chunks
    of :func:`_decision_schedule`, and a row leaves the live set as soon as
    its count crosses the bounds :func:`_decision_bounds` sets for the
    chunk (exact curtailment, or Wald's test at risk ``_DECISION_RISK``
    outside its indifference band).
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))

    def rngs(rows):  # the one Generator, or the rows' list
        return [rng[i] for i in rows] if isinstance(rng, list) else rng

    obs = _observed_rows(observed, thetas)
    out = np.where(np.isnan(obs), 1.0, 0.0)
    live = np.flatnonzero(np.isfinite(obs))
    m = int(m)
    if alpha is None:
        schedule, bounds = [m], None
    else:
        schedule = _decision_schedule(m)
        bounds = _decision_bounds(m, float(alpha), _DECISION_RISK)
        out = np.where(out > alpha, 1.0, 0.0)
        out[live] = np.nan  # every live row is decided by the last chunk
    counts = np.zeros(thetas.shape[0], dtype=np.int64)
    for i, chunk in enumerate(schedule):
        step = max(1, live.size if model.sim_whole_batch
                   else _DATASETS_PER_CALL // chunk)
        ok = np.ones(live.size, dtype=bool)
        for start, stop in _calls(rngs(live), live.size, step):
            rows = live[start:stop]
            sim, ok[start:stop] = _simulate_isolated(
                model, data, thetas[rows], chunk, rngs(rows))
            include = np.isnan(sim) | (sim <= obs[rows, None] + TIE_EPS)
            counts[rows] += np.count_nonzero(include, axis=1)
        out[live[~ok]] = np.nan
        live = live[ok]
        if bounds is None:
            out[live] = counts[live] / m
            continue
        over = counts[live] >= bounds[1][i]
        under = counts[live] <= bounds[0][i]
        out[live[over]] = 1.0
        out[live[under]] = 0.0
        live = live[~(over | under)]
        if not live.size:
            break
    return out


def make_mc_contour(
    model: ModelSpec, data: Dataset, m: int, seed: int
) -> PossibilityContour:
    """Monte Carlo possibility contour with reproducible seeded streams: at
    theta, the share of m datasets simulated under theta whose relative
    likelihood at theta is <= the observed one (ties included).

    The observed data's statistics are computed once, for all evaluations.
    ``evaluate_batch(thetas, rng)`` evaluates a (k, d) array of points on
    one generator or a list of one per row.  ``exceeds_batch(thetas, alpha,
    rng)`` decides value > alpha at each point by exact curtailment or, at a
    stated risk outside an indifference band, by a sequential test (see the
    module docstring).
    Off the domain (observed relative likelihood 0) the contour is exactly
    0, since data simulated under theta have a positive likelihood there,
    and nothing is simulated.  Replicates whose refitting machinery fails
    count as included, and an observed value that cannot be computed
    yields 1 — both choices push the estimate upward, never below the
    exact contour.  When the simulation kernel itself raises, the value is
    NaN, which callers count as a failed evaluation.
    """
    dim = model.dim if model.dim is not None else data.n
    observed = observed_log_rel_lik(model, data)
    return PossibilityContour(
        kind="monte-carlo",
        dim=dim,
        evaluate_batch=lambda thetas, rng: _mc_batch(model, data, thetas, m, rng, observed),
        seed=int(seed),
        meta={"model": model.name, "m": int(m)},
        exceeds_batch=lambda thetas, alpha, rng: _mc_batch(
            model, data, thetas, m, rng, observed, alpha),
    )


def naive_contour(model: ModelSpec, data: Dataset, m: int, seed: int) -> PossibilityContour:
    """The model's contour of ``data``: the exact contour when the model
    declares one (``exact_contour_for``), since Monte Carlo would only add
    noise around it, and otherwise the Monte Carlo contour of size ``m`` on
    ``seed``.  The ``naive`` method builds it, and the variational fits
    target it by default."""
    if model.exact_contour_for is not None:
        return make_exact_contour(model, data)
    return make_mc_contour(model, data, m, seed=seed)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """A run config that cannot be executed as written: the CLI's exit 2.
    Each config block's reader raises it for anything wrong with its block."""


def config_int(value, key: str) -> int:
    """A run config's integer field: an int, never a bool, float or
    string; a ConfigError naming ``key`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def config_keys(doc, keys) -> None:
    """A ConfigError naming the keys of a run config object that its
    reader, which reads only ``keys``, would ignore."""
    unread = sorted(set(doc) - set(keys))
    if unread:
        raise ConfigError(f"it reads only {', '.join(keys)}, not {unread}")


def config_float(value, key: str) -> float:
    """A run config's real field: an int or float, never a bool, string,
    null or NaN; a ConfigError naming ``key`` otherwise."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)) or np.isnan(value):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def config_floats(value, key: str):
    """A run config's number, or nested list (tuple, array) of numbers as an
    array, with every element read by :func:`config_float`."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return np.array([config_floats(v, key) for v in value], dtype=float)
    return config_float(value, key)


def config_bool(value, key: str) -> bool:
    """A run config's flag: JSON true or false, never a number, string or
    null; a ConfigError naming ``key`` otherwise."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


@dataclass(frozen=True)
class AxisSpec:
    """One grid axis: `count` equally spaced points on [lo, hi]."""

    lo: float
    hi: float
    count: int
    name: Optional[str] = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("axis count must be >= 1")
        if not np.isfinite(self.lo) or not np.isfinite(self.hi) or self.hi < self.lo:
            raise ValueError("axis bounds must be finite with hi >= lo")

    @classmethod
    def from_dict(cls, doc) -> "AxisSpec":
        """The axis a run config's ``{"lo", "hi", "count", "name"}`` object
        describes; the name is optional.  A ConfigError names what is wrong."""
        try:
            config_keys(doc, ("lo", "hi", "count", "name"))
            return cls(lo=config_float(doc["lo"], "lo"), hi=config_float(doc["hi"], "hi"),
                       count=config_int(doc["count"], "count"), name=doc.get("name"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid grid axis: {exc}") from None

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


def _axis_names(axes: Sequence[AxisSpec]) -> list:
    return [a.name if a.name else f"theta_{i + 1}" for i, a in enumerate(axes)]


def _product_nodes(axes: Sequence[AxisSpec]) -> np.ndarray:
    """All grid nodes as an (N, d) array, C order (first axis slowest)."""
    grids = np.meshgrid(*(a.points() for a in axes), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass
class ContourGrid:
    """Contour values tabulated on a cartesian product of axes."""

    axes: tuple
    values: np.ndarray  # shaped (axes[0].count, axes[1].count, ...)
    kind: str
    seed: Optional[int] = None
    meta: dict = field(default_factory=dict)

    def nodes(self) -> np.ndarray:
        return _product_nodes(self.axes)

    def csv_text(self, header=()) -> str:
        """One column per axis and a value column, first axis slowest,
        after the ``header`` comment lines."""
        names = _axis_names(self.axes)
        rows = [
            ",".join([repr(float(c)) for c in node] + [repr(float(v))])
            for node, v in zip(self.nodes(), self.values.ravel())
        ]
        return csv_text(header, names + ["value"], rows)

    def json_text(self, header=None) -> str:
        """The grid's kind, seed and metadata, then its axes, shape and
        C-order values, after the ``header`` keys."""
        doc = {
            "kind": self.kind,
            "seed": self.seed,
            "meta": self.meta,
            "axes": [asdict(a) for a in self.axes],
            "shape": list(self.values.shape),
            "values": [float(v) for v in self.values.ravel()],
        }
        return json_text(doc, header)


def grid_eval(
    contour: PossibilityContour,
    axes: Sequence[AxisSpec],
    parallelism: int = 1,
) -> ContourGrid:
    """Tabulate a contour on a grid; identical output for any parallelism.

    Raises :class:`NonFiniteContourError` at the first node whose value is
    not finite (its evaluation failed)."""
    axes = tuple(axes)
    if contour.dim is not None and len(axes) != contour.dim:
        raise ValueError(
            f"contour has dimension {contour.dim}, got {len(axes)} axes"
        )
    nodes = _product_nodes(axes)
    n_nodes = nodes.shape[0]
    # a deterministic contour is one batch; a seeded one a keyed batch per
    # slice, each node on its own stream, so any slicing gives the same values
    parts = np.array_split(np.arange(n_nodes),
                           1 if contour.seed is None else max(1, min(parallelism, n_nodes)))
    vals = np.concatenate(ordered_map(
        lambda idx: contour.evaluate_keyed(nodes[idx], [(NODE_TAG, int(i)) for i in idx]),
        parts, len(parts)))
    if vals.size != n_nodes:
        raise ValueError("batch evaluation returned a wrong-sized array")
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteContourError(
            f"non-finite contour value at node {i} (theta={nodes[i].tolist()})"
        )
    return ContourGrid(
        axes=axes,
        values=vals.reshape(tuple(a.count for a in axes)),
        kind=contour.kind,
        seed=contour.meta.get("seed", contour.seed),
        meta=dict(contour.meta),
    )


def ordered_map(fn, items, threads: int = 1) -> list:
    """``[fn(x) for x in items]``, run on a pool of ``threads`` worker
    threads when ``threads > 1``; the list is in item order either way."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]
