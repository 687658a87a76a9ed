"""Contour-engine tests.

The binomial enumeration oracle below is written directly against
scipy.stats.binom and the textbook relative-likelihood formula, independently
of the package's own (log-space, vectorized) implementation.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from possfit.calibration import (
    _REGISTRY,
    ConfigError,
    Scenario,
    build_contour,
    model_from_id,
)
from possfit._rng import NODE_TAG
from possfit.contours import (
    AxisSpec,
    NonFiniteContourError,
    PossibilityContour,
    exact_binomial_contour,
    grid_eval,
    make_exact_binomial,
    make_mc_contour,
)
from possfit import contours
from possfit.contours import (
    TIE_EPS,
    _decision_bounds,
    _decision_schedule,
    _lookup_batch,
    _mc_batch,
)
from possfit.families import (
    DirichletFamily,
    GaussianVectorFamily,
    dirichlet_contour_object,
    gaussian_contour,
    gaussian_contour_object,
)
from possfit.nuisance import (
    gamma_mean_profile,
    kaplan_meier_swapped,
    make_censored_contour,
    make_empirical_risk_contour,
    make_profile_contour,
    quantile_risk_spec,
)
from possfit.models import (
    Dataset,
    ModelSpec,
    binomial,
    bvn_correlation,
    gamma_mean_shape,
    gamma_shape_scale,
    log_reparam,
    logistic_regression,
    lognormal_censored,
    mle_and_information,
    multinomial,
    normal_means,
    normal_means_lasso,
    observed_log_rel_lik,
    poisson_loglinear,
)
from possfit.nuisance import censored_model, kaplan_meier_swapped
from possfit.sa import SAConfig


def _binom_data(s, n):
    y = np.zeros(n, dtype=int)
    y[:s] = 1
    return Dataset(responses=y)


def oracle_contour(n, s_obs, theta):
    """Brute-force enumeration of P_theta{R(S, theta) <= R(s_obs, theta)}."""

    def log_rel(s):
        return (
            special.xlogy(s, theta)
            + special.xlogy(n - s, 1 - theta)
            - special.xlogy(s, s / n)
            - special.xlogy(n - s, 1 - s / n)
        )

    cutoff = log_rel(s_obs)
    total = 0.0
    for s in range(n + 1):
        if log_rel(s) <= cutoff + 1e-12:
            total += stats.binom.pmf(s, n, theta)
    return total


# ---------------------------------------------------------------------------
# exact binomial contour
# ---------------------------------------------------------------------------


def test_exact_binomial_frozen_values():
    # frozen from the enumeration oracle above
    assert exact_binomial_contour(15, 6, 0.4) == pytest.approx(1.0, abs=1e-12)
    assert exact_binomial_contour(15, 6, 0.5) == pytest.approx(
        0.60723876953125, abs=1e-12
    )
    assert exact_binomial_contour(15, 6, 0.1) == pytest.approx(
        0.002249670085048002, rel=1e-10
    )
    assert exact_binomial_contour(15, 6, 0.7) == pytest.approx(
        0.019990087279714016, rel=1e-10
    )


def test_exact_binomial_matches_oracle_on_grid():
    thetas = np.linspace(0.02, 0.98, 49)
    got = exact_binomial_contour(15, 6, thetas)
    want = np.array([oracle_contour(15, 6, t) for t in thetas])
    assert np.allclose(got, want, atol=1e-12)


def test_exact_binomial_edge_thetas():
    assert exact_binomial_contour(15, 6, 0.0) == 0.0
    assert exact_binomial_contour(15, 6, 1.0) == 0.0
    # an all-success observation is compatible with theta=1
    assert exact_binomial_contour(15, 15, 1.0) == pytest.approx(1.0)
    assert exact_binomial_contour(15, 6, -0.5) == 0.0
    assert exact_binomial_contour(15, 6, 1.5) == 0.0


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=40),
    s=st.integers(min_value=0, max_value=40),
    theta=st.floats(min_value=0.0, max_value=1.0),
)
def test_exact_binomial_in_unit_interval(n, s, theta):
    s = min(s, n)
    v = exact_binomial_contour(n, s, theta)
    assert 0.0 <= v <= 1.0 + 1e-12


def test_exact_contour_object_wraps_scalar_path():
    contour = make_exact_binomial(_binom_data(6, 15))
    assert contour.kind == "exact-discrete"
    assert contour(np.array([0.5])) == pytest.approx(0.60723876953125, abs=1e-12)


# ---------------------------------------------------------------------------
# naive Monte Carlo contour
# ---------------------------------------------------------------------------


def _mc_point(model, data, theta, m, rng):
    """One point of the Monte Carlo contour, evaluated on ``rng``."""
    return make_mc_contour(model, data, m, seed=0).evaluate(theta, rng)


def test_mc_contour_is_one_at_mle():
    data = _binom_data(6, 15)
    v = _mc_point(binomial(), data, np.array([0.4]), 500, np.random.default_rng(0))
    assert v == pytest.approx(1.0, abs=1e-12)


def test_mc_contour_tracks_exact_within_mc_error():
    data = _binom_data(6, 15)
    m = 4000
    for i, theta in enumerate([0.2, 0.35, 0.5, 0.65, 0.8]):
        p = exact_binomial_contour(15, 6, theta)
        v = _mc_point(binomial(), data, np.array([theta]), m, np.random.default_rng(i))
        assert abs(v - p) <= 4 * np.sqrt(p * (1 - p) / m) + 1e-12


def test_mc_contour_seed_determinism():
    data = _binom_data(6, 15)
    args = (binomial(), data, np.array([0.55]), 800)
    assert _mc_point(*args, np.random.default_rng(42)) == _mc_point(
        *args, np.random.default_rng(42)
    )


def test_mc_contour_generic_fallback_matches_fast_path():
    """Strip the vectorized hook; the per-dataset path must agree statistically."""
    data = _binom_data(6, 15)
    fast = binomial()
    import dataclasses

    slow = dataclasses.replace(fast, sim_log_rel_lik=None)
    m = 1500
    p = exact_binomial_contour(15, 6, 0.55)
    v = _mc_point(slow, data, np.array([0.55]), m, np.random.default_rng(9))
    assert abs(v - p) <= 4 * np.sqrt(p * (1 - p) / m)


def test_mc_contour_counts_failed_replicates_as_ties():
    """A simulated dataset whose MLE machinery errors out counts as included."""

    def bad_mle(ds):
        raise RuntimeError("synthetic optimizer failure")

    model = ModelSpec(
        name="broken",
        dim=1,
        log_lik=lambda ds, th: float(-0.5 * np.sum((ds.responses - th[0]) ** 2)),
        sample=lambda th, n, rng: Dataset(responses=rng.normal(th[0], 1.0, n)),
        mle=bad_mle,
        information=lambda ds: np.eye(1),
    )
    v = _mc_point(model, Dataset(responses=np.zeros(4)), np.array([0.0]), 50,
                  np.random.default_rng(1))
    assert v == 1.0  # every replicate fell back to the inclusive tie rule


_N_FAR = 12
_DESIGN = np.column_stack([np.ones(_N_FAR), np.linspace(-1.0, 1.0, _N_FAR)])
_BIG = 1e300
# registry id -> (model kwargs, truth, off-domain points, huge-magnitude
# points on the domain)
_FAR_POINTS = {
    "binomial": ({}, [0.4], [[-0.5], [1.5], [np.inf], [_BIG], [-_BIG]], []),
    "bvn-correlation": ({}, [0.5], [[1.0], [-1.0], [1.5], [_BIG], [-_BIG]], []),
    "gamma": ({}, [3.0, 2.0], [[-1.0, 2.0], [3.0, 0.0], [3.0, -2.0], [0.0, 0.0]],
              [[_BIG, 2.0], [3.0, _BIG]]),
    "gamma-mean-shape": ({}, [3.0, 2.0], [[-1.0, 2.0], [3.0, 0.0], [3.0, -2.0]],
                         [[_BIG, 2.0], [3.0, _BIG]]),
    "lognormal": ({}, [0.3, 0.5], [[0.3, -1.0], [0.3, 0.0]],
                  [[_BIG, 1.0], [-_BIG, 1.0], [0.3, _BIG]]),
    "lognormal-censored": ({}, [0.3, 0.5], [[0.3, -1.0], [0.3, 0.0]],
                           [[_BIG, 1.0], [-_BIG, 1.0], [0.3, _BIG]]),
    "normal-means": ({}, [0.0] * _N_FAR, [[np.inf] + [0.0] * (_N_FAR - 1)],
                     [[_BIG] * _N_FAR, [-_BIG] * _N_FAR]),
    "normal-means-lasso": ({}, [0.0] * _N_FAR, [[0.0] * (_N_FAR - 1) + [-np.inf]],
                           [[_BIG] * _N_FAR, [-_BIG] * _N_FAR]),
    "poisson-loglinear": ({}, [0.5, 0.0, 0.0], [[0.5, np.nan, 0.0]],
                          [[_BIG, 0.0, 0.0], [-_BIG, 0.0, 0.0], [0.0, _BIG, 0.0]]),
    "logistic": ({"design": _DESIGN.tolist()}, [0.2, 0.5], [[np.nan, np.inf]],
                 [[_BIG, 0.0], [-_BIG, 0.0], [0.0, _BIG]]),
}


@pytest.mark.parametrize("model_id", sorted(_REGISTRY))
def test_registry_models_state_their_domain_once(model_id):
    """The domain mask is False at each off-domain point and True at the
    truth; the observed log relative likelihood is -inf exactly where the
    mask is False; a Scenario whose truth is off the domain is rejected."""
    kwargs, truth, off, _ = _FAR_POINTS[model_id]
    model = model_from_id(model_id, _N_FAR, kwargs)
    points = np.array([truth, *off], dtype=float)
    inside, rule = model.domain(points)
    assert inside.tolist() == [True] + [False] * len(off)
    assert isinstance(rule, str) and rule
    data = model.sample(np.asarray(truth, dtype=float), _N_FAR, np.random.default_rng(3))
    observed = observed_log_rel_lik(model, data)(points)
    assert np.array_equal(observed == -np.inf, ~inside)
    for point in off:
        with pytest.raises(ConfigError, match="domain"):
            Scenario(model_id=model_id, truth=tuple(point), n=_N_FAR, reps=1,
                     method="naive", seed=1, model_kwargs=kwargs)


def _assert_zero_quietly(contour, point):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = contour(np.asarray(point, dtype=float))
    assert value == 0.0, f"contour {value} at {point}"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("model_id", sorted(_REGISTRY))
def test_mc_contour_is_zero_far_from_the_domain(model_id):
    """Off the domain and at huge-magnitude points the contour is exactly 0,
    with nothing raised and no floating-point warning."""
    kwargs, truth, off, huge = _FAR_POINTS[model_id]
    model = model_from_id(model_id, _N_FAR, kwargs)
    rng = np.random.default_rng(3)
    data = model.sample(np.asarray(truth, dtype=float), _N_FAR, rng)
    contour = make_mc_contour(model, data, m=200, seed=1)
    for point in off + huge:
        _assert_zero_quietly(contour, point)


def test_mc_contour_log_reparam_far_points():
    base = gamma_shape_scale()
    data = base.sample(np.array([3.0, 2.0]), 25, np.random.default_rng(0))
    contour = make_mc_contour(log_reparam(base), data, m=200, seed=1)
    for eta in ([691.0, 0.5], [689.0, 0.5], [0.5, 691.0], [-691.0, 0.5]):
        _assert_zero_quietly(contour, eta)


@pytest.mark.parametrize("model_id", sorted(_REGISTRY))
def test_mc_batch_is_zero_far_from_the_domain(model_id):
    """In a batch mixing live and far points, the far rows are exactly 0
    with no floating-point warning.  Rows off the domain (observed relative
    likelihood 0) consume no randomness: dropping them leaves every other
    row's value unchanged."""
    kwargs, truth, off, huge = _FAR_POINTS[model_id]
    points = off + huge
    model = model_from_id(model_id, _N_FAR, kwargs)
    data = model.sample(np.asarray(truth, dtype=float), _N_FAR, np.random.default_rng(3))
    contour = make_mc_contour(model, data, m=200, seed=1)
    live = [np.asarray(model.mle(data), dtype=float), np.asarray(truth, dtype=float)]
    mixed = np.array([live[0], *points[:2], live[1], *points[2:]], dtype=float)
    far_rows = [1, 2, *range(4, len(mixed))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = contour.evaluate_batch(mixed, np.random.default_rng(7))
        on_domain = np.flatnonzero(observed_log_rel_lik(model, data)(mixed) > -np.inf)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert np.all(values[far_rows] == 0.0)
    assert values[0] > 0.5  # the MLE row was simulated
    kept = contour.evaluate_batch(mixed[on_domain], np.random.default_rng(7))
    assert np.array_equal(values[on_domain], kept)


# ---------------------------------------------------------------------------
# shape: a flat contour passes the validity test, so check the shape itself
# ---------------------------------------------------------------------------


def _at_the_sampler_draw(model_id):
    """The registry model, its data drawn at the table's truth, the MLE and
    the standard error of each coordinate."""
    kwargs, truth, _, _ = _FAR_POINTS[model_id]
    model = model_from_id(model_id, _N_FAR, kwargs)
    data = model.sample(np.asarray(truth, dtype=float), _N_FAR, np.random.default_rng(3))
    theta_hat, info = mle_and_information(model, data)
    return model, data, theta_hat, np.sqrt(np.diag(np.linalg.inv(info)))


@pytest.mark.parametrize("model_id", sorted(_REGISTRY))
def test_naive_contour_peaks_at_the_mle_and_vanishes_far_from_it(model_id):
    """The naive contour reads 1 at the MLE (no simulated relative likelihood
    exceeds the observed 1) and at most alpha = 0.1 eight standard errors
    away along each coordinate, wherever that point is on the domain."""
    model, data, theta_hat, se = _at_the_sampler_draw(model_id)
    contour = build_contour("naive", model, data, 5, m=200)
    steps = 8.0 * np.vstack([np.diag(se), -np.diag(se)])
    far = theta_hat + steps[model.domain(theta_hat + steps)[0]]
    values = contour.evaluate_keyed(np.vstack([theta_hat, far]),
                                    [(i,) for i in range(1 + len(far))])
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(values[1:] <= 0.1), values[1:]


@pytest.mark.parametrize("model_id, method", [
    pytest.param(model_id, method, id=model_id + suffix)
    for suffix, method in (("", "variational-scalar"), ("-vector", "variational-vector"))
    for model_id in sorted(_REGISTRY)])
def test_variational_contour_peaks_at_the_mle_and_falls_along_rays(model_id, method):
    """A variational contour reads 1 at the MLE and does not increase along
    rays from it: the coordinate axes, both ways, and a few random
    directions of unit length in standard errors, out to eight standard
    errors."""
    model, data, theta_hat, se = _at_the_sampler_draw(model_id)
    sa = SAConfig(seed=1, k_outer=40, m_inner=100, max_iter=6)
    contour = build_contour(method, model, data, 5, m=100, sa=sa)
    d = theta_hat.size
    random = np.random.default_rng(2).standard_normal((3, d))
    rays = np.vstack([np.eye(d), -np.eye(d),
                      random / np.linalg.norm(random, axis=1, keepdims=True)])
    steps = np.linspace(0.0, 8.0, 33)
    for ray in rays * se:
        values = contour.evaluate_batch(theta_hat + steps[:, None] * ray, None)
        assert values[0] == 1.0
        assert np.all(np.diff(values) <= 0.0), values
        assert values[-1] < 0.1


def test_count_kernel_contour_tracks_exact():
    """The binomial kernel draws the counts of the n + 1 support points;
    its contour stays within 4 standard errors of the enumeration."""
    data = _binom_data(6, 15)
    thetas = np.linspace(0.05, 0.95, 20)[:, None]
    m = 10_000
    contour = make_mc_contour(binomial(), data, m=m, seed=3)
    values = contour.evaluate_batch(thetas, np.random.default_rng(4))
    exact = exact_binomial_contour(15, 6, thetas[:, 0])
    se = np.sqrt(exact * (1.0 - exact) / m)
    assert np.all(np.abs(values - exact) <= 4.0 * se + 1e-12)


def _censored_case():
    rng = np.random.default_rng(17)
    y = np.exp(rng.normal(0.3, 0.7, size=40))
    data = Dataset(responses=np.maximum(y, 1.2), censor=(y >= 1.2).astype(int))
    model = censored_model(lognormal_censored(), kaplan_meier_swapped(data))
    return model, data, [[0.3, 0.49], [0.1, 0.3], [0.5, 0.8]]


def _sampled_case(model, truth, n, points):
    data = model.sample(np.asarray(truth, dtype=float), n, np.random.default_rng(5))
    return model, data, points


_ROW_LOOPED = {
    "binomial": lambda: (binomial(), _binom_data(6, 15), [[0.4], [0.2], [0.7]]),
    "normal-means": lambda: _sampled_case(
        normal_means(1.5), [0.5] * 6, 6, [[0.5] * 6, [0.0] * 6, np.linspace(-1.0, 1.0, 6)]),
    "poisson-loglinear": lambda: _sampled_case(
        poisson_loglinear(_DESIGN), [0.5, 0.2], _N_FAR, [[0.5, 0.2], [0.3, 0.0], [0.7, 0.4]]),
    "logistic": lambda: _sampled_case(
        logistic_regression(_DESIGN), [0.2, 0.5], _N_FAR, [[0.2, 0.5], [0.0, 1.0], [0.4, 0.0]]),
    "multinomial": lambda: (
        multinomial(3), Dataset(responses=np.repeat(np.arange(3), [8, 10, 7])),
        [[0.3, 0.4, 0.3], [0.2, 0.5, 0.3], [0.5, 0.25, 0.25]]),
    "gamma": lambda: _sampled_case(
        gamma_shape_scale(), [3.0, 2.0], 25, [[3.0, 2.0], [2.0, 3.0], [4.0, 1.5]]),
    "gamma-mean-shape": lambda: _sampled_case(
        gamma_mean_shape(), [3.0, 6.0], 25, [[3.0, 6.0], [2.0, 5.0], [4.0, 7.0]]),
    "gamma-log": lambda: _sampled_case(
        log_reparam(gamma_shape_scale()), [1.1, 0.7], 25,
        [[1.1, 0.7], [0.8, 1.0], [1.4, 0.4]]),
    "censored-plugin": _censored_case,
}


@pytest.mark.parametrize("case", sorted(_ROW_LOOPED))
def test_row_looped_kernel_batch_equals_sequential_points(case):
    """These kernels draw the rows of a batch in row order on the shared
    generator, so a batch is bit-identical to one-point calls in sequence
    (for the gammas, when no row lies below shape 1); a GLM batch refits
    all its datasets in one Newton iteration, which can move log R by
    round-off only.  The bvn, log-normal and lasso kernels draw a batch
    otherwise, and are not listed."""
    model, data, points = _ROW_LOOPED[case]()
    points = np.asarray(points, dtype=float)
    contour = make_mc_contour(model, data, m=120, seed=1)
    batch = contour.evaluate_batch(points, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    assert batch.tolist() == [contour.evaluate(p, rng) for p in points]


def _contract_cases():
    """(name, kernel, (3, d) rows on the domain, n) for every simulator:
    the registry models, multinomial, log_reparam, the censored plug-in and
    the gamma profile kernel."""
    cases = []
    for model_id in sorted(_REGISTRY):
        kwargs, truth, _, _ = _FAR_POINTS[model_id]
        model = model_from_id(model_id, _N_FAR, kwargs)
        rows = np.outer([1.0, 0.9, 1.1], truth)
        cases.append((model_id, model.sim_log_rel_lik, rows, _N_FAR))
    cases.append(("multinomial", multinomial(3).sim_log_rel_lik,
                  [[0.3, 0.4, 0.3], [0.2, 0.5, 0.3], [0.5, 0.25, 0.25]], _N_FAR))
    cases.append(("gamma-log", log_reparam(gamma_shape_scale()).sim_log_rel_lik,
                  [[1.1, 0.7], [np.log(0.4), 0.0], [0.0, -1.0]], _N_FAR))
    model, data, points = _censored_case()
    cases.append(("censored-plugin", model.sim_log_rel_lik, points, data.n))
    cases.append(("gamma-profile", gamma_mean_profile().sim_profile_log_rel,
                  [[3.0, 2.0], [2.0, 2.0], [0.8, 2.0]], _N_FAR))
    return cases


@pytest.mark.parametrize("case", _contract_cases(), ids=lambda case: case[0])
def test_every_kernel_maps_a_batch_to_rows_of_datasets(case):
    """The one kernel contract: a (3, d) batch of points on the domain gives
    a finite (3, m) float array, one row of m datasets per point."""
    _, kernel, rows, n = case
    out = kernel(np.asarray(rows, dtype=float), n, 7, np.random.default_rng(2))
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    assert out.shape == (3, 7)
    assert np.all(np.isfinite(out))


def test_mc_batch_failures_are_per_row():
    """A row whose kernel call raises is NaN; a row whose observed value
    cannot be computed is 1; neither changes the other rows."""
    base = binomial()

    def kernel(thetas, n, m, rng):
        if np.any(thetas[:, 0] > 0.5):
            raise RuntimeError("synthetic kernel failure")
        return base.sim_log_rel_lik(thetas, n, m, rng)

    def observed_for(data):
        log_rel = base.log_rel_lik_for(data)

        def checked(thetas):
            if np.any(thetas[:, 0] < 0.2):
                raise RuntimeError("synthetic observed failure")
            return log_rel(thetas)

        return checked

    model = dataclasses.replace(base, sim_log_rel_lik=kernel, log_rel_lik_for=observed_for)
    data = _binom_data(6, 15)
    m = 5000  # one point per kernel call
    thetas = np.array([[0.3], [0.6], [0.1], [0.4]])
    values = make_mc_contour(model, data, m=m, seed=2).evaluate_batch(
        thetas, np.random.default_rng(6))
    assert np.isnan(values[1]) and values[2] == 1.0
    healthy = make_mc_contour(base, data, m=m, seed=2).evaluate_batch(
        thetas[[0, 3]], np.random.default_rng(6))
    assert np.array_equal(values[[0, 3]], healthy)


def test_whole_batch_kernel_call_fails_every_live_row_of_its_chunk():
    """A model that declares ``sim_whole_batch`` gets all live rows of a
    chunk in one kernel call, so a call that raises makes every one of them
    NaN.  Without the flag a call holds at most _DATASETS_PER_CALL
    datasets (8 rows at m = 512), and only the rows of the raising call
    fail."""
    base = normal_means_lasso(1.0, 1.0)

    def kernel(thetas, n, m, rng):
        if np.any(thetas[:, 0] > 1.5):
            raise RuntimeError("synthetic kernel failure")
        return base.sim_log_rel_lik(thetas, n, m, rng)

    data = Dataset(responses=np.array([1.0, 0.0, -0.5]))
    thetas = np.zeros((20, 3))
    thetas[:, 0] = np.linspace(0.0, 1.6, 20)  # the last row raises
    whole = dataclasses.replace(base, sim_log_rel_lik=kernel)
    split = dataclasses.replace(whole, sim_whole_batch=False)
    values = {
        model.sim_whole_batch: make_mc_contour(model, data, m=512, seed=2).evaluate_batch(
            thetas, np.random.default_rng(6))
        for model in (whole, split)
    }
    assert np.all(np.isnan(values[True]))
    assert np.all(np.isnan(values[False][16:]))
    assert np.all((values[False][:16] >= 0.0) & (values[False][:16] <= 1.0))


def _assert_small_quietly(contour, point, bound=0.01):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = contour(np.asarray(point, dtype=float))
    assert 0.0 <= value <= bound, f"contour {value} at {point}"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("factory", [gamma_shape_scale, gamma_mean_shape])
@pytest.mark.parametrize("shape", [1e-3, 1e-300, 1e-307, 1e-308, 3e-308])
def test_gamma_contour_at_tiny_shapes(factory, shape):
    """At in-domain shapes far below the data's, the contour is near 0: the
    kernel draws log x directly, so no simulated sample underflows to 0, and
    forms a * log x, so nothing overflows near the smallest normal shape; no
    refit turns NaN (which would count as included)."""
    data = gamma_shape_scale().sample(np.array([7.0, 3.0]), 40, np.random.default_rng(0))
    contour = make_mc_contour(factory(), data, m=200, seed=1)
    _assert_small_quietly(contour, [shape, 2.0])


@pytest.mark.parametrize("eta0", [np.log(1e-300), -689.0])
def test_gamma_log_reparam_contour_at_tiny_shapes(eta0):
    base = gamma_shape_scale()
    data = base.sample(np.array([7.0, 3.0]), 40, np.random.default_rng(0))
    contour = make_mc_contour(log_reparam(base), data, m=200, seed=1)
    _assert_small_quietly(contour, [eta0, np.log(2.0)])


def test_bvn_contour_approaching_the_boundary():
    """On data drawn at rho = 0.97 the contour peaks near the MLE and falls
    toward +-1; points within 1e-6 of the boundary, down to the last float
    before 1, give values in [0, 1] with no floating-point warning."""
    model = model_from_id("bvn-correlation", 60)
    data = model.sample(np.array([0.97]), 60, np.random.default_rng(0))
    rho_hat = float(model.mle(data)[0])
    contour = make_mc_contour(model, data, m=2000, seed=1)
    edge = [1.0 - 1e-6, 1.0 - 1e-12, float(np.nextafter(1.0, 0.0))]
    path = [rho_hat, 0.98, 0.99, *edge]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        up = [contour(np.array([r])) for r in path]
        down = [contour(np.array([-r])) for r in edge]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert all(0.0 <= v <= 1.0 for v in up + down)
    assert up[0] > 0.5
    assert all(a >= b for a, b in zip(up, up[1:]))
    assert max(up[3:] + down) <= 0.01


# ---------------------------------------------------------------------------
# the decision evaluator (exact curtailment and the sequential test)
# ---------------------------------------------------------------------------


def test_decision_schedule():
    assert _decision_schedule(500) == [16, 16, 32, 64, 128, 244]
    assert _decision_schedule(64) == [16, 16, 32]
    assert _decision_schedule(30) == [16, 14]
    assert _decision_schedule(1000) == [16, 16, 32, 64, 128, 256, 488]
    assert all(sum(_decision_schedule(m)) == m for m in range(1, 700))


def test_decision_bounds():
    """Wald's test of p = 0.05 against p = 0.15 at m = 500, alpha = 0.1,
    then exact curtailment (need = 50) at the last chunk; at risk 0 only
    exact curtailment is left, and it decides no row before its last chunk
    that all m datasets could decide otherwise."""
    assert _decision_bounds(500, 0.1, 1e-3) == (
        (-1, -1, 0, 6, 17, 50), (8, 9, 12, 18, 30, 51))
    for m, alpha in [(500, 0.1), (100, 0.29), (7, 0.5), (1, 0.3)]:
        need = _need(m, alpha)
        lo, hi = _decision_bounds(m, alpha, 0.0)
        done = np.cumsum(_decision_schedule(m))
        assert lo == tuple(np.maximum(-1, need - (m - done)).tolist())
        assert hi == tuple(np.minimum(done + 1, need + 1).tolist())


def _need(m, alpha):
    return max(c for c in range(m + 1) if c / m <= alpha)


def _replay_model(counts, m, seed):
    """A one-parameter stub whose kernel replays, for the point theta = j,
    a fixed sequence of m simulated log relative likelihoods, continuing
    where the previous call for that point stopped, however the datasets
    are chunked and whichever rows are live.  Row j includes counts[j]
    datasets: -2.0 or NaN (a failed refit) below the observed -1.0,
    0.0 above it, at random places, all first or all last.  theta < 0 is
    off the domain; theta = the number of sequences has an observed value
    of NaN."""
    rng = np.random.default_rng(seed)
    seqs = []
    for c in counts:
        seq = np.zeros(m)
        where = rng.choice(m, size=c, replace=False)
        seq[where] = np.where(rng.random(c) < 0.2, np.nan, -2.0)
        seqs += [seq, np.r_[np.full(c, -2.0), np.zeros(m - c)],
                 np.r_[np.zeros(m - c), np.full(c, -2.0)]]
    pos = [0] * len(seqs)
    sizes = []

    def kernel(thetas, n, chunk, rng):
        out = np.empty((thetas.shape[0], chunk))
        for i, th in enumerate(thetas[:, 0].astype(int)):
            out[i] = seqs[th][pos[th]:pos[th] + chunk]
            pos[th] += chunk
        sizes.append(thetas.shape[0] * chunk)
        return out

    def observed(thetas):
        th = thetas[:, 0]
        return np.where(th < 0, -np.inf, np.where(th == len(seqs), np.nan, -1.0))

    model = ModelSpec(name="replay", dim=1, log_lik=None, sample=None, mle=None,
                      information=None, sim_log_rel_lik=kernel)
    return model, observed, len(seqs), sizes


@pytest.mark.parametrize("alpha,m", [(0.1, 500), (0.29, 100), (0.07, 100),
                                     (0.05, 64), (0.5, 7), (0.3, 1)])
def test_decisions_equal_full_values_above_alpha(alpha, m, monkeypatch):
    """Exact curtailment (the decision loop at risk 0): exceeds_batch's
    decisions are exactly value > alpha of the full-m values on the same
    simulated datasets, including rows whose count is exactly the largest
    count not above alpha (``need``) and one more, rows with failed refits,
    off-domain rows and an observed-NaN row.  The replayed rows are not
    independent draws, so the sequential test's risk does not apply."""
    monkeypatch.setattr(contours, "_DECISION_RISK", 0.0)
    need = _need(m, alpha)
    counts = sorted({max(0, min(m, c)) for c in (0, 1, need - 1, need, need + 1,
                                                 need + 2, m // 2, m - 1, m)})
    data = Dataset(responses=np.zeros(3))

    def run(a):
        model, observed, rows, sizes = _replay_model(counts, m, seed=4)
        thetas = np.r_[np.arange(rows), -1.0, rows, -3.0][:, None]
        return _mc_batch(model, data, thetas, m, None, observed, a), sizes

    values, full = run(None)
    decisions, curtailed = run(alpha)
    assert np.all(np.isfinite(values))
    assert decisions.tolist() == (values > alpha).astype(float).tolist()
    assert sum(curtailed) <= sum(full)
    assert {need, min(need + 1, m)} <= set(np.round(values * m).astype(int))


def test_decisions_stop_early_on_a_real_model():
    """On the binomial kernel the decisions match value > alpha of a full
    evaluation in all but rare rows near alpha (the draws differ), and rows
    above alpha stop before m."""
    model = binomial()
    data = _binom_data(6, 15)
    contour = make_mc_contour(model, data, m=500, seed=2)
    thetas = np.linspace(0.02, 0.98, 49)[:, None]
    calls = []
    kernel = model.sim_log_rel_lik

    def counted(th, n, m, rng):
        calls.append(th.shape[0] * m)
        return kernel(th, n, m, rng)

    counting = make_mc_contour(dataclasses.replace(model, sim_log_rel_lik=counted),
                               data, m=500, seed=2)
    decisions = counting.exceeds_batch(thetas, 0.1, np.random.default_rng(5))
    exact = exact_binomial_contour(15, 6, thetas[:, 0])
    clear = np.abs(exact - 0.1) > 0.05
    assert set(np.unique(decisions)) <= {0.0, 1.0}
    assert np.array_equal(decisions[clear], (exact[clear] > 0.1).astype(float))
    assert sum(calls) < 0.8 * 500 * len(thetas)
    assert np.array_equal(decisions, contour.exceeds_batch(thetas, 0.1, np.random.default_rng(5)))


def _bernoulli_decisions(p, rows, seed):
    """Decisions at alpha = 0.1, m = 500 of ``rows`` points of a stub whose
    datasets are each included with probability p, and the datasets each
    row simulated."""
    seen = np.zeros(rows, dtype=np.int64)

    def kernel(thetas, n, chunk, rng):
        seen[thetas[:, 1].astype(int)] += chunk
        return np.where(rng.random((thetas.shape[0], chunk)) < thetas[:, :1], -2.0, 0.0)

    model = ModelSpec(name="bernoulli", dim=2, log_lik=None, sample=None, mle=None,
                      information=None, sim_log_rel_lik=kernel)
    thetas = np.column_stack([np.full(rows, p), np.arange(rows)])
    decisions = _mc_batch(model, Dataset(responses=np.zeros(3)), thetas, 500,
                          np.random.default_rng(seed),
                          lambda th: np.full(th.shape[0], -1.0), 0.1)
    return decisions, seen


def _band(m, alpha):
    """The indifference band of the decision loop's sequential test: four
    standard errors of the full-m estimate, kept inside (0, 1)."""
    return min(4.0 * np.sqrt(alpha * (1.0 - alpha) / m), alpha / 2, (1.0 - alpha) / 2)


def _decision_law(m, alpha, p):
    """The exact law of the decision loop for a row whose datasets are each
    included with probability p, by dynamic programming over the count of
    a live row, chunk by chunk of the schedule: P(decided 1), and the
    probabilities of deciding 1 and 0 before the last chunk."""
    lo, hi = _decision_bounds(m, alpha, contours._DECISION_RISK)
    live = np.ones(1)  # P(count = c and the row is still live)
    one = early_one = early_zero = 0.0
    for i, chunk in enumerate(_decision_schedule(m)):
        live = np.convolve(live, stats.binom.pmf(np.arange(chunk + 1), chunk, p))
        c = np.arange(live.size)
        over, under = c >= hi[i], c <= lo[i]
        one += live[over].sum()
        if i < len(lo) - 1:
            early_one += live[over].sum()
            early_zero += live[under].sum()
        live = np.where(over | under, 0.0, live)
    assert live.sum() == 0.0
    return one, early_one, early_zero


@pytest.mark.parametrize("m,alpha", [(500, 0.1), (100, 0.29), (1000, 0.05), (64, 0.5)])
def test_early_wrong_side_decisions_keep_the_stated_risk(m, alpha):
    """The exact probability that a row with |p - alpha| >= delta is decided
    before its last chunk on the wrong side of alpha is at most
    _DECISION_RISK, at p = alpha - delta, p = alpha + delta and beyond."""
    delta = _band(m, alpha)
    below = np.linspace(0.0, alpha - delta, 6)
    above = np.linspace(alpha + delta, 1.0, 6)
    risks = [_decision_law(m, alpha, p)[1] for p in below]
    risks += [_decision_law(m, alpha, p)[2] for p in above]
    assert max(risks) <= contours._DECISION_RISK
    assert _decision_law(m, alpha, alpha - delta)[1] > 0.0


@pytest.mark.parametrize("p", [0.02, 0.05, 0.08, 0.09, 0.1, 0.11, 0.12, 0.15, 0.2])
def test_early_decisions_keep_the_stated_risk(p):
    """Rows whose datasets are each included with probability p, at m = 500
    and alpha = 0.1, where the band is 0.05: the shares decided 1, decided
    1 early and decided 0 early match the exact law of the decision loop
    within four standard errors, and outside the band the share decided
    early against the sign of p - alpha is at most _DECISION_RISK.  Inside
    the band a row may be decided otherwise than on all m datasets."""
    rows = 200_000
    decisions, seen = _bernoulli_decisions(p, rows, seed=1)
    early = seen < 500
    assert set(np.unique(decisions)) <= {0.0, 1.0}
    law = _decision_law(500, 0.1, p)
    shares = [np.mean(decisions == 1.0), np.mean((decisions == 1.0) & early),
              np.mean((decisions == 0.0) & early)]
    for share, want in zip(shares, law):
        assert abs(share - want) <= 4.0 * np.sqrt(want * (1.0 - want) / rows) + 1.0 / rows
    if abs(p - 0.1) >= _band(500, 0.1) - 1e-12:  # 0.15 - 0.1 < 0.05 in float64
        wrong = decisions != float(p > 0.1)
        assert np.mean(wrong & early) <= contours._DECISION_RISK


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_eval_matches_pointwise_exact():
    contour = make_exact_binomial(_binom_data(6, 15))
    grid = grid_eval(contour, [AxisSpec(0.2, 0.8, 3)])
    want = [exact_binomial_contour(15, 6, t) for t in (0.2, 0.5, 0.8)]
    assert np.allclose(grid.values, want, atol=1e-12)
    assert np.allclose(grid.nodes(), np.array([[0.2], [0.5], [0.8]]))


def test_grid_eval_thread_invariance_mc():
    contour = make_mc_contour(binomial(), _binom_data(6, 15), m=300, seed=77)
    g1 = grid_eval(contour, [AxisSpec(0.1, 0.9, 17)], parallelism=1)
    g4 = grid_eval(contour, [AxisSpec(0.1, 0.9, 17)], parallelism=4)
    assert np.array_equal(g1.values, g4.values)


def test_grid_eval_equals_seeded_pointwise_calls():
    contour = make_mc_contour(binomial(), _binom_data(6, 15), m=200, seed=5)
    axes = [AxisSpec(0.3, 0.7, 5)]
    grid = grid_eval(contour, axes, parallelism=2)
    nodes = grid.nodes()
    for i in range(len(nodes)):
        assert grid.values.ravel()[i] == contour.evaluate_keyed(nodes[i], [(NODE_TAG, i)])[0]


def test_keyed_batch_isolates_the_rows_of_a_raising_kernel():
    """With one stream per row a kernel call that raises is made again
    stream by stream: a kernel that raises only above 0.7 makes NaN exactly
    those nodes of a keyed batch, the other nodes equal their own
    evaluations, and the grid names the first failed node."""
    base = binomial()

    def fragile(thetas, n, m, rng):
        if np.any(thetas[:, 0] > 0.7):
            raise FloatingPointError("kernel failure")
        return base.sim_log_rel_lik(thetas, n, m, rng)

    model = dataclasses.replace(base, sim_log_rel_lik=fragile)
    contour = make_mc_contour(model, _binom_data(6, 15), m=100, seed=3)
    axes = [AxisSpec(0.05, 0.95, 10)]
    nodes = axes[0].points()[:, None]
    vals = contour.evaluate_keyed(nodes, [(NODE_TAG, i) for i in range(10)])
    assert np.flatnonzero(np.isnan(vals)).tolist() == [7, 8, 9]
    assert vals[:7].tolist() == [contour.evaluate_keyed(nodes[i], [(NODE_TAG, i)])[0]
                                 for i in range(7)]
    with pytest.raises(NonFiniteContourError, match="at node 7 "):
        grid_eval(contour, axes, parallelism=3)


def _counting(kernel, calls):
    """The kernel, counting its calls into ``calls[0]``."""
    def counted(thetas, n, m, rng):
        calls[0] += 1
        return kernel(thetas, n, m, rng)

    return counted


def _keyed_identity_cases():
    """(name, contour factory of a kernel wrapper, axes of at least 12
    on-domain nodes): every registry model, the censored plug-in, the gamma
    profile contour (5 probe rows per node) and a log_reparam model, at
    m = 400, so a call holds at most 10 rows and a keyed batch of 12 rows
    spans at least 2 calls; and the bvn grid of the benchmark."""
    m = 400
    cases = []
    for model_id in sorted(_REGISTRY):
        kwargs, truth, _, _ = _FAR_POINTS[model_id]
        model = model_from_id(model_id, _N_FAR, kwargs)
        data = model.sample(np.asarray(truth, dtype=float), _N_FAR, np.random.default_rng(3))
        lo, hi = (0.8 * truth[0], 1.2 * truth[0]) if truth[0] else (-0.3, 0.3)
        axes = [AxisSpec(lo, hi, 12)] + [AxisSpec(t, t, 1) for t in truth[1:]]
        cases.append((model_id, lambda wrap, model=model, data=data: make_mc_contour(
            dataclasses.replace(model, sim_log_rel_lik=wrap(model.sim_log_rel_lik)),
            data, m=m, seed=4), axes))
    censored, data, _ = _censored_case()
    cases.append(("censored-plugin", lambda wrap: make_mc_contour(
        dataclasses.replace(censored, sim_log_rel_lik=wrap(censored.sim_log_rel_lik)),
        data, m=m, seed=4), [AxisSpec(0.0, 0.6, 4), AxisSpec(0.3, 0.8, 3)]))
    gamma = gamma_mean_shape()
    gdata = gamma.sample(np.array([3.0, 2.0]), 20, np.random.default_rng(3))
    spec = gamma_mean_profile()
    cases.append(("gamma-profile", lambda wrap: make_profile_contour(
        gamma, gdata, dataclasses.replace(
            spec, sim_profile_log_rel=wrap(spec.sim_profile_log_rel)), m=m, seed=4),
        [AxisSpec(1.4, 2.8, 12)]))
    logged = log_reparam(gamma_shape_scale())
    ldata = logged.sample(np.log([3.0, 2.0]), _N_FAR, np.random.default_rng(3))
    cases.append(("gamma-log", lambda wrap: make_mc_contour(
        dataclasses.replace(logged, sim_log_rel_lik=wrap(logged.sim_log_rel_lik)),
        ldata, m=m, seed=4), [AxisSpec(0.8, 1.4, 4), AxisSpec(0.4, 1.0, 3)]))
    cases.append(("bvn-workload", lambda wrap: make_mc_contour(
        dataclasses.replace(bvn := bvn_correlation(),
                            sim_log_rel_lik=wrap(bvn.sim_log_rel_lik)),
        bvn.sample(np.array([0.5]), 100, np.random.default_rng(0)), m=500, seed=3),
        [AxisSpec(-0.99, 0.99, 100)]))
    return cases


@pytest.mark.parametrize("case", _keyed_identity_cases(), ids=lambda case: case[0])
def test_keyed_batch_equals_each_node_alone(case):
    """A keyed batch packs the rows of several streams into one kernel
    call, and every kernel keeps each stream's draws and values those of
    its own call: a grid of at least 12 on-domain nodes, at parallelism 1
    and 3, equals each node evaluated alone bit for bit, and at
    parallelism 1 it makes fewer kernel calls than it has nodes (the
    lasso: one call)."""
    _, factory, axes = case
    calls = [0]
    contour = factory(lambda kernel: _counting(kernel, calls))
    grid = grid_eval(contour, axes, parallelism=1)
    batch_calls, calls[0] = calls[0], 0
    nodes = grid.nodes()
    assert nodes.shape[0] >= 12
    alone = [contour.evaluate_keyed(node, [(NODE_TAG, i)])[0] for i, node in enumerate(nodes)]
    assert np.all(np.isfinite(alone))
    assert 2 <= batch_calls < calls[0] or (batch_calls == 1 and calls[0] == nodes.shape[0])
    assert grid.values.ravel().tolist() == alone
    assert grid_eval(contour, axes, parallelism=3).values.ravel().tolist() == alone


def test_bvn_grid_packs_8_nodes_per_kernel_call():
    """The 100-node bvn grid at m = 500 makes ceil(100 / 8) = 13 kernel
    calls of at most 4096 datasets, not one call per node."""
    base = bvn_correlation()
    sizes = []

    def sized(thetas, n, m, rng):
        sizes.append(len(thetas) * m)
        return base.sim_log_rel_lik(thetas, n, m, rng)

    data = base.sample(np.array([0.5]), 100, np.random.default_rng(0))
    contour = make_mc_contour(dataclasses.replace(base, sim_log_rel_lik=sized), data,
                              m=500, seed=3)
    grid_eval(contour, [AxisSpec(-0.99, 0.99, 100)])
    assert len(sizes) == 13 and max(sizes) <= contours._DATASETS_PER_CALL
    assert sum(sizes) == 100 * 500


def test_calls_pack_whole_runs_and_cut_long_runs_as_alone():
    """A call packs consecutive runs of rows on one Generator up to step
    rows and never splits a run shorter than step; a longer run is cut into
    pieces of step rows from its first row, the cuts of its lone call."""
    g = [np.random.default_rng(i) for i in range(4)]
    rngs = [g[0]] * 5 + [g[1]] * 5 + [g[2]] * 3 + [g[3]] * 19
    assert list(contours._calls(rngs, len(rngs), 8)) == [
        (0, 5), (5, 13), (13, 21), (21, 29), (29, 32)]
    assert list(contours._calls(g[0], 20, 8)) == [(0, 8), (8, 16), (16, 20)]
    assert list(contours._calls([], 0, 8)) == []


def test_keyed_batch_retries_a_raising_call_from_each_stream_state():
    """A kernel that draws from each of its streams and then raises for a
    row above 0.7 fails only the nodes above 0.7: the call is undone, each
    stream put back to its state before the call, and made again stream by
    stream, so every other node equals its own evaluation bit for bit."""
    base = bvn_correlation()

    def draws_then_raises(thetas, n, m, rng):
        for g in rng if isinstance(rng, list) else [rng]:
            g.random(3)
        if np.any(thetas[:, 0] > 0.7):
            raise FloatingPointError("kernel failure")
        return base.sim_log_rel_lik(thetas, n, m, rng)

    data = base.sample(np.array([0.5]), 100, np.random.default_rng(0))
    contour = make_mc_contour(dataclasses.replace(base, sim_log_rel_lik=draws_then_raises),
                              data, m=500, seed=3)
    nodes = np.linspace(-0.9, 0.95, 24)[:, None]
    vals = contour.evaluate_keyed(nodes, [(NODE_TAG, i) for i in range(24)])
    bad = nodes[:, 0] > 0.7
    assert np.array_equal(np.isnan(vals), bad) and bad.sum() == 4  # in the last call of 8
    assert vals[~bad].tolist() == [contour.evaluate_keyed(nodes[i], [(NODE_TAG, i)])[0]
                                   for i in np.flatnonzero(~bad)]


def _factory_case(name):
    """(contour, point) per factory."""
    binom = _binom_data(6, 15)
    gamma = Dataset(responses=np.random.default_rng(3).gamma(8.0, 0.25, size=20))
    if name == "exact":
        return make_exact_binomial(binom), np.array([0.37])
    if name == "monte-carlo":
        return make_mc_contour(binomial(), binom, m=200, seed=5), np.array([0.37])
    if name == "censored":
        rng = np.random.default_rng(11)
        y = np.exp(rng.normal(0.3, 0.7, size=24))
        c = np.where(np.arange(24) % 2 == 0, 0.9, 1.4)
        data = Dataset(responses=np.maximum(y, c), censor=(y >= c).astype(int))
        ghat = kaplan_meier_swapped(data)
        return (make_censored_contour(lognormal_censored(), data, ghat, m=100, seed=5),
                np.array([0.3, 0.49]))
    if name == "gaussian":
        return gaussian_contour_object(_GAUSSIAN_FAMILY), np.array([0.5, 0.1])
    if name == "dirichlet":
        fam = DirichletFamily(mean=np.array([0.2, 0.3, 0.5]), n=20.0, xi=1.0)
        return dirichlet_contour_object(fam, m=200, seed=5), np.array([0.25, 0.3])
    if name == "profile":
        return (make_profile_contour(gamma_mean_shape(), gamma, gamma_mean_profile(),
                                     m=100, seed=5), np.array([2.1]))
    return (make_empirical_risk_contour(gamma, quantile_risk_spec(0.25, B=100), seed=5),
            np.array([1.6]))


_GAUSSIAN_FAMILY = GaussianVectorFamily(theta_hat=np.array([0.2, -0.3]),
                                        info=np.array([[3.0, 0.4], [0.4, 1.5]]),
                                        xi=np.array([1.1, 0.6]))


@pytest.mark.parametrize("name", ["exact", "monte-carlo", "censored", "gaussian",
                                  "dirichlet", "profile", "bootstrap"])
def test_point_evaluation_is_a_batch_of_one(name):
    """Every factory gives one evaluator: a point evaluated on a generator
    equals the batch of that one point on an equal generator, bit for bit;
    the closed-form Gaussian point function gives the same value."""
    contour, theta = _factory_case(name)
    value = contour.evaluate(theta, np.random.default_rng(9))
    assert value == contour.evaluate_batch(theta[None], np.random.default_rng(9))[0]
    if name == "gaussian":
        assert value == gaussian_contour(_GAUSSIAN_FAMILY, theta)
    assert 0.0 < value <= 1.0


def test_lookup_batch_matches_a_direct_count():
    """The sorted lookup equals counting, row by row, the reference values
    at or below the statistic with NaN references included; -inf reads 0
    and a row whose statistic raises is NaN."""
    rng = np.random.default_rng(21)
    reference = np.round(rng.standard_normal(300), 1)  # many ties
    reference[::37] = np.nan
    thetas = np.concatenate([np.round(rng.standard_normal((40, 1)), 1),
                             [[-np.inf], [np.inf], [99.0]]])

    def statistic(th):
        if np.any(th == 99.0):
            raise ValueError("no statistic here")
        return th[:, 0]

    got = _lookup_batch(statistic, reference)(thetas, None)
    s = thetas[:-3, 0]
    direct = np.mean(np.isnan(reference) | (reference <= s[:, None] + TIE_EPS), axis=1)
    assert np.array_equal(got[:-3], direct)
    assert got[-3] == 0.0 and got[-2] == 1.0 and np.isnan(got[-1])


@pytest.mark.parametrize("count", [2.9, True, "3", None])
def test_axis_from_dict_reads_the_count_strictly(count):
    """A count of 2.9 once became a 2-node axis; it is a ValueError."""
    with pytest.raises(ValueError, match="count must be an integer"):
        AxisSpec.from_dict({"lo": 0.0, "hi": 1.0, "count": count})
    assert AxisSpec.from_dict({"lo": 0.0, "hi": 1.0, "count": 3}).count == 3


@pytest.mark.parametrize("doc", [{"hi": True}, {"lo": "0.2"}, {"hi": None}])
def test_axis_from_dict_reads_the_bounds_strictly(doc):
    """A bound is a number: "hi": true once read as 1.0."""
    with pytest.raises(ValueError, match="must be a number"):
        AxisSpec.from_dict({"lo": 0.0, "hi": 1.0, "count": 3, **doc})
    assert AxisSpec.from_dict({"lo": 0, "hi": 1.5, "count": 3}).hi == 1.5


def test_grid_eval_rejects_nonfinite_values():
    broken = PossibilityContour(
        kind="exact-discrete",
        dim=1,
        evaluate_batch=lambda thetas, rng: np.where(thetas[:, 0] > 0.4, np.nan, 0.5),
    )
    with pytest.raises(ValueError, match="node 1"):
        grid_eval(broken, [AxisSpec(0.0, 1.0, 3)])


def test_two_axis_grid_shape_and_order():
    contour = PossibilityContour(
        kind="exact-discrete",
        dim=2,
        evaluate_batch=lambda thetas, rng: np.exp(-np.sum(thetas**2, axis=1)),
    )
    grid = grid_eval(contour, [AxisSpec(-1, 1, 3), AxisSpec(0, 1, 2)])
    assert grid.values.shape == (3, 2)
    # C-order: first axis slowest
    assert grid.nodes()[0] == pytest.approx([-1.0, 0.0])
    assert grid.nodes()[1] == pytest.approx([-1.0, 1.0])
    assert grid.values[0, 1] == pytest.approx(np.exp(-2.0))


# ---------------------------------------------------------------------------
# alpha cuts
# ---------------------------------------------------------------------------


def test_alpha_cut_endpoints_match_oracle():
    contour = make_exact_binomial(_binom_data(6, 15))
    grid = grid_eval(contour, [AxisSpec(0.001, 0.999, 2000)])
    pts = grid.nodes()[grid.values.ravel() > 0.1][:, 0]
    # enumeration-oracle endpoints of {pi > 0.1}: [0.20533, 0.64582]
    spacing = (0.999 - 0.001) / 1999
    assert abs(pts.min() - 0.20533) <= 2 * spacing
    assert abs(pts.max() - 0.64582) <= 2 * spacing


def test_alpha_cuts_are_nested():
    contour = make_exact_binomial(_binom_data(6, 15))
    grid = grid_eval(contour, [AxisSpec(0.0, 1.0, 400)])
    lo = grid.nodes()[grid.values.ravel() > 0.1]
    hi = grid.nodes()[grid.values.ravel() > 0.25]
    assert set(map(tuple, hi)) <= set(map(tuple, lo))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_grid_csv_and_json_round_trip():
    contour = make_exact_binomial(_binom_data(6, 15))
    grid = grid_eval(contour, [AxisSpec(0.2, 0.8, 7)])

    lines = grid.csv_text(["# possibility contour grid"]).strip().splitlines()
    header_meta = [l for l in lines if l.startswith("#")]
    rows = [l for l in lines if not l.startswith("#")]
    assert header_meta == ["# possibility contour grid"]
    assert rows[0] == "theta_1,value"
    assert len(rows) == 1 + 7
    back = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.allclose(back, grid.values.ravel())

    doc = json.loads(grid.json_text({"header": {"tool": "possfit"}}))
    assert list(doc) == ["header", "kind", "seed", "meta", "axes", "shape", "values"]
    assert doc["kind"] == "exact-discrete"
    assert doc["seed"] is None and doc["meta"] == {"model": "binomial"}
    assert np.allclose(np.array(doc["values"]), grid.values.ravel())
    assert doc["axes"][0]["count"] == 7


def test_axis_spec_reads_its_fields_strictly():
    """AxisSpec(0.0, 1.0, 3.0) was once accepted, and failed only later,
    inside points(); the constructor reads its fields as a grid axis in a
    run config is read."""
    with pytest.raises(ConfigError, match="count must be an integer, got 3.0"):
        AxisSpec(0.0, 1.0, 3.0)
    with pytest.raises(ConfigError, match="hi must be a number"):
        AxisSpec(0.0, True, 3)
    axis = AxisSpec(0, 1, 3)
    assert (type(axis.lo), type(axis.hi)) == (float, float)
    assert axis.points().tolist() == [0.0, 0.5, 1.0]
