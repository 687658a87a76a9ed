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

from possfit.calibration import _REGISTRY, model_from_id
from possfit.contours import (
    AxisSpec,
    PossibilityContour,
    alpha_cut,
    exact_binomial_contour,
    grid_eval,
    make_exact_binomial,
    make_mc_contour,
    mc_contour,
)
from possfit.models import (
    Dataset,
    ModelSpec,
    binomial,
    gamma_mean_shape,
    gamma_shape_scale,
    log_reparam,
    logistic_regression,
    lognormal_censored,
    multinomial,
    normal_means_lasso,
    observed_log_rel_lik,
    poisson_loglinear,
)
from possfit.nuisance import censored_model, kaplan_meier_swapped


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


def test_mc_contour_is_one_at_mle():
    data = _binom_data(6, 15)
    v = mc_contour(binomial(), data, np.array([0.4]), 500, np.random.default_rng(0))
    assert v == pytest.approx(1.0, abs=1e-12)


def test_mc_contour_tracks_exact_within_mc_error():
    data = _binom_data(6, 15)
    m = 4000
    for i, theta in enumerate([0.2, 0.35, 0.5, 0.65, 0.8]):
        p = exact_binomial_contour(15, 6, theta)
        v = mc_contour(binomial(), data, np.array([theta]), m, np.random.default_rng(i))
        assert abs(v - p) <= 4 * np.sqrt(p * (1 - p) / m) + 1e-12


def test_mc_contour_seed_determinism():
    data = _binom_data(6, 15)
    args = (binomial(), data, np.array([0.55]), 800)
    assert mc_contour(*args, np.random.default_rng(42)) == mc_contour(
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
    v = mc_contour(slow, data, np.array([0.55]), m, np.random.default_rng(9))
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
    v = mc_contour(model, Dataset(responses=np.zeros(4)), np.array([0.0]), 50,
                   np.random.default_rng(1))
    assert v == 1.0  # every replicate fell back to the inclusive tie rule


_N_FAR = 12
_DESIGN = np.column_stack([np.ones(_N_FAR), np.linspace(-1.0, 1.0, _N_FAR)])
_BIG = 1e300
# registry id -> (model kwargs, truth, off-domain and huge-magnitude points)
_FAR_POINTS = {
    "binomial": ({}, [0.4], [[-0.5], [1.5], [np.inf], [_BIG], [-_BIG]]),
    "bvn-correlation": ({}, [0.5], [[1.0], [-1.0], [1.5], [_BIG], [-_BIG]]),
    "gamma": ({}, [3.0, 2.0], [[-1.0, 2.0], [3.0, 0.0], [3.0, -2.0], [0.0, 0.0],
                               [_BIG, 2.0], [3.0, _BIG]]),
    "gamma-mean-shape": ({}, [3.0, 2.0], [[-1.0, 2.0], [3.0, 0.0], [3.0, -2.0],
                                          [_BIG, 2.0], [3.0, _BIG]]),
    "lognormal": ({}, [0.3, 0.5], [[0.3, -1.0], [0.3, 0.0], [_BIG, 1.0],
                                   [-_BIG, 1.0], [0.3, _BIG]]),
    "lognormal-censored": ({}, [0.3, 0.5], [[0.3, -1.0], [0.3, 0.0], [_BIG, 1.0],
                                            [-_BIG, 1.0], [0.3, _BIG]]),
    "normal-means": ({}, [0.0] * _N_FAR, [[_BIG] * _N_FAR, [-_BIG] * _N_FAR]),
    "normal-means-lasso": ({}, [0.0] * _N_FAR, [[_BIG] * _N_FAR, [-_BIG] * _N_FAR]),
    "poisson-loglinear": ({}, [0.5, 0.0, 0.0], [[_BIG, 0.0, 0.0], [-_BIG, 0.0, 0.0],
                                                [0.0, _BIG, 0.0]]),
    "logistic": ({"design": _DESIGN.tolist()}, [0.2, 0.5],
                 [[_BIG, 0.0], [-_BIG, 0.0], [0.0, _BIG]]),
}


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
    kwargs, truth, points = _FAR_POINTS[model_id]
    model = model_from_id(model_id, _N_FAR, kwargs)
    rng = np.random.default_rng(3)
    data = model.sample(np.asarray(truth, dtype=float), _N_FAR, rng)
    contour = make_mc_contour(model, data, m=200, seed=1)
    for point in points:
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
    kwargs, truth, points = _FAR_POINTS[model_id]
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
    "normal-means-lasso": lambda: _sampled_case(
        normal_means_lasso(1.0, 0.5), [2.0, 0.0, 0.0], 3,
        [[2.0, 0.0, 0.0], [1.0, 0.5, -0.5], [2.5, 0.0, 1.0]]),
    "gamma-log": lambda: _sampled_case(
        log_reparam(gamma_shape_scale()), [1.1, 0.7], 25,
        [[1.1, 0.7], [0.8, 1.0], [1.4, 0.4]]),
    "censored-plugin": _censored_case,
}


@pytest.mark.parametrize("case", sorted(_ROW_LOOPED))
def test_row_looped_kernel_batch_equals_sequential_points(case):
    """Kernels that simulate whole datasets loop over the rows on the shared
    generator: a batch is bit-identical to one-point calls in sequence."""
    model, data, points = _ROW_LOOPED[case]()
    points = np.asarray(points, dtype=float)
    contour = make_mc_contour(model, data, m=120, seed=1)
    batch = contour.evaluate_batch(points, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    assert batch.tolist() == [contour.evaluate(p, rng) for p in points]


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
        assert grid.values.ravel()[i] == contour.eval_at_node(nodes[i], i)


def test_grid_eval_rejects_nonfinite_values():
    broken = PossibilityContour(
        kind="exact-discrete",
        dim=1,
        evaluate=lambda th, rng: float("nan") if th[0] > 0.4 else 0.5,
    )
    with pytest.raises(ValueError, match="node 1"):
        grid_eval(broken, [AxisSpec(0.0, 1.0, 3)])


def test_two_axis_grid_shape_and_order():
    contour = PossibilityContour(
        kind="exact-discrete",
        dim=2,
        evaluate=lambda th, rng: float(np.exp(-np.sum(th**2))),
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
    cut = alpha_cut(grid, 0.1)
    pts = cut.points[:, 0]
    # enumeration-oracle endpoints of {pi > 0.1}: [0.20533, 0.64582]
    spacing = (0.999 - 0.001) / 1999
    assert abs(pts.min() - 0.20533) <= 2 * spacing
    assert abs(pts.max() - 0.64582) <= 2 * spacing


def test_alpha_cuts_are_nested():
    contour = make_exact_binomial(_binom_data(6, 15))
    grid = grid_eval(contour, [AxisSpec(0.0, 1.0, 400)])
    lo = alpha_cut(grid, 0.1)
    hi = alpha_cut(grid, 0.25)
    assert set(map(tuple, hi.points)) <= set(map(tuple, lo.points))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_grid_csv_and_json_round_trip(tmp_path):
    contour = make_exact_binomial(_binom_data(6, 15))
    grid = grid_eval(contour, [AxisSpec(0.2, 0.8, 7)])

    csv_path = tmp_path / "grid.csv"
    grid.to_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    header_meta = [l for l in lines if l.startswith("#")]
    rows = [l for l in lines if not l.startswith("#")]
    assert any("kind=exact-discrete" in l for l in header_meta)
    assert rows[0] == "theta_1,value"
    assert len(rows) == 1 + 7
    back = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.allclose(back, grid.values.ravel())

    json_path = tmp_path / "grid.json"
    grid.to_json(json_path)
    doc = json.loads(json_path.read_text())
    assert doc["kind"] == "exact-discrete"
    assert np.allclose(np.array(doc["values"]), grid.values.ravel())
    assert doc["axes"][0]["count"] == 7
