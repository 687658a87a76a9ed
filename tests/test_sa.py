"""Stochastic-approximation tests: Robbins-Monro driver and the three fits.

Oracles: analytic fixed points of deterministic recursions, exact step-size
series bounds, the enumeration-based binomial contour (via
exact_binomial_contour, itself oracle-tested), and exact fixed points of
self-consistent synthetic targets.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy import special

from possfit._rng import SA_TAG, derive_rng
from possfit.contours import (
    ConfigError,
    PossibilityContour,
    make_exact_binomial,
    make_mc_contour,
    naive_contour,
)
from possfit.families import (
    DirichletFamily,
    GaussianScalarFamily,
    GaussianVectorFamily,
    boundary_points,
    gaussian_contour,
    gaussian_contour_object,
    sample,
    stratified_offsets,
)
from possfit.models import (
    Dataset,
    DegenerateMLEError,
    SingularInformationError,
    binomial,
    bvn_correlation,
    log_reparam,
    multinomial,
    normal_means_lasso,
)
from possfit.sa import (
    FitTrace,
    SAConfig,
    default_step,
    f_hat,
    fit_dirichlet,
    fit_scalar,
    fit_scalar_anchored,
    fit_vector,
    fit_vector_anchored,
    robbins_monro,
)


def _binom_data(s, n):
    y = np.zeros(n, dtype=int)
    y[:s] = 1
    return Dataset(responses=y)


def _config(**kw):
    base = dict(seed=101, alpha=0.1)
    base.update(kw)
    return SAConfig(**base)


# ---------------------------------------------------------------------------
# step schedule
# ---------------------------------------------------------------------------


def test_step_schedule_series_bounds():
    t = np.arange(1, 1_000_001, dtype=float)
    w = 2.0 / (1.0 + t)
    assert np.allclose(w[:3], [1.0, 2.0 / 3.0, 0.5])
    assert default_step(1) == 1.0  # first update
    # sum w_t^2 converges: bounded by 4 * zeta(2)
    assert w @ w < 4 * np.pi**2 / 6
    # sum w_t diverges: still growing by whole units decade after decade
    assert w[100_000:].sum() > 4.0


# ---------------------------------------------------------------------------
# Robbins-Monro driver
# ---------------------------------------------------------------------------


def test_rm_deterministic_linear_root():
    trace = robbins_monro(lambda xi, t: -(xi[0] - 2.0), [0.5], _config(), sign=+1)
    assert abs(trace.xi_final[0] - 2.0) < 0.01
    assert trace.reason == "converged"
    # first update has weight 1: 0.5 + 1.0 * 1.5 = 2.0 immediately
    assert trace.xis[0][0] == pytest.approx(2.0, abs=1e-12)


def test_rm_zero_objective_stops_at_min_iter():
    cfg = _config()
    trace = robbins_monro(lambda xi, t: 0.0, [1.3], cfg, sign=+1)
    assert trace.reason == "converged"
    assert len(trace.ts) == cfg.min_iter
    assert trace.xi_final[0] == pytest.approx(1.3, abs=1e-15)


def test_rm_max_iterations_reason():
    cfg = _config(max_iter=100)
    trace = robbins_monro(lambda xi, t: 1.0, [1.0], cfg, sign=+1)
    assert trace.reason == "max-iterations"
    assert len(trace.ts) == 100
    assert trace.ts[-1] == 100


def test_rm_clamps_at_domain_floor():
    trace = robbins_monro(lambda xi, t: -10.0, [1.0], _config(max_iter=30), sign=+1)
    assert np.min([x[0] for x in trace.xis]) >= 1e-6
    assert trace.xi_final[0] >= 1e-6


def test_rm_sign_flip_reverses_direction():
    up = robbins_monro(lambda xi, t: 1.0, [1.0], _config(max_iter=6), sign=+1)
    dn = robbins_monro(lambda xi, t: 1.0, [1.0], _config(max_iter=6), sign=-1)
    assert up.xis[0][0] > 1.0 > dn.xis[0][0]


def test_rm_vector_iterates_and_stopping():
    # component 0 has root at 3, component 1 starts at its root
    obj = lambda xi, t: np.array([3.0 - xi[0], 0.0])
    trace = robbins_monro(obj, [1.0, 2.0], _config(), sign=+1)
    assert trace.reason == "converged"
    assert trace.xi_final[0] == pytest.approx(3.0, abs=0.01)
    assert trace.xi_final[1] == pytest.approx(2.0, abs=1e-15)


def test_fit_trace_csv():
    obj = lambda xi, t: np.array([3.0 - xi[0], 0.0])
    trace = robbins_monro(obj, [1.0, 2.0], _config(), sign=+1)
    lines = trace.csv_text().strip().splitlines()
    assert lines[0] == "t,xi_0,xi_1,objective_0,objective_1"
    assert len(lines) == 1 + len(trace.ts)
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(trace.xis[0][0])


# ---------------------------------------------------------------------------
# credal-mass objective f_hat
# ---------------------------------------------------------------------------


def _const_contour(value):
    return PossibilityContour(
        kind="closed-form-gaussian", dim=1,
        evaluate_batch=lambda thetas, rng: np.full(len(thetas), value),
    )


def test_f_hat_all_inside_gives_alpha():
    fam = GaussianScalarFamily(theta_hat=np.array([0.4]), info=np.array([[62.5]]),
                               xi=1.0)
    v = f_hat(fam, _const_contour(1.0), 0.1, 200, np.random.default_rng(0))
    assert v == pytest.approx(0.1, abs=1e-12)


def test_f_hat_none_inside_gives_minus_one_minus_alpha():
    fam = GaussianScalarFamily(theta_hat=np.array([0.4]), info=np.array([[62.5]]),
                               xi=1.0)
    v = f_hat(fam, _const_contour(0.0), 0.1, 200, np.random.default_rng(0))
    assert v == pytest.approx(-0.9, abs=1e-12)


def test_f_hat_concentrated_family_lands_in_cut():
    # all Q-mass collapses onto the MLE, which lies inside the 0.1-cut
    fam = GaussianScalarFamily(theta_hat=np.array([0.4]), info=np.array([[62.5]]),
                               xi=1e-3)
    contour = make_exact_binomial(_binom_data(6, 15))
    v = f_hat(fam, contour, 0.1, 200, np.random.default_rng(1))
    assert v == pytest.approx(0.1, abs=1e-12)


def test_f_hat_monotone_in_xi_on_average():
    contour = make_exact_binomial(_binom_data(6, 15))
    anchor = dict(theta_hat=np.array([0.4]), info=np.array([[62.5]]))
    small, large = [], []
    for rep in range(50):
        rng_a = np.random.default_rng(1000 + rep)
        rng_b = np.random.default_rng(2000 + rep)
        small.append(f_hat(GaussianScalarFamily(**anchor, xi=0.2), contour, 0.1,
                           200, rng_a))
        large.append(f_hat(GaussianScalarFamily(**anchor, xi=5.0), contour, 0.1,
                           200, rng_b))
    assert np.mean(small) > np.mean(large)


def test_f_hat_failure_counts_as_inside():
    """A failed draw counts as inside the cut, the conservative direction:
    against a contour that is 0 wherever it does not fail, the criterion
    reads the failed share as credal mass."""
    fam = GaussianScalarFamily(theta_hat=np.array([0.4]), info=np.array([[62.5]]),
                               xi=1.0)
    contour = _nan_batch_contour(3, lambda th: np.zeros(len(th)),
                                 lambda th: th[:, 0] > 0.4)
    failures = [0]
    v = f_hat(fam, contour, 0.1, 400, np.random.default_rng(5),
              failure_count=failures)
    assert failures[0] > 100  # about half the draws fail
    assert v == pytest.approx(failures[0] / 400 - 0.9, abs=1e-12)


def _nan_batch_contour(seed, value, failing, dim=1):
    """A contour whose batch evaluator returns NaN on the rows ``failing``
    selects, as a Monte Carlo batch does for a kernel call that raised."""

    def batch(thetas, rng):
        assert (rng is None) == (seed is None)
        thetas = np.atleast_2d(thetas)
        return np.where(failing(thetas), np.nan, value(thetas))

    return PossibilityContour(
        kind="monte-carlo", dim=dim, seed=seed, evaluate_batch=batch,
    )


def test_failed_evaluations_never_shrink_the_fitted_spread():
    """A failed draw counts as inside the cut, so failures never narrow a
    fit: against its own unit Gaussian contour, with 5% or 20% of the
    evaluations set to NaN, the mean fitted xi over 10 seeds stays at or
    above the no-failure mean less its seed spread (it read 0.887 at 5%
    and 0.296 at 20% when a failure counted as outside)."""
    own = gaussian_contour_object(
        GaussianScalarFamily(theta_hat=np.zeros(1), info=np.eye(1), xi=1.0))

    def fit(share, seed):
        def batch(thetas, rng):
            values = own.evaluate_batch(thetas, None)
            return np.where(rng.random(len(thetas)) < share, np.nan, values)

        target = PossibilityContour(kind="monte-carlo", dim=1, seed=3,
                                    evaluate_batch=batch)
        fam, trace = fit_scalar_anchored(np.zeros(1), np.eye(1), target,
                                         _config(seed=seed))
        return fam.xi, trace.failures

    clean = [fit(0.0, seed) for seed in range(10)]
    xi = np.array([x for x, _ in clean])
    assert all(failures == 0 for _, failures in clean)
    assert 0.9 < xi.mean() < 1.1
    for share in (0.05, 0.2):
        failing = [fit(share, seed) for seed in range(10)]
        assert all(failures > 0 for _, failures in failing)
        assert np.mean([x for x, _ in failing]) >= xi.mean() - xi.std(ddof=1)


@pytest.mark.parametrize("seed", [None, 3])
def test_f_hat_counts_nan_batch_rows_as_failures(seed):
    fam = GaussianScalarFamily(theta_hat=np.array([0.4]), info=np.array([[62.5]]),
                               xi=1.0)
    contour = _nan_batch_contour(seed, lambda th: np.ones(len(th)),
                                 lambda th: th[:, 0] > 0.4)
    failures = [0]
    v = f_hat(fam, contour, 0.1, 400, np.random.default_rng(5),
              failure_count=failures)
    failed = int(np.sum(sample(fam, 400, np.random.default_rng(5))[:, 0] > 0.4))
    assert 100 < failed < 300
    assert failures[0] == failed
    # failed draws count as inside the cut, as every other draw does here
    assert v == pytest.approx(1.0 - 0.9, abs=1e-12)


def test_fit_vector_counts_nan_batch_rows_as_failures():
    """Boundary matching on a target that fails on the + side of the first
    axis: each iteration tallies one failure, read as a contour value of 0,
    and the - side alone still holds the fit at its fixed point."""
    J = np.diag([4.0, 1.0])
    own = gaussian_contour_object(
        GaussianVectorFamily(theta_hat=np.zeros(2), info=J, xi=np.ones(2))
    )
    target = _nan_batch_contour(7, lambda th: own.evaluate_batch(th, None),
                                lambda th: th[:, 0] > 1e-9, dim=2)
    fam, trace = fit_vector_anchored(np.zeros(2), J, target, _config())
    assert trace.failures == len(trace.ts)
    assert np.allclose(fam.xi, 1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# Algorithm 1 (scalar) and Algorithm 2 (vector)
# ---------------------------------------------------------------------------


def test_fit_scalar_binomial_exact_target():
    data = _binom_data(6, 15)
    contour = make_exact_binomial(data)
    fam, trace = fit_scalar(binomial(), data, _config(), contour=contour)
    assert isinstance(fam, GaussianScalarFamily)
    assert trace.reason == "converged"
    assert 0.85 <= fam.xi <= 1.35
    assert fam.theta_hat[0] == pytest.approx(0.4)
    assert fam.info[0, 0] == pytest.approx(62.5)


def test_fit_scalar_terminal_objective_near_zero():
    data = _binom_data(6, 15)
    contour = make_exact_binomial(data)
    fam, _ = fit_scalar(binomial(), data, _config(), contour=contour)
    vals = [
        f_hat(fam, contour, 0.1, 200, np.random.default_rng(3000 + rep))
        for rep in range(20)
    ]
    assert abs(np.mean(vals)) < 0.05


def test_fit_scalar_determinism():
    data = _binom_data(6, 15)
    contour = make_exact_binomial(data)
    fam1, tr1 = fit_scalar(binomial(), data, _config(), contour=contour)
    fam2, tr2 = fit_scalar(binomial(), data, _config(), contour=contour)
    assert fam1.xi == fam2.xi
    assert tr1.ts == tr2.ts
    assert all(np.array_equal(a, b) for a, b in zip(tr1.xis, tr2.xis))
    assert all(np.array_equal(a, b) for a, b in zip(tr1.objectives, tr2.objectives))


def test_fit_scalar_rejects_boundary_mle():
    with pytest.raises(DegenerateMLEError):
        fit_scalar(binomial(), _binom_data(0, 15), _config())


def test_fit_vector_matches_scalar_on_d1():
    data = _binom_data(6, 15)
    contour = make_exact_binomial(data)
    fam_s, _ = fit_scalar(binomial(), data, _config(), contour=contour)
    fam_v, trace = fit_vector(binomial(), data, _config(), contour=contour)
    assert isinstance(fam_v, GaussianVectorFamily)
    assert trace.reason == "converged"
    assert abs(fam_v.xi[0] - fam_s.xi) < 0.15


def test_fit_vector_self_consistent_target_is_fixed_point():
    """Target = the family's own contour at xi=(1,1): boundary possibility is
    exactly alpha, so every update is ~0 and the fit stays at (1,1)."""
    J = np.diag([4.0, 1.0])
    target = gaussian_contour_object(
        GaussianVectorFamily(theta_hat=np.zeros(2), info=J, xi=np.ones(2))
    )
    fam, trace = fit_vector_anchored(np.zeros(2), J, target, _config())
    assert trace.reason == "converged"
    assert len(trace.ts) == _config().min_iter
    assert np.allclose(fam.xi, 1.0, atol=1e-10)
    pts = boundary_points(fam, 0.1)
    for s in range(2):
        for pm in range(2):
            assert gaussian_contour(
                GaussianVectorFamily(np.zeros(2), J, np.ones(2)), pts[s, pm]
            ) == pytest.approx(0.1, abs=1e-10)


def test_fit_scalar_anchored_matches_model_path():
    data = _binom_data(6, 15)
    contour = make_exact_binomial(data)
    fam_m, _ = fit_scalar(binomial(), data, _config(), contour=contour)
    fam_a, _ = fit_scalar_anchored(
        np.array([0.4]), np.array([[62.5]]), contour, _config()
    )
    assert fam_a.xi == pytest.approx(fam_m.xi, rel=1e-12)


# ---------------------------------------------------------------------------
# Dirichlet fit (sign flipped: precision grows with xi)
# ---------------------------------------------------------------------------


def test_fit_dirichlet_credal_mass_matches():
    counts = np.array([8, 10, 7])
    y = np.repeat(np.arange(3), counts)
    data = Dataset(responses=y)
    model = multinomial(3)
    cfg = _config(seed=7, m_inner=300)
    fam, trace = fit_dirichlet(model, data, cfg)
    assert isinstance(fam, DirichletFamily)
    assert fam.xi > 0
    assert np.allclose(fam.mean, counts / 25)
    # self-check of the matched fixed point: mass of the alpha-cut under the
    # fitted Dirichlet should be near 1 - alpha (loose MC tolerance)
    from possfit.contours import make_mc_contour
    from possfit.families import sample

    contour = make_mc_contour(model, data, m=300, seed=42)
    draws = sample(fam, 300, np.random.default_rng(11))
    vals = np.array([contour(draws[i]) for i in range(300)])
    mass = float(np.mean(vals > cfg.alpha))
    assert abs(mass - 0.9) < 0.12


def test_fit_dirichlet_trace_repeats():
    data = Dataset(responses=np.repeat(np.arange(3), [8, 10, 7]))
    cfg = _config(seed=7, m_inner=300, k_outer=100)
    fam1, tr1 = fit_dirichlet(multinomial(3), data, cfg)
    fam2, tr2 = fit_dirichlet(multinomial(3), data, cfg)
    assert fam1.xi == fam2.xi and tr1.failures == tr2.failures == 0
    assert tr1.ts == tr2.ts
    assert all(np.array_equal(a, b) for a, b in zip(tr1.xis, tr2.xis))
    assert all(np.array_equal(a, b) for a, b in zip(tr1.objectives, tr2.objectives))


# ---------------------------------------------------------------------------
# the credal-mass criterion on the decision path
# ---------------------------------------------------------------------------


def _bvn_data(rho=0.5, n=100, seed=1):
    z = np.random.default_rng(seed).standard_normal((n, 2))
    x2 = rho * z[:, 0] + np.sqrt(1.0 - rho**2) * z[:, 1]
    return Dataset(responses=np.column_stack([z[:, 0], x2]))


def _counting(model, raise_if=None):
    """The model with its kernel wrapped: ``log`` collects (rows, datasets,
    raised) per call; a call raises when ``raise_if(thetas)`` holds."""
    log = []
    kernel = model.sim_log_rel_lik

    def counted(thetas, n, m, rng):
        failed = raise_if is not None and bool(raise_if(thetas))
        log.append((thetas.shape[0], thetas.shape[0] * m, failed))
        if failed:
            raise RuntimeError("synthetic kernel failure")
        return kernel(thetas, n, m, rng)

    return dataclasses.replace(model, sim_log_rel_lik=counted), log


def test_f_hat_reads_decisions_and_boundary_matching_reads_values():
    """f_hat uses a contour's decision evaluator when it has one; the
    boundary-matching fit never does."""
    fam = GaussianScalarFamily(theta_hat=np.array([0.4]), info=np.array([[62.5]]),
                               xi=1.0)
    contour = PossibilityContour(
        kind="monte-carlo", dim=1, seed=3,
        evaluate_batch=lambda thetas, rng: np.zeros(len(thetas)),
        exceeds_batch=lambda thetas, alpha, rng: np.ones(len(thetas)),
    )
    assert f_hat(fam, contour, 0.1, 50, np.random.default_rng(1)) == pytest.approx(0.1)

    def refuse(thetas, alpha, rng):
        raise AssertionError("boundary matching asked for decisions")

    J = np.diag([4.0, 1.0])
    own = gaussian_contour_object(
        GaussianVectorFamily(theta_hat=np.zeros(2), info=J, xi=np.ones(2)))
    target = dataclasses.replace(own, exceeds_batch=refuse)
    fam_v, _ = fit_vector_anchored(np.zeros(2), J, target, _config())
    assert np.allclose(fam_v.xi, 1.0, atol=1e-10)


def test_stock_bvn_fit_simulates_at_most_half_the_datasets():
    """Exact curtailment: a stock scalar fit on the bvn correlation decides
    its indicators with at most half of m = 500 datasets per evaluation."""
    model, log = _counting(bvn_correlation())
    config = SAConfig(seed=11)
    _, trace = fit_scalar(model, _bvn_data(), config)
    evaluations = len(trace.ts) * config.k_outer
    assert trace.failures == 0
    assert sum(datasets for _, datasets, _ in log) <= 0.5 * config.m_inner * evaluations


def test_stock_bvn_fit_simulates_at_most_fifteen_percent_of_the_datasets():
    """The sequential test with its indifference band on top of exact
    curtailment: a stock scalar fit on the bvn correlation decides its
    indicators with at most 15% of m = 500 datasets per evaluation."""
    model, log = _counting(bvn_correlation())
    config = SAConfig(seed=11)
    _, trace = fit_scalar(model, _bvn_data(), config)
    evaluations = len(trace.ts) * config.k_outer
    assert trace.failures == 0
    assert sum(datasets for _, datasets, _ in log) <= 0.15 * config.m_inner * evaluations


def test_stock_bvn_fit_trace_is_unchanged():
    """A stock scalar fit on the bvn correlation, whose kernel takes at most
    _DATASETS_PER_CALL datasets per call, keeps its trace bit for bit."""
    _, trace = fit_scalar(bvn_correlation(), _bvn_data(), SAConfig(seed=11))
    assert (trace.reason, trace.failures, len(trace.ts)) == ("converged", 0, 5)
    assert hashlib.sha256(trace.csv_text().encode()).hexdigest() == (
        "8b8d0ab36703476f7a53d5f730967e1f9f0040099441158645c73c60ccf96793")


def test_stock_bvn_vector_fit_trace_is_unchanged():
    """A stock fit_vector on the bvn correlation reads contour values, never
    decisions, so the decision loop leaves its trace bit for bit."""
    _, trace = fit_vector(bvn_correlation(), _bvn_data(), SAConfig(seed=11))
    assert (trace.reason, trace.failures, len(trace.ts)) == ("converged", 0, 5)
    assert hashlib.sha256(trace.csv_text().encode()).hexdigest() == (
        "235c41975237b19d2a03afe5ad3d2266dda0c8db9071eb7c7fd6cd84eaa75372")


def test_stock_lasso_vector_fit_makes_one_kernel_call_per_iteration():
    """The lasso declares ``sim_whole_batch``: each iteration of a stock
    fit_vector at d = 50 simulates its 2d boundary points in one call."""
    n = 50
    base = normal_means_lasso(1.0, float(np.sqrt(np.log(n))))
    model, log = _counting(base)
    data = base.sample(np.r_[np.full(5, 5.0), np.zeros(n - 5)], n,
                       np.random.default_rng(3))
    _, trace = fit_vector(model, data, SAConfig(seed=0, alpha=0.1))
    assert len(trace.ts) > 1 and len(log) == len(trace.ts)
    assert all(rows == 2 * n and not failed for rows, _, failed in log)


def test_raising_kernel_adds_its_rows_to_the_failures():
    """The rows of every kernel call that raises are failed evaluations:
    each leaves the live set and is tallied once in FitTrace.failures.  The
    binomial declares an exact contour, which a fit would read by value, so
    the Monte Carlo target is given explicitly."""
    model, log = _counting(binomial(), raise_if=lambda th: np.any(th[:, 0] > 0.62))
    data = _binom_data(6, 15)
    config = _config(seed=5, k_outer=100, m_inner=200, max_iter=8)
    contour = make_mc_contour(model, data, m=config.m_inner, seed=config.seed)
    _, trace = fit_scalar(model, data, config, contour=contour)
    failed_rows = sum(rows for rows, _, failed in log if failed)
    assert 0 < failed_rows < len(trace.ts) * config.k_outer
    assert trace.failures == failed_rows


# ---------------------------------------------------------------------------
# the Gaussian credal-mass fit's draw pool and its decisions along each ray
# ---------------------------------------------------------------------------


def _pool(config, theta_hat, info):
    """The fit's pool of offsets, drawn on its key ``(SA_TAG, 0)``."""
    base = GaussianScalarFamily(theta_hat=theta_hat, info=info, xi=1.0)
    return stratified_offsets(base, config.k_outer, derive_rng(config.seed, SA_TAG, 0))


def _deciding(contour):
    """The contour with a decision evaluator that reads its values and
    logs the rows of each call."""
    rows = []
    decide = contour.exceeds_batch or (
        lambda thetas, alpha, rng: (contour.evaluate_batch(thetas, rng) > alpha) * 1.0)

    def counted(thetas, alpha, rng):
        rows.append(len(thetas))
        return decide(thetas, alpha, rng)

    return dataclasses.replace(contour, exceeds_batch=counted), rows


def test_pooled_objective_equals_the_whole_pool_on_a_star_shaped_target():
    """Against a closed-form Gaussian target (deterministic, and its cut is
    an ellipse holding theta_hat, so star-shaped about it), each
    iteration's objective equals the credal mass of the whole pool at that
    iterate, bit for bit, while the fit decides fewer points than the pool
    holds at every iteration after the first."""
    theta_hat, info = np.array([0.3, -0.2]), np.array([[4.0, 1.0], [1.0, 2.0]])
    target = gaussian_contour_object(GaussianScalarFamily(
        theta_hat=theta_hat + 0.05, info=np.array([[3.0, -0.5], [-0.5, 1.0]]), xi=1.0))
    config = _config(seed=4, max_iter=12, epsilon=1e-9)
    _, trace = fit_scalar_anchored(theta_hat, info, target, config)
    pool = _pool(config, theta_hat, info)
    xis = [1.0] + [float(x[0]) for x in trace.xis[:-1]]
    assert len(set(xis)) > 5
    for xi, objective in zip(xis, trace.objectives):
        whole = np.mean(target.evaluate_batch(theta_hat + xi * pool, None) > config.alpha)
        assert objective[0] == whole - (1.0 - config.alpha)
    assert trace.evaluations[0] == config.k_outer
    assert all(n < config.k_outer for n in trace.evaluations[1:])


def test_ray_cache_decides_only_the_undecided_draws():
    """Iteration 1 decides all k_outer pool draws; against the family's own
    contour the stratified pool's credal mass is exactly 1 - alpha, so the
    iterate never moves and no later iteration decides a draw."""
    own, rows = _deciding(gaussian_contour_object(
        GaussianScalarFamily(theta_hat=np.zeros(1), info=np.eye(1), xi=1.0)))
    config = _config()
    _, trace = fit_scalar_anchored(np.zeros(1), np.eye(1), own, config)
    assert all(x[0] == 1.0 for x in trace.xis)
    assert rows == [config.k_outer]
    assert trace.evaluations == [config.k_outer] + [0] * (len(trace.ts) - 1)


def test_stock_bvn_fit_decides_under_half_the_pool_per_iteration():
    """A stock bvn scalar fit carries most decisions over along the rays: it
    decides fewer than half of iterations x k_outer points, each one row of
    a decision batch, and its trace counts exactly those rows."""
    model, data, config = bvn_correlation(), _bvn_data(), SAConfig(seed=11)
    target, rows = _deciding(make_mc_contour(model, data, m=config.m_inner, seed=config.seed))
    _, trace = fit_scalar(model, data, config, contour=target)
    assert rows[0] == config.k_outer
    assert sum(rows) == sum(trace.evaluations) < 0.5 * len(trace.ts) * config.k_outer


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pool_puts_one_draw_in_each_chi_square_stratum(d):
    """The squared Mahalanobis radii of the pool, pushed through the ChiSq(d)
    distribution function, land one in each of [i/k, (i+1)/k)."""
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d))
    info = a @ a.T + d * np.eye(d)
    config = _config(seed=20 + d, k_outer=250)
    pool = _pool(config, np.zeros(d), info)
    r2 = np.einsum("ki,ij,kj->k", pool, info, pool)
    strata = np.floor(special.chdtr(d, r2) * config.k_outer)
    assert np.array_equal(np.sort(strata), np.arange(config.k_outer))


def test_pooled_fit_repeats_and_surfaces_singular_information():
    """The same seed gives the same trace against a Monte Carlo target, and
    an information matrix that is not positive definite raises before any
    draw is decided."""
    model, data = bvn_correlation(), _bvn_data(n=40)
    config = _config(seed=3, k_outer=80, m_inner=100, max_iter=8)
    first, again = (fit_scalar(model, data, config)[1] for _ in range(2))
    assert first.csv_text() == again.csv_text()
    assert first.evaluations == again.evaluations
    contour, rows = _deciding(make_mc_contour(model, data, m=50, seed=1))
    with pytest.raises(SingularInformationError):
        fit_scalar_anchored(np.zeros(2), np.diag([1.0, 0.0]), contour, config)
    assert rows == []


# Stock-settings fit of _bvn_data() at k_outer = 4000, m_inner = 2000, seed 0;
# fits with fresh draws at each iteration read 0.989 to 0.996 over seeds 0-2.
_BVN_REFERENCE_XI = 0.994575


def test_stock_bvn_fit_seed_spread():
    """Over 16 SA seeds on one bvn dataset the stock fit's xi_hat has sd at
    most 0.025 and mean within 0.01 of a large reference fit.  The
    stratified radii carry the spread: the same pool with iid radii read
    sd 0.028 to 0.029 on three datasets, the stratified pool 0.009 to
    0.016."""
    data = _bvn_data()
    xis = np.array([fit_scalar(bvn_correlation(), data, SAConfig(seed=s))[0].xi
                    for s in range(16)])
    assert np.std(xis, ddof=1) <= 0.025
    assert abs(np.mean(xis) - _BVN_REFERENCE_XI) <= 0.01


# ---------------------------------------------------------------------------
# the default target: the contour the naive method builds
# ---------------------------------------------------------------------------


def _same_fit(a, b):
    (fam_a, tr_a), (fam_b, tr_b) = a, b
    assert np.array_equal(np.atleast_1d(fam_a.xi), np.atleast_1d(fam_b.xi))
    assert tr_a.csv_text() == tr_b.csv_text()


@pytest.mark.parametrize("fit", [fit_scalar, fit_vector])
@pytest.mark.parametrize("log_params", [False, True], ids=["binomial", "log-binomial"])
def test_binomial_fit_targets_the_exact_contour_by_default(fit, log_params):
    """A model that declares an exact contour is fitted against it: with no
    contour given, the fit equals the one given naive_contour explicitly,
    which is the exact contour."""
    model = log_reparam(binomial()) if log_params else binomial()
    data = _binom_data(6, 15)
    config = _config(seed=7, max_iter=30)
    target = naive_contour(model, data, config.m_inner, config.seed)
    assert target.kind == "exact-discrete"
    _same_fit(fit(model, data, config), fit(model, data, config, contour=target))


def test_binomial_fit_simulates_no_datasets():
    """The exact target is read by value: a binomial fit whose simulation
    kernel raises still fits, with no failed evaluation."""
    def broken(thetas, n, m, rng):
        raise RuntimeError("the fit simulated a dataset")

    model = dataclasses.replace(binomial(), sim_log_rel_lik=broken)
    fam, trace = fit_scalar(model, _binom_data(6, 15), _config())
    assert trace.failures == 0 and trace.reason == "converged"
    assert 0.85 <= fam.xi <= 1.35


def test_bvn_fit_targets_the_monte_carlo_contour_by_default():
    """A model without an exact contour is fitted against its Monte Carlo
    contour of size m_inner on the config's seed."""
    model, data = bvn_correlation(), _bvn_data(n=40)
    config = _config(seed=3, k_outer=50, m_inner=100, max_iter=6)
    target = make_mc_contour(model, data, m=config.m_inner, seed=config.seed)
    _same_fit(fit_scalar(model, data, config),
              fit_scalar(model, data, config, contour=target))


@pytest.mark.parametrize("doc", [{"k_outer": 2.5}, {"m_inner": True},
                                 {"seed": "3"}, {"max_iter": 40.0}])
def test_sa_config_from_dict_reads_integers_strictly(doc):
    """An integer field is an int, never a float, bool or string: 2.5 once
    became 2 and true became 1 without an error."""
    with pytest.raises(ValueError, match="must be an integer"):
        SAConfig.from_dict(doc)
    assert SAConfig.from_dict({"k_outer": 3, "m_inner": 7}).m_inner == 7


@pytest.mark.parametrize("doc", [{"epsilon": True}, {"alpha": "0.2"},
                                 {"alpha": None}, {"epsilon": [0.01]}])
def test_sa_config_from_dict_reads_floats_strictly(doc):
    """A real field is an int or float: true once became epsilon = 1.0 and
    the string "0.2" an alpha of 0.2."""
    with pytest.raises(ValueError, match="must be a number"):
        SAConfig.from_dict(doc)
    assert SAConfig.from_dict({"alpha": 0.2, "epsilon": 1}).epsilon == 1.0


def test_sa_config_validation():
    with pytest.raises(ValueError):
        SAConfig(seed=1, alpha=1.2)
    with pytest.raises(ValueError):
        SAConfig(seed=1, epsilon=-0.1)
    with pytest.raises(ValueError):
        SAConfig(seed=1, max_iter=2, min_iter=5)


def test_sa_config_rejects_a_nan_epsilon():
    """A NaN epsilon once passed ``epsilon <= 0`` and ran every fit to
    max_iter, since no update is below NaN."""
    with pytest.raises(ValueError, match="epsilon"):
        SAConfig(seed=1, epsilon=float("nan"))


def test_sa_config_from_dict_rejects_a_key_it_does_not_read():
    """{"k_outr": 50} once ran at the default k_outer = 200."""
    with pytest.raises(ValueError, match=r"not \['k_outr'\]"):
        SAConfig.from_dict({"k_outr": 50})


@pytest.mark.parametrize("kw", [{"min_iter": 2.5}, {"epsilon": True}, {"k_outer": "60"}],
                         ids=["min_iter-float", "epsilon-bool", "k_outer-string"])
def test_sa_config_reads_its_fields_strictly(kw):
    """SAConfig(min_iter=2.5) and SAConfig(epsilon=True) were once accepted;
    the constructor reads its fields as the sa block does."""
    with pytest.raises(ConfigError, match=f"{next(iter(kw))} must be"):
        SAConfig(seed=0, **kw)
    assert type(SAConfig(seed=0, epsilon=1).epsilon) is float
