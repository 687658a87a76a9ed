"""Nuisance-parameter contour constructions.

Three constructions are exercised: the parametric profile-likelihood
contour (gamma mean), the nonparametric empirical-risk contour with
bootstrap (quantiles), and the semiparametric censored-data contour with
a product-limit plug-in for the censoring distribution.  Every frozen
number below is derived by hand or from an independent method (scipy
optimizers, brute-force grids, order statistics), never read back from
the implementation.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy import optimize, special, stats

from possfit.contours import log_relative_likelihood, make_mc_contour, mc_contour
from possfit.families import GaussianScalarFamily, sample
from possfit.models import (
    Dataset,
    DegenerateMLEError,
    ModelSpec,
    gamma_mean_shape,
    log_reparam,
    lognormal_censored,
)
from possfit.nuisance import (
    CensoringEstimate,
    FiberOptimizationError,
    ProfileSpec,
    QuantileCompanionFamily,
    RiskMinimizationError,
    RiskSpec,
    censored_contour,
    censored_model,
    empirical_risk,
    empirical_risk_contour,
    empirical_risk_rel,
    fit_profile_companion,
    fit_quantile_companion,
    gamma_mean_profile,
    kaplan_meier_swapped,
    make_censored_contour,
    make_empirical_risk_contour,
    make_profile_contour,
    normal_reference_kde,
    profile_companion_family,
    profile_contour,
    profile_probe_values,
    quantile_companion_contour,
    quantile_companion_family,
    quantile_erm,
    quantile_loss,
    quantile_risk_spec,
    relative_profile_likelihood,
)
from possfit.sa import SAConfig, fit_vector


def _gamma_data(seed=31, n=20, shape=8.0, mean=2.0):
    rng = np.random.default_rng(seed)
    return Dataset(responses=rng.gamma(shape, mean / shape, size=n))


def _censored_data(seed=11, n=24, mu=0.3, v=0.49):
    """Left-censored log-normal draws with two alternating detection limits."""
    rng = np.random.default_rng(seed)
    y = np.exp(rng.normal(mu, np.sqrt(v), size=n))
    c = np.where(np.arange(n) % 2 == 0, 0.9, 1.4)
    z = np.maximum(y, c)
    t = (y >= c).astype(int)
    return Dataset(responses=z, censor=t)


def _config(**kw):
    base = dict(seed=101, alpha=0.1, k_outer=100, m_inner=200, max_iter=60)
    base.update(kw)
    return SAConfig(**base)


# ---------------------------------------------------------------------------
# log reparametrization on a subset of coordinates
# ---------------------------------------------------------------------------


def test_log_reparam_subset_matches_chain_rule():
    model = gamma_mean_shape()
    data = _gamma_data()
    wrapped = log_reparam(model, indices=[1])
    a_hat, phi_hat = model.mle(data)
    eta_hat = wrapped.mle(data)
    assert np.allclose(eta_hat, [a_hat, np.log(phi_hat)], atol=1e-12)
    D = np.diag([1.0, phi_hat])
    assert np.allclose(
        wrapped.information(data), D @ model.information(data) @ D, atol=1e-8
    )


def test_log_reparam_subset_likelihood_invariant():
    model = gamma_mean_shape()
    data = _gamma_data()
    wrapped = log_reparam(model, indices=[1])
    theta = np.array([5.5, 1.7])
    eta = np.array([5.5, np.log(1.7)])
    assert wrapped.log_lik(data, eta) == pytest.approx(
        model.log_lik(data, theta), rel=1e-12
    )
    # the sampler must push the natural-scale parameter through unchanged
    d1 = wrapped.sample(eta, 9, np.random.default_rng(3)).responses
    d2 = model.sample(theta, 9, np.random.default_rng(3)).responses
    assert np.array_equal(d1, d2)


def test_log_reparam_rejects_nonpositive_logged_mle():
    stub = ModelSpec(
        name="stub",
        dim=2,
        log_lik=lambda data, th: 0.0,
        sample=lambda th, n, rng: Dataset(responses=np.zeros(n)),
        mle=lambda data: np.array([-1.0, 2.0]),
        information=lambda data: np.eye(2),
    )
    data = Dataset(responses=np.zeros(3))
    with pytest.raises(DegenerateMLEError):
        log_reparam(stub, indices=[0]).mle(data)
    # logging only the positive coordinate is fine
    assert np.allclose(log_reparam(stub, indices=[1]).mle(data), [-1.0, np.log(2.0)])


def test_log_reparam_full_still_logs_everything():
    model = gamma_mean_shape()
    data = _gamma_data()
    assert np.allclose(
        log_reparam(model).mle(data), np.log(model.mle(data)), atol=1e-12
    )


# ---------------------------------------------------------------------------
# family sampling falls back to a sample_points method
# ---------------------------------------------------------------------------


def test_sample_duck_fallback():
    class Fixed:
        def sample_points(self, k, rng):
            return np.full((k, 1), 7.0)

    draws = sample(Fixed(), 5, np.random.default_rng(0))
    assert draws.shape == (5, 1)
    assert np.all(draws == 7.0)


# ---------------------------------------------------------------------------
# product-limit estimate of the censoring distribution (labels swapped)
# ---------------------------------------------------------------------------


def test_km_hand_example():
    # z=(1,2,3,4), t=(1,0,1,0): after swapping, events at 2 and 4.
    # u=2: 3 at risk, 1 event -> S=2/3, jump 1/3; u=4: 1 at risk -> S=0, jump 2/3.
    ghat = kaplan_meier_swapped(
        Dataset(responses=np.array([1.0, 2, 3, 4]), censor=np.array([1, 0, 1, 0]))
    )
    assert np.allclose(ghat.support, [2.0, 4.0])
    assert np.allclose(ghat.masses, [1 / 3, 2 / 3])
    assert ghat.residual == pytest.approx(0.0, abs=1e-12)


def test_km_residual_mass_goes_to_last_event():
    # z=(1,2,3,4), t=(0,1,0,1): events at 1 and 3, largest obs censored after
    # swap.  Jumps 1/4 at 1 and 3/8 at 3; surviving mass 3/8 is lumped at 3.
    ghat = kaplan_meier_swapped(
        Dataset(responses=np.array([1.0, 2, 3, 4]), censor=np.array([0, 1, 0, 1]))
    )
    assert np.allclose(ghat.support, [1.0, 3.0])
    assert np.allclose(ghat.masses, [0.25, 0.375])
    assert ghat.residual == pytest.approx(0.375)
    assert np.allclose(ghat.sampling_probs, [0.25, 0.75])


def test_km_tied_event_and_censoring():
    # z=(2,2,3), t=(0,0,1): two swapped events at 2 with the censored 2 still
    # at risk; everything samplable sits at 2.
    ghat = kaplan_meier_swapped(
        Dataset(responses=np.array([2.0, 2.0, 3.0]), censor=np.array([0, 0, 1]))
    )
    assert np.allclose(ghat.support, [2.0])
    assert np.allclose(ghat.masses, [2 / 3])
    assert ghat.residual == pytest.approx(1 / 3)
    assert np.allclose(ghat.sampling_probs, [1.0])
    draws = ghat.sample(50, np.random.default_rng(1))
    assert np.all(draws == 2.0)


def test_km_all_censored_original_coding_gives_empirical():
    # everything censored in the original coding -> all events after the swap
    z = np.array([5.0, 5.0, 7.0])
    ghat = kaplan_meier_swapped(Dataset(responses=z, censor=np.zeros(3, dtype=int)))
    assert np.allclose(ghat.support, [5.0, 7.0])
    assert np.allclose(ghat.masses, [2 / 3, 1 / 3])
    assert ghat.residual == pytest.approx(0.0, abs=1e-12)


def test_km_no_events_after_swap_degenerates_to_max():
    z = np.array([1.0, 4.0, 2.5])
    ghat = kaplan_meier_swapped(Dataset(responses=z, censor=np.ones(3, dtype=int)))
    assert np.allclose(ghat.support, [4.0])
    assert ghat.residual == pytest.approx(1.0)
    assert np.all(ghat.sample(20, np.random.default_rng(2)) == 4.0)


def test_km_permutation_invariant():
    data = _censored_data()
    perm = np.random.default_rng(8).permutation(data.n)
    shuffled = Dataset(responses=data.responses[perm], censor=data.censor[perm])
    a = kaplan_meier_swapped(data)
    b = kaplan_meier_swapped(shuffled)
    assert np.array_equal(a.support, b.support)
    assert np.allclose(a.masses, b.masses)
    assert a.residual == pytest.approx(b.residual)


def test_censoring_estimate_validates():
    with pytest.raises(ValueError):
        CensoringEstimate(support=np.array([1.0, 2.0]), masses=np.array([0.7, 0.5]))
    with pytest.raises(ValueError):
        CensoringEstimate(support=np.array([2.0, 1.0]), masses=np.array([0.3, 0.3]))
    est = CensoringEstimate(support=np.array([1.0, 2.0]), masses=np.array([0.25, 0.25]))
    assert est.residual == pytest.approx(0.5)
    assert np.allclose(est.cdf([0.5, 1.0, 5.0]), [0.0, 0.25, 0.5])


# ---------------------------------------------------------------------------
# censored-data likelihood ratios and contour
# ---------------------------------------------------------------------------


def test_censored_relative_likelihood_matches_direct_formula():
    """The separable likelihood drops the censoring part, so the relative
    likelihood must equal the plain density/CDF ratio computed from scratch."""
    model = lognormal_censored()
    data = _censored_data()
    theta_hat = model.mle(data)

    def direct(theta):
        mu, v = theta
        dist = stats.lognorm(s=np.sqrt(v), scale=np.exp(mu))
        parts = np.where(
            data.censor == 1,
            dist.logpdf(data.responses),
            dist.logcdf(data.responses),
        )
        return float(np.sum(parts))

    for theta in ([0.1, 0.3], [0.5, 0.8], [0.0, 1.5]):
        expected = direct(theta) - direct(theta_hat)
        got = log_relative_likelihood(model, data, np.asarray(theta))
        assert got == pytest.approx(expected, abs=1e-7)


def test_censored_mle_matches_numeric_oracle():
    model = lognormal_censored()
    data = _censored_data()
    theta_hat = model.mle(data)

    def nll(p):
        mu, logv = p
        dist = stats.lognorm(s=np.exp(0.5 * logv), scale=np.exp(mu))
        parts = np.where(
            data.censor == 1,
            dist.logpdf(data.responses),
            dist.logcdf(data.responses),
        )
        return -float(np.sum(parts))

    res = optimize.minimize(nll, [0.0, 0.0], method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12})
    assert theta_hat[0] == pytest.approx(res.x[0], abs=1e-5)
    assert theta_hat[1] == pytest.approx(np.exp(res.x[1]), abs=1e-5)


def test_censored_sampler_applies_censoring_rule():
    model = lognormal_censored()
    ghat = CensoringEstimate(support=np.array([1.2]), masses=np.array([1.0]))
    plugged = censored_model(model, ghat)
    ds = plugged.sample(np.array([0.3, 0.49]), 400, np.random.default_rng(4))
    # Z = max(Y, C) never falls below the single censoring level, and the
    # flag is exactly 1{Z > C} off the tie set.
    assert np.all(ds.responses >= 1.2)
    assert np.array_equal(ds.censor == 1, ds.responses > 1.2)
    p_obs = float(np.mean(ds.censor))
    p_true = float(stats.norm.sf((np.log(1.2) - 0.3) / 0.7))
    assert abs(p_obs - p_true) < 4 * np.sqrt(p_true * (1 - p_true) / 400)


def test_censored_contour_is_one_at_mle():
    model = lognormal_censored()
    data = _censored_data()
    ghat = kaplan_meier_swapped(data)
    val = censored_contour(
        model, data, ghat, model.mle(data), 200, np.random.default_rng(7)
    )
    assert val == pytest.approx(1.0)


def test_censored_contour_hook_and_loop_agree():
    model = lognormal_censored()
    data = _censored_data()
    ghat = kaplan_meier_swapped(data)
    plugged = censored_model(model, ghat)
    assert plugged.sim_log_rel_lik is not None
    slow = dataclasses.replace(plugged, sim_log_rel_lik=None)
    m = 400
    for theta in ([0.2, 0.4], [0.6, 0.7]):
        a = mc_contour(plugged, data, theta, m, np.random.default_rng(21))
        b = mc_contour(slow, data, theta, m, np.random.default_rng(22))
        pbar = min(max((a + b) / 2, 1.0 / m), 1 - 1.0 / m)
        tol = 3.0 * np.sqrt(2.0 * pbar * (1 - pbar) / m)
        assert abs(a - b) <= tol


def test_censored_contour_no_censoring_reduces_to_plain_mc():
    model = lognormal_censored()
    rng = np.random.default_rng(19)
    y = np.exp(rng.normal(0.2, 0.6, size=20))
    data = Dataset(responses=y, censor=np.ones(20, dtype=int))
    ghat = CensoringEstimate(support=np.array([1e-12]), masses=np.array([1.0]))
    theta_hat = model.mle(data)
    m = 300
    offsets = np.array(
        [[0.0, 0.0], [0.3, 0.0], [-0.3, 0.0], [0.0, 0.2], [0.2, 0.15],
         [-0.2, 0.1], [0.45, 0.0], [0.0, 0.35], [-0.4, 0.05], [0.1, -0.1]]
    )
    for off in offsets:
        theta = theta_hat + off
        a = censored_contour(model, data, ghat, theta, m, np.random.default_rng(31))
        b = mc_contour(model, data, theta, m, np.random.default_rng(32))
        pbar = min(max((a + b) / 2, 1.0 / m), 1 - 1.0 / m)
        tol = 3.0 * np.sqrt(2.0 * pbar * (1 - pbar) / m)
        assert abs(a - b) <= tol


def test_censored_sim_hook_survives_log_reparam():
    """``log_reparam`` wraps the censored kernel: at eta it draws exactly
    what the base kernel draws at theta = exp(eta), and far rows are -inf."""
    data = _censored_data()
    ghat = kaplan_meier_swapped(data)
    eta_sim = censored_model(log_reparam(lognormal_censored()), ghat).sim_log_rel_lik
    base_sim = censored_model(lognormal_censored(), ghat).sim_log_rel_lik
    assert eta_sim is not None
    etas = np.array([[np.log(0.3), np.log(0.49)], [0.0, 800.0], [np.log(0.6), np.log(0.3)]])
    got = eta_sim(etas, data.n, 300, np.random.default_rng(41))
    want = base_sim(np.exp(etas[[0, 2]]), data.n, 300, np.random.default_rng(41))
    assert np.array_equal(got[[0, 2]], want)
    assert np.all(got[1] == -np.inf)


def test_censored_sim_without_mass_fails_when_run():
    ghat = CensoringEstimate(support=np.array([1.0]), masses=np.array([0.0]), residual=0.0)
    plugged = censored_model(lognormal_censored(), ghat)
    with pytest.raises(ValueError, match="no mass"):
        plugged.sim_log_rel_lik(np.array([[0.3, 0.49]]), 10, 20, np.random.default_rng(1))


def test_censored_sim_fully_censored_replicates_without_warning():
    """A censoring level far above the data censors every slot; each
    replicate's log relative likelihood is then its log-likelihood at theta
    (supremum 0), with no refit and no warning."""
    ghat = CensoringEstimate(support=np.array([30.0]), masses=np.array([1.0]))
    sim = censored_model(lognormal_censored(), ghat).sim_log_rel_lik
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = sim(np.array([[0.3, 0.49]]), 8, 50, np.random.default_rng(2))
    expected = 8 * special.log_ndtr((np.log(30.0) - 0.3) / 0.7)
    assert np.allclose(vals, expected, rtol=0, atol=1e-12)


def test_make_censored_contour_deterministic():
    model = lognormal_censored()
    data = _censored_data()
    ghat = kaplan_meier_swapped(data)
    contour = make_censored_contour(model, data, ghat, m=150, seed=9)
    theta = np.array([0.4, 0.5])
    assert contour(theta) == contour(theta)
    assert contour.kind == "monte-carlo"


# ---------------------------------------------------------------------------
# relative profile likelihood (gamma mean)
# ---------------------------------------------------------------------------


def test_profile_rel_lik_is_one_at_mean_mle():
    model = gamma_mean_shape()
    data = _gamma_data()
    spec = gamma_mean_profile()
    phi_hat = float(np.mean(data.responses))
    assert relative_profile_likelihood(model, data, spec, phi_hat) == pytest.approx(
        1.0, abs=1e-9
    )


def test_profile_rel_lik_matches_scalar_optimizer():
    model = gamma_mean_shape()
    data = _gamma_data()
    spec = gamma_mean_profile()
    theta_hat = model.mle(data)
    for phi in (1.6, 2.1, 2.8):
        res = optimize.minimize_scalar(
            lambda a: -model.log_lik(data, np.array([a, phi])),
            bounds=(1e-3, 400.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        expected = np.exp(-res.fun - model.log_lik(data, theta_hat))
        got = relative_profile_likelihood(model, data, spec, phi)
        assert got == pytest.approx(expected, rel=1e-6)
        # the constrained maximizer itself sits on the fiber
        theta_c = spec.constrained_mle(data, phi)
        assert theta_c[1] == pytest.approx(phi)
        assert theta_c[0] == pytest.approx(res.x, rel=1e-5)


def test_profile_rel_lik_tiny_in_far_tail():
    model = gamma_mean_shape()
    data = _gamma_data()
    spec = gamma_mean_profile()
    phi = 3.0 * float(np.mean(data.responses))
    got = relative_profile_likelihood(model, data, spec, phi)
    # independent coarse check: best value over a dense shape grid
    grid = np.linspace(0.05, 300.0, 12000)
    vals = [model.log_lik(data, np.array([a, phi])) for a in grid]
    oracle = np.exp(np.max(vals) - model.log_lik(data, model.mle(data)))
    assert got < 0.01
    assert got == pytest.approx(oracle, rel=1e-3)


def test_profile_rejects_bad_phi_and_broken_optimizer():
    model = gamma_mean_shape()
    data = _gamma_data()
    spec = gamma_mean_profile()
    with pytest.raises((ValueError, FiberOptimizationError)):
        relative_profile_likelihood(model, data, spec, -1.0)

    def broken(data, phi):
        raise RuntimeError("no fiber point")

    bad = dataclasses.replace(spec, constrained_mle=broken)
    with pytest.raises(FiberOptimizationError) as err:
        relative_profile_likelihood(model, data, bad, 2.0)
    assert "2.0" in str(err.value)


def test_profile_spec_validates_probe_count():
    spec = gamma_mean_profile()
    with pytest.raises(ValueError):
        dataclasses.replace(spec, probes=0)


def test_gamma_fiber_probes_spacing():
    model = gamma_mean_shape()
    data = _gamma_data()
    spec = gamma_mean_profile()
    phi = 2.2
    pts = spec.fiber_probes(data, phi, 5)
    assert pts.shape == (5, 2)
    assert np.allclose(pts[:, 1], phi)
    a0 = spec.constrained_mle(data, phi)[0]
    sigma = 1.0 / np.sqrt(data.n * (special.polygamma(1, a0) - 1.0 / a0))
    expected = a0 + np.array([0.0, 0.5, -0.5, 1.0, -1.0]) * sigma
    assert np.allclose(pts[:, 0], expected, rtol=1e-8)


# ---------------------------------------------------------------------------
# profile contour
# ---------------------------------------------------------------------------


def test_profile_contour_exactly_one_at_phi_hat():
    model = gamma_mean_shape()
    data = _gamma_data()
    spec = gamma_mean_profile()
    phi_hat = float(np.mean(data.responses))
    val = profile_contour(model, data, spec, phi_hat, 80, np.random.default_rng(3))
    # every simulated profile relative likelihood is <= 1 = observed value
    assert val == 1.0


def test_profile_probe_prefix_consistency():
    model = gamma_mean_shape()
    data = _gamma_data()
    spec = gamma_mean_profile()
    phi = 1.8
    vals5 = profile_probe_values(
        model, data, spec, phi, 120, np.random.default_rng(17)
    )
    vals1 = profile_probe_values(
        model, data, spec, phi, 120, np.random.default_rng(17), probes=1
    )
    assert vals5.shape == (5,)
    assert vals1.shape == (1,)
    assert vals5[0] == vals1[0]
    assert profile_contour(
        model, data, spec, phi, 120, np.random.default_rng(17)
    ) == pytest.approx(np.max(vals5))


def test_profile_contour_hook_and_loop_agree():
    model = gamma_mean_shape()
    data = _gamma_data()
    spec = gamma_mean_profile()
    no_hook = dataclasses.replace(spec, sim_profile_log_rel=None)
    m = 300
    for phi in (1.7, 2.4):
        a = profile_contour(model, data, spec, phi, m, np.random.default_rng(41))
        b = profile_contour(model, data, no_hook, phi, m, np.random.default_rng(42))
        pbar = min(max((a + b) / 2, 1.0 / m), 1 - 1.0 / m)
        tol = 3.0 * np.sqrt(2.0 * pbar * (1 - pbar) / m)
        assert abs(a - b) <= tol


def test_profile_contour_unimodal_on_grids():
    model = gamma_mean_shape()
    spec = gamma_mean_profile()
    m = 250
    for seed in range(5):
        data = _gamma_data(seed=60 + seed)
        phi_hat = float(np.mean(data.responses))
        sd = phi_hat / np.sqrt(data.n * model.mle(data)[0])
        grid = phi_hat + np.linspace(0.0, 4.0, 10) * sd
        contour = make_profile_contour(model, data, spec, m=m, seed=90 + seed)
        for half in (grid, phi_hat - (grid - phi_hat)):
            vals = np.array([contour(np.array([p])) for p in half])
            se = np.sqrt(np.maximum(vals * (1 - vals), 0.25 / m) / m)
            slack = 2.0 * np.sqrt(se[1:] ** 2 + se[:-1] ** 2)
            assert np.all(vals[1:] <= vals[:-1] + slack)


# ---------------------------------------------------------------------------
# profile companion family and fit
# ---------------------------------------------------------------------------


def test_profile_companion_variance_closed_form():
    model = gamma_mean_shape()
    data = _gamma_data()
    spec = gamma_mean_profile()
    fam = profile_companion_family(model, data, spec)
    a_hat, phi_hat = model.mle(data)
    # at the gamma MLE the information matrix is diagonal, so the interest
    # variance collapses to phi^2/(n a): the classical variance of the mean
    assert isinstance(fam, GaussianScalarFamily)
    assert fam.theta_hat[0] == pytest.approx(phi_hat)
    var = 1.0 / fam.info[0, 0]
    assert var == pytest.approx(phi_hat**2 / (data.n * a_hat), rel=1e-8)


def test_profile_fit_widens_on_gamma_mean():
    model = gamma_mean_shape()
    data = _gamma_data(seed=77)
    spec = gamma_mean_profile()
    contour = make_profile_contour(model, data, spec, m=200, seed=5)
    cfg = _config(seed=13, k_outer=60, max_iter=25, epsilon=0.01)
    fam, trace = fit_profile_companion(model, data, spec, contour, cfg)
    assert trace.reason in ("converged", "max-iterations")
    assert float(np.ravel(fam.xi)[0]) > 1.0


# ---------------------------------------------------------------------------
# empirical risk / quantile bootstrap
# ---------------------------------------------------------------------------


def test_quantile_loss_hand_value_and_pinball_offset():
    # LOSS_theta(x) = 0.5{(|x-theta| - x) + (1-2 tau) theta}
    assert quantile_loss(3.0, 1.0, 0.25) == pytest.approx(-0.25)
    rng = np.random.default_rng(5)
    x = rng.gamma(4.0, 1.0, size=40)

    def pinball(x, th, tau):
        u = x - th
        return np.mean(np.where(u >= 0, tau * u, (tau - 1) * u))

    # the loss differs from the pinball loss by a theta-free term, so risk
    # differences across theta agree exactly
    for t1, t2 in [(1.0, 2.5), (3.1, 0.4)]:
        d_loss = np.mean(quantile_loss(x, t1, 0.25)) - np.mean(
            quantile_loss(x, t2, 0.25)
        )
        d_pin = pinball(x, t1, 0.25) - pinball(x, t2, 0.25)
        assert d_loss == pytest.approx(d_pin, abs=1e-12)


def test_quantile_erm_is_order_statistic():
    x = np.array([5.0, 1.0, 9.0, 4.0, 2.0, 8.0, 7.0])
    # n=7, tau=0.25 -> ceil(1.75) = 2nd smallest
    assert quantile_erm(x, 0.25) == pytest.approx(2.0)
    # n=4, tau=0.5 -> leftmost median
    assert quantile_erm(np.array([3.0, 1.0, 2.0, 4.0]), 0.5) == pytest.approx(2.0)
    # rows of a batch are handled independently
    batch = np.array([[5.0, 1.0, 3.0], [2.0, 9.0, 4.0]])
    assert np.allclose(quantile_erm(batch, 0.5), [3.0, 4.0])
    # brute force: no grid point does better
    spec = quantile_risk_spec(0.25)
    rho_hat = empirical_risk(spec, x, quantile_erm(x, 0.25))
    grid = np.linspace(0.0, 10.0, 5001)
    rho_grid = np.array([empirical_risk(spec, x, g) for g in grid])
    assert rho_hat <= np.min(rho_grid) + 1e-12


def test_empirical_risk_rel_is_one_at_erm():
    rng = np.random.default_rng(23)
    x = rng.gamma(4.0, 1.0, size=60)
    spec = quantile_risk_spec(0.25)
    theta_hat = spec.erm(x)
    assert empirical_risk_rel(spec, x, theta_hat) == pytest.approx(1.0)
    assert empirical_risk_rel(spec, x, theta_hat + 1.0) < 1.0


def test_empirical_risk_contour_one_at_erm_every_seed():
    rng = np.random.default_rng(29)
    x = rng.gamma(4.0, 1.0, size=50)
    data = Dataset(responses=x)
    spec = quantile_risk_spec(0.25, B=200)
    theta_hat = spec.erm(x)
    for seed in range(5):
        val = empirical_risk_contour(
            data, spec, theta_hat, np.random.default_rng(seed)
        )
        assert val == 1.0


def test_empirical_risk_contour_positive_near_first_quartile():
    rng = np.random.default_rng(123)
    data = Dataset(responses=rng.gamma(4.0, 1.0, size=100))
    spec = quantile_risk_spec(0.25, B=500)
    val = empirical_risk_contour(data, spec, 2.53, np.random.default_rng(7))
    assert 0.0 < val <= 1.0
    far = empirical_risk_contour(data, spec, 8.0, np.random.default_rng(7))
    assert far < val


def test_empirical_risk_contour_is_peaked():
    """A flat contour is trivially valid; this one must fall off within a
    few standard errors of the estimate."""
    rng = np.random.default_rng(123)
    data = Dataset(responses=rng.gamma(4.0, 1.0, size=100))
    spec = quantile_risk_spec(0.25, B=500)
    fam = quantile_companion_family(data, 0.25)
    for theta in (fam.theta_hat - 4.0 * fam.sd, fam.theta_hat + 4.0 * fam.sd):
        rng = np.random.default_rng(7)
        assert empirical_risk_contour(data, spec, theta, rng) < 0.05


def test_empirical_risk_contour_object_deterministic():
    rng = np.random.default_rng(41)
    data = Dataset(responses=rng.gamma(4.0, 1.0, size=80))
    spec = quantile_risk_spec(0.25, B=300)
    contour = make_empirical_risk_contour(data, spec, seed=3)
    th = np.array([2.2])
    assert contour(th) == contour(th)
    assert contour.kind == "bootstrap-er"
    assert contour.meta["B"] == 300


def test_risk_spec_validation_and_minimizer_failure():
    with pytest.raises(ValueError):
        quantile_risk_spec(0.0)
    with pytest.raises(ValueError):
        quantile_risk_spec(0.25, B=0)
    spec = quantile_risk_spec(0.25, B=50)
    bad = dataclasses.replace(spec, erm=lambda v: np.full(np.shape(v)[:-1], np.nan))
    data = Dataset(responses=np.arange(1.0, 9.0))
    with pytest.raises(RiskMinimizationError):
        empirical_risk_contour(data, bad, 2.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# kernel density and the quantile companion family
# ---------------------------------------------------------------------------


def test_normal_reference_kde_hand_value():
    x = np.array([0.0, 1.0])
    h = 1.06 * np.std(x, ddof=1) * 2 ** (-0.2)
    expected = float(np.mean(stats.norm.pdf((0.5 - x) / h)) / h)
    assert normal_reference_kde(x, 0.5) == pytest.approx(expected, rel=1e-12)


def test_quantile_companion_family_shape():
    rng = np.random.default_rng(6)
    x = rng.gamma(4.0, 1.0, size=100)
    data = Dataset(responses=x)
    fam = quantile_companion_family(data, 0.25)
    theta_hat = quantile_erm(x, 0.25)
    p_hat = normal_reference_kde(x, theta_hat)
    sd = np.sqrt(0.25 * 0.75 / (100 * p_hat**2))
    assert fam.theta_hat == pytest.approx(theta_hat)
    assert fam.sd == pytest.approx(sd, rel=1e-12)
    # spread shrinks exactly like 1/xi
    assert fam.with_xi(2.0).sd == pytest.approx(sd / 2.0, rel=1e-12)
    # contour two sds out is the chi-square(1) tail at 4
    val = quantile_companion_contour(fam, theta_hat + 2 * sd)
    assert val == pytest.approx(stats.chi2.sf(4.0, 1), rel=1e-10)
    draws = sample(fam, 4000, np.random.default_rng(9))
    assert draws.shape == (4000, 1)
    assert abs(np.mean(draws) - theta_hat) < 4 * sd / np.sqrt(4000)
    assert abs(np.std(draws) - sd) < 0.05 * sd


def test_fit_quantile_companion_on_bootstrap_contour():
    rng = np.random.default_rng(123)
    data = Dataset(responses=rng.gamma(4.0, 1.0, size=100))
    spec = quantile_risk_spec(0.25, B=300)
    contour = make_empirical_risk_contour(data, spec, seed=3)
    fam = quantile_companion_family(data, 0.25)
    cfg = _config(seed=19, k_outer=100, max_iter=40, epsilon=0.01)
    fitted, trace = fit_quantile_companion(contour, fam, cfg)
    assert trace.reason in ("converged", "max-iterations")
    assert 0.3 < fitted.xi < 3.0
    assert trace.failures == 0


# ---------------------------------------------------------------------------
# censored-data variational fit on (theta1, log theta2)
# ---------------------------------------------------------------------------


def test_censored_vector_fit_on_partial_log_scale():
    model = lognormal_censored()
    data = _censored_data()
    assert 6 <= int(np.sum(1 - data.censor)) <= 18  # a genuinely mixed dataset
    ghat = kaplan_meier_swapped(data)
    plugged = censored_model(model, ghat)
    eta_model = log_reparam(plugged, indices=[1])
    contour = make_mc_contour(eta_model, data, m=200, seed=5)
    cfg = _config(seed=3, max_iter=30, epsilon=0.01)
    fam, trace = fit_vector(eta_model, data, cfg, contour=contour)
    assert trace.reason in ("converged", "max-iterations")
    assert fam.xi.shape == (2,)
    assert np.all(fam.xi > 0.2) and np.all(fam.xi < 5.0)
    # mapping back: the family is anchored at (mu_hat, log v_hat)
    theta_hat = model.mle(data)
    assert np.allclose(fam.theta_hat, [theta_hat[0], np.log(theta_hat[1])], atol=1e-8)
