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

from possfit.contours import (
    AxisSpec,
    grid_eval,
    log_relative_likelihood,
    make_mc_contour,
)
from possfit.families import (
    GaussianScalarFamily,
    chi2_ppf,
    gaussian_contour,
    gaussian_cov_matrix,
    sample,
    stratified_offsets,
)
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
    RiskMinimizationError,
    RiskSpec,
    censored_model,
    empirical_risk,
    gamma_mean_profile,
    kaplan_meier_swapped,
    make_censored_contour,
    make_empirical_risk_contour,
    make_profile_contour,
    normal_reference_kde,
    profile_companion_family,
    quantile_companion_family,
    quantile_erm,
    quantile_loss,
    quantile_risk_spec,
    relative_profile_likelihood,
)
from possfit._rng import NODE_TAG, SA_TAG, derive_rng
from possfit.sa import SAConfig, fit_scalar_anchored, fit_vector


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


def _fit(family, contour, config):
    """A companion fit: the family's anchor fitted to the contour."""
    return fit_scalar_anchored(family.theta_hat, family.info, contour, config)


def _center_sd(family):
    """The mean and standard deviation of a scalar Gaussian companion."""
    return float(family.theta_hat[0]), float(np.sqrt(gaussian_cov_matrix(family)[0, 0]))


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
    assert np.allclose(np.cumsum(est.masses), [0.25, 0.5])


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
    contour = make_censored_contour(model, data, ghat, m=200, seed=0)
    val = contour.evaluate(model.mle(data), np.random.default_rng(7))
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
        a = make_mc_contour(plugged, data, m, seed=0).evaluate(
            theta, np.random.default_rng(21))
        b = make_mc_contour(slow, data, m, seed=0).evaluate(
            theta, np.random.default_rng(22))
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
    censored = make_censored_contour(model, data, ghat, m, seed=0)
    plain = make_mc_contour(model, data, m, seed=0)
    offsets = np.array(
        [[0.0, 0.0], [0.3, 0.0], [-0.3, 0.0], [0.0, 0.2], [0.2, 0.15],
         [-0.2, 0.1], [0.45, 0.0], [0.0, 0.35], [-0.4, 0.05], [0.1, -0.1]]
    )
    for off in offsets:
        theta = theta_hat + off
        a = censored.evaluate(theta, np.random.default_rng(31))
        b = plain.evaluate(theta, np.random.default_rng(32))
        pbar = min(max((a + b) / 2, 1.0 / m), 1 - 1.0 / m)
        tol = 3.0 * np.sqrt(2.0 * pbar * (1 - pbar) / m)
        assert abs(a - b) <= tol


def test_censored_sim_hook_survives_log_reparam():
    """``log_reparam`` wraps the censored kernel: at eta it draws exactly
    what the base kernel draws at theta = exp(eta).  A far row lies off the
    log model's domain, so its contour is 0 and the kernel never sees it."""
    data = _censored_data()
    ghat = kaplan_meier_swapped(data)
    log_model = censored_model(log_reparam(lognormal_censored()), ghat)
    eta_sim = log_model.sim_log_rel_lik
    base_sim = censored_model(lognormal_censored(), ghat).sim_log_rel_lik
    assert eta_sim is not None
    etas = np.array([[np.log(0.3), np.log(0.49)], [0.0, 800.0], [np.log(0.6), np.log(0.3)]])
    assert np.array_equal(log_model.domain(etas)[0], [True, False, True])
    got = eta_sim(etas[[0, 2]], data.n, 300, np.random.default_rng(41))
    want = base_sim(np.exp(etas[[0, 2]]), data.n, 300, np.random.default_rng(41))
    assert np.array_equal(got, want)
    assert make_mc_contour(log_model, data, m=50, seed=1)(etas[1]) == 0.0


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
    val = make_profile_contour(model, data, spec, m=80, seed=0).evaluate(
        [phi_hat], np.random.default_rng(3))
    # every simulated profile relative likelihood is <= 1 = observed value
    assert val == 1.0


def test_profile_probe_prefix_consistency():
    """The contour is the max over its probes, and the first of five probes
    draws what the only probe of a 1-probe spec draws on the same
    generator, so the 5-probe contour is at least the 1-probe contour."""
    model = gamma_mean_shape()
    data = _gamma_data()
    spec = gamma_mean_profile()
    one = dataclasses.replace(spec, probes=1)
    for phi in (1.8, 2.2):
        five_val = make_profile_contour(model, data, spec, m=120, seed=0).evaluate(
            [phi], np.random.default_rng(17))
        one_val = make_profile_contour(model, data, one, m=120, seed=0).evaluate(
            [phi], np.random.default_rng(17))
        assert 0.0 < one_val <= five_val <= 1.0


def test_profile_contour_hook_and_loop_agree():
    model = gamma_mean_shape()
    data = _gamma_data()
    spec = gamma_mean_profile()
    no_hook = dataclasses.replace(spec, sim_profile_log_rel=None)
    m = 300
    for phi in (1.7, 2.4):
        a = make_profile_contour(model, data, spec, m, seed=0).evaluate(
            [phi], np.random.default_rng(41))
        b = make_profile_contour(model, data, no_hook, m, seed=0).evaluate(
            [phi], np.random.default_rng(42))
        pbar = min(max((a + b) / 2, 1.0 / m), 1 - 1.0 / m)
        tol = 3.0 * np.sqrt(2.0 * pbar * (1 - pbar) / m)
        assert abs(a - b) <= tol


def test_profile_batch_equals_sequential_points_and_isolates_a_failed_fiber():
    """The probes of every phi in a batch are simulated as one batch, in
    order: each value equals the point evaluations in sequence on one
    generator.  A phi whose fiber maximizer fails (a negative mean) is NaN,
    draws nothing and changes no other value."""
    model, data, spec = gamma_mean_shape(), _gamma_data(), gamma_mean_profile()
    contour = make_profile_contour(model, data, spec, m=90, seed=5)
    for phis in ([[-1.0], [1.7], [2.1], [0.0], [2.4]], [[1.7], [-1.0], [2.1], [2.4]]):
        phis = np.array(phis)
        bad = phis[:, 0] <= 0.0
        batch = contour.evaluate_batch(phis, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        assert batch[~bad].tolist() == [contour.evaluate(phi, rng) for phi in phis[~bad]]
        assert np.isnan(batch[bad]).all()
        kept = contour.evaluate_batch(phis[~bad], np.random.default_rng(8))
        assert np.array_equal(batch[~bad], kept)
    # a batch of one is the contour's own point evaluation
    assert np.isnan(contour.evaluate([-1.0], np.random.default_rng(8)))
    assert np.isnan(contour(-1.0))
    assert np.isnan(contour.evaluate_keyed([0.0], [(NODE_TAG, 0)])[0])


def test_profile_grid_equals_node_by_node_evaluations():
    """A profile grid is one keyed batch per slice, every probe of a node on
    that node's stream: at one and at three slices it equals the nodes
    evaluated one at a time."""
    model, data, spec = gamma_mean_shape(), _gamma_data(), gamma_mean_profile()
    contour = make_profile_contour(model, data, spec, m=60, seed=5)
    axes = [AxisSpec(1.4, 2.8, 7)]
    nodes = axes[0].points()
    want = [contour.evaluate_keyed([phi], [(NODE_TAG, i)])[0] for i, phi in enumerate(nodes)]
    for parallelism in (1, 3):
        assert grid_eval(contour, axes, parallelism).values.tolist() == want


def test_profile_kernel_below_shape_one_matches_the_loop():
    """Below shape 1 the profile kernel draws log x, as the model kernel
    does: at shape 0.001, where a gamma draw underflows to 0, every ratio is
    finite, and at shape 0.3 a row's values match the per-dataset loop
    through the sampler in a batch that also has a row above shape 1."""
    model = gamma_mean_shape()
    spec = gamma_mean_profile()
    kernel = spec.sim_profile_log_rel
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = kernel(np.array([[0.001, 2.0]]), 12, 2000, np.random.default_rng(0))
    assert np.all(np.isfinite(tiny)) and np.all(tiny <= 1e-12)
    n, m = 12, 1500
    thetas = np.array([[0.3, 2.0], [2.5, 1.5]])
    fast = kernel(thetas, n, m, np.random.default_rng(51))
    rng = np.random.default_rng(52)
    for i, theta in enumerate(thetas):
        loop = [np.log(relative_profile_likelihood(model, model.sample(theta, n, rng), spec,
                                                   theta[1])) for _ in range(m)]
        assert stats.ks_2samp(fast[i], loop).pvalue > 0.01


def test_profile_kernel_failure_is_nan_for_the_phis_of_its_call():
    """A raising profile kernel makes NaN every phi with a probe in that
    call, and only those: with m = 2048 a call holds the probes of at most
    two phis."""
    model, data, spec = gamma_mean_shape(), _gamma_data(), gamma_mean_profile(probes=1)
    kernel = spec.sim_profile_log_rel

    def fragile(thetas, n, m, rng):
        if np.any(thetas[:, 1] == 2.1):
            raise FloatingPointError("kernel failure")
        return kernel(thetas, n, m, rng)

    contour = make_profile_contour(
        model, data, dataclasses.replace(spec, sim_profile_log_rel=fragile), m=2048, seed=5)
    vals = contour.evaluate_batch(np.array([[1.7], [2.1], [2.4], [2.6]]),
                                  np.random.default_rng(8))
    assert np.isnan(vals[:2]).all() and np.isfinite(vals[2:]).all()


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
    fam, trace = _fit(profile_companion_family(model, data, spec), contour, cfg)
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


def test_empirical_risk_contour_one_at_erm_every_seed():
    rng = np.random.default_rng(29)
    x = rng.gamma(4.0, 1.0, size=50)
    data = Dataset(responses=x)
    spec = quantile_risk_spec(0.25, B=200)
    theta_hat = spec.erm(x)
    for seed in range(5):
        assert make_empirical_risk_contour(data, spec, seed=seed)(theta_hat) == 1.0


def test_empirical_risk_contour_positive_near_first_quartile():
    rng = np.random.default_rng(123)
    data = Dataset(responses=rng.gamma(4.0, 1.0, size=100))
    spec = quantile_risk_spec(0.25, B=500)
    contour = make_empirical_risk_contour(data, spec, seed=7)
    val = contour(2.53)
    assert 0.0 < val <= 1.0
    assert contour(8.0) < val


def test_empirical_risk_contour_is_peaked():
    """A flat contour is trivially valid; this one must fall off within a
    few standard errors of the estimate."""
    rng = np.random.default_rng(123)
    data = Dataset(responses=rng.gamma(4.0, 1.0, size=100))
    spec = quantile_risk_spec(0.25, B=500)
    center, sd = _center_sd(quantile_companion_family(data, 0.25))
    contour = make_empirical_risk_contour(data, spec, seed=7)
    for theta in (center - 4.0 * sd, center + 4.0 * sd):
        assert contour(theta) < 0.05


def test_bootstrap_grid_is_unimodal_around_the_estimate():
    """The risk ratio peaks at theta_hat, and the contour is a lookup of it
    in one resample set, so a grid rises to theta_hat and falls after it;
    the grid is one batch call of a seedless contour."""
    rng = np.random.default_rng(123)
    data = Dataset(responses=rng.gamma(4.0, 1.0, size=100))
    center, sd = _center_sd(quantile_companion_family(data, 0.25))
    contour = make_empirical_risk_contour(data, quantile_risk_spec(0.25, B=500), seed=3)
    assert contour.seed is None and contour.meta["seed"] == 3
    calls = []
    batch = contour.evaluate_batch
    contour.evaluate_batch = lambda thetas, rng: calls.append(1) or batch(thetas, rng)
    grid = grid_eval(contour, [AxisSpec(center - 5.0 * sd, center + 5.0 * sd, 200)])
    assert len(calls) == 1 and grid.seed == 3
    nodes, values = grid.nodes()[:, 0], grid.values
    assert np.all(np.diff(values[nodes <= center]) >= 0.0)
    assert np.all(np.diff(values[nodes >= center]) <= 0.0)
    assert values.max() == 1.0 and values.min() < 0.05


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
        make_empirical_risk_contour(data, bad, seed=0)


def test_bootstrap_contour_rejects_paired_responses():
    """Paired responses were once flattened into one vector of 2n values;
    the bootstrap contour needs a vector, and its factory says so."""
    pairs = Dataset(responses=np.random.default_rng(5).standard_normal((30, 2)))
    with pytest.raises(ValueError, match=r"vector of responses, got shape \(30, 2\)"):
        make_empirical_risk_contour(pairs, quantile_risk_spec(0.5, B=50), seed=1)


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
    assert isinstance(fam, GaussianScalarFamily) and fam.xi == 1.0
    assert _center_sd(fam) == pytest.approx((theta_hat, sd), rel=1e-12)
    # spread grows exactly like xi
    assert _center_sd(fam.with_xi(2.0))[1] == pytest.approx(2.0 * sd, rel=1e-12)
    # contour two sds out is the chi-square(1) tail at 4
    val = gaussian_contour(fam, theta_hat + 2 * sd)
    assert val == pytest.approx(stats.chi2.sf(4.0, 1), rel=1e-10)
    draws = sample(fam, 4000, np.random.default_rng(9))
    assert draws.shape == (4000, 1)
    assert abs(np.mean(draws) - theta_hat) < 4 * sd / np.sqrt(4000)
    assert abs(np.std(draws) - sd) < 0.05 * sd


@pytest.mark.parametrize("tau", [0.0, 1.0, -0.5])
def test_quantile_companion_rejects_tau_outside_unit_interval(tau):
    data = Dataset(responses=np.arange(1.0, 9.0))
    with pytest.raises(ValueError, match="tau must lie strictly between 0 and 1"):
        quantile_companion_family(data, tau)


def test_quantile_companion_fit_matches_the_bootstrap_cut():
    """The fitted (1 - alpha) interval's half-width matches the half-width
    of the bootstrap contour's alpha-cut, read off a fine grid."""
    rng = np.random.default_rng(123)
    data = Dataset(responses=rng.gamma(4.0, 1.0, size=100))
    spec = quantile_risk_spec(0.25, B=300)
    contour = make_empirical_risk_contour(data, spec, seed=3)
    fam = quantile_companion_family(data, 0.25)
    cfg = _config(seed=19, k_outer=100, max_iter=40, epsilon=0.01)
    fitted, trace = _fit(fam, contour, cfg)
    assert trace.reason in ("converged", "max-iterations")
    assert trace.failures == 0
    center, sd = _center_sd(fam)
    grid = grid_eval(contour, [AxisSpec(center - 6.0 * sd, center + 6.0 * sd, 2001)])
    cut = grid.nodes()[grid.values.ravel() > cfg.alpha][:, 0]
    cut_half_width = 0.5 * (cut.max() - cut.min())
    fitted_half_width = np.sqrt(chi2_ppf(1.0 - cfg.alpha, 1)) * _center_sd(fitted)[1]
    assert fitted_half_width == pytest.approx(cut_half_width, rel=0.10)


def _same_trace(a, b):
    return (a.ts == b.ts and a.reason == b.reason and a.failures == b.failures
            and all(np.array_equal(x, y) for x, y in zip(a.xis, b.xis))
            and all(np.array_equal(x, y) for x, y in zip(a.objectives, b.objectives)))


def test_companion_fits_rerun_bit_identically():
    """Each SA iteration evaluates its draws as one batch on its (t, 0)
    stream, so a profile or bootstrap companion fit reruns bit for bit."""
    model, data, spec = gamma_mean_shape(), _gamma_data(seed=77), gamma_mean_profile()
    cfg = _config(seed=13, k_outer=30, max_iter=8, epsilon=0.01)
    fam = profile_companion_family(model, data, spec)
    runs = [_fit(fam, make_profile_contour(model, data, spec, m=100, seed=5), cfg)[1]
            for _ in range(2)]
    assert _same_trace(*runs)
    qspec = quantile_risk_spec(0.25, B=100)
    fam = quantile_companion_family(data, 0.25)
    runs = [_fit(fam, make_empirical_risk_contour(data, qspec, seed=3), cfg)[1]
            for _ in range(2)]
    assert _same_trace(*runs)


def test_companion_fit_tallies_each_raising_row_once():
    """A draw whose observed risk raises is NaN in the batch and one
    failure in the trace: the tally equals the pool draws past the cut
    point that each iteration decided afresh.  The loss raises on the
    observed data (not the resamples) for any theta past the cut, scalar or
    a column of a batch.  The oracle replays the pool and its ray rule, with
    the decisions of the same contour whose loss never raises."""
    data = _gamma_data(seed=77)
    base = quantile_risk_spec(0.25, B=50)
    fam = quantile_companion_family(data, 0.25)
    center, sd = _center_sd(fam)
    cut = center + 0.5 * sd

    def loss(values, theta):
        if np.ndim(values) == 1 and np.any(np.asarray(theta) > cut):
            raise RiskMinimizationError("synthetic failure past the cut")
        return base.loss(values, theta)

    contour = make_empirical_risk_contour(
        data, dataclasses.replace(base, loss=loss), seed=3)
    plain = make_empirical_risk_contour(data, base, seed=3)
    cfg = _config(seed=19, k_outer=40, max_iter=6, epsilon=1e-9)
    _, trace = _fit(fam, contour, cfg)
    offsets = stratified_offsets(fam.with_xi(1.0), cfg.k_outer,
                                 derive_rng(cfg.seed, SA_TAG, 0))
    inside_to, outside_from = np.zeros(cfg.k_outer), np.full(cfg.k_outer, np.inf)
    past = 0
    for xi in [1.0] + [float(x[0]) for x in trace.xis[:-1]]:
        draws = fam.theta_hat + xi * offsets
        live = (inside_to < xi) & (xi < outside_from)
        failing = live & (draws[:, 0] > cut)
        past += int(np.sum(failing))
        above = plain.evaluate_batch(draws, None) > cfg.alpha
        inside_to[live & ~failing & above] = xi
        outside_from[live & ~failing & ~above] = xi
    assert past > 0
    assert trace.failures == past


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
