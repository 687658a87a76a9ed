"""Model-layer tests: relative likelihood, MLEs, observed information.

Oracle conventions used below:
  * closed-form relative-likelihood values are frozen from the direct formula
    (noted next to each literal);
  * optimizer-based MLEs are checked against coarse grid searches plus a
    score-at-optimum condition, never against the optimizer itself;
  * analytic information matrices are checked against central finite
    differences of the log-likelihood.
"""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import possfit.models as models_module
from possfit.contours import make_mc_contour
from possfit.models import (
    Dataset,
    DegenerateMLEError,
    _CensStats,
    _binom_log_pmf,
    _binom_log_rel,
    _bvn_loglik_stats,
    _bvn_mle_from_stats,
    _cens_normal_loglik,
    _cens_normal_mle,
    _column_pairs,
    binomial,
    bvn_correlation,
    finite_difference_information,
    gamma_mean_shape,
    gamma_shape_scale,
    log_relative_likelihood,
    log_reparam,
    logistic_regression,
    lognormal,
    lognormal_censored,
    mle_and_information,
    multinomial,
    normal_means,
    normal_means_lasso,
    poisson_loglinear,
    soft_threshold,
)


def _binom_data(s, n):
    y = np.zeros(n, dtype=int)
    y[:s] = 1
    return Dataset(responses=y)


# ---------------------------------------------------------------------------
# relative likelihood
# ---------------------------------------------------------------------------


def test_binomial_relative_likelihood_frozen_value():
    # (n*theta/s)^s * ((n - n*theta)/(n - s))^(n - s) at n=15, s=6, theta=0.5:
    # (7.5/6)^6 * (7.5/9)^9 = 0.7393138865196799
    data = _binom_data(6, 15)
    r = np.exp(log_relative_likelihood(binomial(), data, [0.5]))
    assert r == pytest.approx(0.7393138865196799, abs=1e-12)


def test_relative_likelihood_is_one_at_mle():
    data = _binom_data(6, 15)
    r = np.exp(log_relative_likelihood(binomial(), data, [0.4]))
    assert r == pytest.approx(1.0, abs=1e-12)


def test_relative_likelihood_off_support_is_zero():
    data = _binom_data(6, 15)
    assert np.exp(log_relative_likelihood(binomial(), data, [0.0])) == 0.0
    assert np.exp(log_relative_likelihood(binomial(), data, [1.0])) == 0.0
    assert np.exp(log_relative_likelihood(binomial(), data, [-0.2])) == 0.0


def test_relative_likelihood_defined_at_boundary_mle():
    # all-failure sample: sup of the likelihood sits at theta=0 where
    # L(0) = 1, so R(theta) = (1-theta)^n stays perfectly well defined
    data = _binom_data(0, 15)
    r = np.exp(log_relative_likelihood(binomial(), data, [0.3]))
    assert r == pytest.approx(0.7**15, rel=1e-12)


@settings(deadline=None, max_examples=50)
@given(
    s=st.integers(min_value=0, max_value=15),
    theta=st.floats(min_value=1e-3, max_value=1 - 1e-3),
)
def test_relative_likelihood_bounded(s, theta):
    data = _binom_data(s, 15)
    r = np.exp(log_relative_likelihood(binomial(), data, [theta]))
    assert 0.0 <= r <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# MLE + observed information
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 15, 30, 200])
def test_binomial_log_pmf_matches_scipy_stats(n):
    s = np.arange(n + 1, dtype=float)
    for theta in (0.0, 1e-310, 1e-3, 0.5, 1.0 - 1e-16, 1.0):
        pmf = np.exp(_binom_log_pmf(s, n, _binom_log_rel(s, n, theta)))
        want = stats.binom.pmf(np.arange(n + 1), n, theta)
        np.testing.assert_allclose(pmf, want, rtol=0, atol=1e-12)


def test_binomial_mle_and_information():
    # J = n / (thetahat (1 - thetahat)) = 15 / (0.4 * 0.6) = 62.5
    theta, info = mle_and_information(binomial(), _binom_data(6, 15))
    assert theta[0] == pytest.approx(0.4, abs=1e-14)
    assert info.shape == (1, 1)
    assert info[0, 0] == pytest.approx(62.5, rel=1e-12)


def test_binomial_boundary_mle_raises():
    with pytest.raises(DegenerateMLEError):
        mle_and_information(binomial(), _binom_data(0, 15))
    with pytest.raises(DegenerateMLEError):
        mle_and_information(binomial(), _binom_data(15, 15))


def test_normal_means_mle_is_data_and_info_is_scaled_identity():
    rng = np.random.default_rng(7)
    x = rng.normal(size=12)
    model = normal_means(sigma=2.0)
    theta, info = mle_and_information(model, Dataset(responses=x))
    assert np.allclose(theta, x)
    assert np.allclose(info, np.eye(12) / 4.0)


def test_gamma_mle_beats_grid_oracle():
    rng = np.random.default_rng(11)
    x = rng.gamma(shape=3.0, scale=2.0, size=40)
    data = Dataset(responses=x)
    model = gamma_shape_scale()
    theta, _ = mle_and_information(model, data)
    ll_hat = model.log_lik(data, theta)
    shapes = np.linspace(0.5, 8.0, 120)
    scales = np.linspace(0.3, 6.0, 120)
    grid_best = max(
        model.log_lik(data, np.array([a, b])) for a in shapes for b in scales
    )
    assert ll_hat >= grid_best - 1e-9
    # score condition via central differences
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h * (1 + abs(theta[i]))
        score = (model.log_lik(data, theta + e) - model.log_lik(data, theta - e)) / (
            2 * e[i]
        )
        assert abs(score) < 1e-4


def test_gamma_information_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = rng.gamma(shape=7.0, scale=3.0 / 7.0, size=25)
    data = Dataset(responses=x)
    theta, info = mle_and_information(gamma_shape_scale(), data)
    fd = finite_difference_information(gamma_shape_scale(), data, theta)
    assert np.linalg.norm(fd - info) <= 1e-4 * np.linalg.norm(info)


def test_gamma_mean_shape_matches_shape_scale_fit():
    rng = np.random.default_rng(21)
    x = rng.gamma(shape=7.0, scale=3.0 / 7.0, size=25)
    data = Dataset(responses=x)
    t_ss, _ = mle_and_information(gamma_shape_scale(), data)
    t_ms, info = mle_and_information(gamma_mean_shape(), data)
    assert t_ms[0] == pytest.approx(t_ss[0], rel=1e-8)          # same shape
    assert t_ms[1] == pytest.approx(t_ss[0] * t_ss[1], rel=1e-8)  # mean = a*b
    assert t_ms[1] == pytest.approx(np.mean(x), rel=1e-10)
    # near-orthogonal parametrization: cross information ~ 0 at the MLE
    assert abs(info[0, 1]) <= 1e-6 * np.sqrt(info[0, 0] * info[1, 1])
    # shape-scale in the coordinates (a, mean): the same likelihood at
    # (a, mean / a), -inf off the domain
    ms, ss = gamma_mean_shape(), gamma_shape_scale()
    for a, mu in [(7.0, 3.0), (0.4, 2.5), (12.0, 0.1)]:
        assert ms.log_lik(data, [a, mu]) == pytest.approx(ss.log_lik(data, [a, mu / a]), rel=1e-12)
    for off in ([0.0, 3.0], [2.0, -1.0], [-1.0, -3.0]):
        assert ms.log_lik(data, off) == -np.inf
    # J^T I J at the MLE is the closed form of the (shape, mean) information
    a, n = t_ms[0], data.n
    closed = np.array([[n * (special.polygamma(1, a) - 1.0 / a), 0.0],
                       [0.0, n * a / np.mean(x) ** 2]])
    assert np.linalg.norm(ms.information(data) - closed) <= 1e-10 * np.linalg.norm(closed)
    # the kernel at mapped rows draws the same bytes on equal Generators
    rows = np.array([[7.0, 3.0], [0.4, 2.5], [2.0, 0.5]])
    mapped = np.column_stack([rows[:, 0], rows[:, 1] / rows[:, 0]])
    assert (ms.sim_log_rel_lik(rows, 25, 50, np.random.default_rng(8)).tobytes()
            == ss.sim_log_rel_lik(mapped, 25, 50, np.random.default_rng(8)).tobytes())


def test_lognormal_mle_closed_form():
    rng = np.random.default_rng(3)
    y = rng.lognormal(mean=1.2, sigma=0.5, size=30)
    data = Dataset(responses=y)
    theta, info = mle_and_information(lognormal(), data)
    w = np.log(y)
    assert theta[0] == pytest.approx(w.mean(), rel=1e-12)
    assert theta[1] == pytest.approx(((w - w.mean()) ** 2).mean(), rel=1e-12)
    fd = finite_difference_information(lognormal(), data, theta)
    assert np.linalg.norm(fd - info) <= 1e-4 * np.linalg.norm(info)


def test_bvn_correlation_mle_beats_grid():
    rng = np.random.default_rng(17)
    n = 60
    z = rng.standard_normal((n, 2))
    rho = 0.5
    pairs = np.column_stack([z[:, 0], rho * z[:, 0] + np.sqrt(1 - rho**2) * z[:, 1]])
    data = Dataset(responses=pairs)
    model = bvn_correlation()
    theta, info = mle_and_information(model, data)
    assert -1 < theta[0] < 1
    grid = np.linspace(-0.95, 0.95, 381)
    grid_best = max(model.log_lik(data, np.array([g])) for g in grid)
    assert model.log_lik(data, theta) >= grid_best - 1e-9
    assert info[0, 0] > 0


def _bvn_mle_eigvals(a, b, n):
    """Reference correlation MLE: cubic roots as companion-matrix eigenvalues."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m = a.size
    comp = np.zeros((m, 3, 3))
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    comp[:, 0, 2] = b / n
    comp[:, 1, 2] = -(a - n) / n
    comp[:, 2, 2] = b / n
    roots = np.linalg.eigvals(comp)
    real = np.abs(roots.imag) <= 1e-7 * (1.0 + np.abs(roots.real))
    cand = np.clip(roots.real, -1.0 + 1e-10, 1.0 - 1e-10)
    ll = np.where(real, _bvn_loglik_stats(a[:, None], b[:, None], n, cand), -np.inf)
    return cand[np.arange(m), np.argmax(ll, axis=1)]


def _bvn_mle_three_roots(a, b, n, cube=lambda c: c * c * c):
    """Reference correlation MLE: all three closed-form score roots on every row.

    The trigonometric roots where disc <= 0, Cardano's root three times
    elsewhere, then the likelihood argmax; returns the MLE and disc.
    ``cube`` computes c2^3 (``c2**3`` gives the refit before it cubed by
    multiplication).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    c2, c1 = -b / n, (a - n) / n
    p = c1 - c2 * c2 / 3.0
    q = (2.0 * cube(c2) - 9.0 * c2 * c1 + 27.0 * c2) / 27.0
    disc = q * q / 4.0 + p**3 / 27.0
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.sqrt(np.maximum(-p / 3.0, 0.0))
        phi = np.arccos(np.clip(np.where(h > 0.0, -q / (2.0 * h**3), 0.0), -1.0, 1.0))
        three = 2.0 * h[:, None] * np.cos(
            (phi[:, None] - 2.0 * np.pi * np.arange(3)) / 3.0
        )
        u = np.cbrt(-q / 2.0 - np.copysign(np.sqrt(np.maximum(disc, 0.0)), q))
        one = u - p / (3.0 * u)
    t = np.where((disc <= 0.0)[:, None], three, one[:, None])
    cand = np.clip(t - (c2 / 3.0)[:, None], -1.0 + 1e-10, 1.0 - 1e-10)
    ll = _bvn_loglik_stats(a[:, None], b[:, None], n, cand)
    return cand[np.arange(a.size), np.argmax(ll, axis=1)], disc


@pytest.mark.parametrize("n", [2, 3, 5, 10, 40, 100, 500])
def test_bvn_closed_form_mle_matches_eigvals(n):
    rng = np.random.default_rng(n)
    for rho in (-0.999, -0.99, -0.8, -0.3, 0.0, 0.3, 0.8, 0.99, 0.999):
        z = rng.standard_normal((400, n, 2))
        x1 = z[..., 0]
        x2 = rho * x1 + np.sqrt(1.0 - rho * rho) * z[..., 1]
        a = np.sum(x1 * x1 + x2 * x2, axis=1)
        b = np.sum(x1 * x2, axis=1)
        got = _bvn_mle_from_stats(a, b, n)
        assert np.max(np.abs(got - _bvn_mle_eigvals(a, b, n))) <= 1e-7


@pytest.mark.parametrize("a,b,n", [
    (5.0, 0.0, 5),      # q = p = 0: triple root at 0
    (100.0, 0.0, 100),
    (0.0, 0.0, 5),      # all-zero data: roots -1, 0, 1
    (0.0, 0.0, 40),
])
def test_bvn_closed_form_mle_degenerate_stats(a, b, n):
    got = _bvn_mle_from_stats(a, b, n)
    assert np.all(np.isfinite(got))
    assert got[0] == pytest.approx(_bvn_mle_eigvals(a, b, n)[0], abs=1e-12)
    assert np.array_equal(got, _bvn_mle_three_roots(a, b, n)[0])


def _bvn_draw_stats(n, rho, size, seed):
    z = np.random.default_rng(seed).standard_normal((size, n, 2))
    x1 = z[..., 0]
    x2 = rho * x1 + np.sqrt(1.0 - rho * rho) * z[..., 1]
    return np.sum(x1 * x1 + x2 * x2, axis=1), np.sum(x1 * x2, axis=1)


@pytest.mark.parametrize("n", [2, 3, 5, 10, 100])
def test_bvn_split_refit_is_bit_identical_to_three_roots(n):
    # rows of one and three real roots in one batch; RuntimeWarning is an error
    parts = [_bvn_draw_stats(n, rho, 2000, n * 10 + i)
             for i, rho in enumerate((-0.99, -0.5, 0.0, 0.5, 0.99))]
    a = np.concatenate([p[0] for p in parts])
    b = np.concatenate([p[1] for p in parts])
    want, disc = _bvn_mle_three_roots(a, b, n)
    if n == 2:
        assert 0.05 < np.mean(disc <= 0.0) < 0.5
    assert np.array_equal(_bvn_mle_from_stats(a, b, n), want, equal_nan=True)
    # every row alone, and the three-root rows as a batch of their own
    alone = np.array([_bvn_mle_from_stats(a[i], b[i], n)[0] for i in range(0, a.size, 97)])
    assert np.array_equal(alone, want[::97])
    three = disc <= 0.0
    if three.any():
        got = _bvn_mle_from_stats(a[three], b[three], n)
        assert np.array_equal(got, want[three])


def test_bvn_split_refit_bit_identical_on_edge_stats():
    a = np.array([5.0, 100.0, 0.0, 0.0, 3.0, np.nan, 2.0, np.nan,
                  np.inf, np.inf, -np.inf, 4.0, 4.0, np.inf, 1.0])
    b = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, np.nan, np.nan,
                  1.0, 0.0, 1.0, np.inf, -np.inf, np.inf, -1.0])
    for n in (2, 5, 100):
        with np.errstate(all="ignore"):
            want, _ = _bvn_mle_three_roots(a, b, n)
            got = _bvn_mle_from_stats(a, b, n)
            alone = np.array([_bvn_mle_from_stats(x, y, n)[0] for x, y in zip(a, b)])
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(alone, want, equal_nan=True)


_BVN_PINNED_THETAS = np.array([[-0.99], [-0.5], [0.0], [0.5], [0.99]])


# the kernel's bytes since c2 is cubed by multiplication
_BVN_KERNEL_DIGESTS = {
    3: "613144f3ceb31376cb878a336dcf487c27d0293c1f6f1b629bc1e9b5d9498cea",
    100: "c4bf903739936840cdf187812bdb9223e11436fb8c15dd295e5493645c60f669",
}


@pytest.mark.parametrize("n,digest", [
    (3, "65a190cbb96f1a036649072b0da00694ea3ec0f9e637714a61c919e961b46de2"),
    (100, "8e9c15288d9cff181eb9cba8ae21e809e5af199302c373150b02ab77f7ce62ac"),
])
def test_bvn_kernel_bytes_pinned(n, digest, monkeypatch):
    """The kernel's bytes are pinned in ``_BVN_KERNEL_DIGESTS``. ``digest`` is
    the kernel frozen before c2 was cubed by multiplication: the ``c2**3``
    refit still gives it, and the kernel moves from that refit by at most
    1e-12, in the last bit of some values."""
    def kernel():
        return bvn_correlation().sim_log_rel_lik(_BVN_PINNED_THETAS, n, 500,
                                                 np.random.default_rng(5))

    new = kernel()
    assert hashlib.sha256(new.tobytes()).hexdigest() == _BVN_KERNEL_DIGESTS[n]
    monkeypatch.setattr(models_module, "_bvn_mle_from_stats", lambda a, b, n: (
        _bvn_mle_three_roots(a, b, n, cube=lambda c: c**3)[0]))
    old = kernel()
    assert hashlib.sha256(old.tobytes()).hexdigest() == digest
    assert 0.0 < np.max(np.abs(new - old)) <= 1e-12


_LAM_50 = float(np.sqrt(np.log(50)))  # sqrt(sigma^2 log n) at sigma = 1
_SPARSE_50 = np.r_[np.full(5, 5.0), np.zeros(45)]


def _fallback_log_rel(model, theta, n, m, rng):
    """log R of m datasets through the per-dataset sample/refit loop."""
    return np.array([
        log_relative_likelihood(model, model.sample(theta, n, rng), theta)
        for _ in range(m)
    ])


@pytest.mark.parametrize("factory,theta,n", [
    (bvn_correlation, np.array([0.6]), 4),
    (bvn_correlation, np.array([-0.95]), 30),
    (lognormal, np.array([0.3, 0.5]), 8),
    (lambda: normal_means(2.0), np.linspace(-1.0, 1.0, 6), 6),
    (binomial, np.array([0.3]), 15),
    (gamma_shape_scale, np.array([0.5, 2.0]), 10),
    (gamma_mean_shape, np.array([0.5, 3.0]), 10),
    (lambda: normal_means_lasso(1.0, _LAM_50), _SPARSE_50, 50),
    (lambda: normal_means_lasso(1.0, _LAM_50), np.zeros(50), 50),
    (lambda: normal_means_lasso(1.0, 0.0), _SPARSE_50, 50),
])
def test_sufficient_statistic_kernel_matches_fallback(factory, theta, n):
    """Two-sample KS test of the vectorized kernel against the generic loop;
    the binomial kernel draws counts of the support points, not datasets,
    the gamma kernels draw log x directly at shapes below 1, and the lasso
    kernel draws only the nonzero coordinates plus the exceedances of the
    zero ones (an all-zero theta has an atom at log R = 0; lam = 0 makes
    every zero coordinate exceed)."""
    model = factory()
    slow = dataclasses.replace(model, sim_log_rel_lik=None)
    m = 5000
    fast = model.sim_log_rel_lik(theta[None, :], n, m, np.random.default_rng(11))[0]
    loop = _fallback_log_rel(slow, theta, n, m, np.random.default_rng(12))
    assert np.all(np.isfinite(fast)) and np.all(fast <= 1e-12)
    assert stats.ks_2samp(fast, loop).pvalue > 0.01


# ---------------------------------------------------------------------------
# left-censored normal on sufficient statistics
# ---------------------------------------------------------------------------
# The slot-wise likelihood, score and batch EM below are the former
# implementation, kept as the oracle: they evaluate every (m, n) slot and
# iterate every row until the slowest one converges.


def _slot_loglik(W, T, mu, v):
    sd = np.sqrt(v)
    z = (W - mu) / sd
    dens = -0.5 * np.log(2 * np.pi * v) - 0.5 * z * z
    cens = special.log_ndtr(z)
    return np.sum(np.where(T == 1, dens, cens), axis=-1)


def _slot_score(W, T, mu, v):
    sd = np.sqrt(v)
    z = (W - mu) / sd
    r = np.exp(-0.5 * z * z - 0.5 * np.log(2 * np.pi) - special.log_ndtr(z))
    obs = T == 1
    dmu = np.sum(np.where(obs, z / sd, -r / sd), axis=-1)
    dv = np.sum(np.where(obs, (z * z - 1.0) / (2 * v), -z * r / (2 * v)), axis=-1)
    return dmu, dv


def _slot_mle_batch(W, T, max_iter=600):
    W = np.atleast_2d(W)
    T = np.broadcast_to(np.atleast_2d(T), W.shape)
    m, n = W.shape
    obs = T == 1
    n_obs = obs.sum(axis=1)
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        # nanmean/nanvar warn on an all-censored row
        warnings.simplefilter("ignore", RuntimeWarning)
        obs_mean = np.where(obs, W, np.nan)
        mu = np.where(n_obs > 0, np.nanmean(np.where(obs, W, np.nan), axis=1), np.nan)
        v = np.where(n_obs > 0, np.nanvar(obs_mean, axis=1), np.nan)
    bad_start = ~np.isfinite(mu) | ~np.isfinite(v)
    mu = np.where(bad_start, np.mean(W, axis=1), mu)
    v = np.where(bad_start | (v <= 1e-12), np.maximum(np.var(W, axis=1), 1e-4), v)

    for _ in range(max_iter):
        sd = np.sqrt(v)[:, None]
        alpha = (W - mu[:, None]) / sd
        r = np.exp(-0.5 * alpha * alpha - 0.5 * np.log(2 * np.pi) - special.log_ndtr(alpha))
        ew = np.where(obs, W, mu[:, None] - sd * r)
        var_trunc = v[:, None] * (1.0 - alpha * r - r * r)
        ew2 = np.where(obs, W * W, np.maximum(var_trunc, 0.0) + ew * ew)
        mu_new = np.mean(ew, axis=1)
        v_new = np.maximum(np.mean(ew2, axis=1) - mu_new**2, 1e-12)
        done = (np.abs(mu_new - mu) < 1e-11 * (1.0 + np.abs(mu))) & (
            np.abs(v_new - v) < 1e-11 * (1.0 + v)
        )
        mu, v = mu_new, v_new
        if np.all(done):
            break
    g1, g2 = _slot_score(W, T, mu[:, None], v[:, None])
    ok = (np.abs(g1) < 1e-4 * n) & (np.abs(g2) < 1e-4 * n) & np.isfinite(mu) & (v > 1e-12)
    mu = np.where(ok, mu, np.nan)
    return np.column_stack([mu, np.where(ok, v, np.nan)])


def _censored_slots(seed, m, n, limits, p=None, mu=0.3, sd=0.7):
    """(W, T): m rows of n log-scale values, left-censored at limits drawn
    per slot with probabilities p."""
    rng = np.random.default_rng(seed)
    latent = rng.normal(mu, sd, size=(m, n))
    bound = np.log(np.asarray(limits, dtype=float))[rng.choice(len(limits), (m, n), p=p)]
    return np.maximum(latent, bound), (latent >= bound).astype(int)


def _censored_edge_rows():
    """Rows with nothing exact, rows with exactly one exact observation, and
    ordinary rows, censored at one limit."""
    W, T = _censored_slots(5, 60, 12, [1.4])
    b = np.log(1.4)
    W[:10], T[:10] = b, 0
    W[10:20], T[10:20] = b, 0
    W[10:20, 3], T[10:20, 3] = np.linspace(0.4, 1.5, 10), 1
    return W, T


_CENSORED_ROWS = {
    "one-limit": lambda: _censored_slots(1, 60, 60, [0.8]),
    "three-limits": lambda: _censored_slots(2, 60, 60, [0.7, 1.0, 1.4], p=[0.3, 0.3, 0.4]),
    "random-limits": lambda: _censored_slots(
        3, 60, 60, np.sort(np.random.default_rng(9).uniform(0.3, 2.5, 22))),
    "heavy-87pct": lambda: _censored_slots(4, 60, 60, [2.6], mu=0.2),
    "edge-rows": _censored_edge_rows,
}


@pytest.mark.parametrize("case", sorted(_CENSORED_ROWS))
def test_censored_stats_em_matches_slotwise_oracle(case):
    W, T = _CENSORED_ROWS[case]()
    st = _CensStats.from_slots(W, T)
    assert st.counts.sum() == np.sum(T == 0) and st.bounds.size <= W.shape[1]
    hat = _cens_normal_mle(st)
    ref = _slot_mle_batch(W, T)
    nan = np.isnan(ref[:, 0])
    assert np.array_equal(np.isnan(hat), np.isnan(ref))
    assert np.all(np.abs(hat[~nan] - ref[~nan]) <= 1e-9)
    # each row run through the oracle on its own stops after the same EM
    # step, so only the rounding of the regrouped sums separates the two
    solo = np.vstack([_slot_mle_batch(W[i:i + 1], T[i:i + 1]) for i in range(W.shape[0])])
    assert np.array_equal(np.isnan(hat), np.isnan(solo))
    assert np.all(np.abs(hat[~nan] - solo[~nan]) <= 1e-13 * (1.0 + np.abs(solo[~nan])))

    # log R at a fixed point, with a fully censored row's supremum 0
    mu0, v0 = 0.3, 0.49
    ll_hat = np.zeros(W.shape[0])
    exact = T.any(axis=1)
    ll_hat[exact] = _cens_normal_loglik(st.take(exact), hat[exact, 0], hat[exact, 1])
    ll_ref = np.zeros(W.shape[0])
    ll_ref[exact] = _slot_loglik(W[exact], T[exact], ref[exact, :1], ref[exact, 1:])
    got = _cens_normal_loglik(st, mu0, v0) - ll_hat
    want = _slot_loglik(W, T, mu0, v0) - ll_ref
    assert np.array_equal(np.isnan(got), np.isnan(want))
    live = ~np.isnan(want)
    assert np.all(np.abs(got[live] - want[live]) <= 1e-12)


def test_censored_em_row_is_independent_of_its_batch():
    W, T = _censored_slots(6, 2000, 60, [0.7, 1.0, 1.4], p=[0.3, 0.3, 0.4])
    st = _CensStats.from_slots(W, T)
    batch = _cens_normal_mle(st)
    solo = np.vstack([_cens_normal_mle(st.take([i])) for i in range(W.shape[0])])
    assert np.array_equal(batch, solo, equal_nan=True)


def test_censored_em_all_censored_row_is_nan_without_warning():
    W = np.log(np.array([[0.8] * 10, [0.9, 1.4] * 5]))
    T = np.zeros(W.shape, dtype=int)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hat = _cens_normal_mle(_CensStats.from_slots(W, T))
    assert np.isnan(hat).all()


def test_censored_loglik_one_path_for_data_and_simulation():
    """``log_lik`` on one dataset equals the slot-wise likelihood plus the
    Jacobian of its exact observations, and ``mle`` is the EM's fit."""
    W, T = _censored_slots(7, 1, 40, [0.7, 1.0, 1.4])
    model = lognormal_censored()
    data = Dataset(responses=np.exp(W[0]), censor=T[0])
    for theta in ([0.1, 0.3], [0.5, 0.8], [0.3, 0.49]):
        want = float(_slot_loglik(W[0], T[0], theta[0], theta[1])) - np.sum(W[0][T[0] == 1])
        assert model.log_lik(data, np.array(theta)) == pytest.approx(want, abs=1e-12)
    w = np.log(data.responses)
    assert np.array_equal(model.mle(data), _cens_normal_mle(_CensStats.from_slots(w, T[0]))[0])


def test_poisson_loglinear_mle_and_information():
    rng = np.random.default_rng(29)
    n = 40
    design = np.column_stack([np.ones(n), rng.standard_normal(n), rng.standard_normal(n)])
    model = poisson_loglinear(design)
    theta0 = np.array([1.0, 0.25, 0.1])
    data = model.sample(theta0, n, np.random.default_rng(1))
    theta, info = mle_and_information(model, data)
    # score = Z'(x - lambda) must vanish at the MLE
    lam = np.exp(design @ theta)
    score = design.T @ (data.responses - lam)
    assert np.max(np.abs(score)) < 1e-6
    fd = finite_difference_information(model, data, theta)
    assert np.linalg.norm(fd - info) <= 1e-4 * np.linalg.norm(info)


def test_logistic_regression_mle_and_information():
    rng = np.random.default_rng(43)
    n = 80
    design = np.column_stack([np.ones(n), rng.standard_normal(n)])
    model = logistic_regression(design)
    data = model.sample(np.array([0.3, 1.0]), n, np.random.default_rng(2))
    theta, info = mle_and_information(model, data)
    p = 1 / (1 + np.exp(-design @ theta))
    score = design.T @ (data.responses - p)
    assert np.max(np.abs(score)) < 1e-6
    fd = finite_difference_information(model, data, theta)
    assert np.linalg.norm(fd - info) <= 1e-4 * np.linalg.norm(info)


_X8 = np.column_stack([np.ones(8), np.arange(8.0)])


@pytest.mark.parametrize("model,y", [
    (logistic_regression(_X8), (np.arange(8) > 3).astype(int)),
    (poisson_loglinear(_X8), np.zeros(8, dtype=int)),
], ids=["logistic-separated", "poisson-all-zero"])
def test_glm_boundary_mle_raises(model, y):
    """A completely separated logistic design and all-zero Poisson counts
    have no MLE (the likelihood recedes along a direction); both once fitted
    silently to a far point, and both are declared boundary cases now."""
    with pytest.raises(DegenerateMLEError):
        mle_and_information(model, Dataset(responses=y))


@pytest.mark.parametrize("model,y", [
    (logistic_regression(_X8), np.array([0, 0, 1, 0, 1, 1, 0, 1])),
    (poisson_loglinear(_X8), np.array([0, 1, 0, 2, 3, 1, 4, 6])),
], ids=["logistic-overlapping", "poisson-some-zeros"])
def test_glm_without_recession_still_fits(model, y):
    """Overlapping classes, or zero counts the positive ones pin down, have
    an interior MLE: the score vanishes there."""
    theta, info = mle_and_information(model, Dataset(responses=y))
    eta = _X8 @ theta
    mean = np.exp(eta) if model.name.startswith("poisson") else special.expit(eta)
    assert np.max(np.abs(_X8.T @ (y - mean))) < 1e-6
    assert np.all(np.linalg.eigvalsh(info) > 1e-3)


@pytest.mark.parametrize("labels", [
    [0, 1, 1, 2, 5, 2, 2, 0, 1, 2],
    [0, 1, 1, 2, -1, 2],
    [0, 1, 1.5, 2],
])
def test_multinomial_rejects_labels_outside_its_categories(labels):
    """A label outside 0..k-1 once gave a longer count vector and a flat
    contour of 1; it is a ValueError, so contour construction fails."""
    data = Dataset(responses=np.array(labels))
    with pytest.raises(ValueError, match="labels"):
        multinomial(3).mle(data)
    with pytest.raises(ValueError, match="labels"):
        make_mc_contour(multinomial(3), data, m=50, seed=1)


def test_multinomial_mle_is_empirical_frequencies():
    y = np.array([0, 0, 1, 2, 2, 2, 1, 0, 2, 1, 1, 0])
    theta, _ = mle_and_information(multinomial(3), Dataset(responses=y))
    assert np.allclose(theta, np.bincount(y, minlength=3) / 12)


def test_log_reparam_wraps_gamma():
    rng = np.random.default_rng(33)
    x = rng.gamma(shape=3.0, scale=2.0, size=25)
    data = Dataset(responses=x)
    base = gamma_shape_scale()
    wrapped = log_reparam(base)
    t_b, J_b = mle_and_information(base, data)
    t_w, J_w = mle_and_information(wrapped, data)
    assert np.allclose(t_w, np.log(t_b), rtol=1e-10)
    # information transforms as D J D with D = diag(theta) at the optimum
    D = np.diag(t_b)
    assert np.allclose(J_w, D @ J_b @ D, rtol=1e-8)
    # relative likelihood is parametrization invariant
    eta = np.log([2.5, 1.5])
    r_w = np.exp(log_relative_likelihood(wrapped, data, eta))
    r_b = np.exp(log_relative_likelihood(base, data, np.exp(eta)))
    assert r_w == pytest.approx(r_b, rel=1e-12)


def test_log_reparam_wraps_exact_contour():
    data = Dataset(responses=np.array([1] * 6 + [0] * 9))
    base = binomial().exact_contour_for(data)
    wrapped = log_reparam(binomial()).exact_contour_for(data)
    etas = np.array([[np.log(0.2)], [np.log(0.4)], [0.5], [-700.0], [700.0]])
    got = wrapped(etas)
    assert np.array_equal(got[:3], base(np.exp(etas[:3])))
    assert got[1] > 0.5 and got[2] == 0.0  # exp(0.5) > 1 lies off the domain
    assert np.array_equal(got[3:], [0.0, 0.0])  # far rows
    assert log_reparam(gamma_shape_scale()).exact_contour_for is None


# ---------------------------------------------------------------------------
# soft threshold / lasso model
# ---------------------------------------------------------------------------


def _grid_soft_minimizer(x, lam):
    """Independent oracle: minimize (x-t)^2/2 + lam*|t| by piecewise search."""
    from scipy.optimize import minimize_scalar

    obj = lambda t: 0.5 * (x - t) ** 2 + lam * abs(t)
    b = abs(x) + 1.0
    cands = [0.0]
    for lo, hi in [(-b, 0.0), (0.0, b)]:
        res = minimize_scalar(obj, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        cands.append(res.x)
    return min(cands, key=obj)


def test_soft_threshold_matches_grid_minimizer():
    rng = np.random.default_rng(101)
    for _ in range(100):
        x = rng.uniform(-6, 6)
        lam = rng.uniform(0.01, 3.0)
        assert soft_threshold(x, lam) == pytest.approx(
            _grid_soft_minimizer(x, lam), abs=1e-6
        )


def test_lasso_model_mle_and_unit_relative_likelihood():
    rng = np.random.default_rng(55)
    x = rng.normal(size=20)
    x[:3] += 5.0
    lam = np.sqrt(np.log(20.0))
    model = normal_means_lasso(sigma=1.0, lam=lam)
    data = Dataset(responses=x)
    theta_hat = model.mle(data)
    assert np.allclose(theta_hat, soft_threshold(x, lam))
    r = np.exp(log_relative_likelihood(model, data, theta_hat))
    assert r == pytest.approx(1.0, abs=1e-12)
    # penalized ratio is <= 1 everywhere else
    assert np.exp(log_relative_likelihood(model, data, x)) <= 1.0 + 1e-12
    _, info = mle_and_information(model, data)
    assert np.allclose(info, np.eye(20))


def test_lasso_kernel_mixed_rows_match_fallback():
    """One batch of an all-zero, a sparse and a dense row: each row matches
    the per-dataset loop, and the same seed reruns bit-identically."""
    n, m = 12, 5000
    model = normal_means_lasso(1.0, 1.2)
    slow = dataclasses.replace(model, sim_log_rel_lik=None)
    thetas = np.zeros((3, n))
    thetas[1, [2, 7]] = [3.0, -1e-3]
    thetas[2] = np.linspace(-2.0, 2.5, n)
    fast = model.sim_log_rel_lik(thetas, n, m, np.random.default_rng(21))
    again = model.sim_log_rel_lik(thetas, n, m, np.random.default_rng(21))
    assert np.array_equal(fast, again)
    assert fast.shape == (3, m) and np.all(fast <= 1e-12)
    assert np.any(fast[0] == 0.0)  # the atom of the all-zero row
    for i, theta in enumerate(thetas):
        loop = _fallback_log_rel(slow, theta, n, m, np.random.default_rng(22 + i))
        assert stats.ks_2samp(fast[i], loop).pvalue > 0.01


def test_column_pairs_group_each_column():
    thetas = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 3.0], [-1.0, 0.0]])
    values, pair, count, mode = _column_pairs(thetas)
    assert values.tolist() == [-1.0, 1.0, 2.0, 0.0, 3.0]
    assert np.array_equal(values[pair], thetas)
    assert count.tolist() == [1, 2, 1, 3, 1]
    assert mode.tolist() == [1, 3]


def test_lasso_kernel_rows_that_move_one_coordinate_keep_their_marginals():
    """A batch shaped like a fit's boundary points: an anchor and rows that
    each move one of its coordinates, zero -> nonzero, nonzero -> nonzero,
    across zero, and nonzero -> zero.  The rows share the draws of their
    common (coordinate, value) pairs, so equal rows get equal values, and
    each row keeps the law of the per-dataset loop."""
    n, m = 12, 5000
    model = normal_means_lasso(1.0, 1.2)
    slow = dataclasses.replace(model, sim_log_rel_lik=None)
    anchor = np.zeros(n)
    anchor[:3] = [3.0, -2.0, 0.5]
    thetas = np.repeat(anchor[None, :], 7, axis=0)
    for row, (i, v) in enumerate([(5, 2.0), (0, 4.5), (1, 1.0), (2, 0.0)], start=1):
        thetas[row, i] = v
    thetas[6, 5] = 2.0  # a second copy of row 1
    fast = model.sim_log_rel_lik(thetas, n, m, np.random.default_rng(41))
    assert fast.shape == (7, m) and np.all(fast <= 1e-12)
    assert np.array_equal(fast[1], fast[6])
    for i, theta in enumerate(thetas[:5]):
        loop = _fallback_log_rel(slow, theta, n, m, np.random.default_rng(42 + i))
        assert stats.ks_2samp(fast[i], loop).pvalue > 0.01


@pytest.mark.parametrize("factory", [gamma_shape_scale, gamma_mean_shape])
def test_gamma_kernel_mixed_shape_rows_match_fallback(factory):
    """One batch mixing shapes below 1 (drawn as a second group, after the
    rows at shape 1 and more) and above: each row's marginal matches the
    per-dataset loop."""
    n, m = 15, 3000
    model = factory()
    slow = dataclasses.replace(model, sim_log_rel_lik=None)
    thetas = np.array([[0.3, 2.0], [2.5, 0.7], [0.7, 5.0], [1.0, 1.5]])
    fast = model.sim_log_rel_lik(thetas, n, m, np.random.default_rng(31))
    assert fast.shape == (4, m) and np.all(np.isfinite(fast)) and np.all(fast <= 1e-12)
    for i, theta in enumerate(thetas):
        loop = _fallback_log_rel(slow, theta, n, m, np.random.default_rng(32 + i))
        assert stats.ks_2samp(fast[i], loop).pvalue > 0.01


@pytest.mark.parametrize("sigma,lam", [
    (0.0, 1.0), (-1.0, 1.0), (np.inf, 1.0), (np.nan, 1.0),
    (1.0, -0.5), (1.0, np.nan), (1.0, np.inf),
])
def test_normal_means_parameters_are_validated(sigma, lam):
    with pytest.raises(ValueError):
        normal_means_lasso(sigma, lam)
    if not np.isfinite(sigma) or sigma <= 0.0:
        with pytest.raises(ValueError):
            normal_means(sigma)


# ---------------------------------------------------------------------------
# samplers / dataset plumbing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("factory,theta,n", [
    (binomial, np.array([0.4]), 15),
    (gamma_shape_scale, np.array([3.0, 2.0]), 25),
    (bvn_correlation, np.array([0.5]), 50),
    (lognormal, np.array([1.0, 0.25]), 30),
])
def test_sampler_determinism(factory, theta, n):
    model = factory()
    a = model.sample(theta, n, np.random.default_rng(123))
    b = model.sample(theta, n, np.random.default_rng(123))
    assert np.array_equal(a.responses, b.responses)
    assert a.n == n


def test_dataset_validates_column_lengths():
    with pytest.raises(ValueError):
        Dataset(responses=np.arange(5.0), censor=np.ones(3))


def test_dataset_censor_must_be_binary():
    with pytest.raises(ValueError):
        Dataset(responses=np.arange(4.0), censor=np.array([0, 1, 2, 1]))
