"""Approximation-family tests: Gaussian scalar/vector, Dirichlet.

Oracles: chi-square quantile/CDF identities from scipy.stats (the
implementation only ever uses the CDF direction, tests use the inverse),
hand-computed eigen structure for diagonal matrices, and Monte Carlo
moment/coverage checks with fixed seeds and generous windows.
"""

import json

import numpy as np
import pytest
from scipy import stats

from possfit.contours import AxisSpec, grid_eval
from possfit.families import (
    DirichletFamily,
    GaussianScalarFamily,
    GaussianVectorFamily,
    boundary_points,
    chi2_ppf,
    chi2_sf,
    dirichlet_contour_object,
    family_to_json,
    gaussian_contour,
    gaussian_contour_object,
    gaussian_info_matrix,
    sample,
)
from possfit.models import Dataset, SingularInformationError
from possfit.nuisance import quantile_companion_family


def _spd(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


# ---------------------------------------------------------------------------
# Gaussian contours (closed form)
# ---------------------------------------------------------------------------


def test_gaussian_contour_is_one_at_center():
    fam = GaussianScalarFamily(theta_hat=np.array([0.3]), info=np.array([[4.0]]), xi=1.7)
    assert gaussian_contour(fam, np.array([0.3])) == 1.0


def test_gaussian_contour_d1_tail_value():
    fam = GaussianScalarFamily(theta_hat=np.zeros(1), info=np.eye(1), xi=1.0)
    # 1 - G_1(1.6449^2) = 2(1 - Phi(1.6449)) ~= 0.10
    v = gaussian_contour(fam, np.array([1.6449]))
    assert v == pytest.approx(2 * (1 - stats.norm.cdf(1.6449)), rel=1e-10)
    assert v == pytest.approx(0.1, abs=1e-4)


def test_gaussian_contour_d2_tail_value():
    fam = GaussianScalarFamily(theta_hat=np.zeros(2), info=np.eye(2), xi=1.0)
    theta = np.array([np.sqrt(4.6052), 0.0])
    assert gaussian_contour(fam, theta) == pytest.approx(0.1, abs=1e-4)
    # chi2(2) closed form: 1 - G_2(q) = exp(-q/2)
    assert gaussian_contour(fam, theta) == pytest.approx(np.exp(-4.6052 / 2), rel=1e-10)


def test_gaussian_contour_xi_widens():
    fam = GaussianScalarFamily(theta_hat=np.zeros(1), info=np.eye(1), xi=1.0)
    wide = GaussianScalarFamily(theta_hat=np.zeros(1), info=np.eye(1), xi=2.0)
    th = np.array([1.5])
    assert gaussian_contour(wide, th) > gaussian_contour(fam, th)


def test_scalar_vector_consistency():
    d = 3
    J = _spd(d, 42)
    rng = np.random.default_rng(7)
    c = 1.37
    scal = GaussianScalarFamily(theta_hat=np.zeros(d), info=J, xi=c)
    vect = GaussianVectorFamily(theta_hat=np.zeros(d), info=J, xi=np.full(d, c))
    assert np.allclose(gaussian_info_matrix(vect), J / c**2, rtol=1e-10)
    for _ in range(100):
        th = rng.standard_normal(d)
        a = gaussian_contour(scal, th)
        b = gaussian_contour(vect, th)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-15)


def test_vector_family_eigen_structure():
    J = np.diag([4.0, 1.0])
    fam = GaussianVectorFamily(theta_hat=np.zeros(2), info=J, xi=np.ones(2))
    assert np.allclose(fam.eigvals, [4.0, 1.0])  # descending
    # sign convention: first nonzero component positive
    assert fam.eigvecs[0, 0] > 0 and fam.eigvecs[1, 1] > 0
    assert np.allclose(fam.eigvecs @ np.diag(fam.eigvals) @ fam.eigvecs.T, J,
                       rtol=1e-10, atol=1e-12)


def test_vector_family_reconstruction_random_matrix():
    J = _spd(4, 3)
    fam = GaussianVectorFamily(theta_hat=np.zeros(4), info=J, xi=np.ones(4))
    rec = fam.eigvecs @ np.diag(fam.eigvals) @ fam.eigvecs.T
    assert np.linalg.norm(rec - J) <= 1e-10 * np.linalg.norm(J)
    assert np.all(np.diff(fam.eigvals) <= 1e-12)  # nonincreasing


def test_gaussian_info_matrix_vector_xi():
    J = np.diag([4.0, 1.0])
    xi = np.array([1.3, 0.7])
    fam = GaussianVectorFamily(theta_hat=np.zeros(2), info=J, xi=xi)
    # for a diagonal J the eigenvectors are the axes, so J(xi) is diagonal
    want = np.diag([4.0 / 1.3**2, 1.0 / 0.7**2])
    assert np.allclose(gaussian_info_matrix(fam), want, rtol=1e-10)


# ---------------------------------------------------------------------------
# chi-square helpers (scipy.stats stays as the oracle)
# ---------------------------------------------------------------------------

CHI2_DIMS = (1, 2, 3, 5, 10, 50, 100)


@pytest.mark.parametrize("d", CHI2_DIMS)
def test_chi2_sf_bit_identical_to_scipy_stats(d):
    rng = np.random.default_rng(41)
    edges = [-1e-17, -1.0, 0.0, 1e-300, np.inf, np.nan]
    q = np.concatenate([edges, rng.exponential(d, 100_000)])
    np.testing.assert_array_equal(chi2_sf(q, d), stats.chi2.sf(q, d))
    # the scalar path, as gaussian_contour calls it with a Python float
    for v in edges:
        np.testing.assert_array_equal(chi2_sf(v, d), stats.chi2.sf(v, d))


@pytest.mark.parametrize("d", CHI2_DIMS)
def test_chi2_ppf_bit_identical_to_scipy_stats(d):
    alphas = np.array([0.0, 1e-12, 0.05, 0.1, 0.5, 1.0])
    np.testing.assert_array_equal(
        chi2_ppf(1.0 - alphas, d), stats.chi2.ppf(1.0 - alphas, d)
    )
    for a in alphas:
        assert chi2_ppf(1.0 - a, d) == stats.chi2.ppf(1.0 - a, d)


# ---------------------------------------------------------------------------
# boundary points
# ---------------------------------------------------------------------------


def test_boundary_points_d1():
    fam = GaussianVectorFamily(theta_hat=np.zeros(1), info=np.eye(1), xi=np.ones(1))
    pts = boundary_points(fam, 0.1)
    assert pts.shape == (1, 2, 1)
    assert pts[0, 0, 0] == pytest.approx(1.6449, abs=1e-3)
    assert pts[0, 1, 0] == pytest.approx(-1.6449, abs=1e-3)


def test_boundary_points_diag_offsets():
    fam = GaussianVectorFamily(
        theta_hat=np.zeros(2), info=np.diag([4.0, 1.0]), xi=np.ones(2)
    )
    pts = boundary_points(fam, 0.1)
    c = stats.chi2.ppf(0.9, 2)
    assert abs(pts[0, 0, 0]) == pytest.approx(np.sqrt(c / 4.0), rel=1e-10)
    assert abs(pts[1, 0, 1]) == pytest.approx(np.sqrt(c), rel=1e-10)


def test_boundary_points_satisfy_ellipsoid_equation():
    J = _spd(3, 9)
    xi = np.array([1.3, 0.6, 2.2])
    fam = GaussianVectorFamily(theta_hat=np.array([1.0, -2.0, 0.5]), info=J, xi=xi)
    c = stats.chi2.ppf(0.9, 3)
    Jxi = gaussian_info_matrix(fam)
    pts = boundary_points(fam, 0.1)
    for s in range(3):
        for pm in range(2):
            diff = pts[s, pm] - fam.theta_hat
            q = float(diff @ Jxi @ diff)
            assert q == pytest.approx(c, rel=1e-10)
            # equivalently: the closed-form contour equals alpha there
            assert gaussian_contour(fam, pts[s, pm]) == pytest.approx(0.1, rel=1e-9)


def test_boundary_points_reject_nonpositive_eigenvalue():
    bad = np.diag([1.0, 0.0])
    with pytest.raises(SingularInformationError):
        fam = GaussianVectorFamily(theta_hat=np.zeros(2), info=bad, xi=np.ones(2))
        boundary_points(fam, 0.1)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_scalar_sampling_degenerate_concentration():
    fam = GaussianScalarFamily(
        theta_hat=np.array([2.0, -1.0]), info=_spd(2, 1), xi=1e-8
    )
    draws = sample(fam, 50, np.random.default_rng(0))
    assert np.max(np.abs(draws - fam.theta_hat)) < 1e-6


def test_scalar_sampling_standard_normal_moments():
    fam = GaussianScalarFamily(theta_hat=np.zeros(1), info=np.eye(1), xi=1.0)
    draws = sample(fam, 100_000, np.random.default_rng(2024))
    assert abs(draws.mean()) < 0.02
    assert 0.99 <= draws.std() <= 1.01


def test_sampling_determinism():
    fam = GaussianVectorFamily(theta_hat=np.zeros(2), info=_spd(2, 2), xi=np.array([1.0, 2.0]))
    a = sample(fam, 40, np.random.default_rng(9))
    b = sample(fam, 40, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_vector_sampling_covariance():
    J = np.diag([4.0, 1.0])
    xi = np.array([2.0, 0.5])
    fam = GaussianVectorFamily(theta_hat=np.zeros(2), info=J, xi=xi)
    draws = sample(fam, 200_000, np.random.default_rng(31))
    # cov = U diag(xi^2/psi) U^T = diag(4/4, 0.25/1)
    cov = np.cov(draws.T)
    assert cov[0, 0] == pytest.approx(1.0, abs=0.02)
    assert cov[1, 1] == pytest.approx(0.25, abs=0.006)
    assert cov[0, 1] == pytest.approx(0.0, abs=0.01)


def test_empirical_ellipsoid_coverage():
    J = _spd(2, 21)
    fam = GaussianVectorFamily(theta_hat=np.zeros(2), info=J, xi=np.array([0.9, 1.8]))
    draws = sample(fam, 100_000, np.random.default_rng(77))
    Jxi = gaussian_info_matrix(fam)
    q = np.einsum("ki,ij,kj->k", draws, Jxi, draws)
    frac = float(np.mean(q <= stats.chi2.ppf(0.9, 2)))
    assert 0.897 <= frac <= 0.903


# ---------------------------------------------------------------------------
# Dirichlet family
# ---------------------------------------------------------------------------


def _fig_family(xi=1.0):
    # three categories with counts (8, 10, 7), n = 25
    return DirichletFamily(mean=np.array([8, 10, 7]) / 25.0, n=25, xi=xi)


def test_dirichlet_sample_on_simplex():
    fam = _fig_family(xi=1.3)
    draws = sample(fam, 500, np.random.default_rng(3))
    assert draws.shape == (500, 3)
    assert np.all(draws >= 0)
    assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-9)


def test_dirichlet_contour_is_one_at_mode():
    fam = _fig_family(xi=1.0)  # parameters (8, 10, 7), all > 1
    a = fam.mean * fam.n * fam.xi
    mode = (a - 1) / (a.sum() - a.size)
    v = dirichlet_contour_object(fam, 10_000, seed=4)(mode[:-1])
    assert v >= 0.99


def test_dirichlet_contour_symmetry():
    fam = DirichletFamily(mean=np.ones(3) / 3.0, n=30, xi=1.0)
    th = np.array([0.5, 0.3, 0.2])
    m = 20_000
    v1 = dirichlet_contour_object(fam, m, seed=8)(th[:-1])
    v2 = dirichlet_contour_object(fam, m, seed=9)(th[[1, 2, 0]][:-1])
    se = np.sqrt(0.25 / m)
    assert abs(v1 - v2) <= 6 * se  # two independent MC estimates, 3 se each


def test_dirichlet_contour_boundary_is_zero():
    contour = dirichlet_contour_object(_fig_family(), 100, seed=0)
    assert contour([0.0, 0.6]) == 0.0  # completed to (0.0, 0.6, 0.4)
    assert contour([-0.1, 0.6]) == 0.0  # completed to (-0.1, 0.6, 0.5)
    assert contour([0.4, 0.6]) == 0.0  # completed to (0.4, 0.6, 0.0)


def test_dirichlet_contour_object_embeds_simplex():
    fam = _fig_family()
    contour = dirichlet_contour_object(fam, m=400, seed=12)
    assert contour.kind == "dirichlet-mc"
    assert contour.dim == 2  # first K-1 coordinates; last is 1 - sum
    v = contour(np.array([8 / 25, 10 / 25]))
    assert 0.0 <= v <= 1.0
    # off-simplex embedded point -> 0
    assert contour(np.array([0.9, 0.2])) == 0.0


def test_dirichlet_contour_is_ordered_as_the_density():
    """One set of draws per contour: for any two points, the one with the
    larger log-density kernel has the larger (or equal) contour value."""
    fam = _fig_family()
    contour = dirichlet_contour_object(fam, m=200, seed=12)
    assert contour.seed is None
    pts = np.random.default_rng(3).dirichlet(np.full(3, 2.0), size=300)
    values = np.array([contour(p) for p in pts[:, :2]])
    kernel = np.sum((fam.concentration - 1.0) * np.log(pts), axis=1)
    i, j = np.random.default_rng(4).integers(0, len(pts), size=(2, 2000))
    lower = kernel[i] <= kernel[j]
    assert np.all(values[i][lower] <= values[j][lower])
    assert np.any(values[i][lower] < values[j][lower])


def test_dirichlet_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        DirichletFamily(mean=np.array([0.5, 0.5, 0.0]), n=25, xi=1.0)
    with pytest.raises(ValueError):
        DirichletFamily(mean=np.array([0.6, 0.6]), n=25, xi=1.0)
    with pytest.raises(ValueError):
        DirichletFamily(mean=np.array([0.5, 0.5]), n=25, xi=-1.0)
    with pytest.raises(ValueError, match="m must be"):
        dirichlet_contour_object(_fig_family(), m=0, seed=12)


# ---------------------------------------------------------------------------
# contour objects + serialization
# ---------------------------------------------------------------------------


def test_gaussian_contour_object_batch_matches_pointwise():
    fam = GaussianVectorFamily(
        theta_hat=np.array([0.2, -0.3]), info=_spd(2, 6), xi=np.array([1.1, 0.6])
    )
    contour = gaussian_contour_object(fam)
    assert contour.kind == "closed-form-gaussian"
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((50, 2))
    batch = contour.evaluate_batch(pts, None)
    for i in range(50):
        assert batch[i] == pytest.approx(contour(pts[i]), rel=1e-12)
        assert batch[i] == pytest.approx(gaussian_contour(fam, pts[i]), rel=1e-12)


def test_gaussian_point_values_equal_grid_values():
    """One formula: a point is a batch of one, so contour(theta) and
    gaussian_contour equal the grid value at the same node bit for bit."""
    fam = GaussianVectorFamily(
        theta_hat=np.array([0.2, -0.3]), info=_spd(2, 6), xi=np.array([1.1, 0.6])
    )
    contour = gaussian_contour_object(fam)
    grid = grid_eval(contour, [AxisSpec(-2.0, 2.0, 21), AxisSpec(-2.5, 1.5, 21)])
    for node, value in zip(grid.nodes(), grid.values.ravel()):
        assert contour(node) == value
        assert gaussian_contour(fam, node) == value


@pytest.mark.parametrize("maker", [
    lambda: GaussianScalarFamily(theta_hat=np.array([0.4]), info=np.array([[62.5]]),
                                 xi=1.23),
    lambda: GaussianVectorFamily(theta_hat=np.array([1.0, 2.0]), info=_spd(2, 14),
                                 xi=np.array([0.8, 1.9])),
    lambda: _fig_family(xi=2.1),
    lambda: quantile_companion_family(
        Dataset(responses=np.random.default_rng(6).gamma(4.0, 1.0, size=50)), 0.25
    ).with_xi(0.7),
])
def test_family_json_round_trip(maker):
    """family_to_json names the family and holds its defining fields as
    plain JSON, with the extras passed through."""
    fam = maker()
    doc = family_to_json(fam, alpha=0.1, seed=99, iterations=17)
    assert json.loads(json.dumps(doc)) == doc  # JSON-serializable as-is
    assert doc["alpha"] == 0.1 and doc["seed"] == 99 and doc["iterations"] == 17
    if isinstance(fam, DirichletFamily):
        fields = {"family": "dirichlet", "mean": fam.mean.tolist(), "n": fam.n,
                  "xi": fam.xi}
    else:
        scalar = isinstance(fam, GaussianScalarFamily)
        fields = {"family": "gaussian-scalar" if scalar else "gaussian-vector",
                  "theta_hat": fam.theta_hat.tolist(), "info": fam.info.tolist(),
                  "xi": fam.xi if scalar else fam.xi.tolist()}
    assert doc == {**fields, "alpha": 0.1, "seed": 99, "iterations": 17}
