"""Inference-operation tests: hypotheses, upper/lower probabilities,
marginal contours, Choquet upper expectations.

Oracles: hand-minimized quadratic forms (the suprema of closed-form Gaussian
contours over boxes / half-spaces reduce to projections with known values),
Schur-complement marginal variances, and quadrature of exact cut radii for
the Choquet integral.
"""

import numpy as np
import pytest
from scipy.stats import chi2, norm

from possfit.contours import (
    AxisSpec,
    PossibilityContour,
    make_exact_binomial,
    make_mc_contour,
)
from possfit.families import (
    DirichletFamily,
    GaussianScalarFamily,
    GaussianVectorFamily,
    dirichlet_contour_object,
    gaussian_contour_object,
    gaussian_cov_matrix,
    gaussian_info_matrix,
)
from possfit.inference import (
    ChoquetSpec,
    Hypothesis,
    NoComplementError,
    SearchBudget,
    _contour_values,
    _qf_min_box,
    choquet_upper_expectation,
    lower_probability,
    marginal_contour,
    upper_probability,
)
from possfit.models import Dataset, binomial


def _scalar_contour(theta_hat=0.0, info=1.0, xi=1.0):
    fam = GaussianScalarFamily(
        theta_hat=np.array([theta_hat]), info=np.array([[info]]), xi=xi
    )
    return gaussian_contour_object(fam), fam


def _vector_contour(J, xi, theta_hat=None):
    J = np.asarray(J, dtype=float)
    th = np.zeros(J.shape[0]) if theta_hat is None else np.asarray(theta_hat, float)
    fam = GaussianVectorFamily(theta_hat=th, info=J, xi=np.asarray(xi, float))
    return gaussian_contour_object(fam), fam


# ---------------------------------------------------------------------------
# Hypothesis type
# ---------------------------------------------------------------------------


def test_box_membership_and_validation():
    H = Hypothesis.box([[0.0, 1.0], [-np.inf, 2.0]])
    assert H.dim == 2
    pts = np.array([[0.5, -100.0], [0.5, 2.5], [1.5, 0.0], [1.0, 2.0]])
    assert list(H.contains(pts)) == [True, False, False, True]
    with pytest.raises(ValueError):
        Hypothesis.box([[1.0, 0.0]])


def test_half_space_membership_is_strict():
    H = Hypothesis.half_space([1.0, -1.0], 0.5)
    assert H.contains(np.array([[2.0, 0.0]]))[0]
    assert not H.contains(np.array([[0.5, 0.0]]))[0]  # boundary excluded


def test_complements():
    box = Hypothesis.box([[0.0, 1.0]])
    comp = box.complement()
    assert comp.kind == "box-complement"
    assert not comp.contains(np.array([[0.5]]))[0]
    assert comp.contains(np.array([[1.5]]))[0]
    assert comp.complement().kind == "box"
    hs = Hypothesis.half_space([2.0], 1.0)
    chs = hs.complement()
    assert not chs.contains(np.array([[0.7]]))[0]  # 1.4 > 1 lies in hs
    assert chs.contains(np.array([[0.2]]))[0]
    for H in (
        Hypothesis.predicate(lambda th: bool(th[0] > 0), dim=1),
        Hypothesis.finite_set([[0.1], [0.9]]),
    ):
        with pytest.raises(NoComplementError):
            H.complement()


# ---------------------------------------------------------------------------
# upper/lower probability: exact Gaussian paths
# ---------------------------------------------------------------------------


def test_whole_space_has_upper_and_lower_one():
    contour, _ = _scalar_contour()
    H = Hypothesis.whole_space(1)
    up = upper_probability(contour, H)
    lo = lower_probability(contour, H)
    assert up.value == 1.0
    assert lo.value == 1.0


def test_half_space_boundary_projection_d1():
    # theta_hat=0, J=1, xi=1: sup over {theta > 1.6449} attained at the
    # boundary, value 2*(1 - Phi(1.6449)) ~= 0.10
    contour, _ = _scalar_contour()
    H = Hypothesis.half_space([1.0], 1.6449)
    res = upper_probability(contour, H)
    assert res.method == "exact-half-space"
    assert res.value == pytest.approx(2 * (1 - norm.cdf(1.6449)), rel=1e-12)
    assert res.value == pytest.approx(0.10, abs=5e-4)


def test_half_space_containing_center_gives_one():
    contour, _ = _scalar_contour(theta_hat=2.0)
    assert upper_probability(contour, Hypothesis.half_space([1.0], 0.0)).value == 1.0


def test_box_projection_diagonal_information():
    # J = diag(2, 1), box [1,2]x[-1,1]: minimizer (1, 0), q = 2
    contour, _ = _vector_contour(np.diag([2.0, 1.0]), [1.0, 1.0])
    res = upper_probability(contour, Hypothesis.box([[1.0, 2.0], [-1.0, 1.0]]))
    assert res.method == "exact-box"
    assert res.value == pytest.approx(np.exp(-1.0), rel=1e-9)


def test_box_projection_corner_active():
    # J = [[2, .6], [.6, 1]], box [1,2]^2.  On the face theta1=1 the form is
    # 2 + 1.2 t + t^2 (increasing on [1,2]); on theta2=1 it is
    # 2 t^2 + 1.2 t + 1 (increasing): minimum at the corner (1,1), q = 4.2.
    contour, _ = _vector_contour(np.array([[2.0, 0.6], [0.6, 1.0]]), [1.0, 1.0])
    res = upper_probability(contour, Hypothesis.box([[1.0, 2.0], [1.0, 2.0]]))
    assert res.value == pytest.approx(np.exp(-2.1), rel=1e-9)


def test_box_projection_d1_matches_lbfgsb():
    # in one dimension the clipped center is the exact minimizer; it must
    # agree with the bounded quasi-Newton search it replaces
    from scipy.optimize import Bounds, minimize

    def lbfgsb(J, center, lo, hi):
        res = minimize(
            lambda th: (float((th - center) @ J @ (th - center)),
                        2.0 * (J @ (th - center))),
            np.clip(center, lo, hi),
            jac=True,
            method="L-BFGS-B",
            bounds=Bounds(lo, hi),
            options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-12},
        )
        e = res.x - center
        return float(e @ J @ e)

    rng = np.random.default_rng(3)
    for _ in range(3000):
        center = rng.normal(0.0, 2.0, 1)
        J = np.array([[rng.uniform(1e-3, 300.0)]])
        side = rng.choice([-1.0, 1.0])
        near = center[0] + side * rng.exponential(1.0)
        far = near + side * rng.exponential(2.0) if rng.random() < 0.7 else side * np.inf
        lo, hi = sorted((near, far))
        bounds = np.array([[lo, hi]])
        got = _qf_min_box(J, center, bounds)
        assert got > 0.0
        assert got == lbfgsb(J, center, bounds[:, 0], bounds[:, 1])


def test_box_containing_center_gives_one():
    contour, _ = _vector_contour(np.diag([2.0, 1.0]), [1.0, 1.0])
    assert upper_probability(contour, Hypothesis.box([[-1, 1], [-1, 1]])).value == 1.0


def test_box_complement_face_minimum_and_conjugacy():
    # center inside [-1,1]^2, Sigma = diag(1/2, 1): nearest exit through the
    # theta2 faces with q = 1
    contour, _ = _vector_contour(np.diag([2.0, 1.0]), [1.0, 1.0])
    box = Hypothesis.box([[-1.0, 1.0], [-1.0, 1.0]])
    up_comp = upper_probability(contour, box.complement())
    assert up_comp.method == "exact-box-complement"
    assert up_comp.value == pytest.approx(np.exp(-0.5), rel=1e-12)
    lo = lower_probability(contour, box)
    assert lo.value == pytest.approx(1.0 - np.exp(-0.5), rel=1e-12)


def test_lower_of_whole_space_complement_is_empty():
    contour, _ = _scalar_contour()
    comp = Hypothesis.whole_space(1).complement()
    res = upper_probability(contour, comp)
    assert res.value == 0.0
    assert "empty-hypothesis" in res.flags


def test_monotone_in_nested_boxes():
    contour, _ = _vector_contour(np.array([[2.0, 0.3], [0.3, 1.0]]), [1.0, 1.0])
    inner = Hypothesis.box([[0.5, 1.0], [-0.5, 0.5]])
    outer = Hypothesis.box([[0.5, 2.0], [-1.0, 1.0]])
    assert (
        upper_probability(contour, inner).value
        <= upper_probability(contour, outer).value
    )


def test_necessity_curve_nonincreasing():
    contour, _ = _scalar_contour()
    gammas = np.linspace(-2.0, 2.0, 20)
    vals = [
        lower_probability(contour, Hypothesis.half_space([1.0], g)).value
        for g in gammas
    ]
    assert np.all(np.diff(vals) <= 1e-12)


def test_finite_set_is_exact_max():
    contour, _ = _scalar_contour()
    H = Hypothesis.finite_set([[0.5], [1.5]])
    res = upper_probability(contour, H)
    assert res.method == "finite"
    assert res.value == pytest.approx(2 * (1 - norm.cdf(0.5)), rel=1e-12)


def test_conjugacy_identity_exact():
    contour, _ = _scalar_contour()
    H = Hypothesis.half_space([1.0], 0.8)
    lo = lower_probability(contour, H)
    up_comp = upper_probability(contour, H.complement())
    assert lo.value + up_comp.value == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# upper probability: search path
# ---------------------------------------------------------------------------


def test_search_matches_exact_projection():
    contour, fam = _scalar_contour()
    exact = upper_probability(contour, Hypothesis.box([[1.2, 3.0]]))
    pred = Hypothesis.predicate(lambda th: bool(1.2 <= th[0] <= 3.0), dim=1)
    res = upper_probability(contour, pred, family=fam, seed=5)
    assert res.method == "search"
    assert res.value == pytest.approx(exact.value, abs=1e-3)


def test_maxitivity_on_union():
    contour, fam = _scalar_contour()
    h1 = Hypothesis.box([[0.5, 1.0]])
    h2 = Hypothesis.box([[2.0, 3.0]])
    union = Hypothesis.predicate(
        lambda th: bool(0.5 <= th[0] <= 1.0 or 2.0 <= th[0] <= 3.0), dim=1
    )
    exact = max(
        upper_probability(contour, h1).value, upper_probability(contour, h2).value
    )
    res = upper_probability(contour, union, family=fam, seed=9)
    assert res.value == pytest.approx(exact, abs=1e-3)


def test_empty_search_flag():
    contour, fam = _scalar_contour()
    pred = Hypothesis.predicate(lambda th: bool(100.0 <= th[0] <= 101.0), dim=1)
    res = upper_probability(contour, pred, family=fam, seed=1)
    assert res.value == 0.0
    assert "empty-search" in res.flags


def test_degenerate_box_single_point_fiber():
    y = np.zeros(15, dtype=int)
    y[:6] = 1
    contour = make_exact_binomial(Dataset(responses=y))
    fam = GaussianScalarFamily(np.array([0.4]), np.array([[62.5]]), xi=1.0)
    H = Hypothesis.box([[0.3, 0.3]])
    res = upper_probability(contour, H, family=fam)
    assert res.method == "degenerate-fiber"
    assert res.value == pytest.approx(contour(np.array([0.3])), abs=0.0)


def test_partially_degenerate_box_on_search_path():
    # deterministic non-Gaussian-kind contour: pi = exp(-(2 t0^2 + t1^2)/2);
    # box pins t0 = 0.5, so the sup over the free coordinate is exp(-0.25)
    pi = lambda th, rng: np.exp(-(2 * th[:, 0] ** 2 + th[:, 1] ** 2) / 2)
    contour = PossibilityContour(kind="monte-carlo", dim=2, evaluate_batch=pi, seed=17)
    fam = GaussianVectorFamily(np.zeros(2), np.diag([2.0, 1.0]), np.ones(2))
    H = Hypothesis.box([[0.5, 0.5], [-3.0, 3.0]])
    res = upper_probability(contour, H, family=fam, seed=3)
    assert res.value == pytest.approx(np.exp(-0.25), abs=1e-5)


def test_contour_values_of_a_seeded_contour_equal_pointwise_calls():
    """The search's points are one keyed batch, each point on the stream its
    own bits key, so the batch equals the point calls, duplicates included."""
    y = np.array([1] * 6 + [0] * 9)
    contour = make_mc_contour(binomial(), Dataset(responses=y), m=200, seed=11)
    pts = np.array([[0.3], [0.45], [0.3], [0.6], [0.45], [1.5]])
    assert _contour_values(contour, pts).tolist() == [contour(p) for p in pts]


def test_dim_mismatch_rejected():
    contour, _ = _scalar_contour()
    with pytest.raises(ValueError):
        upper_probability(contour, Hypothesis.box([[0, 1], [0, 1]]))


def test_exact_paths_read_the_contour_family_not_the_proposal():
    """A proposal family N(5, 1) passed to the N(0, 1) contour steers only
    the search: the exact box and linear-marginal answers are A's."""
    contour, _ = _scalar_contour()
    _, other = _scalar_contour(theta_hat=5.0)
    res = upper_probability(contour, Hypothesis.box([[4.0, 6.0]]), family=other)
    assert res.method == "exact-box"
    assert res.value == pytest.approx(chi2.sf(16.0, 1), rel=1e-12)  # 6.3e-5
    axis = AxisSpec(-2.0, 6.0, 9)
    grid = marginal_contour(contour, 0, axis, family=other)
    assert grid.meta["method"] == "exact-linear"
    assert np.allclose(grid.values, chi2.sf(axis.points() ** 2, 1), rtol=1e-12)


# ---------------------------------------------------------------------------
# marginal contours
# ---------------------------------------------------------------------------


def test_marginal_identity_equals_original():
    contour, fam = _scalar_contour(theta_hat=0.4, info=62.5, xi=1.1)
    axis = AxisSpec(0.0, 1.0, 15)
    grid = marginal_contour(contour, np.array([1.0]), axis)
    phis = axis.points()
    expected = np.array([contour(np.array([p])) for p in phis])
    assert np.allclose(grid.values, expected, rtol=1e-12)
    assert grid.meta["method"] == "exact-linear"


def test_marginal_coordinate_schur_oracle():
    J = np.array([[4.0, 1.0], [1.0, 2.0]])
    contour, fam = _vector_contour(J, [1.2, 0.8], theta_hat=[1.0, -2.0])
    Jxi = gaussian_info_matrix(fam)
    # marginal variance of coordinate 0 by Schur complement
    v = 1.0 / (Jxi[0, 0] - Jxi[0, 1] ** 2 / Jxi[1, 1])
    assert v == pytest.approx(gaussian_cov_matrix(fam)[0, 0], rel=1e-12)
    axis = AxisSpec(-1.0, 3.0, 11)
    grid = marginal_contour(contour, 0, axis)
    expected = chi2.sf((axis.points() - 1.0) ** 2 / v, 1)
    assert np.allclose(grid.values, expected, rtol=1e-10)


def test_marginal_linear_combination():
    J = np.array([[4.0, 1.0], [1.0, 2.0]])
    contour, fam = _vector_contour(J, [1.2, 0.8], theta_hat=[1.0, -2.0])
    a = np.array([1.0, 1.0])
    v = a @ gaussian_cov_matrix(fam) @ a
    axis = AxisSpec(-4.0, 2.0, 9)
    grid = marginal_contour(contour, a, axis)
    expected = chi2.sf((axis.points() - (-1.0)) ** 2 / v, 1)
    assert np.allclose(grid.values, expected, rtol=1e-10)


def test_marginal_peaks_at_feature_of_mle():
    contour, fam = _vector_contour(np.diag([3.0, 1.0]), [1.0, 1.0],
                                   theta_hat=[0.5, 0.5])
    axis = AxisSpec(0.0, 2.0, 9)  # includes phi = 1.0 = sum of theta_hat
    grid = marginal_contour(contour, np.array([1.0, 1.0]), axis)
    assert grid.values.max() == pytest.approx(1.0, abs=1e-12)
    assert axis.points()[np.argmax(grid.values)] == pytest.approx(1.0)


def test_marginal_general_path_fiber_supremum():
    # callable g forces the penalty search; the literal supremum of the d=2
    # closed-form contour over {theta0 = phi} is exp(-phi^2)
    contour, fam = _vector_contour(np.diag([2.0, 1.0]), [1.0, 1.0])
    axis = AxisSpec(-1.5, 1.5, 7)
    grid = marginal_contour(contour, lambda th: float(th[0]), axis, family=fam,
                            seed=11)
    expected = np.exp(-axis.points() ** 2)
    assert grid.meta["method"] == "penalty-search"
    assert np.allclose(grid.values, expected, atol=2e-3)


def test_marginal_infeasible_phi_flagged():
    contour, fam = _vector_contour(np.diag([2.0, 1.0]), [1.0, 1.0])
    g = lambda th: float(th[0] ** 2 + th[1] ** 2)
    axis = AxisSpec(-1.0, 3.0, 5)  # phi grid: -1, 0, 1, 2, 3
    grid = marginal_contour(contour, g, axis, family=fam, seed=11)
    assert 0 in grid.meta["infeasible"]
    assert grid.values[0] == 0.0
    # phi = 0: fiber is the single point at the origin, sup = 1
    assert grid.values[1] == pytest.approx(1.0, abs=2e-3)
    # phi = 3: minimize 2 t0^2 + t1^2 on the circle of radius sqrt(3):
    # q = 3 at (0, +-sqrt(3)), so sup = exp(-1.5)
    assert grid.values[4] == pytest.approx(np.exp(-1.5), abs=2e-3)


# ---------------------------------------------------------------------------
# Choquet upper expectation
# ---------------------------------------------------------------------------


def test_choquet_constant_loss():
    contour, fam = _scalar_contour()
    res = choquet_upper_expectation(contour, ChoquetSpec(loss=lambda th: 3.7),
                                    family=fam, seed=2)
    assert res.value == pytest.approx(3.7, rel=1e-6)


def test_choquet_indicator_matches_upper_probability():
    contour, fam = _scalar_contour()
    H = Hypothesis.box([[0.5, 1.0]])
    up = upper_probability(contour, H).value
    loss = lambda th: float(H.contains(th[None, :])[0])
    res = choquet_upper_expectation(contour, ChoquetSpec(loss=loss), family=fam,
                                    seed=2)
    assert res.value == pytest.approx(up, abs=1.0 / 200 + 2e-3)


def test_choquet_absolute_loss_quadrature_oracle():
    # E-upper of |theta| for the standard d=1 contour: the s-cut radius is
    # sqrt(chi2_1^{-1}(1-s)); fine-grid quadrature gives ~0.79788
    contour, fam = _scalar_contour()
    res = choquet_upper_expectation(
        contour, ChoquetSpec(loss=lambda th: float(abs(th[0]))), family=fam, seed=2
    )
    s = (np.arange(2_000_000) + 0.5) / 2_000_000
    oracle = np.mean(np.sqrt(chi2.ppf(1.0 - s, 1)))
    assert res.value == pytest.approx(oracle, abs=1e-3)


def test_choquet_monotone_in_loss():
    contour, fam = _scalar_contour()
    r1 = choquet_upper_expectation(
        contour, ChoquetSpec(loss=lambda th: float(abs(th[0]))), family=fam, seed=2
    )
    r2 = choquet_upper_expectation(
        contour,
        ChoquetSpec(loss=lambda th: float(abs(th[0]) + 0.3 * th[0] ** 2)),
        family=fam,
        seed=2,
    )
    assert r2.value >= r1.value


def test_choquet_unbounded_loss_raises():
    contour, fam = _scalar_contour()
    with pytest.raises(ValueError, match="unbounded"):
        choquet_upper_expectation(
            contour,
            ChoquetSpec(loss=lambda th: float(np.exp(40.0 * abs(th[0])))),
            family=fam,
            seed=2,
        )


def test_choquet_spec_validation():
    with pytest.raises(ValueError):
        ChoquetSpec(loss=lambda th: 0.0, resolution=1)


def test_searches_run_on_a_dirichlet_contour_of_k_minus_1_coordinates():
    # the contour reads the first K-1 coordinates; its family draws all K
    contour = dirichlet_contour_object(DirichletFamily(mean=[0.2, 0.3, 0.5], n=20), 200, seed=1)
    box = Hypothesis.box([[0.1, 0.3], [0.2, 0.4]])
    budget = SearchBudget(candidates=200, refine=40)
    up = upper_probability(contour, box, budget=budget).value
    marg = marginal_contour(contour, 0, AxisSpec(0.05, 0.6, 5), budget=budget).values
    spec = ChoquetSpec(loss=lambda th: float(box.contains(np.atleast_2d(th))[0]),
                       resolution=20, budget=budget)
    choq = choquet_upper_expectation(contour, spec).value
    assert 0.0 <= up <= 1.0
    assert np.all((marg >= 0.0) & (marg <= 1.0)) and marg.max() > 0.5
    assert 0.0 <= choq <= 1.0


def test_search_budget_defaults():
    b = SearchBudget()
    assert b.candidates == 2000
    assert b.refine == 100
