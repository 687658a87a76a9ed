"""Tests for the replicated-simulation calibration harness.

The harness promises a documented derivation of every random stream from the
scenario's master seed (replication r):

    data            derive_rng(seed, CAL_TAG, r, 1)
    child seed      derive_rng(seed, CAL_TAG, r, 2).integers(2**63)
    timing child    derive_rng(seed, CAL_TAG, r, 3, METHODS.index(method))
                    .integers(2**63)

Several tests below recompute replications through that contract using only
public pieces, so any silent change to the stream layout fails loudly.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from possfit import (
    AxisSpec,
    calibration,
    CalibrationReport,
    Dataset,
    GaussianScalarFamily,
    Hypothesis,
    SAConfig,
    Scenario,
    ConfigError,
    StudyError,
    build_model,
    empirical_cdf,
    fit_scalar,
    fit_vector,
    gaussian_contour_object,
    grid_eval,
    hypothesis_calibration,
    make_exact_contour,
    make_mc_contour,
    models,
    poisson_study_design,
    timing_accuracy_study,
    validity_study,
)
from possfit.calibration import DEFAULT_ALPHA_GRID, METHODS
from possfit._render import json_text
from possfit._rng import CAL_TAG, derive_rng


def _sa(**kw):
    base = dict(seed=0, alpha=0.1, k_outer=30, m_inner=100, epsilon=0.01,
                max_iter=10)
    base.update(kw)
    return SAConfig(**base)


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _binomial_scenario(**kw):
    base = dict(model_id="binomial", truth=(0.4,), n=15, reps=50,
                method="naive", seed=7)
    base.update(kw)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# scenario validation
# ---------------------------------------------------------------------------


def test_scenario_rejects_unknown_method():
    with pytest.raises(ConfigError, match="method"):
        _binomial_scenario(method="exact")


def test_scenario_rejects_unknown_model():
    with pytest.raises(ConfigError, match="model"):
        _binomial_scenario(model_id="weibull")


def test_scenario_rejects_zero_reps():
    with pytest.raises(ConfigError, match="reps"):
        _binomial_scenario(reps=0)


def test_scenario_variational_requires_sa():
    with pytest.raises(ConfigError, match="SAConfig"):
        _binomial_scenario(method="variational-scalar")


def test_scenario_bootstrap_requires_tau_and_data_params():
    with pytest.raises(ConfigError, match="tau"):
        Scenario(model_id="gamma", truth=(2.5,), n=40, reps=5,
                 method="bootstrap", seed=1, data_params=(4.0, 1.0))
    with pytest.raises(ConfigError, match="data_params"):
        Scenario(model_id="gamma", truth=(2.5,), n=40, reps=5,
                 method="bootstrap", seed=1, model_kwargs={"tau": 0.25})
    for B in (0, 2.5, "500", True):
        with pytest.raises(ConfigError, match="B must be"):
            Scenario(model_id="gamma", truth=(2.5,), n=40, reps=5,
                     method="bootstrap", seed=1, data_params=(4.0, 1.0),
                     model_kwargs={"tau": 0.25, "B": B})


def test_scenario_censored_requirements():
    with pytest.raises(ConfigError, match="lognormal-censored"):
        Scenario(model_id="gamma", truth=(7.0, 3.0), n=20, reps=5,
                 method="censored", seed=1, model_kwargs={"limits": [0.9]})
    with pytest.raises(ConfigError, match="limits"):
        Scenario(model_id="lognormal-censored", truth=(0.3, 0.5), n=20,
                 reps=5, method="censored", seed=1)


def test_model_kwargs_nothing_reads_are_config_errors():
    """A misspelt sigma once built sigma = 1, and a naive study took a
    bootstrap tau; a method's keys pass only with that method."""
    with pytest.raises(ConfigError, match="sigmaa"):
        calibration.model_from_id("normal-means", 5, {"sigmaa": 3.0})
    with pytest.raises(ConfigError, match="tau"):
        Scenario(model_id="gamma", truth=(7.0, 3.0), n=20, reps=5,
                 method="naive", seed=1, model_kwargs={"tau": 0.5})
    assert calibration.model_from_id("normal-means", 5, {"sigma": 3.0}).name == "normal-means"
    scn = Scenario(model_id="lognormal-censored", truth=(0.3, 0.5), n=20, reps=5,
                   method="censored", seed=1, model_kwargs={"limits": [0.9]})
    assert build_model(scn).name == "lognormal-censored"


def test_poisson_design_seed_next_to_a_design_is_a_config_error():
    """An explicit design replaces the study design, so its seed was never
    read: any design_seed once built the same model."""
    design = calibration.poisson_study_design(5).tolist()
    with pytest.raises(ConfigError, match="design_seed"):
        calibration.model_from_id("poisson-loglinear", 5,
                                  {"design": design, "design_seed": 2})
    assert calibration.model_from_id("poisson-loglinear", 5, {"design": design}).dim == 3
    assert calibration.model_from_id("poisson-loglinear", 5, {"design_seed": 2}).dim == 3


def test_data_params_without_the_bootstrap_method_is_a_config_error():
    """Only the bootstrap method draws at data_params: a naive study given
    data_params 0.9 once built and drew its data at the truth 0.4."""
    with pytest.raises(ConfigError, match="data_params"):
        Scenario(model_id="binomial", truth=(0.4,), n=15, reps=3,
                 method="naive", seed=1, data_params=(0.9,))


def test_scenario_truth_domain_checks():
    with pytest.raises(ConfigError, match="domain"):
        _binomial_scenario(truth=(1.5,))
    with pytest.raises(ConfigError, match="domain"):
        Scenario(model_id="gamma", truth=(-1.0, 2.0), n=20, reps=5,
                 method="naive", seed=1)
    with pytest.raises(ConfigError, match="domain"):
        Scenario(model_id="bvn-correlation", truth=(1.0,), n=20, reps=5,
                 method="naive", seed=1)


def test_scenario_log_params_restrictions():
    # log scale needs strictly positive truth coordinates
    with pytest.raises(ConfigError, match="log"):
        Scenario(model_id="lognormal", truth=(-0.3, 0.5), n=20, reps=5,
                 method="variational-vector", seed=1, sa=_sa(),
                 log_params=True)
    # and is not meaningful for the functional-valued bootstrap method
    with pytest.raises(ConfigError, match="log"):
        Scenario(model_id="gamma", truth=(2.5,), n=40, reps=5,
                 method="bootstrap", seed=1, data_params=(4.0, 1.0),
                 model_kwargs={"tau": 0.25}, log_params=True)


def test_scenario_truth_eval_and_config_round_trip():
    scn = Scenario(
        model_id="gamma",
        truth=(7.0, 3.0),
        n=25,
        reps=12,
        method="variational-vector",
        seed=99,
        sa=_sa(m_inner=250, max_iter=18),
        grid=(AxisSpec(0.5, 20.0, 40, name="shape"),
              AxisSpec(0.5, 9.0, 40, name="scale")),
        m=300,
        log_params=True,
        model_kwargs={},
    )
    assert np.allclose(scn.truth_eval, np.log([7.0, 3.0]))

    config = scn.to_config()
    back = Scenario.from_config(config)
    assert back.model_id == scn.model_id
    assert back.truth == scn.truth
    assert back.n == scn.n and back.reps == scn.reps
    assert back.method == scn.method and back.seed == scn.seed
    assert back.m == scn.m and back.log_params == scn.log_params
    assert back.grid == scn.grid
    for field in ("seed", "alpha", "k_outer", "m_inner", "epsilon",
                  "min_iter", "max_iter"):
        assert getattr(back.sa, field) == getattr(scn.sa, field)
    # the config document itself must be JSON-serializable as-is
    json.dumps(config)


@pytest.mark.parametrize("key,value", [("n", 20.7), ("reps", True), ("seed", "1"),
                                       ("m", 200.0)])
def test_scenario_from_config_reads_integers_strictly(key, value):
    """n = 20.7 once became 20; every integer field of a run config is an
    int, never a float, bool or string."""
    config = {"model": "binomial", "truth": [0.4], "n": 20, "reps": 3,
              "method": "naive", "seed": 1, "m": 200}
    assert Scenario.from_config(config).n == 20
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        Scenario.from_config(dict(config, **{key: value}))


@pytest.mark.parametrize("key,value", [("n", 20.7), ("log_params", "no")])
def test_scenario_reads_its_fields_strictly(key, value):
    """Scenario(n=20.7) once built n = 20, and log_params="no" evaluated the
    contour on the log scale; the constructor reads its fields as a run
    config does."""
    base = dict(model_id="gamma", truth=(2.0, 1.5), n=20, reps=3, method="naive", seed=1)
    with pytest.raises(ConfigError, match=f"{key} must be"):
        Scenario(**dict(base, **{key: value}))


@pytest.mark.parametrize("study", ["validity", "hypothesis"])
def test_unsorted_alphas_are_a_config_error_before_any_replication(monkeypatch, study):
    """Alphas [0.5, 0.3] once ran every replication and then raised
    "empirical CDF must be nondecreasing in alpha"."""
    def no_replications(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(calibration, "_run_replications", no_replications)
    scn = _binomial_scenario()
    with pytest.raises(ConfigError, match=r"nondecreasing order, got \[0.5, 0.3\]"):
        if study == "validity":
            validity_study(scn, alphas=[0.5, 0.3])
        else:
            hypothesis_calibration(scn, [Hypothesis.box([[0.0, 1.0]])], alphas=[0.5, 0.3])


def test_build_model_names_follow_ids():
    for model_id, truth, n, kw in [
        ("binomial", (0.4,), 15, {}),
        ("bvn-correlation", (0.5,), 20, {}),
        ("gamma", (7.0, 3.0), 25, {}),
        ("lognormal", (0.3, 0.5), 20, {}),
        ("normal-means-lasso", tuple([5.0] * 5 + [0.0] * 15), 20,
         {"sigma": 1.0}),
        ("poisson-loglinear", (1.0, 0.25, 0.1), 25, {}),
    ]:
        scn = Scenario(model_id=model_id, truth=truth, n=n, reps=1,
                       method="naive", seed=1, model_kwargs=kw)
        assert build_model(scn).name == model_id


# ---------------------------------------------------------------------------
# empirical CDF + report invariants
# ---------------------------------------------------------------------------


def test_default_alpha_grid():
    assert len(DEFAULT_ALPHA_GRID) == 99
    assert DEFAULT_ALPHA_GRID[0] == pytest.approx(0.01)
    assert DEFAULT_ALPHA_GRID[-1] == pytest.approx(0.99)
    assert np.all(np.diff(DEFAULT_ALPHA_GRID) > 0)


def test_empirical_cdf_hand_values():
    values = [0.9, 0.2, 0.4, 0.4]  # unsorted on purpose
    alphas = [0.1, 0.2, 0.4, 0.5, 1.0]
    out = empirical_cdf(values, alphas)
    assert np.allclose(out, [0.0, 0.25, 0.75, 0.75, 1.0])
    with pytest.raises(ValueError):
        empirical_cdf([], alphas)


def test_report_rejects_broken_invariants():
    good = dict(
        scenario={},
        values=np.array([0.1, 0.5]),
        alphas=np.array([0.25, 0.75]),
        cdf=np.array([0.5, 1.0]),
        timings=np.array([0.01, 0.02]),
    )
    CalibrationReport(**good)  # sanity: this one is fine

    bad = dict(good, cdf=np.array([0.8, 0.5]))  # decreasing
    with pytest.raises(ValueError, match="nondecreasing"):
        CalibrationReport(**bad)
    bad = dict(good, cdf=np.array([0.5, 1.2]))  # out of range
    with pytest.raises(ValueError, match="0, *1|\\[0, 1\\]"):
        CalibrationReport(**bad)
    bad = dict(good, values=np.array([0.5, 0.1]))  # unsorted values
    with pytest.raises(ValueError, match="sorted"):
        CalibrationReport(**bad)


# ---------------------------------------------------------------------------
# validity studies
# ---------------------------------------------------------------------------


def test_binomial_exact_validity_small():
    scn = _binomial_scenario(reps=300)
    report = validity_study(scn)
    assert len(report.values) == 300
    assert report.failures == ()
    assert np.all((report.values >= 0.0) & (report.values <= 1.0))
    assert np.all(np.diff(report.values) >= 0)
    assert np.all(np.diff(report.cdf) >= -1e-15)
    # Eq-(3)-style validity with a 2-SE Monte Carlo allowance
    for alpha in (0.05, 0.1, 0.25, 0.5):
        bound = alpha + 2.0 * np.sqrt(alpha * (1 - alpha) / 300)
        assert report.cdf_at(alpha) <= bound

    again = validity_study(scn)
    assert np.array_equal(report.values, again.values)
    assert np.array_equal(report.cdf, again.cdf)


def test_binomial_log_params_validity_matches_theta_scale():
    # the exact contour is evaluated at exp(eta), not at eta itself
    kw = dict(n=30, reps=20, seed=5)
    on_log = validity_study(_binomial_scenario(log_params=True, **kw)).values
    on_theta = validity_study(_binomial_scenario(**kw)).values
    assert np.ptp(on_theta) > 0.5
    assert np.allclose(on_log, on_theta, rtol=0.0, atol=1e-12)


def test_validity_thread_count_invariant():
    scn = _binomial_scenario(reps=40, seed=11)
    r1 = validity_study(scn, threads=1)
    r4 = validity_study(scn, threads=4)
    assert np.array_equal(r1.values, r4.values)
    assert np.array_equal(r1.cdf, r4.cdf)
    assert r1.failures == r4.failures


@pytest.mark.parametrize("method,model_id,truth,n", [
    ("variational-scalar", "bvn-correlation", (0.5,), 40),
    ("variational-vector", "gamma", (3.0, 2.0), 25),
])
def test_variational_mc_target_thread_count_invariant(method, model_id, truth, n):
    """Fits against Monte Carlo targets evaluate each SA iteration as one
    batch on one stream; the values still depend on the seed alone."""
    scn = Scenario(model_id=model_id, truth=truth, n=n, reps=6, method=method,
                   seed=23, sa=_sa(k_outer=40, m_inner=100, max_iter=6))
    r1 = validity_study(scn, threads=1)
    r2 = validity_study(scn, threads=2)
    again = validity_study(scn, threads=1)
    assert r1.failures == ()
    assert np.array_equal(r1.values, r2.values)
    assert np.array_equal(r1.values, again.values)


def test_variational_scalar_study_decisions_are_thread_count_invariant(monkeypatch):
    """The credal-mass fits of a variational-scalar study decide each
    indicator on the decision path (chunked, curtailed simulation); the
    study's values still depend on the seed alone.  The bvn correlation
    declares no exact contour, so its fits target the Monte Carlo one."""
    import possfit.contours as contours

    alphas = []
    batch = contours._mc_batch

    def recording(*args):
        alphas.append(args[6] if len(args) > 6 else None)
        return batch(*args)

    monkeypatch.setattr(contours, "_mc_batch", recording)
    scn = Scenario(model_id="bvn-correlation", truth=(0.5,), n=40, reps=6,
                   method="variational-scalar", seed=31,
                   sa=_sa(k_outer=60, m_inner=500, max_iter=8))
    r1 = validity_study(scn, threads=1)
    r2 = validity_study(scn, threads=2)
    again = validity_study(scn, threads=1)
    assert set(alphas) == {0.1}
    assert r1.failures == ()
    assert np.array_equal(r1.values, r2.values)
    assert np.array_equal(r1.values, again.values)


@pytest.mark.parametrize("study", ["validity", "hypothesis"])
def test_studies_record_failed_mc_evaluations(monkeypatch, study):
    """A Monte Carlo evaluation whose kernel raises is NaN, which a study
    records as a failed replication rather than as a value."""

    def broken(thetas, n, m, rng):
        raise FloatingPointError("synthetic kernel failure")

    build = calibration.build_model
    monkeypatch.setattr(calibration, "build_model",
                        lambda scn: replace(build(scn), sim_log_rel_lik=broken))
    scn = Scenario(model_id="lognormal", truth=(0.3, 0.5), n=20, reps=4,
                   method="naive", seed=3, m=50)
    with pytest.raises(StudyError) as err:
        if study == "validity":
            validity_study(scn)
        else:
            hypothesis_calibration(scn, [Hypothesis.half_space(np.array([1.0, 0.0]), 0.0)])
    assert len(err.value.failures) == 4


def test_validity_records_nonfatal_failures():
    # Under the documented stream contract, seed 2030 yields all-zero
    # binomial samples (degenerate MLE -> scalar fit fails) at exactly
    # replications 26 and 77 out of 100.
    model = models.binomial()
    expected = []
    for r in range(100):
        rng = derive_rng(2030, CAL_TAG, r, 1)
        ds = model.sample(np.array([0.2]), 15, rng)
        s = int(np.sum(ds.responses))
        if s in (0, 15):
            expected.append(r)
    assert expected == [26, 77]

    scn = _binomial_scenario(
        truth=(0.2,), reps=100, seed=2030, method="variational-scalar",
        sa=_sa(k_outer=30, m_inner=80, max_iter=8),
    )
    report = validity_study(scn)
    assert [i for i, _ in report.failures] == expected
    assert all("boundary" in msg for _, msg in report.failures)
    assert len(report.values) == 98
    assert len(report.timings) == 100
    assert np.isnan(report.timings[26]) and np.isnan(report.timings[77])
    ok = np.delete(report.timings, expected)
    assert np.all(np.isfinite(ok)) and np.all(ok > 0)


def test_validity_errors_when_failures_exceed_five_percent():
    scn = _binomial_scenario(
        truth=(0.05,), n=10, reps=40, seed=3,
        method="variational-scalar", sa=_sa(k_outer=20, m_inner=50,
                                            max_iter=6),
    )
    with pytest.raises(StudyError, match="fail"):
        validity_study(scn)
    try:
        validity_study(scn)
    except StudyError as err:
        assert len(err.failures) > 2


def test_gamma_vector_log_validity_structural():
    scn = Scenario(
        model_id="gamma", truth=(7.0, 3.0), n=25, reps=60,
        method="variational-vector", seed=29, log_params=True,
        sa=_sa(m_inner=300, max_iter=20),
    )
    report = validity_study(scn)
    assert len(report.failures) <= 2
    assert np.all((report.values >= 0.0) & (report.values <= 1.0))
    # approximate uniformity: a loose 3-SE sanity band at the median level
    assert abs(report.cdf_at(0.5) - 0.5) <= 0.25

    again = validity_study(scn)
    assert np.array_equal(report.values, again.values)


def test_bootstrap_validity_structural():
    truth = float(stats.gamma.ppf(0.25, 4.0))  # tau-quantile of Gamma(4,1)
    scn = Scenario(
        model_id="gamma", truth=(truth,), n=60, reps=80,
        method="bootstrap", seed=41, data_params=(4.0, 1.0),
        model_kwargs={"tau": 0.25, "B": 150},
    )
    report = validity_study(scn)
    assert report.failures == ()
    assert np.all((report.values >= 0.0) & (report.values <= 1.0))
    # approximate validity at the 0.1 level, with generous slack
    assert report.cdf_at(0.1) <= 0.3

    again = validity_study(scn)
    assert np.array_equal(report.values, again.values)


def test_bootstrap_on_paired_responses_is_a_scenario_error():
    """A bvn bootstrap study once ran with no failures on responses
    flattened to 2n values; build_contour and the study both raise a
    ConfigError instead of recording a failure per replication."""
    scn = Scenario(
        model_id="bvn-correlation", truth=(0.0,), n=30, reps=5,
        method="bootstrap", seed=41, data_params=(0.3,),
        model_kwargs={"tau": 0.5, "B": 50},
    )
    data = build_model(scn).sample(np.array([0.3]), 30, np.random.default_rng(1))
    with pytest.raises(ConfigError, match="needs a vector of responses"):
        calibration.build_contour("bootstrap", build_model(scn), data, 3, m=10, tau=0.5)
    for threads in (1, 2):
        with pytest.raises(ConfigError, match="needs a vector of responses"):
            validity_study(scn, threads=threads)


# registry id -> (model kwargs, a truth, responses off the sample space)
_OFF_SUPPORT = {
    "binomial": ({}, [0.4], [0.5, 1.0, 0.0, 1.0]),
    "bvn-correlation": ({}, [0.3], [[0.1, 0.2], [np.nan, 0.3], [0.5, -0.4], [1.0, 1.0]]),
    "gamma": ({}, [2.0, 1.0], [-1.0, 2.0, 3.0, 1.0]),
    "gamma-mean-shape": ({}, [2.0, 1.5], [0.0, 2.0, 3.0, 1.0]),
    "lognormal": ({}, [0.0, 1.0], [1.0, -2.0, 3.0, 1.0]),
    "lognormal-censored": ({}, [0.0, 1.0], [1.0, np.inf, 3.0, 1.0]),
    "normal-means": ({}, [0.0] * 4, [0.1, np.inf, -0.3, 0.0]),
    "normal-means-lasso": ({"lam": 0.5}, [0.0] * 4, [0.1, np.nan, -0.3, 0.0]),
    "poisson-loglinear": ({}, [0.1, 0.2, -0.1], [1.0, 2.5, 0.0, 3.0]),
    "logistic": ({"design": [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]},
                 [0.1, -0.2], [0.0, 1.0, 2.0, 1.0]),
}


@pytest.mark.parametrize("model_id", sorted(calibration._REGISTRY))
def test_build_contour_rejects_responses_off_the_sample_space(model_id):
    """Every registry model declares its sample space: the sampler's draws
    lie in it, and responses outside it are a ConfigError for a contour or
    a fit, where a gamma contour of negative responses was once all zeros
    and a binomial one of 0.5s peaked at 0.5."""
    kwargs, truth, responses = _OFF_SUPPORT[model_id]
    model = calibration.model_from_id(model_id, n=4, model_kwargs=kwargs)
    draw = model.sample(np.array(truth), 4, np.random.default_rng(2))
    assert model.support(draw.responses)[0]
    bad = Dataset(responses=np.array(responses))
    with pytest.raises(ConfigError, match=f"outside the {model_id} sample space"):
        calibration.build_contour("naive", model, bad, 3, m=10)
    with pytest.raises(ConfigError, match=f"outside the {model_id} sample space"):
        calibration.variational_fit("variational-scalar", model, bad, SAConfig(seed=0), 3)


def test_simulated_responses_off_the_sample_space_fail_their_replication():
    """A truth whose sampler underflows to 0 gives responses the user never
    gave: each replication records a failure naming the simulated
    responses, and more than 5% of them stop the study."""
    scn = Scenario(model_id="gamma", truth=(1e-300, 1.0), n=10, reps=4,
                   method="naive", seed=3, m=20)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(StudyError) as info:
        validity_study(scn)
    assert len(info.value.failures) == 4
    assert info.value.failures[0][1] == (
        "RuntimeError: simulated responses outside the gamma sample space: "
        "needs finite positive responses")


def test_censored_validity_structural():
    scn = Scenario(
        model_id="lognormal-censored", truth=(0.3, 0.49), n=30, reps=40,
        method="censored", seed=53, m=120,
        model_kwargs={"limits": [0.9, 1.4]},
    )
    report = validity_study(scn)
    assert len(report.failures) <= 2
    assert np.all((report.values >= 0.0) & (report.values <= 1.0))
    assert np.all(np.diff(report.cdf) >= -1e-15)
    again = validity_study(scn)
    assert np.array_equal(report.values, again.values)


@pytest.mark.parametrize("threads", [1, 2])
def test_censored_validity_report_is_unchanged(threads):
    """A censored study's report holds bit for bit: its data draws, the
    censoring of each response and the contour at the truth."""
    scn = Scenario(
        model_id="lognormal-censored", truth=(0.3, 0.49), n=30, reps=12,
        method="censored", seed=53, m=120,
        model_kwargs={"limits": [0.9, 1.4]},
    )
    report = validity_study(scn, threads=threads)
    assert _sha256(report.to_json_dict()) == (
        "d0d3e1db12ae2f56dd583adee39d7044b71733220a8f558bfb44111ae4f5b525")


# ---------------------------------------------------------------------------
# report I/O
# ---------------------------------------------------------------------------


def test_report_json_and_csv_io():
    scn = _binomial_scenario(reps=30, seed=19)
    report = validity_study(scn)

    doc = json.loads(json_text(report.to_json_dict()))
    assert doc["scenario"]["model"] == "binomial"
    assert len(doc["values"]) == 30
    assert len(doc["alphas"]) == len(DEFAULT_ALPHA_GRID)
    assert doc["cdf"] == [float(v) for v in report.cdf]
    assert report.timings.shape == (30,)
    assert doc["failures"] == []
    # timing values are wall-clock noise; the rendering omits them
    assert "timings" not in doc

    lines = report.csv_text().strip().splitlines()
    assert lines[0] == "alpha,cdf"
    assert len(lines) == 1 + len(DEFAULT_ALPHA_GRID)
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.01)
    assert 0.0 <= float(first[1]) <= 1.0


# ---------------------------------------------------------------------------
# hypothesis calibration
# ---------------------------------------------------------------------------


def _poisson_scenario(**kw):
    base = dict(
        model_id="poisson-loglinear", truth=(1.0, 0.25, 0.1), n=25,
        reps=40, method="variational-scalar", seed=67,
        sa=_sa(k_outer=25, m_inner=120, max_iter=10),
    )
    base.update(kw)
    return Scenario(**base)


def test_hypothesis_false_at_truth_is_config_error():
    scn = _poisson_scenario()
    false_h = Hypothesis.half_space(np.array([0.0, 1.0, 0.0]), 0.5)  # Th1>0.5
    with pytest.raises(ConfigError, match="true at"):
        hypothesis_calibration(scn, [false_h])


def test_hypothesis_dimension_mismatch():
    scn = _poisson_scenario()
    with pytest.raises(ValueError, match="dimension"):
        hypothesis_calibration(scn, [Hypothesis.whole_space(2)])


@pytest.mark.parametrize("bounds, message", [
    ([[1.0, 4.0]], "bootstrap method has no proposal family of dimension 1"),
    ([[1.0, 4.0], [0.5, 3.0]], "hypothesis 1 has dimension 2, expected 1"),
])
def test_hypothesis_bootstrap_checked_against_the_contour(monkeypatch, bounds,
                                                          message):
    """The bootstrap contour lives on the 1-D functional while the gamma model
    is 2-D: a box of either dimension is a config error raised before any
    replication runs."""
    scn = Scenario(model_id="gamma", truth=(2.53,), data_params=(4.0, 1.0),
                   n=30, reps=4, seed=3, method="bootstrap",
                   model_kwargs={"tau": 0.25, "B": 50})

    def no_replications(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(calibration, "_run_replications", no_replications)
    with pytest.raises(ConfigError, match=message):
        hypothesis_calibration(scn, [Hypothesis.box(bounds)])


def test_variational_contour_carries_its_fitted_family():
    model = models.bvn_correlation()
    data = model.sample(np.array([0.4]), 30, np.random.default_rng(3))
    sa = _sa(m_inner=50, max_iter=5)
    contour = calibration.build_contour("variational-scalar", model, data, 5, m=50, sa=sa)
    family, _ = fit_scalar(model, data, replace(sa, seed=5))
    assert isinstance(contour.family, GaussianScalarFamily)
    assert contour.family.xi == family.xi
    assert np.array_equal(contour.family.theta_hat, family.theta_hat)
    assert np.array_equal(contour.family.info, family.info)
    assert calibration.build_contour("naive", model, data, 5, m=50).family is None


def test_search_family_is_the_contour_family_without_a_refit(monkeypatch):
    data = Dataset(responses=np.array([1, 0, 1, 1, 0]))
    model = models.binomial()
    proposal = calibration.search_family("exact", make_exact_contour(model, data),
                                         model, data)
    assert isinstance(proposal, GaussianScalarFamily) and proposal.xi == 1.0
    assert proposal.theta_hat[0] == pytest.approx(0.6)

    def no_mle(*args):
        raise AssertionError("search_family fitted the model")

    monkeypatch.setattr(calibration, "mle_and_information", no_mle)
    fam = GaussianScalarFamily(np.array([0.4]), np.array([[62.5]]), xi=1.3)
    contour = gaussian_contour_object(fam)
    assert calibration.search_family("variational-scalar", contour, model, data) is fam


@pytest.mark.parametrize("model_id, kwargs", [
    ("normal-means-lasso", {"lam": float("nan")}),
    ("normal-means-lasso", {"lam": -1.0}),
    ("normal-means-lasso", {"sigma": -1.0}),
    ("normal-means", {"sigma": 0.0}),
])
def test_invalid_normal_means_settings_are_scenario_errors(model_id, kwargs):
    with pytest.raises(ConfigError, match="sigma|lam"):
        calibration.model_from_id(model_id, 5, kwargs)


def test_hypothesis_whole_space_curve():
    scn = _binomial_scenario(reps=25, seed=23)
    res = hypothesis_calibration(
        scn, [Hypothesis.whole_space(1)], alphas=[0.3, 0.9, 1.0]
    )
    assert res.curves.shape == (1, 3)
    assert np.array_equal(res.curves[0], [0.0, 0.0, 1.0])
    assert np.all(res.values[0] == 1.0)


def test_hypothesis_poisson_curves_below_diagonal():
    scn = _poisson_scenario(reps=40)
    h1 = Hypothesis.half_space(np.array([0.0, -1.0, 0.0]), -0.5)  # Th1 < 0.5
    h2 = Hypothesis.box([[-np.inf, np.inf], [-np.inf, np.inf], [0.0, 0.5]])
    h3 = Hypothesis.half_space(np.array([0.0, 1.0, -1.0]), 0.0)  # Th1 > Th2
    res = hypothesis_calibration(scn, [h1, h2, h3], alphas=[0.3, 0.5])
    assert res.curves.shape == (3, 2)
    assert res.failures == ()
    for row in res.curves:
        assert np.all((row >= 0.0) & (row <= 1.0))
        assert np.all(np.diff(row) >= -1e-15)
        for alpha, got in zip((0.3, 0.5), row):
            slack = 2.5 * np.sqrt(alpha * (1 - alpha) / 40)
            assert got <= alpha + slack
    # upper probabilities of true hypotheses should usually be large
    assert np.median(res.values[0]) > 0.5


def test_binomial_naive_hypothesis_report_is_unchanged():
    res = hypothesis_calibration(
        _binomial_scenario(reps=20),
        [Hypothesis.half_space(np.array([1.0]), 0.3), Hypothesis.box([[0.3, 0.6]])],
    )
    assert _sha256(res.to_json_dict()) == (
        "71f725f1ec6b36449d48489d49e89e619eaeb013f6300a4c1dcd7d080dc77483")


def test_hypothesis_result_io():
    scn = _binomial_scenario(reps=20, seed=31)
    res = hypothesis_calibration(
        scn,
        [Hypothesis.whole_space(1),
         Hypothesis.half_space(np.array([-1.0]), -0.9)],  # theta < 0.9
        alphas=[0.25, 0.5, 1.0],
    )
    lines = res.csv_text().strip().splitlines()
    assert lines[0] == "alpha,cdf_1,cdf_2"
    assert len(lines) == 4

    doc = json.loads(json_text(res.to_json_dict()))
    assert len(doc["hypotheses"]) == 2
    assert len(doc["curves"]) == 2
    assert doc["alphas"] == [0.25, 0.5, 1.0]
    assert "timings" not in doc


# ---------------------------------------------------------------------------
# timing / accuracy study
# ---------------------------------------------------------------------------


def _bvn_pair(n=50, reps=4, seed=17, m=300, count=40):
    grid = (AxisSpec(-1.0, 1.0, count),)
    naive = Scenario(model_id="bvn-correlation", truth=(0.5,), n=n,
                     reps=reps, method="naive", seed=seed, grid=grid, m=m)
    approx = Scenario(model_id="bvn-correlation", truth=(0.5,), n=n,
                      reps=reps, method="variational-vector", seed=seed,
                      grid=grid, m=m,
                      sa=_sa(m_inner=m, epsilon=0.005, max_iter=120))
    return naive, approx


def test_timing_pair_validation():
    naive, approx = _bvn_pair()
    with pytest.raises(ConfigError, match="grid"):
        timing_accuracy_study(replace(naive, grid=None), approx)
    with pytest.raises(ConfigError, match="seed"):
        timing_accuracy_study(naive, replace(approx, seed=99))
    with pytest.raises(ConfigError, match="truth"):
        timing_accuracy_study(naive, replace(approx, truth=(0.4,)))
    boot = Scenario(model_id="gamma", truth=(2.5,), n=40, reps=4,
                    method="bootstrap", seed=17, data_params=(4.0, 1.0),
                    model_kwargs={"tau": 0.25},
                    grid=(AxisSpec(1.0, 5.0, 10),))
    with pytest.raises(ConfigError, match="method"):
        timing_accuracy_study(naive, boot)


def test_timing_self_vs_self_is_exact():
    naive, _ = _bvn_pair(n=40, reps=3, m=200, count=30)
    res = timing_accuracy_study(naive, naive)
    assert res.l1.shape == (3,)
    assert np.all(res.l1 == 0.0)
    assert np.all(res.ratios > 0)
    assert 0.2 < res.relative_time < 5.0
    assert res.mean_l1 == 0.0


def test_timing_naive_vs_vector():
    naive, approx = _bvn_pair()
    res = timing_accuracy_study(naive, approx)
    assert res.l1.shape == (4,)
    assert np.all(res.l1 > 0.0)
    assert res.mean_l1 < 0.4
    assert np.all(res.naive_seconds > 0) and np.all(res.approx_seconds > 0)
    assert res.relative_time == pytest.approx(np.mean(res.ratios))

    again = timing_accuracy_study(naive, approx)
    assert np.array_equal(res.l1, again.l1)


def test_timing_l1_matches_documented_streams():
    naive, approx = _bvn_pair(n=45, reps=2, m=250, count=25)
    res = timing_accuracy_study(naive, approx)

    model = models.bvn_correlation()
    r = 0
    data = model.sample(np.array([0.5]), 45, derive_rng(17, CAL_TAG, r, 1))
    child_n = int(derive_rng(17, CAL_TAG, r, 3,
                             METHODS.index("naive")).integers(2 ** 63))
    child_a = int(derive_rng(17, CAL_TAG, r, 3,
                             METHODS.index("variational-vector"))
                  .integers(2 ** 63))
    axes = [AxisSpec(-1.0, 1.0, 25)]
    vn = grid_eval(make_mc_contour(model, data, 250, seed=child_n),
                   axes).values.ravel()
    fam, _ = fit_vector(model, data,
                        replace(approx.sa, seed=child_a, m_inner=250))
    va = grid_eval(gaussian_contour_object(fam), axes).values.ravel()
    l1 = float(np.mean(np.abs(va - vn)) * 2.0)
    assert res.l1[0] == pytest.approx(l1, rel=1e-12)


def test_timing_l1_is_unchanged():
    """A vector fit whose sa.m_inner differs from the study's m is run at
    m; the L1 distances hold bit for bit."""
    naive, approx = _bvn_pair(n=45, reps=2, m=200, count=25)
    approx = replace(approx, sa=_sa(m_inner=80, epsilon=0.005, max_iter=120))
    res = timing_accuracy_study(naive, approx)
    assert _sha256(res.to_json_dict()["l1"]) == (
        "de238a5c15a3a636309cf2a536a5426ed7f9429b52817cdc4f33dce82364b0ac")


def test_timing_naive_side_is_the_binomial_exact_contour():
    """A model that declares an exact contour gets it as its naive side."""
    grid = (AxisSpec(0.01, 0.99, 30),)
    naive = Scenario(model_id="binomial", truth=(0.4,), n=20, reps=2,
                     method="naive", seed=5, grid=grid, m=200)
    approx = replace(naive, method="variational-scalar", sa=_sa())
    res = timing_accuracy_study(naive, approx)
    model = models.binomial()
    for r in range(2):
        data = model.sample(np.array([0.4]), 20, derive_rng(5, CAL_TAG, r, 1))
        child = int(derive_rng(5, CAL_TAG, r, 3, METHODS.index("variational-scalar"))
                    .integers(2 ** 63))
        exact = grid_eval(make_exact_contour(model, data), grid).values.ravel()
        fam, _ = fit_scalar(model, data, replace(approx.sa, seed=child, m_inner=200))
        fitted = grid_eval(gaussian_contour_object(fam), grid).values.ravel()
        l1 = float(np.mean(np.abs(fitted - exact)) * 0.98)
        assert res.l1[r] == pytest.approx(l1, rel=1e-12)


def test_timing_result_json():
    naive, approx = _bvn_pair(n=40, reps=2, m=200, count=20)
    res = timing_accuracy_study(naive, approx)
    doc = json.loads(json_text(res.to_json_dict()))
    assert doc["naive_scenario"]["method"] == "naive"
    assert doc["approx_scenario"]["method"] == "variational-vector"
    assert len(doc["l1"]) == 2
    assert doc["mean_l1"] == pytest.approx(res.mean_l1)
    assert doc["relative_time"] == pytest.approx(res.relative_time)


# ---------------------------------------------------------------------------
# the fixed Poisson study design
# ---------------------------------------------------------------------------


def test_poisson_study_design_scaling():
    design = poisson_study_design(25)
    assert design.shape == (25, 3)
    assert np.all(design[:, 0] == 1.0)
    for j in (1, 2):
        assert abs(np.mean(design[:, j])) < 1e-12
        assert np.mean(design[:, j] ** 2) == pytest.approx(1.0, rel=1e-12)
    corr = np.corrcoef(design[:, 1], design[:, 2])[0, 1]
    assert 0.2 < corr < 0.9

    assert np.array_equal(design, poisson_study_design(25))
    other = poisson_study_design(40)
    assert other.shape == (40, 3)


def test_poisson_scenario_uses_fixed_design():
    scn = _poisson_scenario(reps=2)
    model = build_model(scn)
    assert model.name == "poisson-loglinear"
    # two replications share the same fixed covariates: the model object is
    # rebuilt per study, but the design derives only from (n, seed constant)
    d1 = poisson_study_design(scn.n)
    d2 = poisson_study_design(scn.n)
    assert np.array_equal(d1, d2)
