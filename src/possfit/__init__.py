"""Possibilistic inference via likelihood-based possibility contours.

Core layers:

* :mod:`possfit.models` — parametric models (likelihood, sampler, MLE,
  observed information) behind a uniform :class:`~possfit.models.ModelSpec`;
* :mod:`possfit.contours` — exact and Monte Carlo possibility contours,
  grids;
* :mod:`possfit.families` — Gaussian and Dirichlet variational families;
* :mod:`possfit.sa` — stochastic-approximation fitting of those families;
* :mod:`possfit.inference` — upper/lower probabilities, marginal contours,
  Choquet upper expectations;
* :mod:`possfit.nuisance` — profile, bootstrap, and censored-data contours
  for interest parameters in the presence of nuisance parameters;
* :mod:`possfit.calibration` — simulation studies of coverage and accuracy;
* :mod:`possfit.cli` — the `possfit` command-line front end.
"""

from .models import (  # noqa: F401
    Dataset,
    DegenerateMLEError,
    MLEConvergenceError,
    ModelSpec,
    SingularInformationError,
    binomial,
    bvn_correlation,
    finite_difference_information,
    gamma_mean_shape,
    gamma_shape_scale,
    log_reparam,
    logistic_regression,
    lognormal,
    lognormal_censored,
    mle_and_information,
    multinomial,
    normal_means,
    normal_means_lasso,
    poisson_loglinear,
    read_dataset_csv,
    soft_threshold,
)
from .contours import (  # noqa: F401
    AxisSpec,
    ConfigError,
    ContourGrid,
    PossibilityContour,
    TIE_EPS,
    exact_binomial_contour,
    grid_eval,
    make_exact_binomial,
    make_exact_contour,
    make_mc_contour,
    naive_contour,
)
from .families import (  # noqa: F401
    DirichletFamily,
    GaussianScalarFamily,
    GaussianVectorFamily,
    boundary_points,
    dirichlet_contour_object,
    family_to_json,
    gaussian_contour,
    gaussian_contour_object,
    gaussian_cov_matrix,
    gaussian_info_matrix,
    sample,
)
from .inference import (  # noqa: F401
    ChoquetResult,
    ChoquetSpec,
    Hypothesis,
    NoComplementError,
    ProbabilityResult,
    SearchBudget,
    choquet_upper_expectation,
    lower_probability,
    marginal_contour,
    upper_probability,
)
from .sa import (  # noqa: F401
    FitTrace,
    SAConfig,
    f_hat,
    fit_dirichlet,
    fit_scalar,
    fit_scalar_anchored,
    fit_vector,
    fit_vector_anchored,
    robbins_monro,
)

from .calibration import (  # noqa: F401
    CalibrationReport,
    DEFAULT_ALPHA_GRID,
    HypothesisCalibrationResult,
    METHODS,
    POISSON_DESIGN_SEED,
    Scenario,
    StudyError,
    TimingAccuracyResult,
    build_contour,
    build_model,
    check_support,
    empirical_cdf,
    hypothesis_calibration,
    poisson_study_design,
    search_family,
    timing_accuracy_study,
    validity_study,
    variational_fit,
)
from .nuisance import (  # noqa: F401
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

__version__ = "0.1.0"
