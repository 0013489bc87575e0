"""Counterfactual-prediction evaluation of newly introduced treatments.

Fit an outcome model on pre-introduction (standard-treatment) data, predict
counterfactual standard-treatment outcomes for patients who received the
new treatment, and estimate the average treatment effect among the treated
(ATT), together with executable validity diagnostics and a Monte Carlo lab
that quantifies estimator bias under controlled condition violations.
"""

from .diagnostics import (
    CalibrationBin,
    CalibrationReport,
    CovariateOverlap,
    OverlapReport,
    OverlapVerdict,
    auroc,
    calibration_curve,
    dose_transport_check,
    negative_control_check,
    positivity_report,
)
from .errors import (
    AttlabError,
    CollinearityError,
    ConfigurationError,
    EstimandError,
    MissingPlanError,
    NotConvergedError,
    PredictionError,
    ScenarioError,
    SchemaError,
    SeparationError,
    StatisticalError,
    UndefinedMetricError,
    UnstableBootstrapError,
)
from .estimator import (
    AttEstimate,
    BootstrapConfig,
    BootstrapMode,
    EffectScale,
    SensitivityResult,
    SensitivityRow,
    bootstrap_ci,
    estimate_att,
    sensitivity_analysis,
)
from .glm import (
    ModelFit,
    ModelSpec,
    PlanSource,
    build_design,
    design_columns,
    expit,
    fit_logistic,
    fit_model,
    predict_risk,
)
from .records import (
    Cohort,
    Period,
    SchemaViolation,
    Treatment,
    TumorLocation,
    read_cohort_csv,
    validate,
)
from .selection import SelectionRule, Strictness, assign, benefit
from .synth import (
    DoseTruncation,
    GeneratedWorld,
    GeneratorConfig,
    ViolationShift,
    generate,
    generate_range,
    make_true_risk_fn,
    true_att,
    write_world,
)
from .violations import (
    BiasReport,
    Scenario,
    ScenarioFailure,
    ScenarioName,
    SuiteResult,
    run_scenario,
    run_suite,
    standard_scenario,
)

__version__ = "0.1.0"
