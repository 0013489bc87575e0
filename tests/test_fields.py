"""One field check, ``errors.checked``, keeps every config field and checked argument, or refuses it by name.

Each public config class has every field of ``dataclasses.fields`` drawn,
and each checked argument its values, from values of its kind, boundaries,
floats where an integer belongs, bools, numpy scalars, strings, ``None``,
NaN and infinities. A draw either constructs, with each numpy scalar kept
as a Python ``int`` or ``float``, or raises ``ConfigurationError`` naming
``<Class>.<field>`` (``<function>.<argument>``) of the first value not of
its kind. A config that constructs runs at small sizes and raises nothing
outside ``AttlabError``. An enum argument takes members only: a member's
value is refused, not read as some other member.
"""

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attlab.diagnostics import (
    calibration_curve,
    curve_csv_bytes,
    dose_transport_check,
    negative_control_check,
    positivity_report,
)
from attlab.errors import AttlabError, ConfigurationError, Integer, checked
from attlab.estimator import (
    BootstrapConfig,
    BootstrapMode,
    EffectScale,
    bootstrap_ci,
    estimate_att,
    sensitivity_analysis,
)
from attlab.glm import (
    NAMED_SPECS,
    ModelSpec,
    PlanSource,
    build_design,
    fit_logistic,
    fit_model,
    fit_models,
    predict_design,
    predict_risk,
)
from attlab.records import DOSE_FIELDS, Period, cohort_csv_bytes, read_cohort_csv, validate
from attlab.selection import SelectionRule, Strictness, assign, benefit, treatment_codes
from attlab.synth import (
    DoseTruncation,
    GeneratorConfig,
    ViolationShift,
    config_to_dict,
    generate,
    generate_range,
    make_true_risk_fn,
    true_att,
    true_att_of,
    write_world,
)
from attlab.violations import (
    DEFAULT_SHIFTS,
    Scenario,
    ScenarioName,
    run_scenario,
    run_suite,
    standard_scenario,
    write_suite,
)


@pytest.fixture(scope="module")
def world():
    return generate(GeneratorConfig(n_pre=300, n_post=200, seed=1))


@pytest.fixture(scope="module")
def fit(world):
    return fit_model(world.pre)


# --- enum arguments --------------------------------------------------------
# Each string below is a member's value. Before the check, each gave a wrong
# answer without an error: the odds ratio for "rd", the proton plan for
# "photon", the inclusive rule for "strict", and a bare KeyError for "baseline".

def test_estimate_att_refuses_a_scale_that_is_not_a_member(world, fit):
    with pytest.raises(ConfigurationError, match="^estimate_att.scale must be an EffectScale, got 'rd'$"):
        estimate_att(world.post.treated(), fit, "rd")


def test_bootstrap_ci_refuses_a_scale_that_is_not_a_member(world, fit):
    config = BootstrapConfig(n_replicates=100, mode=BootstrapMode.FIXED_MODEL)
    with pytest.raises(ConfigurationError, match="^bootstrap_ci.scales must be an EffectScale, got 'rd'$"):
        bootstrap_ci(world.pre, world.post.treated(), fit, [EffectScale.RISK_RATIO, "rd"], config)


def test_true_att_of_refuses_a_scale_that_is_not_a_member(world):
    with pytest.raises(ConfigurationError, match="^true_att_of.scale must be an EffectScale, got 'rd'$"):
        true_att_of(world.post.treated(), "rd")


def test_build_design_refuses_a_plan_source_that_is_not_a_member(world, fit):
    message = "^build_design.plan_source must be a PlanSource, got 'photon'$"
    with pytest.raises(ConfigurationError, match=message):
        build_design(world.pre, ModelSpec(), "photon")
    with pytest.raises(ConfigurationError, match=message):
        predict_risk(fit, world.post.treated(), "photon")


def test_treatment_codes_refuses_a_strictness_that_is_not_a_member():
    with pytest.raises(ConfigurationError, match="^treatment_codes.strictness must be a Strictness, got 'strict'$"):
        treatment_codes(np.array([0.05, 0.1, 0.2]), 0.1, "strict")


def test_standard_scenario_refuses_a_name_that_is_not_a_member():
    with pytest.raises(ConfigurationError, match="^Scenario.name must be a ScenarioName, got 'baseline'$"):
        standard_scenario("baseline")


# --- the model spec's terms ----------------------------------------------------
# Each of these ended in a bare TypeError from ``tuple`` or ``set``.

@pytest.mark.parametrize("terms, message", [
    (None, "ModelSpec.terms must be a tuple or list, got None"),
    (5, "ModelSpec.terms must be a tuple or list, got 5"),
    (("intercept", ["x"]), "ModelSpec.terms[1] must be a str, got ['x']"),
])
def test_model_spec_refuses_terms_that_are_not_a_sequence_of_names(terms, message):
    with pytest.raises(ConfigurationError) as refusal:
        ModelSpec(terms)
    assert str(refusal.value) == message


# --- containers and what they hold ----------------------------------------------
# A container is refused unless it is a tuple or a list, and then each item by
# its index. Before the check, each call ended in a bare TypeError, ValueError
# or AttributeError, or, for the string "rd", in a refusal of its first letter.

FIXED = BootstrapConfig(n_replicates=100, mode=BootstrapMode.FIXED_MODEL)
LINEAR = ("linear", NAMED_SPECS["linear"])


def small_scenario():
    return standard_scenario(ScenarioName.BASELINE, n_replicates=1, n_pre=60, n_post=40, seed=3)


RD = EffectScale.RISK_DIFFERENCE
TRUE_RISK = make_true_risk_fn(GeneratorConfig())

# A call with one container or item wrong, by the call's spelling, and its refusal.
CONTAINERS = {
    "bootstrap_ci(scales='rd')": (lambda w, fit: bootstrap_ci(w.pre, w.post.treated(), fit, "rd", FIXED),
                                  "bootstrap_ci.scales must be a tuple or list, got 'rd'"),
    "bootstrap_ci(scales=None)": (lambda w, fit: bootstrap_ci(w.pre, w.post.treated(), fit, None, FIXED),
                                  "bootstrap_ci.scales must be a tuple or list, got None"),
    "sensitivity_analysis(spec_variants=None)": (
        lambda w, fit: sensitivity_analysis(w.pre, w.post.treated(), None, RD, FIXED),
        "sensitivity_analysis.spec_variants must be a tuple or list, got None"),
    "sensitivity_analysis(spec_variants=[linear, ('b',)])": (
        lambda w, fit: sensitivity_analysis(w.pre, w.post.treated(), [LINEAR, ("b",)], RD, FIXED),
        "sensitivity_analysis.spec_variants[1] must be a (label, spec) pair, got ('b',)"),
    "sensitivity_analysis(spec_variants=['ab', linear])": (
        lambda w, fit: sensitivity_analysis(w.pre, w.post.treated(), ["ab", LINEAR], RD, FIXED),
        "sensitivity_analysis.spec_variants[0] must be a tuple or list, got 'ab'"),
    "sensitivity_analysis(spec_variants=[linear, (None, spec)])": (
        lambda w, fit: sensitivity_analysis(w.pre, w.post.treated(), [LINEAR, (None, ModelSpec())], RD, FIXED),
        "sensitivity_analysis.spec_variants[1][0] must be a str, got None"),
    "sensitivity_analysis(spec_variants=[linear, ['b', 'linear']])": (
        lambda w, fit: sensitivity_analysis(w.pre, w.post.treated(), [LINEAR, ["b", "linear"]], RD, FIXED),
        "sensitivity_analysis.spec_variants[1][1] must be a ModelSpec, got 'linear'"),
    "run_suite(None)": (lambda w, fit: run_suite(None), "run_suite.scenarios must be a tuple or list, got None"),
    "run_suite([1])": (lambda w, fit: run_suite([1]), "run_suite.scenarios[0] must be a Scenario, got 1"),
    "run_suite((scenario, 'baseline'))": (lambda w, fit: run_suite((small_scenario(), "baseline")),
                                          "run_suite.scenarios[1] must be a Scenario, got 'baseline'"),
    "run_scenario('baseline')": (lambda w, fit: run_scenario("baseline"),
                                 "run_scenario.scenario must be a Scenario, got 'baseline'"),
    "fit_model(pre, 'linear')": (lambda w, fit: fit_model(w.pre, "linear"),
                                 "fit_model.spec must be a ModelSpec or None, got 'linear'"),
    "fit_models([pre], None)": (lambda w, fit: fit_models([w.pre], None),
                                "fit_models.spec must be a ModelSpec, got None"),
    "fit_models([], 'linear')": (lambda w, fit: fit_models([], "linear"),
                                 "fit_models.spec must be a ModelSpec, got 'linear'"),
    "fit_models(None, spec)": (lambda w, fit: fit_models(None, ModelSpec()),
                               "fit_models.cohorts must be a tuple or list, got None"),
    "fit_models('ab', spec)": (lambda w, fit: fit_models("ab", ModelSpec()),
                               "fit_models.cohorts must be a tuple or list, got 'ab'"),
    "fit_models([pre, 1], spec)": (lambda w, fit: fit_models([w.pre, 1], ModelSpec()),
                                   "fit_models.cohorts[1] must be a Cohort, got 1"),
    "fit_models([pre, pre, pre[:299]], spec)": (
        lambda w, fit: fit_models([w.pre, w.pre, w.pre.take(np.arange(299))], ModelSpec()),
        "fit_models.cohorts[2] has 299 patients, not 300"),
    "generate_range(None)": (lambda w, fit: generate_range(None),
                             "generate_range.configs must be a tuple or list, got None"),
    "generate_range(5)": (lambda w, fit: generate_range(5), "generate_range.configs must be a tuple or list, got 5"),
    "generate_range([config, 'x'])": (lambda w, fit: generate_range([GeneratorConfig(), "x"]),
                                      "generate_range.configs[1] must be a GeneratorConfig, got 'x'"),
}


@pytest.mark.parametrize("name", CONTAINERS)
def test_each_container_and_its_items_are_refused_by_name(world, fit, name):
    call, message = CONTAINERS[name]
    with pytest.raises(ConfigurationError) as refusal:
        call(world, fit)
    assert str(refusal.value) == message


# --- cohort arguments ------------------------------------------------------------
# A function that takes patients in a role refuses anything but a Cohort through
# ``records.require_role``, naming itself and the role; one that takes patients in
# any role refuses it by the argument's name. Before the check, each call ended in a
# bare AttributeError, or a bare TypeError from ``len``.

DEVELOPMENT = "development patients (pre-introduction, standard-treated) in a Cohort"

# A call with its cohort argument wrong, by the call's spelling, and its refusal.
NOT_COHORTS = {
    "fit_model(None)": (lambda w, fit: fit_model(None), f"fit_model expects {DEVELOPMENT}, got None"),
    "fit_model([1, 2])": (lambda w, fit: fit_model([1, 2]), f"fit_model expects {DEVELOPMENT}, got [1, 2]"),
    "bootstrap_ci(None, ...)": (lambda w, fit: bootstrap_ci(None, w.post.treated(), fit, (RD,), FIXED),
                                f"bootstrap_ci expects {DEVELOPMENT}, got None"),
    "sensitivity_analysis(None, ...)": (
        lambda w, fit: sensitivity_analysis(None, w.post.treated(), [LINEAR, LINEAR], RD, FIXED),
        f"sensitivity_analysis expects {DEVELOPMENT}, got None"),
    "build_design(None, spec)": (lambda w, fit: build_design(None, ModelSpec()),
                                 "build_design.patients must be a Cohort, got None"),
    "predict_risk(fit, None)": (lambda w, fit: predict_risk(fit, None),
                                "predict_risk.patients must be a Cohort, got None"),
    "estimate_att(None, fit, rd)": (
        lambda w, fit: estimate_att(None, fit, RD),
        "estimate_att expects treated patients (post-introduction, target-treated) in a Cohort, got None"),
    "positivity_report(None, treated)": (lambda w, fit: positivity_report(None, w.post.treated()),
                                         f"positivity_report expects {DEVELOPMENT}, got None"),
    "negative_control_check(None, fit)": (
        lambda w, fit: negative_control_check(None, fit),
        "negative_control_check expects negative-control patients (post-introduction, standard-treated) "
        "in a Cohort, got None"),
    "true_att_of(None, rd)": (lambda w, fit: true_att_of(None, RD), "true_att_of.treated must be a Cohort, got None"),
    "validate(None, PRE)": (lambda w, fit: validate(None, Period.PRE), "validate.cohort must be a Cohort, got None"),
    "cohort_csv_bytes(None)": (lambda w, fit: cohort_csv_bytes(None),
                               "cohort_csv_bytes.cohort must be a Cohort, got None"),
    "benefit(None, risk_fn)": (lambda w, fit: benefit(None, TRUE_RISK), "benefit.patients must be a Cohort, got None"),
    "assign(None, rule)": (lambda w, fit: assign(None, SelectionRule(TRUE_RISK)),
                           "assign.patients must be a Cohort, got None"),
}


@pytest.mark.parametrize("name", NOT_COHORTS)
def test_an_argument_that_is_not_a_cohort_is_refused_by_name(world, fit, name):
    call, message = NOT_COHORTS[name]
    with pytest.raises(ConfigurationError) as refusal:
        call(world, fit)
    assert str(refusal.value) == message


# --- other object arguments ------------------------------------------------------
# A fit, a config, a period, a world, a suite result, a rule or a callback is
# refused by the argument's name unless it is of its class. Before the check, each
# call ended in a bare AttributeError or TypeError, or, for validate's period
# "post", returned no violation for a pre-introduction cohort: a string was read
# as the pre period.

# A call with one argument of the wrong class, by the call's spelling, and its refusal.
OBJECTS = {
    "predict_risk(None, post)": (lambda w, fit: predict_risk(None, w.post),
                                 "predict_risk.fit must be a ModelFit, got None"),
    "estimate_att(treated, None, rd)": (lambda w, fit: estimate_att(w.post.treated(), None, RD),
                                        "estimate_att.fit must be a ModelFit, got None"),
    "bootstrap_ci(..., fit=None)": (lambda w, fit: bootstrap_ci(w.pre, w.post.treated(), None, (RD,), FIXED),
                                    "bootstrap_ci.fit must be a ModelFit, got None"),
    "bootstrap_ci(..., config=None)": (lambda w, fit: bootstrap_ci(w.pre, w.post.treated(), fit, (RD,), None),
                                       "bootstrap_ci.config must be a BootstrapConfig, got None"),
    "negative_control_check(standard, None)": (lambda w, fit: negative_control_check(w.post.standard(), None),
                                               "negative_control_check.fit must be a ModelFit, got None"),
    "dose_transport_check(treated, None)": (lambda w, fit: dose_transport_check(w.post.treated(), None),
                                            "dose_transport_check.fit must be a ModelFit, got None"),
    "sensitivity_analysis(..., bootstrap=None)": (
        lambda w, fit: sensitivity_analysis(w.pre, w.post.treated(), [LINEAR, LINEAR], RD, None),
        "sensitivity_analysis.bootstrap must be a BootstrapConfig, got None"),
    "sensitivity_analysis(..., scale='rd')": (
        lambda w, fit: sensitivity_analysis(w.pre, w.post.treated(), [LINEAR, LINEAR], "rd", FIXED),
        "sensitivity_analysis.scale must be an EffectScale, got 'rd'"),
    "validate(pre, 'post')": (lambda w, fit: validate(w.pre, "post"), "validate.period must be a Period, got 'post'"),
    "validate(post, 'post')": (lambda w, fit: validate(w.post, "post"),
                               "validate.period must be a Period, got 'post'"),
    "validate(pre, None)": (lambda w, fit: validate(w.pre, None), "validate.period must be a Period, got None"),
    "true_att(None, rd)": (lambda w, fit: true_att(None, RD), "true_att.world must be a GeneratedWorld, got None"),
    "true_att(world, 'rd')": (lambda w, fit: true_att(w, "rd"), "true_att.scale must be an EffectScale, got 'rd'"),
    "write_world(None, None)": (lambda w, fit: write_world(None, None),
                                "write_world.world must be a GeneratedWorld, got None"),
    "write_suite(None, None)": (lambda w, fit: write_suite(None, None),
                                "write_suite.result must be a SuiteResult, got None"),
    "benefit(post, None)": (lambda w, fit: benefit(w.post, None), "benefit.risk_fn must be a Callable, got None"),
    "assign(post, None)": (lambda w, fit: assign(w.post, None), "assign.rule must be a SelectionRule, got None"),
    "run_scenario(scenario, progress=5)": (lambda w, fit: run_scenario(small_scenario(), progress=5),
                                           "run_scenario.progress must be a Callable or None, got 5"),
    "run_suite([scenario], progress=5)": (lambda w, fit: run_suite([small_scenario()], progress=5),
                                          "run_suite.progress must be a Callable or None, got 5"),
    "curve_csv_bytes(None)": (lambda w, fit: curve_csv_bytes(None),
                              "curve_csv_bytes.report must be a CalibrationReport, got None"),
    "config_to_dict(None)": (lambda w, fit: config_to_dict(None),
                             "config_to_dict.config must be a GeneratorConfig, got None"),
    "make_true_risk_fn(None)": (lambda w, fit: make_true_risk_fn(None),
                                "make_true_risk_fn.config must be a GeneratorConfig, got None"),
    "read_cohort_csv(None)": (lambda w, fit: read_cohort_csv(None),
                              "read_cohort_csv.path must be a str or PathLike, got None"),
}


@pytest.mark.parametrize("name", OBJECTS)
def test_an_argument_of_another_class_is_refused_by_name(world, fit, name):
    call, message = OBJECTS[name]
    with pytest.raises(ConfigurationError) as refusal:
        call(world, fit)
    assert str(refusal.value) == message


# --- array arguments -------------------------------------------------------------
# A raw design, its outcomes, its column names and a fit's coefficients are refused
# by the argument's name when numpy cannot read them as reals, or when their shape
# does not fit the design. Before the checks, each call ended in a bare ValueError
# or TypeError, or, for column names "ab", fitted with the two names a and b.

X_RAW = np.c_[np.ones(6), np.arange(6.0)]
Y_RAW = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])

# A call with one array argument wrong, by the call's spelling, and its refusal.
ARRAYS = {
    "fit_logistic('abc', [1])": (lambda: fit_logistic("abc", [1]),
                                 "fit_logistic.design must be an array of reals, got 'abc'"),
    "fit_logistic({'a': 1}, [1])": (lambda: fit_logistic({"a": 1}, [1]),
                                    "fit_logistic.design must be an array of reals, got {'a': 1}"),
    "fit_logistic(X, 'abc')": (lambda: fit_logistic(X_RAW, "abc"),
                               "fit_logistic.outcomes must be an array of reals, got 'abc'"),
    "fit_logistic(X, y, column_names=5)": (
        lambda: fit_logistic(X_RAW, Y_RAW, column_names=5),
        "fit_logistic.column_names must be a list or tuple or None, got 5"),
    "fit_logistic(X, y, column_names='ab')": (
        lambda: fit_logistic(X_RAW, Y_RAW, column_names="ab"),
        "fit_logistic.column_names must be a list or tuple or None, got 'ab'"),
    "fit_logistic(X, y, column_names=['a', 2])": (
        lambda: fit_logistic(X_RAW, Y_RAW, column_names=["a", 2]),
        "fit_logistic.column_names[1] must be a str, got 2"),
    "predict_design(None, X)": (
        lambda: predict_design(None, X_RAW),
        "predict_design.beta must hold 2 coefficients a row, one per design column, got shape ()"),
    "predict_design([0, 0, 0], X)": (
        lambda: predict_design([0.0, 0.0, 0.0], X_RAW),
        "predict_design.beta must hold 2 coefficients a row, one per design column, got shape (3,)"),
    "predict_design(['a', 'b'], X)": (lambda: predict_design(["a", "b"], X_RAW),
                                      "predict_design.beta must be an array of reals, got ['a', 'b']"),
    "predict_design([0, 0], 'abc')": (lambda: predict_design([0.0, 0.0], "abc"),
                                      "predict_design.X must be an array of reals, got 'abc'"),
    "predict_design([0, 0], None)": (
        lambda: predict_design([0.0, 0.0], None),
        "predict_design.X must be a design (n, k) or a stack of them, got shape ()"),
    "predict_design(zeros((3, 2)), stack of 2)": (
        lambda: predict_design(np.zeros((3, 2)), np.stack([X_RAW, X_RAW])),
        "predict_design.beta must hold one coefficient row per design, shape (2, 2), got shape (3, 2)"),
    "predict_design(zeros((1, 2, 2)), stack of 2)": (
        lambda: predict_design(np.zeros((1, 2, 2)), np.stack([X_RAW, X_RAW])),
        "predict_design.beta must hold one coefficient row per design, shape (2, 2), got shape (1, 2, 2)"),
}


@pytest.mark.parametrize("name", ARRAYS)
def test_an_array_argument_that_does_not_fit_is_refused_by_name(name):
    call, message = ARRAYS[name]
    with pytest.raises(ConfigurationError) as refusal:
        call()
    assert str(refusal.value) == message


def test_the_array_checks_keep_what_fits():
    fit = fit_logistic(X_RAW.tolist(), Y_RAW.tolist(), column_names=("intercept", "x"))
    assert fit.column_names == ("intercept", "x")
    assert np.array_equal(predict_design(fit.beta_hat, X_RAW), predict_design(fit.beta_hat.tolist(), X_RAW.tolist()))
    stacked = predict_design(np.stack([fit.beta_hat, -fit.beta_hat]), np.stack([X_RAW, X_RAW]))
    assert stacked.shape == (2, 6) and np.array_equal(stacked[0], predict_design(fit.beta_hat, X_RAW))


# --- the rule's own bounds and wording ----------------------------------------

def test_an_integer_kind_keeps_both_of_its_bounds_and_names_the_one_broken():
    assert [checked(v, Integer(1, 5), "f.n") for v in (1, 5, np.int64(5))] == [1, 5, 5]
    with pytest.raises(ConfigurationError, match="^f.n must be a positive integer <= 5, got 6$"):
        checked(6, Integer(1, 5), "f.n")
    with pytest.raises(ConfigurationError, match="^f.n must be a positive integer, got 0$"):
        checked(0, Integer(1, 5), "f.n")


def test_a_class_kind_is_named_with_the_article_of_its_first_name():
    with pytest.raises(ConfigurationError, match="^f.scale must be an EffectScale or None, got 'rd'$"):
        checked("rd", EffectScale | None, "f.scale")


# --- what each field and argument may hold ------------------------------------

class Pool(NamedTuple):
    """The values drawn for one field or argument: those of its kind, those not, and how a refusal names the kind."""

    noun: str
    good: list
    bad: list


# Neither a number nor a member of any enum; None is good only where a kind says ``| None``.
JUNK = [True, False, np.bool_(True), "1", "x", math.nan, math.inf, -math.inf]


def integer(low, good, noun):
    return Pool(noun, good, [low - 1, float(low), low + 0.5, np.float64(low + 1), None, *JUNK])


def real(good, noun="a finite real", bounds=()):
    return Pool(noun, good, [*bounds, None, "0.5", 10**400, *JUNK])


def member(enum):
    return Pool(f"a {enum.__name__}", list(enum), [m.value for m in enum] + [m.name for m in enum] + [None, 0, True])


SEED = integer(0, [0, 1, 7919, np.int64(5), np.uint32(3), 2**62], "a non-negative integer")
SHIFTS = Pool("a ViolationShift", list(DEFAULT_SHIFTS.values()),
              [None, "baseline", 0.0, {}, DoseTruncation(organ="dose_sup_pcm", max_gy=50.0)])
TRUNCATION = DoseTruncation(organ="dose_inf_pcm", max_gy=60.0, min_gy=10.0)
THRESHOLD = real([0.05, 0.1, 0.5, np.float64(0.2), np.float32(0.25)], "a real in (0, 1)", [0.0, 1.0, 1, -0.1, 1.5])
SHIFT_SIZE = real([0.0, -0.0, 0.8, -2.5, 5.0, 1, np.int64(2), np.float32(0.5), np.float64(1e-300)])

# Every field of each public config class; a field added later fails the property until it is drawn here.
FIELDS = {
    GeneratorConfig: dict(
        n_pre=integer(1, [1, 2, 40, np.int64(30), np.uint16(25)], "a positive integer"),
        n_post=integer(1, [1, 2, 30, np.int32(20)], "a positive integer"),
        seed=SEED,
        selection_threshold=THRESHOLD,
        shift=SHIFTS,
    ),
    BootstrapConfig: dict(
        n_replicates=integer(100, [100, 101, np.int64(100), np.uint8(120)], "an integer >= 100"),
        seed=SEED,
        mode=member(BootstrapMode),
    ),
    ViolationShift: dict(
        secular_dose_drift=SHIFT_SIZE,
        unmeasured_confounder_strength=SHIFT_SIZE,
        support_truncation=Pool("a DoseTruncation or None", [None, TRUNCATION], ["dose_sup_pcm", 50.0, {}, *JUNK]),
        nonlinearity_amplitude=SHIFT_SIZE,
    ),
    DoseTruncation: dict(
        # A value of another type is refused unread: an array or list is not compared element-wise.
        organ=Pool(f"one of {', '.join(DOSE_FIELDS)}", list(DOSE_FIELDS),
                   ["dose_sup", "", None, 0, True, np.str_("dose_sup_pcm"), ["dose_sup_pcm"],
                    np.array(["dose_sup_pcm", "x"]), np.array(["dose_sup_pcm"])]),
        # 90 and -1 break the bounds rule and 30 the window rule; the rest sample in a few passes.
        max_gy=real([50.0, 60, np.float64(70.0), 80.0, 90.0, 30.0]),
        min_gy=real([0.0, 0, 10.0, np.float32(5.0), -1.0]),
    ),
    SelectionRule: dict(
        risk_fn=Pool("a Callable", [TRUE_RISK], [None, 0, {}, *JUNK]),
        threshold=THRESHOLD,
        strictness=member(Strictness),
    ),
    Scenario: dict(
        name=member(ScenarioName),
        shift=SHIFTS,
        n_replicates=integer(1, [1, 2, np.int64(1)], "a positive integer"),
        seed=SEED,
        n_pre=integer(1, [40, np.int64(60)], "a positive integer"),
        n_post=integer(1, [30, np.int16(40)], "a positive integer"),
        selection_threshold=THRESHOLD,
        boot_replicates=Pool("an integer >= 100", [None, 100, np.int64(100)],
                             [99, 100.0, np.float64(100.0), 100.5, *JUNK]),
    ),
}

# The field a refusal names where it is not the class's own: a Scenario's sizes, threshold
# and bootstrap replicates are checked by the world and bootstrap configs they feed.
NAMED_AS = {
    (Scenario, "n_pre"): "GeneratorConfig.n_pre",
    (Scenario, "n_post"): "GeneratorConfig.n_post",
    (Scenario, "selection_threshold"): "GeneratorConfig.selection_threshold",
    (Scenario, "boot_replicates"): "BootstrapConfig.n_replicates",
}

# Refusals that are rules across fields, not kinds: (after which field, message start) per class.
CROSS_FIELD = {
    Scenario: ("seed", "baseline must carry an all-neutral shift"),
    DoseTruncation: ("min_gy", ("truncation bounds must satisfy", "dose_model[")),
}


@st.composite
def drawn(draw, pools: dict, names: list):
    """A value for each name: one of its kind, but for at most two names one that is not."""
    bad = draw(st.sets(st.sampled_from([n for n in names if pools[n].bad]), max_size=2))
    return {name: draw(st.sampled_from(pools[name].bad if name in bad else pools[name].good)) for name in names}


def is_good(pool, value) -> bool:
    return any(value is good or (type(value) is type(good) and value == good) for good in pool.good)


def fed(scenario, name):
    """What the config that a Scenario's field ``name`` feeds keeps of it."""
    if name == "boot_replicates":
        return None if scenario.boot_replicates is None else scenario.bootstrap_config(0).n_replicates
    return getattr(scenario.world_config(0), name)


def assert_kept(kept, value):
    """A number is kept as its Python value; anything else as it is."""
    if isinstance(value, (np.generic, int, float)) and not isinstance(value, bool):
        assert type(kept) in (int, float) and kept == value
    else:
        assert kept is value


@functools.lru_cache(maxsize=1)
def small_lab():
    """A small world's development cohort, its treated group and its fit."""
    world = generate(GeneratorConfig(n_pre=120, n_post=60, seed=2))
    return world.pre, world.post.treated(), fit_model(world.pre)


def run(config):
    """Run ``config`` at small sizes; any error must be the package's own."""
    try:
        if isinstance(config, GeneratorConfig):
            true_att(generate(config), EffectScale.RISK_DIFFERENCE)
        elif isinstance(config, (ViolationShift, DoseTruncation)):
            shift = config if isinstance(config, ViolationShift) else ViolationShift(support_truncation=config)
            true_att(generate(GeneratorConfig(n_pre=40, n_post=30, seed=1, shift=shift)), EffectScale.RISK_DIFFERENCE)
        elif isinstance(config, BootstrapConfig):
            pre, treated, fit = small_lab()
            bootstrap_ci(pre, treated, fit, (EffectScale.RISK_DIFFERENCE,), config)
        elif isinstance(config, SelectionRule):
            assign(generate(GeneratorConfig(n_pre=20, n_post=30, seed=3)).post, config)
        else:
            run_scenario(config)
    except AttlabError:
        pass


EXAMPLES = 150


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_each_field_is_kept_or_refused_by_name(cls):
    pools = FIELDS[cls]
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    assert sorted(pools) == sorted(names)
    after, cross_field = CROSS_FIELD.get(cls, (None, ()))

    @settings(max_examples=EXAMPLES)
    @given(drawn(pools, names))
    def check(values):
        first_bad = next((name for name in names if not is_good(pools[name], values[name])), None)
        try:
            config = cls(**values)
        except ConfigurationError as exc:
            message = str(exc)
            if first_bad is None or (after is not None and names.index(first_bad) > names.index(after)
                                     and message.startswith(cross_field)):
                assert message.startswith(cross_field)
            else:
                named = NAMED_AS.get((cls, first_bad), f"{cls.__name__}.{first_bad}")
                assert message == f"{named} must be {pools[first_bad].noun}, got {values[first_bad]!r}"
            return
        assert first_bad is None, f"{cls.__name__}.{first_bad} = {values[first_bad]!r} was kept"
        for name in names:
            assert_kept(fed(config, name) if (cls, name) in NAMED_AS else getattr(config, name), values[name])
        run(config)

    check()


# --- checked arguments ---------------------------------------------------------

@pytest.fixture(scope="module")
def calls(world, fit):
    """Each checked argument's pool, and a call of its function at small sizes with that argument set."""
    pre, treated, standard = world.pre, world.post.treated(), world.post.standard()
    scenario = small_scenario()
    variants = [(name, NAMED_SPECS[name]) for name in ("linear", "quadratic")]
    one = integer(1, [1, np.int64(1), np.uint8(1)], "a positive integer")
    replicates = integer(1, [1, 2, 50, np.int64(10)], "a positive integer")
    predictions, outcomes = np.linspace(0.1, 0.9, 20), [0, 1] * 10
    return {
        "run_scenario.threads": (one, lambda v: run_scenario(scenario, threads=v)),
        "run_suite.threads": (one, lambda v: run_suite([scenario], threads=v)),
        "bootstrap_ci.workers": (one, lambda v: bootstrap_ci(pre, treated, fit, (EffectScale.RISK_DIFFERENCE,),
                                                              FIXED, workers=v)),
        "sensitivity_analysis.workers": (one, lambda v: sensitivity_analysis(
            pre, treated, variants, EffectScale.RISK_DIFFERENCE, FIXED, workers=v)),
        "calibration_curve.n_bins": (integer(1, [1, 2, 10, 20, np.int64(5)], "a positive integer"),
                                     lambda v: calibration_curve(predictions, outcomes, n_bins=v)),
        "negative_control_check.n_replicates": (replicates, lambda v: negative_control_check(
            standard, fit, n_replicates=v)),
        "negative_control_check.seed": (SEED, lambda v: negative_control_check(standard, fit, n_replicates=20, seed=v)),
        "dose_transport_check.n_replicates": (replicates, lambda v: dose_transport_check(treated, fit, n_replicates=v)),
        "dose_transport_check.seed": (SEED, lambda v: dose_transport_check(treated, fit, n_replicates=20, seed=v)),
    }


ARGUMENTS = ["run_scenario.threads", "run_suite.threads", "bootstrap_ci.workers", "sensitivity_analysis.workers",
             "calibration_curve.n_bins", "negative_control_check.n_replicates", "negative_control_check.seed",
             "dose_transport_check.n_replicates", "dose_transport_check.seed"]


@pytest.mark.parametrize("name", ARGUMENTS)
def test_each_checked_argument_runs_or_is_refused_by_name(calls, name):
    pool, call = calls[name]

    @settings(max_examples=25)
    @given(st.sampled_from(pool.good + pool.bad))
    def check(value):
        if is_good(pool, value):
            call(value)
        else:
            with pytest.raises(ConfigurationError) as exc:
                call(value)
            assert str(exc.value) == f"{name} must be {pool.noun}, got {value!r}"

    check()


def test_a_numpy_argument_gives_what_its_python_value_gives(world, fit):
    standard = world.post.standard()
    numpy = negative_control_check(standard, fit, n_replicates=np.int64(50), seed=np.uint32(7))
    assert numpy == negative_control_check(standard, fit, n_replicates=50, seed=7)
