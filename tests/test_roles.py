"""The method's three patient roles, kept at the edge of the library.

The outcome model is developed on pre-introduction, standard-treated
patients (``Role.DEVELOPMENT``); it predicts for post-introduction,
target-treated ones (``Role.TREATED``); post-introduction, standard-treated
patients are the negative control (``Role.NEGATIVE_CONTROL``). Every
role-bound function refuses a group outside its role with
``ConfigurationError`` naming the role and the first offending id.

The ``hypothesis`` contract calls those functions on drawn cohorts of 0-12
rows: mixed periods and treatments, constant columns, one outcome class and
missing proton plans. Each call returns finite values in range or raises an
``AttlabError``; nothing else escapes.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from attlab.diagnostics import (
    OverlapVerdict,
    dose_transport_check,
    negative_control_check,
    positivity_report,
)
from attlab.errors import AttlabError, ConfigurationError
from attlab.estimator import (
    BootstrapConfig,
    BootstrapMode,
    EffectScale,
    bootstrap_ci,
    estimate_att,
    sensitivity_analysis,
)
from attlab.glm import ModelSpec, fit_model, fit_models
from attlab.records import LOCATIONS, Cohort, Period, Role, require_role

from conftest import cohort_of

RD = (EffectScale.RISK_DIFFERENCE,)
BOOT = BootstrapConfig(n_replicates=100, seed=3, mode=BootstrapMode.FIXED_MODEL)
SPECS = [("intercept", ModelSpec(terms=("intercept",))), ("linear", ModelSpec())]

# Each call puts a group in a role it does not play; (role named, the group whose first id is named).
REFUSALS = {
    "fit_model(post)": (lambda w, fit: fit_model(w.post), "development", lambda w: w.post),
    "fit_model(treated)": (lambda w, fit: fit_model(w.post.treated()), "development", lambda w: w.post.treated()),
    "fit_models([pre, post])": (lambda w, fit: fit_models([w.pre, w.post], ModelSpec()), "development",
                                lambda w: w.post),
    "bootstrap_ci(post, treated)": (
        lambda w, fit: bootstrap_ci(w.post, w.post.treated(), fit, RD, BOOT),
        "development", lambda w: w.post),
    "positivity_report(post, standard)": (
        lambda w, fit: positivity_report(w.post, w.post.standard()), "development", lambda w: w.post),
    "dose_transport_check(standard)": (
        lambda w, fit: dose_transport_check(w.post.standard(), fit, n_replicates=100), "treated",
        lambda w: w.post.standard()),
    "sensitivity_analysis(post, treated)": (
        lambda w, fit: sensitivity_analysis(
            w.post, w.post.treated(), SPECS, RD[0],
            BootstrapConfig(n_replicates=100, seed=0, mode=BootstrapMode.FIXED_MODEL)),
        "development", lambda w: w.post),
}


@pytest.mark.parametrize("call", sorted(REFUSALS))
def test_a_group_outside_its_role_is_refused_naming_the_role_and_first_id(small_world, small_fit, call):
    run, role, group = REFUSALS[call]
    first = group(small_world).ids[0]
    caller = call.split("(")[0]
    with pytest.raises(ConfigurationError, match=rf"^{caller} expects {role} patients .*offending ids: {first}(,|$)"):
        run(small_world, small_fit)


def test_an_empty_group_fits_every_role():
    empty = cohort_of([])
    assert all(require_role(empty, role, "test") is empty for role in Role)


def test_the_message_names_at_most_five_ids(small_world):
    with pytest.raises(ConfigurationError) as info:
        require_role(small_world.post, Role.DEVELOPMENT, "caller")
    assert str(info.value).startswith("caller expects development patients")
    assert str(info.value).split("offending ids: ")[1] == ", ".join(small_world.post.ids[:5])


DOSES = st.one_of(st.sampled_from([0.0, 30.0, 52.5, 80.0]), st.floats(0.0, 80.0))


@st.composite
def cohorts(draw, role: Role, prefix: str):
    """0-12 rows, all in ``role`` or each in a drawn one, with constant or drawn columns."""
    n = draw(st.integers(0, 12))
    roles = [role] * n if draw(st.booleans()) else draw(st.lists(st.sampled_from(Role), min_size=n, max_size=n))

    def column(values):
        """A drawn column of ``n`` values, constant half the time."""
        if draw(st.booleans()):
            return [draw(values)] * n
        return draw(st.lists(values, min_size=n, max_size=n))

    has_proton = np.array(column(st.booleans()), dtype=bool)
    proton = np.array([column(DOSES) for _ in range(4)], dtype=float).T
    return Cohort(
        ids=np.array([f"{prefix}-{i}" for i in range(n)], dtype=object),
        post=np.array([r.value[0] is Period.POST for r in roles], dtype=bool),
        dysphagia=np.array(column(st.integers(0, 1)), dtype=int),
        loc_code=np.array(column(st.integers(0, len(LOCATIONS) - 1)), dtype=int),
        photon=np.array([column(DOSES) for _ in range(4)], dtype=float).T,
        proton=np.where(has_proton[:, None], proton, np.nan),
        has_proton=has_proton,
        treatment=np.array([r.value[1].value for r in roles], dtype=int),
        outcome=np.array(column(st.integers(0, 1)), dtype=int),
    )


def finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_estimate(estimate, n_treated):
    assert estimate.n_treated == n_treated
    assert 0.0 <= estimate.mean_observed <= 1.0 and 0.0 < estimate.mean_predicted < 1.0
    assert finite(estimate.point)
    if estimate.scale is EffectScale.RISK_DIFFERENCE:
        assert -1.0 <= estimate.point <= 1.0
    else:
        assert estimate.point >= 0.0
    if estimate.bootstrap is not None:
        assert finite(estimate.ci_low, estimate.ci_high) and estimate.ci_low <= estimate.ci_high
        assert 0 <= estimate.n_failed_replicates <= estimate.bootstrap.n_replicates


def check_calibration(report, n):
    assert report.n == n
    assert 0.0 <= report.mean_observed <= 1.0 and 0.0 < report.mean_predicted < 1.0
    assert finite(report.mean_difference, report.ci_low, report.ci_high) and report.ci_low <= report.ci_high
    assert report.auroc is None or 0.0 <= report.auroc <= 1.0
    assert sum(b.count for b in report.curve) in (0, n)


def refused_or(call, check):
    """Run ``call`` and ``check`` its result; an ``AttlabError`` is an allowed refusal."""
    try:
        result = call()
    except AttlabError:
        return
    check(result)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(
    development=cohorts(Role.DEVELOPMENT, "d"),
    treated=cohorts(Role.TREATED, "t"),
    control=cohorts(Role.NEGATIVE_CONTROL, "c"),
    spec=st.sampled_from([spec for _, spec in SPECS]),
    mode=st.sampled_from(BootstrapMode),
    scales=st.sampled_from([RD, tuple(EffectScale)]),
)
def test_role_bound_functions_return_values_in_range_or_refuse(
    small_fit, development, treated, control, spec, mode, scales
):
    def check_fit(fit):
        assert fit.n_obs == len(development) and fit.spec == spec
        assert finite(fit.deviance, *fit.beta_hat) and fit.deviance >= 0.0

    refused_or(lambda: fit_model(development, spec), check_fit)
    for scale in EffectScale:
        def check_point(point, scale=scale):
            assert finite(point) and (-1.0 <= point <= 1.0 if scale is EffectScale.RISK_DIFFERENCE else point >= 0.0)

        refused_or(lambda: estimate_att(treated, small_fit, scale), check_point)

    config = BootstrapConfig(n_replicates=100, seed=5, mode=mode)

    def check_estimates(estimates):
        assert tuple(e.scale for e in estimates) == scales
        for estimate in estimates:
            check_estimate(estimate, len(treated))

    refused_or(lambda: bootstrap_ci(development, treated, fit_model(development, spec), scales, config),
               check_estimates)
    refused_or(lambda: bootstrap_ci(development, treated, small_fit, scales, config), check_estimates)

    def check_sensitivity(result):
        assert [row.label for row in result.rows] == [label for label, _ in SPECS]
        for row in result.rows:
            assert (row.estimate is None) != (row.error is None)
            if row.estimate is not None:
                check_estimate(row.estimate, len(treated))
        assert finite(result.max_spread) and result.max_spread >= 0.0

    refused_or(lambda: sensitivity_analysis(development, treated, SPECS, EffectScale.RISK_DIFFERENCE, config),
               check_sensitivity)

    def check_overlap(report):
        assert len(report.covariates) == 5
        for c in report.covariates:
            assert finite(*c.pre_range, *c.post_treated_range, c.smd)
            assert 0.0 <= c.outside_fraction <= 1.0
        assert isinstance(report.verdict, OverlapVerdict)

    refused_or(lambda: positivity_report(development, treated), check_overlap)
    refused_or(lambda: negative_control_check(control, small_fit, n_replicates=100, seed=7),
               lambda report: check_calibration(report, len(control)))
    refused_or(lambda: dose_transport_check(treated, small_fit, n_replicates=100, seed=7),
               lambda report: check_calibration(report, len(treated)))
