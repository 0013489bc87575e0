import numpy as np
import pytest

from attlab.errors import ConfigurationError, MissingPlanError
from attlab.records import Treatment
from attlab.selection import SelectionRule, Strictness, assign, benefit
from attlab.synth import GeneratorConfig, make_true_risk_fn

from conftest import cohort_of, fixed_risk, make_post_record

TARGET, STANDARD = Treatment.TARGET.value, Treatment.STANDARD.value


def one_patient(**kwargs):
    return cohort_of([make_post_record(**kwargs)])


class TestBenefit:
    def test_identical_plans_give_zero(self):
        patients = one_patient(photon=(50.0, 45.0, 40.0, 42.0), proton=(50.0, 45.0, 40.0, 42.0))
        risk = make_true_risk_fn(GeneratorConfig())
        assert benefit(patients, risk).tolist() == [0.0]

    def test_arithmetic(self):
        assert benefit(one_patient(), fixed_risk(0.50, 0.35)) == pytest.approx([0.15])

    def test_missing_proton_plan_raises(self):
        patients = cohort_of(
            [make_post_record(rid="q-1"), make_post_record(rid="q-2", treatment=Treatment.STANDARD, proton=None)]
        )
        with pytest.raises(MissingPlanError) as excinfo:
            benefit(patients, fixed_risk(0.5, 0.4))
        assert excinfo.value.record_ids == ["q-2"]

    def test_monotone_risk_and_componentwise_lower_plan_gives_nonnegative_benefit(self):
        # Derived check: under a risk function monotone increasing in every
        # dose, proton <= photon componentwise implies benefit >= 0.
        risk = make_true_risk_fn(GeneratorConfig())
        rng = np.random.default_rng(5)
        records = []
        for i in range(50):
            photon = rng.uniform(20.0, 70.0, size=4)
            proton = photon * rng.uniform(0.5, 1.0, size=4)
            records.append(make_post_record(rid=f"m-{i}", photon=tuple(photon), proton=tuple(proton)))
        assert np.all(benefit(cohort_of(records), risk) >= 0.0)


class TestAssign:
    def test_above_threshold_selects(self):
        rule = SelectionRule(risk_fn=fixed_risk(0.50, 0.35), threshold=0.10)
        labels = assign(one_patient(), rule)
        assert labels.tolist() == [TARGET]
        assert labels.dtype == one_patient().treatment.dtype

    def test_boundary_is_strict_by_default(self):
        # Dyadic risks make the benefit land exactly on the threshold.
        rule = SelectionRule(risk_fn=fixed_risk(0.500, 0.375), threshold=0.125)
        assert assign(one_patient(), rule).tolist() == [STANDARD]
        inclusive = SelectionRule(
            risk_fn=fixed_risk(0.500, 0.375), threshold=0.125, strictness=Strictness.INCLUSIVE
        )
        assert assign(one_patient(), inclusive).tolist() == [TARGET]

    def test_zero_benefit_selects_nobody(self):
        rule = SelectionRule(risk_fn=fixed_risk(0.30, 0.30), threshold=0.10)
        patients = cohort_of([make_post_record(rid=f"z-{i}") for i in range(5)])
        assert assign(patients, rule).tolist() == [STANDARD] * 5

    def test_permuting_records_permutes_labels(self, small_world):
        post = small_world.post
        rule = SelectionRule(risk_fn=make_true_risk_fn(small_world.config), threshold=0.10)
        labels = assign(post, rule)
        perm = np.random.default_rng(9).permutation(len(post))
        assert np.array_equal(assign(post.take(perm), rule), labels[perm])

    def test_raising_threshold_never_adds_target_labels(self, small_world):
        post = small_world.post
        risk = make_true_risk_fn(small_world.config)
        low = assign(post, SelectionRule(risk_fn=risk, threshold=0.08))
        high = assign(post, SelectionRule(risk_fn=risk, threshold=0.15))
        assert np.all(low[high == TARGET] == TARGET)

    def test_threshold_must_be_a_probability(self):
        with pytest.raises(ConfigurationError):
            SelectionRule(risk_fn=fixed_risk(0.5, 0.4), threshold=1.5)
