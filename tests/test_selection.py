import numpy as np
import pytest

from attlab.errors import ConfigurationError, MissingPlanError
from attlab.records import Treatment
from attlab.selection import SelectionRule, Strictness, assign, benefit
from attlab.synth import GeneratorConfig, make_true_risk_fn

from conftest import make_post_record, make_record


def fixed_risk(photon_risk, proton_risk):
    def risk(record, plan):
        return photon_risk if plan is record.photon_doses else proton_risk

    return risk


class TestBenefit:
    def test_identical_plans_give_zero(self):
        rec = make_post_record(photon=(50.0, 45.0, 40.0, 42.0), proton=(50.0, 45.0, 40.0, 42.0))
        risk = make_true_risk_fn(GeneratorConfig())
        assert benefit(rec, risk) == 0.0

    def test_arithmetic(self):
        rec = make_post_record()
        assert benefit(rec, fixed_risk(0.50, 0.35)) == pytest.approx(0.15)

    def test_missing_proton_plan_raises(self):
        with pytest.raises(MissingPlanError):
            benefit(make_record(), fixed_risk(0.5, 0.4))

    def test_monotone_risk_and_componentwise_lower_plan_gives_nonnegative_benefit(self):
        # Derived check: under a risk function monotone increasing in every
        # dose, proton <= photon componentwise implies benefit >= 0.
        risk = make_true_risk_fn(GeneratorConfig())
        rng = np.random.default_rng(5)
        for i in range(50):
            photon = rng.uniform(20.0, 70.0, size=4)
            proton = photon * rng.uniform(0.5, 1.0, size=4)
            rec = make_post_record(rid=f"m-{i}", photon=tuple(photon), proton=tuple(proton))
            assert benefit(rec, risk) >= 0.0


class TestAssign:
    def test_above_threshold_selects(self):
        rule = SelectionRule(risk_fn=fixed_risk(0.50, 0.35), threshold=0.10)
        assert assign([make_post_record()], rule) == [Treatment.TARGET]

    def test_boundary_is_strict_by_default(self):
        # Dyadic risks make the benefit land exactly on the threshold.
        rule = SelectionRule(risk_fn=fixed_risk(0.500, 0.375), threshold=0.125)
        assert assign([make_post_record()], rule) == [Treatment.STANDARD]
        inclusive = SelectionRule(
            risk_fn=fixed_risk(0.500, 0.375), threshold=0.125, strictness=Strictness.INCLUSIVE
        )
        assert assign([make_post_record()], inclusive) == [Treatment.TARGET]

    def test_zero_benefit_selects_nobody(self):
        rule = SelectionRule(risk_fn=fixed_risk(0.30, 0.30), threshold=0.10)
        records = [make_post_record(rid=f"z-{i}") for i in range(5)]
        assert assign(records, rule) == [Treatment.STANDARD] * 5

    def test_permuting_records_permutes_labels(self, small_world):
        records = list(small_world.post.records)
        rule = SelectionRule(risk_fn=make_true_risk_fn(small_world.config), threshold=0.10)
        labels = assign(records, rule)
        perm = np.random.default_rng(9).permutation(len(records))
        permuted_labels = assign([records[i] for i in perm], rule)
        assert permuted_labels == [labels[i] for i in perm]

    def test_raising_threshold_never_adds_target_labels(self, small_world):
        records = list(small_world.post.records)
        risk = make_true_risk_fn(small_world.config)
        low = assign(records, SelectionRule(risk_fn=risk, threshold=0.08))
        high = assign(records, SelectionRule(risk_fn=risk, threshold=0.15))
        for lo, hi in zip(low, high):
            if hi is Treatment.TARGET:
                assert lo is Treatment.TARGET

    def test_threshold_must_be_a_probability(self):
        with pytest.raises(ConfigurationError):
            SelectionRule(risk_fn=fixed_risk(0.5, 0.4), threshold=1.5)

