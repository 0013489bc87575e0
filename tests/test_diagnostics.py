import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from attlab.diagnostics import (
    OverlapVerdict,
    auroc,
    calibration_curve,
    curve_csv_bytes,
    dose_transport_check,
    negative_control_check,
    positivity_report,
    _tie_averaged_ranks,
)
from attlab.errors import AttlabError, ConfigurationError, EstimandError, UndefinedMetricError
from attlab.estimator import _group_means
from attlab.glm import ModelFit, ModelSpec, design_columns, fit_model, predict_risk
from attlab.records import DOSE_FIELDS, LOCATIONS, PlanSource, Treatment, TumorLocation
from attlab.rng import substream
from attlab.synth import DoseTruncation, GeneratorConfig, ViolationShift, generate

from conftest import as_treated, cohort_of, make_post_record, make_record
from records_oracle import records_of


def brute_force_auroc(predictions, outcomes):
    """Independent oracle: average pairwise win rate with ties at 0.5."""
    predictions = np.asarray(predictions, dtype=float)
    outcomes = np.asarray(outcomes)
    events = predictions[outcomes == 1]
    nonevents = predictions[outcomes == 0]
    total = 0.0
    for e in events:
        for ne in nonevents:
            total += 1.0 if e > ne else (0.5 if e == ne else 0.0)
    return total / (len(events) * len(nonevents))


def looped_tie_averaged_ranks(values):
    """The rank loop that the vectorized ranks replaced; kept as their reference."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    ranks = np.empty(values.shape[0], dtype=float)
    i = 0
    n = values.shape[0]
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestAuroc:
    def test_ranks_are_bit_identical_to_the_loop(self):
        rng = np.random.default_rng(5)
        for trial in range(300):
            n = int(rng.integers(1, 60))
            # Every third input draws from a few values, so ties are common.
            values = rng.choice(rng.random(4), size=n) if trial % 3 == 0 else rng.random(n)
            assert _tie_averaged_ranks(values).tobytes() == looped_tie_averaged_ranks(values).tobytes()
        assert _tie_averaged_ranks(np.array([0.3, 0.1, 0.3, 0.2, 0.1])).tolist() == [4.5, 1.5, 4.5, 3.0, 1.5]

    def test_perfect_ranking(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_three_point_example(self):
        # pairs: (0.4 vs 0.2) win, (0.4 vs 0.6) loss -> 0.5
        assert auroc([0.2, 0.4, 0.6], [0, 1, 0]) == 0.5

    def test_constant_predictions_are_half(self):
        assert auroc([0.3] * 10, [0, 1] * 5) == 0.5

    def test_single_class_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.2, 0.4], [1, 1])

    @pytest.mark.parametrize(
        "predictions, outcomes, needle",
        [
            (np.zeros(5), np.linspace(0, 1, 5), "outcomes must be 0 or 1"),
            ([np.nan, 0.2, 0.3, 0.4], [0, 1, 0, 1], "predictions must be finite"),
            ([0.1, 0.2, np.inf, 0.4], [0, 1, 0, 1], "predictions must be finite"),
            ([0.1, 0.2, 0.3], [0, 1], "differ or are not 1-d"),
        ],
        ids=["outcomes-not-binary", "nan-prediction", "infinite-prediction", "lengths-differ"],
    )
    def test_input_outside_the_contract_is_refused(self, predictions, outcomes, needle):
        with pytest.raises(ConfigurationError, match=needle):
            auroc(predictions, outcomes)

    def test_matches_brute_force_on_random_data_with_ties(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            preds = rng.choice([0.1, 0.2, 0.2, 0.5, 0.7, 0.7, 0.9], size=30)
            outcomes = rng.integers(0, 2, size=30)
            if outcomes.min() == outcomes.max():
                continue
            assert auroc(preds, outcomes) == pytest.approx(brute_force_auroc(preds, outcomes), abs=1e-12)

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(4)
        preds = rng.random(50)
        outcomes = rng.integers(0, 2, size=50)
        transformed = np.exp(3.0 * preds) / (1 + np.exp(3.0 * preds))
        assert auroc(preds, outcomes) == pytest.approx(auroc(transformed, outcomes), abs=1e-12)


class TestCalibrationCurve:
    def test_simulated_calibrated_model_tracks_the_diagonal(self):
        rng = np.random.default_rng(13)
        preds = rng.uniform(0.05, 0.95, size=10_000)
        outcomes = (rng.random(10_000) < preds).astype(float)
        curve = calibration_curve(preds, outcomes)
        assert len(curve) == 10
        assert sum(b.count for b in curve) == 10_000
        assert max(abs(b.mean_predicted - b.observed_rate) for b in curve) < 0.05

    def test_constant_predictions_collapse_to_one_bin(self):
        preds = [0.3] * 40
        outcomes = [1] * 12 + [0] * 28
        curve = calibration_curve(preds, outcomes)
        assert len(curve) == 1
        assert curve[0].mean_predicted == pytest.approx(0.3)
        assert curve[0].observed_rate == pytest.approx(0.3)
        assert curve[0].count == 40

    def test_perfect_binary_predictions(self):
        preds = [0.0] * 15 + [1.0] * 15
        outcomes = [0] * 15 + [1] * 15
        curve = calibration_curve(preds, outcomes)
        assert len(curve) == 2
        assert (curve[0].mean_predicted, curve[0].observed_rate) == (0.0, 0.0)
        assert (curve[1].mean_predicted, curve[1].observed_rate) == (1.0, 1.0)

    def test_too_few_observations(self):
        with pytest.raises(ConfigurationError, match="fewer bins"):
            calibration_curve([0.5] * 5, [0, 1, 0, 1, 0])

    @pytest.mark.parametrize(
        "predictions, outcomes, n_bins, needle",
        [
            ([0.1] * 20, [7] * 20, 10, "outcomes must be 0 or 1"),
            ([np.nan] * 20, [0, 1] * 10, 10, "predictions must be finite"),
            ([0.1] * 20, [0, 1] * 10, 0, "calibration_curve.n_bins must be a positive integer, got 0"),
            ([0.1] * 20, [0, 1] * 9, 10, "differ or are not 1-d"),
        ],
        ids=["outcomes-not-binary", "nan-predictions", "no-bins", "lengths-differ"],
    )
    def test_input_outside_the_contract_is_refused(self, predictions, outcomes, n_bins, needle):
        with pytest.raises(ConfigurationError, match=needle):
            calibration_curve(predictions, outcomes, n_bins=n_bins)

    def test_bin_counts_always_reconcile(self):
        rng = np.random.default_rng(2)
        preds = rng.random(103)
        outcomes = rng.integers(0, 2, size=103)
        curve = calibration_curve(preds, outcomes, n_bins=7)
        assert sum(b.count for b in curve) == 103


@st.composite
def _scored_samples(draw):
    """Predictions, outcomes and a bin count; each part is clean or may hold bad values, lengths may differ."""
    n = draw(st.integers(0, 200))
    m = draw(st.sampled_from([n, n, n, max(n - 1, 0), n + 1]))
    risks = st.floats(0.0, 1.0)
    if draw(st.booleans()):
        risks |= st.sampled_from([np.nan, np.inf, -np.inf])
    labels = st.sampled_from([0, 1])
    if draw(st.booleans()):
        labels |= st.sampled_from([-1, 2, 7, 0.5, np.nan])
    predictions = draw(st.lists(risks, min_size=n, max_size=n))
    outcomes = draw(st.lists(labels, min_size=m, max_size=m))
    return predictions, outcomes, draw(st.integers(-1, 12))


@given(sample=_scored_samples())
def test_scores_are_in_range_or_refused(sample):
    predictions, outcomes, n_bins = sample
    try:
        value = auroc(predictions, outcomes)
    except AttlabError:
        pass
    else:
        assert 0.0 <= value <= 1.0
    try:
        curve = calibration_curve(predictions, outcomes, n_bins=n_bins)
    except AttlabError:
        pass
    else:
        assert sum(b.count for b in curve) == len(predictions) == len(outcomes)
        for b in curve:
            assert 0.0 <= b.mean_predicted <= 1.0
            assert 0.0 <= b.observed_rate <= 1.0
            assert b.count >= 1


class TestPositivity:
    def test_identical_distribution_has_no_flags(self):
        pre = generate(GeneratorConfig(n_pre=750, n_post=50, seed=41)).pre
        other = as_treated(generate(GeneratorConfig(n_pre=93, n_post=50, seed=42)).pre)
        report = positivity_report(pre, other)
        assert report.verdict is OverlapVerdict.NO_FLAGS
        assert all(c.outside_fraction <= 0.05 for c in report.covariates)

    def test_missing_category_is_structural(self, small_world):
        pre = small_world.pre.take(small_world.pre.loc_code != LOCATIONS.index(TumorLocation.LARYNX))
        treated = cohort_of([make_post_record(rid="s-1", location=TumorLocation.LARYNX)])
        report = positivity_report(pre, treated)
        assert report.verdict is OverlapVerdict.STRUCTURAL_VIOLATION
        assert report.missing_categories == ("larynx",)

    def test_locations_missing_from_pre_are_all_named_in_value_order(self, small_world):
        absent = [LOCATIONS.index(TumorLocation.NASOPHARYNX), LOCATIONS.index(TumorLocation.LARYNX)]
        pre = small_world.pre.take(~np.isin(small_world.pre.loc_code, absent))
        treated = cohort_of([make_post_record(rid="s-1", location=TumorLocation.NASOPHARYNX),
                             make_post_record(rid="s-2", location=TumorLocation.LARYNX)])
        report = positivity_report(pre, treated)
        assert report.verdict is OverlapVerdict.STRUCTURAL_VIOLATION
        assert report.missing_categories == ("larynx", "nasopharynx")

    def test_a_location_present_only_in_pre_flags_nothing(self, small_world):
        assert set(small_world.pre.loc_code.tolist()) == set(range(len(LOCATIONS)))
        treated = cohort_of([make_post_record(rid="s-1", location=TumorLocation.OROPHARYNX)])
        report = positivity_report(small_world.pre, treated)
        assert report.missing_categories == ()
        assert report.verdict is not OverlapVerdict.STRUCTURAL_VIOLATION

    def test_a_treated_dysphagia_level_absent_from_pre_is_structural(self, small_world):
        pre = small_world.pre.take(small_world.pre.dysphagia == 0)
        treated = cohort_of([make_post_record(rid="s-1", dysphagia=1)])
        report = positivity_report(pre, treated)
        assert report.verdict is OverlapVerdict.STRUCTURAL_VIOLATION
        assert report.missing_categories == ()

    def test_truncated_pre_support_is_flagged(self):
        shift = ViolationShift(support_truncation=DoseTruncation("dose_sup_pcm", 50.0))
        world = generate(GeneratorConfig(seed=6, shift=shift))
        report = positivity_report(world.pre, world.post.treated())
        by_name = {c.name: c for c in report.covariates}
        assert by_name["dose_sup_pcm"].outside_fraction > 0.0
        assert report.verdict in (OverlapVerdict.STOCHASTIC_CONCERN, OverlapVerdict.STRUCTURAL_VIOLATION)

    def test_large_smd_triggers_concern(self, small_world):
        treated = small_world.post.treated()
        treated = dataclasses.replace(treated, dysphagia=np.ones_like(treated.dysphagia))
        report = positivity_report(small_world.pre, treated)
        assert report.verdict is OverlapVerdict.STOCHASTIC_CONCERN

    def test_adding_pre_records_never_upgrades_no_flags_to_violation(self):
        pre = generate(GeneratorConfig(n_pre=400, n_post=50, seed=51)).pre
        extra = generate(GeneratorConfig(n_pre=350, n_post=50, seed=52)).pre
        treated_pool = as_treated(generate(GeneratorConfig(n_pre=90, n_post=50, seed=53)).pre)
        base = positivity_report(pre, treated_pool)
        grown = cohort_of(records_of(pre) + records_of(extra))
        after = positivity_report(grown, treated_pool)
        if base.verdict is OverlapVerdict.NO_FLAGS:
            assert after.verdict is not OverlapVerdict.STRUCTURAL_VIOLATION
        before_frac = {c.name: c.outside_fraction for c in base.covariates}
        for c in after.covariates:
            assert c.outside_fraction <= before_frac[c.name]

    def test_empty_groups_rejected(self, small_world):
        with pytest.raises(ConfigurationError):
            positivity_report(small_world.pre, cohort_of([]))

    @staticmethod
    def sup_dose_overlap(pre_doses, treated_doses):
        """The report for groups that differ only in their ``dose_sup_pcm``."""
        pre = cohort_of([make_record(rid=f"p-{i}", photon=(d, 50.0, 40.0, 42.0)) for i, d in enumerate(pre_doses)])
        treated = cohort_of([make_post_record(rid=f"t-{i}", photon=(d, 50.0, 40.0, 42.0))
                             for i, d in enumerate(treated_doses)])
        return positivity_report(pre, treated)

    @pytest.mark.parametrize("smd, verdict", [(0.45, OverlapVerdict.NO_FLAGS),
                                              (0.55, OverlapVerdict.STOCHASTIC_CONCERN)])
    def test_an_smd_is_flagged_beyond_one_half(self, smd, verdict):
        # Pre doses 40 and 60 Gy; every treated dose at one point inside
        # that range, so only the SMD can flag.
        pre = [40.0, 60.0] * 50
        shift = round(smd * float(np.sqrt(np.var(pre, ddof=1) / 2.0)), 4)
        report = self.sup_dose_overlap(pre, [50.0 + shift] * 20)
        sup = report.covariates[1]
        assert (sup.name, sup.outside_fraction) == ("dose_sup_pcm", 0.0)
        assert sup.smd == pytest.approx(smd, abs=1e-4)
        assert report.verdict is verdict

    def test_an_smd_of_exactly_one_half_is_not_flagged(self):
        # Pre doses 40, 41, 45 (mean 42, variance 7) and treated doses 42, 43,
        # 44 (mean 43, variance 1): the SMD is 1 / sqrt((7 + 1) / 2) = 0.5
        # exactly, and every treated dose lies inside the pre range.
        report = self.sup_dose_overlap([40.0, 41.0, 45.0], [42.0, 43.0, 44.0])
        sup = report.covariates[1]
        assert (sup.name, sup.outside_fraction, sup.smd) == ("dose_sup_pcm", 0.0, 0.5)
        assert report.verdict is OverlapVerdict.NO_FLAGS

    @pytest.mark.parametrize("n_outside, verdict", [(4, OverlapVerdict.NO_FLAGS), (5, OverlapVerdict.NO_FLAGS),
                                                    (7, OverlapVerdict.STOCHASTIC_CONCERN)])
    def test_an_outside_fraction_is_flagged_beyond_five_percent(self, n_outside, verdict):
        report = self.sup_dose_overlap([40.0, 60.0] * 50, [61.0] * n_outside + [50.0] * (100 - n_outside))
        sup = report.covariates[1]
        assert sup.outside_fraction == n_outside / 100
        assert abs(sup.smd) < 0.2
        assert report.verdict is verdict


def per_covariate_overlap(pre, treated):
    """For two cohorts: the per-covariate loop that the stacked positivity report replaced; kept as its reference."""
    def smd(t, r):
        v_t = float(np.var(t, ddof=1)) if t.shape[0] > 1 else 0.0
        v_r = float(np.var(r, ddof=1)) if r.shape[0] > 1 else 0.0
        pooled = np.sqrt((v_t + v_r) / 2.0)
        if pooled == 0.0 or not np.isfinite(pooled):
            return 0.0
        return float((np.mean(t) - np.mean(r)) / pooled)

    pairs = [(pre.dysphagia.astype(float), treated.dysphagia.astype(float))]
    pairs += list(zip(np.ascontiguousarray(pre.photon.T), np.ascontiguousarray(treated.photon.T)))
    return [
        (float(r.min()), float(r.max()), float(t.min()), float(t.max()),
         float(np.mean((t < r.min()) | (t > r.max()))), smd(t, r))
        for r, t in pairs
    ]


class TestStackedReferences:
    @pytest.mark.parametrize("seed, shift", [
        (6, ViolationShift()),
        (7, ViolationShift(secular_dose_drift=3.0, support_truncation=DoseTruncation("dose_sup_pcm", 55.0))),
    ])
    def test_positivity_is_bit_identical_to_the_covariate_loop(self, seed, shift):
        world = generate(GeneratorConfig(seed=seed, shift=shift))
        treated = world.post.treated()
        for group in (treated, treated.take(np.arange(1))):
            report = positivity_report(world.pre, group)
            assert [c.name for c in report.covariates] == ["baseline_dysphagia", *DOSE_FIELDS]
            got = [(*c.pre_range, *c.post_treated_range, c.outside_fraction, c.smd) for c in report.covariates]
            assert got == per_covariate_overlap(world.pre, group)

    def test_calibration_interval_is_bit_identical_to_the_replicate_loop(self, small_world, small_fit):
        standard = small_world.post.standard()
        report = negative_control_check(standard, small_fit, n_replicates=300, seed=8)
        predictions = predict_risk(small_fit, standard)
        outcomes = standard.outcome.astype(float)
        n = len(outcomes)
        diffs = []
        for r in range(300):
            idx = substream(8, r).integers(0, n, n)
            diffs.append(float(np.mean(outcomes[idx]) - np.mean(predictions[idx])))
        assert (report.ci_low, report.ci_high) == tuple(np.percentile(diffs, [2.5, 97.5]))


def constant_fit():
    spec = ModelSpec()
    return ModelFit(
        spec=spec,
        column_names=tuple(design_columns(spec)),
        beta_hat=np.zeros(9),
        cov_hat=np.eye(9),
        n_obs=10,
        deviance=0.0,
        converged=True,
        n_iter=1,
    )


class TestNegativeControl:
    def test_each_check_reports_its_groups_means_under_its_plan(self, small_world, small_fit):
        standard, treated = small_world.post.standard(), small_world.post.treated()
        for check, group, plan in ((negative_control_check, standard, PlanSource.PHOTON),
                                   (dose_transport_check, treated, PlanSource.PROTON)):
            report = check(group, small_fit, n_replicates=100, seed=1)
            observed, predicted, predictions = _group_means(small_fit, group, plan)
            assert (report.n, report.mean_observed, report.mean_predicted) == (len(group), observed, predicted)
            assert report.mean_difference == observed - predicted
            assert report.curve == calibration_curve(predictions, group.outcome)

    def test_mean_difference_matches_direct_computation(self, small_world, small_fit):
        standard = small_world.post.standard()
        report = negative_control_check(standard, small_fit, n_replicates=150, seed=3)
        direct = float(np.mean(standard.outcome) - np.mean(predict_risk(small_fit, standard)))
        assert report.mean_difference == pytest.approx(direct, abs=1e-15)
        assert report.n == len(standard)
        assert report.ci_low <= report.mean_difference <= report.ci_high

    def test_zero_difference_when_predictions_match_rate(self):
        from test_estimator import intercept_fit

        records = [
            make_post_record(rid=f"n-{i}", treatment=Treatment.STANDARD, outcome=1 if i < 3 else 0)
            for i in range(10)
        ]
        standard = cohort_of(records)
        report = negative_control_check(standard, intercept_fit(0.3), n_replicates=150, seed=1)
        assert report.mean_difference == pytest.approx(0.0, abs=1e-12)

    def test_drift_world_shows_overestimation(self):
        world = generate(GeneratorConfig(seed=19, shift=ViolationShift(secular_dose_drift=5.0)))
        fit = fit_model(world.pre)
        standard = world.post.standard()
        report = negative_control_check(standard, fit, n_replicates=150, seed=2)
        assert report.mean_difference < 0.0

    def test_requires_post_standard_records(self, small_world, small_fit):
        with pytest.raises(EstimandError):
            negative_control_check(cohort_of([]), small_fit)
        with pytest.raises(ConfigurationError):
            negative_control_check(small_world.post.treated(), small_fit)


class TestDoseTransport:
    def test_constant_model_predicts_half(self, small_world):
        treated = small_world.post.treated()
        report = dose_transport_check(treated, constant_fit(), n_replicates=150, seed=4)
        assert report.mean_predicted == pytest.approx(0.5, abs=1e-12)
        assert report.auroc == 0.5

    def test_shared_dose_response_calibrates_on_treated(self):
        # The true mechanism depends only on delivered dose, so proton-plan
        # predictions should be mean-calibrated on the treated group.
        diffs = []
        for seed in range(30):
            world = generate(GeneratorConfig(seed=seed))
            fit = fit_model(world.pre)
            report = dose_transport_check(world.post.treated(), fit, n_replicates=100, seed=seed)
            diffs.append(report.mean_difference)
        assert abs(np.mean(diffs)) < 0.02

    def test_missing_proton_plans_raise(self, small_fit):
        with pytest.raises(Exception):
            dose_transport_check(cohort_of([make_record()]), small_fit)


def test_curve_csv_round_trips(small_world, small_fit):
    report = negative_control_check(small_world.post.standard(), small_fit, n_replicates=120, seed=9)
    lines = curve_csv_bytes(report).decode("utf-8").splitlines()
    assert lines[0] == "bin_mean_pred,bin_obs_rate,count"
    assert len(lines) == 1 + len(report.curve)
    first = lines[1].split(",")
    assert float(first[0]) == report.curve[0].mean_predicted
