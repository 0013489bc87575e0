import dataclasses

import numpy as np
import pytest

from attlab.errors import (
    ConfigurationError,
    EstimandError,
    NotConvergedError,
    StatisticalError,
    UnstableBootstrapError,
)
from attlab.estimator import (
    BootstrapConfig,
    BootstrapMode,
    EffectScale,
    IntervalMethod,
    bootstrap_ci,
    estimate_att,
    sensitivity_analysis,
)
from attlab.glm import NAMED_SPECS, ModelFit, ModelSpec, build_design, fit_logistic, fit_model, predict_design
from attlab.records import CohortLabel, Treatment
from attlab.rng import CHUNK_BYTES, resample_chunks, resampled_means, substream
from attlab.synth import GeneratorConfig, generate

from conftest import cohort_of, make_post_record

LOGIT = lambda p: float(np.log(p / (1 - p)))

# The development cohort of a bootstrap that is given its fit and never refits.
NO_PRE = cohort_of([])


def treated_of(records):
    return cohort_of(records, CohortLabel.POST_INTRODUCTION)


def intercept_fit(p):
    spec = ModelSpec(terms=("intercept",))
    return ModelFit(
        spec=spec,
        column_names=("intercept",),
        beta_hat=np.array([LOGIT(p)]),
        cov_hat=np.eye(1),
        n_obs=100,
        deviance=0.0,
        converged=True,
        n_iter=1,
    )


class TestEstimateAtt:
    def test_outcomes_matching_predictions_give_null_effect(self):
        fit = intercept_fit(0.25)
        treated = treated_of([make_post_record(rid=f"t-{i}", outcome=1 if i == 0 else 0) for i in range(4)])
        assert estimate_att(treated, fit, EffectScale.RISK_DIFFERENCE) == pytest.approx(0.0, abs=1e-12)
        assert estimate_att(treated, fit, EffectScale.RISK_RATIO) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_outcomes_quarter_predictions(self):
        fit = intercept_fit(0.25)
        treated = treated_of([make_post_record(rid=f"t-{i}", outcome=0) for i in range(8)])
        assert estimate_att(treated, fit, EffectScale.RISK_DIFFERENCE) == pytest.approx(-0.25, abs=1e-12)

    def test_empty_input_is_an_error(self):
        with pytest.raises(EstimandError):
            estimate_att(treated_of([]), intercept_fit(0.2), EffectScale.RISK_DIFFERENCE)

    def test_standard_treated_records_are_rejected(self):
        treated = treated_of([make_post_record(treatment=Treatment.STANDARD)])
        with pytest.raises(EstimandError):
            estimate_att(treated, intercept_fit(0.2), EffectScale.RISK_DIFFERENCE)

    def test_odds_ratio_undefined_at_degenerate_event_rate(self):
        treated = treated_of([make_post_record(rid=f"t-{i}", outcome=1) for i in range(4)])
        with pytest.raises(EstimandError):
            estimate_att(treated, intercept_fit(0.2), EffectScale.ODDS_RATIO)

    def test_depends_only_on_the_two_means(self):
        fit = intercept_fit(0.25)
        a = treated_of([make_post_record(rid=f"a-{i}", outcome=1 if i < 2 else 0) for i in range(8)])
        b = treated_of([make_post_record(rid=f"b-{i}", outcome=1 if i % 4 == 0 else 0) for i in range(8)])
        for scale in EffectScale:
            assert estimate_att(a, fit, scale) == estimate_att(b, fit, scale)

    def test_duplicated_dataset_gives_identical_rd(self, small_world, small_fit):
        treated = small_world.post.treated()
        doubled = treated_of(
            [r for rec in treated.records for r in (rec, dataclasses.replace(rec, id=rec.id + "-dup"))]
        )
        rd = estimate_att(treated, small_fit, EffectScale.RISK_DIFFERENCE)
        rd2 = estimate_att(doubled, small_fit, EffectScale.RISK_DIFFERENCE)
        assert rd == rd2

    def test_recovers_truth_on_average(self):
        biases = []
        for seed in range(40):
            world = generate(GeneratorConfig(seed=seed))
            fit = fit_model(world.pre)
            est = estimate_att(world.post.treated(), fit, EffectScale.RISK_DIFFERENCE)
            biases.append(est - world.true_att_rd)
        assert abs(np.mean(biases)) < 0.02


class TestBootstrap:
    def test_same_seed_gives_identical_intervals(self, small_world):
        treated = small_world.post.treated()
        config = BootstrapConfig(n_replicates=200, seed=123, mode=BootstrapMode.FULL)
        (a,) = bootstrap_ci(small_world.pre, treated, ModelSpec(), (EffectScale.RISK_DIFFERENCE,), config)
        (b,) = bootstrap_ci(small_world.pre, treated, ModelSpec(), (EffectScale.RISK_DIFFERENCE,), config)
        assert (a.ci_low, a.ci_high, a.point) == (b.ci_low, b.ci_high, b.point)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            BootstrapConfig(n_replicates=200, seed=-1)

    def test_degenerate_resamples_give_zero_width_interval(self):
        fit = intercept_fit(0.25)
        treated = treated_of([make_post_record(rid=f"s-{i}", outcome=0) for i in range(30)])
        config = BootstrapConfig(n_replicates=150, seed=5, mode=BootstrapMode.FIXED_MODEL)
        (est,) = bootstrap_ci(NO_PRE, treated, ModelSpec(terms=("intercept",)), (EffectScale.RISK_DIFFERENCE,),
                              config, fit=fit)
        assert est.ci_low == est.ci_high == est.point == pytest.approx(-0.25, abs=1e-12)

    def test_point_estimate_matches_estimate_att(self, small_world, small_fit):
        treated = small_world.post.treated()
        config = BootstrapConfig(n_replicates=150, seed=7, mode=BootstrapMode.FIXED_MODEL)
        (est,) = bootstrap_ci(
            small_world.pre, treated, ModelSpec(), (EffectScale.RISK_DIFFERENCE,), config, fit=small_fit
        )
        assert est.point == pytest.approx(
            estimate_att(treated, small_fit, EffectScale.RISK_DIFFERENCE), abs=1e-12
        )
        assert est.ci_low <= est.point <= est.ci_high
        assert est.n_treated == len(treated)

    def test_interval_width_shrinks_with_sample_size(self):
        # FixedModel width on 4n treated records is below the width on n,
        # averaged over seeds.
        rng = np.random.default_rng(0)
        treated = generate(GeneratorConfig(n_pre=60, n_post=600, seed=31)).post.treated()
        fit = intercept_fit(0.3)
        n = len(treated) // 4
        widths_small, widths_big = [], []
        for seed in range(100):
            small = treated.take(rng.choice(len(treated), n, replace=False))
            config = BootstrapConfig(n_replicates=200, seed=seed, mode=BootstrapMode.FIXED_MODEL)
            (e_small,) = bootstrap_ci(NO_PRE, small, ModelSpec(terms=("intercept",)),
                                      (EffectScale.RISK_DIFFERENCE,), config, fit=fit)
            (e_big,) = bootstrap_ci(NO_PRE, treated, ModelSpec(terms=("intercept",)),
                                    (EffectScale.RISK_DIFFERENCE,), config, fit=fit)
            widths_small.append(e_small.ci_high - e_small.ci_low)
            widths_big.append(e_big.ci_high - e_big.ci_low)
        assert np.mean(widths_big) < np.mean(widths_small)

    def test_normal_interval_is_symmetric_about_the_point(self, small_world, small_fit):
        treated = small_world.post.treated()
        config = BootstrapConfig(
            n_replicates=200, seed=11, mode=BootstrapMode.FIXED_MODEL, interval=IntervalMethod.NORMAL
        )
        (est,) = bootstrap_ci(
            small_world.pre, treated, ModelSpec(), (EffectScale.RISK_DIFFERENCE,), config, fit=small_fit
        )
        assert est.ci_high - est.point == pytest.approx(est.point - est.ci_low, abs=1e-12)

    def test_too_many_failed_replicates_raise(self):
        # Odds-ratio replicates on 3 records often resample a degenerate
        # all-events outcome vector, so the failure budget is blown.
        fit = intercept_fit(0.5)
        treated = treated_of([
            make_post_record(rid="u-1", outcome=1),
            make_post_record(rid="u-2", outcome=1),
            make_post_record(rid="u-3", outcome=0),
        ])
        config = BootstrapConfig(n_replicates=300, seed=2, mode=BootstrapMode.FIXED_MODEL)
        with pytest.raises(UnstableBootstrapError):
            bootstrap_ci(NO_PRE, treated, ModelSpec(terms=("intercept",)), (EffectScale.ODDS_RATIO,),
                         config, fit=fit)

    def test_replicate_count_floor(self):
        with pytest.raises(ConfigurationError):
            BootstrapConfig(n_replicates=50)

    def test_non_converged_fit_is_refused(self, small_world):
        pre = small_world.pre
        X, names = build_design(pre, ModelSpec())
        y = np.array([r.outcome for r in pre.records], dtype=float)
        fit = fit_logistic(X, y, column_names=names, spec=ModelSpec(), max_iter=1)
        assert not fit.converged
        config = BootstrapConfig(n_replicates=100, seed=3, mode=BootstrapMode.FIXED_MODEL)
        with pytest.raises(NotConvergedError):
            bootstrap_ci(pre, small_world.post.treated(), ModelSpec(), (EffectScale.RISK_DIFFERENCE,),
                         config, fit=fit)

    def test_no_scale_is_a_configuration_error(self):
        config = BootstrapConfig(n_replicates=100, seed=3, mode=BootstrapMode.FIXED_MODEL)
        with pytest.raises(ConfigurationError):
            bootstrap_ci(NO_PRE, treated_of([make_post_record()]), ModelSpec(terms=("intercept",)), (), config,
                         fit=intercept_fit(0.3))

    @pytest.mark.parametrize("mode", list(BootstrapMode))
    def test_each_scale_matches_its_single_scale_run(self, small_world, small_fit, mode):
        treated = small_world.post.treated()
        config = BootstrapConfig(n_replicates=100, seed=17, mode=mode)
        together = bootstrap_ci(small_world.pre, treated, ModelSpec(), list(EffectScale), config,
                                fit=small_fit)
        assert [e.scale for e in together] == list(EffectScale)
        for estimate in together:
            (alone,) = bootstrap_ci(small_world.pre, treated, ModelSpec(), (estimate.scale,), config,
                                    fit=small_fit)
            assert estimate == alone

    @pytest.mark.parametrize("mode", list(BootstrapMode))
    # Refits that fail: collinear in the first world, separated in the second,
    # collinear and not converged in the third.
    @pytest.mark.parametrize("n_pre, seed, spec_name", [
        (80, 2, "quadratic"), (300, 1, "interactions"), (300, 20240801, "interactions"),
    ])
    def test_replicates_equal_a_loop_of_single_refits(self, mode, n_pre, seed, spec_name):
        world = generate(GeneratorConfig(seed=seed, n_pre=n_pre, n_post=80))
        spec, treated = NAMED_SPECS[spec_name], world.post.treated()
        config = BootstrapConfig(n_replicates=100, seed=4, mode=mode)
        (estimate,) = bootstrap_ci(world.pre, treated, spec, (EffectScale.RISK_DIFFERENCE,), config)

        X_pre, names = build_design(world.pre, spec)
        y_pre = world.pre.outcome.astype(float)
        X_post, _ = build_design(treated, spec)
        y_post = treated.outcome.astype(float)
        fit = fit_logistic(X_pre, y_pre, column_names=names)
        predictions = predict_design(fit.beta_hat, X_post)
        n_pre, n_treated = len(y_pre), len(y_post)
        points = []
        for r in range(config.n_replicates):
            rng = substream(config.seed, r)
            if mode is BootstrapMode.FULL:
                idx_pre, idx_post = rng.integers(0, n_pre, n_pre), rng.integers(0, n_treated, n_treated)
                try:
                    refit = fit_logistic(X_pre[idx_pre], y_pre[idx_pre], column_names=names)
                except StatisticalError:
                    continue
                if not refit.converged:
                    continue
                preds = predict_design(refit.beta_hat, X_post[idx_post])
            else:
                idx_post = rng.integers(0, n_treated, n_treated)
                preds = predictions[idx_post]
            points.append(float(np.mean(y_post[idx_post])) - float(np.mean(preds)))
        assert estimate.n_failed_replicates == config.n_replicates - len(points)
        assert (estimate.ci_low, estimate.ci_high) == tuple(np.percentile(points, [2.5, 97.5]))
        if mode is BootstrapMode.FULL:
            assert estimate.n_failed_replicates > 0

    @pytest.mark.parametrize("row_bytes", [1, 8 * 37, 10**9])
    def test_resample_chunks_hold_the_substream_draws_in_order(self, row_bytes):
        chunks = list(resample_chunks(9, 23, (37, 5), row_bytes))
        pre = np.concatenate([chunk[0] for chunk in chunks])
        post = np.concatenate([chunk[1] for chunk in chunks])
        for r in range(23):
            rng = substream(9, r)
            assert np.array_equal(pre[r], rng.integers(0, 37, 37))
            assert np.array_equal(post[r], rng.integers(0, 5, 5))
        per_chunk = max(1, CHUNK_BYTES // row_bytes)
        assert [len(chunk[0]) for chunk in chunks] == [min(per_chunk, 23 - s) for s in range(0, 23, per_chunk)]

    def test_full_bootstrap_does_not_depend_on_the_chunk_size(self, small_world, monkeypatch):
        import attlab.rng

        config = BootstrapConfig(n_replicates=150, seed=6)
        treated = small_world.post.treated()
        estimates = []
        for chunk_bytes in (1 << 16, 1 << 20):  # chunks of 3, and of 48 with a short last one
            monkeypatch.setattr(attlab.rng, "CHUNK_BYTES", chunk_bytes)
            estimates.append(bootstrap_ci(small_world.pre, treated, ModelSpec(), tuple(EffectScale), config))
        assert estimates[0] == estimates[1]

    def test_resampled_means_are_the_substream_resample_means(self):
        rng = np.random.default_rng(2)
        y, p = rng.integers(0, 2, 9000).astype(float), rng.random(9000)
        observed, predicted = resampled_means(3, 20, y, p)  # 9000 rows: chunks of 7 replicates
        for r in range(20):
            idx = substream(3, r).integers(0, 9000, 9000)
            assert (observed[r], predicted[r]) == (np.mean(y[idx]), np.mean(p[idx]))

    def test_undefined_effect_fails_a_replicate_on_its_scale_only(self):
        # 36 events in 40 records: about 1.5% of resamples are all events,
        # where the odds ratio is undefined but the risk difference is not.
        fit = intercept_fit(0.5)
        treated = treated_of([make_post_record(rid=f"v-{i}", outcome=1 if i < 36 else 0) for i in range(40)])
        config = BootstrapConfig(n_replicates=400, seed=4, mode=BootstrapMode.FIXED_MODEL)
        rd, or_ = bootstrap_ci(NO_PRE, treated, ModelSpec(terms=("intercept",)),
                               (EffectScale.RISK_DIFFERENCE, EffectScale.ODDS_RATIO), config, fit=fit)
        assert rd.n_failed_replicates == 0
        assert 0 < or_.n_failed_replicates <= 0.05 * config.n_replicates

    def test_first_scale_over_budget_raises(self):
        fit = intercept_fit(0.5)
        treated = treated_of([
            make_post_record(rid="u-1", outcome=1),
            make_post_record(rid="u-2", outcome=1),
            make_post_record(rid="u-3", outcome=0),
        ])
        config = BootstrapConfig(n_replicates=300, seed=2, mode=BootstrapMode.FIXED_MODEL)
        with pytest.raises(UnstableBootstrapError):
            bootstrap_ci(NO_PRE, treated, ModelSpec(terms=("intercept",)),
                         (EffectScale.RISK_DIFFERENCE, EffectScale.ODDS_RATIO), config, fit=fit)


class TestSensitivity:
    def test_duplicate_spec_gives_zero_spread(self, small_world):
        result = sensitivity_analysis(
            small_world.pre,
            small_world.post.treated(),
            [("a", ModelSpec()), ("b", ModelSpec())],
            EffectScale.RISK_DIFFERENCE,
        )
        assert result.max_spread == 0.0
        assert result.rows[0].estimate.point == result.rows[1].estimate.point

    @pytest.mark.slow
    def test_linear_vs_quadratic_close_on_linear_truth(self):
        # Data generated without the quadratic term: both specs nest the
        # truth, so their estimates agree closely on average.
        spreads = []
        for seed in range(200):
            world = generate(GeneratorConfig(seed=seed))
            result = sensitivity_analysis(
                world.pre,
                world.post.treated(),
                [("linear", ModelSpec()), ("quadratic", ModelSpec.with_quadratic_doses())],
                EffectScale.RISK_DIFFERENCE,
            )
            spreads.append(result.max_spread)
        assert np.mean(spreads) < 0.02

    def test_needs_two_variants(self, small_world):
        with pytest.raises(ConfigurationError):
            sensitivity_analysis(
                small_world.pre,
                small_world.post.treated(),
                [("only", ModelSpec())],
                EffectScale.RISK_DIFFERENCE,
            )

    def test_variant_failure_is_recorded_not_raised(self, small_world):
        # A spec restricted to a single location category yields a rank-
        # deficient design on full data: empty one-hot block plus intercept.
        from attlab.records import TumorLocation

        broken = ModelSpec(locations=(TumorLocation.OROPHARYNX,))
        usable = ModelSpec()
        treated = small_world.post.treated()
        result = sensitivity_analysis(
            small_world.pre,
            treated,
            [("ok", usable), ("broken", broken)],
            EffectScale.RISK_DIFFERENCE,
        )
        by_label = {row.label: row for row in result.rows}
        assert by_label["ok"].estimate is not None
        assert by_label["broken"].estimate is None
        assert by_label["broken"].error