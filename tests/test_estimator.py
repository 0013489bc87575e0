import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import attlab.glm
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
    att_from_means,
    bootstrap_ci,
    estimate_att,
    odds,
    sensitivity_analysis,
)
from attlab.glm import NAMED_SPECS, ModelFit, ModelSpec, build_design, fit_logistic, fit_model, predict_design
from attlab.records import LOCATIONS, Treatment, TumorLocation
from attlab.rng import CHUNK_BYTES, initial_states, items_per_chunk, resample_chunks, resampled_means, substream
from attlab.synth import GeneratorConfig, generate, true_att

from conftest import cohort_of, make_post_record, make_record, set_usable_cpus
from records_oracle import records_of

LOGIT = lambda p: float(np.log(p / (1 - p)))

# The development cohort of a bootstrap that is given its fit and never refits.
NO_PRE = cohort_of([])

# The cheap interval of a sensitivity analysis: its point estimate is the fitted model's.
FIXED = BootstrapConfig(n_replicates=100, seed=0, mode=BootstrapMode.FIXED_MODEL)


def treated_of(records):
    return cohort_of(records)


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
        with pytest.raises(EstimandError) as refusal:
            estimate_att(treated_of([]), intercept_fit(0.2), EffectScale.RISK_DIFFERENCE)
        assert str(refusal.value) == "no treated patients: the ATT is undefined on an empty sample"

    def test_standard_treated_records_are_rejected(self):
        treated = treated_of([make_post_record(treatment=Treatment.STANDARD)])
        with pytest.raises(ConfigurationError, match=r"treated patients .*offending ids: q-1$"):
            estimate_att(treated, intercept_fit(0.2), EffectScale.RISK_DIFFERENCE)

    def test_odds_ratio_undefined_at_degenerate_event_rate(self):
        treated = treated_of([make_post_record(rid=f"t-{i}", outcome=1) for i in range(4)])
        with pytest.raises(EstimandError):
            estimate_att(treated, intercept_fit(0.2), EffectScale.ODDS_RATIO)

    @pytest.mark.parametrize("observed, predicted, scale, message", [
        (0.3, 0.0, EffectScale.RISK_RATIO, "risk ratio undefined: mean predicted risk is 0"),
        (0.0, 0.3, EffectScale.ODDS_RATIO, "odds ratio undefined: observed event rate is 0.0"),
        (1.0, 0.3, EffectScale.ODDS_RATIO, "odds ratio undefined: observed event rate is 1.0"),
    ])
    def test_an_undefined_effect_names_its_cause(self, observed, predicted, scale, message):
        with pytest.raises(EstimandError) as refusal:
            att_from_means(observed, predicted, scale)
        assert str(refusal.value) == message

    def test_only_the_degenerate_means_are_undefined(self):
        # A predicted mean of 1 still gives a risk ratio; the odds of 1 are undefined by name.
        assert att_from_means(0.5, 1.0, EffectScale.RISK_RATIO) == 0.5
        assert att_from_means(0.5, 0.25, EffectScale.ODDS_RATIO) == 3.0
        with pytest.raises(EstimandError) as refusal:
            odds(1.0)
        assert str(refusal.value) == "odds undefined at probability 1.0"

    def test_depends_only_on_the_two_means(self):
        fit = intercept_fit(0.25)
        a = treated_of([make_post_record(rid=f"a-{i}", outcome=1 if i < 2 else 0) for i in range(8)])
        b = treated_of([make_post_record(rid=f"b-{i}", outcome=1 if i % 4 == 0 else 0) for i in range(8)])
        for scale in EffectScale:
            assert estimate_att(a, fit, scale) == estimate_att(b, fit, scale)

    def test_duplicated_dataset_gives_identical_rd(self, small_world, small_fit):
        """A doubled treated group gives the same risk difference, compared exactly.

        Exact equality holds in real arithmetic. In floating point it holds
        only under the kernel where it was recorded (numpy's AVX-512 dispatch,
        OpenBLAS's SkylakeX): under OpenBLAS's Haswell kernel the two differ
        in the last digit.
        """
        treated = small_world.post.treated()
        doubled = treated_of(
            [r for rec in records_of(treated) for r in (rec, dataclasses.replace(rec, id=rec.id + "-dup"))]
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
            biases.append(est - true_att(world, EffectScale.RISK_DIFFERENCE))
        assert abs(np.mean(biases)) < 0.02


class TestBootstrap:
    def test_same_seed_gives_identical_intervals(self, small_world, small_fit):
        treated = small_world.post.treated()
        config = BootstrapConfig(n_replicates=200, seed=123, mode=BootstrapMode.FULL)
        (a,) = bootstrap_ci(small_world.pre, treated, small_fit, (EffectScale.RISK_DIFFERENCE,), config)
        (b,) = bootstrap_ci(small_world.pre, treated, small_fit, (EffectScale.RISK_DIFFERENCE,), config)
        assert (a.ci_low, a.ci_high, a.point) == (b.ci_low, b.ci_high, b.point)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            BootstrapConfig(n_replicates=200, seed=-1)

    def test_the_interval_is_percentile_and_no_caller_sets_it(self):
        assert BootstrapConfig().interval == "percentile"
        with pytest.raises(TypeError, match="interval"):
            BootstrapConfig(interval="normal")

    def test_degenerate_resamples_give_zero_width_interval(self):
        fit = intercept_fit(0.25)
        treated = treated_of([make_post_record(rid=f"s-{i}", outcome=0) for i in range(30)])
        config = BootstrapConfig(n_replicates=150, seed=5, mode=BootstrapMode.FIXED_MODEL)
        (est,) = bootstrap_ci(NO_PRE, treated, fit, (EffectScale.RISK_DIFFERENCE,), config)
        assert est.ci_low == est.ci_high == est.point == pytest.approx(-0.25, abs=1e-12)

    def test_point_estimate_matches_estimate_att(self, small_world, small_fit):
        treated = small_world.post.treated()
        config = BootstrapConfig(n_replicates=150, seed=7, mode=BootstrapMode.FIXED_MODEL)
        (est,) = bootstrap_ci(small_world.pre, treated, small_fit, (EffectScale.RISK_DIFFERENCE,), config)
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
            (e_small,) = bootstrap_ci(NO_PRE, small, fit, (EffectScale.RISK_DIFFERENCE,), config)
            (e_big,) = bootstrap_ci(NO_PRE, treated, fit, (EffectScale.RISK_DIFFERENCE,), config)
            widths_small.append(e_small.ci_high - e_small.ci_low)
            widths_big.append(e_big.ci_high - e_big.ci_low)
        assert np.mean(widths_big) < np.mean(widths_small)

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
            bootstrap_ci(NO_PRE, treated, fit, (EffectScale.ODDS_RATIO,), config)

    def test_replicate_count_floor(self):
        with pytest.raises(ConfigurationError):
            BootstrapConfig(n_replicates=50)

    def test_non_converged_fit_is_refused(self, small_world, monkeypatch):
        pre = small_world.pre
        monkeypatch.setattr(attlab.glm, "MAX_ITER", 1)
        fit = fit_model(pre)
        assert not fit.converged
        config = BootstrapConfig(n_replicates=100, seed=3, mode=BootstrapMode.FIXED_MODEL)
        with pytest.raises(NotConvergedError):
            bootstrap_ci(pre, small_world.post.treated(), fit, (EffectScale.RISK_DIFFERENCE,), config)

    def test_no_scale_is_a_configuration_error(self):
        config = BootstrapConfig(n_replicates=100, seed=3, mode=BootstrapMode.FIXED_MODEL)
        with pytest.raises(ConfigurationError, match="^bootstrap needs at least one effect scale$"):
            bootstrap_ci(NO_PRE, treated_of([make_post_record()]), intercept_fit(0.3), (), config)

    @pytest.mark.parametrize("mode", list(BootstrapMode))
    def test_each_scale_matches_its_single_scale_run(self, small_world, small_fit, mode):
        treated = small_world.post.treated()
        config = BootstrapConfig(n_replicates=100, seed=17, mode=mode)
        together = bootstrap_ci(small_world.pre, treated, small_fit, list(EffectScale), config)
        assert [e.scale for e in together] == list(EffectScale)
        for estimate in together:
            (alone,) = bootstrap_ci(small_world.pre, treated, small_fit, (estimate.scale,), config)
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
        (estimate,) = bootstrap_ci(world.pre, treated, fit_model(world.pre, spec), (EffectScale.RISK_DIFFERENCE,),
                                   config)

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

    # A size of 1 draws nothing; one of 2**k accepts every 32-bit word, so a
    # word left buffered in a restored stream would show.
    @pytest.mark.parametrize("sizes", [(37, 5), (32, 1, 7)])
    @pytest.mark.parametrize("row_bytes", [1, 8 * 37, 10**9])
    def test_resample_chunks_hold_the_substream_draws_in_order(self, row_bytes, sizes):
        chunks = list(resample_chunks(initial_states(9, 23), sizes, row_bytes))
        draws = joined(chunks)
        for r in range(23):
            rng = substream(9, r)
            for drawn, size in zip(draws, sizes, strict=True):
                assert np.array_equal(drawn[r], rng.integers(0, size, size))
        per_chunk = max(1, CHUNK_BYTES // row_bytes)
        assert [len(chunk[0]) for chunk in chunks] == [min(per_chunk, 23 - s) for s in range(0, 23, per_chunk)]

    def test_a_chunk_holds_the_items_that_fit_chunk_bytes_and_at_least_one(self):
        sizes = [0, 1, 2, CHUNK_BYTES // 9, CHUNK_BYTES, CHUNK_BYTES + 1]
        assert [items_per_chunk(b) for b in sizes] == [CHUNK_BYTES, CHUNK_BYTES, CHUNK_BYTES // 2, 9, 1, 1]

    def test_full_bootstrap_does_not_depend_on_the_chunk_size(self, small_world, small_fit, monkeypatch):
        import attlab.rng

        config = BootstrapConfig(n_replicates=150, seed=6)
        treated = small_world.post.treated()
        estimates = []
        for chunk_bytes in (1 << 16, 1 << 20):  # chunks of 3, and of 48 with a short last one
            monkeypatch.setattr(attlab.rng, "CHUNK_BYTES", chunk_bytes)
            estimates.append(bootstrap_ci(small_world.pre, treated, small_fit, tuple(EffectScale), config))
        assert estimates[0] == estimates[1]

    def test_resampled_means_are_the_substream_resample_means(self):
        rng = np.random.default_rng(2)
        y, p = rng.integers(0, 2, 9000).astype(float), rng.random(9000)
        observed, predicted = resampled_means(3, 20, y, p)  # 9000 rows: chunks of 7 replicates
        for r in range(20):
            idx = substream(3, r).integers(0, 9000, 9000)
            assert (observed[r], predicted[r]) == (np.mean(y[idx]), np.mean(p[idx]))

    @pytest.mark.parametrize("mode", list(BootstrapMode))
    def test_a_fit_without_a_spec_is_refused(self, mode):
        fit = dataclasses.replace(intercept_fit(0.3), spec=None)
        config = BootstrapConfig(n_replicates=100, seed=3, mode=mode)
        with pytest.raises(ConfigurationError,
                           match="^bootstrap_ci needs a fit with a model spec: it builds designs from the cohorts$"):
            bootstrap_ci(NO_PRE, treated_of([make_post_record()]), fit, (EffectScale.RISK_DIFFERENCE,), config)

    def test_a_fixed_model_bootstrap_builds_no_design_of_its_own(self, small_world, small_fit, monkeypatch):
        import attlab.estimator

        def no_design(*args):
            raise AssertionError("built a design")

        monkeypatch.setattr(attlab.estimator, "build_design", no_design)
        config = BootstrapConfig(n_replicates=100, seed=3, mode=BootstrapMode.FIXED_MODEL)
        bootstrap_ci(small_world.pre, small_world.post.treated(), small_fit, (EffectScale.RISK_DIFFERENCE,), config)

    def test_undefined_effect_fails_a_replicate_on_its_scale_only(self):
        # 36 events in 40 records: about 1.5% of resamples are all events,
        # where the odds ratio is undefined but the risk difference is not.
        fit = intercept_fit(0.5)
        treated = treated_of([make_post_record(rid=f"v-{i}", outcome=1 if i < 36 else 0) for i in range(40)])
        config = BootstrapConfig(n_replicates=400, seed=4, mode=BootstrapMode.FIXED_MODEL)
        rd, or_ = bootstrap_ci(NO_PRE, treated, fit, (EffectScale.RISK_DIFFERENCE, EffectScale.ODDS_RATIO), config)
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
            bootstrap_ci(NO_PRE, treated, fit, (EffectScale.RISK_DIFFERENCE, EffectScale.ODDS_RATIO), config)

    def test_a_full_refit_on_a_resample_with_no_event_fails(self):
        # 4 events in 80 development patients: about 1.6% of resamples hold no
        # event, and a logistic fit to them has no maximum-likelihood estimate.
        pre = cohort_of([make_record(rid=f"p-{i}", outcome=int(i < 4)) for i in range(80)])
        treated = treated_of([make_post_record(rid=f"t-{i}", outcome=i % 2) for i in range(10)])
        config = BootstrapConfig(n_replicates=400, seed=6)
        fit = fit_model(pre, ModelSpec(terms=("intercept",)))
        (rd,) = bootstrap_ci(pre, treated, fit, (EffectScale.RISK_DIFFERENCE,), config)
        idx_pre, _ = substream_draws(6, 400, (80, 10))
        no_event = int(np.sum(pre.outcome[idx_pre].sum(axis=1) == 0))
        assert no_event > 0
        assert rd.n_failed_replicates == no_event

    @pytest.mark.parametrize("budget, n_failed", [(0.05, 100), (0.05, 101), (0.06, 120), (0.06, 121)])
    def test_the_failure_budget_is_inclusive_and_read_from_its_constant(self, monkeypatch, budget, n_failed):
        # An observed event rate of 0 leaves the odds ratio undefined on
        # exactly ``n_failed`` of 2000 replicates. The budget is 5%, unless
        # the constant is set to another.
        import attlab.estimator

        def means(seed, n_replicates, y, p):
            observed = np.full(n_replicates, 0.5)
            observed[:n_failed] = 0.0
            return observed, np.full(n_replicates, 0.4)

        monkeypatch.setattr(attlab.estimator, "resampled_means", means)
        if budget != attlab.estimator.MAX_FAILURE_FRACTION:
            monkeypatch.setattr(attlab.estimator, "MAX_FAILURE_FRACTION", budget)
        treated = treated_of([make_post_record(rid=f"v-{i}", outcome=i % 2) for i in range(10)])
        config = BootstrapConfig(n_replicates=2000, seed=0, mode=BootstrapMode.FIXED_MODEL)
        run = lambda: bootstrap_ci(NO_PRE, treated, intercept_fit(0.4), (EffectScale.ODDS_RATIO,), config)
        if n_failed <= budget * 2000:
            assert run()[0].n_failed_replicates == n_failed
        else:
            with pytest.raises(UnstableBootstrapError) as raised:
                run()
            percent = round(100 * budget)
            assert str(raised.value) == f"{n_failed} of 2000 bootstrap replicates failed (> {percent}% tolerated)"


def substream_draws(seed, n_replicates, sizes):
    """Each replicate's draws from a fresh ``substream(seed, r)``, one (n_replicates, size) array per size."""
    rngs = [substream(seed, r) for r in range(n_replicates)]
    rows = [[rng.integers(0, size, size) for size in sizes] for rng in rngs]
    return tuple(np.stack(column) for column in zip(*rows))


def joined(chunks):
    return tuple(np.concatenate(arrays) for arrays in zip(*chunks))


def assert_draws(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


class TestStreams:
    SIZES = (37, 5)
    ROW_BYTES = CHUNK_BYTES // 4  # chunks of 4 replicates

    def test_an_estimate_builds_each_stream_once(self, tmp_path, monkeypatch):
        import attlab.rng
        from attlab.cli import main

        assert main(["generate", "--seed", "3", "--n-pre", "200", "--n-post", "100", "--out", str(tmp_path),
                     "--quiet"]) == 0
        built = []
        fresh = attlab.rng._pcg64_states

        def counted(seed, n):
            built.append((seed, n))
            return fresh(seed, n)

        attlab.rng.initial_states.cache_clear()
        initial_states(9, 1)  # states kept for another seed than the estimate's
        monkeypatch.setattr(attlab.rng, "_pcg64_states", counted)
        # The full bootstrap and both calibration checks draw from streams (8, r).
        assert main(["estimate", "--pre", str(tmp_path / "pre.csv"), "--post", str(tmp_path / "post.csv"),
                     "--seed", "8", "--replicates", "150", "--out", str(tmp_path), "--quiet"]) == 0
        assert built == [(8, 150)]
        monkeypatch.setattr(attlab.rng, "_pcg64_states", fresh)
        assert_draws(joined(resample_chunks(initial_states(8, 150), self.SIZES, self.ROW_BYTES)),
                     substream_draws(8, 150, self.SIZES))

    def test_initial_states_are_read_only_and_built_once_a_key(self, monkeypatch):
        import attlab.rng

        built = []
        fresh = attlab.rng._pcg64_states

        def counted(seed, n):
            built.append((seed, n))
            return fresh(seed, n)

        attlab.rng.initial_states.cache_clear()
        monkeypatch.setattr(attlab.rng, "_pcg64_states", counted)
        states = initial_states(12, 30)
        assert (states.shape, states.dtype, states.flags.writeable) == ((30, 4), np.uint64, False)
        with pytest.raises(ValueError):
            states[0, 0] = 0
        for r, row in enumerate(states.tolist()):
            pcg = substream(12, r).bit_generator.state["state"]
            assert row == [pcg["state"] >> 64, pcg["state"] % 2**64, pcg["inc"] >> 64, pcg["inc"] % 2**64]
        assert initial_states(12, 30) is states
        assert initial_states(12, 5).tolist() == states[:5].tolist()
        assert initial_states(12, 30) is states  # a second key does not evict the first
        assert built == [(12, 30), (12, 5)]
        assert initial_states(12, 0).shape == (0, 4)

    # Seeds of one to seven 32-bit words: numpy pads the entropy to its pool
    # of four words, and mixes in a word past the pool after the pool.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**96 + 7, 2**128 + 5, 2**200 + 3])
    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_initial_states_are_the_substream_states(self, seed, n):
        want = [substream(seed, r).bit_generator.state for r in range(n)]
        assert [pcg["has_uint32"] for pcg in want] == [0] * n
        pcg = [pcg["state"] for pcg in want]
        assert initial_states(seed, n).tolist() == [
            [s["state"] >> 64, s["state"] % 2**64, s["inc"] >> 64, s["inc"] % 2**64] for s in pcg]

    def test_initial_states_refuse_what_numpy_would_seed_otherwise(self):
        with pytest.raises(ConfigurationError, match=r"^initial_states seed must be a non-negative integer, got -1$"):
            initial_states(-1, 3)
        # A spawn key of 2**32 or more takes two 32-bit words.
        with pytest.raises(ConfigurationError,
                           match=r"^initial_states n must be a non-negative integer <= 4294967296, got 4294967297$"):
            initial_states(0, 2**32 + 1)

    # Sizes 0 and 1 draw no word; an odd total leaves the high half of the
    # last 64-bit draw for the next size. At 100 000 and 65 536 most
    # replicates draw a word that ``integers`` may reject, and only those
    # draw again through it; at 65 536, a power of two, ``integers`` would
    # take a word left buffered in the restored stream.
    @pytest.mark.parametrize("seed, sizes", [(3, (0, 5)), (3, (1, 7)), (3, (751, 150)), (3, (2, 9, 2)),
                                             (2, (100_000, 3)), (2, (65_536, 3))])
    def test_resample_chunks_are_fresh_substream_draws(self, seed, sizes, monkeypatch):
        redrawn = []

        class Counted(np.random.Generator):
            def integers(self, low, high, size):
                redrawn.append(high)
                return super().integers(low, high, size)

        monkeypatch.setattr(np.random, "Generator", Counted)
        n = 12
        got = joined(resample_chunks(initial_states(seed, n), sizes, CHUNK_BYTES // 5))  # chunks of 5, 5 and 2
        assert [a.dtype for a in got] == [np.dtype(np.int64)] * len(sizes)
        assert_draws(got, substream_draws(seed, n, sizes))
        drawn = [size for size in sizes if size > 1]
        bound = np.repeat(np.uint64(drawn), drawn)
        may_reject = [np.any(substream(seed, r).bit_generator.random_raw(len(bound) // 2 + 1).view("<u4")
                             [: len(bound)] * bound % 2**32 < bound) for r in range(n)]
        assert redrawn == [size for rejects in may_reject if rejects for size in sizes]
        assert sum(may_reject) > n // 2 if sizes[0] >= 2**16 else not any(may_reject)

    def test_resample_chunks_refuse_a_size_of_2_to_the_32(self):
        draws = resample_chunks(initial_states(1, 2), (5, 2**32), 8)
        with pytest.raises(ConfigurationError,
                           match=r"^resample_chunks size must be a non-negative integer <= 4294967295, got 4294967296$"):
            next(draws)

    def test_a_range_task_builds_no_stream(self, small_world, small_fit, monkeypatch):
        # Every worker, forked or not, gets its range's states with the task.
        import attlab.rng
        from attlab.estimator import _refit_means

        treated = small_world.post.treated()
        designs = [build_design(cohort, small_fit.spec)[0] for cohort in (small_world.pre, treated)]
        outcomes = [cohort.outcome.astype(float) for cohort in (small_world.pre, treated)]
        states = initial_states(11, 40)
        whole = _refit_means(designs[0], outcomes[0], designs[1], outcomes[1], states, range(40))
        assert len(whole) == 40  # no refit fails, so replicate r is item r
        built = []
        monkeypatch.setattr(attlab.rng, "_pcg64_states", lambda *key: built.append(key))
        attlab.rng.initial_states.cache_clear()
        got = _refit_means(designs[0], outcomes[0], designs[1], outcomes[1], states, range(29, 40))
        assert built == []
        assert got == whole[29:]

    def test_interleaved_passes_draw_the_substream_values(self):
        # The second pass goes to more replicates while the first is under way.
        first = resample_chunks(initial_states(5, 20), self.SIZES, self.ROW_BYTES)
        second = resample_chunks(initial_states(5, 32), (11,), CHUNK_BYTES // 8)  # chunks of 8
        got_first, got_second = [], []
        for _ in range(4):
            got_first.append(next(first))
            got_second.append(next(second))
        got_first.extend(first)
        assert_draws(joined(got_first), substream_draws(5, 20, self.SIZES))
        assert_draws(joined(got_second), substream_draws(5, 32, (11,)))
        assert next(second, None) is None

    def test_passes_that_switch_seeds_draw_the_substream_values(self):
        held = resample_chunks(initial_states(5, 20), self.SIZES, self.ROW_BYTES)
        got_held = [next(held)]
        for seed in (6, 5, 7, 5):
            assert_draws(joined(resample_chunks(initial_states(seed, 9), self.SIZES, self.ROW_BYTES)),
                         substream_draws(seed, 9, self.SIZES))
            got_held.append(next(held))  # a pass under way keeps its seed's streams
        assert_draws(joined(got_held), substream_draws(5, 20, self.SIZES))

    def test_a_longer_pass_draws_the_substream_values(self):
        for n_replicates in (6, 25, 3, 31):
            assert_draws(joined(resample_chunks(initial_states(4, n_replicates), self.SIZES, self.ROW_BYTES)),
                         substream_draws(4, n_replicates, self.SIZES))
        observed, _ = resampled_means(4, 40, np.arange(37.0), np.zeros(37))
        (idx,) = substream_draws(4, 40, (37,))
        assert np.array_equal(observed, np.mean(idx.astype(float), axis=1))

    @given(st.integers(0, 30).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n), max_size=4))))
    def test_any_split_of_the_replicates_draws_the_substream_values(self, split):
        n, cuts = split
        bounds = [0, *sorted(cuts), n]
        states = initial_states(6, n)
        got = [chunk for lo, hi in zip(bounds, bounds[1:])
               for chunk in resample_chunks(states[lo:hi], self.SIZES, self.ROW_BYTES)]
        assert_draws(joined(got), substream_draws(6, n, self.SIZES))


class TestWorkers:
    # 257 replicates: no count of ranges divides them. The interactions world's
    # refits fail in some replicates.
    @pytest.mark.parametrize("seed, spec_name, failed", [(20240801, "linear", False), (1, "interactions", True)])
    def test_the_intervals_do_not_depend_on_the_workers(self, monkeypatch, seed, spec_name, failed):
        set_usable_cpus(monkeypatch, 3)
        world = generate(GeneratorConfig(seed=seed, n_pre=300, n_post=80))
        config = BootstrapConfig(n_replicates=257, seed=4)
        scales = (EffectScale.RISK_DIFFERENCE, EffectScale.RISK_RATIO)
        fit = fit_model(world.pre, NAMED_SPECS[spec_name])
        results = [bootstrap_ci(world.pre, world.post.treated(), fit, scales,
                                config, workers=workers) for workers in (1, 2, 3)]
        assert results[0] == results[1] == results[2]
        assert (results[0][0].n_failed_replicates > 0) == failed

    @pytest.mark.parametrize("mode, pools", [(BootstrapMode.FULL, [2]), (BootstrapMode.FIXED_MODEL, [])])
    def test_only_a_full_bootstrap_starts_a_pool(self, small_world, small_fit, monkeypatch, in_process_pool,
                                                  mode, pools):
        set_usable_cpus(monkeypatch, 2)
        config = BootstrapConfig(n_replicates=100, seed=3, mode=mode)
        bootstrap_ci(small_world.pre, small_world.post.treated(), small_fit, (EffectScale.RISK_DIFFERENCE,),
                     config, workers=2)
        assert in_process_pool == pools


class TestSensitivity:
    def test_duplicate_spec_gives_zero_spread(self, small_world):
        result = sensitivity_analysis(
            small_world.pre,
            small_world.post.treated(),
            [("a", ModelSpec()), ("b", ModelSpec())],
            EffectScale.RISK_DIFFERENCE,
            FIXED,
        )
        assert result.max_spread == 0.0
        assert result.rows[0].estimate.point == result.rows[1].estimate.point

    def test_each_row_point_is_the_fitted_models_estimate(self, small_world):
        treated = small_world.post.treated()
        variants = [("linear", ModelSpec()), ("quadratic", NAMED_SPECS["quadratic"])]
        result = sensitivity_analysis(small_world.pre, treated, variants, EffectScale.RISK_RATIO, FIXED)
        assert [row.estimate.point for row in result.rows] == [
            estimate_att(treated, fit_model(small_world.pre, spec), EffectScale.RISK_RATIO) for _, spec in variants
        ]

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
                [("linear", ModelSpec()), ("quadratic", NAMED_SPECS["quadratic"])],
                EffectScale.RISK_DIFFERENCE,
                FIXED,
            )
            spreads.append(result.max_spread)
        assert np.mean(spreads) < 0.02

    def test_needs_two_variants(self, small_world):
        with pytest.raises(ConfigurationError, match="^sensitivity analysis needs at least two spec variants$"):
            sensitivity_analysis(
                small_world.pre,
                small_world.post.treated(),
                [("only", ModelSpec())],
                EffectScale.RISK_DIFFERENCE,
                FIXED,
            )

    def test_a_fault_of_the_shared_inputs_raises(self, small_world):
        # Five post-introduction patients are no development cohort, and an
        # outcome of 2 is no outcome: every variant would fail, and the fault
        # is the input's, not a spec's.
        variants = [("a", ModelSpec()), ("b", NAMED_SPECS["quadratic"])]
        treated = small_world.post.treated()
        pre = small_world.post.standard().take(np.arange(5))
        with pytest.raises(ConfigurationError, match="sensitivity_analysis expects development patients"):
            sensitivity_analysis(pre, treated, variants, EffectScale.RISK_DIFFERENCE, FIXED)
        pre = small_world.pre
        pre = dataclasses.replace(pre, outcome=np.r_[2, pre.outcome[1:]])
        with pytest.raises(ConfigurationError, match="outcomes must be binary"):
            sensitivity_analysis(pre, treated, variants, EffectScale.RISK_DIFFERENCE, FIXED)

    def test_a_fault_of_the_shared_inputs_raises_with_as_many_patients_as_columns(self, small_world):
        # Only a spec with more columns than patients is the spec's fault; one
        # patient under the one-column spec is not too few.
        pre = small_world.pre.take(np.arange(1))
        pre = dataclasses.replace(pre, outcome=np.array([2]))
        variants = [("intercept", ModelSpec(("intercept",))), ("linear", ModelSpec())]
        with pytest.raises(ConfigurationError, match="outcomes must be binary"):
            sensitivity_analysis(pre, small_world.post.treated(), variants, EffectScale.RISK_DIFFERENCE, FIXED)

    def test_variant_failure_is_recorded_not_raised(self, small_world):
        # With only two larynx patients, whose outcomes differ, the four
        # dose-by-larynx interaction columns and the larynx column span at
        # most two rows: the interactions design is rank deficient while the
        # linear one still fits.
        pre = small_world.pre
        larynx = pre.loc_code == LOCATIONS.index(TumorLocation.LARYNX)
        two = [np.flatnonzero(larynx & (pre.outcome == y))[0] for y in (0, 1)]
        pre = pre.take(~larynx | np.isin(np.arange(len(pre)), two))
        result = sensitivity_analysis(
            pre,
            small_world.post.treated(),
            [("ok", NAMED_SPECS["linear"]), ("broken", NAMED_SPECS["interactions"])],
            EffectScale.RISK_DIFFERENCE,
            FIXED,
        )
        by_label = {row.label: row for row in result.rows}
        assert by_label["ok"].estimate is not None
        assert by_label["broken"].estimate is None
        assert "rank deficient" in by_label["broken"].error
