import dataclasses

import numpy as np
import pytest

from attlab.errors import ConfigurationError, EstimandError
from attlab.estimator import EffectScale
from attlab.records import (
    CohortLabel,
    PotentialOutcomes,
    Treatment,
    TumorLocation,
    cohort_csv_bytes,
    validate,
)
from attlab.selection import SelectionRule, assign
from attlab.synth import (
    DEFAULT_DOSE_MODEL,
    DoseTruncation,
    GeneratedWorld,
    GeneratorConfig,
    ReductionModel,
    ViolationShift,
    generate,
    make_true_risk_fn,
    true_att,
    write_world,
)

from conftest import cohort_of, make_post_record


class TestDeterminism:
    def test_same_seed_twice_is_byte_identical(self):
        cfg = GeneratorConfig(n_pre=120, n_post=80, seed=99)
        w1 = generate(cfg)
        w2 = generate(cfg)
        assert cohort_csv_bytes(w1.pre) == cohort_csv_bytes(w2.pre)
        assert cohort_csv_bytes(w1.post) == cohort_csv_bytes(w2.post)
        assert w1.true_att_rd == w2.true_att_rd

    def test_different_seeds_differ(self):
        w1 = generate(GeneratorConfig(n_pre=120, n_post=80, seed=1))
        w2 = generate(GeneratorConfig(n_pre=120, n_post=80, seed=2))
        assert cohort_csv_bytes(w1.pre) != cohort_csv_bytes(w2.pre)


class TestStructure:
    def test_pre_cohort_all_standard_and_valid(self, small_world):
        assert validate(small_world.pre) == []
        assert all(r.treatment is Treatment.STANDARD for r in small_world.pre.records)
        assert all(r.proton_doses is None for r in small_world.pre.records)

    def test_post_cohort_valid_with_latents(self, small_world):
        assert validate(small_world.post) == []
        assert all(r.proton_doses is not None for r in small_world.post.records)
        assert all(r.latent is not None for r in small_world.post.records)

    def test_consistency_outcome_equals_selected_potential_outcome(self, small_world):
        for r in small_world.post.records:
            expected = r.latent.y1 if r.treatment is Treatment.TARGET else r.latent.y0
            assert r.outcome == expected

    def test_comonotone_coupling_orders_potential_outcomes(self, small_world):
        for r in small_world.post.records:
            if r.latent.p1 <= r.latent.p0:
                assert r.latent.y1 <= r.latent.y0

    @pytest.mark.parametrize(
        "shift", [ViolationShift(), ViolationShift(nonlinearity_amplitude=0.8)], ids=["neutral", "nonlinear"]
    )
    def test_assignment_is_deterministic_in_plans(self, small_world, shift):
        # Replaying the scalar selection rule on the published plans
        # reproduces the treatment labels exactly, quadratic term included.
        world = small_world if shift.is_neutral() else generate(dataclasses.replace(small_world.config, shift=shift))
        rule = SelectionRule(
            risk_fn=make_true_risk_fn(world.config),
            threshold=world.config.selection_threshold,
        )
        labels = assign(world.post.records, rule)
        assert labels == [r.treatment for r in world.post.records]


class TestDegenerateReduction:
    def test_identical_plans_select_nobody_and_null_truth(self):
        rm = ReductionModel(
            mean_by_location={loc: 1.0 for loc in TumorLocation},
            concentration=5.0,
            organ_jitter_sd=0.0,
        )
        cfg = GeneratorConfig(n_pre=50, n_post=60, seed=3, proton_reduction_model=rm)
        world = generate(cfg)
        assert len(world.post.treated()) == 0
        assert world.true_att_rd == 0.0
        for r in world.post.records:
            assert r.proton_doses == r.photon_doses
            assert r.latent.p0 == r.latent.p1


class TestSelectionSplit:
    def test_default_split_is_near_the_target(self):
        counts = [len(generate(GeneratorConfig(seed=s)).post.treated()) for s in range(25)]
        assert 93 - 15 <= np.mean(counts) <= 93 + 15


class TestTrueAtt:
    def make_world(self, pairs):
        records = []
        for i, (p0, p1) in enumerate(pairs):
            y0 = 1 if p0 > 0.5 else 0
            y1 = 1 if p1 > 0.5 else 0
            records.append(
                make_post_record(
                    rid=f"t-{i}",
                    outcome=y1,
                    latent=PotentialOutcomes(y0=y0, y1=y1, p0=p0, p1=p1),
                )
            )
        post = cohort_of(records, CohortLabel.POST_INTRODUCTION)
        pre = cohort_of([], CohortLabel.PRE_INTRODUCTION)
        return GeneratedWorld(
            pre=pre, post=post, true_att_rd=0.0, true_att_rr=1.0, true_att_or=1.0, config=GeneratorConfig()
        )

    def test_null_effect(self):
        world = self.make_world([(0.3, 0.3), (0.6, 0.6)])
        assert true_att(world, EffectScale.RISK_DIFFERENCE) == 0.0
        assert true_att(world, EffectScale.RISK_RATIO) == 1.0
        assert true_att(world, EffectScale.ODDS_RATIO) == 1.0

    def test_mean_of_differences(self):
        world = self.make_world([(0.5, 0.3), (0.4, 0.2)])
        assert true_att(world, EffectScale.RISK_DIFFERENCE) == pytest.approx(-0.2, abs=1e-12)

    def test_no_treated_records_is_an_error(self):
        world = self.make_world([(0.5, 0.3)])
        standard = dataclasses.replace(
            world.post.records[0], treatment=Treatment.STANDARD, outcome=world.post.records[0].latent.y0
        )
        post = cohort_of([standard], CohortLabel.POST_INTRODUCTION)
        world = dataclasses.replace(world, post=post)
        with pytest.raises(EstimandError):
            true_att(world, EffectScale.RISK_DIFFERENCE)

    def test_default_config_truth_beats_selection_threshold(self, default_world):
        # Every selected patient clears a 0.10 true-benefit bar, so the
        # average effect must be below -0.10.
        assert default_world.true_att_rd <= -0.10
        for r in default_world.post.treated().records:
            assert r.latent.p0 - r.latent.p1 > default_world.config.selection_threshold

    def test_rd_matches_latent_means_exactly(self, default_world):
        treated = default_world.post.treated()
        rd = float(np.mean([r.latent.p1 - r.latent.p0 for r in treated.records]))
        assert true_att(default_world, EffectScale.RISK_DIFFERENCE) == pytest.approx(rd, abs=1e-15)
        assert default_world.true_att_rd == pytest.approx(rd, abs=1e-15)


class TestDoseCoefficientMonotonicity:
    def test_increasing_a_dose_coefficient_does_not_decrease_mean_p0(self):
        base = GeneratorConfig(n_pre=200, n_post=50, seed=17)
        beta = list(base.true_beta)
        beta[5] += 0.01
        bumped = dataclasses.replace(base, true_beta=tuple(beta))
        p0_base = np.mean([r.latent.p0 for r in generate(base).pre.records])
        p0_bumped = np.mean([r.latent.p0 for r in generate(bumped).pre.records])
        assert p0_bumped >= p0_base


class TestShifts:
    def test_neutral_shift_detection(self):
        assert ViolationShift().is_neutral()
        assert not ViolationShift(secular_dose_drift=1.0).is_neutral()
        assert not ViolationShift(support_truncation=DoseTruncation("dose_sup_pcm", 55.0)).is_neutral()

    def test_truncation_restricts_pre_cohort_only(self):
        shift = ViolationShift(support_truncation=DoseTruncation("dose_sup_pcm", 50.0))
        world = generate(GeneratorConfig(n_pre=200, n_post=100, seed=5, shift=shift))
        pre_sup = [r.photon_doses.dose_sup_pcm for r in world.pre.records]
        post_sup = [r.photon_doses.dose_sup_pcm for r in world.post.records]
        assert max(pre_sup) <= 50.0
        assert max(post_sup) > 50.0

    def test_drift_lowers_post_standard_risk_but_not_recorded_plan(self):
        cfg = GeneratorConfig(n_pre=50, n_post=200, seed=8)
        drifted = dataclasses.replace(cfg, shift=ViolationShift(secular_dose_drift=5.0))
        w0 = generate(cfg)
        w1 = generate(drifted)
        # same recorded plans, lower true standard-treatment risk
        assert [r.photon_doses for r in w1.post.records] == [r.photon_doses for r in w0.post.records]
        p0_neutral = np.mean([r.latent.p0 for r in w0.post.records])
        p0_drifted = np.mean([r.latent.p0 for r in w1.post.records])
        assert p0_drifted < p0_neutral


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            ({"n_pre": 0}, "n_pre"),
            ({"n_post": 0}, "n_post"),
            ({"selection_threshold": 0.0}, "selection_threshold"),
            ({"true_beta": (1.0, 2.0)}, "true_beta"),
            ({"p_baseline_dysphagia": 1.5}, "p_baseline_dysphagia"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_invalid_config_names_the_field(self, kwargs, needle):
        with pytest.raises(ConfigurationError, match=needle):
            generate(GeneratorConfig(**kwargs))

    @pytest.mark.parametrize("field", ["secular_dose_drift", "unmeasured_confounder_strength",
                                       "nonlinearity_amplitude"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_shift_names_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ViolationShift(**{field: value})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_true_beta_names_the_field(self, value):
        beta = list(GeneratorConfig().true_beta)
        beta[2] = value
        with pytest.raises(ConfigurationError, match="true_beta"):
            generate(GeneratorConfig(true_beta=tuple(beta)))

    @pytest.mark.parametrize("part", ["means", "sds"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_dose_model_names_the_field(self, part, value):
        params = DEFAULT_DOSE_MODEL[TumorLocation.LARYNX]
        values = list(getattr(params, part))
        values[1] = value
        model = {**DEFAULT_DOSE_MODEL, TumorLocation.LARYNX: dataclasses.replace(params, **{part: tuple(values)})}
        with pytest.raises(ConfigurationError, match=rf"dose_model\[larynx\] {part}"):
            generate(GeneratorConfig(dose_model=model))

    def test_bad_reduction_model(self):
        rm = ReductionModel(mean_by_location={loc: 0.8 for loc in TumorLocation}, concentration=-1.0)
        with pytest.raises(ConfigurationError, match="concentration"):
            generate(GeneratorConfig(proton_reduction_model=rm))

    def test_a_dose_mean_beyond_the_dose_range_is_refused(self):
        params = DEFAULT_DOSE_MODEL[TumorLocation.LARYNX]
        beyond = dataclasses.replace(params, means=(200.0, 48.0, 56.0, 26.0))
        model = {**DEFAULT_DOSE_MODEL, TumorLocation.LARYNX: beyond}
        refused = r"dose_model\[larynx\] dose_sup_pcm: .* \[0, 80\] Gy with chance 0"
        with pytest.raises(ConfigurationError, match=refused):
            generate(GeneratorConfig(dose_model=model))

    @pytest.mark.parametrize("max_gy,refused", [(30.0, True), (36.0, True), (38.0, False), (50.0, False)])
    def test_a_truncation_window_one_draw_rarely_hits_is_refused(self, max_gy, refused):
        config = GeneratorConfig(
            n_pre=40, n_post=20, shift=ViolationShift(support_truncation=DoseTruncation("dose_sup_pcm", max_gy))
        )
        if refused:
            with pytest.raises(ConfigurationError, match=rf"nasopharynx\] dose_sup_pcm: .* \[0, {max_gy:g}\] Gy"):
                generate(config)
        else:
            assert generate(config).pre.photon[:, 0].max() <= max_gy


class TestWriteWorld:
    def test_writes_cohorts_and_truth(self, tmp_path, small_world):
        paths = write_world(small_world, tmp_path)
        assert paths["pre"].is_file() and paths["post"].is_file()
        import json

        truth = json.loads(paths["truth"].read_text(encoding="utf-8"))
        assert truth["true_att"]["rd"] == small_world.true_att_rd
        assert truth["n_treated"] == len(small_world.post.treated())
        assert truth["config"]["seed"] == small_world.config.seed

    def test_a_world_that_cannot_be_written_leaves_no_file(self, tmp_path, small_world):
        world = dataclasses.replace(small_world, true_att_rd=float("nan"))
        with pytest.raises(ValueError, match="JSON"):
            write_world(world, tmp_path)
        assert list(tmp_path.iterdir()) == []


def masked_draw_doses(rng, loc_codes, config, truncation):
    """Whole-array rejection sampling that ``_draw_doses`` replaced; kept as its reference."""
    from attlab.records import DOSE_FIELDS, LOCATIONS, MAX_DOSE_GY

    means = np.array([config.dose_model[loc].means for loc in LOCATIONS])[loc_codes]
    sds = np.array([config.dose_model[loc].sds for loc in LOCATIONS])[loc_codes]
    lo, hi = np.zeros(4), np.full(4, MAX_DOSE_GY)
    if truncation is not None:
        organ = DOSE_FIELDS.index(truncation.organ)
        lo[organ], hi[organ] = truncation.min_gy, min(truncation.max_gy, MAX_DOSE_GY)
    doses = rng.normal(means, sds)
    bad = (doses < lo) | (doses > hi)
    while np.any(bad):
        doses[bad] = rng.normal(means[bad], sds[bad])
        bad = (doses < lo) | (doses > hi)
    return doses


@pytest.mark.parametrize("truncation", [
    None,
    DoseTruncation(organ="dose_sup_pcm", max_gy=50.0),
    DoseTruncation(organ="dose_inf_pcm", max_gy=45.0, min_gy=30.0),
])
def test_dose_draws_match_whole_array_rejection(truncation):
    from attlab.synth import _draw_doses

    config = GeneratorConfig()
    loc_codes = np.random.default_rng(1).choice(4, size=500)
    for seed in range(5):
        got = _draw_doses(np.random.default_rng(seed), loc_codes, config, truncation)
        want = masked_draw_doses(np.random.default_rng(seed), loc_codes, config, truncation)
        assert np.array_equal(got, want)


def test_generated_columns_match_their_records(default_world):
    for cohort in (default_world.pre, default_world.post):
        records = cohort.records
        assert cohort.ids.tolist() == [r.id for r in records]
        assert cohort.outcome.tolist() == [r.outcome for r in records]
        assert cohort.p1.tolist() == [r.latent.p1 for r in records]
        assert cohort.photon.tolist() == [list(r.photon_doses.as_tuple()) for r in records]
