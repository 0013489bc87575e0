import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attlab.errors import ConfigurationError, EstimandError
from attlab.estimator import EffectScale, att_from_means
from attlab.glm import ModelSpec, design_columns, expit
from attlab.records import (
    _COHORT_FIELDS,
    Cohort,
    DOSE_FIELDS,
    Period,
    Treatment,
    cohort_csv_bytes,
    validate,
)
from attlab.selection import SelectionRule, assign
from attlab.synth import (
    DEFAULT_TRUE_BETA,
    MAX_COHORT_SIZE,
    DoseTruncation,
    GeneratedWorld,
    GeneratorConfig,
    ViolationShift,
    _DOSE_MEANS,
    _DOSE_SDS,
    _draw_doses,
    _true_linear_predictor,
    generate,
    generate_range,
    make_true_risk_fn,
    true_att,
    true_att_of,
    write_world,
)
from attlab.violations import DEFAULT_SHIFTS

from conftest import cohort_of, make_post_record
from records_oracle import PotentialOutcomes, records_of
from synth_reference import masked_draw_doses, reference_generate


class TestDeterminism:
    def test_same_seed_twice_is_byte_identical(self):
        cfg = GeneratorConfig(n_pre=120, n_post=80, seed=99)
        w1 = generate(cfg)
        w2 = generate(cfg)
        assert cohort_csv_bytes(w1.pre) == cohort_csv_bytes(w2.pre)
        assert cohort_csv_bytes(w1.post) == cohort_csv_bytes(w2.post)
        assert true_att(w1, EffectScale.RISK_DIFFERENCE) == true_att(w2, EffectScale.RISK_DIFFERENCE)

    def test_different_seeds_differ(self):
        w1 = generate(GeneratorConfig(n_pre=120, n_post=80, seed=1))
        w2 = generate(GeneratorConfig(n_pre=120, n_post=80, seed=2))
        assert cohort_csv_bytes(w1.pre) != cohort_csv_bytes(w2.pre)


class TestStructure:
    def test_pre_cohort_all_standard_and_valid(self, small_world):
        assert validate(small_world.pre, Period.PRE) == []
        assert np.all(small_world.pre.treatment == Treatment.STANDARD.value)
        assert not small_world.pre.has_proton.any()

    def test_post_cohort_valid_with_latents(self, small_world):
        assert validate(small_world.post, Period.POST) == []
        post = small_world.post
        assert post.has_proton.all()
        assert all(latent is not None for latent in (post.p0, post.p1, post.y0, post.y1))

    def test_consistency_outcome_equals_selected_potential_outcome(self, small_world):
        post = small_world.post
        expected = np.where(post.treatment == Treatment.TARGET.value, post.y1, post.y0)
        assert np.array_equal(post.outcome, expected)

    def test_comonotone_coupling_orders_potential_outcomes(self, small_world):
        post = small_world.post
        assert np.all((post.y1 <= post.y0) | (post.p1 > post.p0))

    @pytest.mark.parametrize(
        "shift", [ViolationShift(), ViolationShift(nonlinearity_amplitude=0.8)], ids=["neutral", "nonlinear"]
    )
    def test_assignment_is_deterministic_in_plans(self, small_world, shift):
        # Replaying the selection rule on the published plans reproduces the
        # treatment labels exactly, quadratic term included, and so does
        # replaying it one patient at a time.
        world = small_world if shift.is_neutral() else generate(dataclasses.replace(small_world.config, shift=shift))
        rule = SelectionRule(
            risk_fn=make_true_risk_fn(world.config),
            threshold=world.config.selection_threshold,
        )
        assert np.array_equal(assign(world.post, rule), world.post.treatment)
        for i in range(len(world.post)):
            assert assign(world.post.take([i]), rule).tolist() == [world.post.treatment[i]]


class TestSelectionSplit:
    def test_default_split_is_near_the_target(self):
        counts = [len(generate(GeneratorConfig(seed=s)).post.treated()) for s in range(25)]
        assert 93 - 15 <= np.mean(counts) <= 93 + 15

    def test_no_one_selected_leaves_the_att_undefined_on_every_scale(self):
        world = generate(GeneratorConfig(n_pre=50, n_post=60, seed=3, selection_threshold=0.999))
        assert len(world.post.treated()) == 0
        for scale in EffectScale:
            with pytest.raises(EstimandError, match="^no target-treated records; the ATT is undefined$"):
                true_att(world, scale)


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
        post = cohort_of(records)
        pre = cohort_of([])
        return GeneratedWorld(pre=pre, post=post, config=GeneratorConfig())

    def test_null_effect(self):
        world = self.make_world([(0.3, 0.3), (0.6, 0.6)])
        assert true_att(world, EffectScale.RISK_DIFFERENCE) == 0.0
        assert true_att(world, EffectScale.RISK_RATIO) == 1.0
        assert true_att(world, EffectScale.ODDS_RATIO) == 1.0

    def test_mean_of_differences(self):
        world = self.make_world([(0.5, 0.3), (0.4, 0.2)])
        assert true_att(world, EffectScale.RISK_DIFFERENCE) == pytest.approx(-0.2, abs=1e-12)

    def test_ratios_are_undefined_without_standard_treatment_risk(self):
        world = self.make_world([(0.0, 0.0), (0.0, 0.0)])
        assert true_att(world, EffectScale.RISK_DIFFERENCE) == 0.0
        for scale in (EffectScale.RISK_RATIO, EffectScale.ODDS_RATIO):
            message = f"^true effect on scale {scale.value} undefined: mean standard-treatment risk is 0$"
            with pytest.raises(EstimandError, match=message):
                true_att(world, scale)

    def test_no_treated_records_is_an_error(self):
        world = self.make_world([(0.5, 0.3)])
        (treated,) = records_of(world.post)
        standard = dataclasses.replace(treated, treatment=Treatment.STANDARD, outcome=treated.latent.y0)
        post = cohort_of([standard])
        world = dataclasses.replace(world, post=post)
        with pytest.raises(EstimandError):
            true_att(world, EffectScale.RISK_DIFFERENCE)

    def test_default_config_truth_beats_selection_threshold(self, default_world):
        # Every selected patient clears a 0.10 true-benefit bar, so the
        # average effect must be below -0.10.
        assert true_att(default_world, EffectScale.RISK_DIFFERENCE) <= -0.10
        treated = default_world.post.treated()
        assert np.all(treated.p0 - treated.p1 > default_world.config.selection_threshold)

    def test_a_ratio_is_the_estimates_scale_rule_on_the_mean_risks(self, default_world):
        treated = default_world.post.treated()
        means = float(np.mean(treated.p1)), float(np.mean(treated.p0))
        for scale in (EffectScale.RISK_RATIO, EffectScale.ODDS_RATIO):
            assert true_att_of(treated, scale) == att_from_means(*means, scale)
        assert true_att_of(treated, EffectScale.RISK_DIFFERENCE) == float(np.mean(treated.p1 - treated.p0))

    def test_an_odds_ratio_with_every_target_treatment_risk_at_1_is_refused_as_an_estimates(self):
        world = self.make_world([(0.25, 1.0), (0.75, 1.0)])
        with pytest.raises(EstimandError, match="^odds ratio undefined: observed event rate is 1.0$"):
            true_att(world, EffectScale.ODDS_RATIO)
        assert true_att(world, EffectScale.RISK_RATIO) == 2.0

    def test_rd_matches_latent_means_exactly(self, default_world):
        treated = default_world.post.treated()
        rd = float(np.mean(treated.p1 - treated.p0))
        assert true_att(default_world, EffectScale.RISK_DIFFERENCE) == pytest.approx(rd, abs=1e-15)


class TestDoseCoefficientMonotonicity:
    def test_increasing_a_dose_coefficient_does_not_decrease_mean_p0(self):
        pre = generate(GeneratorConfig(n_pre=200, n_post=50, seed=17)).pre
        beta = np.array(DEFAULT_TRUE_BETA)
        bumped = beta.copy()
        bumped[5] += 0.01
        covariates = (pre.dysphagia.astype(float), pre.loc_code, pre.photon)
        p0_base = expit(_true_linear_predictor(beta, *covariates))
        p0_bumped = expit(_true_linear_predictor(bumped, *covariates))
        assert np.array_equal(p0_base, pre.p0)
        assert np.mean(p0_bumped) >= np.mean(p0_base)


class TestShifts:
    def test_neutral_shift_detection(self):
        assert ViolationShift().is_neutral()
        assert ViolationShift(secular_dose_drift=-0.0, nonlinearity_amplitude=0).is_neutral()
        assert not ViolationShift(secular_dose_drift=1.0).is_neutral()
        assert not ViolationShift(nonlinearity_amplitude=1e-300).is_neutral()
        assert not ViolationShift(support_truncation=DoseTruncation("dose_sup_pcm", 55.0)).is_neutral()

    def test_truncation_restricts_pre_cohort_only(self):
        shift = ViolationShift(support_truncation=DoseTruncation("dose_sup_pcm", 50.0))
        world = generate(GeneratorConfig(n_pre=200, n_post=100, seed=5, shift=shift))
        sup = DOSE_FIELDS.index("dose_sup_pcm")
        pre_sup, post_sup = world.pre.photon[:, sup], world.post.photon[:, sup]
        assert max(pre_sup) <= 50.0
        assert max(post_sup) > 50.0

    def test_drift_lowers_post_standard_risk_but_not_recorded_plan(self):
        cfg = GeneratorConfig(n_pre=50, n_post=200, seed=8)
        drifted = dataclasses.replace(cfg, shift=ViolationShift(secular_dose_drift=5.0))
        w0 = generate(cfg)
        w1 = generate(drifted)
        # same recorded plans, lower true standard-treatment risk
        assert np.array_equal(w1.post.photon, w0.post.photon)
        p0_neutral = np.mean(w0.post.p0)
        p0_drifted = np.mean(w1.post.p0)
        assert p0_drifted < p0_neutral


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            ({"n_pre": 0}, "n_pre"),
            ({"n_post": 0}, "n_post"),
            ({"selection_threshold": 0.0}, "selection_threshold"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_invalid_config_names_the_field(self, kwargs, needle):
        with pytest.raises(ConfigurationError, match=needle):
            GeneratorConfig(**kwargs)

    # Only sizes above the bound are tried: they are refused before anything is allocated.
    @pytest.mark.parametrize("field", ["n_pre", "n_post"])
    @pytest.mark.parametrize("size", [MAX_COHORT_SIZE + 1, 10**23])
    def test_a_cohort_size_above_the_bound_is_refused_naming_the_field(self, field, size):
        message = f"^GeneratorConfig.{field} must be a positive integer <= {MAX_COHORT_SIZE}, got {size}$"
        with pytest.raises(ConfigurationError, match=message):
            GeneratorConfig(**{field: size})

    def test_the_lab_design_of_one_patient_above_the_bound_is_too_big_for_numpy(self):
        with pytest.raises(ValueError, match="array is too big"):
            np.empty((MAX_COHORT_SIZE + 1, len(design_columns(ModelSpec()))))

    @pytest.mark.parametrize("field", ["secular_dose_drift", "unmeasured_confounder_strength",
                                       "nonlinearity_amplitude"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_shift_names_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ViolationShift(**{field: value})

    @pytest.mark.parametrize("organ", [np.array(["dose_sup_pcm", "x"]), np.array(["dose_sup_pcm"]), ["dose_sup_pcm"]])
    def test_an_organ_that_is_not_a_string_is_refused_by_name_unread(self, organ):
        # Its type is checked first, so an array is never compared element-wise.
        with pytest.raises(ConfigurationError, match="^DoseTruncation.organ must be one of dose_sup_pcm, "):
            DoseTruncation(organ=organ, max_gy=50.0)

    @pytest.mark.parametrize("min_gy,max_gy", [(0.0, 81.0), (-1.0, 50.0), (-5e-324, 50.0), (50.0, 50.0)])
    def test_truncation_bounds_outside_the_dose_range_name_its_cap(self, min_gy, max_gy):
        with pytest.raises(ConfigurationError, match="^truncation bounds must satisfy 0 <= min < max <= 80$"):
            DoseTruncation("dose_sup_pcm", max_gy, min_gy)

    @pytest.mark.parametrize("max_gy,refused", [(30.0, True), (36.0, True), (38.0, False), (50.0, False)])
    def test_a_truncation_window_one_draw_rarely_hits_is_refused(self, max_gy, refused):
        if refused:
            with pytest.raises(ConfigurationError, match=rf"nasopharynx\] dose_sup_pcm: .* \[0, {max_gy:g}\] Gy"):
                DoseTruncation("dose_sup_pcm", max_gy)
        else:
            shift = ViolationShift(support_truncation=DoseTruncation("dose_sup_pcm", max_gy))
            assert generate(GeneratorConfig(n_pre=40, n_post=20, shift=shift)).pre.photon[:, 0].max() <= max_gy


class TestWriteWorld:
    def test_writes_cohorts_and_truth(self, tmp_path, small_world):
        paths = write_world(small_world, tmp_path)
        assert paths["pre"].is_file() and paths["post"].is_file()
        import json

        truth = json.loads(paths["truth"].read_text(encoding="utf-8"))
        assert truth["n_treated"] == len(small_world.post.treated())
        assert truth["config"]["seed"] == small_world.config.seed

    def test_truth_holds_true_att_on_each_scale_bit_for_bit(self, tmp_path, small_world):
        import json

        truth = json.loads(write_world(small_world, tmp_path)["truth"].read_text(encoding="utf-8"))
        assert truth["true_att"] == {scale.value: true_att(small_world, scale) for scale in EffectScale}
        assert list(truth["true_att"]) == ["rd", "rr", "or"]

    def test_a_world_that_cannot_be_written_leaves_no_file(self, tmp_path, small_world):
        post = small_world.post
        nobody_treated = dataclasses.replace(post, treatment=np.full(len(post), Treatment.STANDARD.value),
                                             outcome=post.y0)
        world = dataclasses.replace(small_world, post=nobody_treated)
        with pytest.raises(EstimandError, match="no target-treated"):
            write_world(world, tmp_path)
        assert list(tmp_path.iterdir()) == []


def assert_draws_match_the_oracle(loc_codes, truncation, seeds):
    """Each seed's draws alone, and all seeds' draws as one stack, against the oracle's draws for that seed."""
    seeds = list(seeds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    oracles = [np.random.default_rng(seed) for seed in seeds]
    stacked = _draw_doses(rngs, np.tile(loc_codes, (len(seeds), 1)), truncation)
    for seed, rng, oracle, got in zip(seeds, rngs, oracles, stacked):
        want = masked_draw_doses(oracle, loc_codes, truncation)
        assert np.array_equal(got, want)
        assert rng.random() == oracle.random()  # both left the stream at the same place
        alone = np.random.default_rng(seed)
        assert np.array_equal(_draw_doses([alone], loc_codes[None], truncation)[0], want)


@pytest.mark.parametrize("truncation", [
    None,
    DoseTruncation(organ="dose_sup_pcm", max_gy=50.0),
    DoseTruncation(organ="dose_inf_pcm", max_gy=45.0, min_gy=30.0),
    DoseTruncation(organ="dose_sup_pcm", max_gy=80.0, min_gy=62.0),
])
def test_dose_draws_match_whole_array_rejection(truncation):
    assert_draws_match_the_oracle(np.random.default_rng(1).choice(4, size=500), truncation, range(5))


def test_dose_draws_in_a_narrow_window_match_whole_array_rejection():
    # Below 40 Gy a nasopharynx patient's dose_sup_pcm is drawn about 6000 times.
    loc_codes = np.random.default_rng(1).choice(4, size=200)
    assert_draws_match_the_oracle(loc_codes, DoseTruncation(organ="dose_sup_pcm", max_gy=40.0), range(1))


def test_a_scaled_standard_normal_is_the_normal_draw_bit_for_bit():
    cells = np.random.default_rng(2).choice(4, size=50_000)
    means, sds = _DOSE_MEANS[cells].ravel(), _DOSE_SDS[cells].ravel()
    rng, oracle = np.random.default_rng(3), np.random.default_rng(3)
    assert means.size == 200_000
    assert np.array_equal(means + sds * rng.standard_normal(means.size), oracle.normal(means, sds))
    assert rng.random() == oracle.random()


# The lab's five scenario shifts, and a dose window below 40 Gy whose rarest
# cells need thousands of rejection passes.
RANGE_SHIFTS = {
    **{name.value: shift for name, shift in DEFAULT_SHIFTS.items()},
    "narrow_window": ViolationShift(support_truncation=DoseTruncation("dose_sup_pcm", 40.0)),
}


def assert_same_world(got, want):
    """Every cohort field equal bit for bit, with its dtype, shape and read-only flag; the same config."""
    for period in ("pre", "post"):
        got_cohort, want_cohort = getattr(got, period), getattr(want, period)
        for name in _COHORT_FIELDS:
            a, b = getattr(got_cohort, name), getattr(want_cohort, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (period, name)
            assert not a.flags.writeable, (period, name)
            same = a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes()
            assert same, (period, name)
    assert got.config == want.config


class TestRangeGenerator:
    @pytest.mark.parametrize("n_worlds", [1, 2, 5, 9])
    @pytest.mark.parametrize("shift", RANGE_SHIFTS.values(), ids=RANGE_SHIFTS.keys())
    def test_each_world_of_a_range_is_the_reference_world(self, shift, n_worlds):
        configs = [GeneratorConfig(n_pre=37, n_post=23, seed=seed, shift=shift) for seed in range(n_worlds)]
        worlds = generate_range(configs)
        assert len(worlds) == n_worlds
        for config, world in zip(configs, worlds):
            assert world.config is config
            assert_same_world(world, reference_generate(config))

    def test_default_worlds_at_lab_seeds_are_the_reference_worlds(self):
        from attlab.rng import derive_seed

        configs = [GeneratorConfig(seed=derive_seed(1, r), shift=RANGE_SHIFTS["misspecification"]) for r in range(9)]
        for config, world in zip(configs, generate_range(configs)):
            assert_same_world(world, reference_generate(config))

    @pytest.mark.parametrize("shift", RANGE_SHIFTS.values(), ids=RANGE_SHIFTS.keys())
    def test_a_world_does_not_depend_on_its_range(self, shift):
        def config(seed):
            return GeneratorConfig(n_pre=37, n_post=23, seed=seed, shift=shift)

        alone = generate(config(7))
        for seeds in ([3, 7, 1], [7, 0], [4, 4, 7, 7]):
            for world in generate_range([config(seed) for seed in seeds]):
                if world.config.seed == 7:
                    assert_same_world(world, alone)

    def test_the_worlds_of_a_range_share_the_fields_they_hold_alike(self):
        first, second = generate_range([GeneratorConfig(n_pre=37, n_post=23, seed=seed) for seed in (0, 1)])
        shared = {"pre": ("ids", "post", "proton", "has_proton", "treatment"), "post": ("ids", "post", "has_proton")}
        for period, names in shared.items():
            for name in names:
                assert getattr(getattr(first, period), name) is getattr(getattr(second, period), name), (period, name)

    @pytest.mark.parametrize("shift", RANGE_SHIFTS.values(), ids=RANGE_SHIFTS.keys())
    def test_each_cohort_of_a_range_is_the_checked_construction_of_its_fields(self, shift):
        # A range builds its cohorts unchecked and uncopied; the constructor would accept and keep the same arrays.
        worlds = generate_range([GeneratorConfig(n_pre=37, n_post=23, seed=seed, shift=shift) for seed in range(3)])
        for cohort in (c for world in worlds for c in (world.pre, world.post)):
            checked = Cohort(**{name: getattr(cohort, name) for name in _COHORT_FIELDS})
            for name in _COHORT_FIELDS:
                made, kept = getattr(cohort, name), getattr(checked, name)
                np.testing.assert_array_equal(made, kept, err_msg=name)
                assert made.dtype == kept.dtype
                assert not made.flags.writeable and not kept.flags.writeable

    def test_generate_is_a_range_of_one(self):
        config = GeneratorConfig(n_pre=37, n_post=23, seed=4)
        (world,) = generate_range([config])
        assert_same_world(generate(config), world)

    @pytest.mark.parametrize("name, value", [
        ("n_pre", 38),
        ("n_post", 24),
        ("selection_threshold", 0.2),
        ("shift", ViolationShift(secular_dose_drift=5.0)),
    ])
    def test_configs_that_differ_in_more_than_the_seed_are_refused(self, name, value):
        config = GeneratorConfig(n_pre=37, n_post=23)
        other = dataclasses.replace(config, seed=1, **{name: value})
        with pytest.raises(ConfigurationError, match=f"differ only in seed, not in {name}$"):
            generate_range([config, dataclasses.replace(config, seed=2), other])


@settings(max_examples=60)
@given(
    n_pre=st.integers(1, 40),
    n_post=st.integers(1, 40),
    seed=st.integers(0, 2**63 - 1),
    threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    strengths=st.tuples(*[st.floats(-1e12, 1e12)] * 3),
    truncation=st.sampled_from([None, DoseTruncation("dose_sup_pcm", 50.0),
                                DoseTruncation("dose_inf_pcm", 45.0, 30.0)]),
)
def test_every_valid_config_generates_a_world(n_pre, n_post, seed, threshold, strengths, truncation):
    # Generation raises nothing on a valid config, not even at strengths that
    # push every risk to 0 or 1, so a lab world can fail only in its fit or
    # its estimate.
    drift, confounder, amplitude = strengths
    shift = ViolationShift(secular_dose_drift=drift, unmeasured_confounder_strength=confounder,
                           nonlinearity_amplitude=amplitude, support_truncation=truncation)
    config = GeneratorConfig(n_pre=n_pre, n_post=n_post, seed=seed, selection_threshold=threshold, shift=shift)
    world = generate(config)
    assert (len(world.pre), len(world.post)) == (n_pre, n_post)
