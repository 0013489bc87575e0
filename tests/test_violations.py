import csv
import dataclasses
import json
import re
from functools import partial

import numpy as np
import pytest

import attlab.violations as viol
from attlab.diagnostics import positivity_report
from attlab.errors import (
    CollinearityError,
    ConfigurationError,
    EstimandError,
    NotConvergedError,
    ScenarioError,
    SeparationError,
    StatisticalError,
)
from attlab.estimator import BootstrapConfig, EffectScale, bootstrap_ci, estimate_att
from attlab.glm import PlanSource, fit_model, predict_risk
from attlab.rng import derive_seed
from attlab.synth import GeneratorConfig, ViolationShift, generate, true_att, write_world
from attlab.violations import (
    ReplicateOutcome,
    Scenario,
    ScenarioFailure,
    ScenarioName,
    run_scenario,
    run_suite,
    standard_scenario,
    write_suite,
)

from conftest import set_usable_cpus
from synth_reference import reference_generate


def small_scenario(name, n_replicates=8, seed=77, **kwargs):
    return standard_scenario(name, n_replicates=n_replicates, seed=seed, n_pre=250, n_post=120, **kwargs)


# The configs that keep a seed, each given the other fields it needs.
SEEDED_CONFIGS = {
    "GeneratorConfig": GeneratorConfig,
    "BootstrapConfig": partial(BootstrapConfig, n_replicates=200),
    "Scenario": partial(Scenario, name=ScenarioName.BASELINE, shift=ViolationShift()),
}


class TestScenarioConstruction:
    def test_baseline_must_be_neutral(self):
        with pytest.raises(ConfigurationError):
            Scenario(name=ScenarioName.BASELINE, shift=ViolationShift(secular_dose_drift=1.0))

    def test_non_baseline_must_not_be_neutral(self):
        with pytest.raises(ConfigurationError):
            Scenario(name=ScenarioName.MISSPECIFICATION, shift=ViolationShift())

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            standard_scenario(ScenarioName.BASELINE, n_replicates=2, seed=-1)

    # One check keeps every config's seed: a float or a bool is refused, not truncated.
    @pytest.mark.parametrize("name", SEEDED_CONFIGS)
    @pytest.mark.parametrize("seed", [1.5, 2.0, 0.5, True, False, np.bool_(True), "1", None, -1])
    def test_a_seed_that_is_not_a_non_negative_integer_is_refused(self, name, seed):
        with pytest.raises(ConfigurationError, match=rf"^{name}\.seed must be a non-negative integer, got "):
            SEEDED_CONFIGS[name](seed=seed)

    @pytest.mark.parametrize("name", SEEDED_CONFIGS)
    def test_a_numpy_integer_seed_is_kept_as_a_python_int(self, name):
        config = SEEDED_CONFIGS[name]
        for numpy_seed in (np.int64(7), np.uint32(7)):
            kept = config(seed=numpy_seed)
            assert type(kept.seed) is int and kept == config(seed=7)

    def test_a_numpy_integer_seed_generates_and_echoes_its_value(self, tmp_path):
        world = generate(GeneratorConfig(n_pre=60, n_post=40, seed=np.int64(3)))
        same = generate(GeneratorConfig(n_pre=60, n_post=40, seed=3))
        np.testing.assert_array_equal(world.pre.photon, same.pre.photon)
        write_world(world, tmp_path)
        assert json.loads((tmp_path / "truth.json").read_text())["config"]["seed"] == 3

    # Checked by the world and bootstrap configs they feed, with those configs' messages.
    @pytest.mark.parametrize("fields, message", [
        ({"n_pre": 0}, "GeneratorConfig.n_pre must be a positive integer, got 0"),
        ({"n_post": 0}, "GeneratorConfig.n_post must be a positive integer, got 0"),
        ({"selection_threshold": 1.0}, r"GeneratorConfig.selection_threshold must be a real in \(0, 1\), got 1.0"),
        ({"boot_replicates": 50}, "BootstrapConfig.n_replicates must be an integer >= 100, got 50"),
    ], ids=["n_pre", "n_post", "selection_threshold", "boot_replicates"])
    def test_sizes_threshold_and_bootstrap_replicates_are_checked(self, fields, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            standard_scenario(ScenarioName.BASELINE, n_replicates=2, **fields)

    def test_catalog_covers_every_scenario(self):
        for name in ScenarioName:
            scenario = standard_scenario(name, n_replicates=2, seed=1)
            assert scenario.name is name


class TestRunScenario:
    def test_identical_scenarios_give_identical_reports(self):
        a = run_scenario(small_scenario(ScenarioName.BASELINE))
        b = run_scenario(small_scenario(ScenarioName.BASELINE))
        assert a == b

    def test_threads_do_not_change_the_report(self):
        serial = run_scenario(small_scenario(ScenarioName.TRANSPORTABILITY_DRIFT), threads=1)
        parallel = run_scenario(small_scenario(ScenarioName.TRANSPORTABILITY_DRIFT), threads=2)
        assert serial == parallel

    def test_coverage_reported_when_bootstrap_configured(self):
        scenario = small_scenario(ScenarioName.BASELINE, n_replicates=4, boot_replicates=120)
        report = run_scenario(scenario)
        assert report.coverage is not None
        assert 0.0 <= report.coverage <= 1.0

    def test_failure_budget_enforced(self):
        # A 12-row development cohort cannot support a 9-column model: the
        # one-hot block keeps collapsing, so nearly every replicate fails.
        from attlab.errors import ScenarioError

        scenario = Scenario(
            name=ScenarioName.BASELINE, shift=ViolationShift(), n_replicates=6, seed=5, n_pre=12, n_post=40
        )
        with pytest.raises(ScenarioError):
            run_scenario(scenario)

    @staticmethod
    def stubbed_run(monkeypatch, n_replicates, failures):
        """``run_scenario`` of ``n_replicates`` stub worlds, the first ``failures`` of them failed."""
        monkeypatch.setattr(viol, "_run_range", lambda scenario, replicates: [
            EstimandError("no ATT") if r < failures else ReplicateOutcome(
                estimate=float(r), truth=0.0, nc_difference=None, verdict="no_flags", covered=None)
            for r in replicates])
        return run_scenario(small_scenario(ScenarioName.BASELINE, n_replicates=n_replicates))

    def test_the_failure_budget_is_a_tenth_of_the_replicates(self, monkeypatch):
        assert self.stubbed_run(monkeypatch, 20, 2).n_failed == 2
        with pytest.raises(ScenarioError, match=r"^scenario baseline: 3/20 replicates failed \(first error: no ATT\)$"):
            self.stubbed_run(monkeypatch, 20, 3)

    def test_one_world_has_no_bias_spread(self, monkeypatch):
        assert self.stubbed_run(monkeypatch, 1, 0).sd_bias == 0.0

    def test_replicate_counts_reconcile(self):
        report = run_scenario(small_scenario(ScenarioName.IGNORABILITY_CONFOUNDER))
        assert sum(report.verdict_counts.values()) + report.n_failed == report.n_replicates

    def test_threads_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario(small_scenario(ScenarioName.BASELINE, n_replicates=2), threads=0)

    def test_workers_capped_at_cpu_count(self, monkeypatch, in_process_pool):
        set_usable_cpus(monkeypatch, 3)
        run_scenario(small_scenario(ScenarioName.BASELINE, n_replicates=4), threads=64)
        assert in_process_pool == [3]

    def test_one_usable_cpu_starts_no_pool(self, monkeypatch, in_process_pool):
        set_usable_cpus(monkeypatch, 1)
        run_scenario(small_scenario(ScenarioName.BASELINE, n_replicates=2), threads=2)
        assert in_process_pool == []

    # Each world's bootstrap runs in the process that runs the world: a pool
    # per world would put more processes than CPUs on the machine.
    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_worlds_bootstrap_starts_no_pool(self, monkeypatch, in_process_pool, threads):
        set_usable_cpus(monkeypatch, 2)
        scenario = small_scenario(ScenarioName.BASELINE, n_replicates=2, boot_replicates=100)
        assert run_scenario(scenario, threads=threads).coverage is not None
        assert in_process_pool == ([2] if threads > 1 else [])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_progress_every_50_replicates_on_both_paths(self, monkeypatch, in_process_pool, threads):
        set_usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(viol, "_run_range", lambda scenario, replicates: [ReplicateOutcome(
            estimate=float(r), truth=0.0, nc_difference=None, verdict="no_flags", covered=None)
            for r in replicates])
        messages = []
        report = run_scenario(small_scenario(ScenarioName.BASELINE, n_replicates=120), threads=threads,
                              progress=messages.append)
        assert messages == ["baseline: replicate 50/120", "baseline: replicate 100/120"]
        assert in_process_pool == ([2] if threads > 1 else [])
        assert report.mean_estimate == sum(range(120)) / 120

    def test_nc_aggregates_only_worlds_with_a_negative_control_group(self, tmp_path):
        # A tiny threshold selects nearly every post patient, so some worlds
        # have no standard-treated group for the negative control.
        from attlab.violations import _run_range

        scenario = standard_scenario(ScenarioName.BASELINE, n_replicates=5, n_post=20, selection_threshold=0.001)
        nc = [outcome.nc_difference for outcome in _run_range(scenario, range(5))]
        assert None in nc
        with_group = [d for d in nc if d is not None]
        result = run_suite([scenario])
        (report,) = result.reports
        assert report.mean_nc_difference == pytest.approx(sum(with_group) / len(with_group), abs=1e-12)
        assert report.nc_negative_fraction == sum(d < 0.0 for d in with_group) / len(with_group)
        write_suite(result, tmp_path)

    def test_no_negative_control_group_anywhere_writes_null(self, tmp_path):
        scenario = standard_scenario(ScenarioName.BASELINE, n_replicates=3, n_post=5, selection_threshold=0.001)
        result = run_suite([scenario])
        (report,) = result.reports
        assert report.mean_nc_difference is None
        assert report.nc_negative_fraction is None
        paths = write_suite(result, tmp_path)
        payload = json.loads(paths["json"].read_text(encoding="utf-8"))
        assert payload["reports"][0]["mean_nc_difference"] is None
        assert payload["reports"][0]["nc_negative_fraction"] is None
        with open(paths["csv"], encoding="utf-8", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["mean_nc_difference"] == ""
        assert row["nc_negative_fraction"] == ""


def reference_replicate(scenario, r):
    """World ``r`` generated, fitted and estimated alone: the lab's per-world loop before it generated and fitted
    its worlds in ranges; kept as its reference. It generates with the tests' one-world reference generator, and
    returns the world's outcome or the ``StatisticalError`` that ended it."""
    config = GeneratorConfig(n_pre=scenario.n_pre, n_post=scenario.n_post, seed=derive_seed(scenario.seed, r),
                             selection_threshold=scenario.selection_threshold, shift=scenario.shift)
    try:
        world = reference_generate(config)
        treated = world.post.treated()
        standard = world.post.standard()
        fit = fit_model(world.pre)
        if not fit.converged:
            raise NotConvergedError("outcome model did not converge")
        estimate = estimate_att(treated, fit, EffectScale.RISK_DIFFERENCE)
        truth = true_att(world, EffectScale.RISK_DIFFERENCE)

        nc_difference = None
        if standard:
            nc_predictions = predict_risk(fit, standard, PlanSource.PHOTON)
            nc_outcomes = standard.outcome.astype(float)
            nc_difference = float(np.mean(nc_outcomes) - np.mean(nc_predictions))

        verdict = positivity_report(world.pre, treated).verdict.value

        covered = None
        if scenario.boot_replicates is not None:
            boot = BootstrapConfig(n_replicates=scenario.boot_replicates, seed=derive_seed(scenario.seed, r, 1))
            (interval,) = bootstrap_ci(world.pre, treated, fit, (EffectScale.RISK_DIFFERENCE,), boot)
            covered = bool(interval.ci_low <= truth <= interval.ci_high)
        return ReplicateOutcome(estimate=estimate, truth=truth, nc_difference=nc_difference, verdict=verdict,
                                covered=covered)
    except StatisticalError as exc:
        return exc


def comparable(outcome):
    """A world's outcome as is, or its error as its class and message."""
    return (type(outcome), str(outcome)) if isinstance(outcome, StatisticalError) else outcome


# A 12-patient development cohort for a 9-column model: at seed 4 its worlds
# fail by collinearity, by separation, by outcomes with no event and by not
# converging, among worlds that fit.
FAILING = Scenario(name=ScenarioName.BASELINE, shift=ViolationShift(), n_replicates=17, seed=4, n_pre=12,
                   n_post=40)


class TestReplicateRanges:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [1, 10, 17])
    @pytest.mark.parametrize("kind", ["default_drift", "truncation_with_bootstrap", "failing"])
    def test_outcomes_equal_the_per_world_loop(self, monkeypatch, in_process_pool, threads, n, kind):
        set_usable_cpus(monkeypatch, 2)
        if kind == "failing":
            scenario = dataclasses.replace(FAILING, n_replicates=n)
        elif kind == "default_drift":  # default worlds: 9 to a range on one worker
            scenario = standard_scenario(ScenarioName.TRANSPORTABILITY_DRIFT, n_replicates=n, seed=3)
        else:
            scenario = small_scenario(ScenarioName.POSITIVITY_TRUNCATION, n_replicates=n, boot_replicates=100)
        want = [reference_replicate(scenario, r) for r in range(n)]

        seen, ranges = [], []
        run_range = viol._run_range

        def recording(scenario, replicates):
            ranges.append(replicates)
            outcomes = run_range(scenario, replicates)
            seen.extend(outcomes)
            return outcomes

        monkeypatch.setattr(viol, "_run_range", recording)
        try:
            run_scenario(scenario, threads=threads)
        except ScenarioError:
            pass
        assert [comparable(o) for o in seen] == [comparable(o) for o in want]
        assert [r for rng in ranges for r in rng] == list(range(n))
        if kind == "default_drift":
            assert max(map(len, ranges)) <= 9
            assert threads > 1 or len(ranges) == -(-n // 9)  # and no more ranges than that takes
        if kind == "failing" and n == 17:
            assert {type(o) for o in seen if isinstance(o, StatisticalError)} == {
                CollinearityError, SeparationError, NotConvergedError}
            errors = {re.split("[:;]", str(o))[0] for o in seen if isinstance(o, StatisticalError)}
            assert errors == {"design matrix is rank deficient", "complete or quasi-complete separation",
                              "every outcome is 0", "outcome model did not converge"}


@pytest.mark.parametrize("name", list(ScenarioName), ids=[name.value for name in ScenarioName])
def test_a_worlds_truth_is_its_true_att(name):
    scenario = small_scenario(name, n_replicates=1)
    world = generate(scenario.world_config(derive_seed(scenario.seed, 0)))
    outcome = viol._finish_world(scenario, 0, world, fit_model(world.pre))
    assert isinstance(outcome, ReplicateOutcome)
    assert outcome.truth == true_att(world, EffectScale.RISK_DIFFERENCE)


def test_a_world_that_fails_after_its_fit_is_its_error_without_a_traceback():
    # A threshold no benefit reaches selects nobody, so the fitted world has no ATT.
    scenario = small_scenario(ScenarioName.BASELINE, n_replicates=1, selection_threshold=0.999)
    world = generate(scenario.world_config(derive_seed(scenario.seed, 0)))
    error = viol._finish_world(scenario, 0, world, fit_model(world.pre))
    assert type(error) is EstimandError and error.__traceback__ is None


class TestSuite:
    def test_empty_suite_rejected(self):
        with pytest.raises(ConfigurationError, match="^scenario suite is empty$"):
            run_suite([])

    def test_identical_suites_agree(self):
        scenarios = [small_scenario(ScenarioName.BASELINE, n_replicates=5)]
        assert run_suite(scenarios) == run_suite(scenarios)

    def test_scenario_failures_do_not_abort_others(self):
        bad = Scenario(name=ScenarioName.BASELINE, shift=ViolationShift(), n_replicates=6, seed=5, n_pre=12, n_post=40)
        good = small_scenario(ScenarioName.MISSPECIFICATION, n_replicates=5)
        result = run_suite([bad, good])
        assert len(result.reports) == 1
        assert result.reports[0].scenario == "misspecification"
        assert len(result.failures) == 1
        assert result.failures[0].scenario == "baseline"
        assert result.failures[0].error.startswith("scenario baseline: ")

    def test_worlds_with_no_one_treated_are_counted_as_failures(self):
        # A quadratic term of amplitude -1e12 makes every risk 0, so nobody
        # benefits, nobody is selected, and each world's ATT is undefined. No
        # pre patient has an event either, so the outcome model fails first.
        scenario = Scenario(
            name=ScenarioName.MISSPECIFICATION,
            shift=ViolationShift(nonlinearity_amplitude=-1e12),
            n_replicates=3,
            n_pre=60,
            n_post=30,
        )
        result = run_suite([scenario])
        assert result.reports == ()
        assert result.failures == (
            ScenarioFailure("misspecification", "scenario misspecification: 3/3 replicates failed (first error: "
                            "every outcome is 0: the maximum-likelihood estimate does not exist)"),
        )

    def test_baseline_has_smallest_bias_in_full_suite(self):
        # The truncation scenario's bias is a finite-sample extrapolation
        # effect an order of magnitude below the structurally biased
        # scenarios, so the baseline comparison against it needs thousands
        # of replicates to resolve; here baseline is compared against the
        # scenarios with a predicted bias direction, and the truncation row
        # is checked on its detection signature instead.
        scenarios = [small_scenario(name, n_replicates=40, seed=4242) for name in ScenarioName]
        result = run_suite(scenarios, threads=2)
        by_name = {r.scenario: r for r in result.reports}
        assert len(result.reports) == 5
        baseline = abs(by_name["baseline"].mean_bias)
        for other in ("transportability_drift", "ignorability_confounder", "misspecification"):
            assert baseline < abs(by_name[other].mean_bias)
        truncation = by_name["positivity_truncation"]
        assert truncation.verdict_counts.get("no_flags", 0) == 0

    def test_write_suite_outputs(self, tmp_path):
        result = run_suite([small_scenario(ScenarioName.BASELINE, n_replicates=4)])
        paths = write_suite(result, tmp_path)
        assert paths["json"].is_file()
        lines = paths["csv"].read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0] == ("scenario,n_replicates,n_failed,mean_bias,sd_bias,mean_estimate,mean_truth,rmse,coverage,"
                            "mean_nc_difference,nc_negative_fraction,verdict_no_flags,verdict_stochastic_concern,"
                            "verdict_structural_violation")


@pytest.mark.slow
def test_bias_magnitude_monotone_in_drift_strength():
    # Doubling the secular dose drift must not shrink the bias magnitude.
    biases = []
    for drift in (2.5, 5.0, 10.0):
        scenario = Scenario(
            name=ScenarioName.TRANSPORTABILITY_DRIFT,
            shift=ViolationShift(secular_dose_drift=drift),
            n_replicates=500,
            seed=88,
        )
        biases.append(abs(run_scenario(scenario, threads=2).mean_bias))
    assert biases[0] <= biases[1] <= biases[2]
