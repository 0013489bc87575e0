import csv
import dataclasses
import json

import pytest

import attlab.violations as viol
from attlab.errors import ConfigurationError
from attlab.estimator import BootstrapConfig
from attlab.synth import GeneratorConfig, ViolationShift
from attlab.violations import (
    DEFAULT_SHIFTS,
    ReplicateOutcome,
    Scenario,
    ScenarioName,
    run_scenario,
    run_suite,
    standard_scenario,
    write_suite,
)

from conftest import set_usable_cpus

SMALL_GEN = GeneratorConfig(n_pre=250, n_post=120)


def small_scenario(name, n_replicates=8, seed=77, **kwargs):
    return Scenario(
        name=name,
        shift=DEFAULT_SHIFTS[name],
        n_replicates=n_replicates,
        seed=seed,
        generator=SMALL_GEN,
        **kwargs,
    )


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

    # Each replicate overwrites these with the scenario's own, so a value set on them would be ignored.
    def test_a_generator_shift_is_refused(self):
        generator = GeneratorConfig(shift=ViolationShift(secular_dose_drift=20.0))
        with pytest.raises(ConfigurationError, match=r"generator\.shift .*scenario's shift instead"):
            standard_scenario(ScenarioName.BASELINE, n_replicates=2, generator=generator)

    def test_a_generator_seed_is_refused(self):
        with pytest.raises(ConfigurationError, match=r"generator\.seed must be 0, got 99: .*scenario seed"):
            standard_scenario(ScenarioName.BASELINE, n_replicates=2, generator=GeneratorConfig(seed=99))

    def test_a_bootstrap_seed_is_refused(self):
        bootstrap = BootstrapConfig(n_replicates=100, seed=7)
        with pytest.raises(ConfigurationError, match=r"bootstrap\.seed must be 0, got 7: .*scenario seed"):
            standard_scenario(ScenarioName.BASELINE, n_replicates=2, bootstrap=bootstrap)

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
        scenario = small_scenario(
            ScenarioName.BASELINE, n_replicates=4, bootstrap=BootstrapConfig(n_replicates=120, seed=0)
        )
        report = run_scenario(scenario)
        assert report.coverage is not None
        assert 0.0 <= report.coverage <= 1.0

    def test_failure_budget_enforced(self):
        # A 12-row development cohort cannot support a 9-column model: the
        # one-hot block keeps collapsing, so nearly every replicate fails.
        from attlab.errors import ScenarioError

        tiny = dataclasses.replace(SMALL_GEN, n_pre=12, n_post=40)
        scenario = Scenario(
            name=ScenarioName.BASELINE, shift=ViolationShift(), n_replicates=6, seed=5, generator=tiny
        )
        with pytest.raises(ScenarioError):
            run_scenario(scenario)

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
        scenario = small_scenario(ScenarioName.BASELINE, n_replicates=2,
                                  bootstrap=BootstrapConfig(n_replicates=100, seed=0))
        assert run_scenario(scenario, threads=threads).coverage is not None
        assert in_process_pool == ([2] if threads > 1 else [])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_progress_every_50_replicates_on_both_paths(self, monkeypatch, in_process_pool, threads):
        set_usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(viol, "_run_replicate", lambda scenario, r: ReplicateOutcome(
            estimate=float(r), truth=0.0, nc_difference=None, verdict="no_flags", covered=None, failed=False))
        messages = []
        report = run_scenario(small_scenario(ScenarioName.BASELINE, n_replicates=120), threads=threads,
                              progress=messages.append)
        assert messages == ["baseline: replicate 50/120", "baseline: replicate 100/120"]
        assert in_process_pool == ([2] if threads > 1 else [])
        assert report.mean_estimate == sum(range(120)) / 120

    def test_nc_aggregates_only_worlds_with_a_negative_control_group(self, tmp_path):
        # A tiny threshold selects nearly every post patient, so some worlds
        # have no standard-treated group for the negative control.
        from attlab.violations import _run_replicate

        scenario = standard_scenario(
            ScenarioName.BASELINE, n_replicates=5, generator=GeneratorConfig(n_post=20, selection_threshold=0.001)
        )
        nc = [_run_replicate(scenario, r).nc_difference for r in range(5)]
        assert None in nc
        with_group = [d for d in nc if d is not None]
        result = run_suite([scenario])
        (report,) = result.reports
        assert report.mean_nc_difference == pytest.approx(sum(with_group) / len(with_group), abs=1e-12)
        assert report.nc_negative_fraction == sum(d < 0.0 for d in with_group) / len(with_group)
        write_suite(result, tmp_path)

    def test_no_negative_control_group_anywhere_writes_null(self, tmp_path):
        scenario = standard_scenario(
            ScenarioName.BASELINE, n_replicates=3, generator=GeneratorConfig(n_post=5, selection_threshold=0.001)
        )
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


class TestSuite:
    def test_empty_suite_rejected(self):
        with pytest.raises(ConfigurationError):
            run_suite([])

    def test_identical_suites_agree(self):
        scenarios = [small_scenario(ScenarioName.BASELINE, n_replicates=5)]
        assert run_suite(scenarios) == run_suite(scenarios)

    def test_scenario_failures_do_not_abort_others(self):
        tiny = dataclasses.replace(SMALL_GEN, n_pre=12, n_post=40)
        bad = Scenario(
            name=ScenarioName.BASELINE, shift=ViolationShift(), n_replicates=6, seed=5, generator=tiny
        )
        good = small_scenario(ScenarioName.MISSPECIFICATION, n_replicates=5)
        result = run_suite([bad, good])
        assert len(result.reports) == 1
        assert result.reports[0].scenario == "misspecification"
        assert len(result.failures) == 1
        assert result.failures[0][0] == "baseline"

    def test_worlds_with_no_one_treated_are_counted_as_failures(self):
        # A quadratic term of amplitude -1e12 makes every risk 0, so nobody
        # benefits, nobody is selected, and each world's ATT is undefined.
        scenario = Scenario(
            name=ScenarioName.MISSPECIFICATION,
            shift=ViolationShift(nonlinearity_amplitude=-1e12),
            n_replicates=3,
            generator=GeneratorConfig(n_pre=60, n_post=30),
        )
        result = run_suite([scenario])
        assert result.reports == ()
        assert result.failures == (
            ("misspecification", "scenario misspecification: 3/3 replicates failed (first error: no treated "
             "patients: the ATT is undefined on an empty sample)"),
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
        assert lines[0].startswith("scenario,")


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
