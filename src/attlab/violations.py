"""Monte Carlo violation lab.

Runs replicated generate / fit / estimate pipelines under each controlled
condition-violation scenario and aggregates bias against each replicate's
own ground truth, interval coverage when a bootstrap is configured, the
negative-control calibration signal, and positivity verdict frequencies.
Truth is recomputed per replicate from the latent risks of that replicate's
treated patients, so bias is measured against the sample-level estimand.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from .diagnostics import OverlapVerdict, positivity_report
from .errors import (ConfigurationError, Integer, NotConvergedError, ScenarioError, StatisticalError, check_fields,
                     checked)
from .estimator import BootstrapConfig, EffectScale, _group_means, bootstrap_ci, estimate_att
from .glm import ModelFit, ModelSpec, PlanSource, design_columns, fit_models
from .parallel import map_ranges
from .records import csv_bytes, json_bytes, write_outputs
from .rng import derive_seed, items_per_chunk
from .synth import DoseTruncation, GeneratedWorld, GeneratorConfig, ViolationShift, generate_range, true_att_of

MAX_SCENARIO_FAILURE_FRACTION = 0.10


class ScenarioName(Enum):
    BASELINE = "baseline"
    TRANSPORTABILITY_DRIFT = "transportability_drift"
    IGNORABILITY_CONFOUNDER = "ignorability_confounder"
    POSITIVITY_TRUNCATION = "positivity_truncation"
    MISSPECIFICATION = "misspecification"


# Default shift per scenario: one condition broken at a time, at a strength
# chosen to produce a clearly visible directional bias.
DEFAULT_SHIFTS: dict[ScenarioName, ViolationShift] = {
    ScenarioName.BASELINE: ViolationShift(),
    ScenarioName.TRANSPORTABILITY_DRIFT: ViolationShift(secular_dose_drift=5.0),
    ScenarioName.IGNORABILITY_CONFOUNDER: ViolationShift(unmeasured_confounder_strength=1.0),
    ScenarioName.POSITIVITY_TRUNCATION: ViolationShift(
        support_truncation=DoseTruncation(organ="dose_sup_pcm", max_gy=50.0)
    ),
    ScenarioName.MISSPECIFICATION: ViolationShift(nonlinearity_amplitude=0.8),
}


@dataclass(frozen=True)
class Scenario:
    """A violation scenario: its shift, the size of its worlds and how many it runs.

    Every world's outcome model is the default ``ModelSpec()``. Replicate
    ``r`` generates its world, and draws its bootstrap when
    ``boot_replicates`` is set (a ``FULL`` bootstrap, for coverage), from
    seeds derived from ``(seed, r)``.
    """

    name: ScenarioName
    shift: ViolationShift
    n_replicates: int = 500
    seed: int = 0
    n_pre: int = 750
    n_post: int = 300
    selection_threshold: float = 0.10
    boot_replicates: int | None = None

    def __post_init__(self):
        check_fields(self, name=ScenarioName, shift=ViolationShift, n_replicates=Integer(1), seed=Integer(0))
        if (self.name is ScenarioName.BASELINE) != self.shift.is_neutral():
            raise ConfigurationError(
                "baseline must carry an all-neutral shift and non-baseline scenarios a non-neutral one"
            )
        # The sizes, threshold and replicate count are checked by the configs they feed.
        self.world_config(0)
        if self.boot_replicates is not None:
            self.bootstrap_config(0)

    def world_config(self, seed: int) -> GeneratorConfig:
        return GeneratorConfig(n_pre=self.n_pre, n_post=self.n_post, seed=seed,
                               selection_threshold=self.selection_threshold, shift=self.shift)

    def bootstrap_config(self, seed: int) -> BootstrapConfig:
        return BootstrapConfig(n_replicates=self.boot_replicates, seed=seed)


def standard_scenario(name: ScenarioName, **fields) -> Scenario:
    """A scenario from the built-in catalog of per-condition shifts; ``fields`` sets its other ``Scenario`` fields."""
    return Scenario(name=name, shift=DEFAULT_SHIFTS[checked(name, ScenarioName, "Scenario.name")], **fields)


@dataclass(frozen=True)
class ReplicateOutcome:
    estimate: float
    truth: float
    nc_difference: float | None  # None when the world has no standard-treated post patients
    verdict: str
    covered: bool | None


@dataclass(frozen=True)
class BiasReport:
    """One scenario's row of the bias report; its fields are the report's keys and columns, in order."""

    scenario: str
    n_replicates: int
    n_failed: int
    mean_bias: float
    sd_bias: float
    mean_estimate: float
    mean_truth: float
    rmse: float
    coverage: float | None
    mean_nc_difference: float | None
    nc_negative_fraction: float | None
    verdict_counts: dict[str, int]


def _finish_world(
    scenario: Scenario, r: int, world: GeneratedWorld, fit: ModelFit | StatisticalError
) -> ReplicateOutcome | StatisticalError:
    """The estimate / diagnose pass of world ``r``, given its development cohort's fit or the error fitting raised.

    Returns the world's outcome or the ``StatisticalError`` that ended it,
    its traceback dropped so that no failed world keeps its pass's frames alive.
    """
    if isinstance(fit, StatisticalError):
        return fit
    if not fit.converged:
        return NotConvergedError("outcome model did not converge")
    try:
        treated = world.post.treated()
        standard = world.post.standard()
        estimate = estimate_att(treated, fit, EffectScale.RISK_DIFFERENCE)
        truth = true_att_of(treated, EffectScale.RISK_DIFFERENCE)

        nc_difference = None
        if standard:
            observed, predicted, _ = _group_means(fit, standard, PlanSource.PHOTON)
            nc_difference = observed - predicted

        verdict = positivity_report(world.pre, treated).verdict.value

        covered: bool | None = None
        if scenario.boot_replicates is not None:
            boot = scenario.bootstrap_config(derive_seed(scenario.seed, r, 1))
            (interval,) = bootstrap_ci(world.pre, treated, fit, (EffectScale.RISK_DIFFERENCE,), boot)
            covered = bool(interval.ci_low <= truth <= interval.ci_high)
    except StatisticalError as exc:
        return exc.with_traceback(None)
    return ReplicateOutcome(estimate=estimate, truth=truth, nc_difference=nc_difference, verdict=verdict,
                            covered=covered)


def _run_range(scenario: Scenario, replicates: range) -> list[ReplicateOutcome | StatisticalError]:
    """The generate / fit / estimate / diagnose passes of the worlds in ``replicates``; a failed world is its error.

    The worlds are generated as one range (``generate_range``) and their
    development cohorts fitted as one stack (``fit_models``), so each world
    is the world, and gets the fit, it gets alone, and the outcomes of any
    split of a range are those of the whole range.
    """
    worlds = generate_range([scenario.world_config(derive_seed(scenario.seed, r)) for r in replicates])
    fits = fit_models([world.pre for world in worlds], ModelSpec())
    return [_finish_world(scenario, r, world, fit) for r, world, fit in zip(replicates, worlds, fits)]


def run_scenario(
    scenario: Scenario,
    threads: int = 1,
    progress: Callable[[str], None] | None = None,
) -> BiasReport:
    """Run all replicates of one scenario and aggregate.

    Replicate r draws everything from streams derived from (seed, r), and
    the worlds run in contiguous ranges whose development cohorts are fitted
    as one stack, each as it is alone, so the report is identical for any
    ``threads`` value; at most one worker per CPU the process may use is
    started (``parallel.map_ranges``).
    ``progress`` hears of every 50th replicate, in order, on either path.
    Raises ``ScenarioError`` if more than 10% of replicates fail.
    """
    checked(scenario, Scenario, "run_scenario.scenario")
    threads = checked(threads, Integer(1), "run_scenario.threads")
    checked(progress, Callable | None, "run_scenario.progress")
    n = scenario.n_replicates
    design_bytes = scenario.n_pre * len(design_columns(ModelSpec())) * 8
    ranges = map_ranges(partial(_run_range, scenario), n, threads, max_size=items_per_chunk(design_bytes))
    outcomes: list[ReplicateOutcome | StatisticalError] = []
    for range_outcomes in ranges:
        for outcome in range_outcomes:
            outcomes.append(outcome)
            if progress is not None and len(outcomes) % 50 == 0:
                progress(f"{scenario.name.value}: replicate {len(outcomes)}/{n}")

    failed = [o for o in outcomes if isinstance(o, StatisticalError)]
    if len(failed) > MAX_SCENARIO_FAILURE_FRACTION * n:
        raise ScenarioError(
            f"scenario {scenario.name.value}: {len(failed)}/{n} replicates failed (first error: {failed[0]})"
        )
    ok = [o for o in outcomes if isinstance(o, ReplicateOutcome)]
    bias = np.array([o.estimate - o.truth for o in ok])
    # Only worlds with a negative-control group carry an NC difference.
    nc = np.array([o.nc_difference for o in ok if o.nc_difference is not None])
    covered = [o.covered for o in ok if o.covered is not None]
    verdict_counts: dict[str, int] = {}
    for o in ok:
        verdict_counts[o.verdict] = verdict_counts.get(o.verdict, 0) + 1

    return BiasReport(
        scenario=scenario.name.value,
        n_replicates=n,
        n_failed=len(failed),
        mean_bias=float(np.mean(bias)),
        sd_bias=float(np.std(bias, ddof=1)) if len(ok) > 1 else 0.0,
        mean_estimate=float(np.mean([o.estimate for o in ok])),
        mean_truth=float(np.mean([o.truth for o in ok])),
        rmse=float(np.sqrt(np.mean(bias**2))),
        coverage=float(np.mean(covered)) if covered else None,
        mean_nc_difference=float(np.mean(nc)) if nc.size else None,
        nc_negative_fraction=float(np.mean(nc < 0.0)) if nc.size else None,
        verdict_counts=verdict_counts,
    )


@dataclass(frozen=True)
class ScenarioFailure:
    """A scenario that failed as a whole, and its error's message."""

    scenario: str
    error: str


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple[BiasReport, ...]
    failures: tuple[ScenarioFailure, ...]


def run_suite(
    scenarios,
    threads: int = 1,
    progress: Callable[[str], None] | None = None,
) -> SuiteResult:
    """Run several scenarios; per-scenario failures are reported, not fatal."""
    scenarios = checked(scenarios, tuple | list, "run_suite.scenarios")
    for i, scenario in enumerate(scenarios):
        checked(scenario, Scenario, f"run_suite.scenarios[{i}]")
    threads = checked(threads, Integer(1), "run_suite.threads")
    checked(progress, Callable | None, "run_suite.progress")
    if not scenarios:
        raise ConfigurationError("scenario suite is empty")
    reports: list[BiasReport] = []
    failures: list[ScenarioFailure] = []
    for scenario in scenarios:
        if progress is not None:
            progress(f"running scenario {scenario.name.value} ({scenario.n_replicates} replicates)")
        try:
            reports.append(run_scenario(scenario, threads=threads, progress=progress))
        except ScenarioError as exc:
            failures.append(ScenarioFailure(scenario.name.value, str(exc)))
    return SuiteResult(reports=tuple(reports), failures=tuple(failures))


def write_suite(result: SuiteResult, out_dir: str | Path) -> dict[str, Path]:
    """bias_report.json plus a flat one-row-per-scenario bias_report.csv, both rendered before either is opened.

    The csv has ``BiasReport``'s columns, its verdict counts spread over one
    ``verdict_<v>`` column per ``OverlapVerdict``, rendered by ``records.csv_bytes``.
    """
    checked(result, SuiteResult, "write_suite.result")
    columns = [f.name for f in fields(BiasReport) if f.name != "verdict_counts"]
    rows = [[getattr(report, c) for c in columns] + [report.verdict_counts.get(v.value, 0) for v in OverlapVerdict]
            for report in result.reports]
    table = csv_bytes(columns + [f"verdict_{v.value}" for v in OverlapVerdict], rows)
    paths = write_outputs(out_dir, {"bias_report.json": json_bytes(result), "bias_report.csv": table})
    return {"json": paths["bias_report.json"], "csv": paths["bias_report.csv"]}
