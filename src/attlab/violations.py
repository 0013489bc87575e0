"""Monte Carlo violation lab.

Runs replicated generate / fit / estimate pipelines under each controlled
condition-violation scenario and aggregates bias against each replicate's
own ground truth, interval coverage when a bootstrap is configured, the
negative-control calibration signal, and positivity verdict frequencies.
Truth is recomputed per replicate from the latent risks of that replicate's
treated patients, so bias is measured against the sample-level estimand.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .diagnostics import positivity_report
from .errors import ConfigurationError, ScenarioError, StatisticalError
from .estimator import BootstrapConfig, EffectScale, bootstrap_ci, estimate_att
from .glm import ModelSpec, PlanSource, fit_model, predict_risk
from .records import json_bytes, write_outputs
from .rng import derive_seed
from .synth import DoseTruncation, GeneratorConfig, ViolationShift, generate, true_att

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
    name: ScenarioName
    shift: ViolationShift
    n_replicates: int = 500
    seed: int = 0
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    spec: ModelSpec = field(default_factory=ModelSpec)
    bootstrap: BootstrapConfig | None = None

    def __post_init__(self):
        if self.n_replicates < 1:
            raise ConfigurationError("scenario needs at least one replicate")
        if self.seed < 0:
            raise ConfigurationError(f"scenario seed must be a non-negative integer, got {self.seed}")
        if (self.name is ScenarioName.BASELINE) != self.shift.is_neutral():
            raise ConfigurationError(
                "baseline must carry an all-neutral shift and non-baseline scenarios a non-neutral one"
            )
        # Each replicate replaces these with the scenario's own; a value set here would be ignored.
        if not self.generator.shift.is_neutral():
            raise ConfigurationError(
                "scenario generator.shift must be neutral: every replicate uses the scenario's shift instead"
            )
        if self.generator.seed != 0:
            raise ConfigurationError(
                f"scenario generator.seed must be 0, got {self.generator.seed}: replicate r uses a seed "
                "derived from the scenario seed and r instead"
            )
        if self.bootstrap is not None and self.bootstrap.seed != 0:
            raise ConfigurationError(
                f"scenario bootstrap.seed must be 0, got {self.bootstrap.seed}: replicate r uses a seed "
                "derived from the scenario seed and r instead"
            )


def standard_scenario(
    name: ScenarioName,
    *,
    n_replicates: int = 500,
    seed: int = 0,
    generator: GeneratorConfig | None = None,
    bootstrap: BootstrapConfig | None = None,
) -> Scenario:
    """A scenario from the built-in catalog of per-condition shifts."""
    return Scenario(
        name=name,
        shift=DEFAULT_SHIFTS[name],
        n_replicates=n_replicates,
        seed=seed,
        generator=generator if generator is not None else GeneratorConfig(),
        bootstrap=bootstrap,
    )


@dataclass(frozen=True)
class ReplicateOutcome:
    estimate: float
    truth: float
    nc_difference: float | None  # None when the world has no standard-treated post patients
    verdict: str
    covered: bool | None
    failed: bool
    error: str | None = None


@dataclass(frozen=True)
class BiasReport:
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

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "n_replicates": self.n_replicates,
            "n_failed": self.n_failed,
            "mean_bias": self.mean_bias,
            "sd_bias": self.sd_bias,
            "mean_estimate": self.mean_estimate,
            "mean_truth": self.mean_truth,
            "rmse": self.rmse,
            "coverage": self.coverage,
            "mean_nc_difference": self.mean_nc_difference,
            "nc_negative_fraction": self.nc_negative_fraction,
            "verdict_counts": dict(self.verdict_counts),
        }


CSV_COLUMNS = (
    "scenario",
    "n_replicates",
    "n_failed",
    "mean_bias",
    "sd_bias",
    "mean_estimate",
    "mean_truth",
    "rmse",
    "coverage",
    "mean_nc_difference",
    "nc_negative_fraction",
    "verdict_no_flags",
    "verdict_stochastic_concern",
    "verdict_structural_violation",
)


def _run_replicate(scenario: Scenario, r: int) -> ReplicateOutcome:
    """One generate / fit / estimate / diagnose pass; failures are data, not crashes."""
    world_seed = derive_seed(scenario.seed, r)
    config = replace(scenario.generator, seed=world_seed, shift=scenario.shift)
    try:
        world = generate(config)
        treated = world.post.treated()
        standard = world.post.standard()
        fit = fit_model(world.pre, scenario.spec)
        if not fit.converged:
            raise StatisticalError("outcome model did not converge")
        estimate = estimate_att(treated, fit, EffectScale.RISK_DIFFERENCE)
        truth = true_att(world, EffectScale.RISK_DIFFERENCE)

        nc_difference = None
        if standard:
            nc_predictions = predict_risk(fit, standard, PlanSource.PHOTON)
            nc_outcomes = standard.outcome.astype(float)
            nc_difference = float(np.mean(nc_outcomes) - np.mean(nc_predictions))

        verdict = positivity_report(world.pre, treated).verdict.value

        covered: bool | None = None
        if scenario.bootstrap is not None:
            boot = replace(scenario.bootstrap, seed=derive_seed(scenario.seed, r, 1))
            (interval,) = bootstrap_ci(
                world.pre, treated, scenario.spec, (EffectScale.RISK_DIFFERENCE,), boot, fit=fit
            )
            covered = bool(interval.ci_low <= truth <= interval.ci_high)
        return ReplicateOutcome(
            estimate=estimate,
            truth=truth,
            nc_difference=nc_difference,
            verdict=verdict,
            covered=covered,
            failed=False,
        )
    except StatisticalError as exc:
        return ReplicateOutcome(
            estimate=float("nan"),
            truth=float("nan"),
            nc_difference=float("nan"),
            verdict="failed",
            covered=None,
            failed=True,
            error=str(exc),
        )


def run_scenario(
    scenario: Scenario,
    threads: int = 1,
    progress: Callable[[str], None] | None = None,
) -> BiasReport:
    """Run all replicates of one scenario and aggregate.

    Replicate r draws everything from streams derived from (seed, r), so the
    report is identical for any ``threads`` value; at most one worker per
    CPU is started. ``progress`` hears of every 50th replicate, in order, on
    either path. Raises ``ScenarioError`` if more than 10% of replicates
    fail.
    """
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    workers = min(threads, os.cpu_count() or 1)
    n = scenario.n_replicates
    run = partial(_run_replicate, scenario)
    outcomes = []
    with contextlib.ExitStack() as stack:
        if workers > 1 and n > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(run, range(n), chunksize=max(1, n // (workers * 8)))
        else:
            results = map(run, range(n))
        for done, outcome in enumerate(results, 1):
            outcomes.append(outcome)
            if progress is not None and done % 50 == 0:
                progress(f"{scenario.name.value}: replicate {done}/{n}")

    failed = [o for o in outcomes if o.failed]
    if len(failed) > MAX_SCENARIO_FAILURE_FRACTION * n:
        raise ScenarioError(
            f"scenario {scenario.name.value}: {len(failed)}/{n} replicates failed "
            f"(first error: {failed[0].error})"
        )
    ok = [o for o in outcomes if not o.failed]
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
class SuiteResult:
    reports: tuple[BiasReport, ...]
    failures: tuple[tuple[str, str], ...]

    def to_json_dict(self) -> dict:
        return {
            "reports": [r.to_json_dict() for r in self.reports],
            "failures": [{"scenario": name, "error": msg} for name, msg in self.failures],
        }


def run_suite(
    scenarios,
    threads: int = 1,
    progress: Callable[[str], None] | None = None,
) -> SuiteResult:
    """Run several scenarios; per-scenario failures are reported, not fatal."""
    scenarios = list(scenarios)
    if not scenarios:
        raise ConfigurationError("scenario suite is empty")
    reports: list[BiasReport] = []
    failures: list[tuple[str, str]] = []
    for scenario in scenarios:
        if progress is not None:
            progress(f"running scenario {scenario.name.value} ({scenario.n_replicates} replicates)")
        try:
            reports.append(run_scenario(scenario, threads=threads, progress=progress))
        except ScenarioError as exc:
            failures.append((scenario.name.value, str(exc)))
    return SuiteResult(reports=tuple(reports), failures=tuple(failures))


def write_suite(result: SuiteResult, out_dir: str | Path) -> dict[str, Path]:
    """bias_report.json plus a flat one-row-per-scenario bias_report.csv, both rendered before either is opened."""
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in result.reports:
        writer.writerow(
            [
                report.scenario,
                report.n_replicates,
                report.n_failed,
                repr(report.mean_bias),
                repr(report.sd_bias),
                repr(report.mean_estimate),
                repr(report.mean_truth),
                repr(report.rmse),
                "" if report.coverage is None else repr(report.coverage),
                "" if report.mean_nc_difference is None else repr(report.mean_nc_difference),
                "" if report.nc_negative_fraction is None else repr(report.nc_negative_fraction),
                report.verdict_counts.get("no_flags", 0),
                report.verdict_counts.get("stochastic_concern", 0),
                report.verdict_counts.get("structural_violation", 0),
            ]
        )
    paths = write_outputs(
        out_dir,
        {"bias_report.json": json_bytes(result.to_json_dict()), "bias_report.csv": table.getvalue().encode("utf-8")},
    )
    return {"json": paths["bias_report.json"], "csv": paths["bias_report.csv"]}
