"""ATT estimation from counterfactual predictions, with bootstrap intervals.

The point estimator compares observed outcomes among target-treated
patients with their model-predicted outcomes under the standard treatment
(evaluated on the standard-treatment plan). Intervals come from patient
level resampling in one of two modes: ``FIXED_MODEL`` treats the outcome
model as given and resamples only the treated sample; ``FULL`` also
resamples the model-development cohort and refits per replicate, which
propagates model-development sampling variance into the interval.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from .errors import (
    ConfigurationError,
    EstimandError,
    Integer,
    StatisticalError,
    UnstableBootstrapError,
    check_fields,
    checked,
)
from .glm import (
    ModelFit,
    ModelSpec,
    PlanSource,
    build_design,
    design_columns,
    fit_model,
    predict_design,
    predict_risk,
    _check_stack,
    _refit_chunks,
)
from .parallel import map_ranges
from .records import Cohort, Role, require_role
from .rng import initial_states, resample_chunks, resampled_means

PERCENTILE_LO = 2.5
PERCENTILE_HI = 97.5
MAX_FAILURE_FRACTION = 0.05


class EffectScale(Enum):
    RISK_DIFFERENCE = "rd"
    RISK_RATIO = "rr"
    ODDS_RATIO = "or"


class BootstrapMode(Enum):
    FIXED_MODEL = "fixed"
    FULL = "full"


def odds(p: float) -> float:
    if p >= 1.0:
        raise EstimandError(f"odds undefined at probability {p}")
    return p / (1.0 - p)


@dataclass(frozen=True)
class BootstrapConfig:
    n_replicates: int = 2000
    seed: int = 0
    mode: BootstrapMode = BootstrapMode.FULL
    interval: str = field(default="percentile", init=False)  # the only interval there is, echoed in reports

    def __post_init__(self):
        check_fields(self, n_replicates=Integer(100), seed=Integer(0), mode=BootstrapMode)


@dataclass(frozen=True)
class AttEstimate:
    scale: EffectScale
    point: float
    ci_low: float
    ci_high: float
    n_treated: int
    mean_observed: float
    mean_predicted: float
    bootstrap: BootstrapConfig
    n_failed_replicates: int


def att_from_means(mean_observed: float, mean_predicted: float, scale: EffectScale) -> float:
    """Effect on the chosen scale from the two group means."""
    if scale is EffectScale.RISK_DIFFERENCE:
        return mean_observed - mean_predicted
    if scale is EffectScale.RISK_RATIO:
        if mean_predicted == 0.0:
            raise EstimandError("risk ratio undefined: mean predicted risk is 0")
        return mean_observed / mean_predicted
    if scale is EffectScale.ODDS_RATIO:
        if mean_observed in (0.0, 1.0):
            raise EstimandError(f"odds ratio undefined: observed event rate is {mean_observed}")
        if mean_predicted == 0.0:
            raise EstimandError("odds ratio undefined: mean predicted risk is 0")
        return odds(mean_observed) / odds(mean_predicted)
    raise ConfigurationError(f"att_from_means.scale must be an EffectScale, got {scale!r}")


def _check_treated(treated: Cohort, caller: str) -> Cohort:
    if not len(require_role(treated, Role.TREATED, caller)):
        raise EstimandError("no treated patients: the ATT is undefined on an empty sample")
    return treated


def _group_means(fit: ModelFit, group: Cohort, plan: PlanSource) -> tuple[float, float, np.ndarray]:
    """``group``'s observed event rate, its mean risk that ``fit`` predicts under ``plan``, and the predictions."""
    predictions = predict_risk(fit, group, plan)
    return float(np.mean(group.outcome)), float(np.mean(predictions)), predictions


def estimate_att(post_treated: Cohort, fit: ModelFit, scale: EffectScale) -> float:
    """Point estimate: observed event rate minus/over predicted counterfactual rate."""
    checked(fit, ModelFit, "estimate_att.fit")
    checked(scale, EffectScale, "estimate_att.scale")
    treated = _check_treated(post_treated, "estimate_att")
    mean_observed, mean_predicted, _ = _group_means(fit, treated, PlanSource.PHOTON)
    return att_from_means(mean_observed, mean_predicted, scale)


def _refit_means(
    X_pre: np.ndarray,
    y_pre: np.ndarray,
    X_post: np.ndarray,
    y_post: np.ndarray,
    states: np.ndarray,
    replicates: range,
) -> list[tuple[float, float]]:
    """The observed and predicted treated means of each full-bootstrap replicate in ``replicates``.

    Replicate ``r`` draws from row ``r`` of ``states``, the array that
    ``bootstrap_ci`` builds once per call (``rng.initial_states``) and hands
    to every range.
    Each chunk of replicates is refitted as one stack, every chunk in the
    same workspace; a replicate whose refit fails or does not converge is
    left out. The rest come in replicate order, as plain floats, each bit
    for bit what it is in any other split of the replicates.
    """
    means: list[tuple[float, float]] = []
    chunks = resample_chunks(states[replicates.start : replicates.stop], (len(y_pre), len(y_post)), X_pre.nbytes)
    for (_, idx_post), refits in _refit_chunks(X_pre, y_pre, chunks):
        ok = refits.converged
        idx_post = idx_post[ok]
        preds = predict_design(refits.beta[ok], X_post[idx_post])
        means.extend(zip(np.mean(y_post[idx_post], axis=1).tolist(), np.mean(preds, axis=1).tolist()))
    return means


def bootstrap_ci(
    pre: Cohort,
    post_treated: Cohort,
    fit: ModelFit,
    scales: Sequence[EffectScale],
    config: BootstrapConfig,
    *,
    workers: int = 1,
) -> tuple[AttEstimate, ...]:
    """Bootstrap intervals for the ATT of ``fit``, one ``AttEstimate`` per scale in ``scales``.

    ``fit`` is the outcome model fitted on the development cohort ``pre``;
    a ``FULL`` bootstrap refits its spec on each resample of ``pre``, so a
    fit without a spec raises ``ConfigurationError``. Replicate ``r`` draws
    from an RNG stream derived from ``(seed, r)``, so results do not depend
    on execution order. Each replicate keeps its two group means once and
    every scale is computed from them. A replicate whose refit fails is
    dropped on every scale; one whose effect is undefined on a scale is
    dropped on that scale only. More failures on a scale than
    ``MAX_FAILURE_FRACTION`` of the replicates raises
    ``UnstableBootstrapError``.

    A ``FULL`` bootstrap refits its replicates, in contiguous ranges, on up
    to ``workers`` processes (``parallel.map_ranges``); the result is the
    same for any ``workers``. The ``FIXED_MODEL`` one always runs here.
    """
    checked(fit, ModelFit, "bootstrap_ci.fit")
    checked(config, BootstrapConfig, "bootstrap_ci.config")
    workers = checked(workers, Integer(1), "bootstrap_ci.workers")
    scales = tuple(checked(scale, EffectScale, "bootstrap_ci.scales")
                   for scale in checked(scales, tuple | list, "bootstrap_ci.scales"))
    if not scales:
        raise ConfigurationError("bootstrap needs at least one effect scale")
    if fit.spec is None:
        raise ConfigurationError("bootstrap_ci needs a fit with a model spec: it builds designs from the cohorts")
    treated = _check_treated(post_treated, "bootstrap_ci")
    require_role(pre, Role.DEVELOPMENT, "bootstrap_ci")
    mean_observed, mean_predicted, predictions = _group_means(fit, treated, PlanSource.PHOTON)
    n_treated = len(treated)

    n = config.n_replicates
    replicate_means: list[tuple[float, float]] = []
    if config.mode is BootstrapMode.FULL:
        X_pre, _ = build_design(pre, fit.spec, PlanSource.PHOTON)
        y_pre = pre.outcome.astype(float)
        X_post, _ = build_design(treated, fit.spec, PlanSource.PHOTON)
        y_post = treated.outcome.astype(float)
        _check_stack(X_pre[None], y_pre[None], fit.column_names)  # a bad design raises here, not in a worker
        refit_means = partial(_refit_means, X_pre, y_pre, X_post, y_post, initial_states(config.seed, n))
        for means in map_ranges(refit_means, n, workers):
            replicate_means.extend(means)
    else:
        observed, predicted = resampled_means(config.seed, n, treated.outcome.astype(float), predictions)
        replicate_means.extend(zip(observed.tolist(), predicted.tolist()))

    estimates = []
    for scale in scales:
        point = att_from_means(mean_observed, mean_predicted, scale)
        points = []
        for means in replicate_means:
            try:
                points.append(att_from_means(*means, scale))
            except EstimandError:
                pass
        n_failed = config.n_replicates - len(points)
        if n_failed > MAX_FAILURE_FRACTION * config.n_replicates:
            raise UnstableBootstrapError(n_failed, config.n_replicates, MAX_FAILURE_FRACTION)
        ci_low, ci_high = np.percentile(points, [PERCENTILE_LO, PERCENTILE_HI]).tolist()
        estimates.append(
            AttEstimate(
                scale=scale,
                point=point,
                ci_low=ci_low,
                ci_high=ci_high,
                n_treated=n_treated,
                mean_observed=mean_observed,
                mean_predicted=mean_predicted,
                bootstrap=config,
                n_failed_replicates=n_failed,
            )
        )
    return tuple(estimates)


@dataclass(frozen=True)
class SensitivityRow:
    label: str
    estimate: AttEstimate | None
    error: str | None = None


@dataclass(frozen=True)
class SensitivityResult:
    rows: tuple[SensitivityRow, ...]
    max_spread: float


def sensitivity_analysis(
    pre: Cohort,
    post_treated: Cohort,
    spec_variants: list[tuple[str, ModelSpec]],
    scale: EffectScale,
    bootstrap: BootstrapConfig,
    *,
    workers: int = 1,
) -> SensitivityResult:
    """Re-estimate the ATT, with its ``bootstrap`` interval, under each model spec variant.

    A variant's failure is recorded in its row rather than raised, so one
    fragile spec cannot sink the whole comparison: a statistical failure,
    or the ``ConfigurationError`` of a spec with more design columns than
    ``pre`` has patients. Any other ``ConfigurationError`` is a fault of
    the inputs every variant shares, and raises. ``workers`` goes to each
    variant's ``bootstrap_ci``.
    """
    checked(scale, EffectScale, "sensitivity_analysis.scale")
    checked(bootstrap, BootstrapConfig, "sensitivity_analysis.bootstrap")
    workers = checked(workers, Integer(1), "sensitivity_analysis.workers")
    for i, variant in enumerate(checked(spec_variants, tuple | list, "sensitivity_analysis.spec_variants")):
        name = f"sensitivity_analysis.spec_variants[{i}]"
        if len(checked(variant, tuple | list, name)) != 2:
            raise ConfigurationError(f"{name} must be a (label, spec) pair, got {variant!r}")
        checked(variant[0], str, f"{name}[0]")
        checked(variant[1], ModelSpec, f"{name}[1]")
    if len(spec_variants) < 2:
        raise ConfigurationError("sensitivity analysis needs at least two spec variants")
    treated = _check_treated(post_treated, "sensitivity_analysis")
    require_role(pre, Role.DEVELOPMENT, "sensitivity_analysis")
    rows: list[SensitivityRow] = []
    for label, spec in spec_variants:
        try:
            (estimate,) = bootstrap_ci(pre, treated, fit_model(pre, spec), (scale,), bootstrap, workers=workers)
            rows.append(SensitivityRow(label=label, estimate=estimate))
        except (StatisticalError, ConfigurationError) as exc:
            if isinstance(exc, ConfigurationError) and len(pre) >= len(design_columns(spec)):
                raise
            rows.append(SensitivityRow(label=label, estimate=None, error=str(exc)))
    points = [row.estimate.point for row in rows if row.estimate is not None]
    spread = float(max(points) - min(points)) if len(points) >= 2 else 0.0
    return SensitivityResult(rows=tuple(rows), max_spread=spread)
