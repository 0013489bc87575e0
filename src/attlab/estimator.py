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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConfigurationError,
    EstimandError,
    StatisticalError,
    UnstableBootstrapError,
)
from .glm import (
    ModelFit,
    ModelSpec,
    PlanSource,
    build_design,
    fit_logistic,
    fit_model,
    predict_design,
    predict_risk,
    _refit_chunks,
)
from .records import Cohort, Treatment
from .rng import resample_chunks, resampled_means

PERCENTILE_LO = 2.5
PERCENTILE_HI = 97.5
Z_975 = 1.959963984540054
MAX_FAILURE_FRACTION = 0.05


class EffectScale(Enum):
    RISK_DIFFERENCE = "rd"
    RISK_RATIO = "rr"
    ODDS_RATIO = "or"


class BootstrapMode(Enum):
    FIXED_MODEL = "fixed"
    FULL = "full"


class IntervalMethod(Enum):
    PERCENTILE = "percentile"
    NORMAL = "normal"


def odds(p: float) -> float:
    if p >= 1.0:
        raise EstimandError(f"odds undefined at probability {p}")
    return p / (1.0 - p)


@dataclass(frozen=True)
class BootstrapConfig:
    n_replicates: int = 2000
    seed: int = 0
    mode: BootstrapMode = BootstrapMode.FULL
    interval: IntervalMethod = IntervalMethod.PERCENTILE

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigurationError(f"bootstrap seed must be a non-negative integer, got {self.seed}")
        if self.n_replicates < 100:
            raise ConfigurationError(
                f"bootstrap needs >= 100 replicates for interval construction, got {self.n_replicates}"
            )

    def to_json_dict(self) -> dict:
        return {
            "n_replicates": self.n_replicates,
            "seed": int(self.seed),
            "mode": self.mode.value,
            "interval": self.interval.value,
        }


@dataclass(frozen=True)
class AttEstimate:
    scale: EffectScale
    point: float
    ci_low: float | None
    ci_high: float | None
    n_treated: int
    mean_observed: float
    mean_predicted: float
    bootstrap: BootstrapConfig | None = None
    n_failed_replicates: int = 0

    def to_json_dict(self) -> dict:
        return {
            "scale": self.scale.value,
            "point": self.point,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n_treated": self.n_treated,
            "mean_observed": self.mean_observed,
            "mean_predicted": self.mean_predicted,
            "bootstrap": self.bootstrap.to_json_dict() if self.bootstrap else None,
            "n_failed_replicates": self.n_failed_replicates,
        }


def att_from_means(mean_observed: float, mean_predicted: float, scale: EffectScale) -> float:
    """Effect on the chosen scale from the two group means."""
    if scale is EffectScale.RISK_DIFFERENCE:
        return mean_observed - mean_predicted
    if scale is EffectScale.RISK_RATIO:
        if mean_predicted == 0.0:
            raise EstimandError("risk ratio undefined: mean predicted risk is 0")
        return mean_observed / mean_predicted
    if mean_observed in (0.0, 1.0):
        raise EstimandError(f"odds ratio undefined: observed event rate is {mean_observed}")
    return odds(mean_observed) / odds(mean_predicted)


def _check_treated(treated: Cohort) -> Cohort:
    if not len(treated):
        raise EstimandError("no treated patients: the ATT is undefined on an empty sample")
    not_target = treated.ids[treated.treatment != Treatment.TARGET.value]
    if not_target.size:
        raise EstimandError(
            f"estimator expects target-treated records only; offending ids: {', '.join(not_target[:5].tolist())}"
        )
    return treated


def _treated_means(fit: ModelFit, treated: Cohort) -> tuple[float, float, np.ndarray]:
    """Observed event rate, mean predicted standard-treatment risk, and the predictions."""
    predictions = predict_risk(fit, treated, PlanSource.PHOTON)
    return float(np.mean(treated.outcome)), float(np.mean(predictions)), predictions


def estimate_att(post_treated: Cohort, fit: ModelFit, scale: EffectScale) -> float:
    """Point estimate: observed event rate minus/over predicted counterfactual rate."""
    mean_observed, mean_predicted, _ = _treated_means(fit, _check_treated(post_treated))
    return att_from_means(mean_observed, mean_predicted, scale)


def _interval(points: np.ndarray, point: float, method: IntervalMethod) -> tuple[float, float]:
    if method is IntervalMethod.PERCENTILE:
        lo, hi = np.percentile(points, [PERCENTILE_LO, PERCENTILE_HI])
        return float(lo), float(hi)
    sd = float(np.std(points, ddof=1))
    return point - Z_975 * sd, point + Z_975 * sd


def bootstrap_ci(
    pre: Cohort,
    post_treated: Cohort,
    spec: ModelSpec,
    scales: Sequence[EffectScale],
    config: BootstrapConfig,
    *,
    fit: ModelFit | None = None,
) -> tuple[AttEstimate, ...]:
    """Bootstrap intervals for the ATT, one ``AttEstimate`` per scale in ``scales``.

    Replicate ``r`` draws from an RNG stream derived from ``(seed, r)``, so
    results do not depend on execution order. Each replicate keeps its two
    group means once and every scale is computed from them. A replicate
    whose refit fails is dropped on every scale; one whose effect is
    undefined on a scale is dropped on that scale only. More than 5%
    failures on a scale raises ``UnstableBootstrapError``.
    """
    scales = tuple(scales)
    if not scales:
        raise ConfigurationError("bootstrap needs at least one effect scale")
    treated = _check_treated(post_treated)
    X_pre_all, names = build_design(pre, spec, PlanSource.PHOTON)
    y_pre_all = pre.outcome.astype(float)
    if fit is None:
        fit = fit_logistic(X_pre_all, y_pre_all, column_names=names, spec=spec)

    mean_observed, mean_predicted, predictions = _treated_means(fit, treated)
    X_post, _ = build_design(treated, spec, PlanSource.PHOTON)
    y_post = treated.outcome.astype(float)
    n_treated = len(treated)
    n_pre = len(pre)

    # Each chunk of replicates is refitted as one stack, every chunk in the
    # same workspace; a refit that fails or does not converge drops its
    # replicate.
    replicate_means: list[tuple[float, float]] = []
    if config.mode is BootstrapMode.FULL:
        chunks = resample_chunks(config.seed, config.n_replicates, (n_pre, n_treated), X_pre_all.nbytes)
        for (_, idx_post), refits in _refit_chunks(X_pre_all, y_pre_all, chunks, fit.column_names):
            ok = refits.converged
            idx_post = idx_post[ok]
            preds = predict_design(refits.beta[ok], X_post[idx_post])
            replicate_means.extend(zip(np.mean(y_post[idx_post], axis=1).tolist(), np.mean(preds, axis=1).tolist()))
    else:
        observed, predicted = resampled_means(config.seed, config.n_replicates, y_post, predictions)
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
            raise UnstableBootstrapError(n_failed, config.n_replicates)
        ci_low, ci_high = _interval(np.array(points), point, config.interval)
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

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "estimate": self.estimate.to_json_dict() if self.estimate else None,
            "error": self.error,
        }


@dataclass(frozen=True)
class SensitivityResult:
    rows: tuple[SensitivityRow, ...]
    max_spread: float

    def to_json_dict(self) -> dict:
        return {"rows": [row.to_json_dict() for row in self.rows], "max_spread": self.max_spread}


def sensitivity_analysis(
    pre: Cohort,
    post_treated: Cohort,
    spec_variants: list[tuple[str, ModelSpec]],
    scale: EffectScale,
    bootstrap: BootstrapConfig | None = None,
) -> SensitivityResult:
    """Re-estimate the ATT under each model spec variant.

    Per-variant fit failures are recorded in the row rather than raised, so
    one fragile spec cannot sink the whole comparison.
    """
    if len(spec_variants) < 2:
        raise ConfigurationError("sensitivity analysis needs at least two spec variants")
    treated = _check_treated(post_treated)
    rows: list[SensitivityRow] = []
    for label, spec in spec_variants:
        try:
            if bootstrap is not None:
                (estimate,) = bootstrap_ci(pre, treated, spec, (scale,), bootstrap)
            else:
                mean_observed, mean_predicted, _ = _treated_means(fit_model(pre, spec), treated)
                estimate = AttEstimate(
                    scale=scale,
                    point=att_from_means(mean_observed, mean_predicted, scale),
                    ci_low=None,
                    ci_high=None,
                    n_treated=len(treated),
                    mean_observed=mean_observed,
                    mean_predicted=mean_predicted,
                )
            rows.append(SensitivityRow(label=label, estimate=estimate))
        except StatisticalError as exc:
            rows.append(SensitivityRow(label=label, estimate=None, error=str(exc)))
    points = [row.estimate.point for row in rows if row.estimate is not None]
    spread = float(max(points) - min(points)) if len(points) >= 2 else 0.0
    return SensitivityResult(rows=tuple(rows), max_spread=spread)
