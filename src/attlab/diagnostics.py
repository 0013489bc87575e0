"""Executable validity diagnostics.

Covers the supportive-evidence procedures available in this design:
univariable overlap between the model-development cohort and the treated
group (positivity), mean calibration on post-introduction standard-treated
patients (a negative-control group where the correct estimate is null),
the same check run on the treated group using their target-treatment plans
under a shared dose-response assumption, calibration curves, and AUROC.

AUROC is reported for completeness; by itself it says nothing about the
validity of counterfactual-prediction estimates, since restricted case mix
can push it toward 0.5 even for a perfectly transportable model.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, EstimandError, UndefinedMetricError
from .estimator import PERCENTILE_HI, PERCENTILE_LO
from .glm import ModelFit, PlanSource, predict_risk
from .records import Cohort, DOSE_FIELDS, LOCATIONS, Role, require_role
from .rng import resampled_means

# Stochastic-concern triggers. The range check tolerates a small fraction of
# values outside the development range: with ~100 treated and ~750
# development patients drawn from the same distribution, at least one value
# lands outside the development min/max in roughly a fifth of samples, so a
# literal any-exceedance rule would flag healthy data.
OUTSIDE_FRACTION_THRESHOLD = 0.05
SMD_THRESHOLD = 0.5

DEFAULT_CALIBRATION_BINS = 10


class OverlapVerdict(Enum):
    NO_FLAGS = "no_flags"
    STOCHASTIC_CONCERN = "stochastic_concern"
    STRUCTURAL_VIOLATION = "structural_violation"


@dataclass(frozen=True)
class CovariateOverlap:
    name: str
    pre_min: float
    pre_max: float
    post_min: float
    post_max: float
    outside_fraction: float
    smd: float

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "pre_range": [self.pre_min, self.pre_max],
            "post_treated_range": [self.post_min, self.post_max],
            "outside_fraction": self.outside_fraction,
            "smd": self.smd,
        }


@dataclass(frozen=True)
class OverlapReport:
    covariates: tuple[CovariateOverlap, ...]
    missing_categories: tuple[str, ...]
    verdict: OverlapVerdict

    def to_json_dict(self) -> dict:
        return {
            "covariates": [c.to_json_dict() for c in self.covariates],
            "missing_categories": list(self.missing_categories),
            "verdict": self.verdict.value,
        }


def _variance(values: np.ndarray) -> np.ndarray:
    """Sample variance of each row; 0 for rows of one value."""
    if values.shape[1] < 2:
        return np.zeros(values.shape[0])
    return np.var(values, axis=1, ddof=1)


def _covariate_rows(patients: Cohort) -> np.ndarray:
    """Baseline dysphagia, then the photon doses, as the contiguous rows of one array."""
    rows = np.empty((1 + len(DOSE_FIELDS), len(patients)))
    rows[0] = patients.dysphagia
    rows[1:] = patients.photon.T
    return rows


def positivity_report(pre: Cohort, treated: Cohort) -> OverlapReport:
    """Univariable overlap between the pre cohort and the treated group.

    Structural violation: a category (or binary level) present among the
    treated but absent from the development data, where the model has no
    information at all. Stochastic concern: range exceedance above the
    tolerance or a standardized mean difference beyond ``SMD_THRESHOLD``.
    """
    if not len(pre) or not len(treated):
        raise ConfigurationError("positivity report needs non-empty pre and treated groups")
    require_role(pre, Role.DEVELOPMENT, "positivity_report")
    require_role(treated, Role.TREATED, "positivity_report")

    names = ("baseline_dysphagia",) + DOSE_FIELDS
    pre_vals, post_vals = _covariate_rows(pre), _covariate_rows(treated)
    pre_min, pre_max = pre_vals.min(axis=1), pre_vals.max(axis=1)
    post_min, post_max = post_vals.min(axis=1), post_vals.max(axis=1)
    outside = np.mean((post_vals < pre_min[:, None]) | (post_vals > pre_max[:, None]), axis=1)
    pooled = np.sqrt((_variance(post_vals) + _variance(pre_vals)) / 2.0)
    smd = np.divide(post_vals.mean(axis=1) - pre_vals.mean(axis=1), pooled,
                    out=np.zeros_like(pooled), where=(pooled != 0.0) & np.isfinite(pooled))
    covariates = tuple(
        CovariateOverlap(*fields)
        for fields in zip(names, pre_min.tolist(), pre_max.tolist(), post_min.tolist(), post_max.tolist(),
                          outside.tolist(), smd.tolist())
    )
    stochastic = bool(np.any((outside > OUTSIDE_FRACTION_THRESHOLD) | (np.abs(smd) > SMD_THRESHOLD)))

    structural = bool(set(np.unique(post_vals[0])) - set(np.unique(pre_vals[0])))
    in_pre, in_treated = (np.bincount(g.loc_code, minlength=len(LOCATIONS)) > 0 for g in (pre, treated))
    missing = sorted(
        (LOCATIONS[c] for c in (in_treated & ~in_pre).nonzero()[0].tolist()),
        key=lambda loc: loc.value,
    )
    if missing:
        structural = True

    if structural:
        verdict = OverlapVerdict.STRUCTURAL_VIOLATION
    elif stochastic:
        verdict = OverlapVerdict.STOCHASTIC_CONCERN
    else:
        verdict = OverlapVerdict.NO_FLAGS
    return OverlapReport(
        covariates=covariates,
        missing_categories=tuple(loc.value for loc in missing),
        verdict=verdict,
    )


@dataclass(frozen=True)
class CalibrationBin:
    mean_predicted: float
    observed_rate: float
    count: int


@dataclass(frozen=True)
class CalibrationReport:
    n: int
    mean_observed: float
    mean_predicted: float
    mean_difference: float
    ci_low: float
    ci_high: float
    curve: tuple[CalibrationBin, ...]
    auroc: float | None  # None when the group holds one outcome class

    def to_json_dict(self) -> dict:
        return asdict(self)


def _tie_averaged_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)
    start = end - counts
    return (0.5 * (start + end - 1) + 1.0)[group]


def _scored(predictions, outcomes) -> tuple[np.ndarray, np.ndarray]:
    """Finite predictions and their 0/1 outcomes as float arrays; anything else raises ``ConfigurationError``."""
    predictions, outcomes = np.asarray(predictions, dtype=float), np.asarray(outcomes, dtype=float)
    if predictions.ndim != 1 or predictions.shape != outcomes.shape:
        raise ConfigurationError(f"predictions {predictions.shape} and outcomes {outcomes.shape} differ or are not 1-d")
    if not np.isfinite(predictions).all():
        raise ConfigurationError("predictions must be finite (no NaN or infinity)")
    if not np.isin(outcomes, (0.0, 1.0)).all():
        raise ConfigurationError("outcomes must be 0 or 1")
    return predictions, outcomes


def auroc(predictions, outcomes) -> float:
    """Probability a random event outranks a random non-event; ties count 0.5.

    Non-finite predictions, outcomes other than 0/1 and mismatched lengths raise
    ``ConfigurationError``; a single outcome class raises ``UndefinedMetricError``.
    """
    predictions, outcomes = _scored(predictions, outcomes)
    n_events = int(np.sum(outcomes == 1))
    n_nonevents = int(np.sum(outcomes == 0))
    if n_events == 0 or n_nonevents == 0:
        raise UndefinedMetricError("AUROC undefined: need at least one event and one non-event")
    ranks = _tie_averaged_ranks(predictions)
    rank_sum = float(np.sum(ranks[outcomes == 1]))
    u = rank_sum - n_events * (n_events + 1) / 2.0
    return u / (n_events * n_nonevents)


def calibration_curve(predictions, outcomes, n_bins: int = DEFAULT_CALIBRATION_BINS) -> tuple[CalibrationBin, ...]:
    """Equal-frequency calibration bins; ties broken by stable input order.

    Adjacent bins holding one and the same tied prediction value are merged,
    so constant predictions collapse to a single effective bin. Input refused
    by ``auroc``, or ``n_bins`` outside [1, n], raises ``ConfigurationError``.
    """
    predictions, outcomes = _scored(predictions, outcomes)
    if n_bins < 1:
        raise ConfigurationError(f"calibration curve needs at least one bin, got {n_bins}")
    n = predictions.shape[0]
    if n < n_bins:
        raise ConfigurationError(f"{n} observations cannot fill {n_bins} bins; use fewer bins")
    order = np.argsort(predictions, kind="stable")
    chunks: list[np.ndarray] = []
    for chunk in np.array_split(order, n_bins):
        p = predictions[chunk]
        if chunks and p.min() == p.max():
            prev = predictions[chunks[-1]]
            if prev.min() == prev.max() == p.min():
                chunks[-1] = np.concatenate([chunks[-1], chunk])
                continue
        chunks.append(chunk)
    return tuple(
        CalibrationBin(
            mean_predicted=float(np.mean(predictions[chunk])),
            observed_rate=float(np.mean(outcomes[chunk])),
            count=int(chunk.shape[0]),
        )
        for chunk in chunks
    )


def _calibration_report(
    predictions: np.ndarray,
    outcomes: np.ndarray,
    *,
    n_replicates: int,
    seed: int,
) -> CalibrationReport:
    if n_replicates < 1:
        raise ConfigurationError(f"calibration interval needs at least one bootstrap replicate, got {n_replicates}")
    n = predictions.shape[0]
    mean_observed = float(np.mean(outcomes))
    mean_predicted = float(np.mean(predictions))
    observed, predicted = resampled_means(seed, n_replicates, outcomes, predictions)
    lo, hi = np.percentile(observed - predicted, [PERCENTILE_LO, PERCENTILE_HI])
    try:
        roc = auroc(predictions, outcomes)
    except UndefinedMetricError:
        roc = None
    curve = calibration_curve(predictions, outcomes) if n >= DEFAULT_CALIBRATION_BINS else ()
    return CalibrationReport(
        n=n,
        mean_observed=mean_observed,
        mean_predicted=mean_predicted,
        mean_difference=mean_observed - mean_predicted,
        ci_low=float(lo),
        ci_high=float(hi),
        curve=curve,
        auroc=roc,
    )


def negative_control_check(
    standard: Cohort,
    fit: ModelFit,
    *,
    n_replicates: int = 2000,
    seed: int = 0,
) -> CalibrationReport:
    """Mean calibration on post-introduction standard-treated patients.

    These patients received the treatment the model was built for, so the
    observed-minus-predicted difference should be close to zero whenever
    the validity conditions hold; a systematic difference signals drift.
    """
    if not len(standard):
        raise EstimandError("negative-control group is empty; supportive evidence unavailable")
    require_role(standard, Role.NEGATIVE_CONTROL, "negative_control_check")
    predictions = predict_risk(fit, standard, PlanSource.PHOTON)
    outcomes = standard.outcome.astype(float)
    return _calibration_report(predictions, outcomes, n_replicates=n_replicates, seed=seed)


def dose_transport_check(
    treated: Cohort,
    fit: ModelFit,
    *,
    n_replicates: int = 2000,
    seed: int = 0,
) -> CalibrationReport:
    """Calibration of the model on the treated group via their target plans.

    Valid as a check only under a shared dose-response assumption: the
    dose-outcome relationship learned under the standard treatment must
    carry over to the target treatment's delivered doses.
    """
    if not len(treated):
        raise EstimandError("treated group is empty; dose-transport check unavailable")
    require_role(treated, Role.TREATED, "dose_transport_check")
    predictions = predict_risk(fit, treated, PlanSource.PROTON)
    outcomes = treated.outcome.astype(float)
    return _calibration_report(predictions, outcomes, n_replicates=n_replicates, seed=seed)


def curve_csv_bytes(report: CalibrationReport) -> bytes:
    """Calibration curve as CSV for external plotting."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["bin_mean_pred", "bin_obs_rate", "count"])
    for b in report.curve:
        writer.writerow([repr(b.mean_predicted), repr(b.observed_rate), b.count])
    return out.getvalue().encode("utf-8")
