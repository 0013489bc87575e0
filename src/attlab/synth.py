"""Synthetic pre/post-introduction cohort generator with known ground truth.

The generator draws covariates and a photon dose plan per patient, derives a
proton plan by applying a per-organ dose reduction factor, computes true
outcome risks under both plans from a single logistic dose-response, selects
post-introduction patients for the target treatment by the model-based
benefit rule, and draws potential outcomes with a shared uniform per patient
(comonotone coupling). Every patient keeps its latent risks so estimators can
be scored against the truth. Cohorts are generated as arrays; records are
built only if a caller asks for them.

Violation switches (``ViolationShift``) each break exactly one validity
condition in a controlled direction:

* ``secular_dose_drift``: post-period standard-treatment outcomes are
  generated from doses lower than the recorded plan (unmodeled planning
  improvements); breaks transportability of the outcome model.
* ``unmeasured_confounder_strength``: a latent binary stage marker raises
  both the achievable dose reduction and the outcome risk; breaks
  ignorability of treatment assignment.
* ``support_truncation``: restricts a dose covariate's range in the pre
  cohort only; breaks positivity.
* ``nonlinearity_amplitude``: adds a quadratic dose-response term to the
  true mechanism that the default working model omits; breaks correct
  model specification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, EstimandError
from .estimator import EffectScale, odds
from .glm import QUAD_CENTER_GY, QUAD_SCALE_GY, expit
from .records import (
    Cohort,
    CohortLabel,
    DOSE_FIELDS,
    DosePlan,
    LOCATIONS,
    MAX_DOSE_GY,
    PatientRecord,
    Treatment,
    TumorLocation,
    cohort_csv_bytes,
    json_bytes,
    write_outputs,
)

# Coefficient order of the true outcome mechanism; matches the default
# working model's design columns.
TRUE_BETA_ORDER = (
    "intercept",
    "baseline_dysphagia",
    "loc_nasopharynx",
    "loc_larynx",
    "loc_oral_cavity",
    "dose_sup_pcm",
    "dose_mid_pcm",
    "dose_inf_pcm",
    "dose_oral_cavity",
)

# Calibrated so that with the default cohort sizes the benefit rule selects
# about 93 of 300 post patients on average, the pre event rate sits near
# 0.28, and the treated group's covariates stay inside the development
# cohort's univariable support.
DEFAULT_TRUE_BETA = (
    -4.45,  # intercept
    0.60,  # baseline dysphagia
    0.25,  # nasopharynx vs oropharynx
    0.15,  # larynx vs oropharynx
    0.35,  # oral cavity vs oropharynx
    0.022,  # dose_sup_pcm per Gy
    0.019,  # dose_mid_pcm per Gy
    0.015,  # dose_inf_pcm per Gy
    0.013,  # dose_oral_cavity per Gy
)


@dataclass(frozen=True)
class OrganDoseParams:
    """Truncated-normal mean/sd per organ (order: sup, mid, inf, oral cavity)."""

    means: tuple[float, float, float, float]
    sds: tuple[float, float, float, float]


DEFAULT_DOSE_MODEL: Mapping[TumorLocation, OrganDoseParams] = {
    TumorLocation.OROPHARYNX: OrganDoseParams((56.0, 50.0, 38.0, 42.0), (6.0, 6.0, 7.0, 8.0)),
    TumorLocation.NASOPHARYNX: OrganDoseParams((58.0, 44.0, 32.0, 38.0), (5.0, 6.0, 7.0, 8.0)),
    TumorLocation.LARYNX: OrganDoseParams((44.0, 48.0, 56.0, 26.0), (7.0, 6.0, 5.0, 7.0)),
    TumorLocation.ORAL_CAVITY: OrganDoseParams((48.0, 40.0, 30.0, 54.0), (7.0, 7.0, 7.0, 6.0)),
}

DEFAULT_REDUCTION_MEANS: Mapping[TumorLocation, float] = {
    TumorLocation.OROPHARYNX: 0.86,
    TumorLocation.NASOPHARYNX: 0.76,
    TumorLocation.LARYNX: 0.90,
    TumorLocation.ORAL_CAVITY: 0.83,
}

# Tumor-location mix of both cohorts, and the share of patients carrying the
# latent stage marker of ``unmeasured_confounder_strength``.
LOCATION_WEIGHTS: Mapping[TumorLocation, float] = {
    TumorLocation.OROPHARYNX: 0.50,
    TumorLocation.NASOPHARYNX: 0.15,
    TumorLocation.LARYNX: 0.20,
    TumorLocation.ORAL_CAVITY: 0.15,
}
CONFOUNDER_PREVALENCE = 0.30


@dataclass(frozen=True)
class ReductionModel:
    """Distribution of the per-organ proton/photon dose ratio r in [0, 1].

    A patient-level Beta(mean, concentration) draw is shared across organs,
    then jittered per organ, so reductions are correlated within a patient
    and the mean reduction depends on tumor location.
    """

    mean_by_location: Mapping[TumorLocation, float] = field(
        default_factory=lambda: dict(DEFAULT_REDUCTION_MEANS)
    )
    concentration: float = 5.0
    organ_jitter_sd: float = 0.05


@dataclass(frozen=True)
class DoseTruncation:
    """Range restriction on one recorded dose covariate (pre cohort only)."""

    organ: str
    max_gy: float
    min_gy: float = 0.0

    def __post_init__(self):
        if self.organ not in DOSE_FIELDS:
            raise ConfigurationError(f"unknown dose field {self.organ!r}")
        if not (0.0 <= self.min_gy < self.max_gy <= MAX_DOSE_GY):
            raise ConfigurationError("truncation bounds must satisfy 0 <= min < max <= 80")


@dataclass(frozen=True)
class ViolationShift:
    secular_dose_drift: float = 0.0
    unmeasured_confounder_strength: float = 0.0
    support_truncation: DoseTruncation | None = None
    nonlinearity_amplitude: float = 0.0

    def __post_init__(self):
        for name in ("secular_dose_drift", "unmeasured_confounder_strength", "nonlinearity_amplitude"):
            if not math.isfinite(value := getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {value}")

    def is_neutral(self) -> bool:
        return (
            self.secular_dose_drift == 0.0
            and self.unmeasured_confounder_strength == 0.0
            and self.support_truncation is None
            and self.nonlinearity_amplitude == 0.0
        )


@dataclass(frozen=True)
class GeneratorConfig:
    n_pre: int = 750
    n_post: int = 300
    seed: int = 0
    true_beta: tuple[float, ...] = DEFAULT_TRUE_BETA
    dose_model: Mapping[TumorLocation, OrganDoseParams] = field(
        default_factory=lambda: dict(DEFAULT_DOSE_MODEL)
    )
    proton_reduction_model: ReductionModel = field(default_factory=ReductionModel)
    selection_threshold: float = 0.10
    shift: ViolationShift = field(default_factory=ViolationShift)
    p_baseline_dysphagia: float = 0.25


# A dose window that one normal draw hits less often than this is refused:
# the rejection sampler would redraw its cells for minutes or forever.
MIN_WINDOW_CHANCE = 1e-5


def _dose_window(truncation: DoseTruncation | None) -> tuple[np.ndarray, np.ndarray]:
    """Per-organ bounds (lo, hi) in Gy of a dose draw: [0, 80], or the truncation's range on its organ."""
    lo = np.zeros(4)
    hi = np.full(4, MAX_DOSE_GY)
    if truncation is not None:
        organ = DOSE_FIELDS.index(truncation.organ)
        lo[organ] = truncation.min_gy
        hi[organ] = min(truncation.max_gy, MAX_DOSE_GY)
    return lo, hi


def _window_chance(lo: float, hi: float, mean: float, sd: float) -> float:
    """The chance that one normal(mean, sd) draw lands in [lo, hi]."""
    scale = sd * math.sqrt(2.0)
    return 0.5 * (math.erf((hi - mean) / scale) - math.erf((lo - mean) / scale))


def validate_config(config: GeneratorConfig) -> None:
    """Raise ``ConfigurationError`` naming the first offending field."""
    if config.seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {config.seed}")
    if config.n_pre < 1:
        raise ConfigurationError(f"n_pre must be >= 1, got {config.n_pre}")
    if config.n_post < 1:
        raise ConfigurationError(f"n_post must be >= 1, got {config.n_post}")
    if not (0.0 < config.selection_threshold < 1.0):
        raise ConfigurationError(
            f"selection_threshold must lie in (0, 1), got {config.selection_threshold}"
        )
    if len(config.true_beta) != len(TRUE_BETA_ORDER):
        raise ConfigurationError(
            f"true_beta must have {len(TRUE_BETA_ORDER)} coefficients, got {len(config.true_beta)}"
        )
    if not all(math.isfinite(b) for b in config.true_beta):
        raise ConfigurationError(f"true_beta coefficients must be finite, got {tuple(config.true_beta)}")
    for loc in LOCATIONS:
        if loc not in config.dose_model:
            raise ConfigurationError(f"dose_model missing location {loc.value}")
        params = config.dose_model[loc]
        if len(params.means) != 4 or len(params.sds) != 4:
            raise ConfigurationError(f"dose_model[{loc.value}] needs 4 organ means and sds")
        if not all(math.isfinite(m) for m in params.means):
            raise ConfigurationError(f"dose_model[{loc.value}] means must be finite, got {tuple(params.means)}")
        if not all(math.isfinite(s) and s > 0.0 for s in params.sds):
            raise ConfigurationError(f"dose_model[{loc.value}] sds must be finite and > 0, got {tuple(params.sds)}")
        if loc not in config.proton_reduction_model.mean_by_location:
            raise ConfigurationError(f"proton_reduction_model missing location {loc.value}")
        mu = config.proton_reduction_model.mean_by_location[loc]
        if not (0.0 < mu <= 1.0):
            raise ConfigurationError(f"proton_reduction_model mean for {loc.value} outside (0, 1]")
    if config.proton_reduction_model.concentration <= 0.0:
        raise ConfigurationError("proton_reduction_model concentration must be > 0")
    if config.proton_reduction_model.organ_jitter_sd < 0.0:
        raise ConfigurationError("proton_reduction_model organ_jitter_sd must be >= 0")
    if not (0.0 <= config.p_baseline_dysphagia <= 1.0):
        raise ConfigurationError("p_baseline_dysphagia must lie in [0, 1]")
    lo, hi = _dose_window(config.shift.support_truncation)
    chance, loc, j = min(
        ((_window_chance(lo[j], hi[j], config.dose_model[loc].means[j], config.dose_model[loc].sds[j]), loc, j)
         for loc in LOCATIONS for j in range(4)),
        key=lambda item: item[0],
    )
    if chance < MIN_WINDOW_CHANCE:
        params = config.dose_model[loc]
        raise ConfigurationError(
            f"dose_model[{loc.value}] {DOSE_FIELDS[j]}: a normal({params.means[j]:g}, {params.sds[j]:g}) draw lands "
            f"in the window [{lo[j]:g}, {hi[j]:g}] Gy with chance {chance:.2g}, below {MIN_WINDOW_CHANCE:g}"
        )


@dataclass(frozen=True)
class GeneratedWorld:
    """Two cohorts plus the ground-truth effects among the target-treated."""

    pre: Cohort
    post: Cohort
    true_att_rd: float
    true_att_rr: float
    true_att_or: float
    config: GeneratorConfig


def _true_linear_predictor(
    beta: np.ndarray,
    dysphagia: np.ndarray,
    loc_codes: np.ndarray,
    doses: np.ndarray,
    *,
    nonlinearity_amplitude: float = 0.0,
    confounder: np.ndarray | None = None,
    confounder_strength: float = 0.0,
) -> np.ndarray:
    """Linear predictor of the true outcome mechanism at the given doses."""
    contrasts = np.concatenate([[0.0], beta[2:5]])  # reference: oropharynx
    eta = beta[0] + beta[1] * dysphagia + contrasts[loc_codes] + doses @ beta[5:9]
    if nonlinearity_amplitude != 0.0:
        eta = eta + nonlinearity_amplitude * ((doses[:, 0] - QUAD_CENTER_GY) / QUAD_SCALE_GY) ** 2
    if confounder is not None and confounder_strength != 0.0:
        eta = eta + confounder_strength * confounder
    return eta


def make_true_risk_fn(config: GeneratorConfig):
    """The structural risk function behind model-based selection, per record.

    Maps (record, plan) to the true standard-treatment risk at that plan's
    doses. Includes the nonlinear dose-response term when active, but not
    the latent confounder or the secular drift, which are not part of any
    plan-based risk model. ``generate`` computes the same risks on arrays.
    """
    beta = np.asarray(config.true_beta, dtype=float)
    amp = config.shift.nonlinearity_amplitude
    loc_code = {loc: i for i, loc in enumerate(LOCATIONS)}

    def risk(record: PatientRecord, plan: DosePlan) -> float:
        doses = np.asarray(plan.as_tuple(), dtype=float).reshape(1, 4)
        eta = _true_linear_predictor(
            beta,
            np.array([float(record.baseline_dysphagia)]),
            np.array([loc_code[record.tumor_location]]),
            doses,
            nonlinearity_amplitude=amp,
        )
        return float(expit(eta)[0])

    return risk


def _draw_doses(
    rng: np.random.Generator,
    loc_codes: np.ndarray,
    config: GeneratorConfig,
    truncation: DoseTruncation | None,
) -> np.ndarray:
    """Truncated-normal organ doses; rejection sampling keeps determinism.

    Each pass redraws the rejected cells in row-major order, so the draws
    depend only on the seed.
    """
    means = np.array([config.dose_model[loc].means for loc in LOCATIONS])[loc_codes].ravel()
    sds = np.array([config.dose_model[loc].sds for loc in LOCATIONS])[loc_codes].ravel()
    lo, hi = _dose_window(truncation)
    doses = rng.normal(means, sds)
    bad = np.arange(doses.shape[0])
    while bad.size:
        draws = doses[bad]
        bad = bad[(draws < lo[bad % 4]) | (draws > hi[bad % 4])]
        if bad.size:
            doses[bad] = rng.normal(means[bad], sds[bad])
    return doses.reshape(loc_codes.shape[0], 4)


def _draw_reduction(
    rng: np.random.Generator,
    loc_codes: np.ndarray,
    config: GeneratorConfig,
    confounder: np.ndarray,
) -> np.ndarray:
    """Per-organ dose reduction factor r, correlated within patient."""
    model = config.proton_reduction_model
    mu = np.array([model.mean_by_location[loc] for loc in LOCATIONS])[loc_codes]
    k = model.concentration
    # mu = 1 means a degenerate point mass at r = 1 (no achievable reduction).
    degenerate = mu >= 1.0
    safe_mu = np.where(degenerate, 0.5, mu)
    shared = np.where(degenerate, 1.0, rng.beta(safe_mu * k, (1.0 - safe_mu) * k))
    strength = config.shift.unmeasured_confounder_strength
    if strength != 0.0:
        # Higher stage: larger achievable reduction (lower r).
        shared = shared - 0.10 * strength * confounder
    jitter = rng.normal(0.0, model.organ_jitter_sd, size=(loc_codes.shape[0], 4))
    return np.clip(shared[:, None] + jitter, 0.0, 1.0)


@lru_cache(maxsize=8)
def _serial_ids(prefix: str, n: int) -> np.ndarray:
    """Record ids ``<prefix>-0001`` ... ``<prefix>-<n>``, shared read-only across worlds."""
    ids = np.array([f"{prefix}-{i:04d}" for i in range(1, n + 1)], dtype=object)
    ids.flags.writeable = False
    return ids


def _effect(p0: np.ndarray, p1: np.ndarray, scale: EffectScale) -> float:
    """Effect on ``scale`` of moving a group from risks ``p0`` to risks ``p1``."""
    if scale is EffectScale.RISK_DIFFERENCE:
        return float(np.mean(p1 - p0))
    if np.mean(p0) == 0.0:
        raise EstimandError(f"true effect on scale {scale.value} undefined: mean standard-treatment risk is 0")
    if scale is EffectScale.RISK_RATIO:
        return float(np.mean(p1) / np.mean(p0))
    return float(odds(float(np.mean(p1))) / odds(float(np.mean(p0))))


def generate(config: GeneratorConfig) -> GeneratedWorld:
    """Generate one world: pre and post cohorts with latent potential outcomes.

    Deterministic for a fixed seed. The pre cohort is entirely standard
    treated; the post cohort is labeled by the model-based selection rule
    driven by the true risk function.
    """
    validate_config(config)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    beta = np.asarray(config.true_beta, dtype=float)
    shift = config.shift
    weights = np.array([LOCATION_WEIGHTS[loc] for loc in LOCATIONS], dtype=float)
    weights = weights / weights.sum()

    # --- pre-introduction cohort -----------------------------------------
    n_pre = config.n_pre
    pre_dys = (rng.random(n_pre) < config.p_baseline_dysphagia).astype(int)
    pre_loc = rng.choice(len(LOCATIONS), size=n_pre, p=weights)
    pre_doses = _draw_doses(rng, pre_loc, config, shift.support_truncation)
    pre_conf = (rng.random(n_pre) < CONFOUNDER_PREVALENCE).astype(float)
    pre_eta0 = _true_linear_predictor(
        beta,
        pre_dys.astype(float),
        pre_loc,
        pre_doses,
        nonlinearity_amplitude=shift.nonlinearity_amplitude,
        confounder=pre_conf,
        confounder_strength=shift.unmeasured_confounder_strength,
    )
    pre_p0 = expit(pre_eta0)
    pre_u = rng.random(n_pre)
    pre_y0 = (pre_u < pre_p0).astype(int)

    pre = Cohort(
        label=CohortLabel.PRE_INTRODUCTION,
        ids=_serial_ids("pre", n_pre),
        post=np.zeros(n_pre, dtype=bool),
        dysphagia=pre_dys,
        loc_code=pre_loc,
        photon=pre_doses,
        proton=np.full((n_pre, 4), np.nan),
        has_proton=np.zeros(n_pre, dtype=bool),
        treatment=np.full(n_pre, Treatment.STANDARD.value),
        outcome=pre_y0,
        p0=pre_p0,
        p1=pre_p0,
        y0=pre_y0,
        y1=pre_y0,
    )

    # --- post-introduction cohort -----------------------------------------
    n_post = config.n_post
    post_dys = (rng.random(n_post) < config.p_baseline_dysphagia).astype(int)
    post_loc = rng.choice(len(LOCATIONS), size=n_post, p=weights)
    post_photon = _draw_doses(rng, post_loc, config, None)
    post_conf = (rng.random(n_post) < CONFOUNDER_PREVALENCE).astype(float)
    reduction = _draw_reduction(rng, post_loc, config, post_conf)
    post_proton = reduction * post_photon

    # Standard-treatment risk: the recorded plan minus any secular planning
    # improvement that the recorded plan does not reflect.
    drifted = np.clip(post_photon - shift.secular_dose_drift, 0.0, None)
    post_eta0 = _true_linear_predictor(
        beta,
        post_dys.astype(float),
        post_loc,
        drifted,
        nonlinearity_amplitude=shift.nonlinearity_amplitude,
        confounder=post_conf,
        confounder_strength=shift.unmeasured_confounder_strength,
    )
    post_eta1 = _true_linear_predictor(
        beta,
        post_dys.astype(float),
        post_loc,
        post_proton,
        nonlinearity_amplitude=shift.nonlinearity_amplitude,
        confounder=post_conf,
        confounder_strength=shift.unmeasured_confounder_strength,
    )
    post_p0 = expit(post_eta0)
    post_p1 = expit(post_eta1)
    post_u = rng.random(n_post)
    post_y0 = (post_u < post_p0).astype(int)
    post_y1 = (post_u < post_p1).astype(int)

    # Model-based selection with a strict threshold on the true plan-based
    # risk of ``make_true_risk_fn``: no latent confounder, no secular drift.
    plan_eta = partial(_true_linear_predictor, beta, post_dys.astype(float), post_loc,
                       nonlinearity_amplitude=shift.nonlinearity_amplitude)
    benefit = expit(plan_eta(post_photon)) - expit(plan_eta(post_proton))
    treated_mask = benefit > config.selection_threshold
    post = Cohort(
        label=CohortLabel.POST_INTRODUCTION,
        ids=_serial_ids("post", n_post),
        post=np.ones(n_post, dtype=bool),
        dysphagia=post_dys,
        loc_code=post_loc,
        photon=post_photon,
        proton=post_proton,
        has_proton=np.ones(n_post, dtype=bool),
        treatment=np.where(treated_mask, Treatment.TARGET.value, Treatment.STANDARD.value),
        outcome=np.where(treated_mask, post_y1, post_y0),
        p0=post_p0,
        p1=post_p1,
        y0=post_y0,
        y1=post_y1,
    )

    # No-one selected: report the hypothetical effects over the whole post
    # cohort (zero when the plans are identical).
    group = treated_mask if treated_mask.any() else slice(None)
    rd, rr, or_ = (_effect(post_p0[group], post_p1[group], scale) for scale in EffectScale)

    return GeneratedWorld(
        pre=pre,
        post=post,
        true_att_rd=rd,
        true_att_rr=rr,
        true_att_or=or_,
        config=config,
    )


def true_att(world: GeneratedWorld, scale: EffectScale) -> float:
    """Ground-truth effect among target-treated patients, from latent risks."""
    treated = world.post.treated()
    if not len(treated):
        raise EstimandError("no target-treated records; the ATT is undefined")
    return _effect(treated.p0, treated.p1, scale)


# ---------------------------------------------------------------------------
# Config echo and world output
# ---------------------------------------------------------------------------

def config_to_dict(config: GeneratorConfig) -> dict:
    shift = config.shift
    return {
        "n_pre": config.n_pre,
        "n_post": config.n_post,
        "seed": int(config.seed),
        "true_beta": {name: float(b) for name, b in zip(TRUE_BETA_ORDER, config.true_beta)},
        "dose_model": {
            loc.value: {
                "means": list(config.dose_model[loc].means),
                "sds": list(config.dose_model[loc].sds),
            }
            for loc in LOCATIONS
        },
        "proton_reduction_model": {
            "mean_by_location": {
                loc.value: config.proton_reduction_model.mean_by_location[loc] for loc in LOCATIONS
            },
            "concentration": config.proton_reduction_model.concentration,
            "organ_jitter_sd": config.proton_reduction_model.organ_jitter_sd,
        },
        "selection_threshold": config.selection_threshold,
        "p_baseline_dysphagia": config.p_baseline_dysphagia,
        "location_weights": {loc.value: LOCATION_WEIGHTS[loc] for loc in LOCATIONS},
        "confounder_prevalence": CONFOUNDER_PREVALENCE,
        "shift": {
            "secular_dose_drift": shift.secular_dose_drift,
            "unmeasured_confounder_strength": shift.unmeasured_confounder_strength,
            "support_truncation": (
                None
                if shift.support_truncation is None
                else {
                    "organ": shift.support_truncation.organ,
                    "max_gy": shift.support_truncation.max_gy,
                    "min_gy": shift.support_truncation.min_gy,
                }
            ),
            "nonlinearity_amplitude": shift.nonlinearity_amplitude,
        },
    }


def write_world(world: GeneratedWorld, out_dir: str | Path) -> dict[str, Path]:
    """Write pre.csv, post.csv, and truth.json into ``out_dir``.

    All three are rendered before any is opened, so a world that cannot be
    written leaves no file behind.
    """
    truth = {
        "true_att": {
            "rd": world.true_att_rd,
            "rr": world.true_att_rr,
            "or": world.true_att_or,
        },
        "n_pre": len(world.pre),
        "n_post": len(world.post),
        "n_treated": len(world.post.treated()),
        "config": config_to_dict(world.config),
    }
    files = {"pre.csv": cohort_csv_bytes(world.pre), "post.csv": cohort_csv_bytes(world.post)}
    paths = write_outputs(out_dir, {**files, "truth.json": json_bytes(truth)})
    return {"pre": paths["pre.csv"], "post": paths["post.csv"], "truth": paths["truth.json"]}
