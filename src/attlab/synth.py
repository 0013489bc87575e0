"""Synthetic pre/post-introduction cohort generator with known ground truth.

The generator draws covariates and a photon dose plan per patient, derives a
proton plan by applying a per-organ dose reduction factor, computes true
outcome risks under both plans from a single logistic dose-response, draws
potential outcomes with a shared uniform per patient (comonotone coupling),
and selects post-introduction patients for the target treatment by the
model-based benefit rule: ``selection.assign`` on the plan-based true risk of
``make_true_risk_fn``. Every patient keeps its latent risks so estimators can
be scored against the truth.

The baseline world is fixed: the true coefficients, the dose and reduction
tables, the location mix and the prevalences are module constants, echoed in
``truth.json``. A ``GeneratorConfig`` sets only the cohort sizes, the seed,
the selection threshold and the violation shift.

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
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, EstimandError
from .estimator import EffectScale, odds
from .glm import QUAD_CENTER_GY, QUAD_SCALE_GY, PlanSource, expit
from .records import (
    Cohort,
    DOSE_FIELDS,
    LOCATIONS,
    MAX_DOSE_GY,
    Treatment,
    TumorLocation,
    cohort_csv_bytes,
    json_bytes,
    write_outputs,
)
from .selection import RiskFn, SelectionRule, assign

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

# The per-organ proton/photon dose ratio r in [0, 1]: a patient-level
# Beta(mean, concentration) draw with the location's mean, shared across
# organs and then jittered per organ, so reductions are correlated within a
# patient.
REDUCTION_CONCENTRATION = 5.0
REDUCTION_JITTER_SD = 0.05

# Tumor-location mix of both cohorts, the share of patients with baseline
# dysphagia, and the share carrying the latent stage marker of
# ``unmeasured_confounder_strength``.
LOCATION_WEIGHTS: Mapping[TumorLocation, float] = {
    TumorLocation.OROPHARYNX: 0.50,
    TumorLocation.NASOPHARYNX: 0.15,
    TumorLocation.LARYNX: 0.20,
    TumorLocation.ORAL_CAVITY: 0.15,
}
DYSPHAGIA_PREVALENCE = 0.25
CONFOUNDER_PREVALENCE = 0.30


def _table(values) -> np.ndarray:
    table = np.array(values, dtype=float)
    table.flags.writeable = False
    return table


# The constants above as arrays indexed by location code (and organ).
_BETA = _table(DEFAULT_TRUE_BETA)
_DOSE_MEANS = _table([DEFAULT_DOSE_MODEL[loc].means for loc in LOCATIONS])
_DOSE_SDS = _table([DEFAULT_DOSE_MODEL[loc].sds for loc in LOCATIONS])
_REDUCTION_MEANS = _table([DEFAULT_REDUCTION_MEANS[loc] for loc in LOCATIONS])

# A dose window that one normal draw hits less often than this is refused:
# the rejection sampler would redraw its cells for minutes or forever.
MIN_WINDOW_CHANCE = 1e-5


def _window_chance(lo: float, hi: float, mean: float, sd: float) -> float:
    """The chance that one normal(mean, sd) draw lands in [lo, hi]."""
    scale = sd * math.sqrt(2.0)
    return 0.5 * (math.erf((hi - mean) / scale) - math.erf((lo - mean) / scale))


@dataclass(frozen=True)
class DoseTruncation:
    """Range restriction on one recorded dose covariate (pre cohort only).

    A window that one dose draw of some location hits with a chance below
    ``MIN_WINDOW_CHANCE`` raises ``ConfigurationError`` naming the location.
    """

    organ: str
    max_gy: float
    min_gy: float = 0.0

    def __post_init__(self):
        if self.organ not in DOSE_FIELDS:
            raise ConfigurationError(f"unknown dose field {self.organ!r}")
        if not (0.0 <= self.min_gy < self.max_gy <= MAX_DOSE_GY):
            raise ConfigurationError("truncation bounds must satisfy 0 <= min < max <= 80")
        j = DOSE_FIELDS.index(self.organ)
        chances = [_window_chance(self.min_gy, self.max_gy, _DOSE_MEANS[c, j], _DOSE_SDS[c, j])
                   for c in range(len(LOCATIONS))]
        c = int(np.argmin(chances))
        if chances[c] < MIN_WINDOW_CHANCE:
            raise ConfigurationError(
                f"dose_model[{LOCATIONS[c].value}] {self.organ}: a normal({_DOSE_MEANS[c, j]:g}, "
                f"{_DOSE_SDS[c, j]:g}) draw lands in the window [{self.min_gy:g}, {self.max_gy:g}] Gy "
                f"with chance {chances[c]:.2g}, below {MIN_WINDOW_CHANCE:g}"
            )


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
    """What a run sets of a world: cohort sizes, seed, selection threshold and violation shift.

    Everything else about the world is a module constant. A value out of
    range raises ``ConfigurationError`` naming the first offending field.
    """

    n_pre: int = 750
    n_post: int = 300
    seed: int = 0
    selection_threshold: float = 0.10
    shift: ViolationShift = field(default_factory=ViolationShift)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed}")
        if self.n_pre < 1:
            raise ConfigurationError(f"n_pre must be >= 1, got {self.n_pre}")
        if self.n_post < 1:
            raise ConfigurationError(f"n_post must be >= 1, got {self.n_post}")
        if not (0.0 < self.selection_threshold < 1.0):
            raise ConfigurationError(f"selection_threshold must lie in (0, 1), got {self.selection_threshold}")


def _dose_window(truncation: DoseTruncation | None) -> tuple[np.ndarray, np.ndarray]:
    """Per-organ bounds (lo, hi) in Gy of a dose draw: [0, 80], or the truncation's range on its organ."""
    lo = np.zeros(4)
    hi = np.full(4, MAX_DOSE_GY)
    if truncation is not None:
        organ = DOSE_FIELDS.index(truncation.organ)
        lo[organ] = truncation.min_gy
        hi[organ] = min(truncation.max_gy, MAX_DOSE_GY)
    return lo, hi


@dataclass(frozen=True)
class GeneratedWorld:
    """Two cohorts with their latent risks, and the config that generated them.

    The ground-truth effect among the target-treated is ``true_att``.
    """

    pre: Cohort
    post: Cohort
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


def make_true_risk_fn(config: GeneratorConfig) -> RiskFn:
    """The structural risk function behind model-based selection.

    Maps (cohort, plan source) to every patient's true standard-treatment
    risk at that plan's doses. Includes the nonlinear dose-response term
    when active, but not the latent confounder or the secular drift, which
    are not part of any plan-based risk model.
    """
    amp = config.shift.nonlinearity_amplitude

    def risk(patients: Cohort, plan_source: PlanSource) -> np.ndarray:
        doses = patients.photon if plan_source is PlanSource.PHOTON else patients.proton
        eta = _true_linear_predictor(
            _BETA, patients.dysphagia.astype(float), patients.loc_code, doses, nonlinearity_amplitude=amp
        )
        return expit(eta)

    return risk


def _draw_doses(
    rng: np.random.Generator,
    loc_codes: np.ndarray,
    truncation: DoseTruncation | None,
) -> np.ndarray:
    """Truncated-normal organ doses by rejection sampling, deterministic for a seed.

    A cell's draw is ``mean + sd * z`` with ``z`` from ``standard_normal``:
    the bits, and the stream position, that ``rng.normal(mean, sd)`` gives.
    Each pass redraws only the rejected cells, in row-major order, against
    their own bounds carried from pass to pass, so the draws depend only on
    the seed. The number of passes is set by the rarest cell.
    """
    means = _DOSE_MEANS[loc_codes].ravel()
    sds = _DOSE_SDS[loc_codes].ravel()
    lo, hi = (np.tile(bound, loc_codes.shape[0]) for bound in _dose_window(truncation))
    doses = means + sds * rng.standard_normal(means.size)
    bad = ((doses < lo) | (doses > hi)).nonzero()[0]
    means, sds, lo, hi = means[bad], sds[bad], lo[bad], hi[bad]
    while bad.size:
        draws = means + sds * rng.standard_normal(bad.size)
        doses[bad] = draws
        redraw = ((draws < lo) | (draws > hi)).nonzero()[0]
        if redraw.size < bad.size:
            bad, means, sds, lo, hi = bad[redraw], means[redraw], sds[redraw], lo[redraw], hi[redraw]
    return doses.reshape(loc_codes.shape[0], 4)


def _draw_reduction(
    rng: np.random.Generator,
    loc_codes: np.ndarray,
    confounder_strength: float,
    confounder: np.ndarray,
) -> np.ndarray:
    """Per-organ dose reduction factor r, correlated within patient."""
    mu = _REDUCTION_MEANS[loc_codes]
    shared = rng.beta(mu * REDUCTION_CONCENTRATION, (1.0 - mu) * REDUCTION_CONCENTRATION)
    if confounder_strength != 0.0:
        # Higher stage: larger achievable reduction (lower r).
        shared = shared - 0.10 * confounder_strength * confounder
    jitter = rng.normal(0.0, REDUCTION_JITTER_SD, size=(loc_codes.shape[0], 4))
    return np.clip(shared[:, None] + jitter, 0.0, 1.0)


@lru_cache(maxsize=8)
def _serial_ids(prefix: str, n: int) -> np.ndarray:
    """Record ids ``<prefix>-0001`` ... ``<prefix>-<n>``, shared read-only across worlds."""
    ids = np.array([f"{prefix}-{i:04d}" for i in range(1, n + 1)], dtype=object)
    ids.flags.writeable = False
    return ids


def generate(config: GeneratorConfig) -> GeneratedWorld:
    """Generate one world: pre and post cohorts with latent potential outcomes.

    Deterministic for a fixed seed. The pre cohort is entirely standard
    treated; the post cohort's treatments are assigned by the model-based
    selection rule driven by the true risk function.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    shift = config.shift
    weights = np.array([LOCATION_WEIGHTS[loc] for loc in LOCATIONS], dtype=float)
    weights = weights / weights.sum()

    def latent_risk(dysphagia, loc_codes, doses, confounder):
        """True risk at ``doses``: the plan-based risk plus the latent confounder's term."""
        eta = _true_linear_predictor(
            _BETA,
            dysphagia.astype(float),
            loc_codes,
            doses,
            nonlinearity_amplitude=shift.nonlinearity_amplitude,
            confounder=confounder,
            confounder_strength=shift.unmeasured_confounder_strength,
        )
        return expit(eta)

    # --- pre-introduction cohort -----------------------------------------
    n_pre = config.n_pre
    pre_dys = (rng.random(n_pre) < DYSPHAGIA_PREVALENCE).astype(int)
    pre_loc = rng.choice(len(LOCATIONS), size=n_pre, p=weights)
    pre_doses = _draw_doses(rng, pre_loc, shift.support_truncation)
    pre_conf = (rng.random(n_pre) < CONFOUNDER_PREVALENCE).astype(float)
    pre_p0 = latent_risk(pre_dys, pre_loc, pre_doses, pre_conf)
    pre_u = rng.random(n_pre)
    pre_y0 = (pre_u < pre_p0).astype(int)

    pre = Cohort(
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
    post_dys = (rng.random(n_post) < DYSPHAGIA_PREVALENCE).astype(int)
    post_loc = rng.choice(len(LOCATIONS), size=n_post, p=weights)
    post_photon = _draw_doses(rng, post_loc, None)
    post_conf = (rng.random(n_post) < CONFOUNDER_PREVALENCE).astype(float)
    reduction = _draw_reduction(rng, post_loc, shift.unmeasured_confounder_strength, post_conf)
    post_proton = reduction * post_photon

    # Standard-treatment risk: the recorded plan minus any secular planning
    # improvement that the recorded plan does not reflect.
    drifted = np.clip(post_photon - shift.secular_dose_drift, 0.0, None)
    post_p0 = latent_risk(post_dys, post_loc, drifted, post_conf)
    post_p1 = latent_risk(post_dys, post_loc, post_proton, post_conf)
    post_u = rng.random(n_post)
    post_y0 = (post_u < post_p0).astype(int)
    post_y1 = (post_u < post_p1).astype(int)

    unselected = Cohort(
        ids=_serial_ids("post", n_post),
        post=np.ones(n_post, dtype=bool),
        dysphagia=post_dys,
        loc_code=post_loc,
        photon=post_photon,
        proton=post_proton,
        has_proton=np.ones(n_post, dtype=bool),
        treatment=np.full(n_post, Treatment.STANDARD.value),
        outcome=post_y0,
        p0=post_p0,
        p1=post_p1,
        y0=post_y0,
        y1=post_y1,
    )
    # Model-based selection on the true plan-based risk: no latent
    # confounder, no secular drift.
    treatment = assign(unselected, SelectionRule(make_true_risk_fn(config), config.selection_threshold))
    treated_mask = treatment == Treatment.TARGET.value
    post = replace(unselected, treatment=treatment, outcome=np.where(treated_mask, post_y1, post_y0))
    return GeneratedWorld(pre=pre, post=post, config=config)


def true_att(world: GeneratedWorld, scale: EffectScale) -> float:
    """Ground-truth effect on ``scale`` among target-treated patients, from latent risks.

    Raises ``EstimandError`` when nobody is target-treated, or when the
    effect is undefined on ``scale``.
    """
    treated = world.post.treated()
    if not len(treated):
        raise EstimandError("no target-treated records; the ATT is undefined")
    p0, p1 = treated.p0, treated.p1
    if scale is EffectScale.RISK_DIFFERENCE:
        return float(np.mean(p1 - p0))
    if np.mean(p0) == 0.0:
        raise EstimandError(f"true effect on scale {scale.value} undefined: mean standard-treatment risk is 0")
    if scale is EffectScale.RISK_RATIO:
        return float(np.mean(p1) / np.mean(p0))
    return float(odds(float(np.mean(p1))) / odds(float(np.mean(p0))))


# ---------------------------------------------------------------------------
# Config echo and world output
# ---------------------------------------------------------------------------

def config_to_dict(config: GeneratorConfig) -> dict:
    shift = config.shift
    return {
        "n_pre": config.n_pre,
        "n_post": config.n_post,
        "seed": int(config.seed),
        "true_beta": {name: float(b) for name, b in zip(TRUE_BETA_ORDER, DEFAULT_TRUE_BETA)},
        "dose_model": {
            loc.value: {"means": list(DEFAULT_DOSE_MODEL[loc].means), "sds": list(DEFAULT_DOSE_MODEL[loc].sds)}
            for loc in LOCATIONS
        },
        "proton_reduction_model": {
            "mean_by_location": {loc.value: DEFAULT_REDUCTION_MEANS[loc] for loc in LOCATIONS},
            "concentration": REDUCTION_CONCENTRATION,
            "organ_jitter_sd": REDUCTION_JITTER_SD,
        },
        "selection_threshold": config.selection_threshold,
        "p_baseline_dysphagia": DYSPHAGIA_PREVALENCE,
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
    written, such as one with no target-treated patient (``true_att``
    raises ``EstimandError``), leaves no file behind.
    """
    truth = {
        "true_att": {scale.value: true_att(world, scale) for scale in EffectScale},
        "n_pre": len(world.pre),
        "n_post": len(world.post),
        "n_treated": len(world.post.treated()),
        "config": config_to_dict(world.config),
    }
    files = {"pre.csv": cohort_csv_bytes(world.pre), "post.csv": cohort_csv_bytes(world.post)}
    paths = write_outputs(out_dir, {**files, "truth.json": json_bytes(truth)})
    return {"pre": paths["pre.csv"], "post": paths["post.csv"], "truth": paths["truth.json"]}
