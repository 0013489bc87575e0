"""Synthetic pre/post-introduction cohort generator with known ground truth.

The generator draws covariates and a photon dose plan per patient, derives a
proton plan by applying a per-organ dose reduction factor, computes true
outcome risks under both plans from a single logistic dose-response, draws
potential outcomes with a shared uniform per patient (comonotone coupling),
and selects post-introduction patients for the target treatment by the
model-based benefit rule: ``selection.treatment_codes`` (the rule of
``selection.assign``) on the plan-based true risk that ``make_true_risk_fn``
also gives. Every patient keeps its latent risks so estimators can be scored
against the truth. ``generate_range`` builds the worlds of configs that
differ only in seed at once, each from its own seed's stream; ``generate``
is a range of one.

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
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, EstimandError, Integer, OneOf, Real, check_fields, checked
from .estimator import EffectScale, odds
from .glm import ModelSpec, PlanSource, design_columns, expit, quadratic_dose
from .records import (
    Cohort,
    DOSE_FIELDS,
    LOCATIONS,
    MAX_DOSE_GY,
    Treatment,
    TumorLocation,
    _trusted_cohort,
    cohort_csv_bytes,
    json_bytes,
    write_outputs,
)
from .rng import substream
from .selection import RiskFn, treatment_codes

# The true outcome mechanism's coefficients, in the order of the default
# working model's design columns (``glm.design_columns(ModelSpec())``).
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
        check_fields(self, organ=OneOf(DOSE_FIELDS), max_gy=Real(), min_gy=Real())
        if not (0.0 <= self.min_gy < self.max_gy <= MAX_DOSE_GY):
            raise ConfigurationError(f"truncation bounds must satisfy 0 <= min < max <= {MAX_DOSE_GY:g}")
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
        check_fields(self, secular_dose_drift=Real(), unmeasured_confounder_strength=Real(),
                     support_truncation=DoseTruncation | None, nonlinearity_amplitude=Real())

    def is_neutral(self) -> bool:
        return self == ViolationShift()


# The largest cohort size: numpy can lay out the widest per-patient array that
# generation or the lab's fit allocates, a row of the lab's design (float64),
# for this many patients. Generation's widest, a row of four doses, is narrower.
MAX_COHORT_SIZE = np.iinfo(np.intp).max // (8 * len(design_columns(ModelSpec())))


@dataclass(frozen=True)
class GeneratorConfig:
    """What a run sets of a world: cohort sizes, seed, selection threshold and violation shift.

    Everything else about the world is a module constant. A value out of
    range, such as a cohort size above ``MAX_COHORT_SIZE``, raises
    ``ConfigurationError`` naming the first offending field.
    """

    n_pre: int = 750
    n_post: int = 300
    seed: int = 0
    selection_threshold: float = 0.10
    shift: ViolationShift = field(default_factory=ViolationShift)

    def __post_init__(self):
        check_fields(self, n_pre=Integer(1, MAX_COHORT_SIZE), n_post=Integer(1, MAX_COHORT_SIZE), seed=Integer(0),
                     selection_threshold=Real(0.0, 1.0), shift=ViolationShift)


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
    """Linear predictor of the true outcome mechanism at the given doses, for a cohort or a stack of cohorts.

    ``doses`` is (n, 4) or (worlds, n, 4); numpy multiplies a stack by the
    coefficients one cohort at a time, as it does a single cohort.
    """
    contrasts = np.concatenate([[0.0], beta[2:5]])  # reference: oropharynx
    eta = beta[0] + beta[1] * dysphagia + contrasts[loc_codes] + doses @ beta[5:9]
    if nonlinearity_amplitude != 0.0:
        eta = eta + nonlinearity_amplitude * quadratic_dose(doses[..., 0])
    if confounder is not None and confounder_strength != 0.0:
        eta = eta + confounder_strength * confounder
    return eta


def _true_risk(
    dysphagia: np.ndarray, loc_codes: np.ndarray, doses: np.ndarray, shift: ViolationShift,
    confounder: np.ndarray | None = None,
) -> np.ndarray:
    """True outcome risk at ``doses`` under ``shift``: the nonlinear term when active.

    Without ``confounder`` it is the plan-based risk; with it, the latent
    confounder's term is added at the shift's strength. ``dysphagia`` is
    float; the arrays may be one cohort's or stacks.
    """
    return expit(_true_linear_predictor(_BETA, dysphagia, loc_codes, doses,
                                        nonlinearity_amplitude=shift.nonlinearity_amplitude, confounder=confounder,
                                        confounder_strength=shift.unmeasured_confounder_strength))


def make_true_risk_fn(config: GeneratorConfig) -> RiskFn:
    """The structural risk function behind model-based selection.

    Maps (cohort, plan source) to every patient's true standard-treatment
    risk at that plan's doses. Includes the nonlinear dose-response term
    when active, but not the latent confounder or the secular drift, which
    are not part of any plan-based risk model.
    """
    shift = config.shift

    def risk(patients: Cohort, plan_source: PlanSource) -> np.ndarray:
        doses = patients.photon if plan_source is PlanSource.PHOTON else patients.proton
        return _true_risk(patients.dysphagia.astype(float), patients.loc_code, doses, shift)

    return risk


# The cumulative location weights that ``Generator.choice(4, p=weights)``
# searches with one uniform per draw (``cdf.searchsorted(random(n), "right")``),
# so a location draw is that uniform draw and one search of the whole stack.
_LOCATION_WEIGHTS = _table([LOCATION_WEIGHTS[loc] for loc in LOCATIONS])
_LOCATION_CDF = (_LOCATION_WEIGHTS / _LOCATION_WEIGHTS.sum()).cumsum()
_LOCATION_CDF /= _LOCATION_CDF[-1]
_LOCATION_CDF.flags.writeable = False


def _uniforms(rngs: Sequence[np.random.Generator], n: int) -> np.ndarray:
    """A (worlds, n) stack whose row w is ``rngs[w].random(n)``."""
    out = np.empty((len(rngs), n))
    for rng, row in zip(rngs, out):
        rng.random(out=row)
    return out


def _draw_doses(
    rngs: Sequence[np.random.Generator],
    loc_codes: np.ndarray,
    truncation: DoseTruncation | None,
) -> np.ndarray:
    """Truncated-normal organ doses by rejection sampling: a (worlds, n, 4) stack, world w drawn from ``rngs[w]``.

    A cell's draw is ``mean + sd * z`` with ``z`` from ``standard_normal``:
    the bits, and the stream position, that ``rng.normal(mean, sd)`` gives.
    The first pass draws every cell of each world from its stream. Each
    later pass redraws the cells still rejected, each world's from its own
    stream in row-major order, against their own bounds carried from pass to
    pass, so a world's draws depend only on its seed. Every pass scales and
    tests the cells of all worlds at once. The number of passes is set by the
    rarest cell.
    """
    means = _DOSE_MEANS[loc_codes]
    sds = _DOSE_SDS[loc_codes]
    z = np.empty(means.shape)
    for rng, world in zip(rngs, z):
        rng.standard_normal(out=world)
    doses = means + sds * z
    lo, hi = _dose_window(truncation)
    cells = doses.reshape(-1)  # a view: the redraws land in the stack
    bad = ((doses < lo) | (doses > hi)).reshape(-1).nonzero()[0]
    world = bad // doses[0].size
    means, sds, lo, hi = means.reshape(-1)[bad], sds.reshape(-1)[bad], lo[bad % 4], hi[bad % 4]
    while bad.size:
        z = np.empty(bad.size)
        counts = np.bincount(world)
        start = 0
        for w in counts.nonzero()[0]:
            rngs[w].standard_normal(out=z[start : start + counts[w]])
            start += counts[w]
        draws = means + sds * z
        cells[bad] = draws
        redraw = ((draws < lo) | (draws > hi)).nonzero()[0]
        if redraw.size < bad.size:
            bad, world, means, sds, lo, hi = (array[redraw] for array in (bad, world, means, sds, lo, hi))
    return doses


def _draw_patients(rngs: Sequence[np.random.Generator], n: int, truncation: DoseTruncation | None):
    """Each stream's ``n`` patients as stacks: dysphagia (float), location codes, doses and confounder (float).

    Each stream draws them in that order: a uniform per patient for
    dysphagia, one for the location, the doses, a uniform for the confounder.
    """
    dysphagia = (_uniforms(rngs, n) < DYSPHAGIA_PREVALENCE).astype(float)
    loc_codes = _LOCATION_CDF.searchsorted(_uniforms(rngs, n), side="right")
    doses = _draw_doses(rngs, loc_codes, truncation)
    confounder = (_uniforms(rngs, n) < CONFOUNDER_PREVALENCE).astype(float)
    return dysphagia, loc_codes, doses, confounder


@lru_cache(maxsize=8)
def _serial_ids(prefix: str, n: int) -> np.ndarray:
    """Record ids ``<prefix>-0001`` ... ``<prefix>-<n>``, shared read-only across worlds."""
    ids = np.array([f"{prefix}-{i:04d}" for i in range(1, n + 1)], dtype=object)
    ids.flags.writeable = False
    return ids


# The fields that every config of a range shares.
_RANGE_FIELDS = tuple(f.name for f in fields(GeneratorConfig) if f.name != "seed")


def generate_range(configs: Sequence[GeneratorConfig]) -> list[GeneratedWorld]:
    """One world per config, for one or more configs that differ only in ``seed``: cohorts with latent outcomes.

    Each world is the one its config gives alone: it draws from the stream
    of its own seed, in the same order whatever range it is in, and every
    step that draws nothing (dose tables, risks, selection, outcomes) runs
    once on (worlds, patients) stacks. The pre cohort is entirely standard
    treated; the post cohort's treatments are assigned by the model-based
    selection rule on the plan-based true risk (``make_true_risk_fn``'s).
    Configs that differ in another field raise ``ConfigurationError``
    naming it. No configs give no worlds.
    """
    for i, other in enumerate(checked(configs, tuple | list, "generate_range.configs")):
        checked(other, GeneratorConfig, f"generate_range.configs[{i}]")
    if not configs:
        return []
    config = configs[0]
    for name in _RANGE_FIELDS:
        if any(getattr(other, name) != getattr(config, name) for other in configs):
            raise ConfigurationError(f"the configs of one range must differ only in seed, not in {name}")
    shift = config.shift
    rngs = [substream(c.seed) for c in configs]

    # --- pre-introduction cohorts ----------------------------------------
    n_pre = config.n_pre
    pre_dys, pre_loc, pre_doses, pre_conf = _draw_patients(rngs, n_pre, shift.support_truncation)
    pre_p0 = _true_risk(pre_dys, pre_loc, pre_doses, shift, pre_conf)
    pre_y0 = (_uniforms(rngs, n_pre) < pre_p0).astype(int)
    pre_dys = pre_dys.astype(int)

    # --- post-introduction cohorts ---------------------------------------
    n_post = config.n_post
    post_dys, post_loc, post_photon, post_conf = _draw_patients(rngs, n_post, None)
    # The per-organ proton/photon dose ratio, correlated within a patient.
    mu = _REDUCTION_MEANS[post_loc]
    shared = np.array([rng.beta(a, b) for rng, a, b in
                       zip(rngs, mu * REDUCTION_CONCENTRATION, (1.0 - mu) * REDUCTION_CONCENTRATION)])
    if shift.unmeasured_confounder_strength != 0.0:
        # Higher stage: larger achievable reduction (lower r).
        shared = shared - 0.10 * shift.unmeasured_confounder_strength * post_conf
    jitter = np.array([rng.normal(0.0, REDUCTION_JITTER_SD, size=(n_post, 4)) for rng in rngs])
    post_proton = np.clip(shared[..., None] + jitter, 0.0, 1.0) * post_photon

    # Standard-treatment risk: the recorded plan minus any secular planning
    # improvement that the recorded plan does not reflect.
    drifted = np.clip(post_photon - shift.secular_dose_drift, 0.0, None)
    post_p0 = _true_risk(post_dys, post_loc, drifted, shift, post_conf)
    post_p1 = _true_risk(post_dys, post_loc, post_proton, shift, post_conf)
    post_u = _uniforms(rngs, n_post)
    post_y0 = (post_u < post_p0).astype(int)
    post_y1 = (post_u < post_p1).astype(int)
    # Model-based selection on the true plan-based risk: no latent
    # confounder, no secular drift.
    benefits = _true_risk(post_dys, post_loc, post_photon, shift) - _true_risk(post_dys, post_loc, post_proton, shift)
    treatment = treatment_codes(benefits, config.selection_threshold)
    outcome = np.where(treatment == Treatment.TARGET.value, post_y1, post_y0)
    post_dys = post_dys.astype(int)

    # The fields every world of the range holds alike, which every world's cohort shares, and the stacks whose
    # rows are the worlds' fields: all read-only, as a cohort keeps them, so no world's cohort is copied or checked.
    pre_fixed = dict(ids=_serial_ids("pre", n_pre), post=np.zeros(n_pre, dtype=bool),
                     proton=np.full((n_pre, 4), np.nan), has_proton=np.zeros(n_pre, dtype=bool),
                     treatment=np.full(n_pre, Treatment.STANDARD.value))
    post_fixed = dict(ids=_serial_ids("post", n_post), post=np.ones(n_post, dtype=bool),
                      has_proton=np.ones(n_post, dtype=bool))
    pre_stacks = dict(dysphagia=pre_dys, loc_code=pre_loc, photon=pre_doses, outcome=pre_y0, p0=pre_p0, p1=pre_p0,
                      y0=pre_y0, y1=pre_y0)
    post_stacks = dict(dysphagia=post_dys, loc_code=post_loc, photon=post_photon, proton=post_proton,
                       treatment=treatment, outcome=outcome, p0=post_p0, p1=post_p1, y0=post_y0, y1=post_y1)
    for array in (*pre_fixed.values(), *post_fixed.values(), *pre_stacks.values(), *post_stacks.values()):
        array.flags.writeable = False
    return [
        GeneratedWorld(
            pre=_trusted_cohort(**pre_fixed, **{name: stack[w] for name, stack in pre_stacks.items()}),
            post=_trusted_cohort(**post_fixed, **{name: stack[w] for name, stack in post_stacks.items()}),
            config=world_config,
        )
        for w, world_config in enumerate(configs)
    ]


def generate(config: GeneratorConfig) -> GeneratedWorld:
    """Generate one world: pre and post cohorts with latent potential outcomes; ``generate_range([config])``."""
    (world,) = generate_range([config])
    return world


def true_att(world: GeneratedWorld, scale: EffectScale) -> float:
    """Ground-truth effect on ``scale`` among the world's target-treated patients: ``true_att_of`` their subset."""
    checked(world, GeneratedWorld, "true_att.world")
    checked(scale, EffectScale, "true_att.scale")
    return true_att_of(world.post.treated(), scale)


def true_att_of(treated: Cohort, scale: EffectScale) -> float:
    """Ground-truth effect on ``scale`` among ``treated``, a world's target-treated patients, from latent risks.

    Raises ``EstimandError`` when nobody is target-treated, or when the
    effect is undefined on ``scale``.
    """
    checked(treated, Cohort, "true_att_of.treated")
    checked(scale, EffectScale, "true_att_of.scale")
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
    return {
        "n_pre": config.n_pre,
        "n_post": config.n_post,
        "seed": config.seed,
        "true_beta": {name: float(b) for name, b in zip(design_columns(ModelSpec()), DEFAULT_TRUE_BETA)},
        "dose_model": {loc.value: DEFAULT_DOSE_MODEL[loc] for loc in LOCATIONS},
        "proton_reduction_model": {
            "mean_by_location": {loc.value: DEFAULT_REDUCTION_MEANS[loc] for loc in LOCATIONS},
            "concentration": REDUCTION_CONCENTRATION,
            "organ_jitter_sd": REDUCTION_JITTER_SD,
        },
        "selection_threshold": config.selection_threshold,
        "p_baseline_dysphagia": DYSPHAGIA_PREVALENCE,
        "location_weights": {loc.value: LOCATION_WEIGHTS[loc] for loc in LOCATIONS},
        "confounder_prevalence": CONFOUNDER_PREVALENCE,
        "shift": config.shift,
    }


def write_world(world: GeneratedWorld, out_dir: str | Path) -> dict[str, Path]:
    """Write pre.csv, post.csv, and truth.json into ``out_dir``.

    All three are rendered before any is opened, so a world that cannot be
    written, such as one with no target-treated patient (``true_att``
    raises ``EstimandError``), leaves no file behind.
    """
    checked(world, GeneratedWorld, "write_world.world")
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
