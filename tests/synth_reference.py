"""The one-world generator and the whole-array dose sampler that ``synth`` replaced; kept as their references.

``reference_generate`` builds one world with one draw call per quantity,
``rng.choice`` for the locations and ``rng.normal`` for every dose pass,
computes its risks on that world alone, and selects its post cohort with
``selection.assign`` on a cohort built before treatment is known.
``synth.generate_range`` must give every world of a range exactly this world.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from attlab.glm import expit
from attlab.records import DOSE_FIELDS, LOCATIONS, MAX_DOSE_GY, Cohort, Treatment
from attlab.selection import SelectionRule, assign
from attlab.synth import (
    CONFOUNDER_PREVALENCE,
    DEFAULT_DOSE_MODEL,
    DEFAULT_REDUCTION_MEANS,
    DEFAULT_TRUE_BETA,
    DYSPHAGIA_PREVALENCE,
    LOCATION_WEIGHTS,
    REDUCTION_CONCENTRATION,
    REDUCTION_JITTER_SD,
    GeneratedWorld,
    GeneratorConfig,
    _true_linear_predictor,
    make_true_risk_fn,
)


def masked_draw_doses(rng, loc_codes, truncation):
    """Whole-array rejection sampling of one cohort's doses: every rejected cell redrawn with ``rng.normal``."""
    means = np.array([DEFAULT_DOSE_MODEL[loc].means for loc in LOCATIONS])[loc_codes]
    sds = np.array([DEFAULT_DOSE_MODEL[loc].sds for loc in LOCATIONS])[loc_codes]
    lo, hi = np.zeros(4), np.full(4, MAX_DOSE_GY)
    if truncation is not None:
        organ = DOSE_FIELDS.index(truncation.organ)
        lo[organ], hi[organ] = truncation.min_gy, min(truncation.max_gy, MAX_DOSE_GY)
    doses = rng.normal(means, sds)
    bad = (doses < lo) | (doses > hi)
    while np.any(bad):
        doses[bad] = rng.normal(means[bad], sds[bad])
        bad = (doses < lo) | (doses > hi)
    return doses


def reference_generate(config: GeneratorConfig) -> GeneratedWorld:
    """One world, generated alone."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    shift = config.shift
    beta = np.array(DEFAULT_TRUE_BETA)
    weights = np.array([LOCATION_WEIGHTS[loc] for loc in LOCATIONS], dtype=float)
    weights = weights / weights.sum()

    def latent_risk(dysphagia, loc_codes, doses, confounder):
        eta = _true_linear_predictor(
            beta,
            dysphagia.astype(float),
            loc_codes,
            doses,
            nonlinearity_amplitude=shift.nonlinearity_amplitude,
            confounder=confounder,
            confounder_strength=shift.unmeasured_confounder_strength,
        )
        return expit(eta)

    n_pre = config.n_pre
    pre_dys = (rng.random(n_pre) < DYSPHAGIA_PREVALENCE).astype(int)
    pre_loc = rng.choice(len(LOCATIONS), size=n_pre, p=weights)
    pre_doses = masked_draw_doses(rng, pre_loc, shift.support_truncation)
    pre_conf = (rng.random(n_pre) < CONFOUNDER_PREVALENCE).astype(float)
    pre_p0 = latent_risk(pre_dys, pre_loc, pre_doses, pre_conf)
    pre_u = rng.random(n_pre)
    pre_y0 = (pre_u < pre_p0).astype(int)
    pre = Cohort(
        ids=np.array([f"pre-{i:04d}" for i in range(1, n_pre + 1)], dtype=object),
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

    n_post = config.n_post
    post_dys = (rng.random(n_post) < DYSPHAGIA_PREVALENCE).astype(int)
    post_loc = rng.choice(len(LOCATIONS), size=n_post, p=weights)
    post_photon = masked_draw_doses(rng, post_loc, None)
    post_conf = (rng.random(n_post) < CONFOUNDER_PREVALENCE).astype(float)
    mu = np.array([DEFAULT_REDUCTION_MEANS[loc] for loc in LOCATIONS])[post_loc]
    shared = rng.beta(mu * REDUCTION_CONCENTRATION, (1.0 - mu) * REDUCTION_CONCENTRATION)
    if shift.unmeasured_confounder_strength != 0.0:
        shared = shared - 0.10 * shift.unmeasured_confounder_strength * post_conf
    jitter = rng.normal(0.0, REDUCTION_JITTER_SD, size=(n_post, 4))
    post_proton = np.clip(shared[:, None] + jitter, 0.0, 1.0) * post_photon

    drifted = np.clip(post_photon - shift.secular_dose_drift, 0.0, None)
    post_p0 = latent_risk(post_dys, post_loc, drifted, post_conf)
    post_p1 = latent_risk(post_dys, post_loc, post_proton, post_conf)
    post_u = rng.random(n_post)
    post_y0 = (post_u < post_p0).astype(int)
    post_y1 = (post_u < post_p1).astype(int)

    unselected = Cohort(
        ids=np.array([f"post-{i:04d}" for i in range(1, n_post + 1)], dtype=object),
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
    treatment = assign(unselected, SelectionRule(make_true_risk_fn(config), config.selection_threshold))
    post = replace(unselected, treatment=treatment, outcome=np.where(treatment == Treatment.TARGET.value, post_y1,
                                                                     post_y0))
    return GeneratedWorld(pre=pre, post=post, config=config)
