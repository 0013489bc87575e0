"""Model-based treatment selection: two plans per patient, benefit threshold."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import MissingPlanError, Real, check_fields, checked
from .glm import PlanSource
from .records import Cohort, Treatment

# Every patient's risk under one of their plans; ``functools.partial(glm.predict_risk, fit)`` is one.
RiskFn = Callable[[Cohort, PlanSource], np.ndarray]


class Strictness(Enum):
    STRICT = "strict"  # benefit must exceed the threshold
    INCLUSIVE = "inclusive"  # benefit at the threshold also selects


@dataclass(frozen=True)
class SelectionRule:
    risk_fn: RiskFn
    threshold: float = 0.10
    strictness: Strictness = Strictness.STRICT

    def __post_init__(self):
        check_fields(self, risk_fn=Callable, threshold=Real(0.0, 1.0), strictness=Strictness)


def benefit(patients: Cohort, risk_fn: RiskFn) -> np.ndarray:
    """Every patient's predicted risk under the photon plan minus their risk under the proton plan."""
    checked(patients, Cohort, "benefit.patients")
    checked(risk_fn, Callable, "benefit.risk_fn")
    missing = patients.ids[~patients.has_proton]
    if missing.size:
        raise MissingPlanError(missing.tolist())
    return risk_fn(patients, PlanSource.PHOTON) - risk_fn(patients, PlanSource.PROTON)


def treatment_codes(benefits: np.ndarray, threshold: float, strictness: Strictness = Strictness.STRICT) -> np.ndarray:
    """Treatment codes shaped like ``benefits``: target iff the benefit clears ``threshold``."""
    checked(strictness, Strictness, "treatment_codes.strictness")
    selected = benefits > threshold if strictness is Strictness.STRICT else benefits >= threshold
    return np.where(selected, Treatment.TARGET.value, Treatment.STANDARD.value)


def assign(patients: Cohort, rule: SelectionRule) -> np.ndarray:
    """Deterministic treatment codes shaped like ``Cohort.treatment``: target iff the benefit clears the threshold."""
    checked(patients, Cohort, "assign.patients")
    checked(rule, SelectionRule, "assign.rule")
    return treatment_codes(benefit(patients, rule.risk_fn), rule.threshold, rule.strictness)
