"""Model-based treatment selection: two plans per patient, benefit threshold."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .errors import ConfigurationError, MissingPlanError
from .records import DosePlan, PatientRecord, Treatment

RiskFn = Callable[[PatientRecord, DosePlan], float]


class Strictness(Enum):
    STRICT = "strict"  # benefit must exceed the threshold
    INCLUSIVE = "inclusive"  # benefit at the threshold also selects


@dataclass(frozen=True)
class SelectionRule:
    risk_fn: RiskFn
    threshold: float = 0.10
    strictness: Strictness = Strictness.STRICT

    def __post_init__(self):
        if not (0.0 < self.threshold < 1.0):
            raise ConfigurationError(f"selection threshold {self.threshold} outside (0, 1)")


def benefit(record: PatientRecord, risk_fn: RiskFn) -> float:
    """Predicted risk under the photon plan minus risk under the proton plan."""
    if record.proton_doses is None:
        raise MissingPlanError([record.id])
    return float(risk_fn(record, record.photon_doses) - risk_fn(record, record.proton_doses))


def assign(records, rule: SelectionRule) -> list[Treatment]:
    """Deterministic treatment labels: target iff the benefit clears the threshold."""
    labels = []
    for rec in records:
        b = benefit(rec, rule.risk_fn)
        selected = b > rule.threshold if rule.strictness is Strictness.STRICT else b >= rule.threshold
        labels.append(Treatment.TARGET if selected else Treatment.STANDARD)
    return labels

