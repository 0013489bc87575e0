"""Patient-level data model: dose plans, records, cohorts, validation, CSV I/O.

A cohort holds its patients as ``PatientColumns``, one array per field, and
the package computes on those. ``PatientRecord`` objects are the per-patient
view for CSV I/O, ``validate`` and outside callers; a cohort builds them
only when asked, and ``as_columns`` converts a record sequence once.

All types are immutable after construction and safe to share across
concurrent tasks. ``validate`` reports problems instead of raising, so a
caller can surface every violation at once.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import SchemaError

MAX_DOSE_GY = 80.0

DOSE_FIELDS = ("dose_sup_pcm", "dose_mid_pcm", "dose_inf_pcm", "dose_oral_cavity")

CSV_HEADER = (
    "id",
    "period",
    "treatment",
    "baseline_dysphagia",
    "tumor_location",
    "dose_sup_pcm",
    "dose_mid_pcm",
    "dose_inf_pcm",
    "dose_oral_cavity",
    "dose_sup_pcm_proton",
    "dose_mid_pcm_proton",
    "dose_inf_pcm_proton",
    "dose_oral_cavity_proton",
    "outcome",
)

# Dose values are carried in CSV with up to 4 decimal places.
DOSE_DECIMALS = 4


class Period(Enum):
    PRE = "pre"
    POST = "post"


class Treatment(Enum):
    STANDARD = 0
    TARGET = 1


class TumorLocation(Enum):
    OROPHARYNX = "oropharynx"
    NASOPHARYNX = "nasopharynx"
    LARYNX = "larynx"
    ORAL_CAVITY = "oral_cavity"


LOCATIONS = tuple(TumorLocation)


class CohortLabel(Enum):
    PRE_INTRODUCTION = "pre_introduction"
    POST_INTRODUCTION = "post_introduction"

    @property
    def period(self) -> Period:
        return Period.PRE if self is CohortLabel.PRE_INTRODUCTION else Period.POST


@dataclass(frozen=True, slots=True)
class DosePlan:
    """Mean planned dose (Gy) to the four swallowing-related organs."""

    dose_sup_pcm: float
    dose_mid_pcm: float
    dose_inf_pcm: float
    dose_oral_cavity: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.dose_sup_pcm, self.dose_mid_pcm, self.dose_inf_pcm, self.dose_oral_cavity)


@dataclass(frozen=True, slots=True)
class PotentialOutcomes:
    """Latent ground truth attached to synthetic records only.

    ``y0``/``y1`` are the outcomes the patient would experience under the
    standard and target treatment; ``p0``/``p1`` the true risks they were
    drawn from.
    """

    y0: int
    y1: int
    p0: float
    p1: float


@dataclass(frozen=True, slots=True)
class PatientRecord:
    id: str
    period: Period
    treatment: Treatment
    baseline_dysphagia: int
    tumor_location: TumorLocation
    photon_doses: DosePlan
    outcome: int
    proton_doses: DosePlan | None = None
    latent: PotentialOutcomes | None = None


_LOCATION_CODE = {loc: i for i, loc in enumerate(LOCATIONS)}
_TREATMENTS = {t.value: t for t in Treatment}
_NO_PLAN = (math.nan,) * 4


@dataclass(frozen=True, eq=False)
class PatientColumns:
    """Per-patient data as read-only arrays, one row per patient.

    ``loc_code`` indexes ``LOCATIONS``, ``treatment`` holds ``Treatment``
    values and ``post`` is true for post-introduction patients. ``photon``
    and ``proton`` are n x 4 in ``DOSE_FIELDS`` order; a proton row is NaN
    where the patient has no proton plan. The latent risks and potential
    outcomes ``p0``/``p1``/``y0``/``y1`` are present only when every patient
    carries them.
    """

    ids: np.ndarray
    post: np.ndarray
    dysphagia: np.ndarray
    loc_code: np.ndarray
    photon: np.ndarray
    proton: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    p0: np.ndarray | None = None
    p1: np.ndarray | None = None
    y0: np.ndarray | None = None
    y1: np.ndarray | None = None

    def __post_init__(self):
        for f in fields(self):
            array = getattr(self, f.name)
            if array is not None:
                array.flags.writeable = False

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def has_proton(self) -> np.ndarray:
        return ~np.isnan(self.proton).all(axis=1)

    def take(self, rows: np.ndarray) -> "PatientColumns":
        """The patients at ``rows`` (a boolean mask or an index array), in that order."""
        return PatientColumns(
            **{f.name: None if (a := getattr(self, f.name)) is None else a[rows] for f in fields(self)}
        )

    @classmethod
    def from_records(cls, records) -> "PatientColumns":
        records = tuple(records)
        n = len(records)
        latent = all(r.latent is not None for r in records)
        return cls(
            ids=np.array([r.id for r in records], dtype=str),
            post=np.array([r.period is Period.POST for r in records], dtype=bool),
            dysphagia=np.array([r.baseline_dysphagia for r in records]),
            loc_code=np.array([_LOCATION_CODE[r.tumor_location] for r in records], dtype=int),
            photon=np.array([r.photon_doses.as_tuple() for r in records], dtype=float).reshape(n, 4),
            proton=np.array(
                [_NO_PLAN if r.proton_doses is None else r.proton_doses.as_tuple() for r in records],
                dtype=float,
            ).reshape(n, 4),
            treatment=np.array([r.treatment.value for r in records], dtype=int),
            outcome=np.array([r.outcome for r in records]),
            p0=np.array([r.latent.p0 for r in records]) if latent else None,
            p1=np.array([r.latent.p1 for r in records]) if latent else None,
            y0=np.array([r.latent.y0 for r in records]) if latent else None,
            y1=np.array([r.latent.y1 for r in records]) if latent else None,
        )

    def to_records(self) -> tuple[PatientRecord, ...]:
        n = len(self)
        latent = (
            map(PotentialOutcomes, self.y0.tolist(), self.y1.tolist(), self.p0.tolist(), self.p1.tolist())
            if self.p0 is not None
            else (None,) * n
        )
        return tuple(
            PatientRecord(
                id=rid,
                period=Period.POST if post else Period.PRE,
                treatment=_TREATMENTS[treatment],
                baseline_dysphagia=dysphagia,
                tumor_location=LOCATIONS[loc],
                photon_doses=DosePlan(*photon),
                outcome=outcome,
                proton_doses=DosePlan(*proton) if has_proton else None,
                latent=lat,
            )
            for rid, post, treatment, dysphagia, loc, photon, proton, has_proton, outcome, lat in zip(
                self.ids.tolist(),
                self.post.tolist(),
                self.treatment.tolist(),
                self.dysphagia.tolist(),
                self.loc_code.tolist(),
                self.photon.tolist(),
                self.proton.tolist(),
                self.has_proton.tolist(),
                self.outcome.tolist(),
                latent,
            )
        )


class Cohort:
    """An ordered, immutable cohort: its patients and its label.

    Built from either ``records`` or ``columns``; the other view is derived
    on first use and kept. The package computes on ``columns``; ``records``
    serve CSV writing, ``validate`` and callers that want per-patient
    objects. Iterating a cohort yields its records.
    """

    __slots__ = ("_label", "_columns", "_records")

    def __init__(
        self,
        records=None,
        label: CohortLabel | None = None,
        *,
        columns: PatientColumns | None = None,
    ):
        if label is None:
            raise TypeError("a cohort needs a label")
        if (records is None) == (columns is None):
            raise TypeError("a cohort is built from exactly one of records or columns")
        self._label = label
        self._columns = columns
        self._records = None if records is None else tuple(records)

    @property
    def label(self) -> CohortLabel:
        return self._label

    @property
    def columns(self) -> PatientColumns:
        if self._columns is None:
            self._columns = PatientColumns.from_records(self._records)
        return self._columns

    @property
    def records(self) -> tuple[PatientRecord, ...]:
        if self._records is None:
            self._records = self._columns.to_records()
        return self._records

    def __len__(self) -> int:
        return len(self._records) if self._records is not None else len(self._columns)

    def __iter__(self):
        return iter(self.records)

    def _with_treatment(self, treatment: Treatment) -> "Cohort":
        columns = self.columns
        return Cohort(columns=columns.take(columns.treatment == treatment.value), label=self.label)

    def treated(self) -> "Cohort":
        """The target-treated patients, as a cohort with the same label."""
        return self._with_treatment(Treatment.TARGET)

    def standard(self) -> "Cohort":
        """The standard-treated patients, as a cohort with the same label."""
        return self._with_treatment(Treatment.STANDARD)


def as_columns(patients) -> PatientColumns:
    """The columns of a cohort, or of a record sequence, converted once."""
    if isinstance(patients, PatientColumns):
        return patients
    if isinstance(patients, Cohort):
        return patients.columns
    return PatientColumns.from_records(patients)


@dataclass(frozen=True, slots=True)
class SchemaViolation:
    record_id: str | None
    field: str | None
    rule: str

    def __str__(self) -> str:
        where = self.record_id if self.record_id is not None else "<cohort>"
        field = f".{self.field}" if self.field else ""
        return f"{where}{field}: {self.rule}"


def _check_dose_plan(rid: str, field: str, plan: DosePlan, out: list[SchemaViolation]) -> None:
    for organ, value in zip(DOSE_FIELDS, plan.as_tuple()):
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            out.append(SchemaViolation(rid, f"{field}.{organ}", "dose must be finite"))
        elif value < 0.0 or value > MAX_DOSE_GY:
            out.append(
                SchemaViolation(rid, f"{field}.{organ}", f"dose {value} Gy outside [0, {MAX_DOSE_GY}]")
            )


def validate(cohort: Cohort) -> list[SchemaViolation]:
    """Check every record against the data-model invariants.

    Returns an empty list iff the cohort is well formed. Never raises.
    """
    violations: list[SchemaViolation] = []
    if len(cohort.records) == 0:
        violations.append(SchemaViolation(None, None, "cohort empty"))
        return violations

    expected_period = cohort.label.period
    seen_ids: set[str] = set()
    for rec in cohort.records:
        rid = rec.id
        if rid in seen_ids:
            violations.append(SchemaViolation(rid, "id", f"duplicate record id {rid!r}"))
        seen_ids.add(rid)
        if rec.period is not expected_period:
            violations.append(
                SchemaViolation(rid, "period", f"period {rec.period.value} does not match cohort label")
            )
        if rec.period is Period.PRE:
            if rec.treatment is not Treatment.STANDARD:
                violations.append(
                    SchemaViolation(rid, "treatment", "pre-introduction records must be standard-treated")
                )
            if rec.proton_doses is not None:
                violations.append(
                    SchemaViolation(rid, "proton_doses", "pre-introduction records must not carry a proton plan")
                )
        if rec.treatment is Treatment.TARGET:
            if rec.period is not Period.POST:
                violations.append(
                    SchemaViolation(rid, "treatment", "target-treated records must be post-introduction")
                )
            if rec.proton_doses is None:
                violations.append(
                    SchemaViolation(rid, "proton_doses", "target-treated records must carry a proton plan")
                )
        if rec.outcome not in (0, 1):
            violations.append(SchemaViolation(rid, "outcome", f"outcome {rec.outcome!r} not in {{0,1}}"))
        if rec.baseline_dysphagia not in (0, 1):
            violations.append(
                SchemaViolation(rid, "baseline_dysphagia", f"value {rec.baseline_dysphagia!r} not in {{0,1}}")
            )
        _check_dose_plan(rid, "photon_doses", rec.photon_doses, violations)
        if rec.proton_doses is not None:
            _check_dose_plan(rid, "proton_doses", rec.proton_doses, violations)
        if rec.latent is not None:
            lat = rec.latent
            for name, p in (("p0", lat.p0), ("p1", lat.p1)):
                if not (0.0 < p < 1.0):
                    violations.append(SchemaViolation(rid, f"latent.{name}", f"risk {p} outside (0,1)"))
            if lat.y0 not in (0, 1) or lat.y1 not in (0, 1):
                violations.append(SchemaViolation(rid, "latent", "potential outcomes must be binary"))
            expected = lat.y0 if rec.treatment is Treatment.STANDARD else lat.y1
            if rec.outcome != expected:
                violations.append(
                    SchemaViolation(rid, "outcome", "outcome does not equal the potential outcome for the received treatment")
                )
    return violations


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def format_dose(value: float) -> str:
    """Canonical dose text: at most 4 decimals, no trailing zeros."""
    text = f"{value:.{DOSE_DECIMALS}f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


def _record_to_row(rec: PatientRecord) -> list[str]:
    proton = rec.proton_doses.as_tuple() if rec.proton_doses is not None else ("",) * 4
    return [
        rec.id,
        rec.period.value,
        str(rec.treatment.value),
        str(rec.baseline_dysphagia),
        rec.tumor_location.value,
        *[format_dose(v) for v in rec.photon_doses.as_tuple()],
        *[format_dose(v) if v != "" else "" for v in proton],
        str(rec.outcome),
    ]


def write_cohort_csv(cohort: Cohort, path: str | Path) -> None:
    """Write a cohort in the canonical CSV schema (latent fields are not persisted)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # The writer quotes a field holding "\n" but not one holding a bare
        # "\r", which a reader takes for a line end; such ids get quoted rows.
        quoting_writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(CSV_HEADER)
        for rec in cohort.records:
            (quoting_writer if "\r" in rec.id else writer).writerow(_record_to_row(rec))


def _parse_enum(raw: str, mapping: dict, rid: str, field: str, out: list[SchemaViolation]):
    try:
        return mapping[raw]
    except KeyError:
        out.append(SchemaViolation(rid, field, f"unknown value {raw!r} (expected one of {sorted(mapping)})"))
        return None


def _parse_float(raw: str, rid: str, field: str, out: list[SchemaViolation]) -> float | None:
    try:
        return float(raw)
    except ValueError:
        out.append(SchemaViolation(rid, field, f"not a number: {raw!r}"))
        return None


def _parse_int01(raw: str, rid: str, field: str, out: list[SchemaViolation]) -> int | None:
    if raw in ("0", "1"):
        return int(raw)
    out.append(SchemaViolation(rid, field, f"expected 0 or 1, got {raw!r}"))
    return None


def _decode(path: str | Path) -> str:
    """The file's text; bytes that are not UTF-8 raise ``SchemaError`` naming the file and line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SchemaError(
            [SchemaViolation(f"{path} line {line}", None, f"not valid UTF-8: {exc.reason} at byte {exc.start}")]
        )


def read_cohort_csv(path: str | Path, label: CohortLabel) -> Cohort:
    """Parse a cohort CSV. Raises ``SchemaError`` listing all parse problems."""
    violations: list[SchemaViolation] = []
    records: list[PatientRecord] = []
    period_map = {p.value: p for p in Period}
    treatment_map = {str(t.value): t for t in Treatment}
    location_map = {loc.value: loc for loc in TumorLocation}

    reader = csv.reader(io.StringIO(_decode(path), newline=""))
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError([SchemaViolation(None, None, "file is empty, header required")])
        if tuple(header) != CSV_HEADER:
            raise SchemaError(
                [SchemaViolation(None, None, f"bad header: expected {','.join(CSV_HEADER)}")]
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                violations.append(
                    SchemaViolation(f"line {lineno}", None, f"expected {len(CSV_HEADER)} fields, got {len(row)}")
                )
                continue
            rid = row[0] or f"line {lineno}"
            period = _parse_enum(row[1], period_map, rid, "period", violations)
            treatment = _parse_enum(row[2], treatment_map, rid, "treatment", violations)
            dysphagia = _parse_int01(row[3], rid, "baseline_dysphagia", violations)
            location = _parse_enum(row[4], location_map, rid, "tumor_location", violations)
            photon_vals = [_parse_float(row[5 + i], rid, DOSE_FIELDS[i], violations) for i in range(4)]
            proton_raw = row[9:13]
            proton_vals: list[float | None] = []
            if all(v == "" for v in proton_raw):
                proton = None
            elif any(v == "" for v in proton_raw):
                violations.append(
                    SchemaViolation(rid, "proton_doses", "proton dose columns must be all empty or all present")
                )
                proton = None
            else:
                proton_vals = [
                    _parse_float(proton_raw[i], rid, DOSE_FIELDS[i] + "_proton", violations) for i in range(4)
                ]
                proton = None if any(v is None for v in proton_vals) else DosePlan(*proton_vals)
            outcome = _parse_int01(row[13], rid, "outcome", violations)

            if None in (period, treatment, dysphagia, location, outcome) or any(
                v is None for v in photon_vals
            ):
                continue
            records.append(
                PatientRecord(
                    id=rid,
                    period=period,
                    treatment=treatment,
                    baseline_dysphagia=dysphagia,
                    tumor_location=location,
                    photon_doses=DosePlan(*photon_vals),
                    outcome=outcome,
                    proton_doses=proton,
                )
            )
    except csv.Error as exc:
        violations.append(SchemaViolation(f"{path} line {reader.line_num}", None, f"unreadable CSV: {exc}"))

    if violations:
        raise SchemaError(violations)
    return Cohort(records=tuple(records), label=label)
