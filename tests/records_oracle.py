"""The record types, and the record-based CSV reader, writer and validator that preceded the columnar ones.

A ``PatientRecord`` is one patient as an object; the package holds patients
only as a ``Cohort``'s arrays. ``cohort_of_records`` and ``records_of``
convert between the two. The reader, validator and writer walk records one
at a time; the package's array code is kept in agreement with them: the same
records, the same bytes, and the same ``SchemaViolation`` list in the same
order.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from attlab.errors import SchemaError
from attlab.records import (
    CSV_HEADER,
    DOSE_FIELDS,
    LOCATIONS,
    MAX_DOSE_GY,
    Cohort,
    Period,
    SchemaViolation,
    Treatment,
    TumorLocation,
    format_dose,
)


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


def cohort_of_records(records) -> Cohort:
    """The cohort of a record sequence, in its order."""
    records = tuple(records)
    n = len(records)
    latent = n > 0 and all(r.latent is not None for r in records)
    return Cohort(
        ids=np.array([r.id for r in records], dtype=object),
        post=np.array([r.period is Period.POST for r in records], dtype=bool),
        dysphagia=np.array([r.baseline_dysphagia for r in records]),
        loc_code=np.array([_LOCATION_CODE[r.tumor_location] for r in records], dtype=int),
        photon=np.array([r.photon_doses.as_tuple() for r in records], dtype=float).reshape(n, 4),
        proton=np.array(
            [_NO_PLAN if r.proton_doses is None else r.proton_doses.as_tuple() for r in records],
            dtype=float,
        ).reshape(n, 4),
        has_proton=np.array([r.proton_doses is not None for r in records], dtype=bool),
        treatment=np.array([r.treatment.value for r in records], dtype=int),
        outcome=np.array([r.outcome for r in records]),
        p0=np.array([r.latent.p0 for r in records]) if latent else None,
        p1=np.array([r.latent.p1 for r in records]) if latent else None,
        y0=np.array([r.latent.y0 for r in records]) if latent else None,
        y1=np.array([r.latent.y1 for r in records]) if latent else None,
    )


def records_of(cohort: Cohort) -> tuple[PatientRecord, ...]:
    """The cohort's patients as records, in its order."""
    n = len(cohort)
    latent = (
        map(PotentialOutcomes, cohort.y0.tolist(), cohort.y1.tolist(), cohort.p0.tolist(), cohort.p1.tolist())
        if cohort.p0 is not None
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
            cohort.ids.tolist(),
            cohort.post.tolist(),
            cohort.treatment.tolist(),
            cohort.dysphagia.tolist(),
            cohort.loc_code.tolist(),
            cohort.photon.tolist(),
            cohort.proton.tolist(),
            cohort.has_proton.tolist(),
            cohort.outcome.tolist(),
            latent,
        )
    )


def _check_dose_plan(rid, field, plan, out):
    for organ, value in zip(DOSE_FIELDS, plan.as_tuple()):
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            out.append(SchemaViolation(rid, f"{field}.{organ}", "dose must be finite"))
        elif value < 0.0 or value > MAX_DOSE_GY:
            out.append(
                SchemaViolation(rid, f"{field}.{organ}", f"dose {value} Gy outside [0, {MAX_DOSE_GY}]")
            )


def validate_records(records, period: Period) -> list[SchemaViolation]:
    violations: list[SchemaViolation] = []
    if len(records) == 0:
        violations.append(SchemaViolation(None, None, "cohort empty"))
        return violations

    seen_ids: set[str] = set()
    for rec in records:
        rid = rec.id
        if rid in seen_ids:
            violations.append(SchemaViolation(rid, "id", f"duplicate record id {rid!r}"))
        seen_ids.add(rid)
        if rec.period is not period:
            violations.append(
                SchemaViolation(rid, "period",
                                f"period {rec.period.value}, but the file must hold period {period.value}")
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
                    SchemaViolation(
                        rid, "outcome", "outcome does not equal the potential outcome for the received treatment"
                    )
                )
    return violations


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


def records_csv_bytes(records) -> bytes:
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    quoting_writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(CSV_HEADER)
    for rec in records:
        (quoting_writer if "\r" in rec.id else writer).writerow(_record_to_row(rec))
    return fh.getvalue().encode("utf-8")


def _parse_enum(raw, mapping, rid, field, out):
    try:
        return mapping[raw]
    except KeyError:
        out.append(SchemaViolation(rid, field, f"unknown value {raw!r} (expected one of {sorted(mapping)})"))
        return None


def _parse_float(raw, rid, field, out):
    try:
        return float(raw)
    except ValueError:
        out.append(SchemaViolation(rid, field, f"not a number: {raw!r}"))
        return None


def _parse_int01(raw, rid, field, out):
    if raw in ("0", "1"):
        return int(raw)
    out.append(SchemaViolation(rid, field, f"expected 0 or 1, got {raw!r}"))
    return None


def _decode(path) -> str:
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SchemaError(
            [SchemaViolation(f"{path} line {line}", None, f"not valid UTF-8: {exc.reason} at byte {exc.start}")]
        )


def read_records(path) -> tuple[PatientRecord, ...]:
    """The records of a cohort CSV; raises ``SchemaError`` listing all parse problems."""
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
            raise SchemaError([SchemaViolation(None, None, f"bad header: expected {','.join(CSV_HEADER)}")])
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

            if None in (period, treatment, dysphagia, location, outcome) or any(v is None for v in photon_vals):
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
    return tuple(records)
