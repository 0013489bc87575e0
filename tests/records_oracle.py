"""The record-based CSV reader, writer and validator that preceded the columnar ones.

They walk ``PatientRecord`` objects one at a time. The package now reads,
validates and writes on ``PatientColumns``; these are kept only as the
reference those must agree with: the same records, the same bytes, and the
same ``SchemaViolation`` list in the same order.
"""

from __future__ import annotations

import csv
import io
import math

from attlab.errors import SchemaError
from attlab.records import (
    CSV_HEADER,
    DOSE_FIELDS,
    MAX_DOSE_GY,
    DosePlan,
    PatientRecord,
    Period,
    SchemaViolation,
    Treatment,
    TumorLocation,
    format_dose,
)


def _check_dose_plan(rid, field, plan, out):
    for organ, value in zip(DOSE_FIELDS, plan.as_tuple()):
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            out.append(SchemaViolation(rid, f"{field}.{organ}", "dose must be finite"))
        elif value < 0.0 or value > MAX_DOSE_GY:
            out.append(
                SchemaViolation(rid, f"{field}.{organ}", f"dose {value} Gy outside [0, {MAX_DOSE_GY}]")
            )


def validate_records(records, label) -> list[SchemaViolation]:
    violations: list[SchemaViolation] = []
    if len(records) == 0:
        violations.append(SchemaViolation(None, None, "cohort empty"))
        return violations

    expected_period = label.period
    seen_ids: set[str] = set()
    for rec in records:
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
