"""Patient-level data model: cohorts, validation, file I/O.

A ``Cohort`` is the one representation of patients in the package: its
patients as read-only arrays, one per field. The CSV reader
parses into one, ``validate`` checks it, ``cohort_csv_bytes`` renders it,
and every function of the package takes one.

All types are immutable after construction and safe to share across
concurrent tasks. ``validate`` reports problems instead of raising, so a
caller can surface every violation at once.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, SchemaError

MAX_DOSE_GY = 80.0

DOSE_FIELDS = ("dose_sup_pcm", "dose_mid_pcm", "dose_inf_pcm", "dose_oral_cavity")

# A cohort CSV's columns: the patient's fields, the photon plan and the proton
# plan (each in ``DOSE_FIELDS`` order), and the outcome.
_PROTON_FIELDS = tuple(f"{name}_proton" for name in DOSE_FIELDS)
CSV_HEADER = ("id", "period", "treatment", "baseline_dysphagia", "tumor_location", *DOSE_FIELDS, *_PROTON_FIELDS,
              "outcome")
_PROTON_COLUMNS = slice(CSV_HEADER.index(_PROTON_FIELDS[0]), CSV_HEADER.index(_PROTON_FIELDS[-1]) + 1)

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


# The latent risks and potential outcomes: a cohort holds all of them or none.
_LATENT_FIELDS = ("p0", "p1", "y0", "y1")

# A coded cohort field holds the codes 0..n-1: an index into ``LOCATIONS``
# or a ``Treatment`` value.
_CODE_COUNTS = {"loc_code": len(LOCATIONS), "treatment": len(Treatment)}


@dataclass(frozen=True, eq=False, kw_only=True)
class Cohort:
    """An ordered, immutable cohort: its patients as read-only arrays, one row per patient.

    ``ids`` is an object array holding each id's exact string. ``loc_code``
    indexes ``LOCATIONS``, ``treatment`` holds ``Treatment`` values and
    ``post`` is true for post-introduction patients. ``photon`` and
    ``proton`` are n x 4 in ``DOSE_FIELDS`` order; ``has_proton`` marks the
    patients with a proton plan, and the other proton rows are NaN. The
    latent risks and potential outcomes ``p0``/``p1``/``y0``/``y1`` are
    present only when there are patients and every one carries them, and
    then all four are.

    The cohort holds read-only arrays of its own, so the caller's arrays
    stay writable and later writes to them do not show. An array without
    one row per id, a code outside ``LOCATIONS`` or ``Treatment``, or a
    latent block given in part raises ``ConfigurationError`` naming the
    field, or the latent fields missing.
    """

    ids: np.ndarray
    post: np.ndarray
    dysphagia: np.ndarray
    loc_code: np.ndarray
    photon: np.ndarray
    proton: np.ndarray
    has_proton: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    p0: np.ndarray | None = None
    p1: np.ndarray | None = None
    y0: np.ndarray | None = None
    y1: np.ndarray | None = None

    def __post_init__(self):
        missing = [name for name in _LATENT_FIELDS if getattr(self, name) is None]
        if 0 < len(missing) < len(_LATENT_FIELDS):
            raise ConfigurationError(f"cohort latent block is partial: {', '.join(missing)} missing")
        n = len(self.ids)
        for name in _COHORT_FIELDS:
            array = getattr(self, name)
            if array is None:
                continue
            rows = (n, 4) if name in ("photon", "proton") else (n,)
            if array.shape != rows:
                raise ConfigurationError(f"cohort field {name} has shape {array.shape}, expected {rows}")
            count = _CODE_COUNTS.get(name)
            if count is not None and not (coded := (array >= 0) & (array < count)).all():
                raise ConfigurationError(
                    f"cohort field {name} holds {array[~coded][0].item()!r}, outside its codes 0..{count - 1}"
                )
            # A caller's array is copied unless it is read-only and owns its
            # memory, so that no later write of the caller reaches the cohort.
            if array.flags.writeable or array.base is not None:
                array = array.copy()
                array.flags.writeable = False
                object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return self.ids.shape[0]

    def take(self, rows: np.ndarray) -> "Cohort":
        """The patients at ``rows`` (a boolean mask or an index array), in that order.

        The subset is not checked again: rows of a checked cohort keep its
        shapes and codes, and each field is taken into a fresh, read-only
        array that owns its memory, as the constructor would keep it. Any
        other selection, such as a scalar or a 2-d index, raises
        ``ConfigurationError``.
        """
        index = np.arange(len(self))[rows]  # the mask or index array, resolved once for every field
        if index.ndim != 1:
            raise ConfigurationError(f"cohort rows must be a mask or an index array, got shape {index.shape}")
        subset = object.__new__(Cohort)
        for name in _COHORT_FIELDS:
            array = getattr(self, name)
            if array is not None:
                array = array.take(index, axis=0)  # a fresh array that owns its memory
                array.flags.writeable = False
            object.__setattr__(subset, name, array)
        return subset

    def treated(self) -> "Cohort":
        """The target-treated patients."""
        return self.take(self.treatment == Treatment.TARGET.value)

    def standard(self) -> "Cohort":
        """The standard-treated patients."""
        return self.take(self.treatment == Treatment.STANDARD.value)


# The fields of a ``Cohort``, in declaration order.
_COHORT_FIELDS = tuple(f.name for f in fields(Cohort))


class Role(Enum):
    """The part a group of patients plays in the method, as the (period, treatment) every one of them has."""

    DEVELOPMENT = (Period.PRE, Treatment.STANDARD)  # the outcome model is developed on them
    TREATED = (Period.POST, Treatment.TARGET)  # the model predicts their standard-treatment risk
    NEGATIVE_CONTROL = (Period.POST, Treatment.STANDARD)  # the model should be calibrated on them


def require_role(group: Cohort, role: Role, caller: str) -> Cohort:
    """``group`` itself when every patient in it fits ``role``; an empty group fits every role.

    Otherwise raises ``ConfigurationError`` naming ``caller``, the role and
    the first five offending ids.
    """
    period, treatment = role.value
    offenders = group.ids[(group.post != (period is Period.POST)) | (group.treatment != treatment.value)]
    if offenders.size:
        name = role.name.lower().replace("_", "-")
        raise ConfigurationError(
            f"{caller} expects {name} patients ({period.value}-introduction, {treatment.name.lower()}-treated); "
            f"offending ids: {', '.join(offenders[:5].tolist())}"
        )
    return group


@dataclass(frozen=True, slots=True)
class SchemaViolation:
    record_id: str | None
    field: str | None
    rule: str

    def __str__(self) -> str:
        where = self.record_id if self.record_id is not None else "<cohort>"
        field = f".{self.field}" if self.field else ""
        return f"{where}{field}: {self.rule}"


def validate(cohort: Cohort, period: Period) -> list[SchemaViolation]:
    """Check every patient against the data-model invariants, and that every one is of ``period``.

    Returns an empty list iff the cohort is well formed, ordered by patient
    and, within a patient, by the order of the checks below. Never raises.
    """
    if not len(cohort):
        return [SchemaViolation(None, None, "cohort empty")]
    ids = cohort.ids.tolist()
    duplicate = np.ones(len(cohort), dtype=bool)
    duplicate[np.unique(cohort.ids, return_index=True)[1]] = False
    pre = ~cohort.post
    target = cohort.treatment == Treatment.TARGET.value
    # (mask of offending rows, field, rule or a function of the row giving it), in check order.
    checks = [
        (duplicate, "id", lambda i: f"duplicate record id {ids[i]!r}"),
        (cohort.post != (period is Period.POST), "period",
         lambda i: f"period {'post' if cohort.post[i] else 'pre'}, but the file must hold period {period.value}"),
        (pre & (cohort.treatment != Treatment.STANDARD.value), "treatment",
         "pre-introduction records must be standard-treated"),
        (pre & cohort.has_proton, "proton_doses", "pre-introduction records must not carry a proton plan"),
        (target & pre, "treatment", "target-treated records must be post-introduction"),
        (target & ~cohort.has_proton, "proton_doses", "target-treated records must carry a proton plan"),
        (~np.isin(cohort.outcome, (0, 1)), "outcome", lambda i: f"outcome {cohort.outcome[i].item()!r} not in {{0,1}}"),
        (~np.isin(cohort.dysphagia, (0, 1)), "baseline_dysphagia",
         lambda i: f"value {cohort.dysphagia[i].item()!r} not in {{0,1}}"),
    ]
    plans = (("photon_doses", cohort.photon, True), ("proton_doses", cohort.proton, cohort.has_proton))
    for plan, doses, present in plans:
        finite = np.isfinite(doses)
        outside = finite & ((doses < 0.0) | (doses > MAX_DOSE_GY))
        for j, organ in enumerate(DOSE_FIELDS):
            checks.append((present & ~finite[:, j], f"{plan}.{organ}", "dose must be finite"))
            checks.append((present & outside[:, j], f"{plan}.{organ}",
                           lambda i, d=doses[:, j]: f"dose {d[i].item()} Gy outside [0, {MAX_DOSE_GY}]"))
    if cohort.p0 is not None:
        for name, p in (("p0", cohort.p0), ("p1", cohort.p1)):
            checks.append((~((0.0 < p) & (p < 1.0)), f"latent.{name}", lambda i, p=p: f"risk {p[i].item()} outside (0,1)"))
        checks.append((~(np.isin(cohort.y0, (0, 1)) & np.isin(cohort.y1, (0, 1))), "latent",
                       "potential outcomes must be binary"))
        received = np.where(cohort.treatment == Treatment.STANDARD.value, cohort.y0, cohort.y1)
        checks.append((cohort.outcome != received, "outcome",
                       "outcome does not equal the potential outcome for the received treatment"))

    hits = sorted((i, k) for k, (mask, _, _) in enumerate(checks) for i in np.flatnonzero(mask).tolist())
    return [
        SchemaViolation(ids[i], checks[k][1], rule(i) if callable(rule := checks[k][2]) else rule)
        for i, k in hits
    ]


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def format_dose(value: float) -> str:
    """Canonical dose text: at most 4 decimals, no trailing zeros."""
    text = f"{value:.{DOSE_DECIMALS}f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


_TRAILING_ZEROS = re.compile(r"\.?0+$", re.MULTILINE)


def _dose_texts(values: list[float]) -> list[str]:
    """``format_dose`` of every value, formatted and stripped in one pass over the column."""
    text = (f"{{:.{DOSE_DECIMALS}f}}\n" * len(values)).format(*values)
    return _TRAILING_ZEROS.sub("", text).split("\n")[:-1]


def cohort_csv_bytes(cohort: Cohort) -> bytes:
    """A cohort in the canonical CSV schema; latent fields are not persisted."""
    has_proton = cohort.has_proton.tolist()
    photon = [_dose_texts(organ) for organ in cohort.photon.T.tolist()]
    proton = [
        [text if has else "" for text, has in zip(_dose_texts(organ), has_proton)]
        for organ in cohort.proton.T.tolist()
    ]
    rows = zip(
        cohort.ids.tolist(),
        np.where(cohort.post, Period.POST.value, Period.PRE.value).tolist(),
        map(str, cohort.treatment.tolist()),
        map(str, cohort.dysphagia.tolist()),
        np.array([loc.value for loc in LOCATIONS])[cohort.loc_code].tolist(),
        *photon,
        *proton,
        map(str, cohort.outcome.tolist()),
    )
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    # The writer quotes a field holding "\n" but not one holding a bare
    # "\r", which a reader takes for a line end; such ids get quoted rows.
    quoting_writer = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(CSV_HEADER)
    for row in rows:
        (quoting_writer if "\r" in row[0] else writer).writerow(row)
    return out.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# Output files: every file a command writes goes through write_outputs
# ---------------------------------------------------------------------------

def json_bytes(payload) -> bytes:
    """The canonical JSON file of ``payload``: indented, strict (no NaN or infinity), newline-terminated."""
    return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode("utf-8")


def check_out_dir(out_dir: str | Path) -> Path:
    """``out_dir`` as a path; one that exists and is not a directory raises ``ConfigurationError`` naming it."""
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise ConfigurationError(f"output directory {out} exists and is not a directory")
    return out


def write_outputs(out_dir: str | Path, files: dict[str, bytes]) -> dict[str, Path]:
    """Write one command's rendered files into ``out_dir``; return each name's path.

    An ``out_dir`` that is not a directory, or a name that is one, raises
    ``ConfigurationError`` naming the path before any file is written; so
    does any other failure to write.
    """
    out = check_out_dir(out_dir)
    paths = {name: out / name for name in files}
    for path in paths.values():
        if path.is_dir():
            raise ConfigurationError(f"output file {path} is a directory")
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            paths[name].write_bytes(data)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {exc.filename or out}: {exc.strerror or exc}")
    return paths


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


def _lookup(mapping: dict):
    return mapping.__getitem__, lambda raw: f"unknown value {raw!r} (expected one of {sorted(mapping)})"


_BINARY = ({"0": 0, "1": 1}.__getitem__, lambda raw: f"expected 0 or 1, got {raw!r}")
_NUMBER = (float, lambda raw: f"not a number: {raw!r}")

# (parse, message for a value it rejects) for each CSV column after the id.
_PARSERS = (
    _lookup({p.value: p is Period.POST for p in Period}),
    _lookup({str(t.value): t.value for t in Treatment}),
    _BINARY,
    _lookup({loc.value: i for i, loc in enumerate(LOCATIONS)}),
    *(_NUMBER,) * (len(DOSE_FIELDS) + len(_PROTON_FIELDS)),
    _BINARY,
)


def read_cohort_csv(path: str | Path) -> Cohort:
    """Parse a cohort CSV into a cohort. Raises ``SchemaError`` listing all parse problems.

    The problems are listed in file order: by line, then by column.
    """
    found: list[tuple[tuple[float, int], SchemaViolation]] = []  # ((line, column), violation)
    rows: list[list[str]] = []
    lines: list[int] = []

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
            if len(row) == len(CSV_HEADER):
                rows.append(row)
                lines.append(lineno)
            else:
                violation = SchemaViolation(f"line {lineno}", None, f"expected {len(CSV_HEADER)} fields, got {len(row)}")
                found.append(((lineno, 0), violation))
    except csv.Error as exc:
        found.append(((math.inf, 0), SchemaViolation(f"{path} line {reader.line_num}", None, f"unreadable CSV: {exc}")))

    cells = list(zip(*rows)) or [()] * len(CSV_HEADER)
    rids = [rid or f"line {lineno}" for rid, lineno in zip(cells[0], lines)]
    plans = cells[_PROTON_COLUMNS]
    has_proton = [all(plan) for plan in zip(*plans)]
    for rid, lineno, plan, full in zip(rids, lines, zip(*plans), has_proton):
        if any(plan) and not full:
            violation = SchemaViolation(rid, "proton_doses", "proton dose columns must be all empty or all present")
            found.append(((lineno, _PROTON_COLUMNS.start), violation))
    # A row without a full proton plan parses NaN in its place.
    cells[_PROTON_COLUMNS] = [[raw if full else "nan" for raw, full in zip(column, has_proton)] for column in plans]

    def parse(column, parser):
        convert, message = parser
        try:
            return list(map(convert, cells[column]))
        except (KeyError, ValueError):
            out = []
            for rid, lineno, raw in zip(rids, lines, cells[column]):
                try:
                    out.append(convert(raw))
                except (KeyError, ValueError):
                    found.append(((lineno, column), SchemaViolation(rid, CSV_HEADER[column], message(raw))))
            return out

    values = {CSV_HEADER[column]: parse(column, parser) for column, parser in enumerate(_PARSERS, start=1)}
    if found:
        found.sort(key=lambda item: item[0])
        raise SchemaError([violation for _, violation in found])
    return Cohort(
        ids=np.array(rids, dtype=object),
        post=np.array(values["period"], dtype=bool),
        dysphagia=np.array(values["baseline_dysphagia"]),
        loc_code=np.array(values["tumor_location"], dtype=int),
        photon=np.ascontiguousarray(np.array([values[name] for name in DOSE_FIELDS], dtype=float).T),
        proton=np.ascontiguousarray(np.array([values[name] for name in _PROTON_FIELDS], dtype=float).T),
        has_proton=np.array(has_proton, dtype=bool),
        treatment=np.array(values["treatment"], dtype=int),
        outcome=np.array(values["outcome"]),
    )
