"""Binary logistic regression fitted from scratch via IRLS.

Design matrices are built from a cohort's columns so that the same
model can be evaluated on either the photon or the proton dose plan. The
fitter maximizes the Bernoulli log-likelihood with iteratively reweighted
least squares, step-halving when the deviance would increase, and solves
the weighted normal equations by Cholesky factorization with a relative
pivot floor for rank detection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    CollinearityError,
    ConfigurationError,
    MissingPlanError,
    NotConvergedError,
    PredictionError,
    SeparationError,
)
from .records import DOSE_FIELDS, LOCATIONS, TumorLocation, as_columns

DEVIANCE_TOL = 1e-8
SCORE_TOL = 1e-6
MAX_ITER = 25
MAX_STEP_HALVINGS = 10
PIVOT_FLOOR = 1e-10
SEPARATION_BETA_BOUND = 1e3
SEPARATION_PROB_MARGIN = 1e-10

# Quadratic dose terms are encoded as ((dose - 50) / 10)^2; the fixed
# centering keeps the normal equations well conditioned without data-
# dependent state in the model spec.
QUAD_CENTER_GY = 50.0
QUAD_SCALE_GY = 10.0

INTERCEPT = "intercept"
BASELINE_DYSPHAGIA = "baseline_dysphagia"
TUMOR_LOCATION = "tumor_location"

DEFAULT_TERMS = (INTERCEPT, BASELINE_DYSPHAGIA, TUMOR_LOCATION) + DOSE_FIELDS
QUADRATIC_TERMS = tuple(f"{d}_sq" for d in DOSE_FIELDS)
INTERACTION_TERMS = tuple(f"{d}:{TUMOR_LOCATION}" for d in DOSE_FIELDS)

_KNOWN_TERMS = frozenset(DEFAULT_TERMS) | frozenset(QUADRATIC_TERMS) | frozenset(INTERACTION_TERMS)


class PlanSource(Enum):
    PHOTON = "photon"
    PROTON = "proton"


@dataclass(frozen=True)
class ModelSpec:
    """Ordered list of model terms plus the category list for tumor location.

    The first location is the one-hot reference category (dropped). Extra
    terms available for sensitivity analysis: ``<dose>_sq`` quadratic dose
    terms and ``<dose>:tumor_location`` interactions.
    """

    terms: tuple[str, ...] = DEFAULT_TERMS
    locations: tuple[TumorLocation, ...] = LOCATIONS

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "locations", tuple(self.locations))
        if INTERCEPT not in self.terms:
            raise ConfigurationError("model spec must contain an intercept term")
        if len(set(self.terms)) != len(self.terms):
            raise ConfigurationError("duplicate terms in model spec")
        unknown = [t for t in self.terms if t not in _KNOWN_TERMS]
        if unknown:
            raise ConfigurationError(f"unknown model terms: {', '.join(unknown)}")
        if len(self.locations) < 1 or len(set(self.locations)) != len(self.locations):
            raise ConfigurationError("spec locations must be a non-empty set of distinct categories")

    @classmethod
    def with_quadratic_doses(cls) -> "ModelSpec":
        return cls(terms=DEFAULT_TERMS + QUADRATIC_TERMS)

    @classmethod
    def with_dose_location_interactions(cls) -> "ModelSpec":
        return cls(terms=DEFAULT_TERMS + INTERACTION_TERMS)


NAMED_SPECS = {
    "linear": ModelSpec(),
    "quadratic": ModelSpec.with_quadratic_doses(),
    "interactions": ModelSpec.with_dose_location_interactions(),
}


def _quad(dose: np.ndarray) -> np.ndarray:
    return ((dose - QUAD_CENTER_GY) / QUAD_SCALE_GY) ** 2


def design_columns(spec: ModelSpec) -> list[str]:
    """Column names for the design matrix, in the spec's term order."""
    names: list[str] = []
    non_ref = spec.locations[1:]
    for term in spec.terms:
        if term == INTERCEPT:
            names.append(INTERCEPT)
        elif term == BASELINE_DYSPHAGIA:
            names.append(BASELINE_DYSPHAGIA)
        elif term == TUMOR_LOCATION:
            names.extend(f"loc_{loc.value}" for loc in non_ref)
        elif term in DOSE_FIELDS:
            names.append(term)
        elif term in QUADRATIC_TERMS:
            names.append(term)
        elif term in INTERACTION_TERMS:
            dose = term.split(":")[0]
            names.extend(f"{dose}:loc_{loc.value}" for loc in non_ref)
    return names


def build_design(
    records,
    spec: ModelSpec,
    plan_source: PlanSource = PlanSource.PHOTON,
) -> tuple[np.ndarray, list[str]]:
    """Assemble the design matrix for ``records`` under ``spec``.

    ``records`` is a cohort, its columns, or a record sequence.
    ``plan_source`` selects which dose plan feeds the dose terms; proton
    requires a proton plan on every patient.
    """
    patients = as_columns(records)
    if plan_source is PlanSource.PROTON:
        missing = patients.ids[~patients.has_proton]
        if missing.size:
            raise MissingPlanError(missing.tolist())

    # Spec position of each location code; -1 where the spec lacks it.
    position = {loc: i for i, loc in enumerate(spec.locations)}
    loc_codes = np.array([position.get(loc, -1) for loc in LOCATIONS])[patients.loc_code]
    if np.any(loc_codes < 0):
        unseen = sorted(LOCATIONS[c].value for c in np.unique(patients.loc_code[loc_codes < 0]))
        raise PredictionError(
            f"tumor location categories not in the model spec: {', '.join(unseen)}"
        )

    n = len(patients)
    doses = patients.photon if plan_source is PlanSource.PHOTON else patients.proton
    dysphagia = patients.dysphagia.astype(float)
    non_ref = spec.locations[1:]
    onehot = np.zeros((n, len(non_ref)))
    for j in range(len(non_ref)):
        onehot[:, j] = loc_codes == j + 1

    dose_col = {name: doses[:, i] for i, name in enumerate(DOSE_FIELDS)}
    columns: list[np.ndarray] = []
    for term in spec.terms:
        if term == INTERCEPT:
            columns.append(np.ones(n))
        elif term == BASELINE_DYSPHAGIA:
            columns.append(dysphagia)
        elif term == TUMOR_LOCATION:
            columns.extend(onehot.T)
        elif term in DOSE_FIELDS:
            columns.append(dose_col[term])
        elif term in QUADRATIC_TERMS:
            columns.append(_quad(dose_col[term[: -len("_sq")]]))
        elif term in INTERACTION_TERMS:
            dose = dose_col[term.split(":")[0]]
            columns.extend((onehot[:, j] * dose for j in range(len(non_ref))))
    X = np.column_stack(columns) if columns else np.empty((n, 0))
    return X, design_columns(spec)


@dataclass(frozen=True)
class ModelFit:
    """A fitted logistic regression: coefficients, covariance, fit metadata."""

    spec: ModelSpec | None
    column_names: tuple[str, ...]
    beta_hat: np.ndarray
    cov_hat: np.ndarray
    n_obs: int
    deviance: float
    converged: bool
    n_iter: int

    def coefficients(self) -> dict[str, float]:
        return {name: float(b) for name, b in zip(self.column_names, self.beta_hat)}

    def to_json_dict(self) -> dict:
        return {
            "spec": list(self.spec.terms) if self.spec is not None else list(self.column_names),
            "beta": [float(v) for v in self.beta_hat],
            "cov": [[float(v) for v in row] for row in self.cov_hat],
            "n_obs": self.n_obs,
            "deviance": float(self.deviance),
            "converged": self.converged,
        }

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, allow_nan=False)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModelFit":
        spec = ModelSpec(terms=tuple(data["spec"]))
        return cls(
            spec=spec,
            column_names=tuple(design_columns(spec)),
            beta_hat=np.asarray(data["beta"], dtype=float),
            cov_hat=np.asarray(data["cov"], dtype=float),
            n_obs=int(data["n_obs"]),
            deviance=float(data["deviance"]),
            converged=bool(data["converged"]),
            n_iter=0,
        )

    @classmethod
    def load(cls, path: str | Path) -> "ModelFit":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def expit(eta: np.ndarray) -> np.ndarray:
    """Numerically stable inverse logit: 1 / (1 + e^-eta), or e^eta / (1 + e^eta) below 0."""
    eta = np.asarray(eta, dtype=float)
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def log_likelihood(beta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Bernoulli log-likelihood at ``beta`` (stable for any linear predictor)."""
    eta = X @ np.asarray(beta, dtype=float)
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def score(beta: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the log-likelihood: X'(y - mu)."""
    return X.T @ (y - expit(X @ np.asarray(beta, dtype=float)))


def _deviance(eta: np.ndarray, y: np.ndarray) -> float:
    return float(2.0 * np.sum(np.logaddexp(0.0, eta) - y * eta))


def _cholesky_solve(A: np.ndarray, b: np.ndarray, column_names) -> np.ndarray:
    """Solve A x = b for SPD A, raising CollinearityError on pivot failure."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise CollinearityError(_dependent_columns(A, column_names))
    diag = np.diag(L) ** 2
    if np.min(diag) < PIVOT_FLOOR * np.max(np.diag(A)):
        raise CollinearityError(_dependent_columns(A, column_names))
    w = np.linalg.solve(L, b)
    return np.linalg.solve(L.T, w)


def _dependent_columns(A: np.ndarray, column_names) -> list[str]:
    """Name columns whose Cholesky pivot collapses (linearly dependent)."""
    k = A.shape[0]
    names = list(column_names) if column_names is not None else [f"x{j}" for j in range(k)]
    L = np.zeros((k, k))
    dependent: list[str] = []
    scale = np.max(np.abs(np.diag(A))) or 1.0
    for j in range(k):
        pivot = A[j, j] - L[j, :j] @ L[j, :j]
        if pivot < PIVOT_FLOOR * scale:
            dependent.append(names[j])
            L[j, j] = np.sqrt(scale)  # keep factor usable to localize later pivots
            continue
        L[j, j] = np.sqrt(pivot)
        if j + 1 < k:
            L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return dependent or [names[-1]]


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int | None]:
    """Center/scale columns for conditioning; returns (Xs, means, scales, intercept_col).

    The intercept column is the first constant non-zero column; it is left
    as is. Columns are centered only when an intercept can absorb the shift.
    """
    XT = np.ascontiguousarray(X.T)
    first = XT[:, :1]
    constant = np.all(XT == first, axis=1) & np.any(first != 0.0, axis=1)
    intercept_col = int(np.argmax(constant)) if constant.any() else None
    sd = np.std(XT, axis=1)
    scales = np.where(sd > 0.0, sd, 1.0)
    means = np.zeros(X.shape[1])
    if intercept_col is not None:
        scales[intercept_col] = 1.0
        means = np.mean(XT, axis=1)
        means[intercept_col] = 0.0
    Xs = (X - means) / scales
    if intercept_col is not None:
        Xs[:, intercept_col] = X[:, intercept_col]
    return Xs, means, scales, intercept_col


def fit_logistic(
    design: np.ndarray,
    outcomes: np.ndarray,
    *,
    column_names: list[str] | tuple[str, ...] | None = None,
    spec: ModelSpec | None = None,
    max_iter: int = MAX_ITER,
    deviance_tol: float = DEVIANCE_TOL,
) -> ModelFit:
    """Maximum-likelihood logistic fit via IRLS with step-halving.

    Convergence requires both a deviance change below ``deviance_tol`` and a
    score max-norm below 1e-6; otherwise the fit is returned flagged as
    non-converged. Rank deficiency raises ``CollinearityError`` naming the
    dependent columns; diverging coefficients with saturated fitted
    probabilities raise ``SeparationError``.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    if X.ndim != 2:
        raise ConfigurationError("design must be a 2-d matrix")
    n, k = X.shape
    if y.shape != (n,):
        raise ConfigurationError(f"outcomes length {y.shape} does not match design rows {n}")
    if n < k:
        raise ConfigurationError(f"need at least as many rows ({n}) as columns ({k})")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ConfigurationError("outcomes must be binary 0/1")
    if column_names is None:
        column_names = design_columns(spec) if spec is not None else [f"x{j}" for j in range(k)]
    if len(column_names) != k:
        raise ConfigurationError("column_names length does not match design columns")

    Xs, means, scales, intercept_col = _standardize(X)

    beta_s = np.zeros(k)
    eta = Xs @ beta_s
    dev = _deviance(eta, y)
    converged = False
    n_iter = 0
    for it in range(1, max_iter + 1):
        n_iter = it
        mu = expit(eta)
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        z = eta + (y - mu) / w
        Xw = Xs * w[:, None]
        A = Xs.T @ Xw
        b = Xw.T @ z
        beta_new = _cholesky_solve(A, b, column_names)

        new_eta = Xs @ beta_new
        new_dev = _deviance(new_eta, y)
        halvings = 0
        while new_dev > dev + 1e-12 and halvings < MAX_STEP_HALVINGS:
            beta_new = 0.5 * (beta_s + beta_new)
            new_eta = Xs @ beta_new
            new_dev = _deviance(new_eta, y)
            halvings += 1

        delta_dev = abs(dev - new_dev)
        beta_s, eta, dev = beta_new, new_eta, new_dev

        beta_raw = _destandardize(beta_s, means, scales, intercept_col)
        saturated = bool(np.any(np.abs(eta) > -np.log(SEPARATION_PROB_MARGIN)))
        if saturated and np.max(np.abs(beta_raw)) > SEPARATION_BETA_BOUND:
            raise SeparationError(
                "complete or quasi-complete separation: fitted probabilities reached 0/1 "
                f"with max |coefficient| {np.max(np.abs(beta_raw)):.3g} > {SEPARATION_BETA_BOUND:g}"
            )
        if delta_dev < deviance_tol:
            raw_score = X.T @ (y - expit(X @ beta_raw))
            if np.max(np.abs(raw_score)) < SCORE_TOL:
                converged = True
                break

    beta_raw = _destandardize(beta_s, means, scales, intercept_col)
    mu = expit(X @ beta_raw)
    w = np.clip(mu * (1.0 - mu), 1e-10, None)
    A_raw = (X * w[:, None]).T @ X
    try:
        cov = np.linalg.inv(A_raw)
    except np.linalg.LinAlgError:
        raise CollinearityError(_dependent_columns(A_raw, column_names))

    return ModelFit(
        spec=spec,
        column_names=tuple(column_names),
        beta_hat=beta_raw,
        cov_hat=cov,
        n_obs=n,
        deviance=_deviance(X @ beta_raw, y),
        converged=converged,
        n_iter=n_iter,
    )


def _destandardize(beta_s, means, scales, intercept_col) -> np.ndarray:
    beta = beta_s / scales
    if intercept_col is not None:
        beta[intercept_col] = beta_s[intercept_col] - float(np.sum(beta_s * means / scales))
    return beta


def fit_model(
    records,
    spec: ModelSpec | None = None,
    plan_source: PlanSource = PlanSource.PHOTON,
    **kwargs,
) -> ModelFit:
    """Build the design from a cohort or records and fit; the usual entry point."""
    spec = spec if spec is not None else ModelSpec()
    patients = as_columns(records)
    X, names = build_design(patients, spec, plan_source)
    return fit_logistic(X, patients.outcome.astype(float), column_names=names, spec=spec, **kwargs)


def predict_risk(
    fit: ModelFit,
    records,
    plan_source: PlanSource = PlanSource.PHOTON,
) -> np.ndarray:
    """Predicted outcome probabilities for ``records``, strictly inside (0, 1)."""
    if not fit.converged:
        raise NotConvergedError("cannot predict from a non-converged model fit")
    if fit.spec is None:
        raise PredictionError("fit carries no model spec; cannot build a design from records")
    X, _ = build_design(records, fit.spec, plan_source)
    return predict_design(fit.beta_hat, X)


def predict_design(beta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Inverse-logit predictions from a raw design matrix, clipped into (0, 1)."""
    return np.clip(expit(X @ np.asarray(beta, dtype=float)), 1e-12, 1.0 - 1e-12)
