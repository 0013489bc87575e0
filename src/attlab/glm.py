"""Binary logistic regression fitted from scratch via IRLS.

Design matrices are built from a cohort's arrays so that the same
model can be evaluated on either the photon or the proton dose plan. The
fitter maximizes the Bernoulli log-likelihood with iteratively reweighted
least squares, step-halving when the deviance would increase, and solves
the weighted normal equations by Cholesky factorization with a relative
pivot floor for rank detection.
"""

from __future__ import annotations

import reprlib
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (
    CollinearityError,
    ConfigurationError,
    NotConvergedError,
    SeparationError,
    StatisticalError,
    checked,
)
from .records import DOSE_FIELDS, LOCATIONS, Cohort, PlanSource, Role, require_role

DEVIANCE_TOL = 1e-8
HALVING_TOL = 1e-12  # a step is halved while it raises the deviance by more than this
WEIGHT_FLOOR = 1e-10  # the least IRLS weight mu (1 - mu)
SCORE_TOL = 1e-6
MAX_ITER = 25
MAX_STEP_HALVINGS = 10
PIVOT_FLOOR = 1e-10
SEPARATION_BETA_BOUND = 1e3
SEPARATION_PROB_MARGIN = 1e-10
_SATURATED_ETA = -np.log(SEPARATION_PROB_MARGIN)  # |eta| beyond which a probability is within the margin of 0/1

# Quadratic dose terms are encoded as ((dose - 50) / 10)^2; the fixed
# centering keeps the normal equations well conditioned without data-
# dependent state in the model spec.
QUAD_CENTER_GY = 50.0
QUAD_SCALE_GY = 10.0


def quadratic_dose(dose: np.ndarray) -> np.ndarray:
    """The quadratic encoding of a dose: the column of a ``<dose>_sq`` term, and ``synth``'s nonlinear true term."""
    return ((dose - QUAD_CENTER_GY) / QUAD_SCALE_GY) ** 2


INTERCEPT = "intercept"
BASELINE_DYSPHAGIA = "baseline_dysphagia"
TUMOR_LOCATION = "tumor_location"

DEFAULT_TERMS = (INTERCEPT, BASELINE_DYSPHAGIA, TUMOR_LOCATION) + DOSE_FIELDS
QUADRATIC_TERMS = tuple(f"{d}_sq" for d in DOSE_FIELDS)
INTERACTION_TERMS = tuple(f"{d}:{TUMOR_LOCATION}" for d in DOSE_FIELDS)


# Every term a ModelSpec may name: the names of its design columns, in order, and what fills them, given the
# cohort, its plan's doses (n x 4, in DOSE_FIELDS order) and the one-hot of the non-reference locations.
Term = namedtuple("Term", "columns fill")
_LOCATION_COLUMNS = tuple(f"loc_{loc.value}" for loc in LOCATIONS[1:])


def _dose_terms(i: int) -> dict[str, Term]:
    """The entries of ``DOSE_FIELDS[i]``: the dose, its quadratic encoding and its product with each location."""
    dose, column = DOSE_FIELDS[i], slice(i, i + 1)
    return {
        dose: Term((dose,), lambda cohort, doses, onehot: doses[:, column]),
        QUADRATIC_TERMS[i]: Term((QUADRATIC_TERMS[i],), lambda cohort, doses, onehot: quadratic_dose(doses[:, column])),
        INTERACTION_TERMS[i]: Term(tuple(f"{dose}:{loc}" for loc in _LOCATION_COLUMNS),
                                   lambda cohort, doses, onehot: onehot * doses[:, column]),
    }


TERMS: dict[str, Term] = {
    INTERCEPT: Term((INTERCEPT,), lambda cohort, doses, onehot: 1.0),
    BASELINE_DYSPHAGIA: Term((BASELINE_DYSPHAGIA,), lambda cohort, doses, onehot: cohort.dysphagia[:, None]),
    TUMOR_LOCATION: Term(_LOCATION_COLUMNS, lambda cohort, doses, onehot: onehot),
    **{term: entry for i in range(len(DOSE_FIELDS)) for term, entry in _dose_terms(i).items()},
}


@dataclass(frozen=True)
class ModelSpec:
    """Ordered list of model terms: a tuple or list of term names, kept as a tuple.

    Tumor location enters as a one-hot block over ``LOCATIONS`` with the
    first location as the dropped reference category. Extra terms
    available for sensitivity analysis: ``<dose>_sq`` quadratic dose terms
    and ``<dose>:tumor_location`` interactions.
    """

    terms: tuple[str, ...] = DEFAULT_TERMS

    def __post_init__(self):
        terms = checked(self.terms, tuple | list, "ModelSpec.terms")
        object.__setattr__(self, "terms", tuple(checked(t, str, f"ModelSpec.terms[{i}]") for i, t in enumerate(terms)))
        if INTERCEPT not in self.terms:
            raise ConfigurationError("model spec must contain an intercept term")
        if len(set(self.terms)) != len(self.terms):
            raise ConfigurationError("duplicate terms in model spec")
        unknown = [t for t in self.terms if t not in TERMS]
        if unknown:
            raise ConfigurationError(f"unknown model terms: {', '.join(unknown)}")


NAMED_SPECS = {
    "linear": ModelSpec(),
    "quadratic": ModelSpec(DEFAULT_TERMS + QUADRATIC_TERMS),
    "interactions": ModelSpec(DEFAULT_TERMS + INTERACTION_TERMS),
}


def design_columns(spec: ModelSpec) -> list[str]:
    """Column names for the design matrix, in the spec's term order."""
    return [name for term in spec.terms for name in TERMS[term].columns]


def build_design(
    patients: Cohort,
    spec: ModelSpec,
    plan_source: PlanSource = PlanSource.PHOTON,
) -> tuple[np.ndarray, list[str]]:
    """Assemble the design matrix for the cohort ``patients`` under ``spec``.

    ``plan_source`` selects which dose plan feeds the dose terms; proton
    requires a proton plan on every patient.
    """
    checked(patients, Cohort, "build_design.patients")
    doses = patients.doses(checked(plan_source, PlanSource, "build_design.plan_source"))
    names = design_columns(spec)
    onehot = patients.loc_code[:, None] == np.arange(1, len(LOCATIONS))
    # One array filled term by term: column j is the next one to fill.
    X = np.empty((len(patients), len(names)))
    j = 0
    for term in spec.terms:
        columns, fill = TERMS[term]
        X[:, j : j + len(columns)] = fill(patients, doses, onehot)
        j += len(columns)
    return X, names


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
        """The ``model.json`` dict; a fit without a spec has no readable file and raises ``ConfigurationError``."""
        if self.spec is None:
            raise ConfigurationError("a fit without a model spec cannot be saved: model.json names the spec's terms")
        return {
            "spec": list(self.spec.terms),
            "beta": self.beta_hat.tolist(),
            "cov": self.cov_hat.tolist(),
            "n_obs": self.n_obs,
            "deviance": float(self.deviance),
            "converged": self.converged,
        }


def expit(eta: np.ndarray) -> np.ndarray:
    """Numerically stable inverse logit: 1 / (1 + e^-eta), or e^eta / (1 + e^eta) below 0."""
    eta = np.asarray(eta, dtype=float)
    return _expit(eta, np.exp(-np.abs(eta)))


def _expit(eta: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``expit(eta)`` from ``e = exp(-|eta|)``."""
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def log_likelihood(beta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Bernoulli log-likelihood at ``beta`` (stable for any linear predictor)."""
    eta = X @ np.asarray(beta, dtype=float)
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def score(beta: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the log-likelihood: X'(y - mu); for a stack of designs (B, n, k), one row per design."""
    return _matvec(_transpose(X), y - expit(_matvec(X, np.asarray(beta, dtype=float))))


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``M @ v`` for a matrix and a vector, or slice by slice for stacks of them (one gemv each)."""
    return (M @ v[..., None])[..., 0]


def _transpose(M: np.ndarray) -> np.ndarray:
    return M.swapaxes(-1, -2)


def _deviance(eta: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binomial deviance of each row of ``eta`` (a scalar for a single vector), and ``exp(-|eta|)``.

    ``log(1 + e^eta)`` is taken as ``log1p(e) + max(eta, 0)`` with
    ``e = exp(-|eta|)``, which ``_expit`` reuses: about a tenth of its terms
    differ from ``np.logaddexp(0, eta)``, numpy's scalar loop, by at most
    2 ulp. The deviance only steers the convergence test and step-halving;
    ``_model_fits`` reports ``log_likelihood``'s.
    """
    e = np.exp(-np.abs(eta))
    terms = np.log1p(e)
    terms += np.maximum(eta, 0.0)
    terms -= y * eta
    return 2.0 * terms.sum(axis=-1), e


def _start_deviance(n: int) -> float:
    """``_deviance`` of a zero linear predictor over ``n`` outcomes: the same pairwise sum of ``log1p(1)``."""
    return 2.0 * np.full(n, np.log1p(1.0)).sum()


def _reals(value, name: str) -> np.ndarray:
    """``value`` as a float array; one that numpy cannot read as reals raises ``ConfigurationError`` naming ``name``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be an array of reals, got {reprlib.repr(value)}") from None


def _column_names(column_names, k: int) -> list[str]:
    """``column_names`` as a list; without them, a raw design's ``k`` columns are ``x0, x1, ...``."""
    return list(column_names) if column_names is not None else [f"x{j}" for j in range(k)]


def _dependent_columns(A: np.ndarray, column_names) -> list[str]:
    """Name columns whose Cholesky pivot collapses (linearly dependent)."""
    k = A.shape[0]
    names = _column_names(column_names, k)
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


def _per_slice(op, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``op`` (a stacked LAPACK routine) on a stack of matrices, and a mask of the slices it failed on.

    One stacked call serves when every slice succeeds; a failure anywhere
    raises for the whole stack, so the slices are then redone one at a time.
    """
    try:
        return op(A), np.zeros(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.zeros_like(A)
        failed = np.zeros(len(A), dtype=bool)
        for i, a in enumerate(A):
            try:
                out[i] = op(a)
            except np.linalg.LinAlgError:
                failed[i] = True
        return out, failed


class _Workspace:
    """The big per-stack buffers of the IRLS, for stacks of up to ``rows`` designs (n, k).

    ``XT`` holds the transposed designs, ``Xs`` the standardized ones and
    ``Xw`` the weighted ones; ``Xw`` also serves as scratch between its uses,
    ``_standardize``'s centered squares among them.
    """

    def __init__(self, rows: int, n: int, k: int):
        self.rows = rows
        self.XT = np.empty((rows, k, n))
        self.Xs = np.empty((rows, n, k))
        self.Xw = np.empty((rows, n, k))


def _standardize(X: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Center/scale each design of a stack (B, n, k) for conditioning, working in ``ws``.

    Returns (Xs, means, scales, intercept), the last a (B, k) mask of each
    design's intercept column: its first constant non-zero column, if any,
    which is left as is (mean 0, scale 1). Columns are centered only when an
    intercept can absorb the shift. ``Xs`` is a prefix of ``ws.Xs``; ``X``
    is only read.
    """
    n_rows, n, k = X.shape
    # An owned transposed copy: each column's statistics and its scaling run
    # along a contiguous axis.
    XT = ws.XT[:n_rows]
    np.copyto(XT, _transpose(X))
    first = XT[:, :, :1]
    constant = (XT == first).all(axis=2) & (first[:, :, 0] != 0.0)
    intercept = constant & (constant.cumsum(axis=1) == 1)
    centered = intercept.any(axis=1)[:, None] & ~intercept
    # np.std's own steps, sharing the column means: the same bits in one pass fewer.
    mean = XT.mean(axis=2, keepdims=True)
    squares = np.subtract(XT, mean, out=ws.Xw.reshape(ws.rows, k, n)[:n_rows])
    squares *= squares
    sd = np.sqrt(squares.sum(axis=2) / n)
    scales = np.where(~intercept & (sd > 0.0), sd, 1.0)
    means = np.where(centered, mean[:, :, 0], 0.0)
    XT -= means[:, :, None]
    XT /= scales[:, :, None]
    Xs = ws.Xs[:n_rows]
    np.copyto(Xs, _transpose(XT))
    return Xs, means, scales, intercept


def _destandardize(beta_s, means, scales, intercept) -> np.ndarray:
    beta = beta_s / scales
    shift = (beta_s * means / scales).sum(axis=1)
    return np.subtract(beta_s, shift[:, None], out=beta, where=intercept)


def _take(a: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a[rows]`` for sorted distinct ``rows``, without a copy when they are all of ``a``.

    With ``out``, a stack big enough for them, the rows are copied into its
    prefix (``mode="clip"``: under the default mode numpy fills a temporary
    and copies that into ``out``).
    """
    if rows.size == len(a):
        return a
    if out is None:
        return a[rows]
    return np.take(a, rows, axis=0, out=out[: rows.size], mode="clip")


def _compact(stack: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Move the kept rows of ``stack`` forward into its prefix, in order, and return that prefix."""
    kept = keep.nonzero()[0]
    for j, i in enumerate(kept.tolist()):
        if i != j:
            stack[j] = stack[i]
    return stack[: kept.size]


@dataclass(frozen=True)
class StackedFit:
    """IRLS results for a stack of designs, one row per design.

    ``errors`` holds the exception the IRLS meets on that row (collinear or
    separated), or None; ``beta`` and ``n_iter`` are meaningful where it is
    None, and ``converged`` marks those rows whose fit converged. There is no
    covariance, so a row whose IRLS converged with a singular final
    information matrix is marked converged; ``_model_fits`` fails it.
    """

    beta: np.ndarray
    n_iter: np.ndarray
    converged: np.ndarray
    errors: tuple[StatisticalError | None, ...]


def _check_stack(X: np.ndarray, outcomes: np.ndarray, column_names) -> None:
    """Refuse designs (B, n, k) and outcomes (B, n) that no IRLS may fit; the caller builds the two to match."""
    n_rows, n, k = X.shape
    if n < k:
        raise ConfigurationError(f"need at least as many rows ({n}) as columns ({k})")
    if not ((outcomes == 0.0) | (outcomes == 1.0)).all():
        raise ConfigurationError("outcomes must be binary 0/1")
    if len(column_names) != k:
        raise ConfigurationError("column_names length does not match design columns")
    finite = np.isfinite(X)
    if not finite.all():  # the per-column reduction is ten times slower: it runs only to name the column
        j = int(np.argmin(finite.all(axis=(0, 1))))
        raise ConfigurationError(f"design column {column_names[j]} holds a non-finite value (NaN or infinity)")


def _refit_chunks(X: np.ndarray, y: np.ndarray, chunks):
    """Refit the design ``X`` (n, k) and outcomes ``y`` (n,) on each chunk of row resamples.

    ``chunks`` yields tuples whose first array holds one row-index draw per
    replicate, (replicates, n), as ``rng.resample_chunks`` does. Yields each
    chunk with its ``StackedFit``, row for row what ``_irls`` gives the
    chunk's designs without column names. Every chunk is gathered into one
    buffer, and fitted in one workspace, both sized by the first chunk. The
    caller checks ``X`` and ``y`` (``_check_stack``).
    """
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    ws = None
    for chunk in chunks:
        idx = chunk[0]
        if ws is None or len(idx) > ws.rows:
            ws, gathered = _Workspace(len(idx), *X.shape), np.empty((len(idx), *X.shape))
        designs = np.take(X, idx, axis=0, out=gathered[: len(idx)], mode="clip")  # see _take
        yield chunk, _irls(designs, y[idx], ws, None)


def _irls(X: np.ndarray, outcomes: np.ndarray, ws: _Workspace, column_names) -> StackedFit:
    """The stacked IRLS on checked, C-contiguous designs ``X``, working in ``ws``; at most ``MAX_ITER`` iterations.

    Each row gets, bit for bit, the IRLS of its design alone: every product,
    factorization and reduction works on one row's contiguous slice in the
    same layout, and a row leaves the working arrays once it converges or
    fails. ``X`` and ``outcomes`` are only read.
    """
    n_rows, n, k = X.shape
    Xs, means, scales, intercept = _standardize(X, ws)
    beta = np.zeros((n_rows, k))
    n_iter = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    errors: list[StatisticalError | None] = [None] * n_rows

    # An outcome vector with no events, or only events, has no maximum-likelihood estimate.
    constant = (outcomes == outcomes[:, :1]).all(axis=1)
    for i in constant.nonzero()[0]:
        errors[i] = SeparationError(
            f"every outcome is {outcomes[i, 0]:g}: the maximum-likelihood estimate does not exist"
        )

    # Working arrays over the rows still iterating; ``rows`` maps them back.
    # ``Xs`` stays a prefix of ``ws.Xs``: finished rows are compacted out.
    rows = (~constant).nonzero()[0]
    Xs = _compact(Xs, ~constant)
    y, means, scales, intercept = (_take(a, rows) for a in (outcomes, means, scales, intercept))
    beta_s = np.zeros((rows.size, k))
    # At beta = 0 every eta is 0, exp(-|eta|) is 1 and each deviance term is
    # log1p(1): the start needs no matvec and no _deviance, bit for bit.
    eta = np.zeros((rows.size, n))
    e = np.ones_like(eta)
    dev = np.full(rows.size, _start_deviance(n))
    it = 0
    while rows.size:
        it += 1
        mu = _expit(eta, e)
        w = np.maximum(mu * (1.0 - mu), WEIGHT_FLOOR)
        z = y - mu
        z /= w
        z += eta  # eta + (y - mu) / w: addition commutes exactly
        Xw = np.multiply(Xs, w[:, :, None], out=ws.Xw[: rows.size])
        A = _transpose(Xs) @ Xw
        b = _matvec(_transpose(Xw), z)
        L, failed = _per_slice(np.linalg.cholesky, A)
        pivots = L.diagonal(axis1=1, axis2=2) ** 2
        failed |= pivots.min(axis=1) < PIVOT_FLOOR * A.diagonal(axis1=1, axis2=2).max(axis=1)
        if failed.any():
            for i in failed.nonzero()[0]:
                errors[rows[i]] = CollinearityError(_dependent_columns(A[i], column_names))
            keep = ~failed
            Xs = _compact(Xs, keep)
            rows, y, means, scales, intercept, beta_s, dev, L, b = (
                a[keep] for a in (rows, y, means, scales, intercept, beta_s, dev, L, b)
            )
            if not rows.size:
                break
        beta_new = np.linalg.solve(_transpose(L), np.linalg.solve(L, b[..., None]))[..., 0]

        new_eta = _matvec(Xs, beta_new)
        new_dev, new_e = _deviance(new_eta, y)
        halvings = 0
        halve = new_dev > dev + HALVING_TOL
        halve = halve.nonzero()[0] if halve.any() else ()
        while len(halve) and halvings < MAX_STEP_HALVINGS:
            beta_new[halve] = 0.5 * (beta_s[halve] + beta_new[halve])
            new_eta[halve] = _matvec(_take(Xs, halve, out=ws.Xw), beta_new[halve])
            new_dev[halve], new_e[halve] = _deviance(new_eta[halve], y[halve])
            halvings += 1
            halve = halve[new_dev[halve] > dev[halve] + HALVING_TOL]

        delta_dev = np.abs(dev - new_dev)
        beta_s, eta, e, dev = beta_new, new_eta, new_e, new_dev

        # The raw-scale coefficients matter only to rows that may stop here.
        saturated = (np.abs(eta) > _SATURATED_ETA).any(axis=1)
        converging = delta_dev < DEVIANCE_TOL
        last = it >= MAX_ITER
        if not (last or saturated.any() or converging.any()):
            continue
        done = np.full(rows.size, last)
        beta_raw = _destandardize(beta_s, means, scales, intercept)
        largest = np.abs(beta_raw).max(axis=1)
        separated = saturated & (largest > SEPARATION_BETA_BOUND)
        for i in separated.nonzero()[0]:
            errors[rows[i]] = SeparationError(
                "complete or quasi-complete separation: fitted probabilities reached 0/1 "
                f"with max |coefficient| {largest[i]:.3g} > {SEPARATION_BETA_BOUND:g}"
            )
        check = (converging & ~separated).nonzero()[0]
        if check.size:
            raw_score = score(beta_raw[check], _take(X, rows[check], out=ws.Xw), _take(outcomes, rows[check]))
            for i in check[np.abs(raw_score).max(axis=1) < SCORE_TOL]:
                converged[rows[i]] = True
                done[i] = True
        done |= separated
        if done.any():
            beta[rows[done]] = beta_raw[done]
            n_iter[rows[done]] = it
            if done.all():
                break
            keep = ~done
            Xs = _compact(Xs, keep)
            rows, y, means, scales, intercept, beta_s, eta, e, dev = (
                a[keep] for a in (rows, y, means, scales, intercept, beta_s, eta, e, dev)
            )
    return StackedFit(beta=beta, n_iter=n_iter, converged=converged, errors=tuple(errors))


def fit_logistic(
    design: np.ndarray,
    outcomes: np.ndarray,
    *,
    column_names: list[str] | tuple[str, ...] | None = None,
) -> ModelFit:
    """Maximum-likelihood logistic fit via IRLS with step-halving: ``_model_fits`` of this one design.

    Convergence requires both a deviance change below ``DEVIANCE_TOL`` and a
    score max-norm below ``SCORE_TOL`` within ``MAX_ITER`` iterations; otherwise
    the fit is returned flagged as non-converged. Rank deficiency raises ``CollinearityError`` naming the
    dependent columns; diverging coefficients with saturated fitted
    probabilities, or outcomes that are all 0 or all 1, raise
    ``SeparationError``.
    """
    X = _reals(design, "fit_logistic.design")
    y = _reals(outcomes, "fit_logistic.outcomes")
    checked(column_names, list | tuple | None, "fit_logistic.column_names")
    for j, name in enumerate(column_names or ()):
        checked(name, str, f"fit_logistic.column_names[{j}]")
    if X.ndim != 2:
        raise ConfigurationError("design must be a 2-d matrix")
    n, k = X.shape
    if y.shape != (n,):
        raise ConfigurationError(f"outcomes length {y.shape} does not match design rows {n}")
    (result,) = _model_fits([X], [y], _column_names(column_names, k), None)
    if isinstance(result, StatisticalError):
        raise result
    return result


def _model_fits(designs, outcomes, column_names, spec: ModelSpec | None) -> list[ModelFit | StatisticalError]:
    """One stacked IRLS of equal-shaped 2-d float ``designs`` and 1-d ``outcomes``, as reported fits, in order.

    Each item is what ``fit_logistic`` gives that design alone: a
    ``ModelFit`` with ``spec`` attached and the deviance of the design as
    handed here, or the ``StatisticalError`` it raises (returned, not raised).
    """
    if not designs:
        return []
    X, Y = np.stack(designs), np.stack(outcomes)
    _check_stack(X, Y, column_names)
    fit = _irls(X, Y, _Workspace(*X.shape), column_names)
    mu = expit(_matvec(X, fit.beta))
    w = np.maximum(mu * (1.0 - mu), WEIGHT_FLOOR)
    A = _transpose(X * w[:, :, None]) @ X
    covs, singular = _per_slice(np.linalg.inv, A)
    names = tuple(column_names)
    return [
        error if error is not None
        else CollinearityError(_dependent_columns(A[i], names)) if singular[i]
        else ModelFit(spec=spec, column_names=names, beta_hat=beta, cov_hat=cov, n_obs=len(y),
                      deviance=-2.0 * log_likelihood(beta, design, y), converged=bool(converged), n_iter=int(n_iter))
        for i, (design, y, beta, cov, converged, n_iter, error) in enumerate(zip(
            designs, outcomes, fit.beta, covs, fit.converged, fit.n_iter, fit.errors))
    ]


def fit_model(patients: Cohort, spec: ModelSpec | None = None) -> ModelFit:
    """``fit_models([patients], spec)``'s one fit, or its error raised; the usual entry point."""
    spec = checked(spec, ModelSpec | None, "fit_model.spec")
    (result,) = fit_models([require_role(patients, Role.DEVELOPMENT, "fit_model")], spec or ModelSpec())
    if isinstance(result, StatisticalError):
        raise result
    return result


def fit_models(cohorts, spec: ModelSpec) -> list[ModelFit | StatisticalError]:
    """The fit of ``spec`` to each development cohort in ``cohorts``, all of one size: ``_model_fits`` of their designs.

    Each item is the ``ModelFit`` that ``fit_logistic`` gives that cohort's
    design alone, bit for bit, with ``spec`` attached, or the
    ``StatisticalError`` it raises (returned, not raised).
    """
    checked(spec, ModelSpec, "fit_models.spec")
    for i, cohort in enumerate(checked(cohorts, tuple | list, "fit_models.cohorts")):
        require_role(checked(cohort, Cohort, f"fit_models.cohorts[{i}]"), Role.DEVELOPMENT, "fit_models")
        if len(cohort) != len(cohorts[0]):
            raise ConfigurationError(f"fit_models.cohorts[{i}] has {len(cohort)} patients, not {len(cohorts[0])}")
    return _model_fits([build_design(c, spec)[0] for c in cohorts], [c.outcome.astype(float) for c in cohorts],
                       design_columns(spec), spec)


def predict_risk(
    fit: ModelFit,
    patients: Cohort,
    plan_source: PlanSource = PlanSource.PHOTON,
) -> np.ndarray:
    """Predicted outcome probabilities for the cohort ``patients``, strictly inside (0, 1)."""
    checked(fit, ModelFit, "predict_risk.fit")
    checked(patients, Cohort, "predict_risk.patients")
    if not fit.converged:
        raise NotConvergedError("cannot predict from a non-converged model fit")
    if fit.spec is None:
        raise ConfigurationError("fit carries no model spec; cannot build a design from a cohort")
    X, _ = build_design(patients, fit.spec, plan_source)
    return predict_design(fit.beta_hat, X)


def predict_design(beta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Inverse-logit predictions from a raw design matrix, clipped into (0, 1).

    A stack of designs (B, n, k) takes one coefficient row per design (B, k).
    """
    X, beta = _reals(X, "predict_design.X"), _reals(beta, "predict_design.beta")
    if X.ndim not in (2, 3):
        raise ConfigurationError(f"predict_design.X must be a design (n, k) or a stack of them, got shape {X.shape}")
    if beta.shape[-1:] != X.shape[-1:]:
        raise ConfigurationError(
            f"predict_design.beta must hold {X.shape[-1]} coefficients a row, one per design column, "
            f"got shape {beta.shape}")
    if X.ndim == 3 and beta.shape not in (X.shape[-1:], X.shape[::2]):
        raise ConfigurationError(
            f"predict_design.beta must hold one coefficient row per design, shape {X.shape[::2]}, "
            f"got shape {beta.shape}")
    return np.clip(expit(_matvec(X, beta)), 1e-12, 1.0 - 1e-12)
