"""Exception hierarchy.

Two families matter for the CLI exit-code contract: configuration/input
problems (exit 2) and statistical failures (exit 3). An error whose
constructor takes other arguments than its message rebuilds itself from them
when unpickled, as it must to cross from a pool worker.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from collections import namedtuple


class AttlabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(AttlabError):
    """Invalid configuration, options, or input data (CLI exit 2)."""


Integer = namedtuple("Integer", "low high", defaults=(None,))
Real = namedtuple("Real", "low high", defaults=(-math.inf, math.inf))
OneOf = namedtuple("OneOf", "values")


def checked(value, kind, name: str):
    """``value`` as the field, argument or option ``name`` keeps it when it is of ``kind``; else ConfigurationError.

    A kind is an ``Integer(low, high=None)``, an integer from ``low`` up to
    ``high``, if given, kept as an ``int``; a ``Real(low, high)``, a real
    strictly between them (so finite) kept as a ``float``; a
    ``OneOf(values)``, a value of the type of one of ``values`` that equals
    it; or a class: a type, an enum, a nested config or ``X | None``. A bool
    is no number and a string no enum member; a numpy scalar is kept as its
    Python value. A refusal reads ``<name> must be <kind>, got <value!r>``.
    """
    if isinstance(kind, Integer):
        integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        if integral and kind.low <= value and (kind.high is None or value <= kind.high):
            return int(value)
        noun = {0: "a non-negative integer", 1: "a positive integer"}.get(kind.low, f"an integer >= {kind.low}")
        if integral and kind.low <= value:  # the upper bound is named when it is the one broken
            noun += f" <= {kind.high}"
    elif isinstance(kind, OneOf):
        # The type first, so that an array or a list is never compared element-wise.
        if any(type(value) is type(v) and value == v for v in kind.values):
            return value
        noun = "one of " + ", ".join(map(str, kind.values))
    elif isinstance(kind, Real):
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and kind.low < value < kind.high:
            with contextlib.suppress(OverflowError):  # an integer beyond the largest float is refused
                return float(value)
        noun = "a finite real" if kind == Real() else f"a real in ({kind.low:g}, {kind.high:g})"
    elif isinstance(value, kind):
        return value
    else:
        names = ["None" if cls is type(None) else cls.__name__ for cls in getattr(kind, "__args__", (kind,))]
        noun = ("an " if names[0][0] in "AEIOU" else "a ") + " or ".join(names)
    raise ConfigurationError(f"{name} must be {noun}, got {value!r}")


def check_fields(config, **kinds) -> None:
    """Keep each field of the frozen dataclass ``config`` that ``kinds`` names, in order, as ``checked`` keeps it."""
    for field, kind in kinds.items():
        object.__setattr__(config, field, checked(getattr(config, field), kind, f"{type(config).__name__}.{field}"))


class SchemaError(ConfigurationError):
    """CSV or cohort schema problems, carrying the individual violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:5])
        extra = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"{len(self.violations)} schema violation(s): {lines}{extra}")

    def __reduce__(self):
        return type(self), (self.violations,)


class MissingPlanError(ConfigurationError):
    """An operation needed proton dose plans that some records lack."""

    def __init__(self, record_ids):
        self.record_ids = list(record_ids)
        shown = ", ".join(self.record_ids[:10])
        extra = "" if len(self.record_ids) <= 10 else f" (+{len(self.record_ids) - 10} more)"
        super().__init__(f"proton dose plan missing for records: {shown}{extra}")

    def __reduce__(self):
        return type(self), (self.record_ids,)


class StatisticalError(AttlabError):
    """Estimation-level failure: the data defeated the method (CLI exit 3)."""


class CollinearityError(StatisticalError):
    """Rank-deficient design matrix."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(
            "design matrix is rank deficient; dependent column(s): " + ", ".join(self.columns)
        )

    def __reduce__(self):
        return type(self), (self.columns,)


class SeparationError(StatisticalError):
    """Complete or quasi-complete separation during logistic fitting."""


class NotConvergedError(StatisticalError):
    """A converged model fit was required but not available."""


class PredictionError(StatisticalError):
    """Prediction requested for inputs outside the model's support."""


class EstimandError(StatisticalError):
    """The requested estimand is undefined for the given data."""


class UnstableBootstrapError(StatisticalError):
    """Too many bootstrap replicates failed to produce an estimate: more than ``max_fraction`` of them."""

    def __init__(self, n_failed, n_replicates, max_fraction):
        self.n_failed = n_failed
        self.n_replicates = n_replicates
        self.max_fraction = max_fraction
        super().__init__(
            f"{n_failed} of {n_replicates} bootstrap replicates failed (> {100 * max_fraction:g}% tolerated)"
        )

    def __reduce__(self):
        return type(self), (self.n_failed, self.n_replicates, self.max_fraction)


class UndefinedMetricError(StatisticalError):
    """A diagnostic metric is undefined for the given inputs."""


class ScenarioError(StatisticalError):
    """A simulation scenario exceeded its replicate failure budget."""
