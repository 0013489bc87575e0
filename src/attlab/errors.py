"""Exception hierarchy.

Two families matter for the CLI exit-code contract: configuration/input
problems (exit 2) and statistical failures (exit 3). An error whose
constructor takes other arguments than its message rebuilds itself from them
when unpickled, as it must to cross from a pool worker.
"""

from __future__ import annotations


class AttlabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(AttlabError):
    """Invalid configuration, options, or input data (CLI exit 2)."""


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
    """Too many bootstrap replicates failed to produce an estimate."""

    def __init__(self, n_failed, n_replicates):
        self.n_failed = n_failed
        self.n_replicates = n_replicates
        super().__init__(
            f"{n_failed} of {n_replicates} bootstrap replicates failed (> 5% tolerated)"
        )

    def __reduce__(self):
        return type(self), (self.n_failed, self.n_replicates)


class UndefinedMetricError(StatisticalError):
    """A diagnostic metric is undefined for the given inputs."""


class ScenarioError(StatisticalError):
    """A simulation scenario exceeded its replicate failure budget."""
