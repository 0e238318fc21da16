"""Exception hierarchy for the excursim package."""


class ExcursimError(Exception):
    """Base class for all errors raised by excursim."""


class ModelEvaluationError(ExcursimError):
    """A model function (mean, std, correlation) returned a non-finite value."""


class SingularModelError(ExcursimError):
    """A covariance matrix is indefinite beyond rounding, so it has no real factor.

    Raised when, after the pivoted Cholesky stops at the numerical rank, some
    residual diagonal is below -1e-6 * trace/n, or the residual probe (the
    residual times a fixed positive vector) exceeds the bound that any
    positive semidefinite residual obeys by more than 1e-6 * trace/n.
    """


class InvalidLevelError(ExcursimError):
    """Excursion level outside the supported regime (requires b > 1)."""


class QuadratureError(ExcursimError):
    """Adaptive quadrature failed to converge within the refinement budget."""


class IntegrandBoundsError(ExcursimError):
    """Integrand value observed outside its declared [a1, a2] bounds."""


class ConfigurationError(ExcursimError):
    """Invalid or incomplete configuration (models, experiments, CLI)."""


class InsufficientReplicatesError(ExcursimError):
    """Too few replicates to aggregate (need at least two)."""


class NoHitError(ExcursimError):
    """Every replicate missed the rare event; increase the replicate count."""


class ReplicateFailureError(ExcursimError):
    """More than the tolerated fraction of replicates errored during a run."""
