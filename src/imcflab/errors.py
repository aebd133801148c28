"""Exception types shared across the package.

Each failure mode the scenario runner maps to a distinct exit code gets its
own class; everything derives from :class:`LabError` so callers can catch
package errors wholesale.
"""


class LabError(Exception):
    """Base class for all imcflab errors."""


class DomainError(LabError):
    """An evaluation point lies outside the manifold's working domain."""


class InsideHorizonError(DomainError):
    """A surface touches or crosses the region where the metric profile
    is nonpositive."""


class FitQualityError(LabError):
    """Asymptotic tail fit rejected; the message gives the numbers why."""


class MeanConvexityError(LabError):
    """Initial surface fails the strict mean-convexity precondition."""


class SolverFailureError(LabError):
    """Time stepper broke down (step-size underflow, step budget exhausted);
    carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ConfigError(LabError):
    """Scenario config failed to parse or validate; message names the key."""
