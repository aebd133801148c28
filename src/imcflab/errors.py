"""Exception types shared across the package.

Everything derives from :class:`LabError`, so callers can catch package
errors wholesale.  The CLI gives only two classes an exit code of their
own: :class:`ConfigError` exits 2 and :class:`SolverFailureError` exits 3;
every other ``LabError`` that reaches it exits 1.  The rest name a failure
for the code that handles it: the config parser re-raises a model's
``DomainError`` or ``MeanConvexityError`` as a ``ConfigError`` naming the
key, ``run_scenario`` turns a ``FitQualityError`` into a warning and a
null ``mass_fit``, and ``imcflab oracle`` gives an ``InsideHorizonError``
its horizon message.
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
