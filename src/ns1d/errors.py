"""Exception hierarchy shared across the package."""


class Ns1dError(Exception):
    """Base class for all package errors.  steps: the solver steps accepted
    before the error, set by advance and convergence_study."""

    steps: int = 0


class DomainError(Ns1dError, ValueError):
    """An input lies outside the physical domain (e.g. v <= 0, theta <= 0)."""


class ArgumentError(Ns1dError, ValueError):
    """A structural precondition on arguments was violated."""


class QuadratureError(Ns1dError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class PositivityError(DomainError):
    """An entry of v, theta or phi's argument is not above its floor (NaN
    included): 0 in transport, phi and transport_derivatives, the solver's
    constant POSITIVITY_FLOOR for a trial stage.  The solver also raises it for
    any non-finite trial state of either integrator, the predictor or the new
    state, so that the step is retried with dt/2."""


class PositivityExhaustedError(PositivityError):
    """Step rejection halved dt MAX_DT_HALVINGS times without success."""


class NewtonDivergenceError(Ns1dError):
    """An implicit diffusion solve met a zero pivot, or its normwise backward error
    (NaN or inf for a non-finite entry) exceeded the solver's constant bound."""


class ConfigError(Ns1dError, ValueError):
    """Configuration file is malformed or violates an invariant."""
