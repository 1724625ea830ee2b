"""Exception types shared across the package."""


class LorenzLabError(Exception):
    """Base class for all package-specific errors."""


class DegenerateBError(LorenzLabError):
    """b = 0: the closed-form equilibrium set does not apply."""


class DegenerateParamsError(LorenzLabError):
    """a = 0, P = 1 or A, B or K beyond the float range: certificate V is undefined."""


class NotASaddleError(LorenzLabError):
    """The origin is not a saddle with a one-dimensional unstable manifold."""


class EigenvalueCollisionError(LorenzLabError):
    """The unstable eigenvalue coincides with -b; the eigendirection is ambiguous."""


class TrajectoryLengthMismatchError(LorenzLabError):
    """Paired trajectories do not have matching step counts."""


class UnsupportedPresetError(LorenzLabError):
    """No certificate conditions are defined for this preset."""


class NotStableRegimeError(LorenzLabError):
    """Anticontrol requires a stable base system (0 < c < 1)."""


class DivergedTrajectoryError(LorenzLabError):
    """A numerical orbit left the admissible region."""


class UnsupportedFormatError(LorenzLabError):
    """The requested output format is not available for this result kind."""


class WorkerPoolError(LorenzLabError):
    """A worker process of a parallel sweep died, so the sweep has no result."""
