"""Numerical continuation of the origin's one-dimensional unstable manifold.

When the origin is a saddle with a single unstable eigenvalue lambda_u, the
unstable eigendirection lies in the z = 0 plane (lambda_u = -b would make it
degenerate with the z-axis mode and is rejected).  Seeding just off the
origin along that direction and integrating forward traces one branch of
the unstable manifold; under the convergence certificate the branch must
terminate in an equilibrium, and by symmetry the two branches mirror each
other through (x, y, z) -> (-x, -y, z).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .equilibria import (
    Equilibrium,
    OriginClass,
    classify_origin,
    find_equilibria,
    origin_eigenvalues,
)
from .errors import (
    EigenvalueCollisionError,
    NotASaddleError,
    TrajectoryLengthMismatchError,
)
from .integrator import (
    _CAPTURE_RADIUS,
    IntegratorSettings,
    Trajectory,
    _check_capture_radius,
    _dist,
    integrate_to_equilibrium,
)
from .lyapunov import certificate
from .model import SIGN_BAND, State, SystemParams


class Branch(enum.Enum):
    PLUS_X = "plus_x"  # seeded with positive x
    MINUS_X = "minus_x"


@dataclass(frozen=True)
class HeteroclinicResult:
    """One traced branch of the origin's unstable manifold.

    ``success`` records whether the branch was captured by the expected
    target (E+ for the plus branch, E- for the minus branch);
    ``certified`` records whether the heteroclinic hypotheses held, i.e.
    whether the connection is guaranteed rather than merely observed.
    ``extremal_x`` is min(x) along the plus branch and max(x) along the
    minus branch; a certified connection keeps its sign.
    """

    branch: Branch
    epsilon: float
    trajectory: Trajectory
    terminal: Equilibrium | None
    extremal_x: float
    success: bool
    certified: bool


def unstable_direction_at_origin(p: SystemParams) -> tuple[float, float, float]:
    """Unit vector spanning the origin's unstable eigendirection.

    Requires the saddle type with a one-dimensional unstable manifold.
    The returned vector has positive x component and zero z component:
    the unstable eigenvalue lambda_u is the leading root of the (x, y)
    block's quadratic, as origin_eigenvalues computes it, so the
    eigenvector is (1, (a + lambda_u)/a, 0) up to normalization.  A rate
    within SIGN_BAND * (1 + |b|) of -b raises EigenvalueCollisionError.
    """
    if classify_origin(p) is not OriginClass.SADDLE_WS2_WU1:
        raise NotASaddleError(
            "origin is not a saddle with a one-dimensional unstable manifold"
        )
    lam_u = origin_eigenvalues(p)[0].real
    if abs(lam_u + p.b) <= SIGN_BAND * (1.0 + abs(p.b)):
        raise EigenvalueCollisionError(
            "unstable eigenvalue coincides with -b; eigendirection is degenerate"
        )
    vx, vy = 1.0, (p.a + lam_u) / p.a
    nrm = math.sqrt(vx * vx + vy * vy)
    return (vx / nrm, vy / nrm, 0.0)


def trace_heteroclinic(
    p: SystemParams,
    branch: Branch,
    epsilon: float | None = None,
    settings: IntegratorSettings | None = None,
    capture_radius: float = _CAPTURE_RADIUS,
) -> HeteroclinicResult:
    """Trace one branch of the unstable manifold to its terminal equilibrium.

    The seed is +-epsilon times the unstable direction; epsilon defaults
    to 1e-6 * (1 + ||E+||) so the seed error stays small relative to the
    scale of the orbit.  The result is marked certified only when the
    heteroclinic hypotheses hold for p; otherwise it reports what the
    numerics did without any guarantee attached.  An epsilon that is not
    positive and finite raises ValueError: a negative one would trace the
    other branch under this branch's label.  So does a capture ball around
    E+ or E- that already contains the seed, where a capture would prove
    nothing, and a ``capture_radius`` that is negative, NaN or infinite.
    A ``branch`` that is not a Branch, such as its value, raises TypeError.
    """
    if branch is Branch.PLUS_X:
        k = 0
    elif branch is Branch.MINUS_X:
        k = 1
    else:
        raise TypeError(f"unknown branch {branch!r}")
    if epsilon is not None and not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    _check_capture_radius(capture_radius)
    direction = unstable_direction_at_origin(p)
    eqs = find_equilibria(p)
    if epsilon is None:
        scale = math.sqrt(sum(v * v for v in eqs.pair[0].location)) if eqs.pair else 0.0
        epsilon = 1e-6 * (1.0 + scale)
    sign = (1.0, -1.0)[k]
    u0 = State(*(sign * epsilon * v for v in direction))
    for name, e in zip(("E+", "E-"), eqs.pair or ()):
        if _dist(u0, e.location) <= capture_radius:
            raise ValueError(
                f"the capture ball of radius {capture_radius!r} around {name} "
                "already contains the seed"
            )
    # the origin is the branch's source, never its forward limit; for
    # epsilon < capture_radius the seed sits inside the origin ball, so
    # only the pair may count as a terminal
    outcome = integrate_to_equilibrium(
        p,
        u0,
        eqs,
        capture_radius=capture_radius,
        settings=settings,
        include_origin=False,
    )
    # the capture candidates are eqs.pair's own objects, or none without a pair
    return HeteroclinicResult(
        branch=branch,
        epsilon=epsilon,
        trajectory=outcome.trajectory,
        terminal=outcome.terminal,
        extremal_x=(min, max)[k](outcome.trajectory.xs),
        success=outcome.terminal is not None and outcome.terminal is eqs.pair[k],
        certified=certificate(p).heteroclinic_pair,
    )


def branch_symmetry_deviation(
    plus: HeteroclinicResult, minus: HeteroclinicResult
) -> float:
    """Largest pointwise distance between the minus branch and the
    mirrored plus branch.

    Both trajectories must have the same number of steps.  With the
    fixed-step integrator and mirrored seeds this is exactly zero.
    """
    tp, tm = plus.trajectory, minus.trajectory
    if len(tp.xs) != len(tm.xs):
        raise TrajectoryLengthMismatchError(
            f"step counts differ: {len(tp.xs)} vs {len(tm.xs)}"
        )
    worst = 0.0
    # b - (-a) rounds as b - m for the mirror m = S(a) = (-ax, -ay, az)
    for ax, ay, az, bx, by, bz in zip(tp.xs, tp.ys, tp.zs, tm.xs, tm.ys, tm.zs):
        d = math.sqrt((bx - (-ax)) ** 2 + (by - (-ay)) ** 2 + (bz - az) ** 2)
        if d > worst:
            worst = d
    return worst
