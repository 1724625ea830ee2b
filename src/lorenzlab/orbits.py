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
    EquilibriumKind,
    OriginClass,
    classify_origin,
    find_equilibria,
)
from .errors import (
    EigenvalueCollisionError,
    NotASaddleError,
    TrajectoryLengthMismatchError,
)
from .integrator import IntegratorSettings, Trajectory, integrate_to_equilibrium
from .lyapunov import hypotheses_check
from .model import SIGN_BAND, State, SystemParams, apply_symmetry


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
    the unstable eigenvalue comes from the (x, y) block, so the
    eigenvector is (1, (a + lambda_u)/a, 0) up to normalization.  A rate
    within SIGN_BAND * (1 + |b|) of -b raises EigenvalueCollisionError.
    """
    if classify_origin(p) is not OriginClass.SADDLE_WS2_WU1:
        raise NotASaddleError(
            "origin is not a saddle with a one-dimensional unstable manifold"
        )
    r = p.N - p.a - 1.0
    q = p.a * (p.M + p.N + p.c - 1.0)
    lam_u = (r + math.sqrt(r * r + 4.0 * q)) / 2.0
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
    capture_radius: float = 1e-6,
) -> HeteroclinicResult:
    """Trace one branch of the unstable manifold to its terminal equilibrium.

    The seed is +-epsilon times the unstable direction; epsilon defaults
    to 1e-6 * (1 + ||E+||) so the seed error stays small relative to the
    scale of the orbit.  The result is marked certified only when the
    heteroclinic hypotheses hold for p; otherwise it reports what the
    numerics did without any guarantee attached.  An epsilon that is not
    positive and finite raises ValueError: a negative one would trace the
    other branch under this branch's label.
    """
    if epsilon is not None and not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    direction = unstable_direction_at_origin(p)
    eqs = find_equilibria(p)
    e_plus = eqs.pair[0] if eqs.pair is not None else None
    if epsilon is None:
        scale = math.sqrt(sum(v * v for v in e_plus.location)) if e_plus else 0.0
        epsilon = 1e-6 * (1.0 + scale)
    sign = 1.0 if branch is Branch.PLUS_X else -1.0
    u0 = State(*(sign * epsilon * v for v in direction))
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
    xs = [s.x for s in outcome.trajectory.states]
    extremal = min(xs) if branch is Branch.PLUS_X else max(xs)
    expected = None
    if eqs.kind is EquilibriumKind.TRIPLE:
        expected = eqs.pair[0] if branch is Branch.PLUS_X else eqs.pair[1]
    success = (
        outcome.terminal is not None
        and expected is not None
        and outcome.terminal.location == expected.location
    )
    return HeteroclinicResult(
        branch=branch,
        epsilon=epsilon,
        trajectory=outcome.trajectory,
        terminal=outcome.terminal,
        extremal_x=extremal,
        success=success,
        certified=hypotheses_check(p).het_ok,
    )


def branch_symmetry_deviation(
    plus: HeteroclinicResult, minus: HeteroclinicResult
) -> float:
    """Largest pointwise distance between the minus branch and the
    mirrored plus branch.

    Both trajectories must have the same number of steps.  With the
    fixed-step integrator and mirrored seeds this is exactly zero.
    """
    sp, sm = plus.trajectory.states, minus.trajectory.states
    if len(sp) != len(sm):
        raise TrajectoryLengthMismatchError(
            f"step counts differ: {len(sp)} vs {len(sm)}"
        )
    worst = 0.0
    for a, b in zip(sp, sm):
        m = apply_symmetry(a)
        d = math.sqrt((b.x - m.x) ** 2 + (b.y - m.y) ** 2 + (b.z - m.z) ** 2)
        if d > worst:
            worst = d
    return worst
