"""Deterministic explicit integrators for the controlled system.

Two modes: classical fixed-step RK4, and an adaptive Dormand-Prince 5(4)
pair with the first-same-as-last optimization, propagating the 5th-order
solution.  Everything is plain-float and sequential, so repeated runs with
identical inputs produce bit-identical trajectories, and the mirrored
initial condition S(u0) = (-x0, -y0, z0) produces the exactly mirrored
trajectory (every floating-point operation involved is sign-symmetric;
norms, error estimates and step-size decisions are invariant under S).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .equilibria import Equilibrium, EquilibriumSet
from .errors import LorenzLabError
from .model import State, SystemParams, _bound_rhs

# Dormand-Prince 5(4) tableau
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (
    19372.0 / 6561.0,
    -25360.0 / 2187.0,
    64448.0 / 6561.0,
    -212.0 / 729.0,
)
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
# 5th-order weights; the b2 entry is zero and k2 drops out of the update
_B1, _B3, _B4, _B5, _B6 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
# difference between the 5th and embedded 4th order weights
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_SAFETY = 0.9
_SHRINK_LIMIT = 0.2
_GROW_LIMIT = 5.0
_ORDER_EXPONENT = 0.2  # 1/5 for a 5th-order propagated solution

# consecutive accepted states inside the capture ball that count as capture
_DWELL_CHECKS = 10


class IntegratorMode(enum.Enum):
    FIXED_RK4 = "fixed_rk4"
    ADAPTIVE = "adaptive"


class TrajectoryStatus(enum.Enum):
    COMPLETED_TSPAN = "completed_tspan"
    CAPTURED_EQUILIBRIUM = "captured_equilibrium"
    DIVERGED = "diverged"
    STEP_LIMIT = "step_limit"


@dataclass(frozen=True)
class IntegratorSettings:
    """Knobs of both integrators.

    dt_init is the fixed step in FIXED_RK4 mode and the first trial step in
    ADAPTIVE mode.  A step is accepted when the embedded error estimate
    satisfies err <= rel_tol * ||state|| + abs_tol.  Trajectories whose norm
    exceeds blowup_norm (or that stop being finite) terminate as DIVERGED.
    """

    mode: IntegratorMode = IntegratorMode.ADAPTIVE
    dt_init: float = 1e-3
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    t_max: float = 200.0
    max_steps: int = 1_000_000
    blowup_norm: float = 1e6

    def __post_init__(self) -> None:
        if not (self.dt_init > 0.0 and math.isfinite(self.dt_init)):
            raise ValueError("dt_init must be positive and finite")
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not (self.t_max > 0.0 and math.isfinite(self.t_max)):
            raise ValueError("t_max must be positive and finite")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if not (self.blowup_norm > 0.0):
            raise ValueError("blowup_norm must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Accepted step points of one run, including the initial state."""

    times: tuple[float, ...]
    states: tuple[State, ...]
    status: TrajectoryStatus


@dataclass(frozen=True)
class ConvergenceOutcome:
    """Result of running until an equilibrium captures the orbit.

    ``terminal`` is the capturing equilibrium, or None when the run ended
    for any other reason.  ``final_distance`` is the distance from the
    final state to the nearest candidate equilibrium.
    """

    terminal: Equilibrium | None
    final_distance: float
    trajectory: Trajectory


def _norm(s: tuple) -> float:
    return math.sqrt(sum(v * v for v in s))


def _finite(s: tuple) -> bool:
    return all(math.isfinite(v) for v in s)


def _dist(s: tuple, t: tuple) -> float:
    return math.sqrt(sum((s[i] - t[i]) ** 2 for i in range(len(t))))


def _rk4_step(f: Callable, s: tuple, dt: float) -> tuple:
    n = len(s)
    k1 = f(s)
    half = 0.5 * dt
    k2 = f(tuple(s[i] + half * k1[i] for i in range(n)))
    k3 = f(tuple(s[i] + half * k2[i] for i in range(n)))
    k4 = f(tuple(s[i] + dt * k3[i] for i in range(n)))
    sixth = dt / 6.0
    return tuple(
        s[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]) for i in range(n)
    )


def _dp54_step(f: Callable, s: tuple, k1: tuple, dt: float):
    """One trial step. Returns (proposal, k7, error_norm).

    k1 = f(s) is passed in and k7 = f(proposal) is handed back so an
    accepted step reuses its last stage as the next step's first stage.
    """
    n = len(s)
    rng = range(n)
    k2 = f(tuple(s[i] + dt * (_A21 * k1[i]) for i in rng))
    k3 = f(tuple(s[i] + dt * (_A31 * k1[i] + _A32 * k2[i]) for i in rng))
    k4 = f(tuple(s[i] + dt * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i]) for i in rng))
    k5 = f(
        tuple(
            s[i] + dt * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i])
            for i in rng
        )
    )
    k6 = f(
        tuple(
            s[i]
            + dt
            * (
                _A61 * k1[i]
                + _A62 * k2[i]
                + _A63 * k3[i]
                + _A64 * k4[i]
                + _A65 * k5[i]
            )
            for i in rng
        )
    )
    proposal = tuple(
        s[i]
        + dt * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i] + _B6 * k6[i])
        for i in rng
    )
    k7 = f(proposal)
    err = math.sqrt(
        sum(
            (
                dt
                * (
                    _E1 * k1[i]
                    + _E3 * k3[i]
                    + _E4 * k4[i]
                    + _E5 * k5[i]
                    + _E6 * k6[i]
                    + _E7 * k7[i]
                )
            )
            ** 2
            for i in rng
        )
    )
    return proposal, k7, err


@dataclass
class _DriveResult:
    status: TrajectoryStatus
    t: float
    state: tuple
    dt: float
    times: list[float] = field(default_factory=list)
    states: list[tuple] = field(default_factory=list)
    captured: int | None = None
    final_distance: float = math.inf
    accepted: int = 0


def _drive(
    f: Callable,
    u0: tuple,
    settings: IntegratorSettings,
    t_end: float,
    targets: Sequence[tuple] | None = None,
    capture_radius: float = 0.0,
    record: bool = True,
    dt_start: float | None = None,
) -> _DriveResult:
    """Shared stepping loop for both modes.

    When ``targets`` is given, each accepted state updates a dwell counter:
    a run of ``_DWELL_CHECKS`` consecutive states inside ``capture_radius``
    of one fixed target ends the run as CAPTURED_EQUILIBRIUM.  The counter
    guards against transient passes near a saddle.  While dwelling in
    adaptive mode the step is clamped so the remaining time still allows
    the required number of checks.
    """
    fixed = settings.mode is IntegratorMode.FIXED_RK4
    dwell_checks = _DWELL_CHECKS
    dt = settings.dt_init if dt_start is None else dt_start
    t = 0.0
    s = u0
    res = _DriveResult(status=TrajectoryStatus.COMPLETED_TSPAN, t=t, state=s, dt=dt)
    if record:
        res.times.append(0.0)
        res.states.append(s)

    def nearest(state: tuple) -> tuple[int, float]:
        best_i, best_d = 0, math.inf
        for i, tgt in enumerate(targets):
            d = _dist(state, tgt)
            if d < best_d:
                best_i, best_d = i, d
        return best_i, best_d

    dwell_target: int | None = None
    dwell = 0

    def check_state(state: tuple) -> TrajectoryStatus | None:
        nonlocal dwell_target, dwell
        if not _finite(state) or _norm(state) > settings.blowup_norm:
            return TrajectoryStatus.DIVERGED
        if targets is not None:
            idx, d = nearest(state)
            if d <= capture_radius:
                if dwell_target == idx:
                    dwell += 1
                else:
                    dwell_target, dwell = idx, 1
            else:
                dwell_target, dwell = None, 0
            if dwell >= dwell_checks:
                res.captured = idx
                return TrajectoryStatus.CAPTURED_EQUILIBRIUM
        return None

    early = check_state(s)
    if early is not None:
        res.status = early
        res.state = s
        if targets is not None:
            res.final_distance = nearest(s)[1]
        return res

    k1 = f(s) if not fixed else None
    attempts = 0
    while t < t_end:
        remaining = t_end - t
        dt_eff = min(dt, remaining)
        if (
            not fixed
            and targets is not None
            and dwell >= 1
            and dwell < dwell_checks
        ):
            # leave room for the remaining dwell confirmations
            dt_eff = min(dt_eff, remaining / (dwell_checks - dwell))
        if t + dt_eff == t:
            res.status = TrajectoryStatus.STEP_LIMIT
            break
        attempts += 1
        if attempts > settings.max_steps:
            res.status = TrajectoryStatus.STEP_LIMIT
            break

        if fixed:
            s_new = _rk4_step(f, s, dt_eff)
            accept = True
        else:
            s_new, k7, err = _dp54_step(f, s, k1, dt_eff)
            tol = settings.rel_tol * _norm(s) + settings.abs_tol
            accept = err <= tol
            if err == 0.0:
                factor = _GROW_LIMIT
            else:
                factor = min(
                    _GROW_LIMIT,
                    max(_SHRINK_LIMIT, _SAFETY * (tol / err) ** _ORDER_EXPONENT),
                )
            dt = dt_eff * factor

        if not accept:
            continue

        t = t_end if dt_eff == remaining else t + dt_eff
        s = s_new
        if not fixed:
            k1 = k7
        res.accepted += 1
        if record:
            res.times.append(t)
            res.states.append(s)
        stop = check_state(s)
        if stop is not None:
            res.status = stop
            break

    res.t = t
    res.state = s
    res.dt = dt
    if targets is not None:
        res.final_distance = nearest(s)[1]
    return res


def integrate(
    p: SystemParams, u0: State | tuple, settings: IntegratorSettings | None = None
) -> Trajectory:
    """Integrate from u0 over [0, t_max]; record every accepted step."""
    if settings is None:
        settings = IntegratorSettings()
    res = _drive(_bound_rhs(p), tuple(u0), settings, settings.t_max)
    return Trajectory(
        times=tuple(res.times),
        states=tuple(State(*s) for s in res.states),
        status=res.status,
    )


def integrate_to_equilibrium(
    p: SystemParams,
    u0: State | tuple,
    eqs: EquilibriumSet,
    capture_radius: float = 1e-6,
    settings: IntegratorSettings | None = None,
    include_origin: bool = True,
) -> ConvergenceOutcome:
    """Integrate until one of the equilibria in ``eqs`` captures the orbit.

    Capture means ten consecutive accepted states (the initial state
    counts) within ``capture_radius`` of the same equilibrium.  Runs that
    reach t_max, diverge, or hit the step limit return terminal=None
    with the corresponding trajectory status.  ``include_origin=False``
    restricts the candidate set to the symmetric pair; callers seeded
    inside the origin ball need this, or the dwell counter fills while the
    orbit is still escaping.
    """
    if settings is None:
        settings = IntegratorSettings()
    candidates: list[Equilibrium] = [eqs.origin] if include_origin else []
    if eqs.pair is not None:
        candidates.extend(eqs.pair)
    targets = [tuple(e.location) for e in candidates] or None
    res = _drive(
        _bound_rhs(p),
        tuple(u0),
        settings,
        settings.t_max,
        targets=targets,
        capture_radius=capture_radius,
    )
    trajectory = Trajectory(
        times=tuple(res.times),
        states=tuple(State(*s) for s in res.states),
        status=res.status,
    )
    terminal = candidates[res.captured] if res.captured is not None else None
    return ConvergenceOutcome(
        terminal=terminal, final_distance=res.final_distance, trajectory=trajectory
    )
