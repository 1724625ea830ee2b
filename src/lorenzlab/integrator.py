"""Deterministic explicit integrators for the controlled system.

Two modes: classical fixed-step RK4, and an adaptive Dormand-Prince 5(4)
pair with the first-same-as-last optimization, propagating the 5th-order
solution.  Everything is plain-float and sequential, so repeated runs with
identical inputs produce bit-identical trajectories, and the mirrored
initial condition S(u0) = (-x0, -y0, z0) produces the exactly mirrored
trajectory (every floating-point operation involved is sign-symmetric;
norms, error estimates and step-size decisions are invariant under S).

The steps run as kernels fused per field: each field (the 3-D model field
and the 6-D variational field of the exponent) is given as source text,
and ``_kernel_source`` unrolls every RK4 and DP54 stage over its
components with the field inlined, once per process; ``_kernels`` binds
one parameter set.  A step then costs no per-stage calls or tuples, and
it returns the new state's norm with the state, so the loop needs no
separate norm call per accepted state.  The kernels' operation order is
frozen, because every output bit depends on it: each stage is
s[i] + dt * (a1 * k1[i] + a2 * k2[i] + ...) summed left to right, the
error norm squares with ``** 2``, and norms add their squares with an
explicit ``+`` chain.  ``sum()`` would not do: from
Python 3.12 it is compensated, so its last bit depends on the interpreter
version, while the chain gives the same bits everywhere.  Reordering any
of this changes trajectories, exponents and golden outputs; the parity
tests hold the kernels to a generic reference step bit for bit.

``_drive`` is the one stepping loop for every caller.  The initial state
and each accepted state pass one stop policy, in order: divergence, dwell
capture at an equilibrium, end of the time span, step limit.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .equilibria import Equilibrium, EquilibriumSet
from .errors import LorenzLabError
from .model import _FIELD_SOURCE, State, SystemParams

# Dormand-Prince 5(4) tableau: the rows of A for stages 2-6, the 5th-order
# weights B and the error weights E (5th minus embedded 4th order).  Zero
# entries are left out of the generated sums; b2 = e2 = 0, so k2 drops out
# of the update and the error estimate.
_A = (
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (
        9017.0 / 3168.0,
        -355.0 / 33.0,
        46732.0 / 5247.0,
        49.0 / 176.0,
        -5103.0 / 18656.0,
    ),
)
_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
_E = (
    71.0 / 57600.0,
    0.0,
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
    max_steps bounds the trial steps, accepted and rejected, of one whole
    run: an integration, or a whole exponent estimate with its transient
    and every renormalization window; a run that needs more ends with
    STEP_LIMIT.
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
        if not all(0.0 < tol < math.inf for tol in (self.rel_tol, self.abs_tol)):
            raise ValueError("tolerances must be positive and finite")
        if not (self.t_max > 0.0 and math.isfinite(self.t_max)):
            raise ValueError("t_max must be positive and finite")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if not (self.blowup_norm > 0.0 and math.isfinite(self.blowup_norm)):
            raise ValueError("blowup_norm must be positive and finite")


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


class _Kernels(NamedTuple):
    """Step kernels of one field with its parameters bound.

    ``rhs(s)`` is the field; ``rk4(s, dt)`` returns the RK4 step and its
    norm; ``dp54(s, k1, dt)`` takes k1 = rhs(s) and returns (proposal, k7,
    err, norm) with k7 = rhs(proposal), so an accepted step hands its last
    stage on as the next step's first; ``norm(s)`` is the Euclidean norm.
    Each returned norm is ``norm`` of the returned state, bit for bit.
    """

    rhs: Callable[[tuple], tuple]
    dp54: Callable[[tuple, tuple, float], tuple[tuple, tuple, float, float]]
    rk4: Callable[[tuple, float], tuple[tuple, float]]
    norm: Callable[[tuple], float]


# A field as source text: one (component, expression) pair per coordinate.
# Expressions name the components as {x}-style format fields and may use
# the parameters a, b, cm = c + M, n1 = N - 1 and pp = 1 - P.
_FieldSource = tuple[tuple[str, str], ...]


def _kernel_source(field_source: _FieldSource) -> str:
    """Source of ``bind(a, b, cm, n1, pp)``, returning (rhs, dp54, rk4, norm).

    Every stage is unrolled over the components with the field inlined and
    the tableau written as float literals (``repr`` round-trips, so the
    values are exact).  ``rk4`` and ``dp54`` end by returning the new
    state's norm, formed from its components by the same chain as ``norm``.
    """
    idx = range(len(field_source))

    def each(template: str) -> list[str]:
        return [template.format(i=i) for i in idx]

    def field_at(prefix: str) -> list[str]:
        env = {name: f"{prefix}{i}" for i, (name, _) in zip(idx, field_source)}
        return [expr.format_map(env) for _, expr in field_source]

    def stage(k: int, prefix: str) -> list[str]:
        return [f"k{k}_{i} = {expr}" for i, expr in zip(idx, field_at(prefix))]

    def weighted(coeffs: tuple[float, ...], i: int) -> str:
        return " + ".join(f"{c!r} * k{j}_{i}" for j, c in enumerate(coeffs, 1) if c)

    def pack(items: list[str]) -> str:
        return "(" + ", ".join(items) + ")"

    def norm_of(prefix: str) -> str:
        return f"sqrt({' + '.join(f'{prefix}{i} * {prefix}{i}' for i in idx)})"

    unpack_s = ", ".join(each("s{i}")) + " = s"
    rhs = [unpack_s, f"return {pack(field_at('s'))}"]
    norm = [unpack_s, f"return {norm_of('s')}"]
    rk4 = [
        unpack_s,
        *stage(1, "s"),
        "half = 0.5 * dt",
        *each("t{i} = s{i} + half * k1_{i}"),
        *stage(2, "t"),
        *each("t{i} = s{i} + half * k2_{i}"),
        *stage(3, "t"),
        *each("t{i} = s{i} + dt * k3_{i}"),
        *stage(4, "t"),
        "sixth = dt / 6.0",
        *each("t{i} = s{i} + sixth * (k1_{i} + 2.0 * (k2_{i} + k3_{i}) + k4_{i})"),
        f"return {pack(each('t{i}'))}, {norm_of('t')}",
    ]
    dp54 = [unpack_s, ", ".join(each("k1_{i}")) + " = k1"]
    # stages 2-6 from the rows of A; the B row gives the proposal, at which
    # k7 is evaluated
    for k, coeffs in enumerate((*_A, _B), 2):
        dp54 += [f"t{i} = s{i} + dt * ({weighted(coeffs, i)})" for i in idx]
        dp54 += stage(k, "t")
    err = " + ".join(f"(dt * ({weighted(_E, i)})) ** 2" for i in idx)
    dp54.append(
        f"return {pack(each('t{i}'))}, {pack(each('k7_{i}'))}, sqrt({err}), "
        f"{norm_of('t')}"
    )

    lines = ["def bind(a, b, cm, n1, pp):"]
    for head, body in (
        ("rhs(s)", rhs),
        ("dp54(s, k1, dt)", dp54),
        ("rk4(s, dt)", rk4),
        ("norm(s)", norm),
    ):
        lines.append(f"    def {head}:")
        lines.extend(f"        {line}" for line in body)
    lines.append("    return rhs, dp54, rk4, norm")
    return "\n".join(lines) + "\n"


@functools.cache
def _binder(field_source: _FieldSource) -> Callable[..., tuple]:
    """Compile a field's kernels once per process; returns ``bind``."""
    namespace = {"sqrt": math.sqrt}
    exec(compile(_kernel_source(field_source), "<step kernels>", "exec"), namespace)
    return namespace["bind"]


def _kernels(field_source: _FieldSource, p: SystemParams) -> _Kernels:
    """Step kernels of ``field_source`` with the parameters of ``p`` bound.

    The grouped constants match the per-call expressions of
    :func:`lorenzlab.model.vector_field`.
    """
    bind = _binder(field_source)
    return _Kernels(*bind(p.a, p.b, p.c + p.M, p.N - 1.0, 1.0 - p.P))


def _dist(s: tuple, t: tuple) -> float:
    try:
        return math.sqrt((s[0] - t[0]) ** 2 + (s[1] - t[1]) ** 2 + (s[2] - t[2]) ** 2)
    except OverflowError:  # a square beyond the float range; x * x gives inf
        return math.inf


def _capture_reach(capture_radius: float) -> float:
    """A bound r such that |s[i] - t[i]| > r for some i implies _dist(s, t)
    > capture_radius, so the dwell check can skip a far target exactly.

    Once |dx| >= 2**-500 its square is a normal float, libm's pow misses
    the correctly rounded square by less than one ulp, and the sum and the
    root are monotone, so _dist >= |dx| * (1 - 2**-51); the margin of
    2**-50 covers that.  Below 2**-500 the square may underflow to zero.
    """
    return max(capture_radius * (1.0 + 2.0**-50), 2.0**-500)


class _DriveResult(NamedTuple):
    """How a run of ``_drive`` ended: the last accepted state, the next
    proposed step, the trial steps spent, the recorded points, the index of
    the capturing target and the distance to the nearest target."""

    status: TrajectoryStatus
    state: tuple
    dt: float
    attempts: int
    times: list[float]
    states: list[tuple]
    captured: int | None
    final_distance: float


def _drive(
    kernels: _Kernels,
    u0: tuple,
    settings: IntegratorSettings,
    t_end: float,
    targets: Sequence[tuple] | None = None,
    capture_radius: float = 0.0,
    record: bool = True,
    dt_start: float | None = None,
    attempts: int = 0,
) -> _DriveResult:
    """Shared stepping loop for both modes.

    The initial state and every accepted state go through one stop policy,
    in order: record it; DIVERGED if its norm exceeds ``blowup_norm`` or is
    not finite; CAPTURED_EQUILIBRIUM if it completes a dwell;
    COMPLETED_TSPAN at ``t_end``; STEP_LIMIT if the next trial step would
    not advance t or the ``max_steps`` budget is spent.  Trial steps repeat
    until one is accepted; a DP54 error estimate that overflows ends the
    run as DIVERGED at the last accepted state.  ``kernels.norm`` runs once,
    on ``u0``; every later norm comes back from the step kernel.

    ``attempts`` counts the trial steps the run has already spent, so a run
    made of several calls (the LLE's windows) shares one ``max_steps``
    budget; the result carries the updated count.

    When ``targets`` is given, each accepted state updates a dwell counter:
    a run of ``_DWELL_CHECKS`` consecutive states inside ``capture_radius``
    of one fixed target ends the run as CAPTURED_EQUILIBRIUM.  The counter
    guards against transient passes near a saddle.  While dwelling in
    adaptive mode the step is clamped so the remaining time still allows
    the required number of checks.
    """
    fixed = settings.mode is IntegratorMode.FIXED_RK4
    dwell_clamp = not fixed and targets is not None
    dp54, rk4 = kernels.dp54, kernels.rk4
    rel_tol, abs_tol = settings.rel_tol, settings.abs_tol
    blowup_norm, max_steps = settings.blowup_norm, settings.max_steps
    dt = settings.dt_init if dt_start is None else dt_start
    t, s = 0.0, u0
    # the norm of the current state; the kernels return it with each step
    nrm = kernels.norm(s)
    k1 = None if fixed else kernels.rhs(s)
    times: list[float] = []
    states: list[tuple] = []
    record_time, record_state = times.append, states.append
    captured = dwell_target = None
    dwell = 0
    box = _capture_reach(capture_radius)
    indexed = tuple(enumerate(targets or ()))
    accepted = True  # the initial state counts as accepted

    while True:
        if accepted:
            if record:
                record_time(t)
                record_state(s)
            # a NaN or infinite component makes the norm NaN or infinite, and
            # blowup_norm is finite, so this one comparison also catches those
            if not nrm <= blowup_norm:
                status = TrajectoryStatus.DIVERGED
                break
            if targets is not None:
                # the nearest target, the earlier one on a tie; one outside
                # the reach box is farther than capture_radius
                x, y, z = s
                near = None
                for i, (tx, ty, tz) in indexed:
                    if abs(x - tx) <= box and abs(y - ty) <= box and abs(z - tz) <= box:
                        d = _dist(s, targets[i])
                        if near is None or d < near_d:
                            near, near_d = i, d
                if near is None or not near_d <= capture_radius:
                    dwell_target, dwell = None, 0
                else:
                    dwell = dwell + 1 if near == dwell_target else 1
                    dwell_target = near
                    if dwell >= _DWELL_CHECKS:
                        status = TrajectoryStatus.CAPTURED_EQUILIBRIUM
                        captured = near
                        break
            if not t < t_end:
                status = TrajectoryStatus.COMPLETED_TSPAN
                break

        # the clamps below are min(dt, remaining) and min(dt_eff, room)
        # written out: the first argument wins unless the second is smaller
        remaining = t_end - t
        dt_eff = remaining if remaining < dt else dt
        if dwell_clamp and 1 <= dwell < _DWELL_CHECKS:
            # leave room for the remaining dwell confirmations
            room = remaining / (_DWELL_CHECKS - dwell)
            if room < dt_eff:
                dt_eff = room
        if t + dt_eff == t or attempts >= max_steps:
            status = TrajectoryStatus.STEP_LIMIT
            break
        attempts += 1

        if fixed:
            s, nrm = rk4(s, dt_eff)
        else:
            try:
                s_new, k7, err, nrm_new = dp54(s, k1, dt_eff)
            except OverflowError:
                # the error norm squared a component beyond the float range:
                # the orbit has left every scale the tolerance can judge
                status = TrajectoryStatus.DIVERGED
                break
            tol = rel_tol * nrm + abs_tol
            if err == 0.0:
                factor = _GROW_LIMIT
            else:
                # min(_GROW_LIMIT, max(_SHRINK_LIMIT, r)) written out: r
                # must exceed the shrink limit to count, so a NaN r (a NaN
                # err, or an infinite err over an infinite tol) shrinks
                r = _SAFETY * (tol / err) ** _ORDER_EXPONENT
                if r > _SHRINK_LIMIT:
                    factor = r if r < _GROW_LIMIT else _GROW_LIMIT
                else:
                    factor = _SHRINK_LIMIT
            dt = dt_eff * factor
            accepted = err <= tol
            if not accepted:
                continue
            s, k1, nrm = s_new, k7, nrm_new
        t = t_end if dt_eff == remaining else t + dt_eff

    nearest = min([math.inf, *(_dist(s, tgt) for tgt in targets or ())])
    return _DriveResult(status, s, dt, attempts, times, states, captured, nearest)


# State(*s) without the Python-level __new__: each recorded s is a 3-tuple
_as_state = functools.partial(tuple.__new__, State)


def _run(
    p: SystemParams,
    u0: State | tuple,
    settings: IntegratorSettings | None,
    targets: list[tuple] | None = None,
    capture_radius: float = 0.0,
) -> tuple[_DriveResult, Trajectory]:
    """Drive the model field from u0 over [0, t_max], recording every step."""
    if settings is None:
        settings = IntegratorSettings()
    kernels = _kernels(_FIELD_SOURCE, p)
    res = _drive(kernels, tuple(u0), settings, settings.t_max, targets, capture_radius)
    states = tuple(map(_as_state, res.states))
    return res, Trajectory(times=tuple(res.times), states=states, status=res.status)


def integrate(
    p: SystemParams, u0: State | tuple, settings: IntegratorSettings | None = None
) -> Trajectory:
    """Integrate from u0 over [0, t_max]; record every accepted step."""
    return _run(p, u0, settings)[1]


def integrate_to_equilibrium(
    p: SystemParams,
    u0: State | tuple,
    eqs: EquilibriumSet,
    capture_radius: float = 1e-6,
    settings: IntegratorSettings | None = None,
    include_origin: bool = True,
) -> ConvergenceOutcome:
    """Integrate until one of the equilibria in ``eqs`` captures the orbit.

    Capture means ten consecutive accepted states (the initial state counts)
    within ``capture_radius`` of the same equilibrium; a negative or NaN
    radius is a ValueError.  Runs that reach t_max, diverge, or hit the step
    limit return terminal=None with the corresponding trajectory status.
    ``include_origin=False`` restricts the candidate set to the symmetric
    pair; callers seeded inside the origin ball need this, or the dwell
    counter fills while the orbit is still escaping.
    """
    if not capture_radius >= 0.0:
        raise ValueError(f"capture_radius must be non-negative, got {capture_radius!r}")
    candidates: list[Equilibrium] = [eqs.origin] if include_origin else []
    if eqs.pair is not None:
        candidates.extend(eqs.pair)
    targets = [tuple(e.location) for e in candidates] or None
    res, trajectory = _run(p, u0, settings, targets, capture_radius)
    terminal = None if res.captured is None else candidates[res.captured]
    return ConvergenceOutcome(
        terminal=terminal, final_distance=res.final_distance, trajectory=trajectory
    )
