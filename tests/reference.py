"""Reference integrators the generated stepping loop is held to, bit for bit.

The generic RK4 and Dormand-Prince 5(4) steps work over any right-hand side
``f``, with the tableau spelled out as named constants, and ``drive`` is a
frozen copy of the stepping loop from when it wrote its stop policy twice
(once for the initial state, once after each accepted step) through
``nearest`` and ``captured`` closures, called a step function per trial
step and ``norm`` per accepted state.  ``kernels`` gives ``drive`` the
generic steps of a field the package writes as source text.

``lle`` is a frozen copy of the exponent from when it drove each window
through its own call of the stepping loop, here ``drive``.

``sweep_csv`` is a frozen copy of the sweep CSV renderer from when it
wrote every cell of every row on its own, each float with its own ``repr``.
``evaluate_cell`` and ``run_tasks`` are frozen copies of the sweep's cell
evaluation from when it picked each cell's six floats through a template
and ran the spec's tasks in a loop, before the row was generated per task
tuple.

``hopf_rho`` and ``hopf_offset`` are E+-'s Hopf locus, solved by hand from
the Routh-Hurwitz condition of their characteristic cubic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

from lorenzlab import (
    DivergedTrajectoryError,
    IntegratorMode,
    IntegratorSettings,
    LLEEstimate,
    SystemParams,
    TrajectoryStatus,
    largest_lyapunov_exponent,
)
from lorenzlab.chaos import _VARIATIONAL_SOURCE, _lle_windows, _regime
from lorenzlab.equilibria import _equilibrium_parts, _origin_class, _origin_dims
from lorenzlab.integrator import (
    _DWELL_CHECKS,
    _GROW_LIMIT,
    _ORDER_EXPONENT,
    _SAFETY,
    _SHRINK_LIMIT,
    _capture_reach,
    _dist,
)
from lorenzlab.lyapunov import _certificate_columns
from lorenzlab.model import _FIELD_SOURCE, PARAM_NAMES

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
_B1, _B3, _B4, _B5, _B6 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


def _left_sum(values):
    # sum() before Python 3.12: plain left-to-right addition (from 3.12 it
    # is compensated, which the loop deliberately does not follow)
    total = 0.0
    for v in values:
        total = total + v
    return total


def lorenz_rhs(p):
    a, b, cm, n1, pp = p.a, p.b, p.c + p.M, p.N - 1.0, 1.0 - p.P

    def rhs(s):
        x, y, z = s
        return (a * (y - x), cm * x + n1 * y - pp * (x * z), -b * z + x * y)

    return rhs


def variational_rhs(p):
    a, b, cm, n1, pp = p.a, p.b, p.c + p.M, p.N - 1.0, 1.0 - p.P

    def rhs(s):
        x, y, z, dx, dy, dz = s
        return (
            a * (y - x),
            cm * x + n1 * y - pp * (x * z),
            -b * z + x * y,
            a * (dy - dx),
            (cm - pp * z) * dx + n1 * dy - pp * x * dz,
            y * dx + x * dy - b * dz,
        )

    return rhs


def _tangent_source(k):
    """The variational tangent rows of _VARIATIONAL_SOURCE for tangent k."""
    rows = []
    for name, expr in _VARIATIONAL_SOURCE[3:]:
        for c in ("dx", "dy", "dz"):
            expr = expr.replace("{%s}" % c, "{%s%d}" % (c, k))
        rows.append((f"{name}{k}", expr))
    return tuple(rows)


# A test-only 12-D field: the base and three tangents, for the spectrum sum
# and for the loop's parity at a dimension no caller in the package uses
SPECTRUM_SOURCE = (
    *_VARIATIONAL_SOURCE[:3], *_tangent_source(1), *_tangent_source(2),
    *_tangent_source(3),
)


def spectrum_rhs(p):
    f = variational_rhs(p)

    def rhs(s):
        base = s[:3]
        return (
            *f((*base, *s[3:6])),
            *f((*base, *s[6:9]))[3:],
            *f((*base, *s[9:12]))[3:],
        )

    return rhs


# the generic right-hand side of each field the package and the tests
# write as source
RHS = {
    _FIELD_SOURCE: lorenz_rhs,
    _VARIATIONAL_SOURCE: variational_rhs,
    SPECTRUM_SOURCE: spectrum_rhs,
}


def rk4_step(f, s, dt):
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


def dp54_step(f, s, k1, dt):
    """(proposal, k7, err); ``** 2`` raises OverflowError where a finite
    square overflows."""
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
        _left_sum(
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


def norm(s):
    return math.sqrt(_left_sum(v * v for v in s))


class Kernels(NamedTuple):
    """The steps ``drive`` calls: ``rhs(s)``, ``rk4(s, dt)`` -> state,
    ``dp54(s, k1, dt)`` -> (proposal, k7, err) and ``norm(s)``."""

    rhs: Callable[[tuple], tuple]
    dp54: Callable[[tuple, tuple, float], tuple[tuple, tuple, float]]
    rk4: Callable[[tuple, float], tuple] | None
    norm: Callable[[tuple], float]


def kernels(field_source, p) -> Kernels:
    """The generic steps of a field the package writes as source text."""
    f = RHS[field_source](p)
    return Kernels(
        rhs=f,
        dp54=lambda s, k1, dt: dp54_step(f, s, k1, dt),
        rk4=lambda s, dt: rk4_step(f, s, dt),
        norm=norm,
    )


@dataclass
class RefDriveResult:
    status: TrajectoryStatus
    t: float
    state: tuple
    dt: float
    times: list[float] = field(default_factory=list)
    states: list[tuple] = field(default_factory=list)
    captured: int | None = None
    final_distance: float = math.inf
    accepted: int = 0
    attempts: int = 0


def drive(
    kernels: Kernels,
    u0: tuple,
    settings: IntegratorSettings,
    t_end: float,
    targets: Sequence[tuple] | None = None,
    capture_radius: float = 0.0,
    record: bool = True,
    dt_start: float | None = None,
    attempts: int = 0,
) -> RefDriveResult:
    """The stepping loop before its stop policy was written once.

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
    dp54, rk4, norm = kernels.dp54, kernels.rk4, kernels.norm
    rel_tol, abs_tol = settings.rel_tol, settings.abs_tol
    blowup_norm, max_steps = settings.blowup_norm, settings.max_steps
    dt = settings.dt_init if dt_start is None else dt_start
    t = 0.0
    s = u0
    res = RefDriveResult(status=TrajectoryStatus.COMPLETED_TSPAN, t=t, state=s, dt=dt)
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
    reach = _capture_reach(capture_radius)

    def captured(state: tuple) -> bool:
        nonlocal dwell_target, dwell
        x, y, z = state[:3]  # the base orbit of a field with tangents
        for tx, ty, tz in targets:
            if abs(x - tx) <= reach and abs(y - ty) <= reach and abs(z - tz) <= reach:
                break
        else:  # outside the capture ball of every target
            dwell_target, dwell = None, 0
            return False
        idx, d = nearest(state)
        if d <= capture_radius:
            if dwell_target == idx:
                dwell += 1
            else:
                dwell_target, dwell = idx, 1
        else:
            dwell_target, dwell = None, 0
        if dwell >= _DWELL_CHECKS:
            res.captured = idx
            return True
        return False

    # a NaN or infinite component makes the norm NaN or infinite, and
    # blowup_norm is finite, so this one comparison also catches those
    nrm = norm(s)
    if not nrm <= blowup_norm:
        res.status = TrajectoryStatus.DIVERGED
    elif targets is not None and captured(s):
        res.status = TrajectoryStatus.CAPTURED_EQUILIBRIUM
    if res.status is not TrajectoryStatus.COMPLETED_TSPAN:
        if targets is not None:
            res.final_distance = nearest(s)[1]
        res.attempts = attempts
        return res

    k1 = None if fixed else kernels.rhs(s)
    while t < t_end:
        remaining = t_end - t
        dt_eff = min(dt, remaining)
        if not fixed and targets is not None and 1 <= dwell < _DWELL_CHECKS:
            # leave room for the remaining dwell confirmations
            dt_eff = min(dt_eff, remaining / (_DWELL_CHECKS - dwell))
        if t + dt_eff == t:
            res.status = TrajectoryStatus.STEP_LIMIT
            break
        attempts += 1
        if attempts > max_steps:
            res.status = TrajectoryStatus.STEP_LIMIT
            break

        if fixed:
            s = rk4(s, dt_eff)
        else:
            try:
                s_new, k7, err = dp54(s, k1, dt_eff)
            except OverflowError:
                # the error norm squares a finite component beyond the
                # float range: the orbit has left every scale the
                # tolerance can judge
                res.status = TrajectoryStatus.DIVERGED
                break
            # nrm is the norm of the current state s
            tol = rel_tol * nrm + abs_tol
            if err == 0.0:
                factor = _GROW_LIMIT
            else:
                factor = min(
                    _GROW_LIMIT,
                    max(_SHRINK_LIMIT, _SAFETY * (tol / err) ** _ORDER_EXPONENT),
                )
            dt = dt_eff * factor
            if not err <= tol:
                continue
            s, k1 = s_new, k7

        t = t_end if dt_eff == remaining else t + dt_eff
        nrm = norm(s)
        res.accepted += 1
        if record:
            res.times.append(t)
            res.states.append(s)
        if not nrm <= blowup_norm:
            res.status = TrajectoryStatus.DIVERGED
            break
        if targets is not None and captured(s):
            res.status = TrajectoryStatus.CAPTURED_EQUILIBRIUM
            break

    res.t = t
    res.state = s
    res.dt = dt
    res.attempts = attempts
    if targets is not None:
        res.final_distance = nearest(s)[1]
    return res


def lle(p, u0=(1.0, 1.0, 1.0), settings=None, renorm_interval=1.0, horizon=500.0,
        transient=50.0):
    """A frozen copy of the exponent from when it ran each window through
    its own call of the stepping loop, here the frozen loop over the
    generic steps: the same LLEEstimate, or the same DivergedTrajectoryError
    with the same message."""
    if settings is None:
        settings = IntegratorSettings()
    n_total, n_trans = _lle_windows(renorm_interval, horizon, transient)
    variational, base = kernels(_VARIATIONAL_SOURCE, p), kernels(_FIELD_SOURCE, p)
    s = (float(u0[0]), float(u0[1]), float(u0[2]), 1.0, 0.0, 0.0)
    dt = settings.dt_init
    attempts = 0
    log_sum = 0.0
    history = []
    for w in range(n_total):
        res = drive(variational, s, settings, renorm_interval, record=False,
                    dt_start=dt, attempts=attempts)
        if res.status is not TrajectoryStatus.COMPLETED_TSPAN:
            if res.status is TrajectoryStatus.DIVERGED:
                alone = drive(base, s[:3], settings, renorm_interval, record=False,
                              dt_start=dt, attempts=attempts)
                if alone.status is TrajectoryStatus.COMPLETED_TSPAN:
                    raise DivergedTrajectoryError(
                        f"the tangent vector diverged during window {w} while the "
                        "base orbit alone did not; use a shorter renorm_interval "
                        f"than {renorm_interval!r}"
                    )
            raise DivergedTrajectoryError(
                f"base orbit failed during window {w}: {res.status.value}"
            )
        dt, attempts = res.dt, res.attempts
        x, y, z, dx, dy, dz = res.state
        nrm = math.sqrt(dx * dx + dy * dy + dz * dz)
        if nrm == 0.0 or not math.isfinite(nrm):
            raise DivergedTrajectoryError("tangent vector degenerated")
        if w >= n_trans:
            log_sum += math.log(nrm)
            history.append(log_sum / ((w + 1 - n_trans) * renorm_interval))
        s = (x, y, z, dx / nrm, dy / nrm, dz / nrm)
    return LLEEstimate(
        lambda1=history[-1],
        history=tuple(history),
        transient_discarded=n_trans * renorm_interval,
        horizon=n_total * renorm_interval,
    )


def recorded_columns(res) -> list[list[float]]:
    """The recorded points of a drive result as one list per component.

    The generated loop records them so (``columns``); the frozen loop
    records one tuple per point, turned here into the columns of its
    state's dimension, so a run that records nothing still has them."""
    if isinstance(res, RefDriveResult):
        return [[s[i] for s in res.states] for i in range(len(res.state))]
    return [list(c) for c in res.columns]


def read_fields(res):
    """repr of every field of a drive result that a caller reads, with the
    recorded points as one list per component.  The frozen loop counts one
    trial step past the budget at STEP_LIMIT; no caller reads the count of
    such a run, so it is left out there."""
    attempts = None if res.status is TrajectoryStatus.STEP_LIMIT else res.attempts
    return (
        res.status,
        repr(res.state),
        repr(res.dt),
        repr(res.times),
        repr(recorded_columns(res)),
        res.captured,
        repr(res.final_distance),
        attempts,
    )


# _csv_cell's text for the three constants of a sweep row
_CSV_WORDS = {None: "", True: "true", False: "false"}


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    text = str(value)
    # the dialect has no quoting; keep cells delimiter- and newline-free
    return text.replace(",", ";").replace("\n", " ")


def sweep_csv(result) -> str:
    # _csv_cell inlined for the types a sweep row holds (an int equal to
    # True or False is not one of the constants, so those are told by identity)
    words = _CSV_WORDS
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join([
            repr(v) if type(v) is float
            else words[v] if v is None or v is True or v is False
            else v.replace(",", ";").replace("\n", " ") if type(v) is str
            else _csv_cell(v)
            for v in row
        ]))
    return "\n".join(lines) + "\n"


def run_tasks(spec, fields: tuple[float, ...]) -> tuple:
    """A frozen copy of the sweep's per-cell task loop from before the row
    was generated per task tuple: the task columns of one cell, in column
    order, from its six finite parameter floats.  One pass runs the tasks
    in the spec's order; the certificate is computed first when a task
    reads it, the equilibria at most once."""
    a, b, c, M, N, P = fields
    columns = None
    if "certificate" in spec.tasks or "regime" in spec.tasks:
        columns = _certificate_columns(a, b, c, M, N, P)
    parts = None
    out: list = []
    for task in spec.tasks:
        if task == "equilibria":
            if parts is None:
                parts = _equilibrium_parts(a, b, c, M, N, P)
            kind, pair = parts
            if pair is not None:
                s, z = pair[0], pair[1]
                out += (kind._value_, s, s, z)
            else:
                out += (kind._value_, None, None, None)
        elif task == "origin_class":
            out.append(_origin_class(b, _origin_dims(a, b, c, M, N, P))._value_)
        elif task == "certificate":
            out += columns
        elif task == "regime":
            label, parts = _regime(columns[5], columns[7], parts, None, fields)
            out.append(label._value_)
        elif task == "lle":
            est = largest_lyapunov_exponent(
                SystemParams(a, b, c, M, N, P),
                settings=spec.settings,
                renorm_interval=spec.lle_renorm_interval,
                horizon=spec.lle_horizon,
                transient=spec.lle_transient,
            )
            out.append(est.lambda1)
    return tuple(out)


def evaluate_cell(args) -> tuple:
    """A frozen copy of the sweep's per-cell evaluation from the same time:
    the row of the cell at ``values`` (its axis values, in axis order),
    its six fields picked from the base's with the axis values written in;
    a non-finite sum sends them through SystemParams, and an exception
    becomes the row's error column."""
    spec, values = args
    slots = list(range(len(PARAM_NAMES)))
    for k, ax in enumerate(spec.axes):
        slots[PARAM_NAMES.index(ax.name)] = len(PARAM_NAMES) + k
    base = tuple(getattr(spec.base, name) for name in PARAM_NAMES)
    a, b, c, M, N, P = fields = operator.itemgetter(*slots)(base + values)
    try:
        if not math.isfinite(a + b + c + M + N + P):
            SystemParams(*fields)
        return values + run_tasks(spec, fields) + (None,)
    except Exception as exc:  # noqa: BLE001 - error rows must not kill the sweep
        message = f"{type(exc).__name__}: {exc}"
        return values + (None,) * (len(spec.columns()) - len(spec.axes) - 1) + (message,)


def hopf_rho(a, b):
    """rho = c + M above which E+- are unstable, for N = P = 0 and a > b + 1.

    With N = P = 0 the system is classic Lorenz (sigma, r, beta) = (a, rho,
    b).  At E+- the characteristic cubic is
    lambda^3 + (a + b + 1) lambda^2 + b (a + rho) lambda + 2 a b (rho - 1).
    For rho > 1 every coefficient is positive, so by Routh-Hurwitz all roots
    lie in the left half-plane iff (a + b + 1) b (a + rho) > 2 a b (rho - 1),
    i.e. rho (a - b - 1) < a (a + b + 3).
    """
    return a * (a + b + 3.0) / (a - b - 1.0)


def hopf_offset(a, b, N):
    """d = M + N + c - 1 above which E+- are unstable, for P < 1 and
    a - b - 1 + N > 0.

    With k = a + 1 - N, E+-'s characteristic cubic is lambda^3 + (k + b)
    lambda^2 + b (d + k) lambda + 2 a b d, whatever P.  For d > 0 and k > 0
    every coefficient is positive, so by Routh-Hurwitz all roots lie in
    the left half-plane iff (k + b) b (d + k) > 2 a b d, i.e. d (a - b - 1
    + N) < k (k + b).  N = P = 0 gives hopf_rho - 1.
    """
    k = a + 1.0 - N
    return k * (k + b) / (a - b - 1.0 + N)
