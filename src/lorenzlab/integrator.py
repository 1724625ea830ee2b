"""Deterministic explicit integrators for the controlled system.

Two modes: classical fixed-step RK4, and an adaptive Dormand-Prince 5(4)
pair with the first-same-as-last optimization, propagating the 5th-order
solution.  Everything is plain IEEE double arithmetic, sequential, in one
written order, so repeated runs with identical inputs produce
bit-identical trajectories, on either of the loop's two builds below, and
the mirrored initial condition S(u0) = (-x0, -y0, z0) produces the
exactly mirrored trajectory (every floating-point operation involved is
sign-symmetric; norms, error estimates and step-size decisions are
invariant under S).

The stepping loop is generated per field, per mode, per number of capture
targets and per pair of unit-gain flags.  Each field (the 3-D model field
and the 6-D variational field of the exponent) is given as source text,
and ``_loop_source`` expands one loop template for it in fixed RK4 or in
DP54 mode, with every stage unrolled over the components and the field
inlined.  Where the run's n1 = N - 1 is -1.0 or its pp = 1 - P is 1.0, as
for every plant with N = 0 or P = 0, that constant is folded into the
field text first (``_fold_unit_gains``): ``+ n1 * X`` becomes ``- X`` and
``pp * X`` becomes ``X``, which round alike for every double.  The
state, the stages, DP54's carried first stage and the norm live in local
scalars, so a step makes no call and packs or unpacks no tuple.  The
dwell check is unrolled over the targets.  Each run bounds every target
coordinate once (``_reach_bounds``), so the check skips a far target by
comparing a component with two locals, with no subtraction; without
targets it is left out.  Each mode has one step block and one trial
guard: RK4 forms its step's dt_eff, 0.5 * dt_eff and dt_eff / 6.0 once per
run, and again from the span's remainder for a last step shorter than dt.
A recorded run appends t and each component to its own list of floats,
so a step allocates no GC-tracked object and never starts a collector
pass.  A loop is compiled on its first use, never at import, and cached
for the process.

Every run (orbits, traces, ``simulate`` and the exponent) steps instead
on the same loop written in C (``lorenzlab.native``) where a C compiler is
on PATH, and a whole exponent is one native call over all of its windows.
Its step is the same ``_stage`` / ``_rk4_block`` / ``_dp54_block`` text,
each assignment of which is also a C statement on doubles, compiled so
that C evaluates it as written; it squares through libm's ``pow`` as
CPython's ``** 2`` does, and records and dwells as the Python loop does,
so its outputs are the Python loop's bits.  It is used only after its
probe runs give the Python loop's results bit for bit.  With no
compiler, a failed build or load, or a probe that differs, the Python
loop runs, with the exponent's windows on it one call each
(``chaos._windows``): it is the fallback, and the text the C step is
written from.

What is frozen, because every output bit depends on it:

- the operation order: each stage is s[i] + dt * (a1 * k1[i] + a2 *
  k2[i] + ...) summed left to right, and the RK4 update is
  s[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]);
- the error norm squares with ``** 2``, which differs from ``x * x`` in
  the last bit on some doubles and raises OverflowError where a finite
  square overflows;
- norms add their squares with an explicit ``+`` chain.  ``sum()`` would
  not do: from Python 3.12 it is compensated, so its last bit depends on
  the interpreter version, while the chain gives the same bits
  everywhere;
- the stop order, below.

Reordering any of this changes trajectories, exponents and golden
outputs; the parity tests hold the loop to a generic reference step and a
frozen reference loop bit for bit, and its C build to both loops.

``_drive`` is the one entry point for every run but the exponent's
windows, which take the same loop from ``_loop_for`` and run it through
``chaos._windows`` or the native ``windows``.  The initial state and
each accepted state pass one stop policy, in order: record it,
divergence, dwell capture at an equilibrium, end of the time span, step
limit.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, NamedTuple, Sequence

from .model import _FIELD_SOURCE, State, SystemParams, _float_field, _integer

if TYPE_CHECKING:
    from .equilibria import Equilibrium, EquilibriumSet

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
# the capture ball's default radius, shared with the heteroclinic tracer
_CAPTURE_RADIUS = 1e-6


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

    Checked in one pass: mode, an IntegratorMode; the five float fields in
    declaration order, positive and finite (model._float_field); then
    max_steps, a positive integer (model._integer).
    """

    mode: IntegratorMode = IntegratorMode.ADAPTIVE
    dt_init: float = 1e-3
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    t_max: float = 200.0
    max_steps: int = 1_000_000
    blowup_norm: float = 1e6

    def __post_init__(self) -> None:
        if not isinstance(self.mode, IntegratorMode):
            raise TypeError(f"unknown integrator mode {self.mode!r}")
        for name in ("dt_init", "rel_tol", "abs_tol", "t_max", "blowup_norm"):
            if not 0.0 < _float_field(self, name, name) < math.inf:
                what = "tolerances" if name.endswith("_tol") else name
                raise ValueError(f"{what} must be positive and finite")
        object.__setattr__(self, "max_steps", _integer(self.max_steps, "max_steps"))
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Accepted step points of one run, including the initial state, as
    columns: the times and the x, y and z coordinates.

    ``states`` builds the points as a tuple of ``State`` on each read.  It
    is deliberately not cached, because a trajectory holding both layouts
    would keep every point twice; hot code reads ``xs``, ``ys`` and ``zs``.
    """

    times: tuple[float, ...]
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    zs: tuple[float, ...]
    status: TrajectoryStatus

    # the fields serialize.to_jsonable renders, in order
    _json_fields: ClassVar[tuple[str, ...]] = ("times", "states", "status")

    @property
    def states(self) -> tuple[State, ...]:
        return tuple(map(State, self.xs, self.ys, self.zs))


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


def _dist(s: tuple, t: tuple) -> float:
    try:
        return math.sqrt((s[0] - t[0]) ** 2 + (s[1] - t[1]) ** 2 + (s[2] - t[2]) ** 2)
    except OverflowError:  # a square beyond the float range; x * x gives inf
        return math.inf


def _capture_reach(capture_radius: float) -> float:
    """A bound r such that |s[i] - t[i]| > r for some i implies _dist(s, t)
    > capture_radius, so the dwell check can skip a far target exactly.
    ``_drive`` turns it into per-run bounds on each coordinate
    (``_reach_bounds``), so the loop compares without subtracting.

    Once |dx| >= 2**-500 its square is a normal float, libm's pow misses
    the correctly rounded square by less than one ulp, and the sum and the
    root are monotone, so _dist >= |dx| * (1 - 2**-51); the margin of
    2**-50 covers that.  Below 2**-500 the square may underflow to zero.
    """
    return max(capture_radius * (1.0 + 2.0**-50), 2.0**-500)


def _reach_bounds(t: float, reach: float) -> tuple[float, float]:
    """(lo, hi) such that every double v with abs(v - t) <= reach, as
    rounded, has lo <= v <= hi; (inf, -inf), which no v passes, when t is
    not finite.

    As rounded, abs(v - t) <= reach means v - t < 2 * reach exactly, and
    rounding is monotone, so t -+ 2 * reach bound v.  The box only decides
    whether a target's distance is computed, and ``near_d <=
    capture_radius`` decides the capture, so a wider box changes no output.
    """
    if not math.isfinite(t):
        return math.inf, -math.inf
    return t - 2.0 * reach, t + 2.0 * reach


# A field as source text: one (component, expression) pair per coordinate.
# Expressions name the components as {x}-style format fields and may use
# the parameters a, b, nb = -b, cm = c + M, n1 = N - 1 and pp = 1 - P.
_FieldSource = tuple[tuple[str, str], ...]

# The stepping loop of one field in one mode.  ``{advance}`` is the mode's
# part (below); ``{s}`` lists the state's components s0, s1, ..., ``{ss}``
# adds their squares left to right, ``{columns}`` makes one empty list per
# component, ``{appenders}`` binds their append methods to record_0,
# record_1, ... and ``{record}`` calls them on the state.  ``{targets}``
# unpacks the capture targets and their per-run bounds, and ``{dwell}`` is
# the dwell check over them (both empty without targets).  Every exit returns
# (status, state, dt, attempts, times, columns, captured).
_LOOP = """\
def loop(a, b, cm, n1, pp, nb, u0, t_end, dt, attempts, max_steps, rel_tol,
         abs_tol, blowup_norm, targets, capture_radius, bounds, record):
    {s}, = u0
    nrm = sqrt({ss})
    {init}
    {targets}
    t = 0.0
    times = []
    columns = {columns}
    record_time = times.append
    {appenders}
    while True:
        if record:
            record_time(t); {record}
        # a NaN or infinite component makes the norm NaN or infinite, and
        # blowup_norm is finite, so this one comparison also catches those
        if not nrm <= blowup_norm:
            return DIVERGED, ({s},), dt, attempts, times, columns, None
{dwell}\
        if not t < t_end:
            return COMPLETED_TSPAN, ({s},), dt, attempts, times, columns, None
        remaining = t_end - t
{advance}
        nrm = sqrt({ss})
        t = t_end if dt_eff == remaining else t + dt_eff
"""

# The dwell check: the nearest target, the earlier one on a tie.  ``{near}``
# is one _DWELL_TARGET per target, in index order, and reads s0, s1 and s2.
# A dwell is reset only while one is under way: dwell_target is None
# whenever dwell is 0.
_DWELL = """\
        near = None
{near}\
        if near is not None and near_d <= capture_radius:
            dwell = dwell + 1 if near == dwell_target else 1
            dwell_target = near
            if dwell >= {dwell_checks}:
                return CAPTURED_EQUILIBRIUM, ({s},), dt, attempts, times, columns, near
        elif dwell:
            dwell_target, dwell = None, 0
"""

# Target {i} = tg{i}: one outside its box is farther than capture_radius.
# The box is formed once per run by ``_reach_bounds``: xlo{i} <= s0 <=
# xhi{i} holds whenever abs(s0 - x) <= reach for the target's x, is false
# for a NaN s0, and is false for every s0 when x is not finite; likewise
# for y and z.
_DWELL_TARGET = """\
        if xlo{i} <= s0 <= xhi{i} and ylo{i} <= s1 <= yhi{i} and zlo{i} <= s2 <= zhi{i}:
            d = dist((s0, s1, s2), tg{i})
            if near is None or d < near_d:
                near, near_d = {i}, d
"""

# The adaptive step's part of the dwell: while one is under way, the trial
# step leaves room for the confirmations still due.
_DWELL_CLAMP = """\
            if dwell:
                # 1 <= dwell < {dwell_checks} here: leave room for the
                # remaining dwell confirmations
                room = remaining / ({dwell_checks} - dwell)
                if room < dt_eff:
                    dt_eff = room
"""

# The trial guard of both modes, indented by ``{pad}``: STEP_LIMIT when a
# step of dt_eff would not advance t or the max_steps budget is spent.
_TRIAL_GUARD = """\
{pad}if t + dt_eff == t or attempts >= max_steps:
{pad}    return STEP_LIMIT, ({s},), dt, attempts, times, columns, None
{pad}attempts += 1
"""

# RK4's step sizes from dt_eff: formed once per run from dt, and again from
# the span's remainder for a last step shorter than dt.
_RK4_SIZES = "half_dt_eff = 0.5 * dt_eff; sixth_dt_eff = dt_eff / 6.0"

# Fixed RK4: every step is accepted.  ``{step}`` advances s0, s1, ... by
# dt_eff, dt as formed once per run, or the span's remainder where that is
# shorter, which is always the run's last step.
_FIXED_ADVANCE = """\
        if remaining < dt:
            dt_eff = remaining; {sizes}
{guard}\
        {step}"""

# DP54: trial steps repeat until one is accepted.  ``{step}`` forms the
# proposal w0, w1, ..., its field k7_0, k7_1, ... and the error estimate
# err from s0, s1, ..., the first stage k1_0, k1_1, ... and dt_eff; an
# accepted proposal becomes the state and its field the next first stage.
# ``{clamp}`` is _DWELL_CLAMP with targets and empty without.
_ADAPTIVE_ADVANCE = """\
        while True:
            # the clamps are min(dt, remaining) and min(dt_eff, room)
            # written out: the first argument wins unless the second is
            # smaller
            dt_eff = remaining if remaining < dt else dt
{clamp}\
{guard}\
            try:
                {step}
            except OverflowError:
                # the error norm squared a component beyond the float
                # range: the orbit has left every scale the tolerance can
                # judge
                return DIVERGED, ({s},), dt, attempts, times, columns, None
            tol = rel_tol * nrm + abs_tol
            if err == 0.0:
                factor = {grow!r}
            else:
                # min(grow, max(shrink, r)) written out: r must exceed the
                # shrink limit to count, so a NaN r (a NaN err, or an
                # infinite err over an infinite tol) shrinks
                r = {safety!r} * (tol / err) ** {order!r}
                if r > {shrink!r}:
                    factor = r if r < {grow!r} else {grow!r}
                else:
                    factor = {shrink!r}
            dt = dt_eff * factor
            if err <= tol:
                break
        {accept}"""


def _each(n: int, template: str) -> str:
    """``template`` for components 0 .. n-1, as one line of statements."""
    return "; ".join(template.format(i=i) for i in range(n))


def _stage(field_source: _FieldSource, k: int, prefix: str) -> str:
    """k{k}_0, k{k}_1, ... = the field at {prefix}0, {prefix}1, ..."""
    env = {name: f"{prefix}{i}" for i, (name, _) in enumerate(field_source)}
    return "; ".join(
        f"k{k}_{i} = {expr.format_map(env)}" for i, (_, expr) in enumerate(field_source)
    )


def _rk4_block(field_source: _FieldSource) -> str:
    """One RK4 step from s0, s1, ... by dt_eff, written back to them; the
    locals half_dt_eff and sixth_dt_eff hold 0.5 * dt_eff and dt_eff / 6.0."""
    n = len(field_source)
    update = "s{i} = s{i} + sixth_dt_eff * (k1_{i} + 2.0 * (k2_{i} + k3_{i}) + k4_{i})"
    return "; ".join(
        [
            _stage(field_source, 1, "s"),
            _each(n, "w{i} = s{i} + half_dt_eff * k1_{i}"),
            _stage(field_source, 2, "w"),
            _each(n, "w{i} = s{i} + half_dt_eff * k2_{i}"),
            _stage(field_source, 3, "w"),
            _each(n, "w{i} = s{i} + dt_eff * k3_{i}"),
            _stage(field_source, 4, "w"),
            _each(n, update),
        ]
    )


def _dp54_block(field_source: _FieldSource, square: str = "{} ** 2") -> str:
    """One DP54 trial step from s0, s1, ... with first stage k1_0, k1_1, ...
    by dt_eff: the proposal w0, w1, ..., its field k7_0, k7_1, ... and the
    error estimate err.  Only err's ``** 2`` can raise (OverflowError).

    ``square`` spells the square of each parenthesized error component;
    the native loop passes its own spelling of ``** 2``."""
    n = len(field_source)

    def weighted(coeffs: tuple[float, ...], i: int) -> str:
        return " + ".join(f"{c!r} * k{j}_{i}" for j, c in enumerate(coeffs, 1) if c)

    lines = []
    # stages 2-6 from the rows of A; the B row gives the proposal, at which
    # k7 is evaluated
    for k, coeffs in enumerate((*_A, _B), 2):
        lines += [f"w{i} = s{i} + dt_eff * ({weighted(coeffs, i)})" for i in range(n)]
        lines.append(_stage(field_source, k, "w"))
    err = " + ".join(
        square.format(f"(dt_eff * ({weighted(_E, i)}))") for i in range(n)
    )
    lines.append(f"err = sqrt({err})")
    return "; ".join(lines)


def _loop_source(
    field_source: _FieldSource, mode: IntegratorMode, n_targets: int
) -> str:
    """Source of ``loop``, the stepping loop of ``field_source`` in ``mode``
    with ``n_targets`` capture targets.

    Every stage is unrolled over the components with the field inlined and
    the tableau written as float literals (``repr`` round-trips, so the
    values are exact).  Each step is one line of ``;``-separated
    assignments to local scalars, so a step makes no call and packs or
    unpacks no tuple.  A recorded point is appended component by component
    to one list of floats each.  The dwell check tests each target in turn,
    in index order, against bounds formed once per run; with no targets it
    and the adaptive dwell clamp are left out.  Each mode writes its step
    block once and its trial guard (``_TRIAL_GUARD``) once.
    """
    n = len(field_source)
    s = ", ".join(f"s{i}" for i in range(n))
    ss = " + ".join(f"s{i} * s{i}" for i in range(n))
    if n_targets:
        tg = "".join(f"tg{j}, " for j in range(n_targets))
        bd = "".join(
            f"xlo{j}, xhi{j}, ylo{j}, yhi{j}, zlo{j}, zhi{j}, " for j in range(n_targets)
        )
        targets = f"{tg}= targets; {bd}= bounds; dwell_target = None; dwell = 0"
        dwell = _DWELL.format(
            s=s,
            near="".join(_DWELL_TARGET.format(i=j) for j in range(n_targets)),
            dwell_checks=_DWELL_CHECKS,
        )
        clamp = _DWELL_CLAMP.format(dwell_checks=_DWELL_CHECKS)
    else:
        targets = dwell = clamp = ""
    if mode is IntegratorMode.FIXED_RK4:
        init = f"dt_eff = dt; {_RK4_SIZES}"
        advance = _FIXED_ADVANCE.format(
            sizes=_RK4_SIZES,
            guard=_TRIAL_GUARD.format(s=s, pad=" " * 8),
            step=_rk4_block(field_source),
        )
    else:
        init = _stage(field_source, 1, "s")
        advance = _ADAPTIVE_ADVANCE.format(
            s=s,
            guard=_TRIAL_GUARD.format(s=s, pad=" " * 12),
            step=_dp54_block(field_source),
            accept=_each(n, "s{i} = w{i}") + "; " + _each(n, "k1_{i} = k7_{i}"),
            clamp=clamp,
            safety=_SAFETY,
            shrink=_SHRINK_LIMIT,
            grow=_GROW_LIMIT,
            order=_ORDER_EXPONENT,
        )
    return _LOOP.format(
        s=s,
        ss=ss,
        init=init,
        targets=targets,
        columns="(" + "[], " * n + ")",
        appenders=_each(n, "record_{i} = columns[{i}].append"),
        record=_each(n, "record_{i}(s{i})"),
        dwell=dwell,
        advance=advance,
    )


def _fold_unit_gains(
    field_source: _FieldSource, unit_n1: bool, unit_pp: bool
) -> _FieldSource:
    """``field_source`` with n1 = -1.0 folded in when ``unit_n1`` (``+ n1 *
    X`` becomes ``- X``) and pp = 1.0 when ``unit_pp`` (``pp * X`` becomes
    ``X``).

    Both rewrites round alike for every double, +-0 and +-inf included:
    (-1.0) * x is -x, u + (-v) is u - v, and 1.0 * x is x.  Only the sign
    bit of a NaN can differ, and no output shows it.
    """
    folded = []
    for name, expr in field_source:
        if unit_n1:
            expr = expr.replace("+ n1 * ", "- ")
        if unit_pp:
            expr = expr.replace("pp * ", "")
        folded.append((name, expr))
    return tuple(folded)


# the globals of every generated loop
_LOOP_GLOBALS = {"sqrt": math.sqrt, "dist": _dist, **TrajectoryStatus.__members__}


@functools.cache
def _loop(
    field_source: _FieldSource,
    mode: IntegratorMode,
    n_targets: int,
    unit_n1: bool,
    unit_pp: bool,
) -> Callable[..., tuple]:
    """The compiled loop of one field, mode and target count, with the
    unit gains of ``_fold_unit_gains`` folded in, built on first use."""
    namespace = dict(_LOOP_GLOBALS)
    field_source = _fold_unit_gains(field_source, unit_n1, unit_pp)
    source = _loop_source(field_source, mode, n_targets)
    exec(compile(source, "<stepping loop>", "exec"), namespace)
    return namespace["loop"]


class _DriveResult(NamedTuple):
    """How a run of ``_drive`` ended: the last accepted state, the next
    proposed step, the trial steps spent, the recorded times and points
    (one list per component), the index of the capturing target and the
    distance to the nearest target."""

    status: TrajectoryStatus
    state: tuple
    dt: float
    attempts: int
    times: list[float]
    columns: tuple[list[float], ...]
    captured: int | None
    final_distance: float


def _loop_for(
    field_source: _FieldSource, p: SystemParams, mode: IntegratorMode, n_targets: int
) -> tuple[Callable[..., tuple], tuple[float, ...]]:
    """(loop, constants): the stepping loop of ``field_source`` in ``mode``
    for ``n_targets`` targets with the parameters of ``p``, and the grouped
    constants (a, b, cm, n1, pp, nb) it is called with first.

    The loop is the native one (``native._kernel``) where it was built and
    passed its probes, else the Python loop, compiled on first use; either
    has n1 = -1.0 or pp = 1.0 folded in where the constant, as computed,
    is that (``_fold_unit_gains``)."""
    n1, pp = p.N - 1.0, 1.0 - p.P
    from .native import _kernel

    unit = n1 == -1.0, pp == 1.0
    loop = _kernel(field_source, mode, *unit) or _loop(field_source, mode, n_targets, *unit)
    return loop, (p.a, p.b, p.c + p.M, n1, pp, -p.b)


def _drive(
    field_source: _FieldSource,
    p: SystemParams,
    u0: Sequence[float],
    settings: IntegratorSettings,
    t_end: float,
    targets: Sequence[tuple] | None = None,
    capture_radius: float = 0.0,
    record: bool = True,
    dt_start: float | None = None,
    attempts: int = 0,
) -> _DriveResult:
    """Run the stepping loop of ``field_source`` with the parameters of
    ``p`` from u0 over [0, t_end], in the mode of ``settings``.

    Every run takes the native loop of this field and mode
    (``native._kernel``) where one was built and passed its probes: the
    same step text compiled from C, with the targets and the record flag
    as arguments, returning the Python loop's 7-tuple with the same bits.
    Otherwise the Python loop generated for this field, mode and number of
    targets runs (compiled on first use).  Either is called with the
    grouped constants of
    :func:`lorenzlab.model.vector_field`: cm = c + M, n1 = N - 1,
    pp = 1 - P and nb = -b, and with each target coordinate's
    ``_reach_bounds`` for ``_capture_reach(capture_radius)``.  Where n1 is
    -1.0 or pp is 1.0 as computed, whatever N or P gave it, the loop has
    that constant folded in (see ``_fold_unit_gains``), with the same
    bits.  Its operation order, the ``** 2`` of its error norm, the ``+``
    chain of its norms and its stop order are frozen (see the module
    docstring); every output bit depends on them.

    The initial state and every accepted state go through one stop policy,
    in order: record it; DIVERGED if its norm exceeds ``blowup_norm`` or is
    not finite; CAPTURED_EQUILIBRIUM if it completes a dwell;
    COMPLETED_TSPAN at ``t_end``; STEP_LIMIT if the next trial step would
    not advance t or the ``max_steps`` budget is spent.  Trial steps repeat
    until one is accepted; a DP54 error estimate that overflows ends the
    run as DIVERGED at the last accepted state.  A recorded point is
    appended to ``times`` and to one list of floats per component, the
    result's ``columns``.

    ``attempts`` counts the trial steps the run has already spent, so a run
    made of several calls shares one ``max_steps`` budget (the exponent's
    failed window is run again on the base orbit alone from the count it
    started with); the result carries the updated count.

    When ``targets`` is given, each accepted state updates a dwell counter:
    a run of ``_DWELL_CHECKS`` consecutive states inside ``capture_radius``
    of one fixed target ends the run as CAPTURED_EQUILIBRIUM; the nearest
    target counts, the earlier one on a tie.  The counter guards against
    transient passes near a saddle.  While dwelling in adaptive mode the
    step is clamped so the remaining time still allows the required number
    of checks.
    """
    reach = _capture_reach(capture_radius)
    bounds = [b for tgt in targets or () for v in tgt for b in _reach_bounds(v, reach)]
    loop, constants = _loop_for(field_source, p, settings.mode, len(targets or ()))
    status, s, dt, attempts, times, columns, captured = loop(
        *constants,
        u0, t_end, settings.dt_init if dt_start is None else dt_start, attempts,
        settings.max_steps, settings.rel_tol, settings.abs_tol, settings.blowup_norm,
        targets, capture_radius, bounds, record,
    )
    nearest = min([math.inf, *(_dist(s, tgt) for tgt in targets or ())])
    return _DriveResult(status, s, dt, attempts, times, columns, captured, nearest)


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
    # the start as the native loop reads it, so that an int is recorded as
    # the same float on either loop
    start = tuple(map(float, u0))
    res = _drive(_FIELD_SOURCE, p, start, settings, settings.t_max, targets, capture_radius)
    trajectory = Trajectory(tuple(res.times), *map(tuple, res.columns), res.status)
    return res, trajectory


def _check_capture_radius(capture_radius: float) -> None:
    if not capture_radius >= 0.0:
        raise ValueError(f"capture_radius must be non-negative, got {capture_radius!r}")
    if capture_radius == math.inf:
        raise ValueError(f"capture_radius must be finite, got {capture_radius!r}")


def integrate(
    p: SystemParams, u0: State | tuple, settings: IntegratorSettings | None = None
) -> Trajectory:
    """Integrate from u0 over [0, t_max]; record every accepted step."""
    return _run(p, u0, settings)[1]


def integrate_to_equilibrium(
    p: SystemParams,
    u0: State | tuple,
    eqs: EquilibriumSet,
    capture_radius: float = _CAPTURE_RADIUS,
    settings: IntegratorSettings | None = None,
    include_origin: bool = True,
) -> ConvergenceOutcome:
    """Integrate until one of the equilibria in ``eqs`` captures the orbit.

    Capture means ten consecutive accepted states (the initial state counts)
    within ``capture_radius`` of the same equilibrium; a negative, NaN or
    infinite radius is a ValueError (an infinite ball captures any orbit).
    Runs that reach t_max, diverge, or hit the step limit return
    terminal=None with the corresponding trajectory status.
    ``include_origin=False`` restricts the candidate set to the symmetric
    pair; callers seeded inside the origin ball need this, or the dwell
    counter fills while the orbit is still escaping.
    """
    _check_capture_radius(capture_radius)
    candidates: list[Equilibrium] = [eqs.origin] if include_origin else []
    if eqs.pair is not None:
        candidates.extend(eqs.pair)
    targets = [tuple(e.location) for e in candidates] or None
    res, trajectory = _run(p, u0, settings, targets, capture_radius)
    terminal = None if res.captured is None else candidates[res.captured]
    return ConvergenceOutcome(
        terminal=terminal, final_distance=res.final_distance, trajectory=trajectory
    )
