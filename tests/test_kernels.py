"""Parity of the generated stepping loop with the generic steps, one step
at a time.

The reference oracle is the generic RK4 and Dormand-Prince 5(4) step over
any right-hand side ``f`` (tests/reference.py), run through the frozen
reference loop.  One step of the generated loop (t_end = dt) must end the
same way, bit for bit, for random parameters, states and step sizes,
including states whose norm overflows and states that are not finite.  In
adaptive mode a second run at a tolerance that accepts almost any trial
step takes two steps, so the proposal is compared where the default
tolerance rejects it, and DP54's carried stage k7 through the second step.
The gains N and P are drawn at 0 and at 1e-300 as well as anywhere in
[-50, 50], so each loop with n1 = -1.0 or pp = 1.0 folded in is held to
the generic steps, which multiply by both constants.

The native loop, which runs every run of ``_drive`` where a C compiler is
on PATH, is held to the generated Python loop in every field of
``_drive``'s result and to the frozen reference loop, over whole runs:
each field, mode and pair of unit-gain flags, each stop, histories of
more than 1 000 trial steps, which square hundreds of doubles whose ``**
2`` differs from ``x * x``, recorded and unrecorded runs with zero to
three targets, captures, the adaptive dwell clamp, and stops while a
dwell is under way.  Where a kernel cannot be built or trusted, the run
falls back to the Python loop with the same bits.

A whole exponent, one native call of the 6-D kernel's ``windows``, is held
to ``chaos._windows`` on the Python loop and to the frozen reference loop
driven window by window (``reference.lle``): its history, λ1 and each
error message, for drawn plants, modes, folds and windows, and for each
way a run fails.  A ``windows`` that renormalizes, accumulates or hands
back a failed window otherwise is refused, and the exponent falls back
with the same bits.
"""

import ctypes
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings as hsettings, strategies as st, target

import lorenzlab
from lorenzlab import (
    DivergedTrajectoryError,
    IntegratorMode,
    IntegratorSettings,
    SystemParams,
    TrajectoryStatus,
    apply_symmetry,
    find_equilibria,
    integrate,
    integrate_to_equilibrium,
    largest_lyapunov_exponent,
    vector_field,
)
from lorenzlab import native
from lorenzlab.chaos import _VARIATIONAL_SOURCE
from lorenzlab.integrator import _drive, _fold_unit_gains
from lorenzlab.model import _FIELD_SOURCE

import reference


def _same_values(u, v):
    """Equal as values, so 0.0 matches -0.0, and NaN matches NaN."""
    return len(u) == len(v) and all(a == b or (a != a and b != b) for a, b in zip(u, v))


# the largest finite bound, so a step runs from every state with a finite
# norm; the run stops after one trial step (max_steps = 1) at t_end = dt
_ONE_STEP = dict(max_steps=1, blowup_norm=sys.float_info.max)
# a finite tolerance so loose that every trial step whose error estimate
# is below 1e300 times the state's norm is accepted; two steps at t_end =
# 2 dt, the second from the first's proposal with its k7 as first stage
_FORCED = dict(rel_tol=1e300, max_steps=2, blowup_norm=sys.float_info.max)
# the adaptive runs of every draw: settings and t_end in units of dt
_ADAPTIVE_RUNS = {"one step": (_ONE_STEP, 1), "forced": (_FORCED, 2)}
_RUNS = (
    (IntegratorMode.FIXED_RK4, _ONE_STEP, 1),
    *((IntegratorMode.ADAPTIVE, *run) for run in _ADAPTIVE_RUNS.values()),
)


def _accepted(res):
    return len(res.times) - 1


def _assert_parity(source, p, s, dt, kernels):
    """Each of ``_RUNS`` of the generated loop ends as the frozen reference
    loop on ``kernels`` does; returns the steps they accepted."""
    accepted = 0
    for mode, kwargs, steps in _RUNS:
        settings = IntegratorSettings(mode=mode, dt_init=dt, **kwargs)
        got = _drive(source, p, s, settings, steps * dt)
        want = reference.drive(kernels, s, settings, steps * dt)
        assert reference.read_fields(got) == reference.read_fields(want)
        accepted += _accepted(got)
    return accepted


FIELDS = {
    "lorenz": _FIELD_SOURCE,
    "variational": _VARIATIONAL_SOURCE,
    "spectrum": reference.SPECTRUM_SOURCE,
}

real_st = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
# 0 and 1e-300 both give the unit gain n1 = -1.0 (N) or pp = 1.0 (P)
gain_st = st.one_of(st.sampled_from([0.0, 1e-300]), real_st)
params_st = st.builds(SystemParams, *[real_st] * 4, gain_st, gain_st)
component = st.one_of(
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),  # norms up to overflow
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e200, -1e200]),
)
dt_st = st.one_of(
    st.floats(1e-9, 1.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-3, 0.01, 0.5, 5.0]),
)


# (N, P) of each pair of unit-gain flags: both, N = 0 only, P = 0 only,
# and gains so small that n1 and pp round to unit
_GAINS = [(0.0, 0.0), (0.0, 2.5), (-3.0, 0.0), (1e-300, 1e-300)]


def _gain_examples(test):
    """One example per field and pair of unit-gain flags, from a state that
    steps."""
    for name, (N, P) in itertools.product(sorted(FIELDS), _GAINS):
        p = SystemParams(10.0, 8.0 / 3.0, 28.0, M=0.5, N=N, P=P)
        test = example(name=name, p=p, components=[1.0] * 12, dt=1e-2)(test)
    return test


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_every_unit_gain_folds_out_of_the_field_text(name):
    # a field whose text no longer spells "+ n1 * " or "pp * " would keep
    # the constant in its folded loop and multiply by it again
    for unit_n1, unit_pp in itertools.product([False, True], repeat=2):
        folded = _fold_unit_gains(FIELDS[name], unit_n1, unit_pp)
        named = {m for _, expr in folded for m in re.findall(r"\b(?:n1|pp)\b", expr)}
        kept = {gain for gain, unit in (("n1", unit_n1), ("pp", unit_pp)) if not unit}
        assert named == kept


@hsettings(max_examples=400, deadline=None)
@given(
    name=st.sampled_from(sorted(FIELDS)),
    p=params_st,
    components=st.lists(component, min_size=12, max_size=12),
    dt=dt_st,
)
@example(name="variational", p=SystemParams(1.0, 3.0, 2.0),
         components=[math.nan, 0.0, 1.0, 1.0, 0.0, 0.0], dt=1e-3)
@example(name="lorenz", p=SystemParams(1.0, 3.0, 2.0),
         components=[math.inf, -1.0, 1.0, 0.0, 0.0, 0.0], dt=1e-3)
# squares that overflow in the norm, and a step whose error estimate
# squares a finite component beyond the float range (OverflowError)
@example(name="variational", p=SystemParams(1.0, 3.0, 2.0),
         components=[1e154] * 6, dt=1e-3)
@example(name="lorenz", p=SystemParams(10.0, 2.66, 28.0),
         components=[1.0] * 6, dt=1e5)
@example(name="spectrum", p=SystemParams(1.0, 3.0, 2.0),
         components=[1e154] * 12, dt=1e-3)
@_gain_examples
def test_fused_kernels_match_the_generic_steps(name, p, components, dt):
    source = FIELDS[name]
    s = tuple(components[: len(source)])
    accepted = _assert_parity(source, p, s, dt, reference.kernels(source, p))
    # most draws with a component from the wide strategies start beyond
    # the float range and stop at the initial divergence check; steer the
    # search towards draws that step
    target(float(accepted), label="accepted steps")


@hsettings(max_examples=200, deadline=None)
@given(
    p=params_st,
    s=st.tuples(*[st.floats(-1e3, 1e3, allow_nan=False)] * 3),
    dt=dt_st,
)
def test_lorenz_kernels_evaluate_vector_field(p, s, dt):
    # the generic steps over vector_field itself, not a copy of the field
    def f(u):
        return tuple(vector_field(p, u))

    kernels = reference.Kernels(
        rhs=f,
        dp54=lambda u, k1, h: reference.dp54_step(f, u, k1, h),
        rk4=lambda u, h: reference.rk4_step(f, u, h),
        norm=reference.norm,
    )
    _assert_parity(_FIELD_SOURCE, p, s, dt, kernels)


@hsettings(max_examples=200, deadline=None)
@given(
    p=params_st,
    s=st.tuples(*[st.floats(-1e3, 1e3, allow_nan=False)] * 3),
    dt=dt_st,
)
def test_adaptive_step_of_a_mirrored_seed_is_mirrored(p, s, dt):
    m = tuple(apply_symmetry(s))
    runs = {}
    for name, (kwargs, steps) in _ADAPTIVE_RUNS.items():
        settings = IntegratorSettings(dt_init=dt, **kwargs)
        got = runs[name] = _drive(_FIELD_SOURCE, p, s, settings, steps * dt)
        mirrored = _drive(_FIELD_SOURCE, p, m, settings, steps * dt)
        # the next step size carries the error estimate (while the growth
        # and shrink limits do not clamp it) and the norm; an error estimate
        # that overflows ends both runs as DIVERGED
        assert (mirrored.status, repr(mirrored.dt), mirrored.attempts) == (
            got.status, repr(got.dt), got.attempts
        )
        # every recorded state: with forced acceptance, the first proposal
        # and the second step's, which starts from the first's k7.  As
        # values, like the trajectory tests: x + (-0.0) is 0.0, so a zero
        # need not mirror its sign
        assert repr(mirrored.times) == repr(got.times)
        assert len(mirrored.columns[0]) == len(got.columns[0])
        for u, v in zip(zip(*mirrored.columns), zip(*got.columns)):
            assert _same_values(u, apply_symmetry(v))
        assert _same_values(mirrored.state, apply_symmetry(got.state))
    # the forced run must have stepped wherever the generic step's error
    # estimate passes its tolerance, so the proposals above were compared
    f = reference.lorenz_rhs(p)
    try:
        err = reference.dp54_step(f, s, f(s), dt)[2]
    except OverflowError:
        err = math.inf
    forced = IntegratorSettings(**_FORCED)
    if err <= forced.rel_tol * reference.norm(s) + forced.abs_tol:
        assert _accepted(runs["forced"]) >= 1
    target(float(_accepted(runs["forced"])), label="accepted steps")


def test_default_classic_lorenz_exponent_is_pinned():
    est = largest_lyapunov_exponent(SystemParams(10.0, 8.0 / 3.0, 28.0))
    assert repr(est.lambda1) == "0.9143700698706513"


# ------------------------------------ the native loop, against both loops

needs_cc = pytest.mark.skipif(native._compiler() is None, reason="no C compiler on PATH")

CLASSIC = SystemParams(10.0, 8.0 / 3.0, 28.0)
_AXES = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
_BY_DIM = {len(source): source for source in FIELDS.values()}
# (N, P) giving each pair of unit-gain flags (n1 = -1.0, pp = 1.0)
_FOLDS = {(True, True): (0.0, 0.0), (True, False): (0.0, 0.5),
          (False, True): (0.5, 0.0), (False, False): (0.5, 0.5)}


def _unit_gains(p):
    return p.N - 1.0 == -1.0, 1.0 - p.P == 1.0


@pytest.fixture(scope="module")
def kernels():
    """Every native kernel the tests below run, built before any of them
    starts, so no Hypothesis example pays for a compile."""
    if native._compiler() is not None:
        for source, mode, unit in itertools.product(
            FIELDS.values(), IntegratorMode, _FOLDS
        ):
            assert native._kernel(source, mode, *unit) is not None


def _native_parity(source, p, u0, settings, t_end, steps=None, **kwargs):
    """The ``_drive`` run on the native loop ends as on the generated Python
    loop, in every field of its result, and as the frozen reference loop on
    ``steps`` (the generic steps of ``source`` by default), in every field a
    caller reads.  Returns the native run."""
    assert native._kernel(source, settings.mode, *_unit_gains(p)) is not None
    got = _drive(source, p, u0, settings, t_end, **kwargs)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(native, "_kernel", lambda *key: None)
        python = _drive(source, p, u0, settings, t_end, **kwargs)
    assert repr(got) == repr(python)
    assert type(got.times) is list and all(type(c) is list for c in got.columns)
    want = reference.drive(steps or reference.kernels(source, p), u0, settings,
                           t_end, **kwargs)
    assert reference.read_fields(got) == reference.read_fields(want)
    return got


def _case(dim, p, start, mode=IntegratorMode.ADAPTIVE, t_end=10.0, dt_start=None,
          attempts=0, targets=None, capture_radius=0.0, record=False, **settings):
    u0 = (*start, *_AXES[: dim - 3])
    return (_BY_DIM[dim], p, u0, IntegratorSettings(mode=mode, **settings), t_end,
            dict(dt_start=dt_start, attempts=attempts, targets=targets,
                 capture_radius=capture_radius, record=record))


_ADAPTIVE, _RK4 = IntegratorMode.ADAPTIVE, IntegratorMode.FIXED_RK4
_MAX = sys.float_info.max
_GROWING = SystemParams(10.0, 8.0 / 3.0, 28.0, N=15.0)  # trace 15 - 1 - a - b > 0
_ONES = (1.0, 1.0, 1.0)

# each stop of the loop, with the status it must end on and the least
# number of trial steps it must take
_STOPS = {
    # the norm passes blowup_norm after hundreds of accepted steps
    "blowup-adaptive": (_case(6, _GROWING, _ONES, t_end=50.0, blowup_norm=1e3),
                        TrajectoryStatus.DIVERGED, 500),
    "blowup-rk4": (_case(12, _GROWING, _ONES, _RK4, t_end=50.0, dt_init=1e-2,
                         blowup_norm=1e3), TrajectoryStatus.DIVERGED, 60),
    "nan-start": (_case(6, CLASSIC, (math.nan, 0.0, 1.0)),
                  TrajectoryStatus.DIVERGED, 0),
    # a finite error component squared beyond the float range: DIVERGED
    # at the start, which no step was accepted from
    "square-overflows-3d": (_case(3, CLASSIC, (1e100,) * 3, t_end=1.0, dt_init=1e-30,
                                  blowup_norm=_MAX), TrajectoryStatus.DIVERGED, 1),
    "square-overflows-6d": (_case(6, CLASSIC, (1e100,) * 3, t_end=1.0, dt_init=1e-80,
                                  blowup_norm=_MAX), TrajectoryStatus.DIVERGED, 1),
    "square-overflows-12d": (_case(12, CLASSIC, (1e100,) * 3, t_end=1.0,
                                   dt_init=1e-30, blowup_norm=_MAX),
                             TrajectoryStatus.DIVERGED, 1),
    # a budget that earlier windows have mostly spent
    "shared-budget": (_case(6, CLASSIC, _ONES, max_steps=60, attempts=50),
                      TrajectoryStatus.STEP_LIMIT, 60),
    "shared-budget-rk4": (_case(3, CLASSIC, _ONES, _RK4, dt_init=1e-2, max_steps=60,
                                attempts=50), TrajectoryStatus.STEP_LIMIT, 60),
    # a budget beyond int64, clamped where no run reaches it; more than a
    # thousand trial steps in each field and mode
    "huge-budget-3d": (_case(3, CLASSIC, _ONES, max_steps=10**30),
                       TrajectoryStatus.COMPLETED_TSPAN, 1000),
    "huge-budget-6d": (_case(6, CLASSIC, _ONES, max_steps=10**30),
                       TrajectoryStatus.COMPLETED_TSPAN, 1000),
    "huge-budget-12d": (_case(12, CLASSIC, _ONES, max_steps=10**30),
                        TrajectoryStatus.COMPLETED_TSPAN, 1000),
    "huge-budget-6d-rk4": (_case(6, CLASSIC, _ONES, _RK4, dt_init=1e-2,
                                 max_steps=10**30),
                           TrajectoryStatus.COMPLETED_TSPAN, 1000),
    "huge-budget-12d-rk4": (_case(12, CLASSIC, _ONES, _RK4, dt_init=1e-2,
                                  max_steps=10**30),
                            TrajectoryStatus.COMPLETED_TSPAN, 1000),
    # unit gains folded out of the 6-D field, and kept in it
    "folds-6d": (_case(6, SystemParams(10.0, 8.0 / 3.0, 28.0, N=0.5, P=0.5), _ONES,
                       t_end=12.0),
                 TrajectoryStatus.COMPLETED_TSPAN, 1000),
}


@needs_cc
@pytest.mark.parametrize("name", sorted(_STOPS))
def test_native_loop_ends_every_stop_as_both_python_loops(name, kernels):
    (source, p, u0, settings, t_end, kwargs), status, least = _STOPS[name]
    got = _native_parity(source, p, u0, settings, t_end, **kwargs)
    assert got.status is status and got.attempts >= least
    if name.startswith("square-overflows"):
        assert got.state == u0 and got.attempts > kwargs["attempts"]


# x' = x^2 from x = 1 leaves every bound at t = 1, so the adaptive step
# shrinks until t + dt_eff == t: STEP_LIMIT with the budget unspent
_BLOWUP = (("x", "{x} * {x}"), ("y", "0.0"), ("z", "0.0"))


def _blowup_rhs(s):
    return s[0] * s[0], 0.0, 0.0


@needs_cc
def test_native_loop_stalls_where_the_step_no_longer_advances_t():
    steps = reference.Kernels(
        rhs=_blowup_rhs,
        dp54=lambda s, k1, dt: reference.dp54_step(_blowup_rhs, s, k1, dt),
        rk4=None,
        norm=reference.norm,
    )
    settings = IntegratorSettings(blowup_norm=1e300)
    got = _native_parity(_BLOWUP, CLASSIC, (1.0, 0.0, 0.0), settings, 2.0, steps,
                         record=False)
    assert got.status is TrajectoryStatus.STEP_LIMIT
    assert got.attempts < settings.max_steps and got.dt < 1e-15


def _draw_plant(draw):
    # gains N < 1 and P < 1, where every orbit of the model field stays in
    # a ball, so no run spends its budget on a base orbit that grows
    # without bound; the tangents may still pass blowup_norm
    unit_n1, unit_pp = draw(st.sampled_from(sorted(_FOLDS)))
    gain = st.floats(-2.0, 0.9).filter(lambda v: 1.0 - v != 1.0)
    N = draw(st.sampled_from([0.0, 1e-300]) if unit_n1 else gain)
    P = draw(st.sampled_from([0.0, 1e-300]) if unit_pp else gain)
    return SystemParams(draw(st.floats(1.0, 20.0)), draw(st.floats(0.5, 5.0)),
                        draw(st.floats(0.0, 40.0)), M=draw(st.floats(-5.0, 5.0)),
                        N=N, P=P)


@st.composite
def _native_cases(draw):
    p = _draw_plant(draw)
    blowup_norm = draw(st.sampled_from([1e3, 1e6, 1e300]))
    kind = draw(st.sampled_from(["any", "any", "any", "diverged", "nan"]))
    if kind == "any":
        start = draw(st.tuples(*[st.floats(-20.0, 20.0)] * 3))
    elif kind == "diverged":
        # beyond blowup_norm at the start
        start = (draw(st.sampled_from([2e6, -1e200, math.inf])), 1.0, 1.0)
        blowup_norm = min(blowup_norm, 1e6)
    else:
        start = (math.nan, 0.0, 1.0)
    return _case(
        draw(st.sampled_from(sorted(_BY_DIM))),
        p,
        start,
        draw(st.sampled_from(list(IntegratorMode))),
        t_end=draw(st.sampled_from([0.5, 2.0, 5.0])),
        dt_start=draw(st.one_of(st.none(), st.floats(1e-4, 0.05))),
        attempts=draw(st.integers(0, 40)),
        dt_init=draw(st.sampled_from([1e-2, 0.05])),
        max_steps=draw(st.sampled_from([1, 60, 10**6, 10**30])),
        blowup_norm=blowup_norm,
    )


@needs_cc
@hsettings(max_examples=100, deadline=None)
@given(case=_native_cases())
def test_native_loop_matches_both_python_loops(case, kernels):
    source, p, u0, settings, t_end, kwargs = case
    got = _native_parity(source, p, u0, settings, t_end, **kwargs)
    target(float(got.attempts), label="trial steps")


# ------------------------------------- recording and targets, natively too

# E+- stable in all four folds of _FOLDS, so a start next to one dwells
_PLANT = SystemParams(10.0, 8.0 / 3.0, 10.0)


def _locations(p):
    """The origin and, where it exists, the pair (E+, E-)."""
    eqs = find_equilibria(p)
    return [tuple(e.location) for e in (eqs.origin, *(eqs.pair or ()))]


_ORIGIN, _E_PLUS, _E_MINUS = _locations(_PLANT)
_NEXT_TO_E_PLUS = tuple(v + 1e-9 for v in _E_PLUS)
_LEFT_OF_E_PLUS = (_E_PLUS[0] - 0.1, *_E_PLUS[1:])  # its norm grows at once
_CAPTURED = TrajectoryStatus.CAPTURED_EQUILIBRIUM
_DWELL = dict(targets=[_E_MINUS, _E_PLUS], capture_radius=1e-6, record=True)
_NEXT_TO_E_PLUS_X = (_E_PLUS[0] + 1e-5, *_E_PLUS[1:])  # x falls about 1e-6 a step
_SWITCH = dict(_DWELL, capture_radius=1e-3, targets=[
    _NEXT_TO_E_PLUS_X, (_NEXT_TO_E_PLUS_X[0] - 3e-6, *_E_PLUS[1:])])

# runs with targets or recording, with the status each must end on and the
# index of the capturing target
_TARGETED = {
    "capture-3d": (_case(3, _PLANT, _NEXT_TO_E_PLUS, **_DWELL), _CAPTURED, 1),
    "capture-3d-rk4": (_case(3, _PLANT, _NEXT_TO_E_PLUS, _RK4, dt_init=1e-2, **_DWELL),
                       _CAPTURED, 1),
    "capture-unrecorded-6d": (_case(6, _PLANT, _NEXT_TO_E_PLUS,
                                    **dict(_DWELL, record=False)), _CAPTURED, 1),
    "capture-12d-rk4": (_case(12, _PLANT, _NEXT_TO_E_PLUS, _RK4, dt_init=1e-2,
                              **_DWELL), _CAPTURED, 1),
    # three targets, the origin first; E- captures the mirrored start
    "three-targets": (_case(3, _PLANT, tuple(apply_symmetry(_NEXT_TO_E_PLUS)),
                            **dict(_DWELL, targets=[_ORIGIN, _E_PLUS, _E_MINUS])),
                      _CAPTURED, 2),
    # a dwell begun at one target restarts where another becomes the
    # nearest: the start is the first target, the second lies 3e-6 ahead
    # of it, nearest from the third state on, so the twelfth captures
    "switch-target": (_case(3, _PLANT, _NEXT_TO_E_PLUS_X, dt_init=1e-2, **_SWITCH),
                      _CAPTURED, 1),
    "switch-target-rk4": (_case(3, _PLANT, _NEXT_TO_E_PLUS_X, _RK4, dt_init=1e-2,
                                **_SWITCH), _CAPTURED, 1),
    # two equal targets: the earlier index wins the tie
    "tie": (_case(3, _PLANT, _NEXT_TO_E_PLUS, **dict(_DWELL, targets=[_E_PLUS] * 2)),
            _CAPTURED, 0),
    # a first trial step of 1.0, clamped by the span to 0.5 and by the
    # dwell to the room left for the nine confirmations still due
    "dwell-clamp": (_case(3, _PLANT, _NEXT_TO_E_PLUS, t_end=0.5, dt_start=1.0,
                          **_DWELL), _CAPTURED, 1),
    # the budget runs out, and the norm passes blowup_norm, while dwelling
    "step-limit-dwelling": (_case(3, _PLANT, _NEXT_TO_E_PLUS, max_steps=5, **_DWELL),
                            TrajectoryStatus.STEP_LIMIT, None),
    "step-limit-dwelling-rk4": (_case(6, _PLANT, _NEXT_TO_E_PLUS, _RK4, dt_init=1e-2,
                                      max_steps=5, **_DWELL),
                                TrajectoryStatus.STEP_LIMIT, None),
    "diverged-dwelling": (_case(3, _PLANT, _LEFT_OF_E_PLUS,
                                blowup_norm=math.hypot(*_LEFT_OF_E_PLUS) * (1 + 1e-9),
                                **dict(_DWELL, capture_radius=0.3)),
                          TrajectoryStatus.DIVERGED, None),
    # targets with non-finite coordinates never dwell: their reach bounds
    # are (inf, -inf)
    "non-finite-targets": (_case(3, _PLANT, _NEXT_TO_E_PLUS, **dict(
        _DWELL, targets=[(math.inf, 0.0, 0.0), (-math.inf, *_E_PLUS[1:]),
                         (math.nan,) * 3, _E_PLUS])), _CAPTURED, 3),
    # beyond blowup_norm at the start, whose target distances overflow
    "diverged-start": (_case(3, _PLANT, (1e200, 0.0, 0.0), **_DWELL),
                       TrajectoryStatus.DIVERGED, None),
    # inside blowup_norm, but the first error estimate overflows
    "error-overflows": (_case(3, _PLANT, (1e200, 0.0, 0.0), blowup_norm=1e300,
                              **_DWELL), TrajectoryStatus.DIVERGED, None),
    # a target so far, in a ball so wide, that the distance to it squares
    # beyond the float range: inf, which ends nothing
    "distance-overflows": (_case(3, _PLANT, _ONES, t_end=2.0, **dict(
        _DWELL, targets=[(1e200, 0.0, 0.0)], capture_radius=1e200)),
                           TrajectoryStatus.COMPLETED_TSPAN, None),
    # recorded runs with no target
    "recorded-12d": (_case(12, CLASSIC, _ONES, t_end=2.0, record=True),
                     TrajectoryStatus.COMPLETED_TSPAN, None),
    "recorded-6d-rk4": (_case(6, CLASSIC, _ONES, _RK4, t_end=2.0, dt_init=1e-2,
                              record=True), TrajectoryStatus.COMPLETED_TSPAN, None),
}


@needs_cc
@pytest.mark.parametrize("name", sorted(_TARGETED))
def test_native_recording_and_dwell_end_as_both_python_loops(name, kernels):
    (source, p, u0, settings, t_end, kwargs), status, captured = _TARGETED[name]
    got = _native_parity(source, p, u0, settings, t_end, **kwargs)
    assert (got.status, got.captured) == (status, captured)
    assert bool(got.times) == kwargs["record"]
    if name == "dwell-clamp":
        assert got.times[1] == 0.5 / 9 and len(got.times) == 10
    if name.startswith("switch-target"):
        assert len(got.times) == 12
    if name == "diverged-dwelling":
        assert len(got.times) >= 3
    if name.startswith("step-limit"):
        assert got.attempts == 5
    if name in ("diverged-start", "error-overflows", "distance-overflows"):
        assert got.final_distance == math.inf


@needs_cc
@pytest.mark.parametrize("unit", sorted(_FOLDS))
@pytest.mark.parametrize("mode", list(IntegratorMode), ids=lambda m: m.value)
@pytest.mark.parametrize("dim", sorted(_BY_DIM))
def test_native_capture_matches_both_python_loops(dim, mode, unit, kernels):
    # every field, mode and pair of unit-gain flags: a recorded run from
    # next to E+ that E+ captures, with E- the earlier target
    N, P = _FOLDS[unit]
    p = SystemParams(10.0, 8.0 / 3.0, 10.0, N=N, P=P)
    e_plus, e_minus = _locations(p)[1:]
    start = tuple(v + 1e-9 for v in e_plus)
    case = _case(dim, p, start, mode, dt_init=1e-2,
                 **dict(_DWELL, targets=[e_minus, e_plus]))
    got = _native_parity(*case[:5], **case[5])
    assert (got.status, got.captured) == (_CAPTURED, 1)
    assert len(got.times) == 10


@st.composite
def _targeted_cases(draw):
    p = _draw_plant(draw)
    locations = _locations(p)
    # zero to three targets: none, the origin, the pair, or all three, or
    # one whose coordinates are not finite beside the origin
    targets = draw(st.sampled_from([None, locations[:1], locations[1:] or None,
                                    locations, [(math.inf, 0.0, math.nan), *locations[:1]]]))
    kind = draw(st.sampled_from(["any", "in_ball", "in_ball", "diverged", "nan"]))
    blowup_norm = draw(st.sampled_from([1e3, 1e6, 1e300]))
    if kind == "any":
        start = draw(st.tuples(*[st.floats(-20.0, 20.0)] * 3))
    elif kind == "in_ball":
        centre = draw(st.sampled_from(locations))
        offset = draw(st.tuples(*[st.floats(-1e-7, 1e-7)] * 3))
        start = tuple(c + o for c, o in zip(centre, offset))
    elif kind == "diverged":
        start = (draw(st.sampled_from([2e6, -1e200, math.inf])), 1.0, 1.0)
        blowup_norm = min(blowup_norm, 1e6)
    else:
        start = (math.nan, 0.0, 1.0)
    return _case(
        draw(st.sampled_from(sorted(_BY_DIM))),
        p,
        start,
        draw(st.sampled_from(list(IntegratorMode))),
        t_end=draw(st.sampled_from([0.5, 2.0, 5.0])),
        dt_start=draw(st.one_of(st.none(), st.floats(1e-4, 0.5))),
        attempts=draw(st.integers(0, 40)),
        targets=targets,
        capture_radius=draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.3, 2.0])),
        record=draw(st.booleans()),
        dt_init=draw(st.sampled_from([1e-3, 1e-2, 0.1])),
        max_steps=draw(st.sampled_from([1, 60, 10**6, 10**30])),
        blowup_norm=blowup_norm,
    )


@needs_cc
@hsettings(max_examples=100, deadline=None)
@given(case=_targeted_cases())
def test_native_targets_and_recording_match_both_python_loops(case, kernels):
    source, p, u0, settings, t_end, kwargs = case
    got = _native_parity(source, p, u0, settings, t_end, **kwargs)
    target(float(got.captured is not None), label="captured")


@needs_cc
def test_an_int_start_is_recorded_as_the_same_float_on_either_loop(kernels):
    # the native loop reads the start as doubles, so the Python loop must
    # record and return it as floats too
    settings = IntegratorSettings(t_max=0.1)
    got = integrate(CLASSIC, (1, 1, 1), settings)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(native, "_kernel", lambda *key: None)
        python = integrate(CLASSIC, (1, 1, 1), settings)
    assert repr(got) == repr(python) == repr(integrate(CLASSIC, _ONES, settings))
    assert type(got.xs[0]) is float


# -------------------------------------------- the exponent's windows in C


def _exponent(run):
    """repr of the estimate ``run()`` returns, or of the error it raises."""
    try:
        return repr(run())
    except DivergedTrajectoryError as exc:
        return repr(exc)


def _exponent_parity(p, settings, **window):
    """The exponent ends alike as one native call of ``windows``, with no
    kernel (``chaos._windows`` on the Python loop), and as the frozen
    reference loop driven window by window: its history, λ1 and horizons,
    or its error and message, by repr.  Returns that text."""
    got = _exponent(lambda: largest_lyapunov_exponent(p, settings=settings, **window))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(native, "_kernel", lambda *key: None)
        python = _exponent(
            lambda: largest_lyapunov_exponent(p, settings=settings, **window))
    want = _exponent(lambda: reference.lle(p, settings=settings, **window))
    assert got == python == want
    return got


# named exponent runs, with the start of the text each must end as
_EXPONENTS = {
    # the base orbit itself leaves blowup_norm (pp = -1) in window 3
    "base-diverged": (SystemParams(10.0, 8.0 / 3.0, 28.0, P=2.0), {},
                      dict(horizon=1.0, renorm_interval=0.1, transient=0.1),
                      "DivergedTrajectoryError('base orbit failed during window 3: "
                      "diverged')"),
    # a 20-unit window lets the tangent pass 1e6 while the base stays bounded
    "tangent-diverged": (CLASSIC, dict(rel_tol=1e-6, abs_tol=1e-9),
                         dict(horizon=40.0, renorm_interval=20.0, transient=0.0),
                         "DivergedTrajectoryError('the tangent vector diverged "
                         "during window 1 while the base orbit alone did not"),
    # one budget over every window runs out in a later one
    "shared-budget": (CLASSIC, dict(max_steps=500), dict(horizon=5.0, transient=1.0),
                      "DivergedTrajectoryError('base orbit failed during window 3: "
                      "step_limit')"),
    "shared-budget-rk4": (CLASSIC, dict(mode=_RK4, dt_init=1e-2, max_steps=250),
                          dict(horizon=5.0, renorm_interval=0.5, transient=1.0),
                          "DivergedTrajectoryError('base orbit failed during window 5: "
                          "step_limit')"),
    # over one window of RK4 steps near the stable origin (spectrum about
    # -1000) the tangent underflows to exactly 0
    "degenerated": (SystemParams(1000.0, 1000.0, 0.5, N=-1000.0),
                    dict(mode=_RK4, dt_init=1e-3),
                    dict(horizon=2.0, renorm_interval=1.0, transient=0.0),
                    "DivergedTrajectoryError('tangent vector degenerated')"),
    # a window count far above the budget, and one beyond int64: the
    # budget ends the run within a few windows, and no buffer is sized by
    # the window count
    "many-windows": (CLASSIC, dict(max_steps=10), dict(horizon=1e12, transient=0.0),
                     "DivergedTrajectoryError('base orbit failed during window 0: "
                     "step_limit')"),
    "windows-beyond-int64": (CLASSIC, dict(max_steps=10), dict(horizon=1e30,
                                                                transient=1e20),
                             "DivergedTrajectoryError('base orbit failed during "
                             "window 0: step_limit')"),
    # every fold of the unit gains, both modes, completing
    **{f"completes-{mode.value}-{n1}-{pp}": (
        SystemParams(10.0, 8.0 / 3.0, 28.0, N=_FOLDS[n1, pp][0], P=_FOLDS[n1, pp][1]),
        dict(mode=mode, dt_init=1e-2), dict(horizon=6.0, renorm_interval=0.5,
                                            transient=2.0), "LLEEstimate(")
        for mode in IntegratorMode for n1, pp in _FOLDS},
}


@pytest.mark.parametrize("name", sorted(_EXPONENTS))
def test_exponent_ends_as_the_python_windows_and_the_frozen_loop(name, kernels):
    p, settings, window, text = _EXPONENTS[name]
    assert _exponent_parity(p, IntegratorSettings(**settings), **window).startswith(text)


@st.composite
def _exponent_cases(draw):
    p = _draw_plant(draw)
    renorm_interval = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.5]))
    n_total = draw(st.integers(1, 12))
    settings = IntegratorSettings(
        mode=draw(st.sampled_from(list(IntegratorMode))),
        dt_init=draw(st.sampled_from([1e-3, 1e-2, 0.05])),
        rel_tol=draw(st.sampled_from([1e-9, 1e-6])),
        max_steps=draw(st.sampled_from([5, 100, 400, 10**6, 10**30])),
        blowup_norm=draw(st.sampled_from([1e2, 1e6, 1e300])),
    )
    start = draw(st.tuples(*[st.floats(-20.0, 20.0)] * 3))
    window = dict(renorm_interval=renorm_interval, horizon=n_total * renorm_interval,
                  transient=draw(st.integers(0, n_total - 1)) * renorm_interval)
    return p, start, settings, window


@hsettings(max_examples=100, deadline=None)
@given(case=_exponent_cases())
def test_exponent_matches_the_python_windows_and_the_frozen_loop(case, kernels):
    p, start, settings, window = case
    text = _exponent_parity(p, settings, u0=start, **window)
    target(float(text.startswith("LLEEstimate(")), label="completed")


# ------------------------------------------------- falling back to Python


def _clear_kernels():
    native._compiler.cache_clear()
    native._kernel.cache_clear()


@pytest.fixture
def fresh_kernels():
    """No compiler looked up and no kernel built, before the test and after."""
    _clear_kernels()
    yield
    _clear_kernels()


def _wrong_build(calls):
    """A stand-in for ``native._build`` whose loop ends every run at the
    origin, counting its calls: its probe run must disagree."""

    def build(compiler, source, n):
        def loop(*args):
            calls.append(args)
            return (TrajectoryStatus.COMPLETED_TSPAN, (0.0,) * n, 1.0, 0, [],
                    tuple([] for _ in range(n)), None)

        def windows(*args):
            # every window completes with no growth: an exponent of 0.0
            calls.append(args)
            return args[-2], TrajectoryStatus.COMPLETED_TSPAN, args[6], 1.0, 0, [0.0]

        if n == 6:
            loop.windows = windows
        return loop

    return build


def _refuse(*args, **kwargs):
    raise OSError("cannot load")


# a square spelled x * x, which the tests' fields would not show on the
# first trial steps of a probe
_MULTIPLYING_SQUARE = ("pow(fabs(x), 2.0)", "x * x")

# the exponent's renormalization by a reciprocal, which rounds otherwise
# on some tangents
_RECIPROCAL = ("/ nrm;", "* (1.0 / nrm);")

# how each failure is staged: no compiler on PATH, a compiler that exits
# non-zero, a library that does not load, a kernel whose probe disagrees,
# a library that squares by multiplying, exponent windows that renormalize
# by a reciprocal (which only a 6-D kernel has)
_FAILURES = {
    "no-compiler": lambda m, calls: None,
    "compiler-fails": lambda m, calls: m.setattr(native, "_c_source",
                                                 lambda *a: "#error no kernel\n"),
    "loader-fails": lambda m, calls: m.setattr(ctypes, "CDLL", _refuse),
    "probe-disagrees": lambda m, calls: m.setattr(native, "_build", _wrong_build(calls)),
    "square-multiplies": lambda m, calls: m.setattr(
        native, "_C_LOOP", native._C_LOOP.replace(*_MULTIPLYING_SQUARE)),
    "windows-reciprocal": lambda m, calls: m.setattr(
        native, "_C_WINDOWS", native._C_WINDOWS.replace(*_RECIPROCAL)),
}


def _assert_falls_back(run, key, failure, monkeypatch):
    """``run()`` gives the same text twice under ``failure`` as before it,
    with one compiler lookup for the process and no kernel for ``key``."""
    if failure != "no-compiler" and native._compiler() is None:
        pytest.skip("no C compiler on PATH")
    want = run()
    _clear_kernels()
    lookups, calls = [], []
    which = shutil.which

    def counting_which(name, *args, **kwargs):
        lookups.append(name)
        return None if failure == "no-compiler" else which(name, *args, **kwargs)

    monkeypatch.setattr(shutil, "which", counting_which)
    _FAILURES[failure](monkeypatch, calls)
    assert [run() for _ in range(2)] == [want] * 2
    # one lookup for the process, not one per window or run
    assert lookups == ["cc"]
    assert native._kernel(*key) is None
    # a kernel that disagrees ran its probe and nothing else
    assert len(calls) == (1 if failure == "probe-disagrees" else 0)


@pytest.mark.parametrize("failure", sorted(_FAILURES))
def test_exponent_falls_back_to_the_python_loop_with_the_same_bits(
    failure, fresh_kernels, monkeypatch
):
    _assert_falls_back(
        lambda: repr(largest_lyapunov_exponent(CLASSIC, horizon=30.0,
                                               transient=5.0).history),
        (_VARIATIONAL_SOURCE, IntegratorMode.ADAPTIVE, True, True),
        failure,
        monkeypatch,
    )


@pytest.mark.parametrize("failure", sorted(set(_FAILURES) - {"windows-reciprocal"}))
def test_an_orbit_falls_back_to_the_python_loop_with_the_same_bits(
    failure, fresh_kernels, monkeypatch
):
    # a recorded run with three targets, captured by one of the pair
    eqs = find_equilibria(_PLANT)
    _assert_falls_back(
        lambda: repr(integrate_to_equilibrium(_PLANT, (1.0, 1.0, 1.0), eqs)),
        (_FIELD_SOURCE, IntegratorMode.ADAPTIVE, True, True),
        failure,
        monkeypatch,
    )


# each a change to the C text that a probe run must refuse: the adaptive
# dwell clamp left out, the initial state left unrecorded, a dwell one
# state short (a square by multiplication is one of _FAILURES)
_MISBUILT = {
    "no-dwell-clamp": ("if (room < dt_eff)", "if (0)"),
    "first-state-unrecorded": ("if (record) {", "if (record && t > 0.0) {"),
    "short-dwell": ("dwell >= %(dwell_checks)d)", "dwell >= %(dwell_checks)d - 1)"),
}


@needs_cc
@pytest.mark.parametrize("name", sorted(_MISBUILT))
def test_a_kernel_that_records_or_dwells_otherwise_is_refused(
    name, fresh_kernels, monkeypatch
):
    old, new = _MISBUILT[name]
    eqs = find_equilibria(_PLANT)
    want = repr(integrate_to_equilibrium(_PLANT, (1.0, 1.0, 1.0), eqs))
    _clear_kernels()
    texts = [attr for attr in ("_C_LOOP", "_C_ADAPTIVE_ADVANCE")
             if old in getattr(native, attr)]
    assert len(texts) == 1 and getattr(native, texts[0]).count(old) == 1
    monkeypatch.setattr(native, texts[0], getattr(native, texts[0]).replace(old, new))
    assert native._kernel(_FIELD_SOURCE, IntegratorMode.ADAPTIVE, True, True) is None
    assert repr(integrate_to_equilibrium(_PLANT, (1.0, 1.0, 1.0), eqs)) == want


# each a change to the exponent's C text that its probes must refuse: a
# failed window's start dt not put back, a transient window's growth
# counted (a renormalization by a reciprocal is one of _FAILURES)
_MISBUILT_WINDOWS = {
    "start-dt-kept": ("    run->dt = dt;\n", ""),
    "transient-counted": ("if (w >= n_trans)", "if (w + 1 >= n_trans)"),
}


@needs_cc
@pytest.mark.parametrize("name", sorted(_MISBUILT_WINDOWS))
def test_a_kernel_whose_windows_run_otherwise_is_refused(name, fresh_kernels,
                                                         monkeypatch):
    old, new = _MISBUILT_WINDOWS[name]

    def run():
        return repr(largest_lyapunov_exponent(CLASSIC, horizon=3.0, transient=1.0))

    want = run()
    _clear_kernels()
    assert native._C_WINDOWS.count(old) == 1
    monkeypatch.setattr(native, "_C_WINDOWS", native._C_WINDOWS.replace(old, new))
    assert native._kernel(_VARIATIONAL_SOURCE, _ADAPTIVE, True, True) is None
    # the 3-D loop has no windows, and is still built
    assert native._kernel(_FIELD_SOURCE, _ADAPTIVE, True, True) is not None
    assert run() == want


@needs_cc
def test_a_recording_that_cannot_grow_raises_memory_error(fresh_kernels, monkeypatch):
    # a buffer that grows once, to 1 024 rows, and then finds no memory:
    # the probes record 10 rows, a 10 000-step orbit raises
    grow = "grown = realloc("
    assert native._C_LOOP.count(grow) == 1
    monkeypatch.setattr(native, "_C_LOOP", native._C_LOOP.replace(
        grow, "grown = capacity > 1024 ? NULL : realloc("))
    settings = IntegratorSettings(mode=IntegratorMode.FIXED_RK4, dt_init=1e-3,
                                  t_max=10.0)
    with pytest.raises(MemoryError):
        _drive(_FIELD_SOURCE, CLASSIC, _ONES, settings, settings.t_max)
    short = _drive(_FIELD_SOURCE, CLASSIC, _ONES, settings, 1.0)
    assert short.status is TrajectoryStatus.COMPLETED_TSPAN and len(short.times) == 1001


@needs_cc
def test_a_history_that_cannot_grow_raises_memory_error(fresh_kernels, monkeypatch):
    # a history that grows once, to 1 024 entries, and then finds no
    # memory: the probes keep 3 entries, 1 100 windows raise
    grow = "grown = realloc(history"
    assert native._C_WINDOWS.count(grow) == 1
    monkeypatch.setattr(native, "_C_WINDOWS", native._C_WINDOWS.replace(
        grow, "grown = capacity > 1024 ? NULL : realloc(history"))
    window = dict(renorm_interval=0.01, transient=0.0)
    with pytest.raises(MemoryError):
        largest_lyapunov_exponent(CLASSIC, horizon=11.0, **window)
    assert len(largest_lyapunov_exponent(CLASSIC, horizon=10.0, **window).history) == 1000


@needs_cc
def test_kernels_share_one_compiler_lookup(fresh_kernels, monkeypatch):
    lookups = []
    which = shutil.which
    monkeypatch.setattr(shutil, "which",
                        lambda name, *a, **k: lookups.append(name) or which(name, *a, **k))
    for mode in IntegratorMode:
        settings = IntegratorSettings(mode=mode, dt_init=1e-2)
        largest_lyapunov_exponent(CLASSIC, settings=settings, horizon=10.0, transient=1.0)
    assert lookups == ["cc"]
    assert all(native._kernel(_VARIATIONAL_SOURCE, mode, True, True) is not None
               for mode in IntegratorMode)


def test_an_exponent_leaves_no_file_behind(tmp_path):
    # the build directory is removed once the kernel is loaded; cc writes
    # its own temporary files under TMPDIR too
    cwd, tmp = tmp_path / "cwd", tmp_path / "tmp"
    cwd.mkdir()
    tmp.mkdir()
    script = (
        "from lorenzlab import IntegratorMode, SystemParams, integrate\n"
        "from lorenzlab import largest_lyapunov_exponent, native\n"
        "from lorenzlab.chaos import _VARIATIONAL_SOURCE\n"
        "largest_lyapunov_exponent(SystemParams(10.0, 8.0 / 3.0, 28.0), horizon=2.0,\n"
        "                          transient=1.0)\n"
        "integrate(SystemParams(10.0, 8.0 / 3.0, 28.0), (1.0, 1.0, 1.0))\n"
        "kernel = native._kernel(_VARIATIONAL_SOURCE, IntegratorMode.ADAPTIVE, True, True)\n"
        "print(kernel is not None)\n"
    )
    env = dict(os.environ, TMPDIR=str(tmp),
               PYTHONPATH=str(Path(lorenzlab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(native._compiler() is not None)
    assert list(cwd.iterdir()) == [] and list(tmp.iterdir()) == []
