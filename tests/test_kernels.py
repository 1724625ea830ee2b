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
"""

import itertools
import math
import re
import sys

import pytest
from hypothesis import example, given, settings as hsettings, strategies as st, target

from lorenzlab import (
    IntegratorMode,
    IntegratorSettings,
    SystemParams,
    apply_symmetry,
    largest_lyapunov_exponent,
    vector_field,
)
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
