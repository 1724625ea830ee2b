"""Parity of the fused step kernels with the generic steps they replaced.

The reference oracle below is the generic RK4 and Dormand-Prince 5(4) step
over any right-hand side ``f``, with the tableau spelled out as named
constants.  Each fused kernel must return the identical tuple, bit for
bit, for random parameters, states and step sizes, including states whose
norm overflows and states that are not finite.  The norm a step kernel
returns with its new state must be that state's ``norm``, bit for bit.
"""

import math

import pytest
from hypothesis import example, given, settings as hsettings, strategies as st

from lorenzlab import (
    SystemParams,
    apply_symmetry,
    largest_lyapunov_exponent,
    vector_field,
)
from lorenzlab.chaos import _VARIATIONAL_SOURCE
from lorenzlab.integrator import _kernels
from lorenzlab.model import _FIELD_SOURCE

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
    # is compensated, which the kernels deliberately do not follow)
    total = 0.0
    for v in values:
        total = total + v
    return total


def _lorenz_rhs(p):
    a, b, cm, n1, pp = p.a, p.b, p.c + p.M, p.N - 1.0, 1.0 - p.P

    def rhs(s):
        x, y, z = s
        return (a * (y - x), cm * x + n1 * y - pp * (x * z), -b * z + x * y)

    return rhs


def _variational_rhs(p):
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


def _rk4_step(f, s, dt):
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


def _dp54_step(f, s, k1, dt):
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


def _norm(s):
    return math.sqrt(_left_sum(v * v for v in s))


def _dp54_with_norm(f, s, k1, dt):
    # the fused dp54's shape: the proposal's norm comes last
    proposal, k7, err = _dp54_step(f, s, k1, dt)
    return proposal, k7, err, _norm(proposal)


def _bits(value):
    """Floats as text that tells every double apart (signed zeros too);
    all NaNs read alike."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return repr(value)


def _same_values(u, v):
    """Equal as values, so 0.0 matches -0.0, and NaN matches NaN."""
    return len(u) == len(v) and all(a == b or (a != a and b != b) for a, b in zip(u, v))


def _outcome(step, *args):
    # ``** 2`` raises OverflowError where a finite square overflows; the
    # kernels keep it, so raising is part of the behaviour compared
    try:
        return _bits(step(*args))
    except OverflowError:
        return "OverflowError"


FIELDS = {
    "lorenz": (_FIELD_SOURCE, _lorenz_rhs),
    "variational": (_VARIATIONAL_SOURCE, _variational_rhs),
}

params_st = st.builds(
    SystemParams,
    *[st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)] * 6,
)
component = st.one_of(
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),  # norms up to overflow
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e200, -1e200]),
)
dt_st = st.one_of(
    st.floats(1e-9, 1.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-3, 0.01, 0.5, 5.0]),
)


@hsettings(max_examples=400, deadline=None)
@given(
    name=st.sampled_from(sorted(FIELDS)),
    p=params_st,
    components=st.lists(component, min_size=6, max_size=6),
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
def test_fused_kernels_match_the_generic_steps(name, p, components, dt):
    source, reference_rhs = FIELDS[name]
    kernels = _kernels(source, p)
    f = reference_rhs(p)
    s = tuple(components[: len(source)])
    k1 = f(s)
    assert _bits(kernels.rhs(s)) == _bits(k1)
    state, nrm = kernels.rk4(s, dt)
    assert _bits(state) == _bits(_rk4_step(f, s, dt))
    assert _bits(nrm) == _bits(kernels.norm(state))
    assert _outcome(kernels.dp54, s, k1, dt) == _outcome(_dp54_with_norm, f, s, k1, dt)
    assert _bits(kernels.norm(s)) == _bits(_norm(s))


@hsettings(max_examples=200, deadline=None)
@given(p=params_st, s=st.tuples(*[st.floats(-1e3, 1e3, allow_nan=False)] * 3))
def test_lorenz_kernels_evaluate_vector_field(p, s):
    assert _bits(_kernels(_FIELD_SOURCE, p).rhs(s)) == _bits(tuple(vector_field(p, s)))


@hsettings(max_examples=200, deadline=None)
@given(
    p=params_st,
    s=st.tuples(*[st.floats(-1e3, 1e3, allow_nan=False)] * 3),
    dt=dt_st,
)
def test_adaptive_step_of_a_mirrored_seed_is_mirrored(p, s, dt):
    kernels = _kernels(_FIELD_SOURCE, p)
    m = tuple(apply_symmetry(s))
    try:
        proposal, k7, err, nrm = kernels.dp54(s, kernels.rhs(s), dt)
    except OverflowError:
        with pytest.raises(OverflowError):
            kernels.dp54(m, kernels.rhs(m), dt)
        return
    m_proposal, m_k7, m_err, m_nrm = kernels.dp54(m, kernels.rhs(m), dt)
    # as values, like the trajectory tests: x + (-0.0) is 0.0, so a zero
    # need not mirror its sign
    assert _same_values(m_proposal, apply_symmetry(proposal))
    assert _same_values(m_k7, apply_symmetry(k7))
    assert _same_values((m_err, m_nrm), (err, nrm))


def test_default_classic_lorenz_exponent_is_pinned():
    est = largest_lyapunov_exponent(SystemParams(10.0, 8.0 / 3.0, 28.0))
    assert repr(est.lambda1) == "0.9143700698706513"
