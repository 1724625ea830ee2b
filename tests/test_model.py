import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorenzlab import (
    IntegratorMode,
    IntegratorSettings,
    Preset,
    State,
    SweepAxis,
    SystemParams,
    apply_symmetry,
    classify_origin,
    corollary_check,
    find_equilibria,
    from_preset,
    integrate,
    jacobian,
    pitchfork_locus_for_preset,
    regime_classify,
    vector_field,
)

import sampling

coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
param = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def test_field_hand_values_classic():
    p = SystemParams(10.0, 8.0 / 3.0, 28.0)
    assert vector_field(p, State(1.0, 1.0, 1.0)) == State(0.0, 26.0, 1.0 - 8.0 / 3.0)


def test_field_hand_values_with_gains():
    # a(y-x) = 1, (c+M)x + (N-1)y - (1-P)xz = 2 - 2 - 3, -bz + xy = -9 + 2
    p = SystemParams(1.0, 3.0, 2.0)
    assert vector_field(p, State(1.0, 2.0, 3.0)) == State(1.0, -3.0, -7.0)
    q = SystemParams(1.0, 3.0, 2.0, M=1.0, N=2.0, P=0.5)
    f = vector_field(q, State(1.0, 2.0, 3.0))
    assert f == State(1.0, 3.0 * 1.0 + 1.0 * 2.0 - 0.5 * 3.0, -7.0)


@pytest.mark.parametrize(
    "preset,abc,gains",
    [
        (Preset.LORENZ, (10.0, 8.0 / 3.0, 28.0), (0.0, 0.0, 0.0)),
        (Preset.CHEN, (35.0, 3.0, 28.0), (-35.0, 29.0, 0.0)),
        (Preset.LU, (36.0, 3.0, 20.0), (-20.0, 21.0, 0.0)),
        (Preset.T_SYSTEM, (2.0, 1.0, 3.0), (-2.0, 1.0, -1.0)),
    ],
)
def test_preset_gains(preset, abc, gains):
    p = from_preset(preset, *abc)
    assert (p.M, p.N, p.P) == gains
    assert (p.a, p.b, p.c) == abc


@pytest.mark.parametrize(
    "call",
    [
        lambda preset: from_preset(preset, 10.0, 8.0 / 3.0, 28.0),
        lambda preset: pitchfork_locus_for_preset(preset, 10.0),
        lambda preset: corollary_check(preset, 1.0, 3.0, 2.0),
    ],
    ids=["from_preset", "pitchfork_locus_for_preset", "corollary_check"],
)
def test_a_preset_name_is_not_a_preset(call):
    # presets are compared by identity, so the enum's value string is none
    with pytest.raises(TypeError, match="unknown preset 'lorenz'"):
        call("lorenz")


@given(a=param, b=param, c=param, x=coord, y=coord, z=coord)
def test_lorenz_preset_is_plain_lorenz(a, b, c, x, y, z):
    """Zero gains must reproduce the classical right-hand side bit for bit."""
    p = from_preset(Preset.LORENZ, a, b, c)
    f = vector_field(p, State(x, y, z))
    assert f.x == a * (y - x)
    assert f.y == c * x - y - x * z
    assert f.z == -b * z + x * y


@given(
    a=param, b=param, c=param, M=param, N=param, P=param,
    x=coord, y=coord, z=coord,
)
def test_mirror_equivariance_is_exact(a, b, c, M, N, P, x, y, z):
    p = SystemParams(a=a, b=b, c=c, M=M, N=N, P=P)
    s = State(x, y, z)
    f = vector_field(p, s)
    g = vector_field(p, apply_symmetry(s))
    # sign flips commute with every rounding step, so this is equality
    assert g == State(-f.x, -f.y, f.z)


@given(x=coord, y=coord, z=coord)
def test_symmetry_is_an_involution(x, y, z):
    s = State(x, y, z)
    assert apply_symmetry(apply_symmetry(s)) == s


def _normal(hi):
    """0 or a float of magnitude in [1e-10, hi]: a short run from such
    values stays far above the subnormal range, where scaling by a power
    of 2 rounds."""
    magnitude = st.floats(1e-10, hi)
    return st.just(0.0) | st.builds(math.copysign, magnitude, st.sampled_from([-1.0, 1.0]))


def _spectra(eqs):
    pair = () if eqs.pair is None else eqs.pair
    return [
        (repr(e.eigenvalues), e.stable_dim, e.unstable_dim, e.center_dim)
        for e in (eqs.origin, *pair)
    ]


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(-2, 2),
    a=st.floats(0.1, 20.0),
    b=st.floats(0.1, 10.0),
    c=_normal(20.0),
    M=_normal(20.0),
    N=_normal(5.0),
    u0=st.tuples(_normal(50.0), _normal(50.0), _normal(50.0)),
    t_max=st.floats(0.01, 0.5),
)
def test_p_is_a_change_of_scale(k, a, b, c, M, N, u0, t_max):
    # P = 1 - 4^k makes s = (1 - P)^(-1/2) = 2^-k, so (x, y, z) = (s X,
    # s Y, s^2 Z) maps the P = 0 field onto the P field and every product
    # in the field and in RK4 scales exactly: the runs agree bit for bit
    # (a subnormal value would round when scaled, which _normal keeps out)
    s = 2.0**-k
    p0 = SystemParams(a, b, c, M, N, 0.0)
    p = dataclasses.replace(p0, P=1.0 - 4.0**k)
    rk4 = IntegratorSettings(
        mode=IntegratorMode.FIXED_RK4, dt_init=0.01, t_max=t_max, blowup_norm=1e100
    )
    x0, y0, z0 = u0
    base = integrate(p0, u0, rk4)
    run = integrate(p, (s * x0, s * y0, s * s * z0), rk4)
    assert run.status is base.status
    assert repr(run.times) == repr(base.times)
    assert repr(run.xs) == repr(tuple(s * v for v in base.xs))
    assert repr(run.ys) == repr(tuple(s * v for v in base.ys))
    assert repr(run.zs) == repr(tuple(s * s * v for v in base.zs))
    # the spectra and their counts do not depend on P; E+- scale exactly
    eqs0, eqs = find_equilibria(p0), find_equilibria(p)
    assert eqs.kind is eqs0.kind
    assert _spectra(eqs) == _spectra(eqs0)
    if eqs0.pair is not None:
        for e, e0 in zip(eqs.pair, eqs0.pair):
            x, y, z = e0.location
            assert repr(e.location) == repr(State(s * x, s * y, s * s * z))
    assert classify_origin(p) is classify_origin(p0)
    assert regime_classify(p) is regime_classify(p0)


def test_jacobian_matches_centered_differences():
    """The field is affine in each single coordinate, so the centered
    quotient is exact up to rounding and 1e-6 absolute is comfortable."""
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = sampling.any_params(rng)
        s = sampling.random_state(rng, 50.0)
        J = jacobian(p, s)
        assert J.shape == (3, 3)
        for j in range(3):
            h = 1e-4 * (1.0 + abs(s[j]))
            up = list(s)
            dn = list(s)
            up[j] += h
            dn[j] -= h
            fu = vector_field(p, State(*up))
            fd = vector_field(p, State(*dn))
            for i in range(3):
                quotient = (fu[i] - fd[i]) / (2.0 * h)
                assert J[i, j] == pytest.approx(quotient, abs=1e-6)


def test_params_are_frozen_floats():
    p = SystemParams(1, 3, 2)
    assert isinstance(p.a, float) and p.a == 1.0
    assert (p.M, p.N, p.P) == (0.0, 0.0, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.a = 2.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_nonfinite(bad):
    with pytest.raises(ValueError):
        SystemParams(10.0, bad, 28.0)
    with pytest.raises(ValueError):
        SystemParams(10.0, 8.0 / 3.0, 28.0, P=bad)


FIELDS = ("a", "b", "c", "M", "N", "P")


def test_params_keep_exact_floats_as_given():
    # fresh float objects, with a finite sum and with one that overflows
    for values in (
        [float(v) + 0.5 for v in range(6)],
        [1e308 - float(v) * 1e292 for v in range(6)],
    ):
        p = SystemParams(*values)
        assert all(getattr(p, name) is v for name, v in zip(FIELDS, values))


@pytest.mark.parametrize(
    "raw", [3, True, np.float64(2.5), np.float32(0.1), np.int64(-7), np.bool_(False)]
)
def test_params_coerce_other_reals_to_equal_floats(raw):
    for name in FIELDS:
        p = SystemParams(**{**dict(a=1.0, b=2.0, c=3.0), name: raw})
        value = getattr(p, name)
        assert type(value) is float and value == float(raw)


@pytest.mark.parametrize("index", range(6))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_name_the_first_nonfinite_field(index, bad):
    # every later field is bad too; the message names the first, in
    # a, b, c, M, N, P order
    values = [1.0] * index + [bad] * (6 - index)
    message = f"parameter {FIELDS[index]} must be finite, got {bad!r}"
    with pytest.raises(ValueError) as raised:
        SystemParams(*values)
    assert str(raised.value) == message


def test_state_field_order():
    s = State(1.0, 2.0, 3.0)
    assert (s.x, s.y, s.z) == (1.0, 2.0, 3.0)
    assert tuple(s) == (1.0, 2.0, 3.0)


def test_records_name_the_first_bad_field_in_check_order():
    # the name or mode first, then the float fields in declaration order,
    # then the integer field
    with pytest.raises(ValueError, match="^dt_init must be positive and finite$"):
        IntegratorSettings(dt_init=-1.0, blowup_norm="x")
    with pytest.raises(ValueError, match="^blowup_norm must be positive and finite$"):
        IntegratorSettings(max_steps=0, blowup_norm=-1.0)
    with pytest.raises(ValueError, match="^axis start must be a number, got 'x'$"):
        SweepAxis("M", "x", 1.0, 1.5)
