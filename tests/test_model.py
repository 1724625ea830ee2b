import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lorenzlab import (
    Preset,
    State,
    SystemParams,
    apply_symmetry,
    from_preset,
    jacobian,
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
    values = [float(v) + 0.5 for v in range(6)]  # fresh float objects
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
