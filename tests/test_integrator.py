import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings as hsettings, strategies as st

from lorenzlab import (
    Branch,
    EquilibriumKind,
    IntegratorMode,
    IntegratorSettings,
    Preset,
    State,
    SystemParams,
    TrajectoryStatus,
    apply_symmetry,
    find_equilibria,
    from_preset,
    integrate,
    integrate_to_equilibrium,
    trace_heteroclinic,
    trajectory_csv,
    unstable_direction_at_origin,
    v_gradient,
    v_value,
)
from lorenzlab import integrator, native
from lorenzlab.chaos import _VARIATIONAL_SOURCE
from lorenzlab.integrator import (
    _LOOP_GLOBALS,
    _dp54_block,
    _drive,
    _fold_unit_gains,
    _loop_source,
    _rk4_block,
)
from lorenzlab.model import _FIELD_SOURCE

import reference
import sampling

CLASSIC = SystemParams(10.0, 8.0 / 3.0, 28.0)
REGULAR = SystemParams(1.0, 3.0, 2.0)


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(dt_init=0.0)
    with pytest.raises(ValueError):
        IntegratorSettings(rel_tol=-1e-9)
    # an infinite tolerance would accept every step, however wild
    for tolerances in ({"rel_tol": math.inf}, {"abs_tol": math.inf},
                       {"rel_tol": math.nan}, {"abs_tol": math.nan}):
        with pytest.raises(ValueError, match="tolerances must be positive and finite"):
            IntegratorSettings(**tolerances)
    with pytest.raises(ValueError):
        IntegratorSettings(t_max=0.0)
    with pytest.raises(ValueError):
        IntegratorSettings(max_steps=0)
    # a non-integer budget would compare false forever (NaN, inf) or
    # round up silently (2.5)
    for steps in (math.nan, math.inf, 2.5):
        message = f"^max_steps must be an integer, got {steps!r}$"
        with pytest.raises(ValueError, match=message):
            IntegratorSettings(max_steps=steps)
    # modes are compared by identity, so the enum's value string is none
    for mode in ("fixed_rk4", "bogus"):
        with pytest.raises(TypeError, match=f"^unknown integrator mode '{mode}'$"):
            IntegratorSettings(mode=mode)
    with pytest.raises(ValueError):
        IntegratorSettings(blowup_norm=-1.0)
    # divergence is one comparison against the norm, which is infinite
    # for any non-finite state, so the bound itself must be finite
    with pytest.raises(ValueError):
        IntegratorSettings(blowup_norm=math.inf)


def test_settings_coerce_ints_to_floats():
    tr = integrate(CLASSIC, (1.0, 1.0, 1.0), IntegratorSettings(t_max=2))
    assert type(tr.times[-1]) is float and repr(tr.times[-1]) == "2.0"
    # floats are written with repr, so the last row starts "2.0,", not "2,"
    assert trajectory_csv(tr).splitlines()[-1].startswith("2.0,")
    coerced = IntegratorSettings(dt_init=1, rel_tol=1, abs_tol=1, t_max=3,
                                 blowup_norm=10**6)
    for name in ("dt_init", "rel_tol", "abs_tol", "t_max", "blowup_norm"):
        assert type(getattr(coerced, name)) is float
    assert coerced.blowup_norm == 1e6
    # an exact float is kept as the object given
    t_max = 7.3
    assert IntegratorSettings(t_max=t_max).t_max is t_max


def test_adaptive_run_is_deterministic():
    st = IntegratorSettings(t_max=5.0)
    t1 = integrate(CLASSIC, State(1.0, 2.0, 3.0), st)
    t2 = integrate(CLASSIC, State(1.0, 2.0, 3.0), st)
    assert t1.times == t2.times
    assert t1.states == t2.states
    assert t1.status is t2.status


def test_completed_run_lands_on_t_max_exactly():
    for st in (
        IntegratorSettings(t_max=7.3),
        IntegratorSettings(mode=IntegratorMode.FIXED_RK4, dt_init=1e-2, t_max=7.3),
    ):
        tr = integrate(REGULAR, State(1.0, 2.0, 3.0), st)
        assert tr.status is TrajectoryStatus.COMPLETED_TSPAN
        assert tr.times[-1] == 7.3
        assert all(b > a for a, b in zip(tr.times, tr.times[1:]))


def test_fixed_rk4_order_is_at_least_four_minus_slack():
    """Endpoint error against half-step references should scale like dt^4;
    demand an observed order of 3.7 to leave room for rounding."""

    def endpoint(dt):
        st = IntegratorSettings(
            mode=IntegratorMode.FIXED_RK4, dt_init=dt, t_max=1.0
        )
        return integrate(REGULAR, State(1.0, 1.0, 1.0), st).states[-1]

    e1 = math.dist(endpoint(1e-2), endpoint(5e-3))
    e2 = math.dist(endpoint(5e-3), endpoint(2.5e-3))
    order = math.log2(e1 / e2)
    assert order >= 3.7


def test_adaptive_tracks_fixed_reference():
    st_a = IntegratorSettings(t_max=10.0, rel_tol=1e-10, abs_tol=1e-12)
    st_f = IntegratorSettings(
        mode=IntegratorMode.FIXED_RK4, dt_init=2e-4, t_max=10.0
    )
    ta = integrate(REGULAR, State(4.0, -3.0, 11.0), st_a)
    tf = integrate(REGULAR, State(4.0, -3.0, 11.0), st_f)
    assert math.dist(ta.states[-1], tf.states[-1]) < 1e-7


def _horner(coeffs: list[float], h: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * h + c
    return acc


def _taylor_flow(p, u0, span, order=20):
    """The model field's flow from u0 over ``span``: the Taylor series of
    ``order``, its coefficients from Cauchy-product recurrences (the field
    is quadratic), summed over equal sub-steps of at most 1/128."""
    a, cm, n1, pp, nb = p.a, p.c + p.M, p.N - 1.0, 1.0 - p.P, -p.b
    n = math.ceil(span * 128)
    h = span / n
    u = u0
    for _ in range(n):
        x, y, z = [u[0]], [u[1]], [u[2]]
        for k in range(order):
            xy = sum(x[j] * y[k - j] for j in range(k + 1))
            xz = sum(x[j] * z[k - j] for j in range(k + 1))
            x.append(a * (y[k] - x[k]) / (k + 1))
            y.append((cm * x[k] + n1 * y[k] - pp * xz) / (k + 1))
            z.append((nb * z[k] + xy) / (k + 1))
        u = (_horner(x, h), _horner(y, h), _horner(z, h))
    return u


@pytest.mark.parametrize("mode", list(IntegratorMode))
@pytest.mark.parametrize(
    "p, bound", [(REGULAR, 1e-8), (CLASSIC, 1e-7)], ids=["regular", "classic"]
)
def test_states_match_a_taylor_series_oracle(p, bound, mode):
    # RK4 at dt = 1e-3 and DP54 at the default tolerances, over spans of
    # 0.1-0.5, relative to 1 + |u|.  Measured on these starts before the
    # bounds were set: at most 3.5e-10 (RK4) and 7.6e-10 (DP54) for REGULAR,
    # 3.9e-9 and 6.8e-9 for CLASSIC; the series itself moved by at most
    # 1.8e-15 at order 25 with twice the sub-steps.
    rng = np.random.default_rng(1)
    for _ in range(12):
        u0 = (rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0),
              rng.uniform(5.0, 40.0))
        for span in (0.1, 0.25, 0.5):
            tr = integrate(p, u0, IntegratorSettings(mode=mode, t_max=span))
            want = _taylor_flow(p, u0, span)
            err = max(abs(u - v) for u, v in zip((tr.xs[-1], tr.ys[-1], tr.zs[-1]), want))
            assert err <= bound * (1.0 + math.hypot(*want))


def test_mirror_trajectories_match_exactly():
    """Mirrored starts give bitwise-mirrored trajectories in both modes:
    every update is built from sign-symmetric arithmetic."""
    for st in (
        IntegratorSettings(t_max=10.0),
        IntegratorSettings(mode=IntegratorMode.FIXED_RK4, dt_init=1e-3, t_max=2.0),
    ):
        tp = integrate(CLASSIC, State(1.0, 2.0, 3.0), st)
        tm = integrate(CLASSIC, State(-1.0, -2.0, 3.0), st)
        assert tp.times == tm.times
        assert len(tp.states) == len(tm.states)
        for sp, sm in zip(tp.states, tm.states):
            assert sm == apply_symmetry(sp)


def test_no_divergence_under_convergence_hypotheses():
    rng = np.random.default_rng(103)
    for _ in range(20):
        p = sampling.conv_ok_params(rng)
        u0 = sampling.random_state(rng, 50.0 / math.sqrt(3.0))
        tr = integrate(p, u0, IntegratorSettings(t_max=50.0))
        assert tr.status is TrajectoryStatus.COMPLETED_TSPAN


def test_v_never_climbs_along_trajectories():
    rng = np.random.default_rng(107)
    st = IntegratorSettings(t_max=30.0)
    for _ in range(10):
        p = sampling.lemma_ok_params(rng)
        u0 = sampling.random_state(rng, 20.0)
        tr = integrate(p, u0, st)
        for prev, cur in zip(tr.states, tr.states[1:]):
            tau = st.rel_tol * math.hypot(*prev) + st.abs_tol
            slack = 10.0 * tau * (1.0 + math.hypot(*v_gradient(p, prev)))
            assert v_value(p, cur) <= v_value(p, prev) + slack


def test_capture_at_pair():
    eqs = find_equilibria(REGULAR)
    out = integrate_to_equilibrium(REGULAR, State(1.0, 1.0, 1.0), eqs)
    assert out.trajectory.status is TrajectoryStatus.CAPTURED_EQUILIBRIUM
    assert out.terminal is not None
    assert out.terminal.location == eqs.pair[0].location
    assert out.final_distance <= 1e-6
    assert out.trajectory.times[-1] <= 200.0


def test_capture_starting_at_the_target():
    """Seeding exactly on the equilibrium must count as captured, with the
    dwell window squeezed into whatever time remains."""
    eqs = find_equilibria(REGULAR)
    loc = eqs.pair[0].location
    out = integrate_to_equilibrium(REGULAR, loc, eqs)
    assert out.trajectory.status is TrajectoryStatus.CAPTURED_EQUILIBRIUM
    assert out.terminal.location == loc
    # exact zero is not attainable: the stored location carries rounding,
    # so the orbit drifts toward the true root; within the ball is the deal
    assert out.final_distance <= 1e-6


@pytest.mark.parametrize("radius", [-1.0, -5e-324, math.nan, -math.inf])
def test_capture_radius_must_be_non_negative(radius):
    eqs = find_equilibria(REGULAR)
    with pytest.raises(ValueError, match="capture_radius must be non-negative"):
        integrate_to_equilibrium(REGULAR, State(1.0, 1.0, 1.0), eqs, radius)


def test_capture_radius_must_be_finite():
    # an infinite ball would capture any orbit at its first ten states
    eqs = find_equilibria(REGULAR)
    with pytest.raises(ValueError, match="^capture_radius must be finite, got inf$"):
        integrate_to_equilibrium(REGULAR, State(1.0, 1.0, 1.0), eqs, math.inf)


def test_loose_ball_without_dwell_is_not_capture():
    # the classic attractor wanders near the pair but never settles, so a
    # radius-1 ball is visited yet the dwell requirement keeps it running
    eqs = find_equilibria(CLASSIC)
    out = integrate_to_equilibrium(
        CLASSIC,
        State(1.0, 1.0, 1.0),
        eqs,
        capture_radius=1.0,
        settings=IntegratorSettings(t_max=20.0),
    )
    assert out.trajectory.status is TrajectoryStatus.COMPLETED_TSPAN
    assert out.terminal is None
    # nearest-target distance is reported even for uncaptured runs; on the
    # attractor the endpoint is well outside any settling neighbourhood
    assert out.final_distance is not None and out.final_distance > 1e-3


def test_divergence_detection():
    p = SystemParams(10.0, 8.0 / 3.0, 28.0, P=2.0)
    tr = integrate(p, State(1.0, 1.0, 1.0), IntegratorSettings(t_max=10.0))
    assert tr.status is TrajectoryStatus.DIVERGED
    last = tr.states[-1]
    assert not all(math.isfinite(v) for v in last) or math.hypot(*last) > 1e6


def test_step_limit_status():
    # max_steps bounds attempts, so rejected trials count toward the limit
    tr = integrate(CLASSIC, State(1.0, 1.0, 1.0), IntegratorSettings(max_steps=10))
    assert tr.status is TrajectoryStatus.STEP_LIMIT
    assert 2 <= len(tr.states) <= 11
    assert len(tr.times) == len(tr.states)


def test_trajectory_records_initial_state():
    tr = integrate(REGULAR, State(1.0, 2.0, 3.0), IntegratorSettings(t_max=1.0))
    assert tr.times[0] == 0.0
    assert tr.states[0] == State(1.0, 2.0, 3.0)


def test_capture_ignores_missing_pair():
    p = SystemParams(10.0, 8.0 / 3.0, 0.5)
    eqs = find_equilibria(p)
    assert eqs.kind is EquilibriumKind.ORIGIN_ONLY
    out = integrate_to_equilibrium(p, State(1.0, 1.0, 1.0), eqs)
    assert out.trajectory.status is TrajectoryStatus.CAPTURED_EQUILIBRIUM
    assert out.terminal.location == State(0.0, 0.0, 0.0)


def test_overflowing_error_estimate_ends_the_run_as_diverged():
    # a step of 1e5 squares a finite error component beyond the float range
    p = SystemParams(10.0, 2.66, 28.0)
    st = IntegratorSettings(dt_init=1e5, t_max=1e6)
    tr = integrate(p, State(1.0, 1.0, 1.0), st)
    assert tr.status is TrajectoryStatus.DIVERGED
    assert tr.states == (State(1.0, 1.0, 1.0),)
    assert tr.times == (0.0,)
    eqs = find_equilibria(p)
    out = integrate_to_equilibrium(p, State(1.0, 1.0, 1.0), eqs, settings=st)
    assert out.trajectory.status is TrajectoryStatus.DIVERGED
    assert out.terminal is None


def test_distance_beyond_the_float_range_is_infinite():
    # the initial state diverges, and its distance to the targets squares
    # a difference of 1e200
    p = SystemParams(1.0, 3.0, 2.0)
    st = IntegratorSettings(blowup_norm=1e300)
    out = integrate_to_equilibrium(
        p, State(1e200, 0.0, 0.0), find_equilibria(p), settings=st
    )
    assert out.trajectory.status is TrajectoryStatus.DIVERGED
    assert out.final_distance == math.inf


# ------------------------------------------------- dwell capture pre-filter

_tiny_and_huge = st.sampled_from([0.0, 5e-324, 1e-300, 1e-160, 1e150, 1.0])


@hsettings(max_examples=1000, deadline=None)
@given(
    s=st.tuples(*[st.one_of(st.floats(-10.0, 10.0), _tiny_and_huge)] * 3),
    t=st.tuples(*[st.one_of(st.floats(-10.0, 10.0), _tiny_and_huge)] * 3),
    radius=st.one_of(st.floats(0.0, 20.0), _tiny_and_huge, st.floats(0.0, 1e-150)),
    i=st.integers(0, 2),
)
@example(s=(0.0, 0.0, 1e-200), t=(0.0, 0.0, 0.0), radius=0.0, i=2)
@example(s=(0.0, 0.0, 2e-170), t=(0.0, 0.0, 0.0), radius=1e-170, i=2)
def test_capture_reach_only_skips_targets_outside_the_ball(s, t, radius, i):
    # a point just beyond the reach on axis i, and the drawn point
    reach = integrator._capture_reach(radius)
    nudged = list(t)
    nudged[i] = t[i] + math.nextafter(reach, math.inf)
    for point in (s, tuple(nudged)):
        if any(abs(u - v) > reach for u, v in zip(point, t)):
            assert integrator._dist(point, t) > radius


_special_coordinates = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e150, -1e150, 1e300, -1e300,
     math.inf, -math.inf, math.nan]
)


@pytest.mark.parametrize("radius", [0.0, 1e-300, 1e-6, 2.0])
@hsettings(max_examples=300, deadline=None)
@given(
    t=st.one_of(_special_coordinates, st.floats()),
    near=st.floats(-4.0, 4.0),
    free=st.floats(),
)
def test_reach_bounds_hold_every_state_the_subtraction_accepts(radius, t, near, free):
    # each bound, t -+ reach, one ulp on either side of each, and drawn
    # states: anywhere, within a few units of t, and within a few reaches
    reach = integrator._capture_reach(radius)
    _assert_reach_bounds_hold(t, reach, [free, t + near, t + near * reach])


@pytest.mark.parametrize("t, radius", [(1.0, 1.0), (27.0, 27.0), (2.0, 2.0), (-2.0, 2.0)])
def test_reach_bounds_hold_where_the_target_coordinate_equals_the_radius(t, radius):
    # t - reach is a tiny number there, many of its ulps from where
    # abs(v - t) <= reach flips; the states from 0 to t all lie in the ball
    _assert_reach_bounds_hold(t, integrator._capture_reach(radius), [0.0, -0.0, t / 2.0, t])


def _assert_reach_bounds_hold(t, reach, states):
    """Every state within reach of t as the subtraction rounds, and each
    bound, t -+ reach and their neighbours that are, lie in t's box; a
    NaN state, or any state for a t that is not finite, does not."""
    lo, hi = integrator._reach_bounds(t, reach)
    probes = list(states)
    for b in (lo, hi, t - reach, t + reach):
        probes += [math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)]
    for v in probes:
        if abs(v - t) <= reach:
            assert lo <= v <= hi
        if math.isnan(v) or not math.isfinite(t):
            assert not lo <= v <= hi


@pytest.mark.parametrize("t", [0.0, -5e-324, -1e300, math.inf, -math.inf, math.nan])
def test_reach_bounds_without_a_reach_still_refuse_a_non_finite_target(t):
    # an infinite reach, which switches the pre-filter off, passes every
    # state but a NaN one, and never one for a target that is not finite
    lo, hi = integrator._reach_bounds(t, math.inf)
    want = (-math.inf, math.inf) if math.isfinite(t) else (math.inf, -math.inf)
    assert (lo, hi) == want


def _capture_outcome(out):
    tr = out.trajectory
    return (
        tr.status,
        None if out.terminal is None else out.terminal.location,
        repr(out.final_distance),
        tr.times,
        tuple(tuple(map(repr, s)) for s in tr.states),
    )


def _with_and_without_prefilter(run):
    """Outcome of ``run`` and of the same run with every target's distance
    computed at every check, as the dwell counter did before the pre-filter."""
    got = _capture_outcome(run())
    with pytest.MonkeyPatch.context() as m:
        m.setattr(integrator, "_capture_reach", lambda radius: math.inf)
        want = _capture_outcome(run())
    return got, want


@hsettings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(
        [
            REGULAR,
            CLASSIC,
            SystemParams(10.0, 8.0 / 3.0, 0.5),
            SystemParams(2.0, 5.0, 3.0, M=0.5),
        ]
    ),
    u0=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
    radius=st.sampled_from([0.0, 1e-300, 1e-6, 1e-3, 0.3, 2.0]),
    fixed=st.booleans(),
)
def test_dwell_prefilter_matches_the_nearest_target_oracle(p, u0, radius, fixed):
    eqs = find_equilibria(p)
    mode = IntegratorMode.FIXED_RK4 if fixed else IntegratorMode.ADAPTIVE
    settings = IntegratorSettings(mode=mode, dt_init=1e-2, t_max=15.0)
    got, want = _with_and_without_prefilter(
        lambda: integrate_to_equilibrium(
            p, u0, eqs, capture_radius=radius, settings=settings
        )
    )
    assert got == want


@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize(
    "settings",
    [
        IntegratorSettings(),
        IntegratorSettings(mode=IntegratorMode.FIXED_RK4, dt_init=1e-3, t_max=60.0),
    ],
    ids=["adaptive", "rk4"],
)
def test_dwell_prefilter_matches_the_oracle_on_heteroclinic_branches(branch, settings):
    # the certified acceptance slice and random certified slices, each
    # branch run from its seed on the unstable manifold as tracing does
    rng = np.random.default_rng(211)
    for p in (REGULAR, *(sampling.het_ok_params(rng) for _ in range(3))):
        u0 = trace_heteroclinic(p, branch, settings=settings).trajectory.states[0]
        eqs = find_equilibria(p)
        got, want = _with_and_without_prefilter(
            lambda: integrate_to_equilibrium(
                p, u0, eqs, settings=settings, include_origin=False
            )
        )
        assert got == want
        assert got[0] is TrajectoryStatus.CAPTURED_EQUILIBRIUM


@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize("p, radius", [(REGULAR, 1.0), (CLASSIC, 27.0)],
                         ids=["regular", "classic"])
def test_dwell_prefilter_matches_the_oracle_where_e_z_equals_the_radius(branch, p, radius):
    # E+- lie at z = 1.0 on REGULAR and z = 27.0 on CLASSIC, so each
    # target's z box reaches down to about 0 there
    eqs = find_equilibria(p)
    assert eqs.pair[0].location[2] == radius
    u0 = trace_heteroclinic(p, branch).trajectory.states[0]
    got, want = _with_and_without_prefilter(
        lambda: integrate_to_equilibrium(
            p, u0, eqs, capture_radius=radius, include_origin=False
        )
    )
    assert got == want


# ------------------------------------------- the stop policy, against its past

# The frozen copy of the loop from when it wrote its stop policy twice
# (tests/reference.py), on the generic steps.  The generated loop must end
# every run the same way, bit for bit, in every field a caller reads.


# each pair of unit-gain flags: n1 = -1.0 and pp = 1.0 (the first four),
# n1 = -1.0 only (P = 2), pp = 1.0 only (N = 0.5), and both from gains so
# small that they round away
_DRIVE_PARAMS = [
    REGULAR,
    CLASSIC,
    SystemParams(10.0, 8.0 / 3.0, 0.5),
    SystemParams(2.0, 5.0, 3.0, M=0.5),
    SystemParams(10.0, 8.0 / 3.0, 28.0, P=2.0),
    SystemParams(2.0, 5.0, 3.0, N=0.5),
    SystemParams(10.0, 8.0 / 3.0, 28.0, N=1e-300, P=1e-300),
]

# the fields by dimension: the model, the exponent's, and the tests' 12-D
_SOURCES = {3: _FIELD_SOURCE, 6: _VARIATIONAL_SOURCE, 12: reference.SPECTRUM_SOURCE}


def _drive_case(p, start, *, fixed, targets, tangents, budget, t_end, dt_init,
                blowup_norm, **kwargs):
    """(field source, params, u0, settings, t_end, keyword arguments) of one
    ``_drive`` run, with 0, 1 or 3 tangents started along the axes."""
    axes = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)[: 3 * tangents]
    u0 = (*start, *axes)
    field_source = _SOURCES[len(u0)]
    settings = IntegratorSettings(
        mode=IntegratorMode.FIXED_RK4 if fixed else IntegratorMode.ADAPTIVE,
        dt_init=dt_init,
        max_steps=budget,
        blowup_norm=blowup_norm,
    )
    return field_source, p, u0, settings, t_end, dict(kwargs, targets=targets)


def _locations(p):
    """The origin and, where it exists, the pair."""
    eqs = find_equilibria(p)
    return [tuple(e.location) for e in (eqs.origin, *(eqs.pair or ()))]


@st.composite
def _drive_cases(draw):
    p = draw(st.sampled_from(_DRIVE_PARAMS))
    locations = _locations(p)
    # zero to three targets: none, the origin, the pair, or all three
    targets = draw(st.sampled_from([None, locations[:1], locations[1:] or None,
                                    locations]))
    kind = draw(st.sampled_from(["any", "in_ball", "in_ball", "diverged", "nan"]))
    if kind == "any":
        start = draw(st.tuples(*[st.floats(-10.0, 10.0)] * 3))
    elif kind == "in_ball":
        centre = draw(st.sampled_from(locations))
        offset = draw(st.tuples(*[st.floats(-1e-7, 1e-7)] * 3))
        start = tuple(c + o for c, o in zip(centre, offset))
    elif kind == "diverged":
        start = (draw(st.sampled_from([2e6, -1e200, math.inf])), 1.0, 1.0)
    else:
        start = (math.nan, 0.0, 1.0)
    return _drive_case(
        p,
        start,
        fixed=draw(st.booleans()),
        targets=targets,
        # the exponent's 6-D field and the 12-D one run without targets
        tangents=0 if targets else draw(st.sampled_from([0, 1, 3])),
        budget=draw(st.sampled_from([1, 60, 10**6, 10**6])),
        t_end=draw(st.sampled_from([0.5, 2.0, 5.0])),
        dt_init=draw(st.sampled_from([1e-3, 1e-2, 0.1, 1.0])),
        blowup_norm=draw(st.sampled_from([1e6, 1e300])),
        capture_radius=draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.3, 2.0])),
        record=draw(st.booleans()),
        dt_start=draw(st.one_of(st.none(), st.floats(1e-4, 0.5))),
        attempts=draw(st.integers(0, 40)),
    )


_PAIR = [tuple(e.location) for e in find_equilibria(REGULAR).pair]
_RUN = dict(fixed=False, tangents=0, budget=10**6, t_end=5.0, dt_init=1e-2,
            blowup_norm=1e6, capture_radius=1e-6)


@hsettings(max_examples=400, deadline=None)
@given(case=_drive_cases())
# a start inside the capture ball, so the initial state starts the dwell
@example(case=_drive_case(REGULAR, _PAIR[0], **_RUN, targets=_PAIR))
# a budget partly spent by earlier windows runs out: STEP_LIMIT
@example(
    case=_drive_case(CLASSIC, (1.0, 1.0, 1.0), **dict(_RUN, tangents=1,
                     budget=60), targets=None, record=False, attempts=50)
)
# a NaN start, and a diverged one whose target distances overflow
@example(case=_drive_case(REGULAR, (math.nan, 0.0, 1.0), **_RUN, targets=_PAIR))
@example(
    case=_drive_case(REGULAR, (1e200, 0.0, 0.0), **dict(_RUN, blowup_norm=1e300),
                     targets=_PAIR)
)
# gains that round to unit, with all three targets; pp = 1.0 alone on the
# 12-D field in RK4
@example(
    case=_drive_case(_DRIVE_PARAMS[-1], (1.0, 1.0, 1.0), **_RUN,
                     targets=_locations(_DRIVE_PARAMS[-1]))
)
@example(
    case=_drive_case(_DRIVE_PARAMS[-2], (1.0, 1.0, 1.0), **dict(_RUN, fixed=True,
                     tangents=3), targets=None)
)
def test_drive_matches_its_frozen_two_policy_copy(case):
    # the native loop where one was built, and the generated Python loop
    # with native off: each ends as the frozen copy does
    field_source, p, u0, settings, t_end, kwargs = case
    got = _drive(field_source, p, u0, settings, t_end, **kwargs)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(native, "_kernel", lambda *key: None)
        python = _drive(field_source, p, u0, settings, t_end, **kwargs)
    want = reference.drive(
        reference.kernels(field_source, p), u0, settings, t_end, **kwargs
    )
    assert reference.read_fields(got) == reference.read_fields(want)
    assert reference.read_fields(python) == reference.read_fields(want)
    # one list of floats per component, 3-D and the exponent's 6-D alike
    assert type(got.columns) is tuple and len(got.columns) == len(u0)
    assert all(type(c) is list and len(c) == len(got.times) for c in got.columns)


@pytest.mark.parametrize(
    "p, unit_n1, unit_pp",
    [
        (CLASSIC, True, True),
        (SystemParams(10.0, 8.0 / 3.0, 28.0, N=0.5), False, True),
        (SystemParams(10.0, 8.0 / 3.0, 28.0, P=2.0), True, False),
        (SystemParams(10.0, 8.0 / 3.0, 28.0, N=0.5, P=2.0), False, False),
        # keyed on n1 = N - 1 and pp = 1 - P as computed: gains below half
        # an ulp of 1 round away, and 1e-16 does not
        (SystemParams(10.0, 8.0 / 3.0, 28.0, N=1e-300, P=5e-17), True, True),
        (SystemParams(10.0, 8.0 / 3.0, 28.0, N=1e-16, P=1e-16), False, False),
        # Chen: N = 1 + c, P = 0
        (from_preset(Preset.CHEN, 35.0, 3.0, 28.0), False, True),
    ],
)
def test_the_loop_is_keyed_on_the_computed_unit_gains(p, unit_n1, unit_pp):
    # a run asks for the native loop first, and takes the generated Python
    # loop only where there is none; both are keyed on the same two flags
    settings = IntegratorSettings(t_max=0.1)
    built = native._kernel(_FIELD_SOURCE, IntegratorMode.ADAPTIVE, unit_n1, unit_pp)
    for native_on in (True, False):
        kernel_keys, loop_keys = [], []
        kernel = native._kernel if native_on else (lambda *key: None)
        loop = integrator._loop

        def recording_kernel(*key):
            kernel_keys.append(key)
            return kernel(*key)

        def recording_loop(*key):
            loop_keys.append(key)
            return loop(*key)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(native, "_kernel", recording_kernel)
            m.setattr(integrator, "_loop", recording_loop)
            integrate(p, (1.0, 1.0, 1.0), settings)
        assert kernel_keys == [(_FIELD_SOURCE, IntegratorMode.ADAPTIVE, unit_n1, unit_pp)]
        python = not native_on or built is None
        assert loop_keys == (
            [(_FIELD_SOURCE, IntegratorMode.ADAPTIVE, 0, unit_n1, unit_pp)] if python else []
        )


@pytest.mark.parametrize("mode", list(IntegratorMode))
@pytest.mark.parametrize("field_source", [_FIELD_SOURCE, _VARIATIONAL_SOURCE],
                         ids=["3d", "6d"])
@pytest.mark.parametrize("n_targets", [0, 2, 3])
def test_each_stop_is_written_once_per_mode(mode, field_source, n_targets):
    # one step block and one exit per stop, whatever the field, mode or
    # number of targets
    source = _loop_source(field_source, mode, n_targets)
    assert source.count("return STEP_LIMIT") == 1
    assert source.count("return COMPLETED_TSPAN") == 1
    assert source.count("return CAPTURED_EQUILIBRIUM") == (1 if n_targets else 0)
    if mode is IntegratorMode.FIXED_RK4:
        assert source.count(_rk4_block(field_source)) == 1
    else:
        assert source.count(_dp54_block(field_source)) == 1


# ------------------------------------- the step-size controller, at its edges

_STUB_SETTINGS = IntegratorSettings(rel_tol=1e-3, abs_tol=1e-6)
_ZERO = (0.0, 0.0, 0.0)
# a step block that moves x by dt_eff / 1000 and takes its error estimate
# from ``stub_err``, whatever the field
_STUB_STEP = ("w0 = s0 + dt_eff / 1000.0; w1 = s1; w2 = s2; "
              "k7_0 = k7_1 = k7_2 = 0.0; err = stub_err((s0, s1, s2))")


def _stub_err(errs: list[str]):
    """The next error estimate of ``errs`` (cycling) at state s: NaN,
    infinite, zero, the least subnormal, huge, or exactly the tolerance of
    ``s``."""
    fixed = {"nan": math.nan, "inf": math.inf, "zero": 0.0, "tiny": 5e-324,
             "huge": 1e300}
    kinds = itertools.cycle(errs)

    def err(s):
        kind = next(kinds)
        if kind == "tol":
            return _STUB_SETTINGS.rel_tol * reference.norm(s) + _STUB_SETTINGS.abs_tol
        return fixed[kind]

    return err


def _stub_loop(errs: list[str], n_targets: int):
    """The generated adaptive loop of REGULAR (N = P = 0, so both unit gains
    folded in) with its DP54 step replaced by the stub."""
    field_source = _fold_unit_gains(_FIELD_SOURCE, True, True)
    source = _loop_source(field_source, IntegratorMode.ADAPTIVE, n_targets)
    block = _dp54_block(field_source)
    assert source.count(block) == 1
    namespace = dict(_LOOP_GLOBALS, stub_err=_stub_err(errs))
    exec(compile(source.replace(block, _STUB_STEP), "<stub loop>", "exec"), namespace)
    return namespace["loop"]


def _stub_kernels(errs: list[str]) -> reference.Kernels:
    """The stub step in the frozen loop's shape."""
    err = _stub_err(errs)

    def dp54(s, k1, dt):
        return (s[0] + dt / 1000.0, s[1], s[2]), _ZERO, err(s)

    return reference.Kernels(rhs=lambda s: _ZERO, dp54=dp54, rk4=None,
                             norm=reference.norm)


@hsettings(max_examples=300, deadline=None)
@given(
    errs=st.lists(st.sampled_from(["nan", "inf", "zero", "tiny", "huge", "tol"]),
                  min_size=1, max_size=8),
    t_end=st.sampled_from([1e-3, 0.5, 1.0]),
    dt_start=st.sampled_from([None, 1e-3, 0.1, 0.5, 1.0, 2.0]),
    targets=st.sampled_from([None, [_ZERO]]),
    capture_radius=st.sampled_from([0.0, 1e-6, 1.0]),
)
@example(errs=["nan"], t_end=1.0, dt_start=None, targets=None, capture_radius=0.0)
@example(errs=["tol"], t_end=1.0, dt_start=1.0, targets=None, capture_radius=0.0)
@example(errs=["tiny", "huge"], t_end=0.5, dt_start=0.1, targets=[_ZERO],
         capture_radius=1.0)
def test_step_size_controller_matches_the_frozen_copy(
    errs, t_end, dt_start, targets, capture_radius
):
    # min and max pick the first argument on a tie and ignore a NaN in the
    # second; the written-out clamps must agree on every step
    args = (_ZERO, _STUB_SETTINGS, t_end, targets, capture_radius, True, dt_start)
    stub = _stub_loop(errs, len(targets or ()))
    with pytest.MonkeyPatch.context() as m:
        # the stub is a Python loop, so the run must not take the native one
        m.setattr(native, "_kernel", lambda *key: None)
        m.setattr(integrator, "_loop",
                  lambda field_source, mode, n_targets, unit_n1, unit_pp: stub)
        got = _drive(_FIELD_SOURCE, REGULAR, *args)
    want = reference.drive(_stub_kernels(errs), *args)
    assert (got.status, repr(got.state), repr(got.dt), got.attempts) == (
        want.status, repr(want.state), repr(want.dt), want.attempts
    )
    assert repr(got.times) == repr(want.times)
    assert repr(reference.recorded_columns(got)) == repr(
        reference.recorded_columns(want)
    )


# ------------------------------------- the dwell check, unrolled per target

# The generated loop tests each target in turn, against coordinates it
# unpacks once per run.  Every run below ends as the frozen loop, which
# tests the targets in a for-loop, ends it: bit for bit in every recorded
# float, the status and the captured index.

_ORIGIN = (0.0, 0.0, 0.0)
_E_PLUS, _E_MINUS = _PAIR
_U = unstable_direction_at_origin(REGULAR)


def _seed(scale):
    """A seed on REGULAR's unstable manifold, ``scale`` from the origin."""
    return tuple(scale * v for v in _U)


def _dwell_parity(p, u0, targets, capture_radius, *, fixed, t_end=80.0,
                  dt_init=1e-2, dt_start=None):
    """The ``_drive`` run of the model field with ``targets``, checked
    against the frozen loop."""
    settings = IntegratorSettings(
        mode=IntegratorMode.FIXED_RK4 if fixed else IntegratorMode.ADAPTIVE,
        dt_init=dt_init,
    )
    kwargs = dict(targets=targets, capture_radius=capture_radius, dt_start=dt_start)
    got = _drive(_FIELD_SOURCE, p, u0, settings, t_end, **kwargs)
    want = reference.drive(
        reference.kernels(_FIELD_SOURCE, p), u0, settings, t_end, **kwargs
    )
    assert reference.read_fields(got) == reference.read_fields(want)
    return got


_CAPTURED = TrajectoryStatus.CAPTURED_EQUILIBRIUM


@pytest.mark.parametrize("fixed", [True, False], ids=["rk4", "adaptive"])
@pytest.mark.parametrize(
    "seed, targets, radius, captured",
    [
        # one target
        (_seed(1e-6), [_E_PLUS], 1e-6, 0),
        # two: each branch ends at its own member of the pair
        (_seed(1e-6), [_E_PLUS, _E_MINUS], 1e-6, 0),
        (_seed(-1e-6), [_E_PLUS, _E_MINUS], 1e-6, 1),
        # three, the origin included: a seed deep inside the origin's ball
        # dwells there while it escapes, so the origin captures it
        (_seed(1e-9), [_ORIGIN, _E_PLUS, _E_MINUS], 1e-3, 0),
        (_seed(-1e-6), [_ORIGIN, _E_PLUS, _E_MINUS], 1e-6, 2),
        # the origin excluded: the same seed reaches E+
        (_seed(1e-9), [_E_PLUS, _E_MINUS], 1e-3, 0),
        # two equal targets: the earlier index wins the tie
        (_seed(1e-6), [_E_PLUS, _E_PLUS], 1e-6, 0),
        (_seed(1e-6), [_E_MINUS, _E_PLUS, _E_PLUS], 1e-6, 1),
    ],
    ids=["one", "two-plus", "two-minus", "origin-captures", "three-minus",
         "origin-excluded", "equal-pair", "equal-after-another"],
)
def test_unrolled_dwell_matches_the_frozen_loop(seed, targets, radius, captured, fixed):
    got = _dwell_parity(REGULAR, seed, targets, radius, fixed=fixed)
    assert (got.status, got.captured) == (_CAPTURED, captured)


@pytest.mark.parametrize("fixed", [True, False], ids=["rk4", "adaptive"])
def test_an_orbit_through_a_reach_box_is_not_captured(fixed):
    # a target placed so that one point of the orbit lies inside its reach
    # box on every axis, yet 0.9 * sqrt(3) radii from it; the orbit is the
    # same up to that point, since nothing came within a radius before
    radius = 1e-3
    mode = IntegratorMode.FIXED_RK4 if fixed else IntegratorMode.ADAPTIVE
    settings = IntegratorSettings(mode=mode, dt_init=1e-2)
    free = _drive(_FIELD_SOURCE, CLASSIC, (1.0, 1.0, 1.0), settings, 5.0)
    point = [c[100] for c in free.columns]
    near = tuple(v + 0.9 * radius for v in point)
    far = tuple(find_equilibria(CLASSIC).pair[0].location)
    got = _dwell_parity(CLASSIC, (1.0, 1.0, 1.0), [far, near], radius, fixed=fixed,
                        t_end=5.0)
    assert got.status is TrajectoryStatus.COMPLETED_TSPAN and got.captured is None
    box = integrator._capture_reach(radius)
    assert any(
        all(abs(u - v) <= box for u, v in zip(s, near)) for s in zip(*got.columns)
    )
    assert got.columns == free.columns


def test_adaptive_dwell_clamp_matches_the_frozen_loop():
    # a start inside E+'s ball with a first trial step of 1.0: the span
    # clamps it to 0.5, and the dwell begun by the initial state clamps it
    # to the room left for the nine confirmations still due
    start = tuple(v + 1e-9 for v in _E_PLUS)
    got = _dwell_parity(REGULAR, start, [_E_MINUS, _E_PLUS], 1e-6, fixed=False,
                        t_end=0.5, dt_start=1.0)
    assert (got.status, got.captured) == (_CAPTURED, 1)
    assert got.times[1] == 0.5 / 9
    assert len(got.times) == 10


@pytest.mark.parametrize(
    "t_end, status",
    [(0.085, _CAPTURED), (0.055, TrajectoryStatus.COMPLETED_TSPAN)],
    ids=["captured-on-the-partial-step", "span-ends-on-the-partial-step"],
)
def test_rk4_dwell_across_the_partial_final_step_matches_the_frozen_loop(t_end, status):
    # a start inside E+'s ball and a t_end that is no multiple of dt = 0.01:
    # full steps, then one partial step onto t_end.  At 0.085 that step's
    # state is the tenth in the ball, so it completes the dwell.
    start = tuple(v + 1e-9 for v in _E_PLUS)
    got = _dwell_parity(REGULAR, start, [_E_MINUS, _E_PLUS], 1e-6, fixed=True,
                        t_end=t_end)
    assert got.status is status
    assert got.times[-1] == t_end and got.times[-1] - got.times[-2] < 0.01
    assert got.captured == (1 if status is _CAPTURED else None)


# x' = y, y' = -x, z' = 0: the unit circle, a lap in 63 steps of 2 pi / 63
_CIRCLE = (("x", "{y}"), ("y", "-{x}"), ("z", "0.0"))


def _circle(s):
    return s[1], -s[0], 0.0


def test_a_dwell_of_one_state_is_reset():
    # a ball of radius 0.01 around the start, which each lap visits for
    # exactly one state (the lap's others are 0.099 or more away): every
    # visit restarts the dwell, so 13 visits capture nothing
    settings = IntegratorSettings(mode=IntegratorMode.FIXED_RK4, dt_init=2 * math.pi / 63)
    start, kwargs = (1.0, 0.0, 0.0), dict(targets=[(1.0, 0.0, 0.0)], capture_radius=0.01)
    got = _drive(_CIRCLE, REGULAR, start, settings, 25 * math.pi, **kwargs)
    kernels = reference.Kernels(rhs=_circle, dp54=None, norm=reference.norm,
                                rk4=lambda s, dt: reference.rk4_step(_circle, s, dt))
    want = reference.drive(kernels, start, settings, 25 * math.pi, **kwargs)
    assert reference.read_fields(got) == reference.read_fields(want)
    assert got.status is TrajectoryStatus.COMPLETED_TSPAN
    assert sum(math.dist(s, start) <= 0.01 for s in zip(*got.columns)) == 13


# ------------------------------------------- recorded points, memory and GC


def test_states_are_built_from_the_columns_on_each_read():
    tr = integrate(REGULAR, State(1.0, 2.0, 3.0), IntegratorSettings(t_max=1.0))
    states = tr.states
    assert type(states) is tuple and all(type(s) is State for s in states)
    assert states == tuple(zip(tr.xs, tr.ys, tr.zs))
    assert len(tr.xs) == len(tr.ys) == len(tr.zs) == len(tr.times)
    # not cached: a trajectory keeps one layout of its points
    assert tr.states is not states
    assert "states" not in vars(tr)


def _collector_passes(run) -> int:
    """The collector passes started while ``run()`` runs, after a full
    collection."""
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(count)
    try:
        run()
    finally:
        gc.callbacks.remove(count)
    return len(passes)


def test_a_recorded_run_starts_no_collector_pass():
    # a recorded point is four floats appended to four lists, none of them
    # tracked by the collector; one tracked object kept per point would
    # start a pass about every 700 points
    rk4 = IntegratorSettings(mode=IntegratorMode.FIXED_RK4, dt_init=1e-3, t_max=20.0)
    trace_rk4 = IntegratorSettings(mode=IntegratorMode.FIXED_RK4, dt_init=1e-3,
                                   t_max=60.0)
    # compile both loops first
    integrate(CLASSIC, (1.0, 1.0, 1.0), rk4)
    trace_heteroclinic(REGULAR, Branch.PLUS_X, settings=trace_rk4)
    runs = []
    assert _collector_passes(
        lambda: runs.append(integrate(CLASSIC, (1.0, 1.0, 1.0), rk4))
    ) == 0
    assert _collector_passes(
        lambda: runs.append(trace_heteroclinic(REGULAR, Branch.PLUS_X,
                                               settings=trace_rk4))
    ) == 0
    assert len(runs[0].times) == 20_001
    assert len(runs[1].trajectory.times) > 20_000


def test_a_recorded_point_holds_at_most_140_bytes():
    # four floats (24 bytes each) and their four tuple slots: 128 bytes.
    # Traced, a step costs about 0.3 ms (each allocation looks up its line
    # number in the loop's long step line), so the run is 2 * 10**4 steps;
    # the figure per point is the same at 10**5
    rk4 = IntegratorSettings(mode=IntegratorMode.FIXED_RK4, dt_init=1e-3, t_max=20.0)
    integrate(CLASSIC, (1.0, 1.0, 1.0), IntegratorSettings(
        mode=IntegratorMode.FIXED_RK4, t_max=1e-2))
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tr = integrate(CLASSIC, (1.0, 1.0, 1.0), rk4)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(tr.times) == 20_001
    assert held / len(tr.times) <= 140
