import math

import numpy as np
import pytest
from hypothesis import example, given, settings as hsettings, strategies as st

from lorenzlab import (
    Branch,
    EquilibriumKind,
    IntegratorMode,
    IntegratorSettings,
    State,
    SystemParams,
    TrajectoryStatus,
    apply_symmetry,
    find_equilibria,
    integrate,
    integrate_to_equilibrium,
    trace_heteroclinic,
    v_gradient,
    v_value,
)
from lorenzlab import integrator

import sampling

CLASSIC = SystemParams(10.0, 8.0 / 3.0, 28.0)
REGULAR = SystemParams(1.0, 3.0, 2.0)


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(dt_init=0.0)
    with pytest.raises(ValueError):
        IntegratorSettings(rel_tol=-1e-9)
    with pytest.raises(ValueError):
        IntegratorSettings(t_max=0.0)
    with pytest.raises(ValueError):
        IntegratorSettings(max_steps=0)
    with pytest.raises(ValueError):
        IntegratorSettings(blowup_norm=-1.0)
    # divergence is one comparison against the norm, which is infinite
    # for any non-finite state, so the bound itself must be finite
    with pytest.raises(ValueError):
        IntegratorSettings(blowup_norm=math.inf)


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
