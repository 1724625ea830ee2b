import inspect
import math

import numpy as np
import pytest

from lorenzlab import (
    Branch,
    EigenvalueCollisionError,
    IntegratorMode,
    IntegratorSettings,
    NotASaddleError,
    State,
    SystemParams,
    TrajectoryLengthMismatchError,
    TrajectoryStatus,
    branch_symmetry_deviation,
    find_equilibria,
    integrate_to_equilibrium,
    jacobian,
    trace_heteroclinic,
    unstable_direction_at_origin,
)
from lorenzlab.integrator import _dist

import sampling

REGULAR = SystemParams(1.0, 3.0, 2.0)
CLASSIC = SystemParams(10.0, 8.0 / 3.0, 28.0)


def test_unstable_direction_classic():
    v = unstable_direction_at_origin(CLASSIC)
    assert v[2] == 0.0
    assert v[0] > 0.0
    assert math.hypot(*v) == pytest.approx(1.0, rel=1e-12)
    lam_u = (-11.0 + math.sqrt(1201.0)) / 2.0
    Jv = jacobian(CLASSIC, State(0.0, 0.0, 0.0)) @ np.array(v)
    for i in range(3):
        assert Jv[i] == pytest.approx(lam_u * v[i], abs=1e-9)


def test_unstable_direction_requires_saddle():
    with pytest.raises(NotASaddleError):
        unstable_direction_at_origin(SystemParams(10.0, 8.0 / 3.0, 0.5))
    with pytest.raises(NotASaddleError):
        unstable_direction_at_origin(SystemParams(10.0, -1.0, 28.0))


def test_eigenvalue_collision_detected_at_the_fixed_band():
    """With a huge spectral spread the unstable rate can sit at -b within
    the sign band; the degenerate direction must be refused rather than
    silently normalized."""
    p = SystemParams(a=1e-3, b=1e-14, c=1e6 + 1.0 + 1e-5, M=0.0, N=-1e6, P=0.0)
    with pytest.raises(EigenvalueCollisionError):
        unstable_direction_at_origin(p)


def test_plus_branch_connects_regular_case():
    res = trace_heteroclinic(REGULAR, Branch.PLUS_X)
    assert res.branch is Branch.PLUS_X
    assert res.success and res.certified
    assert res.terminal is not None
    ep = find_equilibria(REGULAR).pair[0]
    assert res.terminal.location == ep.location
    assert res.extremal_x > 0.0
    assert res.trajectory.status is TrajectoryStatus.CAPTURED_EQUILIBRIUM


def test_minus_branch_is_the_mirror():
    minus = trace_heteroclinic(REGULAR, Branch.MINUS_X)
    em = find_equilibria(REGULAR).pair[1]
    assert minus.success and minus.terminal.location == em.location
    assert minus.extremal_x < 0.0


def test_default_epsilon_scales_with_pair():
    res = trace_heteroclinic(REGULAR, Branch.PLUS_X)
    scale = math.hypot(math.sqrt(3.0), math.sqrt(3.0), 1.0)
    assert res.epsilon == pytest.approx(1e-6 * (1.0 + scale), rel=1e-9)


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
def test_seed_size_does_not_change_the_terminal(eps):
    res = trace_heteroclinic(REGULAR, Branch.PLUS_X, epsilon=eps)
    assert res.success
    assert res.epsilon == eps
    assert res.extremal_x > 0.0


@pytest.mark.parametrize("eps", [-1e-6, 0.0, -0.0, math.inf, math.nan])
def test_epsilon_must_be_positive_and_finite(eps):
    # a negative seed lies on the other branch, zero is the fixed point
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        trace_heteroclinic(REGULAR, Branch.PLUS_X, epsilon=eps)


@pytest.mark.parametrize("branch", list(Branch))
def test_capture_ball_containing_the_seed_is_rejected(branch):
    # a finite ball this large captures the seed itself, so a "success"
    # would prove nothing
    with pytest.raises(ValueError, match="^the capture ball of radius 1e\\+300 "
                       "around E\\+ already contains the seed$"):
        trace_heteroclinic(REGULAR, branch, capture_radius=1e300)
    # the ball is closed, as in the dwell check: a radius of exactly the
    # seed's distance is rejected, one ulp less is traced
    seed = trace_heteroclinic(REGULAR, branch).trajectory.states[0]
    d = min(_dist(seed, e.location) for e in find_equilibria(REGULAR).pair)
    with pytest.raises(ValueError, match="already contains the seed"):
        trace_heteroclinic(REGULAR, branch, capture_radius=d)
    res = trace_heteroclinic(REGULAR, branch, capture_radius=math.nextafter(d, 0.0))
    assert res.trajectory.states[0] == seed


def test_tracer_capture_radius_default_equals_the_integrators():
    # trace_heteroclinic writes integrate_to_equilibrium's default again
    tracer = inspect.signature(trace_heteroclinic).parameters
    integrator = inspect.signature(integrate_to_equilibrium).parameters
    assert tracer["capture_radius"].default == integrator["capture_radius"].default


def test_observed_connection_is_not_certified_outside_hypotheses():
    # the classic chaotic case has the right saddle and pair, but no
    # guarantee; the branch wanders without settling and says so
    res = trace_heteroclinic(
        CLASSIC, Branch.PLUS_X, settings=IntegratorSettings(t_max=20.0)
    )
    assert not res.certified
    assert not res.success
    assert res.terminal is None


def test_branch_never_returns_to_the_saddle():
    """Once the branch leaves a 10-epsilon ball it must stay out of the
    epsilon/2 ball; a return would contradict the certificate."""
    rng = np.random.default_rng(109)
    for _ in range(8):
        p = sampling.het_ok_params(rng)
        res = trace_heteroclinic(p, Branch.PLUS_X)
        assert res.certified
        left = False
        for s in res.trajectory.states:
            r = math.hypot(*s)
            if not left and r > 10.0 * res.epsilon:
                left = True
            elif left:
                assert r > 0.5 * res.epsilon


def test_fixed_step_branches_mirror_exactly():
    st = IntegratorSettings(
        mode=IntegratorMode.FIXED_RK4, dt_init=1e-3, t_max=60.0
    )
    plus = trace_heteroclinic(REGULAR, Branch.PLUS_X, settings=st)
    minus = trace_heteroclinic(REGULAR, Branch.MINUS_X, settings=st)
    assert plus.success and minus.success
    assert branch_symmetry_deviation(plus, minus) == 0.0
    assert minus.extremal_x == -plus.extremal_x


@pytest.mark.parametrize("branch", ["plus_x", "minus_x", "bogus", None])
def test_a_branch_name_is_not_a_branch(branch):
    # branches are compared by identity, so the enum's value string is none;
    # a silent fallback would trace the minus branch under this label
    with pytest.raises(TypeError, match=f"^unknown branch {branch!r}$"):
        trace_heteroclinic(REGULAR, branch)


# extremal_x and E+ of the plus branch on certified slices, the same in
# both modes, as traced before the branch was dispatched in one place;
# the minus branch gives their mirror images
_TRACED = [
    (REGULAR, 2.104875500841572e-06, (1.7320508075688772, 1.7320508075688772, 1.0)),
    (SystemParams(1.5, 3.5, 1.5, M=0.5, N=0.5, P=-0.5), 2.089576867301809e-06,
     (1.8708286933869707, 1.8708286933869707, 1.0)),
    (SystemParams(0.75, 2.0, 0.5, M=1.25, N=1.0, P=0.25), 2.076812127828688e-06,
     (2.160246899469287, 2.160246899469287, 2.3333333333333335)),
    (SystemParams(2.0, 5.0, 3.0, M=-1.0, N=2.5, P=-1.0), 2.28698240987332e-06,
     (2.958039891549808, 2.958039891549808, 1.75)),
]


@pytest.mark.parametrize("mode", list(IntegratorMode))
@pytest.mark.parametrize("p, extremal, e_plus", _TRACED)
def test_each_branch_keeps_its_verdicts(p, extremal, e_plus, mode):
    settings = IntegratorSettings(mode=mode)
    for branch, sign in ((Branch.PLUS_X, 1.0), (Branch.MINUS_X, -1.0)):
        res = trace_heteroclinic(p, branch, settings=settings)
        assert res.success is True and res.certified is True
        assert res.extremal_x == sign * extremal
        x, y, z = e_plus
        assert res.terminal.location == (sign * x, sign * y, z)


def _drop_last_step(res):
    import dataclasses

    tr = res.trajectory
    short = dataclasses.replace(
        tr, times=tr.times[:-1], xs=tr.xs[:-1], ys=tr.ys[:-1], zs=tr.zs[:-1]
    )
    return dataclasses.replace(res, trajectory=short)


def test_symmetry_deviation_requires_equal_lengths():
    plus = trace_heteroclinic(REGULAR, Branch.PLUS_X)
    minus = trace_heteroclinic(REGULAR, Branch.MINUS_X)
    with pytest.raises(TrajectoryLengthMismatchError):
        branch_symmetry_deviation(plus, _drop_last_step(minus))


def test_same_branch_deviation_is_twice_the_excursion():
    plus = trace_heteroclinic(REGULAR, Branch.PLUS_X)
    dev = branch_symmetry_deviation(plus, plus)
    max_xy = max(math.hypot(s.x, s.y) for s in plus.trajectory.states)
    assert dev == pytest.approx(2.0 * max_xy, rel=1e-12)
