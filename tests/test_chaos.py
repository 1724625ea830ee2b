import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings as hsettings, strategies as st

from lorenzlab import (
    DivergedTrajectoryError,
    EquilibriumKind,
    IntegratorMode,
    IntegratorSettings,
    NotStableRegimeError,
    OriginClass,
    RegimeLabel,
    State,
    SystemParams,
    TrajectoryStatus,
    eigenvalues_at,
    find_equilibria,
    jacobian,
    largest_lyapunov_exponent,
    origin_eigenvalues,
    regime_classify,
    suggest_anticontrol,
)
from lorenzlab.chaos import _VARIATIONAL_SOURCE
from lorenzlab.integrator import _drive, _kernels

import sampling

# loose tolerances are plenty for exponent estimates and run much faster
FAST = IntegratorSettings(rel_tol=1e-6, abs_tol=1e-9)


def test_lle_argument_validation():
    p = SystemParams(10.0, 8.0 / 3.0, 28.0)
    with pytest.raises(ValueError):
        largest_lyapunov_exponent(p, renorm_interval=0.0)
    with pytest.raises(ValueError):
        largest_lyapunov_exponent(p, transient=-1.0)
    with pytest.raises(ValueError):
        largest_lyapunov_exponent(p, horizon=10.0, transient=10.0)
    with pytest.raises(ValueError):
        largest_lyapunov_exponent(p, horizon=10.2, transient=10.0, renorm_interval=1.0)


@pytest.mark.parametrize("name", ["renorm_interval", "horizon", "transient"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_lle_window_arguments_must_be_finite(name, value):
    p = SystemParams(10.0, 8.0 / 3.0, 28.0)
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        largest_lyapunov_exponent(p, **{name: value})


def test_lle_window_count_must_not_overflow():
    # every argument is finite, but their ratio is not
    p = SystemParams(10.0, 8.0 / 3.0, 28.0)
    with pytest.raises(ValueError, match="^the window count horizon / renorm_interval"
                       r" = 1e\+300 / 1e-10 overflows$"):
        largest_lyapunov_exponent(p, horizon=1e300, renorm_interval=1e-10)


def test_lle_history_shape():
    p = SystemParams(10.0, 8.0 / 3.0, 0.5)
    est = largest_lyapunov_exponent(
        p, settings=FAST, horizon=60.0, transient=10.0, renorm_interval=1.0
    )
    assert len(est.history) == 50
    assert est.lambda1 == est.history[-1]
    assert est.transient_discarded == 10.0
    assert est.horizon == 60.0


def test_lle_is_deterministic():
    p = SystemParams(10.0, 8.0 / 3.0, 0.5)
    kw = dict(settings=FAST, horizon=40.0, transient=5.0)
    a = largest_lyapunov_exponent(p, **kw)
    b = largest_lyapunov_exponent(p, **kw)
    assert a.lambda1 == b.lambda1
    assert a.history == b.history


def test_lle_raises_on_blowup():
    p = SystemParams(10.0, 8.0 / 3.0, 28.0, P=2.0)
    with pytest.raises(DivergedTrajectoryError):
        largest_lyapunov_exponent(p, settings=FAST, horizon=60.0, transient=5.0)


def test_lle_raises_when_the_error_estimate_overflows():
    # one window of 1e5 time units: the first trial step squares an error
    # component beyond the float range
    with pytest.raises(DivergedTrajectoryError, match="window 0: diverged"):
        largest_lyapunov_exponent(
            SystemParams(10.0, 2.66, 28.0),
            settings=IntegratorSettings(dt_init=1e5),
            renorm_interval=1e5,
            horizon=2e5,
            transient=0.0,
        )


def test_max_steps_budgets_the_whole_lle_run(monkeypatch):
    """Trial steps of the transient and of every renormalization window
    count against one max_steps budget."""
    import lorenzlab.chaos as chaos

    trials = 0
    build = chaos._kernels

    def counting_kernels(source, p):
        kernels = build(source, p)

        def dp54(s, k1, dt):
            nonlocal trials
            trials += 1
            return kernels.dp54(s, k1, dt)

        return kernels._replace(dp54=dp54)

    p = SystemParams(10.0, 8.0 / 3.0, 28.0)
    kw = dict(horizon=6.0, transient=2.0)
    monkeypatch.setattr(chaos, "_kernels", counting_kernels)
    free = largest_lyapunov_exponent(p, **kw)
    monkeypatch.undo()
    budget = IntegratorSettings(max_steps=trials)
    assert largest_lyapunov_exponent(p, settings=budget, **kw) == free
    with pytest.raises(DivergedTrajectoryError, match="step_limit"):
        largest_lyapunov_exponent(
            p, settings=IntegratorSettings(max_steps=trials - 1), **kw
        )


def test_lle_matches_linearization_at_stable_pair():
    """Seeded on an attracting equilibrium the exponent is the largest
    real part of the local eigenvalues."""
    p = SystemParams(10.0, 8.0 / 3.0, 10.0)
    ep = find_equilibria(p).pair[0]
    lam_ref = max(l.real for l in eigenvalues_at(p, ep.location))
    est = largest_lyapunov_exponent(
        p, u0=ep.location, settings=FAST, horizon=150.0, transient=20.0
    )
    assert abs(est.lambda1 - lam_ref) <= 0.05


def test_lle_matches_linearization_at_stable_origin():
    p = SystemParams(10.0, 8.0 / 3.0, 0.5)
    lam_ref = max(l.real for l in origin_eigenvalues(p))
    est = largest_lyapunov_exponent(
        p, u0=State(0.0, 0.0, 0.0), settings=FAST, horizon=150.0, transient=20.0
    )
    assert abs(est.lambda1 - lam_ref) <= 0.05


def test_lle_negative_under_convergence_hypotheses():
    rng = np.random.default_rng(113)
    for _ in range(3):
        p = sampling.conv_ok_params(rng)
        u0 = sampling.random_state(rng, 5.0)
        est = largest_lyapunov_exponent(
            p, u0=u0, settings=FAST, horizon=80.0, transient=20.0
        )
        assert est.lambda1 < 0.0


def test_lle_positive_for_classic_attractor():
    est = largest_lyapunov_exponent(
        SystemParams(10.0, 8.0 / 3.0, 28.0),
        settings=FAST,
        horizon=300.0,
        transient=50.0,
    )
    assert 0.5 < est.lambda1 < 1.2


# The field's divergence is the constant delta = -a + (N - 1) - b, so by
# Liouville's formula the tangent flow scales volumes by exp(delta t).  In
# FIXED_RK4 mode the base orbit does not depend on the tangent, so three
# runs seeded with e1, e2, e3 share one base orbit and their tangents are
# the columns of RK4's propagator.  This checks the hand-written
# linearization in _VARIATIONAL_SOURCE against a theorem, not a copy.


def _det3(u, v, w):
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


@pytest.mark.parametrize(
    "p",
    [
        SystemParams(10.0, 8.0 / 3.0, 28.0),
        SystemParams(10.0, 8.0 / 3.0, 0.5, M=30.0, N=2.0, P=0.5),
        SystemParams(35.0, 3.0, 28.0, M=-35.0, N=29.0),
        SystemParams(1.0, 3.0, 2.0, N=-1.5, P=-2.0),
    ],
)
def test_tangent_volume_follows_liouville(p):
    dt, t_end = 1e-3, 1.0
    rk4 = IntegratorSettings(mode=IntegratorMode.FIXED_RK4, dt_init=dt)
    kernels = _kernels(_VARIATIONAL_SOURCE, p)
    runs = [
        _drive(kernels, (1.0, 1.0, 1.0, *e), rk4, t_end)
        for e in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    ]
    assert all(r.status is TrajectoryStatus.COMPLETED_TSPAN for r in runs)
    assert runs[0].times[-1] == t_end
    for r in runs[1:]:
        assert r.times == runs[0].times
        assert [s[:3] for s in r.states] == [s[:3] for s in runs[0].states]

    # RK4 matches exp(h lambda) through h^4 lambda^4 / 24, so each step
    # misses each eigenvalue's volume factor by about (h |lambda|)^5 / 120;
    # over t / h steps and three eigenvalues below L = max ||J||_inf that is
    # at most t h^4 L^5 / 40.
    big_l = max(np.linalg.norm(jacobian(p, s[:3]), np.inf) for s in runs[0].states)
    delta = -p.a + (p.N - 1.0) - p.b
    for i, t in enumerate(runs[0].times):
        det = _det3(*(r.states[i][3:] for r in runs))
        assert abs(det / math.exp(delta * t) - 1.0) <= t * dt**4 * big_l**5 / 40.0


# ---------------------------------------------------------------- regime


def test_regime_examples():
    assert (
        regime_classify(SystemParams(1.0, 3.0, 2.0)) is RegimeLabel.PROVABLY_REGULAR
    )
    assert (
        regime_classify(SystemParams(10.0, 8.0 / 3.0, 28.0))
        is RegimeLabel.CHAOS_CANDIDATE
    )
    # triple with a stable pair: no certificate and no candidate either
    assert (
        regime_classify(SystemParams(10.0, 8.0 / 3.0, 2.0))
        is RegimeLabel.UNDETERMINED
    )
    assert (
        regime_classify(SystemParams(10.0, 8.0 / 3.0, 0.5))
        is RegimeLabel.UNDETERMINED
    )


def _hopf_rho(a, b):
    """rho = c + M above which E+- are unstable, for N = P = 0 and a > b + 1.

    With N = P = 0 the system is classic Lorenz (sigma, r, beta) = (a, rho,
    b).  At E+- the characteristic cubic is
    lambda^3 + (a + b + 1) lambda^2 + b (a + rho) lambda + 2 a b (rho - 1).
    For rho > 1 every coefficient is positive, so by Routh-Hurwitz all roots
    lie in the left half-plane iff (a + b + 1) b (a + rho) > 2 a b (rho - 1),
    i.e. rho (a - b - 1) < a (a + b + 3).
    """
    return a * (a + b + 3.0) / (a - b - 1.0)


@hsettings(deadline=None, max_examples=300)
@given(
    b=st.floats(0.05, 20.0),
    gap=st.floats(0.05, 40.0),
    f=st.floats(0.0, 3.0),
    c=st.floats(0.0, 1.0),
)
# classic Lorenz (a = 10, b = 8/3) on both sides of rho_H = 24.74
@example(b=8.0 / 3.0, gap=19.0 / 3.0, f=1.14, c=0.5)
@example(b=8.0 / 3.0, gap=19.0 / 3.0, f=0.97, c=0.5)
def test_pair_stability_follows_routh_hurwitz(b, gap, f, c):
    a = b + 1.0 + gap
    rho_h = _hopf_rho(a, b)
    p = SystemParams(a, b, c, M=1.0 + f * (rho_h - 1.0) - c)
    rho = p.c + p.M
    assume(rho - 1.0 > 1e-6)
    assume(abs(rho - rho_h) > 1e-4 * rho_h)
    unstable = rho > rho_h

    eqs = find_equilibria(p)
    assert eqs.kind is EquilibriumKind.TRIPLE
    assert eqs.origin.unstable_dim == 1
    for eq in eqs.pair:
        assert eq.center_dim == 0
        assert (eq.unstable_dim >= 1) is unstable
        assert eq.stable_dim == (1 if unstable else 3)
    expected = RegimeLabel.CHAOS_CANDIDATE if unstable else RegimeLabel.UNDETERMINED
    assert regime_classify(p) is expected


# ---------------------------------------------------------------- anticontrol


def test_suggestion_canonical_case():
    sug = suggest_anticontrol(10.0, 8.0 / 3.0, 0.5, 28.0)
    p = sug.params
    assert (p.a, p.b, p.c) == (10.0, 8.0 / 3.0, 0.5)
    assert (p.N, p.P) == (0.0, 0.0)
    assert p.M == 28.5
    assert sug.chaos_possible is True
    assert sug.origin_class is OriginClass.SADDLE_WS2_WU1
    assert sug.equilibria_kind is EquilibriumKind.TRIPLE
    assert "necessary but not sufficient" in sug.note
    assert "b < 2a" in sug.note
    assert regime_classify(p) is RegimeLabel.CHAOS_CANDIDATE


def test_suggestion_tiny_margin_still_crosses():
    sug = suggest_anticontrol(10.0, 8.0 / 3.0, 0.5, 1e-6)
    assert sug.equilibria_kind is EquilibriumKind.TRIPLE
    assert sug.origin_class is OriginClass.SADDLE_WS2_WU1


def test_suggestion_reports_when_chaos_is_excluded():
    sug = suggest_anticontrol(1.0, 3.0, 0.5, 1.0)
    assert sug.chaos_possible is False
    assert "excluded" in sug.note
    # the pitchfork still happened; only the chaos route is closed
    assert sug.equilibria_kind is EquilibriumKind.TRIPLE


@pytest.mark.parametrize("c", [1.0, 0.0, 1.5, -2.0])
def test_suggestion_requires_stable_plant(c):
    with pytest.raises(NotStableRegimeError):
        suggest_anticontrol(10.0, 8.0 / 3.0, c, 28.0)


def test_suggestion_rejects_bad_scalars():
    with pytest.raises(ValueError):
        suggest_anticontrol(-1.0, 8.0 / 3.0, 0.5, 28.0)
    with pytest.raises(ValueError):
        suggest_anticontrol(10.0, 0.0, 0.5, 28.0)
    with pytest.raises(ValueError):
        suggest_anticontrol(10.0, 8.0 / 3.0, 0.5, 0.0)


def _best_offset_error(c, margin, span=64):
    """Smallest |d - margin| over the doubles within ``span`` steps of the
    seed gain (1 - c) + margin, with d computed as the suggestion does."""
    m_seed = (1.0 - c) + margin
    gains, up, down = [m_seed], m_seed, m_seed
    for _ in range(span):
        up = math.nextafter(up, math.inf)
        down = math.nextafter(down, -math.inf)
        gains += [up, down]
    return min(abs(m + 0.0 + c - 1.0 - margin) for m in gains)


@hsettings(deadline=None, max_examples=200)
@given(
    c=st.floats(min_value=0.01, max_value=0.99),
    margin=st.floats(min_value=1e-9, max_value=1e6),
)
@example(c=0.7766358055412363, margin=2.00001)
def test_suggested_gain_reproduces_the_offset_on_the_grid(c, margin):
    """The suggested gain realizes the nearest offset any gain near the
    seed can reach, and the requested offset bit for bit whenever some
    gain can.  M + c rounds onto the grid of 1 + margin, so offsets whose
    low bit falls below ulp(1 + margin) (e.g. margin = 0.6513920778032488)
    are unreachable.  So is every other point of that grid when the bits
    of c below it come to exactly half its spacing: each sum M + c is
    then a rounding tie and goes to the even neighbour
    (c = 0.7766358055412363, margin = 2.00001 misses by one ulp although
    1 + margin - 1 == margin)."""
    sug = suggest_anticontrol(10.0, 8.0 / 3.0, c, margin)
    p = sug.params
    d = p.M + p.N + p.c - 1.0
    assert d > 0.0
    best = _best_offset_error(c, margin)
    assert abs(d - margin) == best
    if best == 0.0:
        assert d == margin
    assert abs(d - margin) <= 2.0**-52 * (1.0 + margin)
