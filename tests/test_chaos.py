import math

import numpy as np
import pytest
from hypothesis import example, given, settings as hsettings, strategies as st

from lorenzlab import (
    DivergedTrajectoryError,
    EquilibriumKind,
    IntegratorSettings,
    NotStableRegimeError,
    OriginClass,
    RegimeLabel,
    State,
    SystemParams,
    eigenvalues_at,
    find_equilibria,
    largest_lyapunov_exponent,
    origin_eigenvalues,
    regime_classify,
    suggest_anticontrol,
)

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
