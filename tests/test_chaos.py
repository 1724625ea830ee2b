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
from lorenzlab.integrator import _drive
from lorenzlab.model import SIGN_BAND

import reference
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


def test_lle_blames_the_tangent_when_only_the_tangent_blows_up():
    # over a 20-unit window the tangent grows past the default blowup_norm
    # 1e6 on the classic attractor while the base orbit stays near norm 12
    p = SystemParams(10.0, 8.0 / 3.0, 28.0)
    kw = dict(horizon=200.0, transient=20.0)
    with pytest.raises(
        DivergedTrajectoryError,
        match=r"^the tangent vector diverged during window 1 while the base orbit "
        r"alone did not; use a shorter renorm_interval than 20\.0$",
    ):
        largest_lyapunov_exponent(p, renorm_interval=20.0, **kw)
    assert largest_lyapunov_exponent(p, renorm_interval=10.0, **kw).lambda1 > 0.0


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


def test_lle_raises_when_the_tangent_degenerates():
    # the origin's spectrum is about (-978, -1000, -1023): over one window of
    # fixed RK4 steps the orbit and its tangent underflow to exactly 0, so the
    # tangent has no length to renormalize
    p = SystemParams(1000.0, 1000.0, 0.5, N=-1000.0)
    with pytest.raises(DivergedTrajectoryError, match=r"^tangent vector degenerated$"):
        largest_lyapunov_exponent(
            p,
            settings=IntegratorSettings(mode=IntegratorMode.FIXED_RK4, dt_init=1e-3),
            renorm_interval=1.0,
            horizon=2.0,
            transient=0.0,
        )


def test_max_steps_budgets_the_whole_lle_run(monkeypatch):
    """Trial steps of the transient and of every renormalization window
    count against one max_steps budget."""
    import lorenzlab.integrator as integrator
    from lorenzlab import native

    # count the trial steps through the frozen reference loop, which runs
    # each window in place of the generated Python loop
    trials = 0
    p = SystemParams(10.0, 8.0 / 3.0, 28.0)

    def counting_loop(field_source, mode, n_targets, *unit):
        kernels = reference.kernels(field_source, p)

        def dp54(s, k1, dt):
            nonlocal trials
            trials += 1
            return kernels.dp54(s, k1, dt)

        def loop(a, b, cm, n1, pp, nb, u0, t_end, dt, attempts, max_steps, rel_tol,
                 abs_tol, blowup_norm, targets, capture_radius, bounds, record):
            settings = IntegratorSettings(rel_tol=rel_tol, abs_tol=abs_tol,
                                          max_steps=max_steps, blowup_norm=blowup_norm)
            res = reference.drive(kernels._replace(dp54=dp54), u0, settings, t_end,
                                  targets, capture_radius, record, dt, attempts)
            return res.status, res.state, res.dt, res.attempts, [], (), None

        return loop

    kw = dict(horizon=6.0, transient=2.0)
    # the exponent runs its windows on the Python loop where no native
    # kernel is built, and asks the integrator for that loop when it runs
    monkeypatch.setattr(native, "_kernel", lambda *key: None)
    monkeypatch.setattr(integrator, "_loop", counting_loop)
    free = largest_lyapunov_exponent(p, **kw)
    monkeypatch.undo()
    assert largest_lyapunov_exponent(p, **kw) == free
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
    runs = [
        _drive(_VARIATIONAL_SOURCE, p, (1.0, 1.0, 1.0, *e), rk4, t_end)
        for e in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    ]
    assert all(r.status is TrajectoryStatus.COMPLETED_TSPAN for r in runs)
    assert runs[0].times[-1] == t_end
    for r in runs[1:]:
        assert r.times == runs[0].times
        assert repr(r.columns[:3]) == repr(runs[0].columns[:3])

    # RK4 matches exp(h lambda) through h^4 lambda^4 / 24, so each step
    # misses each eigenvalue's volume factor by about (h |lambda|)^5 / 120;
    # over t / h steps and three eigenvalues below L = max ||J||_inf that is
    # at most t h^4 L^5 / 40.
    big_l = max(
        np.linalg.norm(jacobian(p, s), np.inf) for s in zip(*runs[0].columns[:3])
    )
    delta = -p.a + (p.N - 1.0) - p.b
    for i, t in enumerate(runs[0].times):
        det = _det3(*([c[i] for c in r.columns[3:]] for r in runs))
        assert abs(det / math.exp(delta * t) - 1.0) <= t * dt**4 * big_l**5 / 40.0


# ------------------------------------------- independent exponent oracles

# Regular side: when the orbit settles on a hyperbolic stable equilibrium,
# the tangent ends up in that point's dominant invariant subspace and grows
# like e^{J t} there, so lambda1 tends to the spectral abscissa alpha =
# max Re lambda.  In a real eigenbasis R of J (unit columns, the real and
# imaginary parts of a complex eigenvector for a pair), |e^{J t} v| / |v|
# lies within a factor cond(R) of e^{alpha t} for every v in that subspace.
# The time average over L = horizon - transient therefore misses alpha by at
# most ln cond(R) / L: the finite-horizon bias, largest for complex pairs.


def _real_eigenbasis_condition(j):
    w, v = np.linalg.eig(j)
    columns = []
    for k in range(3):
        if w[k].imag == 0.0:
            columns.append(v[:, k].real)
        elif w[k].imag > 0.0:
            columns += [v[:, k].real, v[:, k].imag]
    r = np.array(columns).T
    return float(np.linalg.cond(r / np.linalg.norm(r, axis=0)))


@pytest.mark.parametrize(
    "p",
    [
        SystemParams(1.0, 3.0, 2.0),
        SystemParams(10.0, 8.0 / 3.0, 0.5),
        SystemParams(35.0, 3.0, 0.5),
        SystemParams(5.0, 40.0, 3.0),
        SystemParams(10.0, 8.0 / 3.0, 10.0),
    ],
)
def test_regular_lle_equals_the_attractors_spectral_abscissa(p):
    eqs = find_equilibria(p)
    stable = [
        e for e in (eqs.origin, *(eqs.pair or ()))
        if max(lam.real for lam in e.eigenvalues) < 0.0
    ]
    # the attractor is the origin or E+-, which share their spectrum
    assert len({max(lam.real for lam in e.eigenvalues) for e in stable}) == 1
    alpha = max(lam.real for lam in stable[0].eigenvalues)
    est = largest_lyapunov_exponent(p)  # horizon 500, transient 50
    c = math.log(_real_eigenbasis_condition(jacobian(p, stable[0].location)))
    bound = c / (est.horizon - est.transient_discarded)
    assert abs(est.lambda1 - alpha) <= bound
    # the bound resolves the exponent to better than 1 %
    assert bound < 0.01 * abs(alpha)


# The spectrum sum: the field's divergence is the constant delta = -a +
# (N - 1) - b, so lambda1 + lambda2 + lambda3 = delta.  A test-only 12-D
# field (the base plus three tangents, reference.SPECTRUM_SOURCE) runs
# through the same generated loop, and Gram-Schmidt renormalizes the
# tangents once per window.


def _gram_schmidt(vectors):
    """Orthonormal vectors and the log-lengths of the orthogonalized ones."""
    basis, logs = [], []
    for v in vectors:
        for u in basis:
            d = sum(x * y for x, y in zip(v, u))
            v = [x - d * y for x, y in zip(v, u)]
        n = math.sqrt(sum(x * x for x in v))
        basis.append([x / n for x in v])
        logs.append(math.log(n))
    return basis, logs


def _spectrum_growths(p, settings, horizon, transient):
    """Per-window log-growths of the three directions after the transient,
    windows of length 1, and the trial steps those windows took."""
    s = (1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    dt, attempts = settings.dt_init, 0
    growths, measured = [], 0
    for w in range(int(horizon)):
        res = _drive(reference.SPECTRUM_SOURCE, p, s, settings, 1.0, record=False,
                     dt_start=dt, attempts=attempts)
        assert res.status is TrajectoryStatus.COMPLETED_TSPAN
        if w >= transient:
            measured += res.attempts - attempts
        dt, attempts = res.dt, res.attempts
        u = res.state
        basis, logs = _gram_schmidt([u[3:6], u[6:9], u[9:12]])
        if w >= transient:
            growths.append(logs)
        s = (*u[:3], *basis[0], *basis[1], *basis[2])
    return growths, measured


def _window_growths(history):
    """Each window's log-growth rate, from the running means of an LLE run
    with windows of length 1."""
    return [history[0]] + [
        (k + 1) * history[k] - k * history[k - 1] for k in range(1, len(history))
    ]


def _batch_se(values, batches=10):
    """Batch-means standard error of the mean of ``values``."""
    size = len(values) // batches
    means = [sum(values[i * size:(i + 1) * size]) / size for i in range(batches)]
    centre = sum(means) / batches
    return math.sqrt(sum((m - centre) ** 2 for m in means) / (batches - 1) / batches)


@pytest.mark.parametrize(
    "p", [SystemParams(10.0, 8.0 / 3.0, 28.0), SystemParams(10.0, 8.0 / 3.0, 0.5, M=28.0)],
    ids=["classic", "anticontrolled"],
)
def test_lyapunov_spectrum_sums_to_the_divergence(p):
    settings = IntegratorSettings()
    horizon, transient = 200.0, 20.0
    growths, measured = _spectrum_growths(p, settings, horizon, transient)
    span = horizon - transient
    lam = [sum(g[i] for g in growths) / span for i in range(3)]
    delta = -p.a + (p.N - 1.0) - p.b
    # the controller admits a local error of about rel_tol relative to the
    # state per trial step, which moves each of the three log-lengths by at
    # most about rel_tol; summed without cancellation over the measured steps
    assert abs(sum(lam) - delta) <= 3.0 * settings.rel_tol * measured / span

    # lambda1 is the production exponent, and lambda2 is zero on an attractor
    # that is not an equilibrium, each within three batch-means standard
    # errors of the window growths
    est = largest_lyapunov_exponent(p, horizon=horizon, transient=transient)
    production = _window_growths(est.history)
    se1 = _batch_se([g[0] for g in growths])
    assert abs(lam[0] - est.lambda1) <= 3.0 * math.hypot(se1, _batch_se(production))
    assert abs(lam[1]) <= 3.0 * _batch_se([g[1] for g in growths])
    assert lam[0] > 0.0 > lam[2]


def test_classic_lle_matches_the_literature_within_its_error_bar():
    # Sprott (2003) gives lambda1 = 0.9056 for classic Lorenz.  The default
    # run is one finite-time sample, so compare within three batch-means
    # standard errors of its window growth rates (Benettin et al. 1980,
    # Meccanica 15:9), and keep that error bar from ballooning
    est = largest_lyapunov_exponent(SystemParams(10.0, 8.0 / 3.0, 28.0))
    se = _batch_se(_window_growths(est.history))
    assert se <= 0.03
    assert abs(est.lambda1 - 0.9056) <= 3.0 * se


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
    rho_h = reference.hopf_rho(a, b)
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


def test_pair_stability_follows_routh_hurwitz_with_n_and_p():
    # a relative 1e-6 below the Hopf offset E+- have no unstable direction
    # and the regime is undetermined; above it E+- have two, every
    # equilibrium is unstable and the cell is a chaos candidate.  E+-'s
    # Hopf sign is that of c2 c1 - c0 = b h, h = c2 e - 2 a d = -g (d -
    # d_H), g = a - b - 1 + N; a cell on which the step leaves h inside
    # twice its band, where it cannot show the crossing (k or g near 0),
    # is drawn again
    rng = np.random.default_rng(83)
    cells = 0
    while cells < 1_000:
        a, b = float(rng.uniform(0.5, 50.0)), float(rng.uniform(0.05, 20.0))
        N, P = float(rng.uniform(-a / 2.0, 1.0 + a)), float(rng.uniform(-3.0, 0.9))
        g = a - b - 1.0 + N
        if not g > 0.05:
            continue
        c = float(rng.uniform(-5.0, 5.0))
        d_h = reference.hopf_offset(a, b, N)
        M = d_h + 1.0 - N - c
        scale_h = (1.0 + a + b + abs(N)) * (1.0 + a + abs(c) + abs(M)) + 2.0 * a * (
            1.0 + abs(M) + abs(N) + abs(c)
        )
        if g * 1e-6 * d_h <= 2.0 * SIGN_BAND * scale_h:
            continue
        for f, unstable, label in (
            (1.0 - 1e-6, 0, RegimeLabel.UNDETERMINED),
            (1.0 + 1e-6, 2, RegimeLabel.CHAOS_CANDIDATE),
        ):
            p = SystemParams(a, b, c, M=f * d_h + 1.0 - N - c, N=N, P=P)
            eqs = find_equilibria(p)
            assert eqs.kind is EquilibriumKind.TRIPLE, p
            for eq in eqs.pair:
                assert (eq.unstable_dim, eq.center_dim) == (unstable, 0), (p, eq)
            assert regime_classify(p) is label, p
        cells += 1


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


@pytest.mark.parametrize("margin", [1e-300, 1e-17, 1e-15])
def test_suggestion_rejects_a_margin_that_does_not_cross(margin):
    # 1e-300 and 1e-17 round away to the offset 0.0; at 1e-15 the pair
    # exists, but the offset is inside SIGN_BAND, so the origin is not a
    # saddle
    with pytest.raises(ValueError, match=f"^margin {margin!r} does not cross"):
        suggest_anticontrol(10.0, 8.0 / 3.0, 0.5, margin)


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
    # not blamed on the gain M that an infinite margin would make
    with pytest.raises(ValueError, match="^margin must be finite, got inf$"):
        suggest_anticontrol(10.0, 8.0 / 3.0, 0.5, math.inf)
    # a non-finite plant parameter fails as SystemParams says, not as an
    # unstable plant
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^parameter c must be finite, got {c!r}$"):
            suggest_anticontrol(10.0, 8.0 / 3.0, c, 28.0)


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
    assert sug.origin_class is OriginClass.SADDLE_WS2_WU1
    assert sug.equilibria_kind is EquilibriumKind.TRIPLE
    p = sug.params
    d = p.M + p.N + p.c - 1.0
    assert d > 0.0
    best = _best_offset_error(c, margin)
    assert abs(d - margin) == best
    if best == 0.0:
        assert d == margin
    assert abs(d - margin) <= 2.0**-52 * (1.0 + margin)
