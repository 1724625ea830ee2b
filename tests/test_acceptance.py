"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line
(visible under ``pytest -s``), and enforces its runtime budget.  The
tolerances here are contractual; loosening them is not an option.
"""

import math
import time

import numpy as np

from lorenzlab import (
    Branch,
    EquilibriumKind,
    IntegratorMode,
    IntegratorSettings,
    OriginClass,
    Preset,
    State,
    SystemParams,
    SweepAxis,
    SweepSpec,
    TrajectoryStatus,
    branch_symmetry_deviation,
    certificate,
    classify_origin,
    corollary_check,
    find_equilibria,
    integrate,
    integrate_to_equilibrium,
    largest_lyapunov_exponent,
    lyapunov_coefficients,
    origin_eigenvalues,
    run_sweep,
    suggest_anticontrol,
    sweep_csv,
    trace_heteroclinic,
    v_dot,
    v_dot_closed_form,
    v_gradient,
    v_value,
    vector_field,
)

import sampling

REGULAR = SystemParams(1.0, 3.0, 2.0)
CLASSIC = SystemParams(10.0, 8.0 / 3.0, 28.0)
STABLE = SystemParams(10.0, 8.0 / 3.0, 0.5)

# exponent runs do not need tight steps; this keeps criteria 8/9 quick
FAST = IntegratorSettings(rel_tol=1e-6, abs_tol=1e-9)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def _norm(s) -> float:
    return math.sqrt(s[0] ** 2 + s[1] ** 2 + s[2] ** 2)


def test_criterion_01_origin_classification_matches_eigenvalue_oracle():
    budget = 5.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    expected = {
        (2, 1): OriginClass.SADDLE_WS2_WU1,
        (1, 2): OriginClass.SADDLE_WS1_WU2,
        (3, 0): OriginClass.ATTRACTOR,
    }
    mismatches = 0
    for _ in range(10_000):
        p = sampling.clear_origin_params(rng, margin=1e-3)
        lams = origin_eigenvalues(p)
        key = (
            sum(1 for l in lams if l.real < 0.0),
            sum(1 for l in lams if l.real > 0.0),
        )
        if classify_origin(p) is not expected.get(key):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < budget
    _report(1, ok, f"0 of 10000 draws misclassified ({elapsed:.2f}s)")
    assert mismatches == 0
    assert elapsed < budget


def test_criterion_02_pair_locations_zero_the_field():
    budget = 1.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1_000):
        p = sampling.triple_params(rng)
        for eq in find_equilibria(p).pair:
            rel = _norm(vector_field(p, eq.location)) / (
                1.0 + _norm(eq.location)
            )
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < budget
    _report(2, ok, f"worst pair residual {worst:.2e} <= 1e-10 ({elapsed:.2f}s)")
    assert worst <= 1e-10
    assert elapsed < budget


def test_criterion_03_chain_rule_matches_closed_form_and_variant_does_not():
    budget = 5.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst_true = 0.0
    worst_variant = 0.0
    for _ in range(10_000):
        p = sampling.lemma_ok_params(rng)
        s = sampling.random_state(rng, 20.0)
        lhs = v_dot(p, s)
        rhs = v_dot_closed_form(p, s)
        worst_true = max(
            worst_true, abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
        )

        # same construction with the middle term (z - x^2/b)^2 instead of
        # (bz - x^2)^2; its cross terms no longer cancel against the field
        co = lyapunov_coefficients(p)
        x, y, z = s
        g2 = z - x * x / p.b
        gx = (
            2.0 * co.A * (x - y)
            - g2 * (4.0 * x / p.b)
            + 4.0 * co.B * x * (x * x - co.K)
        )
        gy = -2.0 * co.A * (x - y)
        gz = 2.0 * g2
        f = vector_field(p, s)
        variant = gx * f.x + gy * f.y + gz * f.z
        worst_variant = max(
            worst_variant,
            abs(variant - rhs) / (1.0 + abs(variant) + abs(rhs)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_true <= 1e-9 and worst_variant > 1e-3 and elapsed < budget
    _report(
        3,
        ok,
        f"exact form off by {worst_true:.2e}, variant off by "
        f"{worst_variant:.2e} ({elapsed:.2f}s)",
    )
    assert worst_true <= 1e-9
    assert worst_variant > 1e-3  # the plausible variant is badly wrong
    assert elapsed < budget


def test_criterion_04_v_monotone_along_adaptive_trajectories():
    budget = 30.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    settings = IntegratorSettings(t_max=30.0)
    climbs = 0
    for _ in range(100):
        p = sampling.lemma_ok_params(rng)
        u0 = sampling.random_state(rng, 20.0)
        tr = integrate(p, u0, settings)
        for prev, cur in zip(tr.states, tr.states[1:]):
            tau = settings.rel_tol * _norm(prev) + settings.abs_tol
            slack = 10.0 * tau * (1.0 + math.hypot(*v_gradient(p, prev)))
            if v_value(p, cur) > v_value(p, prev) + slack:
                climbs += 1
    elapsed = time.perf_counter() - t0
    ok = climbs == 0 and elapsed < budget
    _report(4, ok, f"0 uphill steps in 100 runs ({elapsed:.2f}s)")
    assert climbs == 0
    assert elapsed < budget


def test_criterion_05_every_start_is_captured_in_the_regular_case():
    budget = 30.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    eqs = find_equilibria(REGULAR)
    captured = 0
    for _ in range(100):
        u0 = sampling.random_state(rng, 10.0)
        out = integrate_to_equilibrium(REGULAR, u0, eqs)
        good = (
            out.trajectory.status is TrajectoryStatus.CAPTURED_EQUILIBRIUM
            and out.terminal is not None
            and out.final_distance <= 1e-6
            and out.trajectory.times[-1] <= 200.0
        )
        captured += good
    elapsed = time.perf_counter() - t0
    ok = captured == 100 and elapsed < budget
    _report(5, ok, f"{captured}/100 starts captured within 1e-6 ({elapsed:.2f}s)")
    assert captured == 100
    assert elapsed < budget


def test_criterion_06_heteroclinic_branch_and_exact_mirror():
    budget = 10.0
    t0 = time.perf_counter()
    target = (math.sqrt(3.0), math.sqrt(3.0), 1.0)
    all_good = True
    for eps in (1e-4, 1e-6, 1e-8):
        res = trace_heteroclinic(REGULAR, Branch.PLUS_X, epsilon=eps)
        final = res.trajectory.states[-1]
        dist = math.dist(final, target)
        all_good &= res.success and dist <= 1e-6 and res.extremal_x > 0.0

    fixed = IntegratorSettings(
        mode=IntegratorMode.FIXED_RK4, dt_init=1e-3, t_max=60.0
    )
    plus = trace_heteroclinic(REGULAR, Branch.PLUS_X, settings=fixed)
    minus = trace_heteroclinic(REGULAR, Branch.MINUS_X, settings=fixed)
    deviation = branch_symmetry_deviation(plus, minus)
    elapsed = time.perf_counter() - t0
    ok = all_good and deviation == 0.0 and elapsed < budget
    _report(
        6,
        ok,
        f"3 seed sizes reach the pair, mirror deviation {deviation!r} "
        f"({elapsed:.2f}s)",
    )
    assert all_good
    assert deviation == 0.0
    assert elapsed < budget


def test_criterion_07_pitchfork_flips_in_sweeps_and_at_the_hairline():
    budget = 5.0
    t0 = time.perf_counter()

    spec = SweepSpec(
        base=CLASSIC,
        axes=(SweepAxis("c", 0.5, 1.5, 11),),
        tasks=("origin_class",),
    )
    res = run_sweep(spec, workers=1)
    col = res.columns.index("origin_class")
    labels = [row[col] for row in res.rows]
    sweep_ok = (
        labels[:5] == ["attractor"] * 5
        and labels[5] == "non_hyperbolic"
        and labels[6:] == ["saddle_ws2_wu1"] * 5
    )

    below = classify_origin(SystemParams(10.0, 8.0 / 3.0, 1.0 - 1e-9))
    at = classify_origin(SystemParams(10.0, 8.0 / 3.0, 1.0))
    above = classify_origin(SystemParams(10.0, 8.0 / 3.0, 1.0 + 1e-9))
    hairline_ok = (
        below is OriginClass.ATTRACTOR
        and at is OriginClass.NON_HYPERBOLIC
        and above is OriginClass.SADDLE_WS2_WU1
    )

    m_spec = SweepSpec(
        base=STABLE,
        axes=(SweepAxis("M", 0.0, 1.0, 11),),
        tasks=("equilibria",),
    )
    m_res = run_sweep(m_spec, workers=1)
    kcol = m_res.columns.index("equilibria_kind")
    kinds = [row[kcol] for row in m_res.rows]
    lo = find_equilibria(SystemParams(10.0, 8.0 / 3.0, 0.5, M=0.5 - 1e-9))
    hi = find_equilibria(SystemParams(10.0, 8.0 / 3.0, 0.5, M=0.5 + 1e-9))
    count_ok = (
        kinds[:6] == ["origin_only"] * 6
        and kinds[6:] == ["triple"] * 5
        and lo.kind is EquilibriumKind.ORIGIN_ONLY
        and hi.kind is EquilibriumKind.TRIPLE
    )

    elapsed = time.perf_counter() - t0
    ok = sweep_ok and hairline_ok and count_ok and elapsed < budget
    _report(7, ok, f"both sweeps flip at the locus ({elapsed:.2f}s)")
    assert sweep_ok
    assert hairline_ok
    assert count_ok
    assert elapsed < budget


def test_criterion_08_lyapunov_exponent_reference_windows():
    budget = 60.0
    t0 = time.perf_counter()
    chaotic = largest_lyapunov_exponent(CLASSIC, settings=FAST)
    stable = largest_lyapunov_exponent(
        STABLE, settings=FAST, horizon=200.0, transient=20.0
    )
    elapsed = time.perf_counter() - t0
    ok = (
        0.8 <= chaotic.lambda1 <= 1.0
        and -0.55 <= stable.lambda1 <= -0.40
        and elapsed < budget
    )
    _report(
        8,
        ok,
        f"lambda1 chaotic {chaotic.lambda1:.4f} in [0.8,1.0], "
        f"stable {stable.lambda1:.4f} in [-0.55,-0.40] ({elapsed:.2f}s)",
    )
    assert 0.8 <= chaotic.lambda1 <= 1.0
    assert -0.55 <= stable.lambda1 <= -0.40
    assert elapsed < budget


def test_criterion_09_anticontrol_creates_chaos_from_a_stable_plant():
    budget = 60.0
    t0 = time.perf_counter()
    base_ok = (
        classify_origin(STABLE) is OriginClass.ATTRACTOR
        and find_equilibria(STABLE).kind is EquilibriumKind.ORIGIN_ONLY
    )
    sug = suggest_anticontrol(10.0, 8.0 / 3.0, 0.5, 28.0)
    est = largest_lyapunov_exponent(sug.params, settings=FAST)
    elapsed = time.perf_counter() - t0
    ok = (
        base_ok
        and sug.chaos_possible
        and "b < 2a" in sug.note
        and 0.8 <= est.lambda1 <= 1.1
        and elapsed < budget
    )
    _report(
        9,
        ok,
        f"suggested M={sug.params.M}, lambda1 {est.lambda1:.4f} in [0.8,1.1] "
        f"({elapsed:.2f}s)",
    )
    assert base_ok
    assert sug.chaos_possible and "b < 2a" in sug.note
    assert 0.8 <= est.lambda1 <= 1.1
    assert elapsed < budget


def test_criterion_10_corollaries_and_flag_nesting():
    budget = 5.0
    t0 = time.perf_counter()
    corollaries_ok = (
        corollary_check(Preset.LORENZ, 1.0, 3.0, 2.0) is True
        and corollary_check(Preset.CHEN, 35.0, 3.0, 28.0) is False
        and corollary_check(Preset.T_SYSTEM, 2.0, 1.0, 3.0) is True
        and corollary_check(Preset.T_SYSTEM, 2.0, 5.0, 3.0) is False
        and corollary_check(Preset.T_SYSTEM, 2.0, 1.0, 1.0) is False
    )
    rng = np.random.default_rng(1010)
    nest_violations = 0
    for _ in range(10_000):
        p = sampling.any_params(rng)
        flags = certificate(p).flags
        report = certificate(p)
        bad = (
            (flags.het_ok and not flags.conv_ok)
            or (flags.conv_ok and not flags.lemma_ok)
            or report.flags != flags
            or report.chaos_possible != (p.b < 2.0 * p.a)
        )
        nest_violations += bad
    elapsed = time.perf_counter() - t0
    ok = corollaries_ok and nest_violations == 0 and elapsed < budget
    _report(
        10,
        ok,
        f"preset statements verbatim, 0 nesting violations ({elapsed:.2f}s)",
    )
    assert corollaries_ok
    assert nest_violations == 0
    assert elapsed < budget


def test_criterion_11_sweep_output_is_worker_count_invariant():
    budget = 10.0
    t0 = time.perf_counter()
    spec = SweepSpec(
        base=CLASSIC,
        axes=(SweepAxis("c", 0.5, 1.5, 7), SweepAxis("M", -1.0, 1.0, 3)),
        tasks=("equilibria", "origin_class", "certificate", "regime"),
    )
    texts = [sweep_csv(run_sweep(spec, workers=w)) for w in (1, 2, 4)]
    repeat = sweep_csv(run_sweep(spec, workers=2))
    elapsed = time.perf_counter() - t0
    identical = texts[0] == texts[1] == texts[2] == repeat
    ok = identical and elapsed < budget
    _report(
        11,
        ok,
        f"csv identical for workers 1/2/4 and on rerun ({elapsed:.2f}s)",
    )
    assert identical
    assert elapsed < budget
