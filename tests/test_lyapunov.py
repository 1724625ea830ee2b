import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from lorenzlab import (
    DegenerateParamsError,
    Preset,
    State,
    SystemParams,
    UnsupportedPresetError,
    certificate,
    corollary_check,
    find_equilibria,
    lyapunov_coefficients,
    v_dot,
    v_dot_closed_form,
    v_gradient,
    v_value,
    vector_field,
)

import sampling


def test_coefficients_regular_example():
    co = lyapunov_coefficients(SystemParams(1.0, 3.0, 2.0))
    assert (co.A, co.B, co.K) == (3.0, 0.5, 3.0)


def test_coefficients_dyadic_example():
    co = lyapunov_coefficients(SystemParams(1.0, 4.0, 2.0))
    assert (co.A, co.B, co.K) == (8.0, 1.0, 4.0)


@pytest.mark.parametrize(
    "p",
    [
        SystemParams(0.0, 3.0, 2.0),
        SystemParams(1.0, 3.0, 2.0, P=1.0),
        # a subnormal a makes 2a tiny, so B = (b - 2a)/(2a) overflows
        SystemParams(5e-324, -1.0, 1.0),
        # b (b - 2a) overflows: A = inf
        SystemParams(1.0, 1e200, 1.0),
        # 1 / (1 - P) = 2**52 carries b (c - 1) past the float range: K = inf
        SystemParams(1.0, 3.0, 1e300, P=1 - 2**-52),
    ],
)
def test_degenerate_coefficient_params_raise(p):
    with pytest.raises(DegenerateParamsError):
        lyapunov_coefficients(p)
    with pytest.raises(DegenerateParamsError):
        v_value(p, State(1.0, 0.0, 0.0))


def test_v_and_derivative_hand_values():
    p = SystemParams(1.0, 3.0, 2.0)
    s = State(1.0, 0.0, 0.0)
    assert v_value(p, s) == 6.0
    assert v_dot(p, s) == -18.0
    assert v_dot_closed_form(p, s) == -18.0


def test_gradient_hand_values():
    # A=3, B=0.5, K=3: at (1,0,0) the three groups are (1, -1, -2)
    p = SystemParams(1.0, 3.0, 2.0)
    assert v_gradient(p, State(1.0, 0.0, 0.0)) == (6.0, -6.0, -6.0)


def test_chain_rule_matches_closed_form():
    rng = np.random.default_rng(61)
    for _ in range(2000):
        p = sampling.lemma_ok_params(rng)
        s = sampling.random_state(rng, 20.0)
        lhs = v_dot(p, s)
        rhs = v_dot_closed_form(p, s)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs) + abs(rhs))


def test_plausible_variant_of_middle_term_fails():
    """Replacing (bz - x^2)^2 by (z - x^2/b)^2 looks harmless but the
    cross terms no longer cancel against the field, so its chain-rule
    derivative disagrees with the closed form by orders of magnitude."""
    rng = np.random.default_rng(67)
    worst = 0.0
    for _ in range(500):
        p = sampling.lemma_ok_params(rng)
        s = sampling.random_state(rng, 20.0)
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
        lhs = gx * f.x + gy * f.y + gz * f.z
        rhs = v_dot_closed_form(p, s)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
    assert worst > 1e-3


def test_finite_difference_gradient_oracle():
    """Centered differences in extended precision with one Richardson step.

    V is quartic, so the h^2 and h^4 truncation terms cancel exactly and
    what remains is rounding noise far below the 1e-6 absolute bound.
    """
    rng = np.random.default_rng(71)
    for _ in range(500):
        p = sampling.lemma_ok_params(rng)
        s = sampling.random_state(rng, 20.0)
        co = lyapunov_coefficients(p)
        A, B, K, b = (np.longdouble(v) for v in (co.A, co.B, co.K, p.b))

        def v_ld(x, y, z):
            return A * (x - y) ** 2 + (b * z - x * x) ** 2 + B * (x * x - K) ** 2

        grad_fd = []
        for i in range(3):
            base = [np.longdouble(v) for v in s]
            h = np.longdouble(1e-3) * (1.0 + abs(base[i]))

            def diff(hh):
                up = list(base)
                dn = list(base)
                up[i] = up[i] + hh
                dn[i] = dn[i] - hh
                return (v_ld(*up) - v_ld(*dn)) / (2.0 * hh)

            d1 = diff(h)
            d2 = diff(h / 2.0)
            grad_fd.append((4.0 * d2 - d1) / 3.0)

        f = vector_field(p, s)
        vdot_fd = float(sum(g * np.longdouble(fi) for g, fi in zip(grad_fd, f)))
        assert abs(vdot_fd - v_dot(p, s)) <= 1e-6
        ga = v_gradient(p, s)
        for i in range(3):
            assert abs(float(grad_fd[i]) - ga[i]) <= 1e-6 * (1.0 + abs(ga[i]))


def test_derivative_is_nonpositive_under_lemma():
    rng = np.random.default_rng(73)
    for _ in range(2000):
        p = sampling.lemma_ok_params(rng)
        s = sampling.random_state(rng, 20.0)
        assert v_dot(p, s) <= 1e-12 * (1.0 + abs(v_value(p, s)))


def test_v_vanishes_at_pair_dyadic_case():
    # a=1, b=4, c=2 puts E+ at (2,2,1) and every coefficient on a dyadic
    # grid, so the cancellation is exact rather than merely small
    p = SystemParams(1.0, 4.0, 2.0)
    ep, em = find_equilibria(p).pair
    assert ep.location == State(2.0, 2.0, 1.0)
    assert v_value(p, ep.location) == 0.0
    assert v_value(p, em.location) == 0.0


def test_v_small_at_pair_generic_case():
    rng = np.random.default_rng(79)
    for _ in range(200):
        p = sampling.conv_ok_params(rng)
        eqs = find_equilibria(p)
        if eqs.pair is None:
            continue
        co = lyapunov_coefficients(p)
        scale = abs(co.A) + abs(co.B) + co.K * co.K + 1.0
        for eq in eqs.pair:
            assert abs(v_value(p, eq.location)) <= 1e-24 * scale


def test_v_positive_off_zero_set():
    rng = np.random.default_rng(83)
    for _ in range(500):
        p = sampling.conv_ok_params(rng)
        s = sampling.random_state(rng, 20.0)
        co = lyapunov_coefficients(p)
        if co.A == 0.0 or co.B == 0.0:
            continue
        on_zero_set = s.x == s.y and p.b * s.z == s.x**2 and s.x**2 == co.K
        if not on_zero_set:
            assert v_value(p, s) > 0.0


# ---------------------------------------------------------------- flags


def test_hypotheses_examples():
    good = certificate(SystemParams(1.0, 3.0, 2.0)).flags
    assert (good.lemma_ok, good.conv_ok, good.het_ok) == (True, True, True)

    classic = certificate(SystemParams(10.0, 8.0 / 3.0, 28.0)).flags
    assert not classic.lemma_ok and not classic.conv_ok and not classic.het_ok

    chen = certificate(SystemParams(35.0, 3.0, 28.0, M=-35.0, N=29.0)).flags
    assert not chen.lemma_ok


def test_hypotheses_hold_on_boundary_b_equals_2a():
    flags = certificate(SystemParams(1.5, 3.0, 2.0)).flags
    assert flags.lemma_ok and flags.conv_ok
    flags = certificate(SystemParams(1.5, 3.0, -7.0)).flags
    assert flags.lemma_ok and flags.conv_ok and not flags.het_ok


def test_second_family_satisfies_lemma_only():
    # b < 2a with P > 1: decrease conditions hold, convergence needs P < 1
    flags = certificate(SystemParams(2.0, 1.0, 0.5, P=2.0)).flags
    assert flags.lemma_ok
    assert not flags.conv_ok


def test_flag_nesting_and_certificate_wiring():
    rng = np.random.default_rng(89)
    for _ in range(2000):
        p = sampling.any_params(rng)
        flags = certificate(p).flags
        if flags.het_ok:
            assert flags.conv_ok
        if flags.conv_ok:
            assert flags.lemma_ok
        report = certificate(p)
        assert report.flags == flags
        assert report.no_closed_orbits == flags.lemma_ok
        assert report.no_homoclinic == flags.lemma_ok
        assert report.converges_to_equilibria == flags.conv_ok
        assert report.heteroclinic_pair == flags.het_ok
        assert report.chaos_possible == (p.b < 2.0 * p.a)


def test_samplers_deliver_their_families():
    rng = np.random.default_rng(97)
    for _ in range(300):
        assert certificate(sampling.lemma_ok_params(rng)).flags.lemma_ok
        assert certificate(sampling.conv_ok_params(rng)).flags.conv_ok
        assert certificate(sampling.het_ok_params(rng)).flags.het_ok


def test_false_flags_are_not_disproofs():
    """The flags certify; chaos_possible is a separate necessary check."""
    report = certificate(SystemParams(10.0, 8.0 / 3.0, 28.0))
    assert not report.converges_to_equilibria
    assert report.chaos_possible


# ------------------------------------------- exact oracle for the contract


def _claims_beyond_hypotheses(p):
    """What the certificate claims for p that its exact values deny.

    Every hypothesis is decided in rational arithmetic on the same doubles:
    lemma_ok needs a > 0, b > 0, P != 1, (b - 2a)/(1 - P) >= 0 and
    N - 1 - a <= 0; conv_ok adds b - 2a >= 0 and 1 - P > 0; het_ok adds
    c + M > 0 and M + N + c - 1 > 0.  Convergence to equilibria and the
    necessary condition for chaos, b < 2a, are never claimed together.
    """
    a, b, c, M, N, P = (Fraction(v) for v in (p.a, p.b, p.c, p.M, p.N, p.P))
    report = certificate(p)
    lemma = (
        a > 0 and b > 0 and P != 1 and (b - 2 * a) * (1 - P) >= 0 and N - 1 - a <= 0
    )
    conv = lemma and b - 2 * a >= 0 and 1 - P > 0
    het = conv and c + M > 0 and M + N + c - 1 > 0
    wrong = [
        name
        for name, claimed, holds in (
            ("lemma_ok", report.flags.lemma_ok, lemma),
            ("conv_ok", report.flags.conv_ok, conv),
            ("het_ok", report.flags.het_ok, het),
        )
        if claimed and not holds
    ]
    if report.converges_to_equilibria and report.chaos_possible:
        wrong.append("converges_to_equilibria and chaos_possible")
    return wrong


def _ulp_sides(x):
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


def _boundary_draws(rng):
    """conv_ok draws moved to one ulp either side of each boundary: the
    strict a = 0, b = 0, P = 1, c + M = 0 and M + N + c - 1 = 0, and the
    non-strict b = 2a and N = 1 + a.

    1 - P runs from 1 down to 1e-11, where even an offset of one rounding
    error clears the band once divided by it.  The offset's boundary is
    met by moving each of M, N and c in turn, so the moved term is at
    times much finer-grained than the partial sums and at times not.
    """
    for _ in range(400):
        base = dataclasses.replace(
            sampling.conv_ok_params(rng), P=1.0 - 10.0 ** -rng.uniform(0.0, 11.0)
        )
        for name in ("a", "b"):
            for v in _ulp_sides(0.0):
                yield dataclasses.replace(base, **{name: v})
        for P in _ulp_sides(1.0):
            yield dataclasses.replace(base, P=P)
        for M in _ulp_sides(-base.c):
            yield dataclasses.replace(base, M=M)
        for b in _ulp_sides(2.0 * base.a):
            yield dataclasses.replace(base, b=b)
        for N in _ulp_sides(float(1 + Fraction(base.a))):
            yield dataclasses.replace(base, N=N)
        # M + N + c = 1, solved for each of the three in turn
        for name in ("M", "N", "c"):
            others = sum(Fraction(getattr(base, o)) for o in "MNc" if o != name)
            for v in _ulp_sides(float(1 - others)):
                yield dataclasses.replace(base, **{name: v})


def test_certificate_claims_nothing_its_exact_hypotheses_deny():
    rng = np.random.default_rng(101)
    draws = [sampling.any_params(rng) for _ in range(5000)]
    draws += list(_boundary_draws(rng))
    # non-strict hypotheses that once passed inside the sign band: b just
    # below 2a claimed convergence next to chaos_possible, and N just above
    # 1 + a claimed lemma_ok
    draws += [
        SystemParams(1.0, 2.0 - 1e-13, 2.0),
        SystemParams(1.0, 3.0, 2.0, N=2.0 + 1e-13),
    ]
    het_claims = 0
    for p in draws:
        assert _claims_beyond_hypotheses(p) == [], p
        het_claims += certificate(p).flags.het_ok
    # the boundary draws reach the claim, not only its vacuous side
    assert het_claims > 100


def test_het_ok_refuses_an_offset_that_rounds_up_from_zero():
    # M + N + c - 1 is exactly 0, but ((M + N) + c) - 1 gives 2^-52, and
    # divided by 1 - P = 1e-6 that cleared the band
    p = SystemParams(
        1.0, 3.0, -1.9173892278210187, M=2.7431526306379115,
        N=0.17423659718310724, P=1.0 - 1e-6,
    )
    assert p.M + p.N + p.c - 1.0 == 2.0**-52
    assert Fraction(p.M) + Fraction(p.N) + Fraction(p.c) == 1
    flags = certificate(p).flags
    assert flags.conv_ok and not flags.het_ok


def test_sums_beyond_the_float_range_keep_their_sign():
    # N - 1 - a and M + N + c - 1 leave the float range part way, where
    # fsum raises; the exact sums' signs still decide
    flags = certificate(SystemParams(1.7e308, 1.0, 0.0, N=-1.7e308, P=2.0)).flags
    assert flags.lemma_ok and not flags.conv_ok
    p = SystemParams(8e307, 1.7e308, 0.0, M=1e308, N=8e307)
    assert certificate(p).flags.conv_ok
    assert _claims_beyond_hypotheses(p) == []
    # c + M and M + N + c - 1 overflow to +inf from exactly positive sums,
    # and a strict sign passes an infinite value
    p = SystemParams(1.0, 3.0, 1e308, M=1e308)
    assert certificate(p).flags.het_ok
    assert _claims_beyond_hypotheses(p) == []
    # 2c - a overflows the same way in Chen's strict condition
    assert corollary_check(Preset.CHEN, 1.0, 2.0, 1e308) is True


# ---------------------------------------------------------------- corollaries


def test_corollary_examples():
    assert corollary_check(Preset.LORENZ, 1.0, 3.0, 2.0) is True
    assert corollary_check(Preset.LORENZ, 10.0, 8.0 / 3.0, 28.0) is False
    assert corollary_check(Preset.LORENZ, 1.5, 3.0, 2.0) is True  # b = 2a edge
    assert corollary_check(Preset.CHEN, 35.0, 3.0, 28.0) is False
    assert corollary_check(Preset.CHEN, 2.0, 5.0, 1.5) is True
    assert corollary_check(Preset.T_SYSTEM, 2.0, 1.0, 3.0) is True
    assert corollary_check(Preset.T_SYSTEM, 2.0, 1.0, 1.0) is False
    assert corollary_check(Preset.T_SYSTEM, 2.0, 5.0, 3.0) is False
    # non-strict signs are exact: b one band-width short of 2a is not b >= 2a
    assert corollary_check(Preset.LORENZ, 1.0, 2.0 - 1e-13, 2.0) is False
    assert corollary_check(Preset.T_SYSTEM, 1.0, 2.0 + 1e-13, 3.0) is False
    # (b - 2a)(c - a) = 5e-324 * 0.4 underflows to 0, yet is positive
    assert corollary_check(Preset.CHEN, 0.0, 5e-324, 0.4) is False
    assert corollary_check(Preset.CHEN, 0.0, 0.0, 0.4) is True


def test_corollary_lu_unsupported():
    with pytest.raises(UnsupportedPresetError):
        corollary_check(Preset.LU, 36.0, 3.0, 20.0)


def test_lorenz_corollary_implies_generic_convergence():
    from lorenzlab import from_preset

    rng = np.random.default_rng(101)
    hits = 0
    for _ in range(500):
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.uniform(0.1, 5.0))
        c = float(rng.uniform(-5.0, 5.0))
        if corollary_check(Preset.LORENZ, a, b, c):
            hits += 1
            assert certificate(from_preset(Preset.LORENZ, a, b, c)).flags.conv_ok
    assert hits > 20


def test_preset_reductions_are_their_own_statements():
    """corollary_check reports the preset-specific condition as stated;
    certificate reports the generic one.  For the T preset at these
    values they disagree, and both answers are intentional."""
    from lorenzlab import from_preset

    assert corollary_check(Preset.T_SYSTEM, 2.0, 1.0, 3.0) is True
    assert certificate(from_preset(Preset.T_SYSTEM, 2.0, 1.0, 3.0)).flags.conv_ok is False
