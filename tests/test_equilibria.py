import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings as hsettings, strategies as st

from lorenzlab import (
    DegenerateBError,
    EquilibriumKind,
    OriginClass,
    Preset,
    State,
    SystemParams,
    apply_symmetry,
    classify_origin,
    eigenvalues_at,
    find_equilibria,
    jacobian,
    origin_eigenvalues,
    pitchfork_locus,
    pitchfork_locus_for_preset,
    vector_field,
)
from lorenzlab.equilibria import _cubic_roots

import sampling


def _norm(s):
    return math.sqrt(s[0] ** 2 + s[1] ** 2 + s[2] ** 2)


# ---------------------------------------------------------------- origin


def test_origin_eigenvalues_classic():
    # order convention: the two quadratic roots descending, then -b last
    lams = origin_eigenvalues(SystemParams(10.0, 8.0 / 3.0, 28.0))
    r = math.sqrt(1201.0)  # quadratic factor x^2 + 11x - 270
    assert lams[0] == pytest.approx((-11.0 + r) / 2.0, rel=1e-12)
    assert lams[1] == pytest.approx((-11.0 - r) / 2.0, rel=1e-12)
    assert lams[2] == -8.0 / 3.0 + 0.0j
    assert all(l.imag == 0.0 for l in lams)


def test_origin_eigenvalues_regular_case():
    # (x, y) block has trace -2 and determinant -1, so roots -1 +- sqrt(2)
    lams = origin_eigenvalues(SystemParams(1.0, 3.0, 2.0))
    assert lams[0] == pytest.approx(-1.0 + math.sqrt(2.0), rel=1e-12)
    assert lams[1] == pytest.approx(-1.0 - math.sqrt(2.0), rel=1e-12)
    assert lams[2] == -3.0 + 0.0j


def test_origin_eigenvalue_zero_at_the_pitchfork():
    lams = origin_eigenvalues(SystemParams(10.0, 8.0 / 3.0, 1.0))
    assert any(l == 0.0 for l in lams)


def test_origin_eigenvalues_complex_pair_ordering():
    # x^2 + 2x + 11 has roots -1 +- i sqrt(10); real parts sorted descending,
    # the conjugate pair adjacent with negative imaginary part first
    p = SystemParams(1.0, 3.0, -10.0)
    lams = origin_eigenvalues(p)
    assert lams[0] == lams[1].conjugate()
    assert lams[0].imag < 0.0 < lams[1].imag
    assert lams[0].real == pytest.approx(-1.0, rel=1e-12)
    assert abs(lams[0].imag) == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert lams[2] == -3.0 + 0.0j


def test_origin_quadratic_agrees_with_cubic():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = sampling.any_params(rng)
        quad = sorted(origin_eigenvalues(p), key=lambda l: (l.real, l.imag))
        cubic = sorted(
            eigenvalues_at(p, State(0.0, 0.0, 0.0)),
            key=lambda l: (l.real, l.imag),
        )
        for u, v in zip(quad, cubic):
            assert abs(u - v) <= 1e-9 * (1.0 + abs(u))


def test_classify_origin_examples():
    assert (
        classify_origin(SystemParams(10.0, 8.0 / 3.0, 28.0))
        is OriginClass.SADDLE_WS2_WU1
    )
    assert (
        classify_origin(SystemParams(10.0, 8.0 / 3.0, 0.5)) is OriginClass.ATTRACTOR
    )
    # q = ad = -2 < 0 and r = N - a - 1 = 1 > 0: both quadratic roots unstable
    assert classify_origin(SystemParams(-2.0, 1.0, 2.0)) is OriginClass.SADDLE_WS1_WU2
    assert (
        classify_origin(SystemParams(10.0, 8.0 / 3.0, 1.0))
        is OriginClass.NON_HYPERBOLIC
    )


@pytest.mark.parametrize("b", [0.0, -1.0, -8.0 / 3.0])
def test_classify_origin_needs_positive_b(b):
    assert classify_origin(SystemParams(10.0, b, 28.0)) is OriginClass.OUT_OF_HYPOTHESES


def test_classify_origin_band_absorbs_roundoff():
    # q = 10 * 1e-16 is far inside the relative tolerance band
    assert (
        classify_origin(SystemParams(10.0, 8.0 / 3.0, 1.0 + 1e-16))
        is OriginClass.NON_HYPERBOLIC
    )


def test_classify_origin_matches_eigenvalue_signs():
    rng = np.random.default_rng(17)
    expected = {
        (2, 1): OriginClass.SADDLE_WS2_WU1,
        (1, 2): OriginClass.SADDLE_WS1_WU2,
        (3, 0): OriginClass.ATTRACTOR,
    }
    for _ in range(2000):
        p = sampling.clear_origin_params(rng)
        lams = origin_eigenvalues(p)
        key = (
            sum(1 for l in lams if l.real < 0.0),
            sum(1 for l in lams if l.real > 0.0),
        )
        assert classify_origin(p) is expected[key], p


# ---------------------------------------------------------------- cubic


def test_eigenvalues_at_vieta_identities():
    rng = np.random.default_rng(23)
    for _ in range(300):
        p = sampling.any_params(rng)
        s = sampling.random_state(rng, 10.0)
        lams = eigenvalues_at(p, s)
        J = jacobian(p, s)
        tr = float(np.trace(J))
        det = float(np.linalg.det(J))
        total = sum(lams)
        prod = lams[0] * lams[1] * lams[2]
        assert abs(total - tr) <= 1e-9 * (1.0 + abs(tr))
        assert abs(prod - det) <= 1e-9 * (1.0 + abs(det))


def test_eigenvalues_at_agrees_with_lapack():
    rng = np.random.default_rng(29)
    for _ in range(300):
        p = sampling.any_params(rng)
        s = sampling.random_state(rng, 10.0)
        ours = sorted(eigenvalues_at(p, s), key=lambda l: (l.real, l.imag))
        ref = sorted(
            (complex(l) for l in np.linalg.eigvals(jacobian(p, s))),
            key=lambda l: (l.real, l.imag),
        )
        for u, v in zip(ours, ref):
            assert abs(u - v) <= 1e-8 * (1.0 + abs(v))


def test_eigenvalues_at_characteristic_residual():
    rng = np.random.default_rng(31)
    for _ in range(300):
        p = sampling.any_params(rng)
        s = sampling.random_state(rng, 10.0)
        J = jacobian(p, s)
        tr = float(np.trace(J))
        c2 = -tr
        c1 = 0.5 * (tr * tr - float(np.trace(J @ J)))
        c0 = -float(np.linalg.det(J))
        for lam in eigenvalues_at(p, s):
            res = abs(((lam + c2) * lam + c1) * lam + c0)
            scale = (
                abs(lam) ** 3
                + abs(c2) * abs(lam) ** 2
                + abs(c1) * abs(lam)
                + abs(c0)
                + 1.0
            )
            assert res <= 1e-9 * scale


def test_complex_eigenvalues_are_exact_conjugates():
    rng = np.random.default_rng(37)
    seen = 0
    for _ in range(300):
        p = sampling.any_params(rng)
        lams = eigenvalues_at(p, sampling.random_state(rng, 10.0))
        cplx = [l for l in lams if l.imag != 0.0]
        if not cplx:
            continue
        seen += 1
        assert len(cplx) == 2
        assert cplx[0].real == cplx[1].real
        assert cplx[0].imag == -cplx[1].imag
    assert seen > 50  # the draw box produces plenty of complex cases


def test_eigenvalue_ordering_convention():
    rng = np.random.default_rng(41)
    for _ in range(100):
        p = sampling.any_params(rng)
        lams = eigenvalues_at(p, sampling.random_state(rng, 10.0))
        res = [l.real for l in lams]
        assert res == sorted(res, reverse=True)


# The eigenvalue path before it formed the Jacobian entries as scalars:
# a numpy Jacobian unpacked entry by entry, and the cubic solver with its
# Newton polish as local functions.  eigenvalues_at must match it bit for
# bit, except where a power of the depressed cubic underflowed: there the
# old path divided by zero or returned a false triple root, the oracle
# raises _Underflow, and the new path rescales the cubic.


class _Underflow(ArithmeticError):
    pass


def _cubic_roots_oracle(c2, c1, c0):
    shift = c2 / 3.0
    pcoef = c1 - c2 * shift
    qcoef = (2.0 * shift * shift - c1) * shift + c0
    disc = (qcoef / 2.0) ** 2 + (pcoef / 3.0) ** 3
    if disc > 0.0:
        sq = math.sqrt(disc)
        if qcoef >= 0.0:
            w = -qcoef / 2.0 - sq
        else:
            w = -qcoef / 2.0 + sq
        u = math.copysign(abs(w) ** (1.0 / 3.0), w)
        v = -pcoef / (3.0 * u) if u != 0.0 else 0.0
        t_real = u + v
        re = -t_real / 2.0
        im = (math.sqrt(3.0) / 2.0) * (u - v)
        ts = [complex(t_real, 0.0), complex(re, im), complex(re, -im)]
    elif pcoef < 0.0:
        mfac = 2.0 * math.sqrt(-pcoef / 3.0)
        if pcoef * mfac == 0.0:
            raise _Underflow("p * m underflowed")
        arg = 3.0 * qcoef / (pcoef * mfac)
        arg = min(1.0, max(-1.0, arg))
        phi = math.acos(arg)
        ts = [
            complex(mfac * math.cos((phi - 2.0 * math.pi * k) / 3.0), 0.0)
            for k in range(3)
        ]
    elif disc == 0.0 and (pcoef != 0.0 or qcoef != 0.0):
        raise _Underflow("both terms of disc underflowed")
    else:
        t = math.copysign(abs(qcoef) ** (1.0 / 3.0), -qcoef)
        ts = [complex(t, 0.0)] * 3

    roots = [t - shift for t in ts]

    def poly(z):
        return ((z + c2) * z + c1) * z + c0

    def dpoly(z):
        return (3.0 * z + 2.0 * c2) * z + c1

    polished = []
    for z in roots:
        dp = dpoly(z)
        scale = abs(z) ** 2 + abs(c2) * abs(z) + abs(c1)
        if abs(dp) > 1e-8 * max(scale, 1.0):
            z = z - poly(z) / dp
        polished.append(z)
    if disc > 0.0:
        polished[2] = polished[1].conjugate()
    return polished


def _char_cubic(p, s):
    """(c2, c1, c0) of the Jacobian's characteristic cubic at s."""
    J = jacobian(p, s)
    a11, a12, a13 = float(J[0, 0]), float(J[0, 1]), float(J[0, 2])
    a21, a22, a23 = float(J[1, 0]), float(J[1, 1]), float(J[1, 2])
    a31, a32, a33 = float(J[2, 0]), float(J[2, 1]), float(J[2, 2])
    tr = a11 + a22 + a33
    minors = (
        (a22 * a33 - a23 * a32)
        + (a11 * a33 - a13 * a31)
        + (a11 * a22 - a12 * a21)
    )
    det = (
        a11 * (a22 * a33 - a23 * a32)
        - a12 * (a21 * a33 - a23 * a31)
        + a13 * (a21 * a32 - a22 * a31)
    )
    return -tr, minors, -det


def _eigenvalues_at_oracle(p, s):
    roots = _cubic_roots_oracle(*_char_cubic(p, s))
    roots.sort(key=lambda z: (-z.real, z.imag))
    return (roots[0], roots[1], roots[2])


def _solves_tiny_cubic(roots, c2, c1, c0, tol=1e-12):
    """Vieta's relations, to a relative tol, for a cubic whose coefficients
    are all below 1e-100, after the exact rescaling lambda -> 2^300 lambda
    that lifts them out of the subnormal range."""
    k = 2.0**300
    r1, r2, r3 = (z * k for z in roots)
    c2, c1, c0 = c2 * k, c1 * k * k, c0 * k * k * k
    size = max(abs(r1), abs(r2), abs(r3), abs(c2), abs(c1) ** 0.5)
    size = max(size, abs(c0) ** (1 / 3))
    return (
        abs(r1 + r2 + r3 + c2) <= tol * size
        and abs(r1 * r2 + r1 * r3 + r2 * r3 - c1) <= tol * size**2
        and abs(r1 * r2 * r3 + c0) <= tol * size**3
    )


def _eig_outcome(fn, p, s):
    # huge entries overflow ``** 2`` in the cubic; raising is compared too
    try:
        return tuple(repr(z) for z in fn(p, s))
    except OverflowError:
        return "OverflowError"


_moderate = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
_param = st.one_of(
    _moderate,
    st.sampled_from([0.0, -0.0, 1.0, 2.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_coord = st.one_of(
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@hsettings(max_examples=500, deadline=None)
@given(
    p=st.builds(SystemParams, *[_param] * 6),
    s=st.tuples(_coord, _coord, _coord),
)
@example(p=SystemParams(0.0, 1.0, 2.0), s=(0.0, -0.0, 1.0))
@example(p=SystemParams(10.0, 8.0 / 3.0, 28.0), s=(-0.0, 0.0, 0.0))
@example(p=SystemParams(-5e-324, 0.0, 0.0, -1.0, 1.0), s=(0.0, 0.0, 0.0))
@example(p=SystemParams(0.0, 4.296093079516111e-151, 0.0, N=1.0), s=(0.0, 0.0, 0.0))
def test_eigenvalues_at_matches_numpy_jacobian_oracle(p, s):
    try:
        expected = _eig_outcome(_eigenvalues_at_oracle, p, s)
    except _Underflow:
        # the new path rescales the cubic there, and its roots must solve it
        assert _solves_tiny_cubic(eigenvalues_at(p, s), *_char_cubic(p, s))
        return
    assert _eig_outcome(eigenvalues_at, p, s) == expected


@hsettings(max_examples=500, deadline=None)
@given(
    c1=st.one_of(st.floats(0.0, 1e-110), st.floats(-1e-217, 0.0)),
    c0=st.floats(-1e-163, 1e-163),
)
@example(c1=0.0, c0=2.067621208231412e-196)
def test_cubic_roots_solve_cubics_whose_discriminant_underflows(c1, c0):
    # lambda^3 + c1 lambda + c0 with these bounds: both terms of the
    # discriminant underflow to 0, and for c1 < 0 so does p * m; the roots
    # must still be one real root and a conjugate pair, or three real ones,
    # that satisfy Vieta's relations (lambda^3 + c0 has no triple root)
    assert _solves_tiny_cubic(_cubic_roots(0.0, c1, c0), 0.0, c1, c0)


@hsettings(max_examples=300, deadline=None)
@given(p=st.builds(SystemParams, *[_moderate] * 6))
@example(p=SystemParams(0.0, -7.77684110159138e-239, 0.0, -1.0, 1.0, 0.0))
def test_equilibrium_spectra_match_numpy_jacobian_oracle(p):
    # the origin and E+- of random cells, as find_equilibria records them
    try:
        eqs = find_equilibria(p)
    except DegenerateBError:
        return
    points = [eqs.origin, *(eqs.pair or ())]
    for eq in points:
        try:
            oracle = _eigenvalues_at_oracle(p, eq.location)
        except _Underflow:
            # as in the test above: the rescaled roots must solve the cubic
            assert eq.eigenvalues == eigenvalues_at(p, eq.location)
            assert _solves_tiny_cubic(eq.eigenvalues, *_char_cubic(p, eq.location))
            continue
        want = tuple(repr(z) for z in oracle)
        assert tuple(repr(z) for z in eq.eigenvalues) == want
        assert _eig_outcome(eigenvalues_at, p, eq.location) == want


# ---------------------------------------------------------------- equilibria


def test_find_equilibria_classic_triple():
    p = SystemParams(10.0, 8.0 / 3.0, 28.0)
    eqs = find_equilibria(p)
    assert eqs.kind is EquilibriumKind.TRIPLE
    ep, em = eqs.pair
    s = math.sqrt(72.0)
    assert ep.location.x == pytest.approx(s, rel=1e-12)
    assert ep.location.y == pytest.approx(s, rel=1e-12)
    assert ep.location.z == pytest.approx(27.0, rel=1e-12)
    # classic supercritical regime: one real stable direction, unstable focus
    assert (ep.stable_dim, ep.unstable_dim, ep.center_dim) == (1, 2, 0)
    assert eqs.origin.location == State(0.0, 0.0, 0.0)
    assert (eqs.origin.stable_dim, eqs.origin.unstable_dim) == (2, 1)


def test_pair_is_the_exact_mirror():
    rng = np.random.default_rng(43)
    for _ in range(200):
        p = sampling.triple_params(rng)
        ep, em = find_equilibria(p).pair
        assert em.location == apply_symmetry(ep.location)
        # the mirror is a similarity, so the characteristic polynomials and
        # hence the computed eigenvalues agree bit for bit
        assert em.eigenvalues == ep.eigenvalues


def test_equilibrium_residual_bound():
    rng = np.random.default_rng(47)
    for _ in range(200):
        p = sampling.triple_params(rng)
        for eq in find_equilibria(p).pair:
            res = _norm(vector_field(p, eq.location))
            assert res <= 1e-10 * (1.0 + _norm(eq.location))


def test_find_equilibria_dims_regular_case():
    eqs = find_equilibria(SystemParams(1.0, 3.0, 2.0))
    ep, em = eqs.pair
    assert ep.location == pytest.approx((math.sqrt(3.0), math.sqrt(3.0), 1.0))
    assert (ep.stable_dim, ep.unstable_dim, ep.center_dim) == (3, 0, 0)
    assert (em.stable_dim, em.unstable_dim, em.center_dim) == (3, 0, 0)


def test_find_equilibria_origin_only():
    eqs = find_equilibria(SystemParams(10.0, 8.0 / 3.0, 0.5))
    assert eqs.kind is EquilibriumKind.ORIGIN_ONLY
    assert eqs.pair is None


def test_triple_with_reversed_denominator():
    # d = -0.5 and 1 - P = -1 make bd/(1-P) positive again
    p = SystemParams(10.0, 8.0 / 3.0, 0.5, P=2.0)
    eqs = find_equilibria(p)
    assert eqs.kind is EquilibriumKind.TRIPLE
    ep = eqs.pair[0]
    assert ep.location.z == pytest.approx(0.5, rel=1e-12)
    assert ep.location.x == pytest.approx(math.sqrt(8.0 / 3.0 * 0.5), rel=1e-12)


def test_continuum_detection():
    line = find_equilibria(SystemParams(2.0, 3.0, 1.0, P=1.0))
    assert line.kind is EquilibriumKind.CONTINUUM
    assert line.pair is None
    lone = find_equilibria(SystemParams(2.0, 3.0, 2.0, P=1.0))
    assert lone.kind is EquilibriumKind.ORIGIN_ONLY


def test_degenerate_b_raises():
    with pytest.raises(DegenerateBError):
        find_equilibria(SystemParams(10.0, 0.0, 28.0))


def test_origin_center_dimension_at_pitchfork():
    eqs = find_equilibria(SystemParams(10.0, 8.0 / 3.0, 1.0))
    o = eqs.origin
    assert o.center_dim == 1
    assert o.unstable_dim == 0
    assert o.stable_dim == 2


# ---------------------------------------------------------------- pitchfork


def test_pitchfork_locus_solves_offset():
    rng = np.random.default_rng(53)
    for _ in range(200):
        p = sampling.any_params(rng)
        for free in ("M", "N", "c"):
            star = pitchfork_locus(p, free)
            q = dataclasses.replace(p, **{free: star})
            d = q.M + q.N + q.c - 1.0
            assert abs(d) <= 1e-12 * (1.0 + abs(q.M) + abs(q.N) + abs(q.c))


def test_pitchfork_locus_flips_pair_existence():
    rng = np.random.default_rng(59)
    checked = 0
    for _ in range(200):
        p = sampling.any_params(rng)
        if abs(1.0 - p.P) < 1e-6 or abs(p.b) < 1e-6:
            continue
        checked += 1
        for free in ("M", "N", "c"):
            star = pitchfork_locus(p, free)
            delta = 1e-3 * (1.0 + abs(star))
            lo = find_equilibria(dataclasses.replace(p, **{free: star - delta}))
            hi = find_equilibria(dataclasses.replace(p, **{free: star + delta}))
            assert {lo.kind, hi.kind} == {
                EquilibriumKind.ORIGIN_ONLY,
                EquilibriumKind.TRIPLE,
            }
    assert checked > 150


def test_pitchfork_locus_rejects_unknown_name():
    with pytest.raises(ValueError):
        pitchfork_locus(SystemParams(10.0, 8.0 / 3.0, 28.0), "b")


@pytest.mark.parametrize(
    "preset,a,star",
    [
        (Preset.LORENZ, 10.0, 1.0),
        (Preset.CHEN, 2.0, 1.0),
        (Preset.LU, 36.0, 0.0),
        (Preset.T_SYSTEM, 2.0, 2.0),
    ],
)
def test_preset_pitchfork_locus_values(preset, a, star):
    assert pitchfork_locus_for_preset(preset, a) == star


@pytest.mark.parametrize(
    "preset,a,b",
    [
        (Preset.LORENZ, 10.0, 8.0 / 3.0),
        (Preset.CHEN, 2.0, 3.0),
        (Preset.LU, 36.0, 3.0),
        (Preset.T_SYSTEM, 2.0, 3.0),
    ],
)
def test_preset_pitchfork_locus_flips_kind(preset, a, b):
    from lorenzlab import from_preset

    star = pitchfork_locus_for_preset(preset, a)
    below = find_equilibria(from_preset(preset, a, b, star - 0.1))
    above = find_equilibria(from_preset(preset, a, b, star + 0.1))
    assert {below.kind, above.kind} == {
        EquilibriumKind.ORIGIN_ONLY,
        EquilibriumKind.TRIPLE,
    }
