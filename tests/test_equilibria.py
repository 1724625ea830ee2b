import cmath
import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings as hsettings, strategies as st

from lorenzlab import (
    DegenerateBError,
    EquilibriumKind,
    OriginClass,
    Preset,
    RegimeLabel,
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
    regime_classify,
    suggest_anticontrol,
    vector_field,
)
from lorenzlab import equilibria
from lorenzlab.equilibria import (
    _characteristic_cubic,
    _cubic_roots,
    _record,
    _spectral_order,
    _spectrum,
)

import sampling


def _cubic_at(p, s):
    """The characteristic cubic at s for the six parameter floats of p."""
    return _characteristic_cubic(p.a, p.b, p.c, p.M, p.N, p.P, s)


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
# bit, except where both terms of the depressed cubic's discriminant fall
# below the normal range (|q| < 2^-511 and |p| < 2^-340, not both zero):
# there the old path divided by zero, returned a false triple root or
# lost a complex pair, the oracle raises _Underflow, and the new path
# rescales the cubic.  Two rules sit on top of the old path, as in the
# solver: a NaN coefficient gives three NaN roots, and an OverflowError
# (a square or cube of a huge coefficient, or |z|^2 in the polish)
# becomes the solver's ValueError.


class _Underflow(ArithmeticError):
    pass


def _cubic_roots_oracle(c2, c1, c0):
    if math.isnan(c2) or math.isnan(c1) or math.isnan(c0):
        return [complex(math.nan, math.nan)] * 3
    try:
        return _closed_form_oracle(c2, c1, c0)
    except OverflowError:
        raise ValueError(
            f"the characteristic cubic's coefficients ({c2!r}, {c1!r}, {c0!r}) "
            "are beyond the float range"
        ) from None


def _closed_form_oracle(c2, c1, c0):
    shift = c2 / 3.0
    pcoef = c1 - c2 * shift
    qcoef = (2.0 * shift * shift - c1) * shift + c0
    disc = (qcoef / 2.0) ** 2 + (pcoef / 3.0) ** 3
    if abs(qcoef) < 2.0**-511 and abs(pcoef) < 2.0**-340:
        if pcoef != 0.0 or qcoef != 0.0:
            raise _Underflow("both terms of disc fell below the normal range")
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
        den = pcoef * mfac
        # 0 only under a NaN q (a tiny real q raised above); the new path
        # then takes arg = NaN instead of dividing by zero
        arg = 3.0 * qcoef / den if den != 0.0 else math.nan
        arg = min(1.0, max(-1.0, arg))
        phi = math.acos(arg)
        ts = [
            complex(mfac * math.cos((phi - 2.0 * math.pi * k) / 3.0), 0.0)
            for k in range(3)
        ]
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
    # huge entries overflow the cubic's closed form; the ValueError that
    # reports it is compared too, and an OverflowError escapes the test
    try:
        return tuple(repr(z) for z in fn(p, s))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _dims_oracle(eigs):
    """(stable, unstable, center) counts: a center direction lies in the
    band |Re| <= CENTER_BAND (1 + |lambda|) or has a NaN real part."""
    stable = unstable = center = 0
    for lam in eigs:
        if math.isnan(lam.real) or abs(lam.real) <= equilibria.CENTER_BAND * (
            1.0 + abs(lam)
        ):
            center += 1
        elif lam.real > 0.0:
            unstable += 1
        else:
            stable += 1
    return stable, unstable, center


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


@pytest.mark.parametrize(
    "c2,c1,c0",
    [(0.0, -1e-110, 1e-163), (-6.518844661204176e-103, 0.0, -2.225073858507e-311)],
)
def test_cubic_roots_solve_cubics_whose_discriminant_leaves_the_normal_range(
    c2, c1, c0
):
    # the terms of the discriminant fall below the normal range without
    # both underflowing to 0, and without p * m underflowing: both cubics
    # have one real root and a conjugate pair, once lost to three real roots
    roots = _cubic_roots(c2, c1, c0)
    assert _solves_tiny_cubic(roots, c2, c1, c0)
    assert roots[0].imag == 0.0
    assert roots[1].imag != 0.0 and roots[2] == roots[1].conjugate()


def test_cubic_roots_survive_a_nan_constant_term_with_a_tiny_p():
    # a = 0 and x * (c + M) overflowing give c0 = NaN through 0 * inf, and
    # c2 = b, c1 = 0 give p = -b^2 / 3, small enough for p * m to underflow
    # to 0 on the trigonometric branch; the closed form once returned
    # finite roots here.  A NaN coefficient gives three NaN roots.
    p = SystemParams(0.0, 1e-120, 1e300, N=1.0, P=1.0)
    c2, c1, c0 = _cubic_at(p, (1e10, 0.0, 0.0))
    assert math.isnan(c0) and c1 == 0.0 and c2 == 1e-120
    nan_roots = ("(nan+nanj)",) * 3
    assert _eig_outcome(eigenvalues_at, p, (1e10, 0.0, 0.0)) == nan_roots
    assert _eig_outcome(_eigenvalues_at_oracle, p, (1e10, 0.0, 0.0)) == nan_roots


@pytest.mark.parametrize(
    "cubic",
    [(math.nan, 1.0, 2.0), (1.0, math.nan, 2.0), (1.0, 2.0, math.nan),
     (math.nan, math.inf, -math.inf)],
)
def test_a_nan_coefficient_gives_nan_roots(cubic):
    assert [repr(z) for z in _cubic_roots(*cubic)] == ["(nan+nanj)"] * 3


@pytest.mark.parametrize(
    "cubic",
    [
        (0.0, 0.0, 1e300),  # (q / 2) ** 2
        (0.0, -1e200, 0.0),  # (p / 3) ** 3
        (1e103, 0.0, 0.0),  # p = -c2^2 / 3, cubed
        (13.666666666666666, -1e301, -2.666666666666667e301),  # c = 1e300
    ],
)
def test_an_overflowing_cubic_raises_a_value_error(cubic):
    # the discriminant leaves the float range: the oracle's OverflowError,
    # as a ValueError with the same text
    with pytest.raises(ValueError, match="beyond the float range") as raised:
        _cubic_roots(*cubic)
    with pytest.raises(ValueError) as expected:
        _cubic_roots_oracle(*cubic)
    assert str(raised.value) == str(expected.value)


@hsettings(max_examples=300, deadline=None)
@given(p=st.builds(SystemParams, *[_param] * 6))
@example(p=SystemParams(0.0, -7.77684110159138e-239, 0.0, -1.0, 1.0, 0.0))
@example(p=SystemParams(0.0, 3.0, 2.0))  # a = 0: zero coefficients
@example(p=SystemParams(1.0, 1e200, 1e200))  # E+ overflows: NaN coefficients
@example(p=SystemParams(1.0, 1e300, 28.0))  # an infinite spectrum
@example(p=SystemParams(1e200, 1.0, 1.0))  # the origin's discriminant overflows
@example(p=SystemParams(1e154, 1.0, 1.0, M=2e154))  # the origin's cc is -inf
def test_equilibrium_spectra_match_numpy_jacobian_oracle(p):
    # the origin and E+- of random cells, as find_equilibria records them:
    # the origin is its factored spectrum, held to the exact one, and E+-
    # are held to the cubic oracle.  Each cubic solved is logged with its
    # point, so an overflow can be traced to the point whose cubic raised
    located, solved = [], []

    def logged_cubic(*args):
        cubic = _characteristic_cubic(*args)
        located.append((args[-1], cubic))
        return cubic

    def logged_spectrum(cubic):
        solved.append(next(s for s, c in located if c is cubic))
        return _spectrum(cubic)

    with mock.patch.object(equilibria, "_characteristic_cubic", logged_cubic), \
            mock.patch.object(equilibria, "_spectrum", logged_spectrum):
        try:
            eqs = find_equilibria(p)
        except DegenerateBError:
            return
        except ValueError as exc:
            if not solved:
                # a coefficient of the origin's quadratic left the float
                # range; a discriminant that alone overflows is rescaled
                bb, cc = _origin_coefficients(p)
                assert not (math.isfinite(bb) and math.isfinite(cc))
                with pytest.raises(ValueError) as raised:
                    origin_eigenvalues(p)
                assert str(raised.value) == str(exc)
                return
            # the last cubic solved overflowed; so does the oracle's
            oracle = _eig_outcome(_eigenvalues_at_oracle, p, solved[-1])
            assert oracle == f"ValueError: {exc}"
            return
    origin = eqs.origin
    want = tuple(sorted(origin_eigenvalues(p), key=_spectral_order))
    assert repr(origin.eigenvalues) == repr(want)
    dims = (origin.stable_dim, origin.unstable_dim, origin.center_dim)
    assert dims == _dims_oracle(want)
    _check_origin_exactness(p)
    for eq in eqs.pair or ():
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
        dims = (eq.stable_dim, eq.unstable_dim, eq.center_dim)
        assert dims == _dims_oracle(oracle)
    if eqs.pair is not None:
        # E- carries E+'s spectrum only where that is what solving its own
        # cubic gives, dimension counts included
        em = eqs.pair[1]
        own = _record(em.location, _spectrum(_cubic_at(p, em.location)))
        assert repr(em) == repr(own)


@pytest.mark.parametrize(
    "p,spectra",
    [
        # the origin's quadratic and E+'s cubic; E- reuses E+'s spectrum
        (SystemParams(10.0, 8.0 / 3.0, 28.0), 2),
        (SystemParams(1.0, 3.0, 2.0), 2),
        (SystemParams(10.0, 8.0 / 3.0, 0.5, P=2.0), 2),
        # a = 0 makes a13 * a31 and friends signed zeros in c1 and c0
        (SystemParams(0.0, 3.0, 2.0), 3),
        # E+ overflows to an infinite location whose cubic has NaN
        # coefficients, and NaN never compares equal
        (SystemParams(1.0, 1e200, 1e200), 3),
    ],
)
def test_mirrored_equilibrium_reuses_the_spectrum_of_its_twin(p, spectra):
    solved = []
    origin_quadratic = equilibria._origin_eigenvalues

    def quadratic(*args):
        solved.append("quadratic")
        return origin_quadratic(*args)

    def cubic(c2, c1, c0):
        solved.append("cubic")
        return _cubic_roots(c2, c1, c0)

    with mock.patch.object(equilibria, "_origin_eigenvalues", quadratic), \
            mock.patch.object(equilibria, "_cubic_roots", cubic):
        eqs = find_equilibria(p)
    assert eqs.kind is EquilibriumKind.TRIPLE
    assert solved == ["quadratic"] + ["cubic"] * (spectra - 1)
    ep, em = eqs.pair
    assert repr(em.eigenvalues) == repr(ep.eigenvalues)


@hsettings(max_examples=300, deadline=None)
@given(p=st.builds(SystemParams, *[_param] * 6))
@example(p=SystemParams(10.0, 8.0 / 3.0, 28.0))
@example(p=SystemParams(0.0, 3.0, 2.0))  # a = 0: zero coefficients
@example(p=SystemParams(1.0, 1e200, 1e200))  # NaN coefficients
@example(p=SystemParams(1.0, 1e300, 28.0))  # infinite coefficients
def test_mirrored_cubic_is_formed_only_when_it_can_differ(p):
    # a TRIPLE cell forms E+'s cubic alone unless it has a zero or NaN
    # coefficient; the E- cubic it skipped has the same bits
    formed = []

    def logged_cubic(*args):
        cubic = _characteristic_cubic(*args)
        formed.append(cubic)
        return cubic

    with mock.patch.object(equilibria, "_characteristic_cubic", logged_cubic):
        try:
            eqs = find_equilibria(p)
        except (DegenerateBError, ValueError):
            return
    if eqs.kind is not EquilibriumKind.TRIPLE:
        assert formed == []
        return
    ep, em = eqs.pair
    cp = formed[0]
    assert repr(cp) == repr(_cubic_at(p, ep.location))
    if any(v == 0.0 or v != v for v in cp):
        assert len(formed) == 2
        return
    assert len(formed) == 1
    cm = _cubic_at(p, em.location)
    assert cm == cp
    assert repr(cm) == repr(cp)


def test_a_nan_equilibrium_is_never_counted_as_stable():
    # E+ overflows to an infinite location, so its cubic has NaN
    # coefficients: NaN roots, each a center direction (undecided), never a
    # stable one
    p = SystemParams(1.0, 1e200, 1e200)
    eqs = find_equilibria(p)
    for eq in eqs.pair:
        assert not math.isfinite(eq.location.x)
        assert [repr(z) for z in eq.eigenvalues] == ["(nan+nanj)"] * 3
        assert (eq.stable_dim, eq.unstable_dim, eq.center_dim) == (0, 0, 3)
    # the regime reads only unstable dimensions, which were 0 already
    assert regime_classify(p) is RegimeLabel.PROVABLY_REGULAR


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



# ------------------------------------------------- exactness of the pair

_U = Fraction(1, 2**53)  # unit roundoff of binary64
_DIGITS = 80  # working precision of the exact side


def _decimal(q):
    return Decimal(q.numerator) / Decimal(q.denominator)


def _ulp_at(v):
    """The spacing of the doubles in the binade that holds the exact v."""
    f = float(v)
    m, e = math.frexp(f)
    if abs(m) == 0.5 and abs(Decimal(f)) > abs(v):
        e -= 1  # v rounded up onto a power of two: one binade lower
    return Decimal(2) ** (e - 53)


def _pair_oracle(p):
    """(z, s) of the exact equilibrium of the float parameters p, and the
    worst-case errors in ulps of z = d / (1 - P) and s = sqrt(b d / (1 - P))
    as find_equilibria rounds them; None when the rounding of d may have
    flipped its sign.

    d = ((M + N) + c) - 1 is a recursive sum, so |fl(d) - d| <= gamma_3
    (|M| + |N| + |c| + 1) (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 4.2), a relative error e_d once divided by |d|.  z
    adds the roundings of 1 - P and of the quotient; s those of b d,
    1 - P, the quotient and the square root.  A relative error r is below
    r / u ulps of the exact value's binade.  Runs in the caller's decimal
    context.
    """
    one_minus_p = 1 - Fraction(p.P)
    d = Fraction(p.M) + Fraction(p.N) + Fraction(p.c) - 1
    scale = abs(Fraction(p.M)) + abs(Fraction(p.N)) + abs(Fraction(p.c)) + 1
    gamma3 = 3 * _U / (1 - 3 * _U)
    if d == 0 or gamma3 * scale >= abs(d):
        return None
    u = _decimal(_U)
    e_d = _decimal(gamma3 * scale / abs(d))
    hi_z = (1 + e_d) * (1 + u) / (1 - u)
    lo_z = (1 - e_d) * (1 - u) / (1 + u)
    hi_s = ((1 + e_d) * (1 + u) ** 2 / (1 - u)).sqrt() * (1 + u)
    lo_s = ((1 - e_d) * (1 - u) ** 2 / (1 + u)).sqrt() * (1 - u)
    s_sq = Fraction(p.b) * d / one_minus_p
    # fl(d) has d's sign and fl(1 - P) that of 1 - P: the exact pair exists
    assert s_sq > 0, p
    z = _decimal(d / one_minus_p)
    s = _decimal(s_sq).sqrt()
    return z, s, max(hi_z - 1, 1 - lo_z) / u, max(hi_s - 1, 1 - lo_s) / u


def _check_pair_exactness(p):
    eqs = find_equilibria(p)
    if eqs.kind is not EquilibriumKind.TRIPLE:
        return
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        oracle = _pair_oracle(p)
        if oracle is None:
            return
        z, s, bound_z, bound_s = oracle
        x, y, zf = eqs.pair[0].location
        assert y == x
        assert abs(Decimal(zf) - z) / _ulp_at(z) <= bound_z, (p, zf, z, bound_z)
        assert abs(Decimal(x) - s) / _ulp_at(s) <= bound_s, (p, x, s, bound_s)


def test_pair_is_within_its_rounding_bound_on_anticontrol_cells():
    # the anticontrol regime: N = P = 0, a stable plant 0 < c < 1 and a
    # gain M = 10^U(0, 7) that pushes it across the pitchfork
    rng = np.random.default_rng(61)
    for _ in range(20_000):
        a, b = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
        c = float(rng.uniform(0.0, 1.0))
        M = 10.0 ** rng.uniform(0.0, 7.0)
        if c == 0.0:
            continue
        p = SystemParams(a, b, c, M=M)
        assert find_equilibria(p).kind is EquilibriumKind.TRIPLE
        _check_pair_exactness(p)


_wide = st.builds(
    lambda sign, e: sign * 10.0**e,
    st.sampled_from([-1.0, 1.0]),
    st.floats(-8.0, 8.0),
)


@hsettings(max_examples=1000, deadline=None)
@given(p=st.builds(SystemParams, *[_wide] * 6))
@example(p=SystemParams(10.0, 8.0 / 3.0, 0.5, M=1000000.5))
def test_pair_is_within_its_rounding_bound_on_wide_cells(p):
    _check_pair_exactness(p)


def test_suggested_anticontrol_pair_is_exact():
    # margin 1e6 gives M = 1000000.5, so d = 1e6 and z = 1e6 exactly; a
    # Newton step on the float residual would move it off by an ulp
    p = suggest_anticontrol(10.0, 8.0 / 3.0, 0.5, margin=1e6).params
    assert p.M == 1000000.5
    ep, em = find_equilibria(p).pair
    assert ep.location.z == 1000000.0 and em.location.z == 1000000.0
    assert ep.location.x == math.sqrt(8.0 / 3.0 * 1e6)
    _check_pair_exactness(p)


# ---------------------------------------- exactness of the origin's spectrum

_TINY = Fraction(1, 2**1074)  # the smallest subnormal double


def _origin_coefficients(p):
    """(bb, cc) of the quadratic factor lambda^2 + bb lambda + cc, rounded
    as origin_eigenvalues rounds them."""
    return p.a + 1.0 - p.N, -p.a * (p.M + p.N + p.c - 1.0)


def _origin_bounds(p, mu):
    """(B, C, beta_B, beta_C): the exact quadratic factor lambda^2 + B lambda
    + C of the origin's characteristic polynomial at the float parameters p,
    and how far from B and C the coefficients of the quadratic whose exact
    roots are mu, the quadratic's roots by origin_eigenvalues, may lie; None
    outside the normal range, where underflow voids the bounds.

    The data: bb = (a + 1) - N is a recursive sum, so |bb - B| <= gamma_2
    (|a| + 1 + |N|); cc = -a fl(d) errs by |a| |fl(d) - d| with |fl(d) - d|
    <= gamma_3 (|M| + |N| + |c| + 1), as in _pair_oracle, plus one rounding
    of the product, or its underflow to 0.

    The formula, with m = bb^2 + 4 |cc|: the discriminant's two roundings
    and the square root's leave |sq^2 - (bb^2 - 4 cc)| <= 4.001 u m.  Real
    roots t and fl(cc / t) have the product cc within one rounding, and a
    sum that misses -bb by at most (|q(t)| + u |cc|) / |t| for q(t) = t^2
    + bb t + cc; |q(t)| <= 1.0003 u m + 2.0001 u t^2, since t adds one
    rounding to (-bb -+ sq) / 2, and sqrt|cc| <= |t| <= |bb| + sqrt|cc|, so
    the sum is off by less than 8 u (|bb| + sqrt|cc|).  A complex pair has
    the sum -bb exactly, and the product misses cc by (sq^2 + bb^2 - 4 cc)
    / 4, at most 1.0003 u m < 9 u |cc| because bb^2 < 4 cc (1 + u).
    """
    bb, cc = _origin_coefficients(p)
    parts = [abs(v) for z in mu for v in (z.real, z.imag)]
    if (
        0.0 < abs(bb) < 2.0**-511
        or 0.0 < abs(cc) < 2.0**-1020
        or any(0.0 < v < 2.0**-1022 for v in parts)
    ):
        return None
    a, n = Fraction(p.a), Fraction(p.N)
    d = Fraction(p.M) + n + Fraction(p.c) - 1
    scale = abs(Fraction(p.M)) + abs(n) + abs(Fraction(p.c)) + 1
    gamma2 = 2 * _U / (1 - 2 * _U)
    gamma3 = 3 * _U / (1 - 3 * _U)
    e_d = gamma3 * scale
    data_b = gamma2 * (abs(a) + 1 + abs(n))
    data_c = abs(a) * e_d + _U * abs(a) * (abs(d) + e_d) + _TINY
    # sqrt|cc| rounded up by far more than its rounding error
    root_cc = Fraction(math.sqrt(abs(cc))) * (1 + 4 * _U)
    form_b = 8 * _U * (abs(Fraction(bb)) + root_cc)
    form_c = 9 * _U * abs(Fraction(cc))
    return a + 1 - n, -a * d, data_b + form_b, data_c + form_c


def _check_origin_exactness(p):
    """origin_eigenvalues(p) against the exact spectrum of the float
    parameters: -b exactly; the quadratic with the two computed roots
    within (beta_B, beta_C) of the exact factor, in Fraction; and, where
    the exact roots lie apart, each computed root within 2 eta / s of the
    exact root in its place, in 80-digit Decimal.  Here s is the exact
    roots' distance and eta = beta_B (|lambda| + s / 4) + beta_C: on the
    circle of radius 2 eta / s <= s / 4 about an exact root lambda the
    exact quadratic exceeds eta > |(B' - B) mu + (C' - C)|, so by Rouche
    the computed quadratic keeps one root in each disc."""
    mu1, mu2, minus_b = origin_eigenvalues(p)
    assert minus_b == complex(-p.b, 0.0)
    bounds = _origin_bounds(p, (mu1, mu2))
    if bounds is None:
        return
    big_b, big_c, beta_b, beta_c = bounds
    re1, im1, re2, im2 = (Fraction(v) for v in (mu1.real, mu1.imag, mu2.real, mu2.imag))
    # the computed pair is real, or exact conjugates
    assert im1 == im2 == 0 or (re1 == re2 and im1 == -im2 < 0), (p, mu1, mu2)
    sum_b = -(re1 + re2)
    prod_c = re1 * re2 - im1 * im2
    assert abs(sum_b - big_b) <= beta_b, (p, mu1, mu2, float(abs(sum_b - big_b) / beta_b))
    assert abs(prod_c - big_c) <= beta_c, (p, mu1, mu2, float(abs(prod_c - big_c) / beta_c))
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        disc = big_b * big_b - 4 * big_c
        half_s = _decimal(abs(disc)).sqrt() / 2
        re = _decimal(-big_b / 2)
        if disc >= 0:
            exact = ((re + half_s, Decimal(0)), (re - half_s, Decimal(0)))
        else:
            exact = ((re, -half_s), (re, half_s))
        s = 2 * half_s
        for (lre, lim), z in zip(exact, (mu1, mu2)):
            eta = _decimal(beta_b) * ((lre * lre + lim * lim).sqrt() + s / 4)
            eta += _decimal(beta_c)
            if 8 * eta > s * s:
                continue  # the exact roots are too close to tell apart
            err = ((Decimal(z.real) - lre) ** 2 + (Decimal(z.imag) - lim) ** 2).sqrt()
            assert err <= 2 * eta / s, (p, z, lre, lim)


def test_origin_spectrum_is_within_its_rounding_bound_on_seeded_cells():
    # a wide box, the anticontrol regime (N = P = 0, a stable plant 0 < c <
    # 1 and a gain M = 10^U(0, 7)) and the pitchfork_map benchmark's box
    rng = np.random.default_rng(67)
    cells = []
    for _ in range(8_000):
        cells.append(SystemParams(*(float(v) for v in rng.uniform(-50.0, 50.0, 6))))
    for _ in range(6_000):
        a, b = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
        c = float(rng.uniform(0.0, 1.0))
        cells.append(SystemParams(a, b, c, M=10.0 ** rng.uniform(0.0, 7.0)))
    for _ in range(6_000):
        a, b = float(rng.uniform(9.5, 10.5)), float(rng.uniform(2.5, 2.9))
        c, M = float(rng.uniform(0.1, 0.9)), float(rng.uniform(-1.0, 40.0))
        cells.append(SystemParams(a, b, c, M=M))
    for p in cells:
        _check_origin_exactness(p)


_wide_or_special = st.one_of(_wide, st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]))


@hsettings(max_examples=1000, deadline=None)
@given(p=st.builds(SystemParams, *[_wide_or_special] * 6))
@example(p=SystemParams(10.0, 8.0 / 3.0, 28.0))
@example(p=SystemParams(10.0, 8.0 / 3.0, 1.0))  # d = 0
@example(p=SystemParams(2.0, 1.0, 1.0, N=3.0))  # bb = 0, d = 2
@example(p=SystemParams(0.0, 4.296093079516111e-151, 0.0, N=1.0))  # lambda^2
@example(p=SystemParams(1.0, 3.0, -10.0))  # a complex pair
@example(p=SystemParams(1.0, 3.0, 0.0))  # a double root, -1
# the discriminant overflows and is formed rescaled: real roots 0 and -a,
# real roots of either sign, a + 1 - N < 0, and complex pairs of part 1e154
@example(p=SystemParams(1e200, 1.0, 1.0))
@example(p=SystemParams(1e200, 1.0, 1.0, M=1e100))
@example(p=SystemParams(1e200, 1.0, 1.0, M=-3e200, N=3e200))
@example(p=SystemParams(1e154, 1.0, 1.0, M=-2e154, N=1e154))
@example(p=SystemParams(1e154, 1.0, 1.0, M=-2e154, N=1e154 - 3e138))
def test_origin_spectrum_is_within_its_rounding_bound_on_wide_cells(p):
    _check_origin_exactness(p)


def test_minus_b_is_exact_in_every_origin_spectrum():
    for b in (8.0 / 3.0, 0.1, 1e-300, 3e200, 5e-324):
        p = SystemParams(10.0, b, 28.0)
        assert origin_eigenvalues(p)[2] == -b
        assert complex(-b, 0.0) in find_equilibria(p).origin.eigenvalues


def test_an_overflowing_origin_discriminant_raises_a_value_error():
    # a d overflows, so the quadratic's constant term cc = -a d is -inf
    p = SystemParams(1e154, 1.0, 1.0, M=2e154)
    message = (
        r"the origin's characteristic quadratic's coefficients \(1e\+154, -inf\) "
        "are beyond the float range"
    )
    with pytest.raises(ValueError, match=message):
        origin_eigenvalues(p)
    with pytest.raises(ValueError, match=message):
        find_equilibria(p)


@pytest.mark.parametrize(
    "p, want",
    [
        # (a + 1 - N)^2 overflows; the spectrum (0, -1e200, -1) does not
        (SystemParams(1e200, 1.0, 1.0), (0j, complex(-1e200, 0.0), complex(-1.0, 0.0))),
        # 4 a d overflows with a + 1 - N = 0: the pair +-1e154 i
        (
            SystemParams(1e154, 1.0, 1.0, M=-2e154, N=1e154),
            (complex(-0.0, -1e154), complex(-0.0, 1e154), complex(-1.0, 0.0)),
        ),
    ],
)
def test_an_overflowing_origin_discriminant_of_finite_coefficients_is_rescaled(p, want):
    bb, cc = _origin_coefficients(p)
    assert math.isfinite(bb) and math.isfinite(cc)
    assert not math.isfinite(bb * bb - 4.0 * cc)
    assert repr(origin_eigenvalues(p)) == repr(want)
    _check_origin_exactness(p)
    origin = find_equilibria(p).origin
    assert repr(origin.eigenvalues) == repr(tuple(sorted(want, key=_spectral_order)))


@pytest.mark.parametrize(
    "p",
    [
        # a + 1 - N = 4 and c + M = 4: the quadratic's roots are 1 and -3,
        # and -b = -3 ties the lower one
        SystemParams(1.0, 3.0, 4.0),
        SystemParams(1.0, 3.0, 2.0, M=2.0),
        # -b ties the upper root 1 (b = -1 is outside the hypotheses but
        # has an origin spectrum)
        SystemParams(1.0, -1.0, 4.0),
        # a double root -1 (d = 0, a + 1 - N = 2), tied by -b = -1 and not
        SystemParams(1.0, 1.0, 1.0),
        SystemParams(1.0, 3.0, 1.0),
        SystemParams(1.0, 0.5, 1.0),
        # a double root 0, with -b either side
        SystemParams(1.0, 1.0, 1.0, N=2.0),
        SystemParams(1.0, -1.0, 1.0, N=2.0),
        # a complex pair -1 +- 2i, tied in real part by -b = -1 and not
        SystemParams(1.0, 1.0, -4.0),
        SystemParams(1.0, 0.5, -4.0),
        SystemParams(1.0, 3.0, -4.0),
        SystemParams(10.0, 8.0 / 3.0, 28.0),
    ],
)
def test_placed_origin_order_equals_the_sorted_spectrum(p):
    # find_equilibria places -b into the ordered quadratic pair where a
    # stable sort by _spectral_order puts it, ties included: the same
    # objects, so a tie placed on the wrong side shows
    eigs = origin_eigenvalues(p)
    want = tuple(sorted(eigs, key=_spectral_order))
    with mock.patch.object(equilibria, "_origin_eigenvalues", lambda *args: eigs):
        _, origin, _ = equilibria._equilibrium_parts(p.a, p.b, p.c, p.M, p.N, p.P)
    assert [id(z) for z in origin] == [id(z) for z in want]
    assert repr(find_equilibria(p).origin.eigenvalues) == repr(want)


_root_part = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, math.inf, math.nan])
_coefficient = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, math.nan]),
    st.floats(-10.0, 10.0, allow_nan=False),
)


def _spectrum_of(roots):
    """_spectrum of a cubic whose solver returns ``roots``, a fresh list."""
    with mock.patch.object(equilibria, "_cubic_roots", lambda *cubic: list(roots)):
        return _spectrum((0.0, 0.0, 0.0))


@hsettings(max_examples=300, deadline=None)
@given(
    roots=st.lists(st.builds(complex, _root_part, _root_part), min_size=3, max_size=3)
)
@example(roots=[complex(1.0, 0.0), complex(1.0, -0.0), complex(1.0, 0.0)])
@example(roots=[complex(-0.0, 1.0), complex(0.0, -1.0), complex(0.0, 1.0)])
@example(roots=[complex(math.nan, 0.0), complex(1.0, 0.0), complex(2.0, 0.0)])
@example(roots=[complex(1.0, math.nan), complex(1.0, 0.0), complex(1.0, -1.0)])
def test_spectrum_order_equals_the_keyed_sort_of_any_roots(roots):
    # ties in either part, signed zeros, infinities and NaN: the same
    # objects as the stable sort by _spectral_order, so a tie placed on the
    # wrong side shows
    want = sorted(roots, key=_spectral_order)
    assert [id(z) for z in _spectrum_of(roots)] == [id(z) for z in want]


@hsettings(max_examples=300, deadline=None)
@given(cubic=st.tuples(_coefficient, _coefficient, _coefficient))
@example(cubic=(3.0, 3.0, 1.0))  # (lambda + 1)^3: a triple root
@example(cubic=(0.0, 0.0, 0.0))  # a triple root 0
@example(cubic=(4.0, 5.0, 2.0))  # (lambda + 1)^2 (lambda + 2): a double root
@example(cubic=(3.0, 7.0, 5.0))  # (lambda + 1)((lambda + 1)^2 + 4): real part tie
@example(cubic=(0.0, 1.0, 0.0))  # lambda (lambda^2 + 1): a pair on the axis
@example(cubic=(math.nan, 1.0, 1.0))  # NaN roots
@example(cubic=(1.0, math.nan, 0.0))
def test_spectrum_order_equals_the_keyed_sort_of_the_cubic_roots(cubic):
    roots = _cubic_roots(*cubic)
    want = sorted(roots, key=_spectral_order)
    assert [id(z) for z in _spectrum_of(roots)] == [id(z) for z in want]
    assert repr(_spectrum(cubic)) == repr(tuple(want))


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
