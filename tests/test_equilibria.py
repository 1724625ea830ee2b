import cmath
import dataclasses
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings as hsettings, strategies as st

from lorenzlab import (
    DegenerateBError,
    DegenerateParamsError,
    EquilibriumKind,
    NotASaddleError,
    OriginClass,
    Preset,
    RegimeLabel,
    State,
    SweepAxis,
    SweepSpec,
    SystemParams,
    apply_symmetry,
    certificate,
    classify_origin,
    eigenvalues_at,
    find_equilibria,
    jacobian,
    lyapunov_coefficients,
    origin_eigenvalues,
    pitchfork_locus,
    pitchfork_locus_for_preset,
    regime_classify,
    run_sweep,
    suggest_anticontrol,
    unstable_direction_at_origin,
    vector_field,
)
from lorenzlab import chaos, equilibria
from lorenzlab.equilibria import (
    _NAN_CUBIC,
    _characteristic_cubic,
    _cubic_roots,
    _depressed_cubic,
    _spectral_order,
    _spectrum,
)
from lorenzlab.model import SIGN_BAND

import reference
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
    # q = ad = -4 < 0 and r = N - a - 1 = 0: the origin's own Hopf point at
    # N = a + 1, spectrum -0 -+ 2i and -1; the sweep's column agrees
    hopf = SystemParams(1.0, 1.0, -5.0, N=2.0)
    assert classify_origin(hopf) is OriginClass.NON_HYPERBOLIC
    assert origin_eigenvalues(hopf) == (-2j, 2j, -1.0)
    spec = SweepSpec(hopf, (SweepAxis("N", 2.0, 3.0, 2),), ("origin_class",))
    assert run_sweep(spec).rows[0] == (2.0, "non_hyperbolic", None)


@pytest.mark.parametrize("b", [0.0, -1.0, -8.0 / 3.0])
def test_classify_origin_needs_positive_b(b):
    assert classify_origin(SystemParams(10.0, b, 28.0)) is OriginClass.OUT_OF_HYPOTHESES


def test_classify_origin_band_absorbs_roundoff():
    # q = 10 * 1e-16 is far inside the relative tolerance band
    assert (
        classify_origin(SystemParams(10.0, 8.0 / 3.0, 1.0 + 1e-16))
        is OriginClass.NON_HYPERBOLIC
    )


_moderate = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
_param = st.one_of(
    _moderate,
    st.sampled_from([0.0, -0.0, 1.0, 2.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _unscaled_origin_class(p):
    """(label, bands finite): classify_origin by its bands as formed
    unscaled, the expression decided before an overflowing band was
    rescaled."""
    a, b, c, M, N = p.a, p.b, p.c, p.M, p.N
    if b <= 0.0:
        return OriginClass.OUT_OF_HYPOTHESES, True
    q = a * (M + N + c - 1.0)
    band_q = SIGN_BAND * (1.0 + abs(a) * (1.0 + abs(M) + abs(N) + abs(c)))
    r = N - a - 1.0
    band_r = SIGN_BAND * (1.0 + abs(a) + abs(N))
    finite = band_q != math.inf and band_r != math.inf
    if q > band_q:
        return OriginClass.SADDLE_WS2_WU1, finite
    if q < -band_q:
        if r > band_r:
            return OriginClass.SADDLE_WS1_WU2, finite
        if r < -band_r:
            return OriginClass.ATTRACTOR, finite
    return OriginClass.NON_HYPERBOLIC, finite


def _exact_origin_dims(p):
    """The origin's (stable, unstable, center) counts in exact arithmetic on
    the float parameters, or None where q or r lies within a relative 1e-9
    of the edge of its band.  The roots of lambda^2 - r lambda - q have the
    product -q and the sum r, and each of q and r counts as 0 inside its
    band; the third eigenvalue, -b, takes b's exact sign."""
    a, c, M, N = (Fraction(v) for v in (p.a, p.c, p.M, p.N))
    band = Fraction(SIGN_BAND)
    q = a * (M + N + c - 1)
    band_q = band * (1 + abs(a) * (1 + abs(M) + abs(N) + abs(c)))
    r = N - a - 1
    band_r = band * (1 + abs(a) + abs(N))
    edge = Fraction(1, 10**9)
    if abs(abs(q) - band_q) <= edge * band_q:
        return None
    if q > band_q:
        dims = [1, 1, 0]  # roots of opposite signs
    elif abs(abs(r) - band_r) <= edge * band_r:
        return None
    else:
        # below its band q puts both roots on r's side; inside it one root
        # is 0 and the other is r
        n = 2 if q < -band_q else 1
        dims = [0, 0, 2 - n]
        dims[0 if r < -band_r else 1 if r > band_r else 2] += n
    dims[0 if p.b > 0 else 1 if p.b < 0 else 2] += 1
    return tuple(dims)


# the origin's type by its dimension counts, for b > 0
_CLASS_OF_DIMS = {
    (2, 1, 0): OriginClass.SADDLE_WS2_WU1,
    (1, 2, 0): OriginClass.SADDLE_WS1_WU2,
    (3, 0, 0): OriginClass.ATTRACTOR,
}


def _exact_origin_class(p):
    """classify_origin for b > 0 from _exact_origin_dims, or None."""
    dims = _exact_origin_dims(p)
    return None if dims is None else _CLASS_OF_DIMS.get(dims, OriginClass.NON_HYPERBOLIC)


@pytest.mark.parametrize(
    "p, want",
    [
        # q = a d is -inf and r = -11; c = -1e307 gives the band 1e296
        (SystemParams(10.0, 8.0 / 3.0, -1e308), OriginClass.ATTRACTOR),
        (SystemParams(10.0, 8.0 / 3.0, -1e307), OriginClass.ATTRACTOR),
        # a tiny a against an offset beyond the float range: q = 2e108
        (SystemParams(1e-200, 1.0, 1e308, M=1e308), OriginClass.SADDLE_WS2_WU1),
        (SystemParams(-1e308, 8.0 / 3.0, 1e308), OriginClass.SADDLE_WS1_WU2),
        # |a| + |N| overflows too, in the band of r = -2e308 - 1
        (SystemParams(1e308, 1.0, 0.0, N=-1e308), OriginClass.ATTRACTOR),
        # d = 0 exactly: no sign to find
        (SystemParams(10.0, 8.0 / 3.0, 1.0, M=1e308, N=-1e308), OriginClass.NON_HYPERBOLIC),
    ],
)
def test_an_overflowing_origin_band_is_decided_on_a_scaled_copy(p, want):
    assert classify_origin(p) is want
    assert _exact_origin_class(p) is want


@hsettings(max_examples=100, deadline=None)
@given(p=st.builds(SystemParams, *[_param] * 6))
@example(p=SystemParams(10.0, 8.0 / 3.0, -1e308))
@example(p=SystemParams(1e308, 1.0, 0.0, N=-1e308))
@example(p=SystemParams(10.0, 8.0 / 3.0, 28.0))
def test_origin_class_keeps_its_label_wherever_the_bands_are_finite(p):
    # the unscaled expression's label where both bands are finite, and the
    # exact label where one overflows
    label, finite = _unscaled_origin_class(p)
    if finite:
        assert classify_origin(p) is label
    else:
        exact = _exact_origin_class(p)
        assert exact is None or classify_origin(p) is exact


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


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def _cells_at_the_origin_bands(draw):
    """Cells whose origin type sits near a band: an offset d = +-k ulp(1)
    with |d| log-uniform in [1e-13, 1e-7], so that q = a d falls on either
    side of its band, or a fast focus, whose pair Re lambda = r / 2 with
    |r| in [1e-3, 1] is as small as 1e-12 |lambda| at |M| = 1e16.
    P is 0 or 2, whichever gives the pair for the sign of d."""
    a = draw(st.floats(0.1, 50.0))
    b = draw(st.floats(0.1, 10.0))
    c = draw(st.floats(-2.0, 2.0))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    if draw(st.booleans()):
        N = draw(st.floats(-5.0, 5.0))
        k = round(draw(_log_uniform(1e-13, 1e-7)) / math.ulp(1.0))
        M = (1.0 - N - c) + sign * k * math.ulp(1.0)
    else:
        N = a + 1.0 + sign * draw(_log_uniform(1e-3, 1.0))
        M = -draw(_log_uniform(1.0, 1e16))
    P = 0.0 if M + N + c - 1.0 > 0.0 else 2.0
    return SystemParams(a, b, c, M, N, P)


@hsettings(max_examples=500, deadline=None)
@given(p=_cells_at_the_origin_bands())
@example(p=SystemParams(10.0, 8.0 / 3.0, 0.5, M=0.5000000001))
@example(p=SystemParams(10.0, 2.6666666666666665, 0.0, -1e13, 11.01, 2.0))
@example(p=SystemParams(5.0, 1.0, 0.0, -4.999999980000001e16, 5.0, 0.0))
def test_every_reader_of_the_origin_type_agrees_near_its_bands(p):
    # classify_origin, find_equilibria's origin counts, regime_classify's
    # reading of the origin and the tracer's unstable direction all follow
    # the exact signs of q, r and b.  The regime is read with a certificate
    # that leaves chaos possible and a pair counted unstable, so its label
    # says whether it counts the origin unstable
    o = find_equilibria(p).origin
    dims = (o.stable_dim, o.unstable_dim, o.center_dim)
    exact = _exact_origin_dims(p)
    assert exact is None or dims == exact
    assert classify_origin(p) is _CLASS_OF_DIMS.get(dims, OriginClass.NON_HYPERBOLIC)
    open_cert = SimpleNamespace(converges_to_equilibria=False, chaos_possible=True)
    with mock.patch.object(chaos, "certificate", return_value=open_cert), \
            mock.patch.object(chaos, "_pair_dims", return_value=(1, 2, 0)):
        label = regime_classify(p)
    assert (label is RegimeLabel.CHAOS_CANDIDATE) == (o.unstable_dim >= 1)
    if dims == (2, 1, 0):
        vx, vy, vz = unstable_direction_at_origin(p)
        assert vx > 0.0 and vz == 0.0
    else:
        with pytest.raises(NotASaddleError):
            unstable_direction_at_origin(p)


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
# rescales the cubic.  Four rules sit on top of the old path, as in the
# solver: a NaN coefficient gives three NaN roots, an OverflowError (a
# square or cube of a huge coefficient, or |z|^2 in the polish) becomes
# the solver's ValueError, so do finite coefficients whose p or q
# overflows in a product, where the old path went on to infinite roots,
# and a cubic with one root near -c2 and two far
# smaller ones (|c1| < 2^-8 c2^2, |c0| < 2^-16 |c2|^3), whose small roots
# the old path could merge into one far from both, is split: its large
# root by Newton from -c2, the other two from the quadratic left by
# dividing it out.  test_split_cubic_roots_are_accurate holds that rule
# to the exact roots.


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
    finite = math.isfinite(c2) and math.isfinite(c1) and math.isfinite(c0)
    if finite and not (math.isfinite(pcoef) and math.isfinite(qcoef)):
        raise OverflowError("p or q of finite coefficients overflows")
    disc = (qcoef / 2.0) ** 2 + (pcoef / 3.0) ** 3
    if abs(qcoef) < 2.0**-511 and abs(pcoef) < 2.0**-340:
        if pcoef != 0.0 or qcoef != 0.0:
            raise _Underflow("both terms of disc fell below the normal range")
    if math.isfinite(c2 * c2) and abs(c1) < 2.0**-8 * (c2 * c2) \
            and abs(c0) < 2.0**-16 * (c2 * c2) * abs(c2):
        return _split_oracle(c2, c1, c0)
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


def _split_oracle(c2, c1, c0):
    r = -c2
    for _ in range(3):
        r = r - (((r + c2) * r + c1) * r + c0) / ((3.0 * r + 2.0 * c2) * r + c1)
    e0 = -c0 / r
    e1 = (e0 - c1) / r
    k = math.frexp(max(abs(e1), math.sqrt(abs(e0))))[1]
    h = math.ldexp(-e1 / 2.0, -k)
    dq = h * h - math.ldexp(e0, -2 * k)
    if dq < 0.0:
        z = complex(math.ldexp(h, k), math.ldexp(math.sqrt(-dq), k))
        return [complex(r, 0.0), z, z.conjugate()]
    z1 = math.ldexp(h + math.copysign(math.sqrt(dq), h), k)
    z2 = e0 / z1 if z1 != 0.0 else 0.0
    return [complex(r, 0.0), complex(z1, 0.0), complex(z2, 0.0)]


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


def _exact_pair_dims(p):
    """E+-'s (stable, unstable, center) counts in exact arithmetic on the
    float parameters, or None where d, e, c2 or h lies within a relative
    1e-2 of the edge of its band, or h or its band is beyond the float
    range.  The cubic lambda^3 + c2 lambda^2 + c1 lambda + c0 has c0 =
    2 a b d, c1 = b e and H = c2 c1 - c0 = b h, each 0 where its factor d,
    e or h is inside its band, as c2 is inside its own.  c0 = 0 splits off
    a center and H = 0 the root -c2; otherwise the unstable count is the
    number of sign changes in Routh's column (1, c2, H / c2, c0)."""
    a, b, c, M, N = (Fraction(v) for v in (p.a, p.b, p.c, p.M, p.N))
    band = Fraction(SIGN_BAND)
    d, e, c2 = M + N + c - 1, a + c + M, a + b + 1 - N
    h = c2 * e - 2 * a * d
    scale_d = 1 + abs(M) + abs(N) + abs(c)
    scale_e = 1 + abs(a) + abs(c) + abs(M)
    scale_c2 = 1 + abs(a) + abs(b) + abs(N)
    band_h = band * (scale_c2 * scale_e + 2 * abs(a) * scale_d)
    if max(abs(h), band_h) >= Fraction(2) ** 1023:
        return None
    signs = []
    for v, band_v in ((d, band * scale_d), (e, band * scale_e), (c2, band * scale_c2),
                      (h, band_h)):
        if abs(abs(v) - band_v) <= band_v / 100:
            return None
        signs.append(0 if abs(v) <= band_v else 1 if v > 0 else -1)
    sd, se, s2, sh = signs
    sb = 1 if b > 0 else -1
    s0 = ((a > 0) - (a < 0)) * sb * sd
    s1, s_hopf = sb * se, sb * sh

    def root(s):  # the counts of one real root of sign s
        return [int(s < 0), int(s > 0), int(s == 0)]

    def quadratic(s_sum, s_prod):  # lambda^2 - (sum) lambda + (prod)
        if s_prod < 0:
            return [1, 1, 0]
        if s_prod == 0:
            return [x + y for x, y in zip(root(0), root(s_sum))]
        return [2 * x for x in root(s_sum)]

    if s0 == 0:  # lambda (lambda^2 + c2 lambda + c1)
        dims = [x + y for x, y in zip(root(0), quadratic(-s2, s1))]
    elif s_hopf == 0:  # (lambda + c2)(lambda^2 + c1)
        dims = [x + y for x, y in zip(root(-s2), quadratic(0, s1))]
    else:
        # c2 = 0 makes H = -c0, and c2 -> 0+ then gives the column's signs
        column = (1, s2, s_hopf * s2, s0) if s2 else (1, 1, -s0, s0)
        unstable = sum(x != y for x, y in zip(column, column[1:]))
        dims = [3 - unstable, unstable, 0]
    return tuple(dims)


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


def _signed(magnitude):
    return st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@hsettings(max_examples=300, deadline=None)
@given(
    c2=_signed(st.floats(2.0**-100, 2.0**100)),
    t1=_signed(st.one_of(st.just(0.0), st.floats(2.0**-200, 0.5))),
    t0=_signed(st.one_of(st.just(0.0), st.floats(2.0**-300, 0.5))),
)
@example(  # E+-'s cubic at a = 2, b = 1232446850, c = M = N = 0
    c2=1232446853.0,
    t1=2464893700.0 / 1232446853.0**2 * 2.0**8,
    t0=-4929787400.0 / 1232446853.0**3 * 2.0**16,
)
@example(c2=3.0, t1=0.0, t0=0.5)  # lambda^3 + 3 lambda^2 + c0: a complex pair
def test_split_cubic_roots_are_accurate(c2, t1, t0):
    # cubics with one root near -c2 and two far below it (|c1| <= 2^-9 c2^2,
    # |c0| <= 2^-17 |c2|^3), every value in the normal range: each root z
    # has a componentwise backward error |P(z)| / (|z|^3 + |c2| |z|^2 +
    # |c1| |z| + |c0|) of a few roundings, P taken exactly; the closed form
    # on the shifted cubic once merged the two small roots into one far
    # from both, a backward error near 1
    c1 = t1 * 2.0**-8 * (c2 * c2)
    c0 = t0 * 2.0**-16 * (c2 * c2) * abs(c2)
    roots = _cubic_roots(c2, c1, c0)
    assert roots[0].imag == 0.0
    assert roots[1].imag == 0.0 or roots[2] == roots[1].conjugate()
    k2, k1, k0 = (abs(Fraction(v)) for v in (c2, c1, c0))
    for z in roots:
        x, y = Fraction(z.real), Fraction(z.imag)
        pr, pi = x + Fraction(c2), y
        pr, pi = pr * x - pi * y + Fraction(c1), pr * y + pi * x
        pr, pi = pr * x - pi * y + Fraction(c0), pr * y + pi * x
        t = Fraction(abs(z)) * (1 - 4 * _U)  # below |z|, within abs's rounding
        size = ((t + k2) * t + k1) * t + k0
        assert pr * pr + pi * pi <= (8 * _U * size) ** 2, (c2, c1, c0, z)


def test_a_pair_far_below_the_large_root_keeps_its_roots():
    # E+-'s cubic lambda^3 + (b + 3) lambda^2 + 2 b lambda - 4 b at a = 2,
    # b ~ 1.2e9: roots -b - 1 and close to -1 +- sqrt 5, which the closed
    # form returned as a double root 2.1e7, so two unstable directions
    # where there is one
    p = SystemParams(2.0, 1232446850.0, 0.0, P=2.0)
    ep, em = find_equilibria(p).pair
    want = sorted(np.roots([1.0, p.b + 3.0, 2.0 * p.b, -4.0 * p.b]), key=_spectral_order)
    assert np.allclose(ep.eigenvalues, want, rtol=1e-12, atol=0.0)
    assert (ep.stable_dim, ep.unstable_dim, ep.center_dim) == (2, 1, 0)
    assert em.eigenvalues is ep.eigenvalues


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


# coefficients of every magnitude up to the float range and beyond it
_range_coefficient = st.one_of(
    st.floats(allow_nan=False),
    st.builds(
        lambda sign, m, e: sign * m * 10.0**e,
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 9.99),
        st.integers(-320, 307),
    ),
    st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf]),
)


@hsettings(max_examples=1000, deadline=None)
@given(cubic=st.tuples(*[_range_coefficient] * 3))
@example(cubic=(3e51, 0.0, 0.0))  # the split cubic, p = -3e102
@example(cubic=(3e51, 1e100, 1e150))
@example(cubic=(-3e51, 1e100, -1e150))
# (p / 3) ** 3 either side of the float range's edge, |p| about 1.7e103
@example(cubic=(7.1e51, 0.0, 0.0))
@example(cubic=(7.2e51, 0.0, 0.0))
@example(cubic=(0.0, 1.6e103, 0.0))
@example(cubic=(0.0, -1.7e103, 0.0))
# (q / 2) ** 2 either side of it, |q| about 2.7e154
@example(cubic=(0.0, 0.0, 2.6e154))
@example(cubic=(0.0, 0.0, -2.7e154))
@example(cubic=(2.3e154, 1.76e308, 0.0))  # c2 c2/3 finite, q not
@example(cubic=(1.7e308, 1.0, 1.0))
@example(cubic=(1e-300, 1e-300, 1e-300))  # rescaled
@example(cubic=(math.inf, 1.0, 1.0))  # infinite coefficients do not raise
@example(cubic=(1.0, math.inf, -math.inf))
@example(cubic=(-math.inf, math.inf, 0.0))
def test_cubic_roots_raise_exactly_where_their_range_check_does(cubic):
    # _depressed_cubic alone decides the closed form's float range: the
    # solver raises its ValueError, with its text, and past it neither the
    # polish nor the split overflows
    try:
        _depressed_cubic(*cubic)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            _cubic_roots(*cubic)
        assert str(raised.value) == str(exc)
    else:
        assert len(_cubic_roots(*cubic)) == 3


@hsettings(max_examples=300, deadline=None)
@given(p=st.builds(SystemParams, *[_param] * 6))
# q = r = 0 and -b > 0 exactly: two center directions and one unstable
@example(p=SystemParams(0.0, -7.77684110159138e-239, 0.0, -1.0, 1.0, 0.0))
@example(p=SystemParams(0.0, 3.0, 2.0))  # a = 0: zero coefficients
@example(p=SystemParams(1.0, 1e200, 1e200))  # E+ overflows: NaN coefficients
@example(p=SystemParams(1.0, 1e300, 28.0))  # an infinite spectrum
@example(p=SystemParams(1e200, 1.0, 1.0))  # the origin's discriminant overflows
@example(p=SystemParams(1e154, 1.0, 1.0, M=2e154))  # the origin's cc is -inf
@example(p=SystemParams(1.0, 3.0, 0.0, N=5.0))  # the cubic's c2 is 0
@example(p=SystemParams(1.0, 3.0, -1.0))  # the cubic's c1 is 0
@example(p=SystemParams(10.0, 8.0 / 3.0, 0.5, M=1000000.5))
@example(p=SystemParams(10.0, 8.0 / 3.0, 1e300))  # the roots' closed form overflows
@example(p=SystemParams(2.0, 1232446850.0, 0.0, P=2.0))  # the split cubic
def test_equilibrium_spectra_match_their_exact_references(p):
    # the origin and E+- of random cells, as find_equilibria records them:
    # the origin is its factored spectrum, held to the exact one, with the
    # counts of the exact signs of q, r and b, and E+- share the roots of
    # their closed-form cubic, held to the exact cubic of the float
    # parameters and to the cubic oracle, with the counts of the exact
    # signs of d, e, c2 and h.  The cubic is logged at its range check,
    # which raises before any spectrum is solved, so an overflow can be
    # traced to it; the check passes over a NaN cubic, and the solver
    # checks the cubic it solves again
    solved = []

    def logged_range_check(*cubic):
        solved.append(cubic)
        return _depressed_cubic(*cubic)

    with mock.patch.object(equilibria, "_depressed_cubic", logged_range_check):
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
            # the pair's cubic overflowed the closed form; so does the oracle's
            (cubic,) = solved
            _check_pair_coefficients(p, cubic)
            with pytest.raises(ValueError) as raised:
                _cubic_roots_oracle(*cubic)
            assert str(raised.value) == str(exc)
            return
    origin = eqs.origin
    want = tuple(sorted(origin_eigenvalues(p), key=_spectral_order))
    assert repr(origin.eigenvalues) == repr(want)
    dims = (origin.stable_dim, origin.unstable_dim, origin.center_dim)
    exact = _exact_origin_dims(p)
    assert exact is None or dims == exact
    _check_origin_exactness(p)
    if eqs.pair is None:
        assert solved == []
        return
    # the range check's cubic, then the solver's; a rescaled cubic is
    # checked a third time, scaled
    cubic = solved[0] if solved else _NAN_CUBIC
    assert solved == [] or solved[:2] == [cubic, cubic]
    ep, em = eqs.pair
    assert em.eigenvalues is ep.eigenvalues
    try:
        oracle = tuple(sorted(_cubic_roots_oracle(*cubic), key=_spectral_order))
    except _Underflow:
        # as in the test above: the rescaled roots must solve the cubic
        assert _solves_tiny_cubic(ep.eigenvalues, *cubic)
    else:
        assert repr(ep.eigenvalues) == repr(oracle)
    _check_pair_spectrum(p, cubic, ep.eigenvalues)
    # a cubic solved as NaN, its coefficients beyond the float range, is
    # three centers; otherwise E+- have the counts of the exact signs
    exact = (0, 0, 3) if math.isnan(cubic[0]) else _exact_pair_dims(p)
    for eq in eqs.pair:
        dims = (eq.stable_dim, eq.unstable_dim, eq.center_dim)
        assert exact is None or dims == exact


@st.composite
def _cells_at_the_pair_loci(draw):
    """Cells at a log-uniform relative offset in [1e-14, 1e-6] from one of
    E+-'s loci, with N and P varied: the Hopf offset d_H = k (k + b) / g
    (reference.hopf_offset), k = a + 1 - N and g = a - b - 1 + N, where h
    = c2 e - 2 a d = -g (d - d_H) changes sign, or the pitchfork d = 0, an
    offset relative to d's scale there.  P is below 1 or above it,
    whichever gives the pair."""
    a = draw(st.floats(0.5, 50.0))
    b = draw(st.floats(0.05, 20.0))
    c = draw(st.floats(-5.0, 5.0))
    N = draw(st.floats(-a / 2.0, 1.0 + a))
    offset = draw(st.sampled_from([-1.0, 1.0])) * draw(_log_uniform(1e-14, 1e-6))
    g = a - b - 1.0 + N
    if draw(st.booleans()) and g != 0.0:
        d = reference.hopf_offset(a, b, N) * (1.0 + offset)
    else:
        d = offset * (2.0 + abs(N) + abs(c))
    M = d + 1.0 - N - c
    d = M + N + c - 1.0
    assume(d != 0.0)
    P = draw(st.floats(-3.0, 0.9) if d > 0.0 else st.floats(1.1, 4.0))
    return SystemParams(a, b, c, M, N, P)


@hsettings(max_examples=300, deadline=None)
@given(p=_cells_at_the_pair_loci())
# just past the Hopf point of the classic plant: Re lambda = +4.5e-10
@example(p=SystemParams(10.0, 8.0 / 3.0, 0.5, M=24.23684212))
# 2 a b underflows, so c0 rounds to 0, yet it is 2.4e-397 > 0
@example(p=SystemParams(3.4447272796139777e-199, 3.4447272796139777e-199, 0.0, M=2.0))
def test_pair_counts_and_regime_follow_the_exact_signs_near_their_loci(p):
    # E+-'s counts and the regime follow the exact signs of d, e, c2 and h
    # on both sides of the Hopf and pitchfork loci, down to real parts far
    # inside the rounding of the roots.  Where the counts have no center,
    # every eigenvalue that numpy places clearly off the imaginary axis is
    # on the side they count
    eqs = find_equilibria(p)
    assert eqs.kind is EquilibriumKind.TRIPLE
    ep, em = eqs.pair
    dims = (ep.stable_dim, ep.unstable_dim, ep.center_dim)
    assert (em.stable_dim, em.unstable_dim, em.center_dim) == dims
    exact = _exact_pair_dims(p)
    assert exact is None or dims == exact
    origin = _exact_origin_dims(p)
    if exact is not None and origin is not None:
        cert = certificate(p)
        if cert.converges_to_equilibria:
            want = RegimeLabel.PROVABLY_REGULAR
        elif cert.chaos_possible and exact[1] and origin[1]:
            want = RegimeLabel.CHAOS_CANDIDATE
        else:
            want = RegimeLabel.UNDETERMINED
        assert regime_classify(p) is want
    if dims[2] == 0:
        jac = np.array(jacobian(p, ep.location), dtype=float)
        lams = np.linalg.eigvals(jac)
        tol = 1e-12 * np.linalg.norm(jac)
        assert sum(lam.real < -tol for lam in lams) <= dims[0]
        assert sum(lam.real > tol for lam in lams) <= dims[1]


@pytest.mark.parametrize(
    "p,spectra",
    [
        # the origin's quadratic and the pair's one cubic
        (SystemParams(10.0, 8.0 / 3.0, 28.0), 2),
        (SystemParams(1.0, 3.0, 2.0), 2),
        (SystemParams(10.0, 8.0 / 3.0, 0.5, P=2.0), 2),
        # a = 0 makes the constant term 2 a b d zero
        (SystemParams(0.0, 3.0, 2.0), 2),
        # E+ overflows to an infinite location, and the cubic's b (a + c +
        # M) overflows, so it is solved as NaN
        (SystemParams(1.0, 1e200, 1e200), 2),
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
_TINY = Fraction(1, 2**1074)  # the smallest subnormal double
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
_wide_or_special = st.one_of(_wide, st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]))


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


# ------------------------------------------- exactness of E+-'s spectrum

_KAPPA = 9  # a polished root's rounding, in units of u (see _check_pair_spectrum)


def _pair_cubic_oracle(p):
    """(C, beta, fits): the exact coefficients (C2, C1, C0) of E+-'s
    characteristic cubic at the float parameters p,

        lambda^3 + (a + b + 1 - N) lambda^2 + b (a + c + M) lambda + 2 a b d,

    as Fractions; bounds (beta2, beta1, beta0) on how far the closed form's
    float coefficients may lie from them; and whether every value that the
    closed form rounds surely stays below the float range.

    c2 = ((a + b) + 1) - N is a recursive sum of four terms, so |c2 - C2|
    <= gamma_3 (|a| + |b| + 1 + |N|) (Higham, sec. 4.2).  c1 = b (a + (c +
    M)) rounds a sum of three terms, by gamma_2 (|a| + |c| + |M|), and then
    the product; together below gamma_3 |b| (|a| + |c| + |M|).  c0 = ((2 a)
    b) fl(d), 2 a exact, has fl(d) within e_d = gamma_3 (|M| + |N| + |c| +
    1) of d, as in _pair_oracle, and two roundings on top: 2 |a b| (e_d (1 +
    gamma_2) + gamma_2 |d|).  A product that underflows errs by up to
    _TINY / 2 instead, which the bounds of c1 and c0 add.  The bounds and
    the magnitudes are formed in _DIGITS-digit Decimal, which neither
    overflows nor underflows here, and rounded up by far more than their
    rounding errors.
    """
    a, b, c, M, N = (Fraction(v) for v in (p.a, p.b, p.c, p.M, p.N))
    d = M + N + c - 1
    exact = (a + b + 1 - N, b * (a + c + M), 2 * a * b * d)
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        fa, fb, fc, fM, fN = (abs(Decimal(v)) for v in (p.a, p.b, p.c, p.M, p.N))
        u, tiny = _decimal(_U), _decimal(_TINY)
        g2, g3 = 2 * u / (1 - 2 * u), 3 * u / (1 - 3 * u)
        sum_d = fM + fN + fc + 1
        terms_1 = fa + fc + fM
        e_d = g3 * sum_d
        abs_d = abs(_decimal(d))
        up = 1 + Decimal(10) ** -70
        beta = tuple(v * up for v in (
            g3 * (fa + fb + 1 + fN),
            g3 * fb * terms_1 + tiny,
            2 * fa * fb * (e_d * (1 + g2) + g2 * abs_d) + tiny * (1 + abs_d + e_d),
        ))
        big = max(fa + fb + 1 + fN, fb * terms_1, terms_1, sum_d, 2 * fa, 2 * fa * fb * sum_d)
        fits = big * (1 + g3) * up < Decimal(sys.float_info.max)
    return exact, beta, fits


def _check_pair_coefficients(p, cubic):
    """The closed form's float coefficients ``cubic`` within their bounds of
    the exact ones; returns those and the bounds (see _pair_cubic_oracle)."""
    exact, beta, fits = _pair_cubic_oracle(p)
    if fits:
        for v, want, bound in zip(cubic, exact, beta):
            assert abs(Fraction(v) - want) <= Fraction(bound), (p, cubic)
    else:
        # some value of the closed form may have overflowed; a coefficient
        # that did is solved as NaN
        assert all(math.isfinite(v) for v in cubic) or all(v != v for v in cubic)
    return exact, beta


def _check_pair_spectrum(p, cubic, eigs):
    """E+-'s spectrum ``eigs``, the roots of the float cubic ``cubic``,
    against the exact cubic P of the float parameters p.

    The coefficients lie within their bounds beta of P's, and a NaN cubic
    gives three NaN roots.  A finite root z lies within 3 |P(z)| / |P'(z)|
    of a root of P, since P'(z) / P(z) = sum 1 / (z - r_i); and |P(z)| is
    at most beta2 |z|^2 + beta1 |z| + beta0, from the coefficients, plus
    the residual that polishing a root z0 by one Newton step on the float
    cubic leaves to first order.  With rho = 2 max(|c2|, |c1|^(1/2),
    |c0 / 2|^(1/3)), Fujiwara's bound on the float cubic's roots and so
    on |z0|, that residual is Horner's rounding at z0 in complex
    arithmetic, three multiply-adds within 9 u m(rho) for m(t) = t^3 +
    |C2| t^2 + |C1| t + |C0|, plus the rounding of z0 - step, within u rho
    |P'(z)|.  So the inclusion radius is within 3 (beta(|z|) + 9 u (m(rho)
    + rho |P'(z)|)) / |P'(z)|.  A pair is exact conjugates, so one of the
    two is checked.  Evaluated in _DIGITS-digit Decimal, exact to far
    below u.
    """
    exact, (b2, b1, b0) = _check_pair_coefficients(p, cubic)
    if all(v != v for v in cubic):
        assert [repr(z) for z in eigs] == ["(nan+nanj)"] * 3
        return
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        c2, c1, c0 = (_decimal(v) for v in exact)
        u = _decimal(_U)
        k2, k1, k0 = (abs(v) for v in cubic)
        # Fujiwara's bound, rounded up by far more than its rounding error
        # (pow's, with the rounded exponent 1/3, is below 3e-14)
        rho = max(k2, math.sqrt(k1), (k0 / 2.0) ** (1.0 / 3.0))
        rho = 2 * Decimal(rho) * (1 + Decimal(10) ** -12)
        slack = _KAPPA * u * (((rho + abs(c2)) * rho + abs(c1)) * rho + abs(c0))
        for z in eigs:
            if z.imag != 0.0:
                assert z.conjugate() in eigs
            if z.imag < 0.0 or not (math.isfinite(z.real) and math.isfinite(z.imag)):
                continue
            x, y = Decimal(z.real), Decimal(z.imag)
            pr, pi = x + c2, y
            pr, pi = pr * x - pi * y + c1, pr * y + pi * x
            pr, pi = pr * x - pi * y + c0, pr * y + pi * x
            dr, di = 3 * x + 2 * c2, 3 * y
            dr, di = dr * x - di * y + c1, dr * y + di * x
            t = (x * x + y * y).sqrt()
            slope = (dr * dr + di * di).sqrt()
            bound = (b2 * t + b1) * t + b0 + slack + _KAPPA * u * rho * slope
            assert pr * pr + pi * pi <= bound * bound, (p, z)


def _check_pair_spectra(cells):
    """_check_pair_spectrum on every TRIPLE cell, with the cubic as solved."""
    solved = []

    def logged_spectrum(cubic):
        solved.append(cubic)
        return _spectrum(cubic)

    with mock.patch.object(equilibria, "_spectrum", logged_spectrum):
        for p in cells:
            solved.clear()
            eqs = find_equilibria(p)
            if eqs.kind is EquilibriumKind.TRIPLE:
                (cubic,) = solved
                _check_pair_spectrum(p, cubic, eqs.pair[0].eigenvalues)


def test_pair_spectrum_is_within_its_rounding_bound_on_seeded_cells():
    # the three families of draws: a box |param| <= 50; a, b > 0 with N in
    # [-a/2, 1 + a) and P in [-3, 0.9); and the anticontrol regime (N = P
    # = 0, a stable plant 0 < c < 1, a gain M = 10^U(0, 7))
    rng = np.random.default_rng(73)
    cells = [SystemParams(*(float(v) for v in rng.uniform(-50.0, 50.0, 6)))
             for _ in range(2_000)]
    for _ in range(1_000):
        a, b = (float(v) for v in rng.uniform(0.1, 50.0, 2))
        c, M = (float(v) for v in rng.uniform(-50.0, 50.0, 2))
        N, P = float(rng.uniform(-a / 2.0, 1.0 + a)), float(rng.uniform(-3.0, 0.9))
        cells.append(SystemParams(a, b, c, M, N, P))
    for _ in range(1_000):
        a, b = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
        c = float(rng.uniform(0.0, 1.0))
        cells.append(SystemParams(a, b, c, M=10.0 ** rng.uniform(0.0, 7.0)))
    _check_pair_spectra(cells)


def test_pair_spectrum_does_not_depend_on_p():
    # P, s and z drop out of E+-'s cubic, so any two P, P' < 1 outside the
    # band around 1 give the same eigenvalue bits
    rng = np.random.default_rng(79)
    for _ in range(500):
        p = sampling.triple_params(rng)
        for other in (float(rng.uniform(-1e3, 0.99)), -1e100, 0.0):
            q = dataclasses.replace(p, P=other)
            assert repr(find_equilibria(q).pair[0].eigenvalues) == repr(
                find_equilibria(p).pair[0].eigenvalues
            ), (p, other)


# ---------------------------------------- exactness of the origin's spectrum



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

    Where -a fl(d) overflows, origin_eigenvalues forms it from a and fl(d)
    scaled by powers of two, with the one rounding of the product and no
    overflow; |cc| then stands for that rounded product, at most (1 + u)
    |a fl(d)|, and the bounds above hold as they are.
    """
    bb, cc = _origin_coefficients(p)
    if math.isinf(cc):
        abs_cc = abs(Fraction(p.a) * Fraction(p.M + p.N + p.c - 1.0)) * (1 + _U)
        # sqrt|cc| rounded up, formed at 2^-1100 |cc|, inside the float range
        root_cc = Fraction(math.sqrt(abs_cc / 2**1100)) * 2**550 * (1 + 4 * _U)
    else:
        abs_cc = abs(Fraction(cc))
        # sqrt|cc| rounded up by far more than its rounding error
        root_cc = Fraction(math.sqrt(abs(cc))) * (1 + 4 * _U)
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
    form_b = 8 * _U * (abs(Fraction(bb)) + root_cc)
    form_c = 9 * _U * abs_cc
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
        # with the pair (c = 28) and without it (c = 0.5)
        for c in (28.0, 0.5):
            p = SystemParams(10.0, b, c)
            assert origin_eigenvalues(p)[2] == -b
            if (b, c) == (3e200, 28.0):
                # E+-'s cubic (3e200, 1.14e202, 1.62e203) overflows its
                # closed form in c2 c2/3, so find_equilibria raises
                with pytest.raises(ValueError, match="beyond the float range"):
                    find_equilibria(p)
                continue
            assert complex(-b, 0.0) in find_equilibria(p).origin.eigenvalues


def test_an_overflowing_origin_discriminant_raises_a_value_error():
    # d = M + c - 1 overflows itself, so the quadratic's constant term
    # cc = -a d is -inf with no finite factors to form it from
    p = SystemParams(1.0, 1.0, 1e308, M=1e308)
    message = (
        r"the origin's characteristic quadratic's coefficients \(2\.0, -inf\) "
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
    "p, want",
    [
        # -a d = 1e309: the pair -5.5 +- 3.16e154 i of an attractor
        (
            SystemParams(10.0, 8.0 / 3.0, -1e308),
            (complex(-5.5, -3.162277660168379e154), complex(-5.5, 3.162277660168379e154),
             complex(-8.0 / 3.0, 0.0)),
        ),
        # a d = 2e308: real roots of opposite sign, the smaller one formed
        # from the scaled terms
        (
            SystemParams(1e154, 1.0, 1.0, M=2e154),
            (complex(1e154, 0.0), complex(-2e154, 0.0),
             complex(-1.0, 0.0)),
        ),
    ],
)
def test_an_overflowing_origin_constant_term_of_finite_factors_is_rescaled(p, want):
    bb, cc = _origin_coefficients(p)
    assert math.isfinite(bb) and math.isinf(cc)
    assert repr(origin_eigenvalues(p)) == repr(want)
    _check_origin_exactness(p)
    assert classify_origin(p) is (
        OriginClass.ATTRACTOR if want[0].imag else OriginClass.SADDLE_WS2_WU1
    )


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
    # find_equilibria orders the origin's spectrum as a stable sort by
    # _spectral_order does, ties included: the same objects, so a tie
    # placed on the wrong side shows
    eigs = origin_eigenvalues(p)
    want = tuple(sorted(eigs, key=_spectral_order))
    with mock.patch.object(equilibria, "_origin_eigenvalues", lambda *args: eigs):
        origin = find_equilibria(p).origin.eigenvalues
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
            # on the locus itself d is within rounding of 0, inside SIGN_BAND
            on_locus = classify_origin(dataclasses.replace(p, **{free: star}))
            assert p.b < 0.0 or on_locus is OriginClass.NON_HYPERBOLIC
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


# ------------------------------------------------- the declared domain

# a parameter of the domain |v| <= 2^128 that ROADMAP item 12 would declare:
# the signed zeros, subnormals and the bounds, the paper's scale, and the
# whole domain
_DOMAIN = 2.0**128
_in_domain = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, 1.0, _DOMAIN, -_DOMAIN]),
    st.floats(-100.0, 100.0),
    st.floats(-_DOMAIN, _DOMAIN),
)


def _all_finite(values) -> bool:
    return all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values)


@hsettings(max_examples=1000, deadline=None)
@given(st.tuples(*[_in_domain] * 6))
def test_every_closed_form_is_finite_inside_the_domain(fields):
    # each closed form returns finite values or raises DegenerateBError at
    # b = 0 (lyapunov_coefficients: DegenerateParamsError); none overflows
    # into an OverflowError or a range ValueError
    p = SystemParams(*fields)
    assert _all_finite(origin_eigenvalues(p))
    assert isinstance(classify_origin(p), OriginClass)
    certificate(p)
    assert isinstance(regime_classify(p), RegimeLabel)
    assert _all_finite([pitchfork_locus(p, free) for free in ("M", "N", "c")])
    try:
        co = lyapunov_coefficients(p)
    except DegenerateParamsError:
        pass
    else:
        assert _all_finite((co.A, co.B, co.K))
    if p.b == 0.0:
        with pytest.raises(DegenerateBError):
            find_equilibria(p)
        return
    eqs = find_equilibria(p)
    assert _all_finite(eqs.origin.eigenvalues)
    for e in eqs.pair or ():
        assert _all_finite(e.location)
        assert _all_finite(e.eigenvalues)
    if eqs.pair is not None:
        assert _all_finite(eigenvalues_at(p, eqs.pair[0].location))
