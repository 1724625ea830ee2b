"""Equilibrium sets, linearization spectra, and the origin classification.

Writing d = M + N + c - 1, the system has the origin as an equilibrium for
every parameter choice.  For b != 0 and P != 1 the remaining candidates are
the symmetric pair

    E+- = (+-s, +-s, d / (1 - P)),   s = sqrt(b d / (1 - P)),

which exist iff b d / (1 - P) > 0.  In the doubly degenerate case P = 1,
d = 0 the whole curve (x, x, x^2 / b) consists of equilibria.

The origin's linearization block-diagonalizes: one eigenvalue is -b and the
other two solve lambda^2 + (a + 1 - N) lambda - a d = 0, so its type is
decided, in _origin_dims alone, by the signs of q = a d, r = N - a - 1
and b.  This factored form, origin_eigenvalues, is the one computation of
the origin's spectrum, and -b is exact in it.

E+- share one characteristic cubic, lambda^3 + c2 lambda^2 + c1 lambda + c0
with c2 = a + b + 1 - N, c1 = b (a + c + M) and c0 = 2 a b d in the
parameters alone (P, s and z drop out).  Its Routh-Hurwitz signs alone
decide their type, in _pair_dims: c0 = 0 is the pitchfork and H = c2 c1 -
c0 = 0 the Hopf boundary.  find_equilibria, the one reader of either
spectrum, solves the quadratic and the cubic once each; a sweep cell,
which writes no spectrum, solves neither, and only checks that they lie
within the float range.  eigenvalues_at, the cubic at any point, is the
independent check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DegenerateBError
from .model import SIGN_BAND
from .model import Preset, State, SystemParams, apply_symmetry


class OriginClass(enum.Enum):
    """Linear type of the origin under the hypothesis b > 0."""

    SADDLE_WS2_WU1 = "saddle_ws2_wu1"  # 2-dim stable, 1-dim unstable
    SADDLE_WS1_WU2 = "saddle_ws1_wu2"  # 1-dim stable, 2-dim unstable
    ATTRACTOR = "attractor"
    NON_HYPERBOLIC = "non_hyperbolic"
    OUT_OF_HYPOTHESES = "out_of_hypotheses"  # b <= 0


class EquilibriumKind(enum.Enum):
    ORIGIN_ONLY = "origin_only"
    TRIPLE = "triple"
    CONTINUUM = "continuum"


@dataclass(frozen=True)
class Equilibrium:
    """An equilibrium point with its linearization summary."""

    location: State
    eigenvalues: tuple[complex, complex, complex]
    stable_dim: int
    unstable_dim: int
    center_dim: int


@dataclass(frozen=True)
class EquilibriumSet:
    """All equilibria of one parameter choice.

    ``pair`` is (E+, E-) when ``kind`` is TRIPLE and None otherwise.  For
    the CONTINUUM kind only the origin is materialized; the remaining
    equilibria form the curve (x, x, x^2 / b).
    """

    kind: EquilibriumKind
    origin: Equilibrium
    pair: tuple[Equilibrium, Equilibrium] | None


def origin_eigenvalues(p: SystemParams) -> tuple[complex, complex, complex]:
    """Eigenvalues at the origin, exact up to the quadratic formula.

    Returns the two roots of lambda^2 + (a + 1 - N) lambda - a d ordered by
    descending real part (ties by ascending imaginary part), followed by -b.
    A discriminant beyond the float range is formed for lambda / 2^k
    instead, an exact rescaling that brings the larger of |a + 1 - N| and
    |a d|^(1/2) near 1; an a d beyond the float range, of finite a and d,
    is formed scaled too.  Raises ValueError when a + 1 - N or d, or a
    root, is itself beyond the float range.
    """
    return _origin_eigenvalues(p.a, p.b, p.N, p.M + p.N + p.c - 1.0)


def _origin_eigenvalues(
    a: float, b: float, N: float, d: float
) -> tuple[complex, complex, complex]:
    """origin_eigenvalues from the plain floats a, b, N and the offset
    d = M + N + c - 1.  It raises only where the discriminant bb^2 - 4 cc
    is not finite, which _equilibrium_parts checks without solving it."""
    bb = a + 1.0 - N  # quadratic is lambda^2 + bb*lambda + cc
    cc = -a * d
    disc = bb * bb - 4.0 * cc
    scale = kc = 0
    bb_s = bb
    if not math.isfinite(disc):
        if not (math.isfinite(bb) and math.isfinite(d)):
            raise ValueError(
                f"the origin's characteristic quadratic's coefficients ({bb!r}, {cc!r}) "
                "are beyond the float range"
            )
        cm = cc
        if not math.isfinite(cc):
            # a d overflows: cc = cm * 2^kc, with a and d scaled into
            # [0.5, 1) by frexp, so cm has the one rounding of -a * d; kc is
            # made even, so that sqrt(|cc|) = sqrt(|cm|) * 2^(kc/2)
            a_m, ka = math.frexp(a)
            d_m, kd = math.frexp(d)
            cm, kc = -a_m * d_m, ka + kd
            if kc % 2:
                cm, kc = 2.0 * cm, kc - 1
        scale = math.frexp(max(abs(bb), math.ldexp(math.sqrt(abs(cm)), kc // 2)))[1]
        bb_s = math.ldexp(bb, -scale)
        disc = bb_s * bb_s - 4.0 * math.ldexp(cm, kc - 2 * scale)
    if disc >= 0.0:
        sq = math.sqrt(disc)
        # avoid cancellation: compute the larger-magnitude root first
        if bb >= 0.0:
            r_big = r_s = (-bb_s - sq) / 2.0
        else:
            r_big = r_s = (-bb_s + sq) / 2.0
        if scale:
            try:
                r_big = math.ldexp(r_s, scale)
            except OverflowError:
                raise ValueError(
                    f"the origin's characteristic quadratic's coefficients ({bb!r}, {cc!r}) "
                    "give a root beyond the float range"
                ) from None
        if kc:
            # cc / r_big from the scaled terms: |r_big| >= |cc|^(1/2), so
            # the quotient is finite
            r_other = math.ldexp(cm / r_s, kc - scale)
        else:
            r_other = cc / r_big if r_big != 0.0 else 0.0
        # the higher root first; on a tie r_other, as the reverse of a
        # stable ascending sort of (r_big, r_other) puts it
        if r_other < r_big:
            return (complex(r_big, 0.0), complex(r_other, 0.0), complex(-b, 0.0))
        return (complex(r_other, 0.0), complex(r_big, 0.0), complex(-b, 0.0))
    # |im| <= |cc|^(1/2) < 2^scale, so the scaled-back part is finite
    im = math.ldexp(math.sqrt(-disc) / 2.0, scale)
    re = -bb / 2.0
    return (complex(re, -im), complex(re, im), complex(-b, 0.0))


def classify_origin(p: SystemParams) -> OriginClass:
    """Sign-based linear type of the origin.

    Decides by q = a d and r = N - a - 1 (see _origin_dims): q > 0 gives a
    saddle with a one-dimensional unstable manifold; q < 0 splits on the
    sign of r (r > 0 two-dimensional unstable, r < 0 attractor).  Values
    inside the relative band ``SIGN_BAND`` around zero are center
    directions, so NON_HYPERBOLIC rather than guessed.  b <= 0 falls
    outside every statement made about this family: it has its own label.
    """
    return _origin_class(p.b, _origin_dims(p.a, p.b, p.c, p.M, p.N, p.P))


def _origin_class(b: float, dims: tuple[int, int, int]) -> OriginClass:
    """classify_origin from b and the origin's _origin_dims counts, which a
    sweep cell forms once for this label and its regime."""
    if b <= 0.0:
        return OriginClass.OUT_OF_HYPOTHESES
    _, unstable, center = dims
    return OriginClass.NON_HYPERBOLIC if center else _BY_UNSTABLE[unstable]


def _origin_dims(
    a: float, b: float, c: float, M: float, N: float, P: float
) -> tuple[int, int, int]:
    """(stable, unstable, center) counts of the origin from the six floats.
    The quadratic's roots have the product -q and the sum r, each 0 inside
    its SIGN_BAND: q above it gives one root of each sign; below it, two on
    r's side; inside it, a center and one on r's side.  b's sign places -b."""
    q = a * (M + N + c - 1.0)
    band_q = SIGN_BAND * (1.0 + abs(a) * (1.0 + abs(M) + abs(N) + abs(c)))
    if band_q == math.inf:
        # both formed again on a copy with a scaled by 2^-ka and M, N, c, 1
        # by 2^-kd, where they are finite: exact, barring the underflow of
        # terms far below the band, so the sign test decides alike
        ka = math.frexp(a)[1]
        kd = math.frexp(max(abs(M), abs(N), abs(c), 1.0))[1]
        a_s, one = math.ldexp(a, -ka), math.ldexp(1.0, -kd)
        M_s, N_s, c_s = math.ldexp(M, -kd), math.ldexp(N, -kd), math.ldexp(c, -kd)
        q = a_s * (M_s + N_s + c_s - one)
        band_q = SIGN_BAND * (
            math.ldexp(one, -ka) + abs(a_s) * (one + abs(M_s) + abs(N_s) + abs(c_s))
        )
    stable = unstable = 1  # q above its band: a root of each sign
    if not q > band_q:
        r = N - a - 1.0
        band_r = SIGN_BAND * (1.0 + abs(a) + abs(N))
        if band_r == math.inf:
            # |a| + |N| overflows: r and its band scaled by 1/4, exactly
            r = 0.25 * N - 0.25 * a - 0.25
            band_r = SIGN_BAND * (0.25 + 0.25 * abs(a) + 0.25 * abs(N))
        n = 2 if q < -band_q else 1  # the roots on r's side
        stable, unstable = (n, 0) if r < -band_r else (0, n) if r > band_r else (0, 0)
    if b > 0.0:
        stable += 1
    elif b < 0.0:
        unstable += 1
    return stable, unstable, 3 - stable - unstable


_BY_UNSTABLE = (  # the origin's hyperbolic types for b > 0, by unstable count
    OriginClass.ATTRACTOR, OriginClass.SADDLE_WS2_WU1, OriginClass.SADDLE_WS1_WU2
)
_HALF_SQRT3 = math.sqrt(3.0) / 2.0
_NAN_ROOT = complex(math.nan, math.nan)


def _depressed_cubic(
    c2: float, c1: float, c0: float
) -> tuple[float, float, float, float]:
    """(shift, p, q, disc) of lambda^3 + c2 lambda^2 + c1 lambda + c0: the
    substitution lambda = t - shift, shift = c2 / 3, gives t^3 + p t + q,
    with discriminant disc = (q/2)^2 + (p/3)^3.

    The one decision of the closed form's range: finite coefficients too
    large for it raise ValueError, not OverflowError.  (q/2)^2 overflows
    once |q| passes about 2.7e154, (p/3)^3 once |p| passes about 1.7e103,
    and p or q itself once a product in it leaves the float range (c2 c2/3
    once |c2| passes about 2.3e154), where the closed form would go on to
    infinite roots.  Infinite coefficients give an infinite or NaN p, q or
    disc and do not raise.
    """
    try:
        shift = c2 / 3.0
        pcoef = c1 - c2 * shift  # c1 - c2^2/3
        qcoef = (2.0 * shift * shift - c1) * shift + c0  # 2 c2^3/27 - c1 c2/3 + c0
        if not (math.isfinite(pcoef) and math.isfinite(qcoef)) and (
            math.isfinite(c2) and math.isfinite(c1) and math.isfinite(c0)
        ):
            raise OverflowError
        return shift, pcoef, qcoef, (qcoef / 2.0) ** 2 + (pcoef / 3.0) ** 3
    except OverflowError:
        raise ValueError(
            f"the characteristic cubic's coefficients ({c2!r}, {c1!r}, {c0!r}) "
            "are beyond the float range"
        ) from None


def _cubic_roots(c2: float, c1: float, c0: float) -> list[complex]:
    """Roots of lambda^3 + c2 lambda^2 + c1 lambda + c0 = 0.

    Closed form on the depressed cubic (_depressed_cubic, which raises
    ValueError for finite coefficients beyond its float range): Cardano
    branch for one real root plus a conjugate pair, trigonometric branch
    for three real roots.  The real roots and the first of a pair then get
    one complex Newton step on the original polynomial to shed the
    rounding accumulated through the substitutions; the second of a pair
    is the first's exact conjugate.

    One test decides underflow: when |q| < 2^-511 and |p| < 2^-340, not
    both zero, both terms of the discriminant fall below the normal range
    and it says nothing about the roots, so the cubic is rescaled.

    One test decides the split: when |c1| < 2^-8 c2^2 and |c0| < 2^-16
    |c2|^3, one root lies near -c2 and two far below it, which the shift
    by c2 / 3 blurs together (a root pair 1e-8 c2 apart can come out as
    one root far from both, and polishing does not part them), so the
    cubic is split instead (see _split_cubic_roots).

    A NaN coefficient gives three roots complex(nan, nan).
    """
    if c2 != c2 or c1 != c1 or c0 != c0:
        return [_NAN_ROOT, _NAN_ROOT, _NAN_ROOT]
    shift, pcoef, qcoef, disc = _depressed_cubic(c2, c1, c0)
    if (
        abs(qcoef) < 2.0**-511
        and abs(pcoef) < 2.0**-340
        and (pcoef != 0.0 or qcoef != 0.0)
    ):
        return _rescaled_cubic_roots(c2, c1, c0)
    c2_sq = c2 * c2
    if (
        c2_sq < math.inf
        and abs(c1) < 2.0**-8 * c2_sq
        and abs(c0) < 2.0**-16 * c2_sq * abs(c2)
    ):
        return _split_cubic_roots(c2, c1, c0)

    if disc > 0.0:
        sq = math.sqrt(disc)
        # pick the non-cancelling cube-root argument
        if qcoef >= 0.0:
            w = -qcoef / 2.0 - sq
        else:
            w = -qcoef / 2.0 + sq
        u = math.copysign(abs(w) ** (1.0 / 3.0), w)
        v = -pcoef / (3.0 * u) if u != 0.0 else 0.0
        t_real = u + v
        re = -t_real / 2.0
        im = _HALF_SQRT3 * (u - v)
        ts = [complex(t_real, 0.0), complex(re, im)]
    elif pcoef < 0.0:
        mfac = 2.0 * math.sqrt(-pcoef / 3.0)
        # pcoef * mfac cannot underflow to 0: a tiny cubic was rescaled
        # above, and a NaN qcoef here needs infinite coefficients
        arg = 3.0 * qcoef / (pcoef * mfac)
        arg = min(1.0, max(-1.0, arg))
        phi = math.acos(arg)
        ts = [
            complex(mfac * math.cos((phi - 2.0 * math.pi * k) / 3.0), 0.0)
            for k in range(3)
        ]
    else:
        # pcoef = qcoef = 0: the triple root -shift (and the NaN p or q
        # of infinite coefficients)
        t = math.copysign(abs(qcoef) ** (1.0 / 3.0), -qcoef)
        ts = [complex(t, 0.0)] * 3

    abs_c2 = abs(c2)
    abs_c1 = abs(c1)
    polished = []
    for t in ts:
        z = t - shift
        dp = (3.0 * z + 2.0 * c2) * z + c1
        abs_z = abs(z)
        scale = abs_z**2 + abs_c2 * abs_z + abs_c1
        # 1e-8 * max(scale, 1.0), with max's choice for NaN and ties
        if abs(dp) > 1e-8 * (1.0 if 1.0 > scale else scale):
            z = z - (((z + c2) * z + c1) * z + c0) / dp
        polished.append(z)
    if disc > 0.0:
        # keep the conjugate pair exactly conjugate
        polished.append(polished[1].conjugate())
    return polished


def _split_cubic_roots(c2: float, c1: float, c0: float) -> list[complex]:
    """_cubic_roots for a cubic whose roots are one near -c2 and two below
    about 2^-7 |c2|.  The large root r lies within about 2^-8 |r| of -c2,
    so three Newton steps from there leave it within its rounding.
    Dividing it out from the constant term up, e0 = -c0 / r and e1 = (e0
    - c1) / r, is the stable order for the largest root and leaves the
    quadratic lambda^2 + e1 lambda + e0 of the other two.  That is solved
    without cancellation for lambda / 2^k, an exact rescaling that keeps
    h^2 - e0 in the normal range; a complex pair is exact conjugates."""
    r = -c2
    for _ in range(3):
        r = r - (((r + c2) * r + c1) * r + c0) / ((3.0 * r + 2.0 * c2) * r + c1)
    e0 = -c0 / r
    e1 = (e0 - c1) / r
    k = math.frexp(max(abs(e1), math.sqrt(abs(e0))))[1]
    h = math.ldexp(-0.5 * e1, -k)
    dq = h * h - math.ldexp(e0, -2 * k)
    if dq < 0.0:
        z = complex(math.ldexp(h, k), math.ldexp(math.sqrt(-dq), k))
        return [complex(r, 0.0), z, z.conjugate()]
    z1 = math.ldexp(h + math.copysign(math.sqrt(dq), h), k)
    z2 = e0 / z1 if z1 != 0.0 else 0.0
    return [complex(r, 0.0), complex(z1, 0.0), complex(z2, 0.0)]


def _rescaled_cubic_roots(c2: float, c1: float, c0: float) -> list[complex]:
    """_cubic_roots solved for lambda / 2^k, an exact rescaling that brings
    the largest of |c2|, |c1|^(1/2), |c0|^(1/3) near 1.  This recurses
    once: in the rescaled cubic a p below 2^-340 leaves q close to
    c0 - c2^3/27, which is near 1 unless c0 and c2^3/27 (both then above
    2^-8) cancel, to 0 or above 2^-61; and such a p is exactly 0 when c2
    leads, as a difference of floats above 2^-4."""
    size = max(abs(c2), math.sqrt(abs(c1)), abs(c0) ** (1.0 / 3.0))
    sc = math.ldexp(1.0, math.frexp(size)[1])
    roots = _cubic_roots(c2 / sc, c1 / sc / sc, c0 / sc / sc / sc)
    return [z * sc for z in roots]


def _characteristic_cubic(
    a: float, b: float, c: float, M: float, N: float, P: float, s: State | tuple
) -> tuple[float, float, float]:
    """(c2, c1, c0) with det(lambda I - J(s)) = lambda^3 + c2 lambda^2
    + c1 lambda + c0, for the six parameter floats."""
    # the entries of model.jacobian, by the same expressions, as scalars
    x, y, z = s
    pp = 1.0 - P
    a11, a12, a13 = -a, a, 0.0
    a21, a22, a23 = c + M - pp * z, N - 1.0, -pp * x
    a31, a32, a33 = y, x, -b
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


def _spectral_order(z: complex) -> tuple[float, float]:
    return (-z.real, z.imag)


def _spectrum(cubic: tuple[float, float, float]) -> tuple[complex, complex, complex]:
    """The cubic's roots by descending real part, ties by ascending imaginary."""
    roots = _cubic_roots(*cubic)
    roots.sort(key=_spectral_order)
    return (roots[0], roots[1], roots[2])


def eigenvalues_at(
    p: SystemParams, s: State | tuple
) -> tuple[complex, complex, complex]:
    """Eigenvalues of the Jacobian at s via the characteristic cubic.

    Sorted by descending real part, ties by ascending imaginary part.
    Raises ValueError when the cubic's coefficients are beyond the float
    range of the closed form (see _cubic_roots).
    """
    return _spectrum(_characteristic_cubic(p.a, p.b, p.c, p.M, p.N, p.P, s))


def _pair_dims(
    a: float, b: float, c: float, M: float, N: float, P: float
) -> tuple[int, int, int]:
    """(stable, unstable, center) counts of E+- from the six floats: the
    Routh-Hurwitz signs of their cubic lambda^3 + c2 lambda^2 + c1 lambda +
    c0, c2 = a + b + 1 - N, c1 = b e, c0 = 2 a b d, and of the Hopf
    boundary's H = c2 c1 - c0 = b h, e = a + c + M, h = c2 e - 2 a d, each
    from its factors, so that no underflow decides it, with d, e, c2 and h
    0 inside their SIGN_BAND.  A coefficient, h or band beyond the float
    range gives three centers, as the pair's NaN spectrum has."""
    d = M + N + c - 1.0
    e = a + (c + M)
    c2 = a + b + 1.0 - N
    h = c2 * e - 2.0 * a * d
    abs_a, abs_c, abs_M = abs(a), abs(c), abs(M)
    scale_e = 1.0 + abs_a + abs_c + abs_M
    band_d = SIGN_BAND * (1.0 + abs_M + abs(N) + abs_c)
    band_c2 = SIGN_BAND * (1.0 + abs_a + abs(b) + abs(N))
    band_h = band_c2 * scale_e + 2.0 * abs_a * band_d  # scale_e >= 1 holds the 1
    # below 1e142 the bands bound |c2|, |c1| and |h| by 1e154 and |c0| by 1e308
    if not (band_h < 1e142 or (band_h < math.inf and all(
            map(math.isfinite, (h, b * e, 2.0 * a * b * d))))):
        return 0, 0, 3
    if b < 0.0:  # c1 = b e, c0 = 2 a b d and H = b h take b's sign
        d, e, h = -d, -e, -h
    if a != 0.0 and (d > band_d or d < -band_d) and (h > band_h or h < -band_h):
        if (a < 0.0) != (d < 0.0):
            # c0 < 0: one unstable root, or three when c2 < 0 and H < 0
            return (0, 3, 0) if c2 < -band_c2 and h < 0.0 else (2, 1, 0)
        # c0 > 0: stable when c2 > 0 and H > 0, else two unstable roots
        return (3, 0, 0) if c2 > band_c2 and h > 0.0 else (1, 2, 0)
    band_e = SIGN_BAND * scale_e
    if a == 0.0 or -band_d <= d <= band_d:
        # c0 = 0: a center, and the roots of lambda^2 + c2 lambda + c1
        if e < -band_e or -band_c2 <= c2 <= band_c2:
            return (1, 1, 1) if e < -band_e else (0, 0, 3)
        n = 2 if e > band_e else 1  # the roots on -c2's side
        return (n, 0, 3 - n) if c2 > 0.0 else (0, n, 3 - n)
    # H = 0: the roots -c2 and +-(-c1)^(1/2), a center pair unless c1 < 0
    n = int(e < -band_e)
    stable, unstable = n + (c2 > band_c2), n + (c2 < -band_c2)
    return stable, unstable, 3 - stable - unstable


_ORIGIN = State(0.0, 0.0, 0.0)
_ORIGIN_ONLY, _TRIPLE, _CONTINUUM = EquilibriumKind  # faster to read than by class
_NAN_CUBIC = (math.nan, math.nan, math.nan)


def _origin_spectrum(
    a: float, b: float, N: float, d: float
) -> tuple[complex, complex, complex]:
    """_origin_eigenvalues in the order of _spectral_order."""
    # -b placed into the quadratic's roots, which come ordered, where a
    # stable sort by _spectral_order would put it: after its ties, and
    # before a root of equal real part only if that has a positive
    # imaginary part, which q0, real or the lower of a pair, never has
    q0, q1, minus_b = _origin_eigenvalues(a, b, N, d)
    m = minus_b.real
    if q0.real < m:
        return (minus_b, q0, q1)
    if q1.real < m or (q1.real == m and q1.imag > 0.0):
        return (q0, minus_b, q1)
    return (q0, q1, minus_b)


def _pair_cubic(
    a: float, b: float, c: float, M: float, N: float, d: float
) -> tuple[float, float, float]:
    """(c2, c1, c0) of E+-'s closed-form cubic (see the module docstring),
    with c + M grouped as the field's cm.  A coefficient beyond the float
    range says nothing of the roots, so the cubic is then NaN, which has
    three NaN roots (_pair_dims counts three centers)."""
    c2 = a + b + 1.0 - N
    c1 = b * (a + (c + M))
    c0 = 2.0 * a * b * d
    if math.isfinite(c2) and math.isfinite(c1) and math.isfinite(c0):
        return c2, c1, c0
    return _NAN_CUBIC


def _equilibrium_parts(
    a: float, b: float, c: float, M: float, N: float, P: float
) -> tuple[EquilibriumKind, tuple[float, float] | None]:
    """(kind, pair) of find_equilibria, from the six parameter floats, as
    plain values.

    ``pair`` is (s, z) for the TRIPLE kind, E+ being (s, s, z), and None
    otherwise.  No spectrum is solved here; find_equilibria, their one
    reader, solves them.  This raises where find_equilibria does, in the
    same order: DegenerateBError at b = 0, then the origin's quadratic,
    whose solution can raise only where its discriminant is not finite
    and is called only there, then for the TRIPLE kind the range of E+-'s
    cubic (_depressed_cubic), which a NaN cubic never leaves.  A sweep
    cell calls this on its six floats and builds no SystemParams.
    """
    if b == 0.0:
        raise DegenerateBError("b = 0: equilibrium formulas are undefined")
    d = M + N + c - 1.0
    bb = a + 1.0 - N
    cc = -a * d
    if not math.isfinite(bb * bb - 4.0 * cc):
        _origin_eigenvalues(a, b, N, d)  # rescaled, or refused
    one_minus_p = 1.0 - P
    if abs(one_minus_p) <= SIGN_BAND * (1.0 + abs(P)):
        scale = 1.0 + abs(M) + abs(N) + abs(c)
        if abs(d) <= SIGN_BAND * scale:
            return _CONTINUUM, None
        return _ORIGIN_ONLY, None
    s_sq = b * d / one_minus_p
    if s_sq > 0.0:
        cubic = _pair_cubic(a, b, c, M, N, d)
        if cubic is not _NAN_CUBIC:
            _depressed_cubic(*cubic)
        return _TRIPLE, (math.sqrt(s_sq), d / one_minus_p)
    return _ORIGIN_ONLY, None


def find_equilibria(p: SystemParams) -> EquilibriumSet:
    """Enumerate the equilibrium set.

    P counts as 1, and d as 0, inside the relative band SIGN_BAND.  The
    pair is its closed form, with at most four roundings after that of d,
    so E+ is within a few ulps of the exact equilibrium of the float
    parameters wherever d does not cancel, with the same bits on every
    platform.  Its float residual may still be far from 0 at large d: that
    is rounding noise, not distance from the equilibrium.
    The origin's spectrum is origin_eigenvalues, in the order of
    _spectral_order, counted by _origin_dims; E+- solve their cubic
    (_pair_cubic) once, and _pair_dims counts them by its Routh-Hurwitz
    signs.
    Raises DegenerateBError when b = 0 (the z-equation loses its linear
    term and the closed forms above do not apply), and ValueError when the
    origin's quadratic or the cubic of E+- is beyond the float range of
    its solution (see origin_eigenvalues and _depressed_cubic).
    The symmetric pair is constructed as (E+, S(E+)) so the two locations
    mirror each other exactly in floating point, and E- carries E+'s
    spectrum, the same tuple.  The kind and the locations, and every
    error, come from _equilibrium_parts, which a sweep cell reads without
    building these objects or solving a spectrum.
    """
    fields = (p.a, p.b, p.c, p.M, p.N, p.P)
    kind, pair = _equilibrium_parts(*fields)
    d = p.M + p.N + p.c - 1.0
    origin_eigs = _origin_spectrum(p.a, p.b, p.N, d)
    origin = Equilibrium(_ORIGIN, origin_eigs, *_origin_dims(*fields))
    if pair is None:
        return EquilibriumSet(kind, origin, None)
    s, z = pair
    eigs = _spectrum(_pair_cubic(p.a, p.b, p.c, p.M, p.N, d))
    plus_loc, dims = State(s, s, z), _pair_dims(*fields)
    minus = Equilibrium(apply_symmetry(plus_loc), eigs, *dims)
    return EquilibriumSet(kind, origin, (Equilibrium(plus_loc, eigs, *dims), minus))


def pitchfork_locus(p: SystemParams, free: str) -> float:
    """Value of the chosen gain/parameter where d = M + N + c - 1 = 0.

    ``free`` is one of "M", "N", "c"; the other two stay at their values
    in ``p``.  Crossing the returned value flips the sign of q = a d and
    with it the existence of the symmetric pair.  There d is 0 or within 2
    ulps of max(1, |M|, |N|, |c|) (90 000 random cells), inside SIGN_BAND,
    so the origin has a center direction there (NON_HYPERBOLIC for b > 0).
    """
    if free == "M":
        return 1.0 - p.N - p.c
    if free == "N":
        return 1.0 - p.M - p.c
    if free == "c":
        return 1.0 - p.M - p.N
    raise ValueError(f"free parameter must be 'M', 'N' or 'c', got {free!r}")


def pitchfork_locus_for_preset(preset: Preset, a: float) -> float:
    """Critical c for a preset whose gains are themselves functions of c.

    Substituting the preset mapping into d = M + N + c - 1 and solving
    d(c) = 0 gives: Lorenz c = 1; Chen c = a/2 (d = 2c - a); Lu c = 0
    (d = c); T system c = a (d = c - a).
    """
    if preset is Preset.LORENZ:
        return 1.0
    if preset is Preset.CHEN:
        return a / 2.0
    if preset is Preset.LU:
        return 0.0
    if preset is Preset.T_SYSTEM:
        return a
    raise TypeError(f"unknown preset {preset!r}")
