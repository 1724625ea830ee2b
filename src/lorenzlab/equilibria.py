"""Equilibrium sets, linearization spectra, and the origin classification.

Writing d = M + N + c - 1, the system has the origin as an equilibrium for
every parameter choice.  For b != 0 and P != 1 the remaining candidates are
the symmetric pair

    E+- = (+-s, +-s, d / (1 - P)),   s = sqrt(b d / (1 - P)),

which exist iff b d / (1 - P) > 0.  In the doubly degenerate case P = 1,
d = 0 the whole curve (x, x, x^2 / b) consists of equilibria.

The origin's linearization block-diagonalizes: one eigenvalue is -b and the
other two solve lambda^2 + (a + 1 - N) lambda - a d = 0, so its type is
decided by the signs of q = a d and r = N - a - 1.  This factored form,
origin_eigenvalues, is the one computation of the origin's spectrum, and
-b is exact in it; E+- solve their characteristic cubic.

E- = S(E+) carries E+'s spectrum: the mirror leaves the characteristic
cubic's bits unchanged unless a coefficient is zero or NaN, and then E-
solves its own (see find_equilibria).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DegenerateBError
from .model import SIGN_BAND
from .model import Preset, State, SystemParams, apply_symmetry

CENTER_BAND = 1e-9  # relative band of a center direction, see _record


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


def _drift(p: SystemParams) -> float:
    """d = M + N + c - 1, the pitchfork offset."""
    return p.M + p.N + p.c - 1.0


def origin_eigenvalues(p: SystemParams) -> tuple[complex, complex, complex]:
    """Eigenvalues at the origin, exact up to the quadratic formula.

    Returns the two roots of lambda^2 + (a + 1 - N) lambda - a d ordered by
    descending real part (ties by ascending imaginary part), followed by -b.
    Raises ValueError when the quadratic's discriminant is not finite.
    """
    bb = p.a + 1.0 - p.N  # quadratic is lambda^2 + bb*lambda + cc
    cc = -p.a * _drift(p)
    disc = bb * bb - 4.0 * cc
    if not math.isfinite(disc):
        raise ValueError(
            f"the origin's characteristic quadratic's coefficients ({bb!r}, {cc!r}) "
            "are beyond the float range"
        )
    if disc >= 0.0:
        sq = math.sqrt(disc)
        # avoid cancellation: compute the larger-magnitude root first
        if bb >= 0.0:
            r_big = (-bb - sq) / 2.0
        else:
            r_big = (-bb + sq) / 2.0
        r_other = cc / r_big if r_big != 0.0 else 0.0
        lo, hi = sorted((r_big, r_other))
        quad = (complex(hi, 0.0), complex(lo, 0.0))
    else:
        sq = math.sqrt(-disc)
        re = -bb / 2.0
        quad = (complex(re, -sq / 2.0), complex(re, sq / 2.0))
    return (quad[0], quad[1], complex(-p.b, 0.0))


def classify_origin(p: SystemParams) -> OriginClass:
    """Sign-based linear type of the origin.

    Decides by q = a d and r = N - a - 1: q > 0 gives a saddle with a
    one-dimensional unstable manifold; q < 0 splits on the sign of r
    (r > 0 two-dimensional unstable, r < 0 attractor).  Values inside the
    relative band of half-width ``SIGN_BAND`` around zero are reported as
    NON_HYPERBOLIC rather than guessed.  b <= 0 falls outside every
    statement made about this family and gets its own label.
    """
    if p.b <= 0.0:
        return OriginClass.OUT_OF_HYPOTHESES
    q = p.a * _drift(p)
    r = p.N - p.a - 1.0
    band_q = SIGN_BAND * (1.0 + abs(p.a) * (1.0 + abs(p.M) + abs(p.N) + abs(p.c)))
    band_r = SIGN_BAND * (1.0 + abs(p.a) + abs(p.N))
    if q > band_q:
        # the quadratic factor has real roots of opposite sign; with -b < 0
        # this is a saddle regardless of r, including r = 0
        return OriginClass.SADDLE_WS2_WU1
    if q < -band_q:
        if r > band_r:
            return OriginClass.SADDLE_WS1_WU2
        if r < -band_r:
            return OriginClass.ATTRACTOR
        return OriginClass.NON_HYPERBOLIC
    return OriginClass.NON_HYPERBOLIC


_HALF_SQRT3 = math.sqrt(3.0) / 2.0
_NAN_ROOT = complex(math.nan, math.nan)


def _cubic_roots(c2: float, c1: float, c0: float) -> list[complex]:
    """Roots of lambda^3 + c2 lambda^2 + c1 lambda + c0 = 0.

    Closed form on the depressed cubic: Cardano branch for one real root
    plus a conjugate pair, trigonometric branch for three real roots.  The
    real roots and the first of a pair then get one complex Newton step on
    the original polynomial to shed the rounding accumulated through the
    substitutions; the second of a pair is the first's exact conjugate.

    One test decides underflow: when |q| < 2^-511 and |p| < 2^-340, not
    both zero, both terms of the discriminant fall below the normal range
    and it says nothing about the roots, so the cubic is rescaled.

    A NaN coefficient gives three roots complex(nan, nan).  Coefficients
    too large for the closed form raise ValueError, not OverflowError:
    (q/2)^2 overflows once |q| passes about 2.7e154, (p/3)^3 once |p|
    passes about 1.7e103.
    """
    if c2 != c2 or c1 != c1 or c0 != c0:
        return [_NAN_ROOT, _NAN_ROOT, _NAN_ROOT]
    try:
        shift = c2 / 3.0
        pcoef = c1 - c2 * shift  # c1 - c2^2/3
        qcoef = (2.0 * shift * shift - c1) * shift + c0  # 2 c2^3/27 - c1 c2/3 + c0
        disc = (qcoef / 2.0) ** 2 + (pcoef / 3.0) ** 3
        if (
            abs(qcoef) < 2.0**-511
            and abs(pcoef) < 2.0**-340
            and (pcoef != 0.0 or qcoef != 0.0)
        ):
            return _rescaled_cubic_roots(c2, c1, c0)

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
    except OverflowError:
        raise ValueError(
            f"the characteristic cubic's coefficients ({c2!r}, {c1!r}, {c0!r}) "
            "are beyond the float range"
        ) from None


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
    p: SystemParams, s: State | tuple
) -> tuple[float, float, float]:
    """(c2, c1, c0) with det(lambda I - J(s)) = lambda^3 + c2 lambda^2
    + c1 lambda + c0."""
    # the entries of model.jacobian, by the same expressions, as scalars
    x, y, z = s
    pp = 1.0 - p.P
    a11, a12, a13 = -p.a, p.a, 0.0
    a21, a22, a23 = p.c + p.M - pp * z, p.N - 1.0, -pp * x
    a31, a32, a33 = y, x, -p.b
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
    return _spectrum(_characteristic_cubic(p, s))


def _record(loc: State, eigs: tuple[complex, complex, complex]) -> Equilibrium:
    """loc with its spectrum, in the order of _spectral_order, and its
    dimension counts; an eigenvalue is a center direction when
    |Re lambda| <= CENTER_BAND * (1 + |lambda|), and when Re lambda is NaN,
    which decides nothing and so never counts as stable."""
    stable = unstable = center = 0
    for lam in eigs:
        re = lam.real
        # NaN first: abs() of a complex with a NaN part can raise a stale
        # OverflowError left by an earlier overflow
        if re != re or abs(re) <= CENTER_BAND * (1.0 + abs(lam)):
            center += 1
        elif re > 0.0:
            unstable += 1
        else:
            stable += 1
    return Equilibrium(loc, eigs, stable, unstable, center)


_ORIGIN = State(0.0, 0.0, 0.0)


def find_equilibria(p: SystemParams) -> EquilibriumSet:
    """Enumerate the equilibrium set.

    P counts as 1, and d as 0, inside the relative band SIGN_BAND.  The
    pair is its closed form, with at most four roundings after that of d,
    so E+ is within a few ulps of the exact equilibrium of the float
    parameters wherever d does not cancel, with the same bits on every
    platform.  Its float residual may still be far from 0 at large d: that
    is rounding noise, not distance from the equilibrium.
    The origin's spectrum is origin_eigenvalues, sorted; E+- solve their
    characteristic cubic.  Raises DegenerateBError when b = 0 (the z-equation loses its linear
    term and the closed forms above do not apply), and ValueError when the
    origin's quadratic or a characteristic cubic of E+- is beyond the
    float range (see origin_eigenvalues and _cubic_roots).
    The symmetric pair is constructed as (E+, S(E+)) so the two locations
    mirror each other exactly in floating point.  E- carries E+'s eigenvalues and dimension
    counts when its characteristic cubic compares equal to E+'s with no
    zero coefficient: every product depending on x or y rounds
    sign-symmetrically, so the coefficients then have the same bits.  A
    zero (whose sign the a13 = 0 products can flip) or a NaN coefficient
    sends E- through its own solve.
    """
    if p.b == 0.0:
        raise DegenerateBError("b = 0: equilibrium formulas are undefined")
    origin_eigs = tuple(sorted(origin_eigenvalues(p), key=_spectral_order))
    origin = _record(_ORIGIN, origin_eigs)
    d = _drift(p)
    one_minus_p = 1.0 - p.P
    if abs(one_minus_p) <= SIGN_BAND * (1.0 + abs(p.P)):
        scale = 1.0 + abs(p.M) + abs(p.N) + abs(p.c)
        if abs(d) <= SIGN_BAND * scale:
            return EquilibriumSet(EquilibriumKind.CONTINUUM, origin, None)
        return EquilibriumSet(EquilibriumKind.ORIGIN_ONLY, origin, None)
    s_sq = p.b * d / one_minus_p
    if s_sq > 0.0:
        s = math.sqrt(s_sq)
        plus_loc = State(s, s, d / one_minus_p)
        minus_loc = apply_symmetry(plus_loc)
        cp = _characteristic_cubic(p, plus_loc)
        cm = _characteristic_cubic(p, minus_loc)
        plus = _record(plus_loc, _spectrum(cp))
        if cm == cp and 0.0 not in cp:
            minus = Equilibrium(
                minus_loc,
                plus.eigenvalues,
                plus.stable_dim,
                plus.unstable_dim,
                plus.center_dim,
            )
        else:
            minus = _record(minus_loc, _spectrum(cm))
        return EquilibriumSet(EquilibriumKind.TRIPLE, origin, (plus, minus))
    return EquilibriumSet(EquilibriumKind.ORIGIN_ONLY, origin, None)


def pitchfork_locus(p: SystemParams, free: str) -> float:
    """Value of the chosen gain/parameter where d = M + N + c - 1 = 0.

    ``free`` is one of "M", "N", "c"; the other two stay at their values
    in ``p``.  Crossing the returned value flips the sign of q = a d and
    with it the existence of the symmetric pair.
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
