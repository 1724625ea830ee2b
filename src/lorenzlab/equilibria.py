"""Equilibrium sets, linearization spectra, and the origin classification.

Writing d = M + N + c - 1, the system has the origin as an equilibrium for
every parameter choice.  For b != 0 and P != 1 the remaining candidates are
the symmetric pair

    E+- = (+-s, +-s, d / (1 - P)),   s = sqrt(b d / (1 - P)),

which exist iff b d / (1 - P) > 0.  In the doubly degenerate case P = 1,
d = 0 the whole curve (x, x, x^2 / b) consists of equilibria.

The origin's linearization block-diagonalizes: one eigenvalue is -b and the
other two solve lambda^2 + (a + 1 - N) lambda - a d = 0, so its type is
decided by the signs of q = a d and r = N - a - 1.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBError
from .model import Preset, State, SystemParams, apply_symmetry, jacobian, vector_field


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
    """
    bb = p.a + 1.0 - p.N  # quadratic is lambda^2 + bb*lambda + cc
    cc = -p.a * _drift(p)
    disc = bb * bb - 4.0 * cc
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


def classify_origin(p: SystemParams, tol: float = 1e-12) -> OriginClass:
    """Sign-based linear type of the origin.

    Decides by q = a d and r = N - a - 1: q > 0 gives a saddle with a
    one-dimensional unstable manifold; q < 0 splits on the sign of r
    (r > 0 two-dimensional unstable, r < 0 attractor).  Values inside a
    relative band of half-width ``tol`` around zero are reported as
    NON_HYPERBOLIC rather than guessed.  b <= 0 falls outside every
    statement made about this family and gets its own label.
    """
    if p.b <= 0.0:
        return OriginClass.OUT_OF_HYPOTHESES
    q = p.a * _drift(p)
    r = p.N - p.a - 1.0
    band_q = tol * (1.0 + abs(p.a) * (1.0 + abs(p.M) + abs(p.N) + abs(p.c)))
    band_r = tol * (1.0 + abs(p.a) + abs(p.N))
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


def _cubic_roots(c2: float, c1: float, c0: float) -> list[complex]:
    """Roots of lambda^3 + c2 lambda^2 + c1 lambda + c0 = 0.

    Closed form on the depressed cubic: Cardano branch for one real root
    plus a conjugate pair, trigonometric branch for three real roots.  Each
    root then gets one complex Newton step on the original polynomial to
    shed the rounding accumulated through the substitutions.
    """
    shift = c2 / 3.0
    pcoef = c1 - c2 * shift  # c1 - c2^2/3
    qcoef = (2.0 * shift * shift - c1) * shift + c0  # 2 c2^3/27 - c1 c2/3 + c0
    disc = (qcoef / 2.0) ** 2 + (pcoef / 3.0) ** 3

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
        ts = [complex(t_real, 0.0), complex(re, im), complex(re, -im)]
    elif pcoef < 0.0:
        mfac = 2.0 * math.sqrt(-pcoef / 3.0)
        arg = 3.0 * qcoef / (pcoef * mfac)
        arg = min(1.0, max(-1.0, arg))
        phi = math.acos(arg)
        ts = [
            complex(mfac * math.cos((phi - 2.0 * math.pi * k) / 3.0), 0.0)
            for k in range(3)
        ]
    else:
        # disc <= 0 and pcoef >= 0 forces pcoef ~ qcoef ~ 0: triple root
        t = math.copysign(abs(qcoef) ** (1.0 / 3.0), -qcoef)
        ts = [complex(t, 0.0)] * 3

    polished = []
    for t in ts:
        z = t - shift
        dp = (3.0 * z + 2.0 * c2) * z + c1
        scale = abs(z) ** 2 + abs(c2) * abs(z) + abs(c1)
        if abs(dp) > 1e-8 * max(scale, 1.0):
            z = z - (((z + c2) * z + c1) * z + c0) / dp
        polished.append(z)
    # keep conjugate pairs exactly conjugate after polishing
    if disc > 0.0:
        polished[2] = polished[1].conjugate()
    return polished


def eigenvalues_at(
    p: SystemParams, s: State | tuple
) -> tuple[complex, complex, complex]:
    """Eigenvalues of the Jacobian at s via the characteristic cubic.

    Sorted by descending real part, ties by ascending imaginary part.
    """
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
    roots = _cubic_roots(-tr, minors, -det)
    roots.sort(key=lambda z: (-z.real, z.imag))
    return (roots[0], roots[1], roots[2])


def _dims(
    eigenvalues: tuple[complex, complex, complex], center_tol: float = 1e-9
) -> tuple[int, int, int]:
    """(stable, unstable, center) dimension counts."""
    stable = unstable = center = 0
    for lam in eigenvalues:
        if abs(lam.real) <= center_tol * (1.0 + abs(lam)):
            center += 1
        elif lam.real > 0.0:
            unstable += 1
        else:
            stable += 1
    return stable, unstable, center


def _record(p: SystemParams, loc: State) -> Equilibrium:
    eigs = eigenvalues_at(p, loc)
    stable, unstable, center = _dims(eigs)
    return Equilibrium(
        location=loc,
        eigenvalues=eigs,
        stable_dim=stable,
        unstable_dim=unstable,
        center_dim=center,
    )


def _residual(p: SystemParams, loc: State) -> float:
    f = vector_field(p, loc)
    return math.sqrt(f.x * f.x + f.y * f.y + f.z * f.z)


def _polish(p: SystemParams, loc: State, residual_tol: float) -> State:
    """Newton-polish an approximate equilibrium (best effort)."""
    for _ in range(3):
        if _residual(p, loc) <= residual_tol:
            break
        f = np.array(vector_field(p, loc), dtype=float)
        try:
            delta = np.linalg.solve(jacobian(p, loc), -f)
        except np.linalg.LinAlgError:
            break
        loc = State(
            float(loc.x + delta[0]), float(loc.y + delta[1]), float(loc.z + delta[2])
        )
    return loc


def find_equilibria(p: SystemParams, residual_tol: float = 1e-9) -> EquilibriumSet:
    """Enumerate the equilibrium set.

    Raises DegenerateBError when b = 0 (the z-equation loses its linear
    term and the closed forms above do not apply).  The symmetric pair is
    constructed as (E+, S(E+)) so the two locations mirror each other
    exactly in floating point.
    """
    if p.b == 0.0:
        raise DegenerateBError("b = 0: equilibrium formulas are undefined")
    origin = _record(p, State(0.0, 0.0, 0.0))
    d = _drift(p)
    one_minus_p = 1.0 - p.P
    if abs(one_minus_p) <= 1e-12 * (1.0 + abs(p.P)):
        scale = 1.0 + abs(p.M) + abs(p.N) + abs(p.c)
        if abs(d) <= 1e-12 * scale:
            return EquilibriumSet(EquilibriumKind.CONTINUUM, origin, None)
        return EquilibriumSet(EquilibriumKind.ORIGIN_ONLY, origin, None)
    s_sq = p.b * d / one_minus_p
    if s_sq > 0.0:
        s = math.sqrt(s_sq)
        z_star = d / one_minus_p
        plus_loc = _polish(p, State(s, s, z_star), residual_tol)
        minus_loc = apply_symmetry(plus_loc)
        pair = (_record(p, plus_loc), _record(p, minus_loc))
        return EquilibriumSet(EquilibriumKind.TRIPLE, origin, pair)
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
