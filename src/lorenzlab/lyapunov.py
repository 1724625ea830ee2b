"""Global convergence certificate for the controlled family.

For a > 0 and P != 1 define

    V(x, y, z) = A (x - y)^2 + (b z - x^2)^2 + B (x^2 - K)^2

    A = b (b - 2a) / (1 - P),   B = (b - 2a) / (2a),
    K = b (M + N + c - 1) / (1 - P).

Along solutions the orbital derivative collapses to

    dV/dt = -2 A (a + 1 - N) (x - y)^2 - 2 b (b z - x^2)^2,

which is nonpositive whenever a > 0, b > 0, (b - 2a)/(1 - P) >= 0 and
N <= 1 + a.  Note the middle term must be (b z - x^2)^2, not
(z - x^2 / b)^2: only the former reproduces the displayed derivative,
as the test suite checks symbolically term by term.  Under these
hypotheses the system has no closed orbits and no homoclinic loops; if
additionally b >= 2a and P < 1 then V is radially unbounded and every
solution converges to an equilibrium, and if on top of that c + M > 0
and (M + N + c - 1)/(1 - P) > 0 the one-dimensional unstable manifold
of the origin closes up into a symmetric heteroclinic pair connecting
the origin to E+ and E-.

A flag being False means "not certified by these conditions", never a
claim that the property fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateParamsError, UnsupportedPresetError
from .model import SIGN_BAND, Preset, State, SystemParams, vector_field


@dataclass(frozen=True)
class LyapunovCoefficients:
    """Weights of the three quadratic groups in V."""

    A: float
    B: float
    K: float


@dataclass(frozen=True)
class HypothesisFlags:
    """Nested hypothesis levels; each level implies the ones before it.

    lemma_ok: a > 0, b > 0, (b - 2a)/(1 - P) >= 0, N - 1 - a <= 0.
    conv_ok: lemma_ok plus b - 2a >= 0 and P < 1.
    het_ok: conv_ok plus c + M > 0 and (M + N + c - 1)/(1 - P) > 0.
    """

    lemma_ok: bool
    conv_ok: bool
    het_ok: bool


@dataclass(frozen=True)
class CertificateReport:
    """What the certificate established for one parameter choice."""

    flags: HypothesisFlags
    no_closed_orbits: bool
    no_homoclinic: bool
    converges_to_equilibria: bool
    heteroclinic_pair: bool
    chaos_possible: bool  # the necessary condition b < 2a


def lyapunov_coefficients(p: SystemParams) -> LyapunovCoefficients:
    """Coefficients (A, B, K) of V; DegenerateParamsError at a = 0, at P = 1
    and where a coefficient is beyond the float range (B for a subnormal a,
    A or K for a huge b, c or 1 / (1 - P)), checked in the order B, A, K."""
    if p.a == 0.0:
        raise DegenerateParamsError("a = 0: coefficient B is undefined")
    if p.P == 1.0:
        raise DegenerateParamsError("P = 1: coefficients A and K are undefined")
    one_minus_p = 1.0 - p.P
    b2a = p.b - 2.0 * p.a
    A = p.b * b2a / one_minus_p
    B = b2a / (2.0 * p.a)
    K = p.b * (p.M + p.N + p.c - 1.0) / one_minus_p
    for name, value in (("B", B), ("A", A), ("K", K)):
        if not math.isfinite(value):
            raise DegenerateParamsError(
                f"coefficient {name} = {value!r} is beyond the float range"
            )
    return LyapunovCoefficients(A=A, B=B, K=K)


def v_value(p: SystemParams, s: State | tuple) -> float:
    """V(s) = A (x - y)^2 + (b z - x^2)^2 + B (x^2 - K)^2."""
    co = lyapunov_coefficients(p)
    x, y, z = s
    g1 = x - y
    g2 = p.b * z - x * x
    g3 = x * x - co.K
    return co.A * (g1 * g1) + g2 * g2 + co.B * (g3 * g3)


def v_gradient(p: SystemParams, s: State | tuple) -> tuple[float, float, float]:
    """Exact gradient of V."""
    co = lyapunov_coefficients(p)
    x, y, z = s
    g1 = x - y
    g2 = p.b * z - x * x
    g3 = x * x - co.K
    return (
        2.0 * co.A * g1 - 4.0 * x * g2 + 4.0 * co.B * (x * g3),
        -2.0 * co.A * g1,
        2.0 * p.b * g2,
    )


def v_dot(p: SystemParams, s: State | tuple) -> float:
    """Orbital derivative dV/dt = grad V . f, by the chain rule."""
    gx, gy, gz = v_gradient(p, s)
    fx, fy, fz = vector_field(p, s)
    return gx * fx + gy * fy + gz * fz


def v_dot_closed_form(p: SystemParams, s: State | tuple) -> float:
    """The collapsed orbital derivative -2A(a+1-N)(x-y)^2 - 2b(bz-x^2)^2."""
    co = lyapunov_coefficients(p)
    x, y, z = s
    g1 = x - y
    g2 = p.b * z - x * x
    return -2.0 * co.A * (p.a + 1.0 - p.N) * (g1 * g1) - 2.0 * p.b * (g2 * g2)


def _strictly_positive(v: float) -> bool:
    """v clears SIGN_BAND * (1 + |v|).  +inf passes: here it only comes
    from overflowing a value that is exactly positive."""
    return v > SIGN_BAND * (1.0 + abs(v)) or v == math.inf


def _exact_sum(*terms: float) -> float:
    """The exact sum of ``terms`` rounded once, so its sign is exact.

    Left to right, ((M + N) + c) - 1 can round an exact 0 up to 2^-52.
    fsum rounds once, but raises when a partial sum leaves the float
    range; the rational sum then gives the value, or the signed infinity
    (fractions loads only then).
    """
    try:
        return math.fsum(terms)
    except OverflowError:
        from fractions import Fraction

        total = sum(map(Fraction, terms))
        try:
            return float(total)
        except OverflowError:
            return math.inf if total > 0 else -math.inf


def _product_nonpos(u: float, v: float) -> bool:
    """u * v <= 0, from the factors' signs: a product that underflows to
    0 does not count as 0."""
    return u == 0.0 or v == 0.0 or (u < 0.0) != (v < 0.0)


def _certificate_columns(
    a: float, b: float, c: float, M: float, N: float, P: float
) -> tuple[bool, bool, bool, bool, bool, bool, bool, bool]:
    """The certificate of the six parameter floats as its eight sweep
    columns: lemma_ok, conv_ok, het_ok, no_closed_orbits, no_homoclinic,
    converges_to_equilibria, heteroclinic_pair, chaos_possible (see
    certificate, which wraps them)."""
    one_minus_p = 1.0 - P
    p_ok = abs(one_minus_p) > SIGN_BAND * (1.0 + abs(P))
    excess = 2.0 * a - b
    lemma_ok = (
        _strictly_positive(a)
        and _strictly_positive(b)
        and p_ok
        and _product_nonpos(excess, one_minus_p)
        and _exact_sum(N, -1.0, -a) <= 0.0
    )
    conv_ok = lemma_ok and excess <= 0.0 and _strictly_positive(one_minus_p)
    # the offset is summed exactly: a rounding error of 2^-52 clears the
    # band once divided by a small 1 - P
    het_ok = (
        conv_ok
        and _strictly_positive(c + M)
        and _strictly_positive(_exact_sum(M, N, c, -1.0) / one_minus_p)
    )
    return lemma_ok, conv_ok, het_ok, lemma_ok, lemma_ok, conv_ok, het_ok, b < 2.0 * a


def certificate(p: SystemParams) -> CertificateReport:
    """Evaluate the nested hypothesis levels and the properties they certify.

    Strict inequalities must clear SIGN_BAND * (1 + |value|); +inf, from
    an overflow, passes.  Non-strict ones are decided by exact sign:
    2a - b is one rounding of the exact difference (2a is exact), its
    quotient by 1 - P takes its sign from the two factors, and N - 1 - a
    is summed exactly.  P ~ 1 (where V degenerates) fails lemma_ok
    outright instead of passing vacuously through the sign of the ratio.

    The values come from _certificate_columns, which a sweep cell reads
    without building these objects.
    """
    lemma_ok, conv_ok, het_ok, *properties = _certificate_columns(
        p.a, p.b, p.c, p.M, p.N, p.P
    )
    return CertificateReport(HypothesisFlags(lemma_ok, conv_ok, het_ok), *properties)


def corollary_check(preset: Preset, a: float, b: float, c: float) -> bool:
    """Preset-specific convergence conditions in the plant parameters.

    Lorenz: c > 1, b >= 2a, a > 0.  Chen: 2c - a > 0 and
    (b - 2a)(c - a) <= 0.  T system: c - a > 0 and b - 2a <= 0.  As in
    ``certificate``, strict signs use SIGN_BAND and non-strict ones are
    exact; the Lu preset raises.
    """
    if preset is Preset.LORENZ:
        return (
            _strictly_positive(c - 1.0)
            and 2.0 * a - b <= 0.0
            and _strictly_positive(a)
        )
    if preset is Preset.CHEN:
        return _strictly_positive(2.0 * c - a) and _product_nonpos(b - 2.0 * a, c - a)
    if preset is Preset.T_SYSTEM:
        return _strictly_positive(c - a) and b - 2.0 * a <= 0.0
    if preset is Preset.LU:
        raise UnsupportedPresetError(
            "no convergence conditions are defined for the Lu preset"
        )
    raise TypeError(f"unknown preset {preset!r}")
