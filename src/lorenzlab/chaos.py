"""Chaos diagnostics: largest Lyapunov exponent, regime labels, anticontrol.

The largest Lyapunov exponent is estimated by integrating the variational
system (base orbit plus one tangent vector) and renormalizing the tangent
at fixed intervals; the exponent is the time average of the logarithmic
growth between renormalizations after a transient is discarded.

Anticontrol here means pushing a globally stable plant (0 < c < 1, so the
origin attracts) across the pitchfork by feedback: with N = P = 0 and M
chosen near pitchfork_locus(plant, "M") + margin the offset d = M + N +
c - 1 reproduces the margin as closely as the float grid allows, the
origin becomes a saddle and the symmetric pair appears.  Crossing the
pitchfork is necessary for a Lorenz-like attractor, not sufficient; b < 2a
is a further necessary condition for chaos, and an exponent run is the
only check performed here that positive entropy actually shows up.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .equilibria import (
    EquilibriumKind,
    OriginClass,
    _equilibrium_parts,
    _origin_dims,
    _pair_dims,
    classify_origin,
    find_equilibria,
    pitchfork_locus,
)
from .errors import DegenerateBError, DivergedTrajectoryError, NotStableRegimeError
from .lyapunov import certificate
from .model import _FIELD_SOURCE, State, SystemParams

if TYPE_CHECKING:
    from .integrator import IntegratorSettings


@dataclass(frozen=True)
class LLEEstimate:
    """Largest Lyapunov exponent with its convergence history.

    ``history[k]`` is the running estimate after the (k+1)-th accumulated
    renormalization window; ``lambda1`` equals the final entry.
    """

    lambda1: float
    history: tuple[float, ...]
    transient_discarded: float
    horizon: float


class RegimeLabel(enum.Enum):
    PROVABLY_REGULAR = "provably_regular"
    CHAOS_CANDIDATE = "chaos_candidate"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class AnticontrolSuggestion:
    """Feedback gains that push a stable plant across the pitchfork."""

    params: SystemParams
    margin: float
    chaos_possible: bool  # necessary condition b < 2a on the plant
    origin_class: OriginClass
    equilibria_kind: EquilibriumKind
    note: str


# Where an exponent run starts unless told otherwise, and the arguments
# that set its windows with their defaults, which a sweep's lle_* fields share
_LLE_START = State(1.0, 1.0, 1.0)
_LLE_WINDOW = {"renorm_interval": 1.0, "horizon": 500.0, "transient": 50.0}
_REGULAR, _CANDIDATE, _UNDETERMINED = RegimeLabel  # for _regime, see equilibria._TRIPLE

# The base field with its linearization along the tangent (dx, dy, dz), as
# source text for the integrator's stepping loop
_VARIATIONAL_SOURCE = (
    *_FIELD_SOURCE,
    ("dx", "a * ({dy} - {dx})"),
    ("dy", "(cm - pp * {z}) * {dx} + n1 * {dy} - pp * {x} * {dz}"),
    ("dz", "{y} * {dx} + {x} * {dy} - b * {dz}"),
)


def _lle_windows(
    renorm_interval: float, horizon: float, transient: float
) -> tuple[int, int]:
    """(total, transient) window counts of an exponent run.

    Raises ValueError unless the three values are finite, renorm_interval
    is positive, horizon > transient >= 0, horizon / renorm_interval does
    not overflow and at least one window follows the transient.
    """
    for name, value in zip(_LLE_WINDOW, (renorm_interval, horizon, transient)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if renorm_interval <= 0.0:
        raise ValueError("renorm_interval must be positive")
    if transient < 0.0 or horizon <= transient:
        raise ValueError("need horizon > transient >= 0")
    windows = horizon / renorm_interval
    if windows == math.inf:
        raise ValueError(
            f"the window count horizon / renorm_interval = {horizon!r} / "
            f"{renorm_interval!r} overflows"
        )
    n_total = int(round(windows))
    n_trans = int(round(transient / renorm_interval))
    if n_total <= n_trans:
        raise ValueError("horizon leaves no window after the transient")
    return n_total, n_trans


def _windows(
    loop, a, b, cm, n1, pp, nb, u0, interval, dt, max_steps, rel_tol, abs_tol,
    blowup_norm, n_total, n_trans,
) -> tuple:
    """The exponent's windows on ``loop``, a Python stepping loop of the
    variational field, as the native kernel's ``windows`` runs them in C.

    Each window runs ``loop`` from the last window's end over ``interval``
    with the grouped constants a .. nb, carrying dt and the trial steps
    spent, and rescales the tangent to unit length.  From window
    ``n_trans`` on, its log-growth adds to a sum and the running estimate
    to the history.  Returns (w, status, state, dt, attempts, history): w
    is n_total when every window completed; otherwise w is the window that
    failed, with the state, dt and attempts it started from, and status is
    its exit, or COMPLETED_TSPAN where its tangent's norm is 0 or not
    finite.
    """
    from .integrator import TrajectoryStatus

    completed = TrajectoryStatus.COMPLETED_TSPAN
    s, attempts, log_sum, history = u0, 0, 0.0, []
    for w in range(n_total):
        status, state, dt_next, attempts_next, *_ = loop(
            a, b, cm, n1, pp, nb, s, interval, dt, attempts, max_steps, rel_tol,
            abs_tol, blowup_norm, None, 0.0, [], False,
        )
        if status is not completed:
            return w, status, s, dt, attempts, history
        x, y, z, dx, dy, dz = state
        nrm = math.sqrt(dx * dx + dy * dy + dz * dz)
        if nrm == 0.0 or not math.isfinite(nrm):
            return w, status, s, dt, attempts, history
        dt, attempts = dt_next, attempts_next
        if w >= n_trans:
            log_sum += math.log(nrm)
            history.append(log_sum / ((w + 1 - n_trans) * interval))
        s = (x, y, z, dx / nrm, dy / nrm, dz / nrm)
    return n_total, completed, s, dt, attempts, history


def largest_lyapunov_exponent(
    p: SystemParams,
    u0: State | tuple = _LLE_START,
    settings: IntegratorSettings | None = None,
    renorm_interval: float = _LLE_WINDOW["renorm_interval"],
    horizon: float = _LLE_WINDOW["horizon"],
    transient: float = _LLE_WINDOW["transient"],
) -> LLEEstimate:
    """Benettin-style estimate of the largest Lyapunov exponent.

    The tangent starts at (1, 0, 0) and is rescaled to unit length every
    ``renorm_interval`` time units; log-growth accumulates from the end of
    the transient to the horizon.  Raises DivergedTrajectoryError when the
    base orbit blows up, stops making progress or spends more than
    ``settings.max_steps`` trial steps over the whole run; it names the
    tangent instead when the base orbit alone completes the failed window,
    and says "tangent vector degenerated" when a window ends with a tangent
    whose norm underflowed to 0 or is not finite.

    The whole run is one call of the native kernel's ``windows`` where the
    variational loop was built in C and passed its probes (see
    ``lorenzlab.native``), with the bits of ``_windows``; otherwise
    ``_windows`` runs it on the Python loop.
    """
    # imported here, so regime_classify and suggest_anticontrol load no integrator
    from .integrator import IntegratorSettings, TrajectoryStatus, _drive, _loop_for

    if settings is None:
        settings = IntegratorSettings()
    n_total, n_trans = _lle_windows(renorm_interval, horizon, transient)

    loop, constants = _loop_for(_VARIATIONAL_SOURCE, p, settings.mode, 0)
    windows = getattr(loop, "windows", None) or functools.partial(_windows, loop)
    w, status, s, dt, attempts, history = windows(
        *constants, (float(u0[0]), float(u0[1]), float(u0[2]), 1.0, 0.0, 0.0),
        renorm_interval, settings.dt_init, settings.max_steps, settings.rel_tol,
        settings.abs_tol, settings.blowup_norm, n_total, n_trans,
    )
    if w < n_total:
        if status is TrajectoryStatus.COMPLETED_TSPAN:
            raise DivergedTrajectoryError("tangent vector degenerated")
        # the run's norm and error estimate span the tangent as well; if
        # the base orbit alone completes the window, the tangent diverged
        if status is TrajectoryStatus.DIVERGED:
            alone = _drive(_FIELD_SOURCE, p, s[:3], settings, renorm_interval,
                           record=False, dt_start=dt, attempts=attempts)
            if alone.status is TrajectoryStatus.COMPLETED_TSPAN:
                raise DivergedTrajectoryError(
                    f"the tangent vector diverged during window {w} while the "
                    "base orbit alone did not; use a shorter renorm_interval "
                    f"than {renorm_interval!r}"
                )
        raise DivergedTrajectoryError(
            f"base orbit failed during window {w}: {status.value}"
        )

    return LLEEstimate(
        lambda1=history[-1],
        history=tuple(history),
        transient_discarded=n_trans * renorm_interval,
        horizon=n_total * renorm_interval,
    )


def regime_classify(p: SystemParams) -> RegimeLabel:
    """Conservative regime label from the certificate and the equilibria.

    PROVABLY_REGULAR when the convergence certificate holds.  A chaos
    candidate needs the necessary condition b < 2a, the full symmetric
    triple of equilibria, and every one of them linearly unstable, as the
    signs of its characteristic polynomial say within SIGN_BAND
    (_origin_dims, _pair_dims).  All remaining cases are UNDETERMINED.
    The equilibria are only computed when the certificate leaves chaos
    possible.  The label comes from _regime, which a sweep cell calls on
    the values it already holds.
    """
    cert = certificate(p)
    fields = (p.a, p.b, p.c, p.M, p.N, p.P)
    label, _ = _regime(
        cert.converges_to_equilibria, cert.chaos_possible, None, None, fields
    )
    return label


def _regime(
    converges_to_equilibria: bool,
    chaos_possible: bool,
    parts: tuple | None,
    origin: tuple[int, int, int] | None,
    fields: tuple[float, ...],
) -> tuple[RegimeLabel, tuple | None]:
    """(label, parts): the label of ``regime_classify`` from the
    certificate's two flags of those names, the cell's
    equilibria._equilibrium_parts, (kind, pair), and the origin's
    _origin_dims counts.

    ``parts`` and ``origin`` are None until computed.  They are computed
    from ``fields``, the six parameter floats, only when the label needs
    them: the parts when the certificate neither proves convergence nor
    excludes chaos, the origin's counts when E+- exist and one of them is
    unstable.  The parts are returned, so a sweep cell that also writes
    its equilibria computes them once; a cell that writes its origin class
    passes the counts it formed for it.
    """
    if converges_to_equilibria:
        return _REGULAR, parts
    if chaos_possible:
        if parts is None:
            try:
                parts = _equilibrium_parts(*fields)
            except DegenerateBError:
                return _UNDETERMINED, None
        if parts[1] is not None and _pair_dims(*fields)[1] and (
            origin or _origin_dims(*fields)
        )[1]:
            return _CANDIDATE, parts
    return _UNDETERMINED, parts


def suggest_anticontrol(
    a: float, b: float, c: float, margin: float
) -> AnticontrolSuggestion:
    """Gains making the stable plant (0 < c < 1) cross the pitchfork.

    The plant SystemParams(a, b, c) is checked first.  Sets N = P = 0 and
    M = pitchfork_locus(plant, "M") + margin, then nudges M onto the float
    grid so the offset M + N + c - 1 reproduces ``margin`` exactly whenever
    some double M can (the offset lives on the grid of 1 + margin, which is
    coarser than the grid of margin itself for about half of all margins,
    and M + c reaches only every other point of it when c's rounding makes
    each sum a tie; those get the nearest reachable offset).  Raises
    NotStableRegimeError unless 0 < c < 1, and ValueError for a margin
    that is not positive and finite or when the offset reached leaves the
    origin no saddle or the pair absent (a margin inside SIGN_BAND or
    below the float grid).
    """
    plant = SystemParams(a, b, c)
    if not (plant.a > 0.0 and plant.b > 0.0):
        raise ValueError("plant parameters a and b must be positive")
    if not margin > 0.0:
        raise ValueError("margin must be positive")
    if margin == math.inf:
        raise ValueError(f"margin must be finite, got {margin!r}")
    if not 0.0 < plant.c < 1.0:
        raise NotStableRegimeError(
            f"anticontrol assumes a stable plant with 0 < c < 1, got c = {c}"
        )
    # a residual-feedback iteration can limit-cycle when the correction
    # lands on a half-ulp tie, so search the grid around the seed instead;
    # the seed is within ~2 ulps of optimal, ties keep the earlier (lower
    # |k|, negative first) candidate
    m_seed = pitchfork_locus(plant, "M") + margin
    step = math.ulp(m_seed)
    m_gain, best = m_seed, math.inf
    for k in (0, -1, 1, -2, 2, -3, 3, -4, 4):
        m_k = m_seed + k * step
        achieved = (m_k + 0.0) + plant.c - 1.0  # same grouping as M + N + c - 1
        err = abs(achieved - margin)
        if err < best:
            m_gain, best = m_k, err
            if err == 0.0:
                break
    params = replace(plant, M=m_gain)
    origin_class, kind = classify_origin(params), find_equilibria(params).kind
    if (origin_class, kind) != (OriginClass.SADDLE_WS2_WU1, EquilibriumKind.TRIPLE):
        raise ValueError(
            f"margin {margin!r} does not cross the pitchfork: the offset M + N + "
            f"c - 1 = {(m_gain + 0.0) + plant.c - 1.0!r} leaves the origin "
            f"{origin_class.value} and the equilibria {kind.value}"
        )
    chaos_possible = certificate(params).chaos_possible
    if chaos_possible:
        tail = "b < 2a holds, so chaos is not excluded; confirm with an exponent run"
    else:
        tail = "b >= 2a, so trajectories still converge and chaos is excluded"
    return AnticontrolSuggestion(
        params=params,
        margin=margin,
        chaos_possible=chaos_possible,
        origin_class=origin_class,
        equilibria_kind=kind,
        note=(
            "pitchfork crossed: origin destabilized and the symmetric pair "
            "exists; crossing is necessary but not sufficient for chaos; "
            + tail
        ),
    )
