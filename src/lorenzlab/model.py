"""Controlled Lorenz-family vector field and its basic geometry.

The model is the classical Lorenz system with a state feedback
u = M x + N y + P x z added to the second equation:

    x' = a (y - x)
    y' = (c + M) x + (N - 1) y - (1 - P) x z
    z' = -b z + x y

M = N = P = 0 recovers the Lorenz equations with the usual (sigma, r, b)
playing the roles of (a, c, b).  The Chen, Lu and T systems arise from
specific (M, N, P) choices, see :func:`from_preset`.  The field is
equivariant under the rotation (x, y, z) -> (-x, -y, z) for every
parameter choice, which the implementation preserves exactly in floating
point (all x/y-linear and x*z terms are products with sign-symmetric
rounding).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np


# A sign test counts v as nonzero only when |v| > SIGN_BAND * scale, scale
# being 1 plus the magnitudes that v is built from.
SIGN_BAND = 1e-12


class State(NamedTuple):
    """A phase-space point."""

    x: float
    y: float
    z: float


class Preset(enum.Enum):
    """Named members of the family, as (M, N, P) mappings."""

    LORENZ = "lorenz"
    CHEN = "chen"
    LU = "lu"
    T_SYSTEM = "t"


# SystemParams' fields, in declaration order.
PARAM_NAMES = ("a", "b", "c", "M", "N", "P")

# The per-cell tasks of a sweep (sweep.TASKS), defined here so the CLI
# can list them without loading the sweep engine.
SWEEP_TASKS = ("equilibria", "origin_class", "certificate", "regime", "lle")


def _finite_floats(
    a: object, b: object, c: object, M: object, N: object, P: object
) -> bool:
    """True when the six values are exact floats with a finite sum.

    Such values are six finite floats, which SystemParams keeps as given,
    so a sweep cell runs on them without building one; False sends them
    through SystemParams, whose field-by-field check also takes a sum that
    overflows.
    """
    return (
        type(a) is type(b) is type(c) is type(M) is type(N) is type(P) is float
        and math.isfinite(a + b + c + M + N + P)
    )


@dataclass(frozen=True)
class SystemParams:
    """Parameters of the controlled system.

    a, b, c are the plant parameters; M, N, P are the feedback gains.
    All six must be finite reals.  Each is coerced with ``float()`` and
    checked in field order, so the error names the first bad field; an
    exact float is kept as the object given, since ``float()`` returns it
    unchanged, and ints, bools and numpy scalars become equal floats.
    """

    a: float
    b: float
    c: float
    M: float = 0.0
    N: float = 0.0
    P: float = 0.0

    def __post_init__(self) -> None:
        if _finite_floats(self.a, self.b, self.c, self.M, self.N, self.P):
            return
        for name in PARAM_NAMES:
            raw = getattr(self, name)
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(f"parameter {name} must be finite, got {value!r}")
            if value is not raw:
                object.__setattr__(self, name, value)


def from_preset(preset: Preset, a: float, b: float, c: float) -> SystemParams:
    """Build parameters for one of the named systems.

    Gains: Lorenz (0, 0, 0); Chen (-a, 1 + c, 0); Lu (-c, 1 + c, 0);
    T system (-a, 1, 1 - a).
    """
    if preset is Preset.LORENZ:
        gains = (0.0, 0.0, 0.0)
    elif preset is Preset.CHEN:
        gains = (-a, 1.0 + c, 0.0)
    elif preset is Preset.LU:
        gains = (-c, 1.0 + c, 0.0)
    elif preset is Preset.T_SYSTEM:
        gains = (-a, 1.0, 1.0 - a)
    else:
        raise TypeError(f"unknown preset {preset!r}")
    return SystemParams(a=a, b=b, c=c, M=gains[0], N=gains[1], P=gains[2])


def vector_field(p: SystemParams, s: State | tuple) -> State:
    """Right-hand side of the controlled system at state s."""
    x, y, z = s
    return State(
        p.a * (y - x),
        (p.c + p.M) * x + (p.N - 1.0) * y - (1.0 - p.P) * (x * z),
        -p.b * z + x * y,
    )


# The field as source text for the integrator's stepping loop (see
# lorenzlab.integrator._loop_source): the same operations, in the same
# order, as vector_field, with cm = c + M, n1 = N - 1, pp = 1 - P and
# nb = -b, negated once per run instead of at every stage (negation is
# exact, so nb * z rounds as -b * z does).
_FIELD_SOURCE = (
    ("x", "a * ({y} - {x})"),
    ("y", "cm * {x} + n1 * {y} - pp * ({x} * {z})"),
    ("z", "nb * {z} + {x} * {y}"),
)


def jacobian(p: SystemParams, s: State | tuple) -> np.ndarray:
    """Jacobian matrix of the vector field at state s (3x3 float array).

    numpy loads on the first call, not when the package is imported; the
    eigenvalue path forms the same entries as scalars without it.
    """
    import numpy as np

    x, y, z = s
    pp = 1.0 - p.P
    return np.array(
        [
            [-p.a, p.a, 0.0],
            [p.c + p.M - pp * z, p.N - 1.0, -pp * x],
            [y, x, -p.b],
        ]
    )


def apply_symmetry(s: State | tuple) -> State:
    """The order-two symmetry (x, y, z) -> (-x, -y, z)."""
    x, y, z = s
    return State(-x, -y, z)
