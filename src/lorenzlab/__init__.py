"""Anticontrol workbench for the feedback-controlled Lorenz family.

The library covers the algebra (equilibria, spectra, pitchfork loci), the
convergence certificate built on a quartic Lyapunov function, numerical
orbits (fixed and adaptive integrators, unstable-manifold tracing), chaos
diagnostics (largest Lyapunov exponent, regime labels, anticontrol gain
suggestions), and a deterministic sweep/serialization layer with a CLI.
"""

from .chaos import (
    AnticontrolSuggestion,
    LLEEstimate,
    RegimeLabel,
    largest_lyapunov_exponent,
    regime_classify,
    suggest_anticontrol,
)
from .equilibria import (
    Equilibrium,
    EquilibriumKind,
    EquilibriumSet,
    OriginClass,
    classify_origin,
    eigenvalues_at,
    find_equilibria,
    origin_eigenvalues,
    pitchfork_locus,
    pitchfork_locus_for_preset,
)
from .errors import (
    DegenerateBError,
    DegenerateParamsError,
    DivergedTrajectoryError,
    EigenvalueCollisionError,
    LorenzLabError,
    NotASaddleError,
    NotStableRegimeError,
    TrajectoryLengthMismatchError,
    UnsupportedFormatError,
    UnsupportedPresetError,
    WorkerPoolError,
)
from .integrator import (
    ConvergenceOutcome,
    IntegratorMode,
    IntegratorSettings,
    Trajectory,
    TrajectoryStatus,
    integrate,
    integrate_to_equilibrium,
)
from .lyapunov import (
    CertificateReport,
    HypothesisFlags,
    LyapunovCoefficients,
    certificate,
    corollary_check,
    hypotheses_check,
    lyapunov_coefficients,
    v_dot,
    v_dot_closed_form,
    v_gradient,
    v_value,
)
from .model import (
    Preset,
    State,
    SystemParams,
    apply_symmetry,
    from_preset,
    jacobian,
    vector_field,
)
from .orbits import (
    Branch,
    HeteroclinicResult,
    branch_symmetry_deviation,
    trace_heteroclinic,
    unstable_direction_at_origin,
)
from .serialize import emit, sweep_csv, to_jsonable, trajectory_csv
from .sweep import SweepAxis, SweepResult, SweepSpec, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AnticontrolSuggestion",
    "Branch",
    "CertificateReport",
    "ConvergenceOutcome",
    "DegenerateBError",
    "DegenerateParamsError",
    "DivergedTrajectoryError",
    "EigenvalueCollisionError",
    "Equilibrium",
    "EquilibriumKind",
    "EquilibriumSet",
    "HeteroclinicResult",
    "HypothesisFlags",
    "IntegratorMode",
    "IntegratorSettings",
    "LLEEstimate",
    "LorenzLabError",
    "LyapunovCoefficients",
    "NotASaddleError",
    "NotStableRegimeError",
    "OriginClass",
    "Preset",
    "RegimeLabel",
    "State",
    "SweepAxis",
    "SweepResult",
    "SweepSpec",
    "SystemParams",
    "Trajectory",
    "TrajectoryLengthMismatchError",
    "TrajectoryStatus",
    "UnsupportedFormatError",
    "UnsupportedPresetError",
    "WorkerPoolError",
    "apply_symmetry",
    "branch_symmetry_deviation",
    "certificate",
    "classify_origin",
    "corollary_check",
    "eigenvalues_at",
    "emit",
    "find_equilibria",
    "from_preset",
    "hypotheses_check",
    "integrate",
    "integrate_to_equilibrium",
    "jacobian",
    "largest_lyapunov_exponent",
    "lyapunov_coefficients",
    "origin_eigenvalues",
    "pitchfork_locus",
    "pitchfork_locus_for_preset",
    "regime_classify",
    "run_sweep",
    "suggest_anticontrol",
    "sweep_csv",
    "to_jsonable",
    "trace_heteroclinic",
    "trajectory_csv",
    "unstable_direction_at_origin",
    "v_dot",
    "v_dot_closed_form",
    "v_gradient",
    "v_value",
    "vector_field",
]
