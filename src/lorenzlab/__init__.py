"""Anticontrol workbench for the feedback-controlled Lorenz family.

The library covers the algebra (equilibria, spectra, pitchfork loci), the
convergence certificate built on a quartic Lyapunov function, numerical
orbits (fixed and adaptive integrators, unstable-manifold tracing), chaos
diagnostics (largest Lyapunov exponent, regime labels, anticontrol gain
suggestions), and a deterministic sweep/serialization layer with a CLI.

The namespace is lazy (PEP 562): ``import lorenzlab`` loads no submodule,
and the first access to an exported name or a submodule imports the one
module that defines it.  A one-shot CLI command or a script that only
builds ``SystemParams`` thus pays for what it touches, not for the whole
package.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports at package level; every submodule is
# listed, so each also resolves as an attribute
_EXPORTS = {
    "chaos": (
        "AnticontrolSuggestion", "LLEEstimate", "RegimeLabel",
        "largest_lyapunov_exponent", "regime_classify", "suggest_anticontrol",
    ),
    "cli": (),
    "equilibria": (
        "Equilibrium", "EquilibriumKind", "EquilibriumSet", "OriginClass",
        "classify_origin", "eigenvalues_at", "find_equilibria", "origin_eigenvalues",
        "pitchfork_locus", "pitchfork_locus_for_preset",
    ),
    "errors": (
        "DegenerateBError", "DegenerateParamsError", "DivergedTrajectoryError",
        "EigenvalueCollisionError", "LorenzLabError", "NotASaddleError",
        "NotStableRegimeError", "TrajectoryLengthMismatchError",
        "UnsupportedFormatError", "UnsupportedPresetError", "WorkerPoolError",
    ),
    "integrator": (
        "ConvergenceOutcome", "IntegratorMode", "IntegratorSettings", "Trajectory",
        "TrajectoryStatus", "integrate", "integrate_to_equilibrium",
    ),
    "lyapunov": (
        "CertificateReport", "HypothesisFlags", "LyapunovCoefficients", "certificate",
        "corollary_check", "hypotheses_check", "lyapunov_coefficients", "v_dot",
        "v_dot_closed_form", "v_gradient", "v_value",
    ),
    "model": (
        "Preset", "State", "SystemParams", "apply_symmetry", "from_preset", "jacobian",
        "vector_field",
    ),
    "orbits": (
        "Branch", "HeteroclinicResult", "branch_symmetry_deviation",
        "trace_heteroclinic", "unstable_direction_at_origin",
    ),
    "serialize": ("emit", "sweep_csv", "to_jsonable", "trajectory_csv"),
    "sweep": ("SweepAxis", "SweepResult", "SweepSpec", "run_sweep"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
