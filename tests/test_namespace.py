"""The package namespace: what ``lorenzlab`` exports and where it comes from.

The namespace is lazy (``__getattr__``), so these checks pin that every
exported name still resolves to the object its owning module defines, and
that star-imports, ``dir`` and unknown names behave as for an eager package.
"""

import importlib

import pytest

import lorenzlab

# the package's public names, in the order __all__ lists them
PUBLIC = [
    "AnticontrolSuggestion", "Branch", "CertificateReport", "ConvergenceOutcome",
    "DegenerateBError", "DegenerateParamsError", "DivergedTrajectoryError",
    "EigenvalueCollisionError", "Equilibrium", "EquilibriumKind", "EquilibriumSet",
    "HeteroclinicResult", "HypothesisFlags", "IntegratorMode", "IntegratorSettings",
    "LLEEstimate", "LorenzLabError", "LyapunovCoefficients", "NotASaddleError",
    "NotStableRegimeError", "OriginClass", "Preset", "RegimeLabel", "State",
    "SweepAxis", "SweepResult", "SweepSpec", "SystemParams", "Trajectory",
    "TrajectoryLengthMismatchError", "TrajectoryStatus", "UnsupportedFormatError",
    "UnsupportedPresetError", "WorkerPoolError", "apply_symmetry",
    "branch_symmetry_deviation", "certificate", "classify_origin", "corollary_check",
    "eigenvalues_at", "emit", "find_equilibria", "from_preset", "hypotheses_check",
    "integrate", "integrate_to_equilibrium", "jacobian", "largest_lyapunov_exponent",
    "lyapunov_coefficients", "origin_eigenvalues", "pitchfork_locus",
    "pitchfork_locus_for_preset", "regime_classify", "run_sweep",
    "suggest_anticontrol", "sweep_csv", "to_jsonable", "trace_heteroclinic",
    "trajectory_csv", "unstable_direction_at_origin", "v_dot", "v_dot_closed_form",
    "v_gradient", "v_value", "vector_field",
]


def test_all_is_the_public_list():
    assert lorenzlab.__all__ == PUBLIC
    assert dir(lorenzlab) == PUBLIC


@pytest.mark.parametrize("module, names", sorted(lorenzlab._EXPORTS.items()))
def test_each_name_is_the_object_its_module_defines(module, names):
    owner = importlib.import_module(f"lorenzlab.{module}")
    for name in names:
        value = getattr(lorenzlab, name)
        assert value is getattr(owner, name)
        assert value.__module__ == owner.__name__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lorenzlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)
    assert all(namespace[name] is getattr(lorenzlab, name) for name in PUBLIC)


@pytest.mark.parametrize("module", sorted(lorenzlab._EXPORTS))
def test_submodules_resolve_as_attributes(module):
    assert getattr(lorenzlab, module) is importlib.import_module(f"lorenzlab.{module}")


def test_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError) as info:
        lorenzlab.no_such_name
    assert str(info.value) == "module 'lorenzlab' has no attribute 'no_such_name'"
    assert not hasattr(lorenzlab, "_TASK_COLUMNS")
    with pytest.raises(ImportError):
        exec("from lorenzlab import no_such_name", {})
