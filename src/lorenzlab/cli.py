"""Command-line workbench around the library.

Exit codes: 0 success, 2 usage error, 3 numerical or domain failure
(divergence, step limit, degenerate parameters and the like), 4 I/O
failure.  Output is plain text (JSON or CSV) with no terminal styling,
so NO_COLOR environments get exactly the same bytes as everyone else.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING

from .errors import LorenzLabError, UnsupportedFormatError
from .model import SWEEP_TASKS, Preset, State, SystemParams, from_preset
from .serialize import FORMATS, emit, to_jsonable

if TYPE_CHECKING:
    from .integrator import IntegratorSettings
    from .sweep import SweepAxis

# The default of each flag whose value the library owns: a flag left out is
# absent from args, so a command passes on only what was set.
_UNSET = argparse.SUPPRESS


def _add_system_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("system")
    group.add_argument("--preset", choices=[p.value for p in Preset], default=None)
    group.add_argument("--a", type=float, required=True)
    group.add_argument("--b", type=float, required=True)
    group.add_argument("--c", type=float, required=True)
    group.add_argument("--M", type=float, default=_UNSET, help="feedback gain on x")
    group.add_argument("--N", type=float, default=_UNSET, help="feedback gain on y")
    group.add_argument("--P", type=float, default=_UNSET, help="feedback gain on x*z")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("output")
    group.add_argument("--format", choices=FORMATS, default="json")
    group.add_argument("--out", default=None, help="output path (default stdout)")


def _add_integrator_flags(parser: argparse.ArgumentParser, t_max: bool = False) -> None:
    group = parser.add_argument_group("integrator")
    group.add_argument("--mode", choices=["adaptive", "fixed_rk4"], default=_UNSET)
    group.add_argument("--dt", type=float, default=_UNSET, help="initial/fixed step")
    group.add_argument("--rel-tol", type=float, default=_UNSET)
    group.add_argument("--abs-tol", type=float, default=_UNSET)
    if t_max:
        group.add_argument("--t-max", type=float, default=_UNSET)
    group.add_argument("--max-steps", type=int, default=_UNSET)
    group.add_argument("--blowup-norm", type=float, default=_UNSET)


def _add_lle_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--renorm-interval", type=float, default=_UNSET)
    parser.add_argument("--horizon", type=float, default=_UNSET)
    parser.add_argument("--transient", type=float, default=_UNSET)


def _add_start_flags(parser: argparse.ArgumentParser, required: bool = False) -> None:
    default = None if required else _UNSET
    for name in ("--x0", "--y0", "--z0"):
        parser.add_argument(name, type=float, required=required, default=default)


def _add_branch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--branch", choices=["plus", "minus", "both"], default="both")
    parser.add_argument("--epsilon", type=float, default=_UNSET)
    parser.add_argument("--capture-radius", type=float, default=_UNSET)


def _add_anticontrol_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=float, required=True)
    parser.add_argument("--b", type=float, required=True)
    parser.add_argument("--c", type=float, required=True)
    parser.add_argument("--margin", type=float, required=True)
    parser.add_argument(
        "--verify-lle",
        action="store_true",
        help="also run the exponent on the suggested parameters",
    )


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME:START:STOP:COUNT",
        help="sweep axis; repeat for a two-axis grid",
    )
    parser.add_argument("--tasks", default="equilibria", help=f"comma list from {SWEEP_TASKS}")
    parser.add_argument("--workers", type=int, default=_UNSET)


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The flags among ``names`` that the command line set, by name."""
    return {name: getattr(args, name) for name in names if name in args}


def _params(args: argparse.Namespace) -> SystemParams:
    gains = _given(args, "M", "N", "P")
    if args.preset is None:
        return SystemParams(args.a, args.b, args.c, **gains)
    return replace(from_preset(Preset(args.preset), args.a, args.b, args.c), **gains)


def _settings(args: argparse.Namespace) -> IntegratorSettings:
    from .integrator import IntegratorMode, IntegratorSettings

    kwargs = _given(args, "rel_tol", "abs_tol", "t_max", "max_steps", "blowup_norm")
    if "mode" in args:
        kwargs["mode"] = IntegratorMode(args.mode)
    if "dt" in args:
        kwargs["dt_init"] = args.dt
    return IntegratorSettings(**kwargs)


# Each _cmd_* returns (payload, runs): what main emits, and the
# trajectories whose status decides exit 3.  Each imports the computations
# it runs, so a one-shot command loads only the modules it needs (see
# README.md, "Cold start").


def _cmd_equilibria(args) -> tuple:
    from .equilibria import find_equilibria

    return find_equilibria(_params(args)), ()


def _cmd_classify(args) -> tuple:
    from .equilibria import classify_origin, origin_eigenvalues

    p = _params(args)
    payload = {
        "origin_class": classify_origin(p),
        "eigenvalues": list(origin_eigenvalues(p)),
    }
    return payload, ()


def _cmd_certificate(args) -> tuple:
    from .lyapunov import certificate

    return certificate(_params(args)), ()


def _cmd_simulate(args) -> tuple:
    from .integrator import integrate

    trajectory = integrate(
        _params(args), State(args.x0, args.y0, args.z0), _settings(args)
    )
    return trajectory, (trajectory,)


def _het_summary(result) -> dict:
    trajectory = result.trajectory
    return {
        "branch": result.branch,
        "epsilon": result.epsilon,
        "success": result.success,
        "certified": result.certified,
        "extremal_x": result.extremal_x,
        "terminal": result.terminal,
        "status": trajectory.status,
        "steps": len(trajectory.times) - 1,
        "final_time": trajectory.times[-1],
        "final_state": State(trajectory.xs[-1], trajectory.ys[-1], trajectory.zs[-1]),
    }


def _cmd_heteroclinic(args) -> tuple:
    from .orbits import Branch, branch_symmetry_deviation, trace_heteroclinic

    p = _params(args)
    kwargs = dict(settings=_settings(args), **_given(args, "epsilon", "capture_radius"))
    if args.branch == "both":
        plus = trace_heteroclinic(p, Branch.PLUS_X, **kwargs)
        minus = trace_heteroclinic(p, Branch.MINUS_X, **kwargs)
        deviation = None
        if len(plus.trajectory.times) == len(minus.trajectory.times):
            deviation = branch_symmetry_deviation(plus, minus)
        payload = {
            "plus": _het_summary(plus),
            "minus": _het_summary(minus),
            "symmetry_deviation": deviation,
        }
        return payload, (plus.trajectory, minus.trajectory)
    branch = Branch.PLUS_X if args.branch == "plus" else Branch.MINUS_X
    result = trace_heteroclinic(p, branch, **kwargs)
    payload = result.trajectory if args.format == "csv" else _het_summary(result)
    return payload, (result.trajectory,)


def _cmd_lle(args) -> tuple:
    from .chaos import _LLE_START, _LLE_WINDOW, largest_lyapunov_exponent

    u0 = State(*(getattr(args, n, v) for n, v in zip(("x0", "y0", "z0"), _LLE_START)))
    estimate = largest_lyapunov_exponent(
        _params(args), u0=u0, settings=_settings(args), **_given(args, *_LLE_WINDOW)
    )
    return estimate, ()


def _cmd_regime(args) -> tuple:
    from .chaos import regime_classify

    return {"regime": regime_classify(_params(args))}, ()


def _cmd_suggest(args) -> tuple:
    from .chaos import _LLE_WINDOW, largest_lyapunov_exponent, suggest_anticontrol

    suggestion = suggest_anticontrol(args.a, args.b, args.c, args.margin)
    payload = to_jsonable(suggestion)
    if args.verify_lle:
        estimate = largest_lyapunov_exponent(
            suggestion.params, settings=_settings(args), **_given(args, *_LLE_WINDOW)
        )
        payload["lle"] = estimate.lambda1
    return payload, ()


def _parse_axis(text: str) -> SweepAxis:
    from .sweep import SweepAxis

    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"--axis expects NAME:START:STOP:COUNT, got {text!r}")
    name, start, stop, count = parts
    try:
        count = int(count)
    except ValueError:
        pass  # SweepAxis refuses the text and names the axis count
    # start and stop go as text: SweepAxis coerces them and names a bad one
    return SweepAxis(name, start, stop, count)


def _cmd_sweep(args) -> tuple:
    from .chaos import _LLE_WINDOW
    from .sweep import SweepSpec, run_sweep

    if not args.axis:
        raise ValueError("at least one --axis is required")
    if len(args.axis) > 2:
        raise ValueError("at most two --axis options are allowed")
    axes = tuple(_parse_axis(text) for text in args.axis)
    tasks = tuple(t.strip() for t in args.tasks.split(",") if t.strip())
    spec = SweepSpec(
        base=_params(args),
        axes=axes,
        tasks=tasks,
        settings=_settings(args),
        **{f"lle_{name}": value for name, value in _given(args, *_LLE_WINDOW).items()},
    )
    return run_sweep(spec, **_given(args, "workers")), ()


# One row per subcommand: its name, its help text, the adders of its flags
# in the order --help lists them, and the _cmd_* that runs it.
_COMMANDS = (
    ("equilibria", "enumerate the equilibrium set",
     (_add_system_flags, _add_output_flags), _cmd_equilibria),
    ("classify", "linear type of the origin",
     (_add_system_flags, _add_output_flags), _cmd_classify),
    ("certificate", "convergence certificate flags",
     (_add_system_flags, _add_output_flags), _cmd_certificate),
    ("simulate", "integrate one trajectory",
     (_add_system_flags, _add_output_flags, partial(_add_integrator_flags, t_max=True),
      partial(_add_start_flags, required=True)), _cmd_simulate),
    ("heteroclinic", "trace the origin's unstable manifold branches",
     (_add_system_flags, _add_output_flags, partial(_add_integrator_flags, t_max=True),
      _add_branch_flags), _cmd_heteroclinic),
    ("lle", "largest Lyapunov exponent",
     (_add_system_flags, _add_output_flags, _add_integrator_flags, _add_lle_flags,
      _add_start_flags), _cmd_lle),
    ("regime", "provably regular / chaos candidate",
     (_add_system_flags, _add_output_flags), _cmd_regime),
    ("suggest-anticontrol", "feedback gains that cross the pitchfork",
     (_add_anticontrol_flags, _add_output_flags, _add_integrator_flags, _add_lle_flags),
     _cmd_suggest),
    ("sweep", "grid sweep over one or two parameters",
     (_add_system_flags, _add_output_flags, _add_integrator_flags, _add_lle_flags,
      _add_grid_flags), _cmd_sweep),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorenzlab",
        description="Equilibria, convergence certificates and chaos "
        "diagnostics for the feedback-controlled Lorenz family.",
        epilog="Output is plain JSON/CSV text; no color is ever emitted.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, adders, command in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for add in adders:
            add(sp)
        sp.set_defaults(func=command)
    return parser


def _csv_subject(args: argparse.Namespace) -> str | None:
    """The command line's name when its result has no table, else None.

    Only trajectories (simulate, one heteroclinic branch) and sweeps have
    a CSV layout.
    """
    if args.command == "heteroclinic":
        return "heteroclinic --branch both" if args.branch == "both" else None
    return None if args.command in ("simulate", "sweep") else args.command


def _exit_code(runs) -> int:
    """3 if a run stopped diverged or at the step limit, else 0.

    Only the commands that integrate have runs, so no other command loads
    the integrator here.
    """
    if not runs:
        return 0
    from .integrator import TrajectoryStatus

    failed = (TrajectoryStatus.DIVERGED, TrajectoryStatus.STEP_LIMIT)
    return 3 if any(run.status in failed for run in runs) else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # reject before computing: an LLE takes seconds
        subject = _csv_subject(args) if args.format == "csv" else None
        if subject is not None:
            raise UnsupportedFormatError(f"csv is not defined for {subject}; use json")
        payload, runs = args.func(args)
        emit(payload, args.format, args.out)
        return _exit_code(runs)
    except (ValueError, UnsupportedFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LorenzLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
