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
from typing import TYPE_CHECKING

from .errors import LorenzLabError, UnsupportedFormatError
from .model import SWEEP_TASKS, Preset, State, SystemParams, from_preset
from .serialize import FORMATS, emit, to_jsonable

if TYPE_CHECKING:
    from .integrator import IntegratorSettings
    from .sweep import SweepAxis


def _add_system_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("system")
    group.add_argument("--preset", choices=[p.value for p in Preset], default=None)
    group.add_argument("--a", type=float, required=True)
    group.add_argument("--b", type=float, required=True)
    group.add_argument("--c", type=float, required=True)
    group.add_argument("--M", type=float, default=None, help="feedback gain on x")
    group.add_argument("--N", type=float, default=None, help="feedback gain on y")
    group.add_argument("--P", type=float, default=None, help="feedback gain on x*z")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("output")
    group.add_argument("--format", choices=FORMATS, default="json")
    group.add_argument("--out", default=None, help="output path (default stdout)")


def _add_integrator_flags(parser: argparse.ArgumentParser, t_max: bool) -> None:
    group = parser.add_argument_group("integrator")
    group.add_argument(
        "--mode", choices=["adaptive", "fixed_rk4"], default="adaptive"
    )
    group.add_argument("--dt", type=float, default=1e-3, help="initial/fixed step")
    group.add_argument("--rel-tol", type=float, default=1e-9)
    group.add_argument("--abs-tol", type=float, default=1e-12)
    if t_max:
        group.add_argument("--t-max", type=float, default=200.0)
    group.add_argument("--max-steps", type=int, default=1_000_000)
    group.add_argument("--blowup-norm", type=float, default=1e6)


def _add_lle_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--renorm-interval", type=float, default=1.0)
    parser.add_argument("--horizon", type=float, default=500.0)
    parser.add_argument("--transient", type=float, default=50.0)


def _params(args: argparse.Namespace) -> SystemParams:
    if args.preset is not None:
        p = from_preset(Preset(args.preset), args.a, args.b, args.c)
        overrides = {
            name: getattr(args, name)
            for name in ("M", "N", "P")
            if getattr(args, name) is not None
        }
        return replace(p, **overrides) if overrides else p
    return SystemParams(
        a=args.a,
        b=args.b,
        c=args.c,
        M=args.M if args.M is not None else 0.0,
        N=args.N if args.N is not None else 0.0,
        P=args.P if args.P is not None else 0.0,
    )


def _settings(args: argparse.Namespace) -> IntegratorSettings:
    from .integrator import IntegratorMode, IntegratorSettings

    # only simulate and heteroclinic end at t_max and take --t-max
    return IntegratorSettings(
        mode=IntegratorMode(args.mode),
        dt_init=args.dt,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        t_max=getattr(args, "t_max", IntegratorSettings.t_max),
        max_steps=args.max_steps,
        blowup_norm=args.blowup_norm,
    )


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
        "final_state": trajectory.states[-1],
    }


def _cmd_heteroclinic(args) -> tuple:
    from .orbits import Branch, branch_symmetry_deviation, trace_heteroclinic

    p = _params(args)
    settings = _settings(args)
    kwargs = dict(
        epsilon=args.epsilon, settings=settings, capture_radius=args.capture_radius
    )
    if args.branch == "both":
        plus = trace_heteroclinic(p, Branch.PLUS_X, **kwargs)
        minus = trace_heteroclinic(p, Branch.MINUS_X, **kwargs)
        deviation = None
        if len(plus.trajectory.states) == len(minus.trajectory.states):
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
    from .chaos import largest_lyapunov_exponent

    estimate = largest_lyapunov_exponent(
        _params(args),
        u0=State(args.x0, args.y0, args.z0),
        settings=_settings(args),
        renorm_interval=args.renorm_interval,
        horizon=args.horizon,
        transient=args.transient,
    )
    return estimate, ()


def _cmd_regime(args) -> tuple:
    from .chaos import regime_classify

    return {"regime": regime_classify(_params(args))}, ()


def _cmd_suggest(args) -> tuple:
    from .chaos import largest_lyapunov_exponent, suggest_anticontrol

    suggestion = suggest_anticontrol(args.a, args.b, args.c, args.margin)
    payload = to_jsonable(suggestion)
    if args.verify_lle:
        estimate = largest_lyapunov_exponent(
            suggestion.params,
            settings=_settings(args),
            renorm_interval=args.renorm_interval,
            horizon=args.horizon,
            transient=args.transient,
        )
        payload["lle"] = estimate.lambda1
    return payload, ()


def _parse_axis(text: str) -> SweepAxis:
    from .sweep import SweepAxis

    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"--axis expects NAME:START:STOP:COUNT, got {text!r}")
    name, start, stop, count = parts
    return SweepAxis(name, float(start), float(stop), int(count))


def _cmd_sweep(args) -> tuple:
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
        lle_renorm_interval=args.renorm_interval,
        lle_horizon=args.horizon,
        lle_transient=args.transient,
    )
    return run_sweep(spec, workers=args.workers), ()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorenzlab",
        description="Equilibria, convergence certificates and chaos "
        "diagnostics for the feedback-controlled Lorenz family.",
        epilog="Output is plain JSON/CSV text; no color is ever emitted.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("equilibria", help="enumerate the equilibrium set")
    _add_system_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_equilibria)

    sp = sub.add_parser("classify", help="linear type of the origin")
    _add_system_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("certificate", help="convergence certificate flags")
    _add_system_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_certificate)

    sp = sub.add_parser("simulate", help="integrate one trajectory")
    _add_system_flags(sp)
    _add_output_flags(sp)
    _add_integrator_flags(sp, t_max=True)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--y0", type=float, required=True)
    sp.add_argument("--z0", type=float, required=True)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser(
        "heteroclinic", help="trace the origin's unstable manifold branches"
    )
    _add_system_flags(sp)
    _add_output_flags(sp)
    _add_integrator_flags(sp, t_max=True)
    sp.add_argument("--branch", choices=["plus", "minus", "both"], default="both")
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--capture-radius", type=float, default=1e-6)
    sp.set_defaults(func=_cmd_heteroclinic)

    sp = sub.add_parser("lle", help="largest Lyapunov exponent")
    _add_system_flags(sp)
    _add_output_flags(sp)
    _add_integrator_flags(sp, t_max=False)
    _add_lle_flags(sp)
    sp.add_argument("--x0", type=float, default=1.0)
    sp.add_argument("--y0", type=float, default=1.0)
    sp.add_argument("--z0", type=float, default=1.0)
    sp.set_defaults(func=_cmd_lle)

    sp = sub.add_parser("regime", help="provably regular / chaos candidate")
    _add_system_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_regime)

    sp = sub.add_parser(
        "suggest-anticontrol", help="feedback gains that cross the pitchfork"
    )
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--margin", type=float, required=True)
    sp.add_argument(
        "--verify-lle",
        action="store_true",
        help="also run the exponent on the suggested parameters",
    )
    _add_output_flags(sp)
    _add_integrator_flags(sp, t_max=False)
    _add_lle_flags(sp)
    sp.set_defaults(func=_cmd_suggest)

    sp = sub.add_parser("sweep", help="grid sweep over one or two parameters")
    _add_system_flags(sp)
    _add_output_flags(sp)
    _add_integrator_flags(sp, t_max=False)
    _add_lle_flags(sp)
    sp.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME:START:STOP:COUNT",
        help="sweep axis; repeat for a two-axis grid",
    )
    sp.add_argument("--tasks", default="equilibria", help=f"comma list from {SWEEP_TASKS}")
    sp.add_argument("--workers", type=int, default=None)
    sp.set_defaults(func=_cmd_sweep)

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
