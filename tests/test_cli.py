import dataclasses
import hashlib
import inspect
import json
import math
import multiprocessing
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from lorenzlab import (
    IntegratorSettings,
    State,
    SweepSpec,
    SystemParams,
    UnsupportedFormatError,
    certificate,
    integrate,
    largest_lyapunov_exponent,
    sweep,
    to_jsonable,
    trace_heteroclinic,
    trajectory_csv,
)
from lorenzlab.chaos import _LLE_START, _LLE_WINDOW
from lorenzlab.cli import build_parser, main, _given, _params, _settings

CLASSIC = ["--a", "10", "--b", "2.6666666666666665", "--c", "28"]
REGULAR = ["--a", "1", "--b", "3", "--c", "2"]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_json(capsys):
    code, out, err = run_cli(capsys, ["classify", *CLASSIC])
    assert code == 0
    doc = json.loads(out)
    assert doc["origin_class"] == "saddle_ws2_wu1"
    assert len(doc["eigenvalues"]) == 3
    # complex numbers serialize as [re, im] pairs
    for re, im in doc["eigenvalues"]:
        assert isinstance(re, float) and isinstance(im, float)


def test_equilibria_json_regular(capsys):
    code, out, _ = run_cli(capsys, ["equilibria", *REGULAR])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "triple"
    ep = doc["pair"][0]
    assert ep["location"]["x"] == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert doc["origin"]["location"] == {"x": 0.0, "y": 0.0, "z": 0.0}


@pytest.mark.parametrize(
    "argv",
    [
        REGULAR,
        CLASSIC,
        ["--a", "10", "--b", "2.6666666666666665", "--c", "0.5"],
        ["--preset", "chen", "--a", "35", "--b", "3", "--c", "28"],
        ["--a", "1", "--b", "3", "--c", "-10"],  # a complex pair
        ["--a", "10", "--b", "2.6666666666666665", "--c", "1"],  # d = 0
        # a d overflows; the roots do not
        ["--a", "10", "--b", "2.6666666666666665", "--c=-1e308"],
    ],
    ids=["regular", "classic", "plant", "chen", "complex-pair", "pitchfork",
         "overflowing-ad"],
)
def test_classify_and_equilibria_report_one_origin_spectrum(capsys, argv):
    # the same multiset, bit for bit, whatever order each command prints
    spectra = []
    for command in ("classify", "equilibria"):
        code, out, _ = run_cli(capsys, [command, *argv])
        assert code == 0
        doc = json.loads(out)
        eigs = doc["eigenvalues"] if command == "classify" else doc["origin"]["eigenvalues"]
        spectra.append(sorted((repr(re), repr(im)) for re, im in eigs))
    assert spectra[0] == spectra[1]


def test_classify_decides_a_cell_whose_a_d_overflows(capsys):
    # -a d = 1e309 overflows, yet the roots -5.5 +- 3.16e154 i and -b are
    # finite: the class is printed with its spectrum, not exit 2
    code, out, _ = run_cli(
        capsys, ["classify", "--a", "10", "--b", "2.6666666666666665", "--c=-1e308"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["origin_class"] == "attractor"
    assert doc["eigenvalues"] == [
        [-5.5, -3.162277660168379e154],
        [-5.5, 3.162277660168379e154],
        [-2.6666666666666665, 0.0],
    ]


def test_preset_flag_with_override(capsys):
    code, out, _ = run_cli(
        capsys,
        ["certificate", "--preset", "chen", "--a", "35", "--b", "3", "--c", "28"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["flags"]["lemma_ok"] is False
    assert doc["chaos_possible"] is True


def test_params_helper_preset_override_precedence():
    parser = build_parser()
    args = parser.parse_args(
        ["certificate", "--preset", "chen", "--a", "35", "--b", "3", "--c", "28",
         "--M", "0"]
    )
    p = _params(args)
    # explicit gain wins over the preset's derived value
    assert p.M == 0.0
    assert p.N == 29.0


def test_simulate_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", *REGULAR, "--x0", "1", "--y0", "1", "--z0", "1",
         "--t-max", "1.0", "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) > 2
    first = lines[1].split(",")
    assert [float(v) for v in first] == [0.0, 1.0, 1.0, 1.0]


def test_simulate_divergence_exit_code(capsys):
    code, out, err = run_cli(
        capsys,
        ["simulate", *CLASSIC, "--P", "2", "--x0", "1", "--y0", "1", "--z0", "1",
         "--t-max", "10"],
    )
    # the data still goes out so the failure can be inspected
    assert code == 3
    assert json.loads(out)["status"] == "diverged"


def test_simulate_overflow_is_divergence(capsys):
    # the first trial step squares an error component beyond the float range
    code, out, err = run_cli(
        capsys,
        ["simulate", "--a", "10", "--b", "2.66", "--c", "28", "--x0", "1",
         "--y0", "1", "--z0", "1", "--dt", "1e5", "--t-max", "1e6"],
    )
    assert code == 3
    assert json.loads(out)["status"] == "diverged"
    assert err == ""


def test_heteroclinic_both_reports_zero_deviation(capsys):
    code, out, _ = run_cli(
        capsys,
        ["heteroclinic", *REGULAR, "--mode", "fixed_rk4", "--dt", "1e-3",
         "--t-max", "60"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["plus"]["success"] is True
    assert doc["minus"]["success"] is True
    assert doc["symmetry_deviation"] == 0.0


def test_heteroclinic_not_a_saddle_exit_code(capsys):
    code, _, err = run_cli(
        capsys, ["heteroclinic", "--a", "10", "--b", "3", "--c", "0.5"]
    )
    assert code == 3
    assert "NotASaddle" in err


def test_lle_rejects_csv(capsys):
    code, _, err = run_cli(
        capsys,
        ["lle", *REGULAR, "--format", "csv", "--horizon", "10",
         "--transient", "1"],
    )
    assert code == 2
    assert "csv" in err or "format" in err


@pytest.mark.parametrize(
    "subject, argv, computation",
    [
        ("lle", CLASSIC, "chaos.largest_lyapunov_exponent"),
        ("suggest-anticontrol",
         ["--a", "10", "--b", "3", "--c", "0.5", "--margin", "2", "--verify-lle"],
         "chaos.suggest_anticontrol"),
        ("heteroclinic --branch both", REGULAR, "orbits.trace_heteroclinic"),
        ("classify", REGULAR, "equilibria.classify_origin"),
        ("regime", REGULAR, "chaos.regime_classify"),
        ("certificate", REGULAR, "lyapunov.certificate"),
        ("equilibria", REGULAR, "equilibria.find_equilibria"),
    ],
    ids=["lle", "suggest", "heteroclinic", "classify", "regime", "certificate",
         "equilibria"],
)
def test_csv_is_rejected_before_computing(capsys, monkeypatch, subject, argv, computation):
    """A result with no table is refused before any work is done.

    The computation is patched in the module that defines it, so a call
    through any path counts.
    """

    def fail(*args, **kwargs):
        raise AssertionError(f"{computation} ran before csv was rejected")

    monkeypatch.setattr(f"lorenzlab.{computation}", fail)
    command = subject.split()[0]
    code, out, err = run_cli(capsys, [command, *argv, "--format", "csv"])
    assert code == 2
    assert out == ""
    assert err == f"error: csv is not defined for {subject}; use json\n"


def test_regime_output(capsys):
    code, out, _ = run_cli(capsys, ["regime", *REGULAR])
    assert code == 0
    assert json.loads(out)["regime"] == "provably_regular"


def test_suggest_anticontrol_output(capsys):
    code, out, _ = run_cli(
        capsys,
        ["suggest-anticontrol", "--a", "10", "--b", "2.6666666666666665",
         "--c", "0.5", "--margin", "28"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["M"] == 28.5
    assert doc["chaos_possible"] is True
    assert doc["origin_class"] == "saddle_ws2_wu1"


def test_suggest_rejects_stable_violation(capsys):
    code, _, err = run_cli(
        capsys,
        ["suggest-anticontrol", "--a", "10", "--b", "3", "--c", "1.5",
         "--margin", "1"],
    )
    assert code == 3
    assert "NotStableRegime" in err


def test_sweep_csv_output(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", *CLASSIC, "--axis", "c:0.5:1.5:5",
         "--tasks", "origin_class", "--workers", "1", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c,origin_class,error"
    assert len(lines) == 6
    assert lines[1].startswith("0.5,attractor,")


def test_sweep_axis_whose_step_overflows_writes_every_row(capsys):
    # c - (-c) overflows: the middle cell is c = 0.0, not an error row for
    # c = inf, and the band of q = a d at c = -1e308, which overflows, is
    # decided on a scaled copy
    code, out, _ = run_cli(
        capsys,
        ["sweep", *CLASSIC, "--axis", "c:-1e308:1e308:3",
         "--tasks", "origin_class", "--workers", "1", "--format", "csv"],
    )
    assert code == 0
    assert out.splitlines() == [
        "c,origin_class,error",
        "-1e+308,attractor,",
        "0.0,attractor,",
        "1e+308,saddle_ws2_wu1,",
    ]


def test_sweep_usage_errors(capsys):
    code, _, err = run_cli(capsys, ["sweep", *CLASSIC])
    assert code == 2
    code, _, err = run_cli(
        capsys, ["sweep", *CLASSIC, "--axis", "nope"]
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, ["sweep", *CLASSIC, "--axis", "q:0:1:5"]
    )
    assert code == 2


def _die(spec, base, values):
    os._exit(1)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see the patched row only when forked",
)
def test_sweep_worker_crash_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(sweep, "_row", lambda tasks, names: _die)
    code, out, err = run_cli(
        capsys,
        ["sweep", *CLASSIC, "--axis", "c:0.5:1.5:5", "--tasks", "regime",
         "--workers", "2"],
    )
    assert code == 3
    assert out == ""
    assert err == (
        "error: WorkerPoolError: a worker process died during the sweep over "
        "c:0.5:1.5:5 (tasks regime)\n"
    )


def test_unwritable_output_path_exit_code(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.json"
    code, _, err = run_cli(
        capsys, ["classify", *CLASSIC, "--out", str(target)]
    )
    assert code == 4


def test_out_file_roundtrip(capsys, tmp_path):
    target = tmp_path / "eq.json"
    code, _, _ = run_cli(
        capsys, ["equilibria", *REGULAR, "--out", str(target)]
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["kind"] == "triple"


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--a", "10", "--b", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", *CLASSIC, "--tol", "1e-3"],
        ["certificate", "--a", "-0.5", "--b", "3", "--c", "2", "--N", "-1",
         "--tol", "-0.5"],
        ["regime", *CLASSIC, "--tol", "1e-3"],
        ["equilibria", *REGULAR, "--residual-tol", "1e-3"],
        ["lle", *CLASSIC, "--t-max", "5"],
        ["sweep", *CLASSIC, "--axis", "c:0.5:1.5:3", "--t-max", "5"],
    ],
    ids=["classify", "certificate", "regime", "equilibria", "lle", "sweep"],
)
def test_band_and_t_max_flags_are_refused(capsys, argv):
    # the bands are fixed, and only simulate and heteroclinic end at t_max
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_no_ansi_styling_in_output(capsys):
    for argv in (
        ["classify", *CLASSIC],
        ["certificate", *REGULAR],
        ["regime", *CLASSIC],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 0
        assert "\x1b" not in out and "\x1b" not in err


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "lorenzlab.cli", "classify", *REGULAR],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["origin_class"] == "saddle_ws2_wu1"


# ------------------------------------------------------- serialization


def test_unsupported_format_raises():
    report = certificate(SystemParams(1.0, 3.0, 2.0)).flags
    from lorenzlab import emit

    with pytest.raises(UnsupportedFormatError):
        emit(to_jsonable(report), "csv", None)
    with pytest.raises(UnsupportedFormatError, match="unknown format 'xml'"):
        emit(to_jsonable(report), "xml", None)
    with pytest.raises(TypeError, match="cannot serialize object"):
        to_jsonable(object())


def test_trajectory_csv_full_precision():
    tr = integrate(
        SystemParams(1.0, 3.0, 2.0),
        State(1.0, 1.0, 1.0),
        IntegratorSettings(t_max=0.5),
    )
    lines = trajectory_csv(tr).splitlines()
    t_back = [float(line.split(",")[0]) for line in lines[1:]]
    x_back = [float(line.split(",")[1]) for line in lines[1:]]
    assert tuple(t_back) == tr.times
    assert tuple(x_back) == tuple(s.x for s in tr.states)


float_vals = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(a=float_vals, b=float_vals, c=float_vals)
def test_params_json_roundtrip_in_full_precision(a, b, c):
    p = SystemParams(a=a, b=b, c=c, M=1.0 / 3.0, N=-1e-300, P=0.1)
    text = json.dumps(to_jsonable(p))
    back = SystemParams(**json.loads(text))
    assert back == p


def _refuse(token):
    raise ValueError(f"{token} is not JSON")


def test_non_finite_floats_are_strict_json(capsys):
    # E+- overflows to x = y = +-inf and NaN eigenvalues; the origin's
    # factored spectrum stays finite
    code, out, _ = run_cli(capsys, ["equilibria", "--a", "1", "--b", "1e200", "--c", "1e200"])
    assert code == 0
    doc = json.loads(out, parse_constant=_refuse)
    assert doc["origin"]["eigenvalues"] == [[1e100, 0.0], [-1e100, 0.0], [-1e200, 0.0]]
    assert doc["pair"][0]["location"] == {"x": "inf", "y": "inf", "z": 1e200}
    assert doc["pair"][1]["location"] == {"x": "-inf", "y": "-inf", "z": 1e200}
    assert all(math.isnan(float(v)) for v in doc["pair"][0]["eigenvalues"][0])


def test_non_finite_floats_render_as_their_repr():
    values = [math.inf, -math.inf, math.nan]
    assert to_jsonable(values) == ["inf", "-inf", "nan"]
    assert to_jsonable(complex(math.inf, 0.0)) == ["inf", 0.0]
    assert to_jsonable(State(math.nan, 1.0, -math.inf)) == {"x": "nan", "y": 1.0, "z": "-inf"}
    assert [repr(float(v)) for v in to_jsonable(values)] == ["inf", "-inf", "nan"]


def test_sweep_tasks_help_lists_the_sweep_tasks():
    sweep_parser = build_parser()._subparsers._group_actions[0].choices["sweep"]
    (action,) = [a for a in sweep_parser._actions if a.dest == "tasks"]
    assert action.help == f"comma list from {sweep.TASKS}"
    assert tuple(sweep._TASK_COLUMNS) == sweep.TASKS


# every flag whose value the library owns, by dest
_LIBRARY_FLAGS = {
    "M", "N", "P", "mode", "dt", "rel_tol", "abs_tol", "t_max", "max_steps",
    "blowup_norm", "renorm_interval", "horizon", "transient", "x0", "y0", "z0",
    "epsilon", "capture_radius", "workers",
}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["equilibria", *REGULAR], id="equilibria"),
        pytest.param(["classify", *REGULAR], id="classify"),
        pytest.param(["certificate", *REGULAR], id="certificate"),
        pytest.param(["simulate", *REGULAR, "--x0", "1", "--y0", "1", "--z0", "1"],
                     id="simulate"),
        pytest.param(["heteroclinic", *REGULAR], id="heteroclinic"),
        pytest.param(["lle", *REGULAR], id="lle"),
        pytest.param(["lle", *REGULAR, "--horizon", "20", "--z0", "2", "--M", "0"],
                     id="lle-some-set"),
        pytest.param(["regime", *REGULAR], id="regime"),
        pytest.param(["suggest-anticontrol", *REGULAR, "--margin", "1"],
                     id="suggest-anticontrol"),
        pytest.param(["sweep", *REGULAR, "--axis", "c:0:1:2"], id="sweep"),
        pytest.param(["sweep", *REGULAR, "--axis", "c:0:1:2", "--workers", "1"],
                     id="sweep-workers-set"),
    ],
)
def test_a_flag_left_out_leaves_no_attribute(argv):
    """A command passes on only the flags the command line set, so a value
    the library owns has one default, the library's."""
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    declared = {a.dest for sub in subparsers.values() for a in sub._actions}
    assert _LIBRARY_FLAGS <= declared
    given = {arg[2:].replace("-", "_") for arg in argv if arg.startswith("--")}
    args = parser.parse_args(argv)
    assert _LIBRARY_FLAGS & set(vars(args)) == _LIBRARY_FLAGS & given


# the shortest command line each command accepts
_BARE = {
    "simulate": ["simulate", *REGULAR, "--x0", "1", "--y0", "1", "--z0", "1"],
    "heteroclinic": ["heteroclinic", *REGULAR],
    "lle": ["lle", *REGULAR],
    "suggest-anticontrol": ["suggest-anticontrol", *REGULAR, "--margin", "1"],
    "sweep": ["sweep", *REGULAR, "--axis", "c:0:1:2"],
}


@pytest.mark.parametrize(
    "command", ["simulate", "heteroclinic", "lle", "suggest-anticontrol", "sweep"]
)
def test_integrator_flag_defaults_equal_the_settings_defaults(command):
    parser = build_parser()
    assert _settings(parser.parse_args(_BARE[command])) == IntegratorSettings()
    flags = ["--mode", "fixed_rk4", "--dt", "0.5", "--rel-tol", "1e-6",
             "--abs-tol", "1e-7", "--max-steps", "9", "--blowup-norm", "99"]
    if command in ("simulate", "heteroclinic"):
        flags += ["--t-max", "3"]
    settings = _settings(parser.parse_args([*_BARE[command], *flags]))
    assert (settings.mode.value, settings.dt_init, settings.rel_tol,
            settings.abs_tol, settings.max_steps, settings.blowup_norm) == (
        "fixed_rk4", 0.5, 1e-6, 1e-7, 9, 99.0)
    if command in ("simulate", "heteroclinic"):
        assert settings.t_max == 3.0


@pytest.mark.parametrize("command", ["lle", "suggest-anticontrol", "sweep"])
def test_lle_flag_defaults_equal_the_library_defaults(command):
    parser = build_parser()
    signature = inspect.signature(largest_lyapunov_exponent).parameters
    spec_fields = {f.name: f.default for f in dataclasses.fields(SweepSpec)}
    for dest in _LLE_WINDOW:
        assert signature[dest].default == spec_fields[f"lle_{dest}"]
    assert _given(parser.parse_args(_BARE[command]), *_LLE_WINDOW) == {}
    window = ["--renorm-interval", "2", "--horizon", "30", "--transient", "4"]
    args = parser.parse_args([*_BARE[command], *window])
    assert _given(args, *_LLE_WINDOW) == {
        "renorm_interval": 2.0, "horizon": 30.0, "transient": 4.0}
    if command == "lle":
        assert _LLE_START == signature["u0"].default
        assert _given(parser.parse_args(_BARE[command]), "x0", "y0", "z0") == {}


def test_heteroclinic_flag_defaults_equal_the_library_defaults():
    parser = build_parser()
    signature = inspect.signature(trace_heteroclinic).parameters
    names = ("epsilon", "capture_radius")
    assert all(name in signature for name in names)
    assert _given(parser.parse_args(_BARE["heteroclinic"]), *names) == {}
    args = parser.parse_args(
        [*_BARE["heteroclinic"], "--epsilon", "1e-5", "--capture-radius", "0.01"])
    assert _given(args, *names) == {"epsilon": 1e-5, "capture_radius": 0.01}


def test_lle_fills_an_unset_start_coordinate_from_the_library(capsys):
    code, out, _ = run_cli(
        capsys, ["lle", *CLASSIC, "--horizon", "8", "--transient", "2", "--z0", "2"]
    )
    assert code == 0
    p = SystemParams(10.0, 2.6666666666666665, 28.0)
    estimate = largest_lyapunov_exponent(p, (1.0, 1.0, 2.0), horizon=8.0, transient=2.0)
    assert json.loads(out)["lambda1"] == estimate.lambda1


def _declared_surface(parser) -> str:
    """sha256 of what ``parser`` declares, flag by flag in declaration
    order: group title, option strings, dest, required, default, type,
    choices, metavar and help.  A subcommand action's choices are its
    commands' names and help texts.  argparse's layout (usage wrapping,
    column widths) is left out, so the digest is the same on every
    supported Python."""
    titles = {
        id(action): group.title
        for group in parser._action_groups
        for action in group._group_actions
    }
    flags = []
    for action in parser._actions:
        choices = action.choices
        if isinstance(choices, dict):
            choices = [(a.dest, a.help) for a in action._choices_actions]
        flags.append((
            titles[id(action)], action.option_strings, action.dest,
            action.required, action.default, getattr(action.type, "__name__", None),
            choices, action.metavar, action.help,
        ))
    text = repr((parser.prog, parser.description, parser.epilog, flags))
    return hashlib.sha256(text.encode()).hexdigest()


# the digests of the parser the commands shipped with; a flag, group, help
# text or default that changes changes its command's digest
_SURFACE = {
    None: "ec1b9564757e4c3bd9489b51f5b513cc690b9b6b51ae512e4a71d118e6fe9920",
    "equilibria": "ce578b9f0630134f1449582b09abc2807e1d1e2160a27738b67e484263ccfd58",
    "classify": "4ab1a7a37be7a6eb1e9a7686cfb541426cf0b31b96542d231204e340958bed79",
    "certificate": "3b3d2a13c4205ee865fcc612d2111873d89a68653e1a3f7f283a67870cc8394c",
    "simulate": "cb59f865128230ed8d07b34e05ef0fb7a95730f8e88389d6df34680b7130ddee",
    "heteroclinic": "dd77f5fcebd1044ccd8adcb895b135fa4efc8b2f4ecb15d69966a018cca9da5f",
    "lle": "c28f1285eb08993474a24354bec386ba574718148eb30d81efd37c16c7cce9f5",
    "regime": "a5838095e5c604dc2aacbfaddf78bb1b1dd0dbcaf2e825367b4dd4dca317226c",
    "suggest-anticontrol": "056e7fbdf0abe9108cb31ba22defe97efb87462f13c4d144f94d0899831ab44d",
    "sweep": "495fd5ca944391fb835b59f60b264c76e22705473535da5dafa7a688f5dc5fca",
}


def test_the_declared_cli_surface_is_pinned():
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    assert list(subparsers) == list(_SURFACE)[1:]
    got = {None: _declared_surface(parser)}
    got.update((name, _declared_surface(sub)) for name, sub in subparsers.items())
    assert got == _SURFACE
