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
    SystemParams,
    UnsupportedFormatError,
    hypotheses_check,
    integrate,
    sweep,
    to_jsonable,
    trajectory_csv,
)
from lorenzlab.cli import build_parser, main, _params

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


def _die(spec, p):
    os._exit(1)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see the patched task runner only when forked",
)
def test_sweep_worker_crash_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(sweep, "_run_tasks", _die)
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
    report = hypotheses_check(SystemParams(1.0, 3.0, 2.0))
    from lorenzlab import emit

    with pytest.raises(UnsupportedFormatError):
        emit(to_jsonable(report), "csv", None)


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
    # E+- overflows to x = y = +-inf, and the origin's spectrum has +-inf
    code, out, _ = run_cli(capsys, ["equilibria", "--a", "1", "--b", "1e200", "--c", "1e200"])
    assert code == 0
    doc = json.loads(out, parse_constant=_refuse)
    assert doc["origin"]["eigenvalues"] == [["inf", 0.0], ["inf", 0.0], ["-inf", 0.0]]
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
