"""Golden bytes of the CLI: exit code, sha256 of stdout and exact stderr.

Every subcommand runs in every format it supports, at sizes small enough
for Tier-1, and every exit-2/3/4 path runs with its message.  Any change
to an output byte or an exit code fails here.  Refresh a digest only
when the output is meant to change, and record why.
"""

import hashlib

import pytest

from lorenzlab.cli import main

CLASSIC = ["--a", "10", "--b", "2.6666666666666665", "--c", "28"]
REGULAR = ["--a", "1", "--b", "3", "--c", "2"]
PLANT = ["--a", "10", "--b", "2.6666666666666665", "--c", "0.5"]
CHEN = ["--preset", "chen", "--a", "35", "--b", "3", "--c", "28"]
BLOWUP = [*CLASSIC, "--P", "2"]
FAST_FOCUS = ["--a", "10", "--b", "2.6666666666666665", "--c", "0", "--M=-1e13",
              "--N", "11.01", "--P", "2"]
START = ["--x0", "1", "--y0", "1", "--z0", "1"]
RK4 = ["--mode", "fixed_rk4", "--dt", "0.01"]
SHORT_LLE = ["--horizon", "20", "--transient", "5"]
PITCHFORK_TASKS = ["--tasks", "equilibria,origin_class,certificate,regime"]
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def case(name, argv, code, digest, err=""):
    return pytest.param(argv, code, digest, err, id=name)


CASES = [
    case("equilibria-regular", ["equilibria", *REGULAR], 0,
         "d3463e028483745467f0a7e3e50615626d42a98f7026eabf30e0ba899e4cdf07"),
    case("equilibria-classic", ["equilibria", *CLASSIC], 0,
         "b5a283f9199c833ce566f5ad55e740ce19135af8ff821ae17e626e7cda1c6696"),
    case("equilibria-origin-only", ["equilibria", *PLANT], 0,
         "913222f87cc833579d264a921c615e49d20118159322711cb4c05ac053343eb4"),
    # a = 0 and N = 1: the origin's quadratic is lambda^2, so its spectrum
    # is exactly (0, 0, -b), two centers and one stable direction, as b's
    # sign says; its cubic, which eigenvalues_at still solves rescaled, has
    # coefficients so small that the closed form's p * m underflows
    case("equilibria-tiny-b",
         ["equilibria", "--a", "0", "--b", "4.296093079516111e-151", "--c", "0",
          "--N", "1"], 0,
         "d0104367315ad9b564a7c276c1d39b9b6fac2767864bcf46984312e274fc0013"),
    # a fast focus: Re lambda = 0.005 at |lambda| = 1e7, far outside its
    # rounding, so the origin is 1/2/0 and, with E+- unstable, the regime a
    # chaos candidate
    case("equilibria-fast-focus", ["equilibria", *FAST_FOCUS], 0,
         "bb245c025ab323aa45f89540306cb416b333cf3197df7e396c2add8a267f4f15"),
    case("regime-fast-focus", ["regime", *FAST_FOCUS], 0,
         "a0c99a7743079770f653092a3997fdd369aa6ea09793c5690525be62f49b29ee"),
    # suggest-anticontrol's gain for margin 1e-10: the origin is 2/1/0, the
    # saddle that classify and suggest-anticontrol report, and E+- are
    # 3/0/0, since c2, c2 c1 - c0 and c0 = 2 a b d are all positive
    case("equilibria-margin-1e-10", ["equilibria", *PLANT, "--M", "0.5000000001"], 0,
         "c146b9d84ce6a3a36114954ab675b59a0c0587e8e938d618ecabb01189ced404"),
    # the plant pushed just past E+-'s Hopf point, Re lambda = +4.5e-10: by
    # the sign of c2 c1 - c0 E+- are 1/2/0, and the cell a chaos candidate;
    # just below it E+- are 3/0/0 and the regime undetermined
    case("equilibria-past-hopf", ["equilibria", *PLANT, "--M", "24.23684212"], 0,
         "5bb3ea34d8e87e4b621683337578470515729d8bdbdc4f2fbe4d772777c11a8f"),
    case("regime-past-hopf", ["regime", *PLANT, "--M", "24.23684212"], 0,
         "a0c99a7743079770f653092a3997fdd369aa6ea09793c5690525be62f49b29ee"),
    case("regime-below-hopf", ["regime", *PLANT, "--M", "24.23684209"], 0,
         "822eb08acc7ea9211d6b90f79afd3fd116083efdb84c8c4e98b85fa7ac0aa4e4"),
    # suggest-anticontrol's gain for margin 1e6: d = 1e6 exactly, so E+ has
    # z = 1000000.0, the exact equilibrium
    case("equilibria-anticontrol-1e6", ["equilibria", *PLANT, "--M", "1000000.5"], 0,
         "f3355f56ead36aaaa93488b538becdf792d9ac1645f09cffece195ead1b079c0"),
    case("classify-classic", ["classify", *CLASSIC], 0,
         "0c025961d939d4658ee1fb4052ff59fc18938022b1f9b88df59816bfc1857e1d"),
    case("classify-chen-override", ["classify", *CHEN, "--M", "0"], 0,
         "0a6095396ee5fedc02760dd1040d0d3b7d4d00fa683aed8e4cafdfaeb3be5e93"),
    # the origin's discriminant (a + 1 - N)^2 + 4 a d overflows at a = 1e200;
    # it is formed rescaled, and the spectrum is (0, -1e200, -1)
    case("classify-overflowing-quadratic",
         ["classify", "--a", "1e200", "--b", "1", "--c", "1"], 0,
         "e496e7697d5be3c21eb260b9a8a8e58353553678ea789b716bc52719a106a3cd"),
    case("equilibria-overflowing-quadratic",
         ["equilibria", "--a", "1e200", "--b", "1", "--c", "1"], 0,
         "d7838109f556700afe6a6dfa022d85f94946bbb13f7f25fd0835be53dd266543"),
    case("certificate-regular", ["certificate", *REGULAR], 0,
         "44b0ffdf7ff8b0163bc5f323c923996c2f0840db8d094869055d781eafb266fd"),
    case("certificate-chen", ["certificate", *CHEN], 0,
         "6936f44364eb8b2a6e4c36d91b01d593599634159d84eb5103ff7627997189ca"),
    case("certificate-a-zero", ["certificate", "--a", "0", "--b", "3", "--c", "2"], 0,
         "bd66f2a1710c042b4593a2b13f2e28359ae364a758a93ab7f79d790178c7c37f"),
    case("simulate-json", ["simulate", *CLASSIC, *START, "--t-max", "5"], 0,
         "7f2e1de1ae5807dd9cda13ab3e4e86f90fcd404835196f47e4e75af21dc67d7a"),
    case("simulate-csv",
         ["simulate", *CLASSIC, *START, "--t-max", "5", "--format", "csv"], 0,
         "9d9dbb52e73037edcc26c2c091acc6b6fda3a1596a5bfe79a6e319094a1a5224"),
    case("simulate-rk4-csv",
         ["simulate", *CLASSIC, *START, *RK4, "--t-max", "5", "--format", "csv"], 0,
         "e9b96f0e8f8dc7dd68d556f887723281ce1c5701e170f5ac6229ea91a7a945d3"),
    case("heteroclinic-both", ["heteroclinic", *REGULAR, "--t-max", "60"], 0,
         "892df978f73bf105512ad1abca5effc8d096e249f686b80d6e6dbc80aa88cad4"),
    case("heteroclinic-both-rk4", ["heteroclinic", *REGULAR, *RK4, "--t-max", "60"], 0,
         "2fee17e3b2d101d0334d79a92ece976e0ca363f4807309b875dee66bb06bb8b1"),
    case("heteroclinic-plus-json",
         ["heteroclinic", *REGULAR, "--t-max", "60", "--branch", "plus"], 0,
         "143c056cc2fa737fecd1a84767bfd4fd4ba357f0b013e81b3dad0892cf6d5b79"),
    case("heteroclinic-plus-csv",
         ["heteroclinic", *REGULAR, *RK4, "--t-max", "60", "--branch", "plus",
          "--format", "csv"], 0,
         "850656fd9366956e62372f075c54d40d5b326e5495aabc6f6a0d17eed41647f5"),
    case("heteroclinic-minus-csv",
         ["heteroclinic", *REGULAR, *RK4, "--t-max", "60", "--branch", "minus",
          "--format", "csv"], 0,
         "90cfee62c47ef255848f1fa6d64cae7cd0b8fd0670e1874e83489ea93156ae3a"),
    case("lle-classic", ["lle", *CLASSIC, *SHORT_LLE], 0,
         "6393bbb47fc1cd77fe285b7e86aaf27211b608505ae4eb492d0de1dadb294814"),
    case("lle-plant", ["lle", *PLANT, *SHORT_LLE], 0,
         "53a7437d204309455875a11cbeb1b489ce81944751a1ab315d145d18449eb6e9"),
    case("regime-regular", ["regime", *REGULAR], 0,
         "43f88695ecade1623126fa982953b1e4494a205b556cf960141a0c3e2bceead3"),
    case("regime-classic", ["regime", *CLASSIC], 0,
         "a0c99a7743079770f653092a3997fdd369aa6ea09793c5690525be62f49b29ee"),
    case("suggest", ["suggest-anticontrol", *PLANT, "--margin", "28"], 0,
         "1c3b13f225cb18967a8a166eafa3aa5279719b9001586fb91b594d998fdc344a"),
    case("suggest-verify-lle",
         ["suggest-anticontrol", *PLANT, "--margin", "28", "--verify-lle",
          *SHORT_LLE], 0,
         "0b77d5c23d760be9b886209b67547eb3c1312cc1569903607256a2355878e1de"),
    case("sweep-1d-csv",
         ["sweep", *CLASSIC, "--axis", "c:0.5:1.5:21", *PITCHFORK_TASKS,
          "--workers", "1", "--format", "csv"], 0,
         "02ca49f5b7337f1aecd85f4a6e455f981a3d124f6dcf07d5a8f32b76e5688d62"),
    case("sweep-1d-json",
         ["sweep", *CLASSIC, "--axis", "c:0.5:1.5:5",
          "--tasks", "equilibria,origin_class", "--workers", "1"], 0,
         "7368054ab93b7975b279aa412708107b65bdda532e85bd99a728781c5aa115ee"),
    case("sweep-2d-csv-pool",
         ["sweep", *PLANT, "--axis", "c:0.5:1.5:9", "--axis", "M:-1:2:7",
          *PITCHFORK_TASKS, "--workers", "2", "--format", "csv"], 0,
         "42b8a4d1110c908c7cf318ef38da49c170f15d77234acb53f536d56e7c7b795f"),
    case("sweep-lle-csv",
         ["sweep", *CLASSIC, "--axis", "c:0.5:28:2", "--tasks", "lle",
          "--horizon", "10", "--transient", "2", "--workers", "1",
          "--format", "csv"], 0,
         "13677734ec8475a3034960c7e757ea9f8cbd196132340afe31624b88bc67f3c2"),
    case("sweep-error-rows-csv",
         ["sweep", *CLASSIC, "--axis", "b:-1:1:3", "--tasks",
          "equilibria,certificate", "--workers", "1", "--format", "csv"], 0,
         "ecbe29efab0daa548b852db0f75946cd7d6a592c394edc2ee2d54b902b4d7509"),
    # exit 2: usage errors, rejected values and unsupported formats
    case("sweep-no-axis", ["sweep", *CLASSIC], 2, EMPTY,
         "error: at least one --axis is required\n"),
    case("sweep-three-axes",
         ["sweep", *CLASSIC, "--axis", "a:1:2:2", "--axis", "b:1:2:2",
          "--axis", "c:1:2:2"], 2, EMPTY,
         "error: at most two --axis options are allowed\n"),
    case("sweep-malformed-axis", ["sweep", *CLASSIC, "--axis", "nope"], 2, EMPTY,
         "error: --axis expects NAME:START:STOP:COUNT, got 'nope'\n"),
    case("sweep-unknown-axis", ["sweep", *CLASSIC, "--axis", "q:0:1:5"], 2, EMPTY,
         "error: axis name must be one of ('a', 'b', 'c', 'M', 'N', 'P'), "
         "got 'q'\n"),
    # the axis count's text goes to SweepAxis, whose message names it
    case("sweep-bad-count", ["sweep", *CLASSIC, "--axis", "c:0:1:x"], 2, EMPTY,
         "error: axis count must be an integer, got 'x'\n"),
    case("sweep-fractional-count", ["sweep", *CLASSIC, "--axis", "c:0:1:2.5"], 2,
         EMPTY, "error: axis count must be an integer, got '2.5'\n"),
    # so do its start and stop, which must be finite numbers
    case("sweep-bad-start", ["sweep", *CLASSIC, "--axis", "c:x:1:3"], 2, EMPTY,
         "error: axis start must be a number, got 'x'\n"),
    case("sweep-nan-stop",
         ["sweep", *CLASSIC, "--axis", "c:0:nan:3", "--tasks", "equilibria",
          "--format", "csv"], 2, EMPTY, "error: axis stop must be finite, got nan\n"),
    case("sweep-unknown-task",
         ["sweep", *CLASSIC, "--axis", "c:0:1:3", "--tasks", "bogus"], 2, EMPTY,
         "error: unknown task 'bogus'; available: ('equilibria', "
         "'origin_class', 'certificate', 'regime', 'lle')\n"),
    case("lle-csv", ["lle", *REGULAR, *SHORT_LLE, "--format", "csv"], 2, EMPTY,
         "error: csv is not defined for lle; use json\n"),
    case("classify-csv", ["classify", *REGULAR, "--format", "csv"], 2, EMPTY,
         "error: csv is not defined for classify; use json\n"),
    case("lle-bad-window", ["lle", *REGULAR, "--horizon", "5", "--transient", "5"],
         2, EMPTY, "error: need horizon > transient >= 0\n"),
    case("simulate-bad-dt", ["simulate", *REGULAR, *START, "--dt", "0"], 2, EMPTY,
         "error: dt_init must be positive and finite\n"),
    # an infinite tolerance would accept every step: exit 2, not a run
    # that "diverges" with exit 3
    case("simulate-infinite-rel-tol",
         ["simulate", *CLASSIC, *START, "--t-max", "5", "--rel-tol", "inf"],
         2, EMPTY, "error: tolerances must be positive and finite\n"),
    case("lle-infinite-rel-tol", ["lle", *CLASSIC, *SHORT_LLE, "--rel-tol", "inf"],
         2, EMPTY, "error: tolerances must be positive and finite\n"),
    case("heteroclinic-infinite-abs-tol",
         ["heteroclinic", *REGULAR, "--abs-tol", "inf"],
         2, EMPTY, "error: tolerances must be positive and finite\n"),
    case("suggest-bad-margin", ["suggest-anticontrol", *PLANT, "--margin", "0"],
         2, EMPTY, "error: margin must be positive\n"),
    case("suggest-infinite-margin",
         ["suggest-anticontrol", *PLANT, "--margin", "inf"],
         2, EMPTY, "error: margin must be finite, got inf\n"),
    # a non-finite plant parameter fails as every command's parameters do,
    # not as an unstable plant
    case("suggest-nan-plant",
         ["suggest-anticontrol", "--a", "10", "--b", "2.6666666666666665", "--c",
          "nan", "--margin", "1"],
         2, EMPTY, "error: parameter c must be finite, got nan\n"),
    # the margin rounds away: M + c - 1 is 0.0, so nothing crosses
    case("suggest-margin-below-the-grid",
         ["suggest-anticontrol", *PLANT, "--margin", "1e-300"], 2, EMPTY,
         "error: margin 1e-300 does not cross the pitchfork: the offset "
         "M + N + c - 1 = 0.0 leaves the origin non_hyperbolic and the "
         "equilibria origin_only\n"),
    case("equilibria-nan", ["equilibria", "--a", "nan", "--b", "3", "--c", "2"],
         2, EMPTY, "error: parameter a must be finite, got nan\n"),
    case("lle-infinite-horizon",
         ["lle", "--a", "10", "--b", "2.66", "--c", "28", "--horizon", "inf"],
         2, EMPTY, "error: horizon must be finite, got inf\n"),
    case("lle-nan-transient",
         ["lle", "--a", "10", "--b", "2.66", "--c", "28", "--transient", "nan"],
         2, EMPTY, "error: transient must be finite, got nan\n"),
    case("lle-window-count-overflow",
         ["lle", "--a", "10", "--b", "2.66", "--c", "28", "--horizon", "1e300",
          "--renorm-interval", "1e-10"],
         2, EMPTY, "error: the window count horizon / renorm_interval = "
         "1e+300 / 1e-10 overflows\n"),
    # a sweep with the lle task checks the exponent's window before any cell
    # runs, with the exponent's message, and writes no rows
    case("sweep-lle-bad-window",
         ["sweep", *PLANT, "--axis", "M:0:1:2", "--tasks", "lle", "--horizon", "-1"],
         2, EMPTY, "error: need horizon > transient >= 0\n"),
    case("sweep-lle-nan-renorm-interval",
         ["sweep", *PLANT, "--axis", "M:0:1:2", "--tasks", "lle",
          "--renorm-interval", "nan"],
         2, EMPTY, "error: renorm_interval must be finite, got nan\n"),
    # E+-'s characteristic cubic overflows the closed form of its roots at
    # c = 1e300; the origin's quadratic does not
    case("equilibria-overflowing-cubic",
         ["equilibria", "--a", "10", "--b", "2.6666666666666665", "--c", "1e300"],
         2, EMPTY, "error: the characteristic cubic's coefficients "
         "(13.666666666666666, 2.6666666666666668e+300, 5.333333333333334e+301) "
         "are beyond the float range\n"),
    # finite coefficients whose closed form overflows in a product (c2 c2/3
    # at c2 = 1e300), which gave the roots (inf, inf, -inf) with exit 0
    case("equilibria-overflowing-product",
         ["equilibria", "--a", "1", "--b", "1e300", "--c", "28"],
         2, EMPTY, "error: the characteristic cubic's coefficients "
         "(1e+300, 2.9e+301, 5.400000000000001e+301) are beyond the float range\n"),
    # the origin's constant term -a d overflows and is formed scaled, but its
    # larger root, about -a, leaves the float range when scaled back
    case("classify-root-beyond-the-float-range",
         ["classify", "--a", "1.7e308", "--b", "1", "--c", "1e308"],
         2, EMPTY, "error: the origin's characteristic quadratic's coefficients "
         "(1.7e+308, -inf) give a root beyond the float range\n"),
    case("heteroclinic-negative-epsilon",
         ["heteroclinic", *REGULAR, "--branch", "plus", "--epsilon=-1e-6"],
         2, EMPTY, "error: epsilon must be positive and finite, got -1e-06\n"),
    case("heteroclinic-negative-capture-radius",
         ["heteroclinic", *REGULAR, "--capture-radius", "-1"],
         2, EMPTY, "error: capture_radius must be non-negative, got -1.0\n"),
    # an infinite ball captures the seed itself, which proves nothing
    case("heteroclinic-infinite-capture-radius",
         ["heteroclinic", *REGULAR, "--capture-radius", "inf", "--branch", "plus"],
         2, EMPTY, "error: capture_radius must be finite, got inf\n"),
    case("sweep-zero-workers",
         ["sweep", *CLASSIC, "--axis", "c:0:1:3", "--workers", "0"],
         2, EMPTY, "error: workers must be at least 1, got 0\n"),
    # exit 3: numerical and domain failures; a diverged or step-limited
    # simulate still writes its trajectory
    case("heteroclinic-not-a-saddle", ["heteroclinic", *PLANT], 3, EMPTY,
         "error: NotASaddleError: origin is not a saddle with a "
         "one-dimensional unstable manifold\n"),
    case("suggest-unstable-plant",
         ["suggest-anticontrol", "--a", "10", "--b", "3", "--c", "1.5",
          "--margin", "1"], 3, EMPTY,
         "error: NotStableRegimeError: anticontrol assumes a stable plant "
         "with 0 < c < 1, got c = 1.5\n"),
    case("simulate-diverged", ["simulate", *BLOWUP, *START, "--t-max", "5"], 3,
         "e5179f5e72d25df4c66df56d4e2e173009a45d4d25cf652eb19f33f40c632b35"),
    case("simulate-step-limit",
         ["simulate", *CLASSIC, *START, "--max-steps", "10", "--format", "csv"], 3,
         "8e7993211535a8c3cf08bae63357bd958c76f5861231771d9d23239160cf5c1c"),
    case("lle-diverged", ["lle", *BLOWUP, *SHORT_LLE], 3, EMPTY,
         "error: DivergedTrajectoryError: base orbit failed during window 0: "
         "diverged\n"),
    # every origin direction contracts at about -1e3: within the first RK4
    # window the orbit and its tangent underflow to 0
    case("lle-degenerate-tangent",
         ["lle", "--a", "1000", "--b", "1000", "--c", "0.5", "--N", "-1000",
          "--mode", "fixed_rk4", "--dt", "1e-3", "--renorm-interval", "1",
          "--horizon", "2", "--transient", "0"], 3, EMPTY,
         "error: DivergedTrajectoryError: tangent vector degenerated\n"),
    case("equilibria-degenerate-b", ["equilibria", "--a", "1", "--b", "0", "--c", "2"],
         3, EMPTY,
         "error: DegenerateBError: b = 0: equilibrium formulas are undefined\n"),
    # exit 4: I/O failure
    case("classify-unwritable-out",
         ["classify", *CLASSIC, "--out", "no/such/dir/out.json"], 4, EMPTY,
         "error: [Errno 2] No such file or directory: 'no/such/dir/out.json'\n"),
]


@pytest.mark.parametrize("argv, code, digest, err", CASES)
def test_cli_golden_bytes(capsys, monkeypatch, tmp_path, argv, code, digest, err):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    out = capsys.readouterr()
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest
    assert out.err == err
