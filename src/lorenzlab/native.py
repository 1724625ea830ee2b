"""The integrator's stepping loop compiled from C, for every run of
``integrator._drive`` (orbits, traces and ``simulate``) and for a whole
exponent run.

``integrator._drive`` asks ``_kernel`` for the loop of a field, a mode and
a pair of unit-gain flags.  When a C compiler is on PATH the answer is a
loop written in C from the same field text and the same step blocks as
the Python loop of ``integrator._loop_source``: ``_rk4_block`` or
``_dp54_block`` over ``_fold_unit_gains``'s field, each ``;``-separated
assignment of which is also a C statement on doubles.  The loop around
the step is ``_LOOP``'s: its stop order, its step-size controller, the
recording of each state and the dwell check over the targets, with
``_DWELL_CLAMP`` in adaptive mode.  The targets, their ``_reach_bounds``,
the capture radius and the record flag are arguments of the one loop, so
one kernel serves every number of targets.  It takes the Python loop's
arguments and returns the Python loop's 7-tuple, with the same bits:

- C evaluates each expression as written, on IEEE doubles: ``+`` and
  ``*`` left to right, the tableau as the same ``repr`` literals.  The
  flags forbid what would change a bit: ``-ffp-contract=off`` a fused
  multiply-add, ``-fno-builtin`` folding ``pow(x, 2.0)`` into ``x * x``;
  so every ``pow`` and ``sqrt`` is the libm call CPython makes too;
- the error norm squares through ``square``, CPython's float ``x ** 2``:
  0.0 for +-0, ``pow(|x|, 2.0)`` otherwise, and where a finite x squares
  to inf, CPython's OverflowError, which the loop turns into DIVERGED at
  the last accepted state;
- a target's distance is ``_dist``'s: the root of the same three squares
  added left to right, inf where a finite square overflows, which ends
  nothing;
- ``(tol / err) ** 0.2`` is ``pow(tol / err, 0.2)``: its base is positive,
  zero, inf or NaN, where CPython's special cases give pow's value;
- trial steps are counted in int64, and max_steps is clamped to 2**63 - 1,
  a budget no run spends;
- a recorded run appends (t, s0, s1, ...) to one buffer of doubles,
  doubled with ``realloc`` as it fills, which the wrapper splits into
  ``times`` and one list of floats per component and frees before it
  returns; a failed ``realloc`` raises MemoryError.

The kernel of the 6-D variational field also has ``windows``: a whole
Benettin exponent in one call, with the bits of ``chaos._windows`` on the
Python loop.  It calls ``loop`` once per window, carrying dt and the trial
steps spent, renormalizes the tangent with the same expressions
(``sqrt`` of the ``+`` chain of its three squares, then a division of
each component), adds libm's ``log`` of the norm after the transient,
which is what CPython's ``math.log`` calls for a positive finite double,
and appends each running estimate to a history doubled with ``realloc``,
so nothing is sized by the window count.  A failed window hands back its
index with the state, dt and trial steps it started from, so the caller
can name the failure as the Python windows would.

A kernel is built on first use, never at import: the C text is compiled
into a temporary directory, loaded with ctypes, and the directory removed.
The library is loaded only if its ``square`` is CPython's ``x ** 2`` on
doubles whose square differs from ``x * x``, and used only after it
reproduces the Python loop's full result on two fixed probe runs: an
orbit of a few hundred trial steps, and a recorded run that completes a
dwell; a 6-D kernel's ``windows`` must also reproduce ``chaos._windows``
on two short exponent runs, one of which spends its budget.  The compiler
is looked up once per process.  No compiler, a compiler that fails, a
library that does not load or squares otherwise, or a probe that
disagrees keeps that loop, and with it the exponent's windows, in Python
for the rest of the process.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import shutil
import subprocess
import tempfile
from typing import Callable

from .integrator import (
    _DWELL_CHECKS,
    _GROW_LIMIT,
    _ORDER_EXPONENT,
    _RK4_SIZES,
    _SAFETY,
    _SHRINK_LIMIT,
    IntegratorMode,
    TrajectoryStatus,
    _capture_reach,
    _dp54_block,
    _each,
    _FieldSource,
    _fold_unit_gains,
    _loop,
    _reach_bounds,
    _rk4_block,
    _stage,
)

# the loop's exit codes, by index; past them, _NO_MEMORY
_EXITS = (
    TrajectoryStatus.COMPLETED_TSPAN,
    TrajectoryStatus.DIVERGED,
    TrajectoryStatus.STEP_LIMIT,
    TrajectoryStatus.CAPTURED_EQUILIBRIUM,
)
_NO_MEMORY = 4
_INT64_MAX = 2**63 - 1
_FLAGS = ("-std=c99", "-O1", "-ffp-contract=off", "-fno-builtin", "-fPIC", "-shared")
# doubles whose square by pow, as CPython's ``** 2`` takes it, differs
# from x * x in the last bit
_SQUARES = (20589.22378844385, 4.344757619623394e-07, -3036870525739.134,
            0.06641691892977333, 9.643158528651329e+27)

# The C loop of one field in one mode, filled in with %-formatting: the
# locals %(names)s, the state loaded from u and stored back to it, the
# norm's sum of squares %(ss)s, the mode's %(init)s and %(advance)s (below),
# and the row %(record)s writes after t, %(stride)s doubles in all.  It
# reads the run's constants from one ``struct run`` (``_Run``), one
# argument where a call per constant would cost more than a short window,
# and writes its results back there.  Its exits, in _LOOP's order, set
# status to an index of _EXITS.  The dwell reads each target's coordinates
# and bounds as _DWELL and _DWELL_TARGET do; dwell_target is -1 for None.
_C_LOOP = """\
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

double square(double x, int *overflow)
{
    double r;
    if (x == 0.0)
        return 0.0;
    r = pow(fabs(x), 2.0);
    if (isinf(r) && isfinite(x))
        *overflow = 1;
    return r;
}

void release(double *points)
{
    free(points);
}

/* _Run: the run's constants, and its results after the loop */
struct run {
    double a, b, cm, n1, pp, nb, t_end, dt, rel_tol, abs_tol, blowup_norm;
    double capture_radius;
    int64_t attempts, max_steps, n_targets, record, rows, captured;
    const double *targets;
    double *points;
};

int loop(struct run *run, double *u)
{
    const double a = run->a, b = run->b, cm = run->cm, n1 = run->n1, pp = run->pp;
    const double nb = run->nb, t_end = run->t_end, rel_tol = run->rel_tol;
    const double abs_tol = run->abs_tol, blowup_norm = run->blowup_norm;
    const double capture_radius = run->capture_radius;
    const int64_t max_steps = run->max_steps, n_targets = run->n_targets;
    const int64_t record = run->record;
    const double *targets = run->targets, *bounds = targets + 3 * n_targets;
    double %(names)s;
    double dt = run->dt, t = 0.0, nrm, remaining, dt_eff, half_dt_eff, sixth_dt_eff;
    double err, tol, r, factor, room, d, near_d = 0.0;
    double *points = NULL, *grown, *row;
    const double *box, *tg;
    int64_t attempts = run->attempts, rows = 0, capacity = 0, j, near;
    int64_t dwell = 0, dwell_target = -1;
    int status, overflow = 0, far;
    %(load)s;
    nrm = sqrt(%(ss)s);
    %(init)s;
    for (;;) {
        if (record) {
            if (rows == capacity) {
                capacity = capacity ? 2 * capacity : 1024;
                grown = realloc(points, (size_t)capacity * %(stride)d * sizeof(double));
                if (grown == NULL) {
                    status = 4;
                    goto done;
                }
                points = grown;
            }
            row = points + rows * %(stride)d;
            row[0] = t; %(record)s;
            rows += 1;
        }
        if (!(nrm <= blowup_norm)) {
            status = 1;
            goto done;
        }
        near = -1;
        for (j = 0; j < n_targets; j++) {
            box = bounds + 6 * j;
            if (box[0] <= s0 && s0 <= box[1] && box[2] <= s1 && s1 <= box[3]
                    && box[4] <= s2 && s2 <= box[5]) {
                tg = targets + 3 * j;
                /* a square that overflows is inf, the distance _dist's
                   OverflowError gives, and ends nothing: far is not read */
                d = sqrt(square(s0 - tg[0], &far) + square(s1 - tg[1], &far)
                         + square(s2 - tg[2], &far));
                if (near < 0 || d < near_d) {
                    near = j;
                    near_d = d;
                }
            }
        }
        if (near >= 0 && near_d <= capture_radius) {
            dwell = near == dwell_target ? dwell + 1 : 1;
            dwell_target = near;
            if (dwell >= %(dwell_checks)d) {
                run->captured = near;
                status = 3;
                goto done;
            }
        } else if (dwell) {
            dwell_target = -1;
            dwell = 0;
        }
        if (!(t < t_end)) {
            status = 0;
            goto done;
        }
        remaining = t_end - t;
%(advance)s
        nrm = sqrt(%(ss)s);
        t = dt_eff == remaining ? t_end : t + dt_eff;
    }
done:
    %(store)s;
    run->dt = dt;
    run->attempts = attempts;
    run->points = points;
    run->rows = rows;
    return status;
}
"""

# _TRIAL_GUARD in C
_C_GUARD = """\
            if (t + dt_eff == t || attempts >= max_steps) {
                status = 2;
                goto done;
            }
            attempts += 1;
"""

# _FIXED_ADVANCE in C
_C_FIXED_ADVANCE = """\
        if (remaining < dt) {
            dt_eff = remaining; %(sizes)s;
        }
%(guard)s\
            %(step)s;"""

# _ADAPTIVE_ADVANCE with _DWELL_CLAMP in C; an overflowing square sets
# overflow
_C_ADAPTIVE_ADVANCE = """\
        for (;;) {
            dt_eff = remaining < dt ? remaining : dt;
            if (dwell) {
                room = remaining / (%(dwell_checks)d - dwell);
                if (room < dt_eff)
                    dt_eff = room;
            }
%(guard)s\
            %(step)s;
            if (overflow) {
                status = 1;
                goto done;
            }
            tol = rel_tol * nrm + abs_tol;
            if (err == 0.0)
                factor = %(grow)r;
            else {
                r = %(safety)r * pow(tol / err, %(order)r);
                factor = r > %(shrink)r ? (r < %(grow)r ? r : %(grow)r) : %(shrink)r;
            }
            dt = dt_eff * factor;
            if (err <= tol)
                break;
        }
        %(accept)s;"""

# The exponent's windows (chaos._windows) over the 6-D variational loop:
# one loop call a window of t_end = renorm_interval, carrying dt and
# attempts, the tangent s3..s5 renormalized with chaos._windows's
# expressions and, from window n_trans on, the running estimate appended to
# a history doubled with realloc as it fills.  It returns the index of the
# window it stopped at, n_total when none failed, with that window's start
# state, dt and attempts put back and its exit code in *status: the loop's,
# 0 where the tangent degenerated, _NO_MEMORY where the history could not
# grow.  The history is left in run->points, its length in run->rows.
_C_WINDOWS = """
int64_t windows(struct run *run, double *u, int64_t n_total, int64_t n_trans,
                int *status)
{
    const double interval = run->t_end;
    double start[6], dt, nrm, log_sum = 0.0, *history = NULL, *grown;
    int64_t w, attempts, rows = 0, capacity = 0;
    int i;
    for (w = 0; w < n_total; w++) {
        for (i = 0; i < 6; i++)
            start[i] = u[i];
        dt = run->dt;
        attempts = run->attempts;
        *status = loop(run, u);
        if (*status != 0)
            goto failed;
        nrm = sqrt(u[3] * u[3] + u[4] * u[4] + u[5] * u[5]);
        if (nrm == 0.0 || !isfinite(nrm))
            goto failed;
        if (w >= n_trans) {
            if (rows == capacity) {
                capacity = capacity ? 2 * capacity : 1024;
                grown = realloc(history, (size_t)capacity * sizeof(double));
                if (grown == NULL) {
                    *status = 4;
                    goto failed;
                }
                history = grown;
            }
            log_sum += log(nrm);
            history[rows++] = log_sum / ((double)(w + 1 - n_trans) * interval);
        }
        u[3] = u[3] / nrm;
        u[4] = u[4] / nrm;
        u[5] = u[5] / nrm;
    }
    goto done;
failed:
    for (i = 0; i < 6; i++)
        u[i] = start[i];
    run->dt = dt;
    run->attempts = attempts;
done:
    run->points = history;
    run->rows = rows;
    return w;
}
"""


def _c_source(field_source: _FieldSource, mode: IntegratorMode) -> str:
    """C text of ``loop`` for ``field_source`` (unit gains already folded
    in) in ``mode``."""
    n = len(field_source)
    if mode is IntegratorMode.FIXED_RK4:
        init = f"dt_eff = dt; {_RK4_SIZES}"
        advance = _C_FIXED_ADVANCE % dict(
            sizes=_RK4_SIZES, guard=_C_GUARD, step=_rk4_block(field_source)
        )
    else:
        init = _stage(field_source, 1, "s")
        advance = _C_ADAPTIVE_ADVANCE % dict(
            dwell_checks=_DWELL_CHECKS,
            guard=_C_GUARD,
            step=_dp54_block(field_source, square="square({}, &overflow)"),
            accept=_each(n, "s{i} = w{i}") + "; " + _each(n, "k1_{i} = k7_{i}"),
            safety=_SAFETY,
            shrink=_SHRINK_LIMIT,
            grow=_GROW_LIMIT,
            order=_ORDER_EXPONENT,
        )
    names = [f"{v}{i}" for v in ("s", "w") for i in range(n)]
    names += [f"k{k}_{i}" for k in range(1, 8) for i in range(n)]
    source = _C_LOOP % dict(
        names=", ".join(names),
        load=_each(n, "s{i} = u[{i}]"),
        ss=" + ".join(f"s{i} * s{i}" for i in range(n)),
        init=init,
        stride=n + 1,
        record=_each(n, "row[{i} + 1] = s{i}"),
        dwell_checks=_DWELL_CHECKS,
        advance=advance,
        store=_each(n, "u[{i}] = s{i}"),
    )
    return source + _C_WINDOWS if n == 6 else source


@functools.cache
def _compiler() -> str | None:
    return shutil.which("cc")


def _split(address: int, rows: int, stride: int) -> tuple[list, tuple]:
    """``times`` and the columns of ``rows`` recorded rows of ``stride``
    doubles at ``address``, as lists of floats."""
    buffer = (ctypes.c_double * (rows * stride)).from_address(address)
    flat = memoryview(buffer).cast("B").cast("d")
    return flat[::stride].tolist(), tuple(flat[i::stride].tolist() for i in range(1, stride))


class _Run(ctypes.Structure):
    """The C loop's ``struct run``: a run's constants; its next step, trial
    steps, recorded rows and capturing target (-1 for none) after it."""

    _fields_ = [
        *[(name, ctypes.c_double) for name in (
            "a", "b", "cm", "n1", "pp", "nb", "t_end", "dt", "rel_tol", "abs_tol",
            "blowup_norm", "capture_radius")],
        *[(name, ctypes.c_int64) for name in (
            "attempts", "max_steps", "n_targets", "record", "rows", "captured")],
        ("targets", ctypes.POINTER(ctypes.c_double)),
        ("points", ctypes.c_void_p),
    ]


def _bind(lib: ctypes.CDLL, n: int) -> Callable[..., tuple]:
    """The library's ``loop`` for an n-component field, called as the
    Python loop is and returning its 7-tuple."""
    fn = lib.loop
    fn.restype = ctypes.c_int
    fn.argtypes = [ctypes.POINTER(_Run), ctypes.POINTER(ctypes.c_double)]
    release = lib.release
    release.restype = None
    release.argtypes = [ctypes.c_void_p]
    vector = ctypes.c_double * n

    def loop(a, b, cm, n1, pp, nb, u0, t_end, dt, attempts, max_steps, rel_tol,
             abs_tol, blowup_norm, targets, capture_radius, bounds, record):
        table = None  # NULL: no target is read
        if targets:
            # the targets' coordinates, three a target, then their bounds,
            # six a target
            table = (ctypes.c_double * (9 * len(targets)))(
                *itertools.chain(*targets), *bounds)
        run = _Run(a, b, cm, n1, pp, nb, t_end, dt, rel_tol, abs_tol, blowup_norm,
                   capture_radius, attempts, min(max_steps, _INT64_MAX),
                   len(targets or ()), bool(record), 0, -1, table)
        u = vector(*u0)
        status = fn(ctypes.byref(run), u)
        if status == _NO_MEMORY:
            release(run.points)
            raise MemoryError("no memory left for the recorded points")
        times, columns = [], tuple([] for _ in range(n))
        if run.points is not None:
            try:
                times, columns = _split(run.points, run.rows, n + 1)
            finally:
                release(run.points)
        return (_EXITS[status], tuple(u), run.dt, run.attempts, times, columns,
                None if run.captured < 0 else run.captured)

    loop.library = lib  # the loop calls into it, so it lives as long
    if n == 6:
        loop.windows = _bind_windows(lib, release)
    return loop


def _bind_windows(lib: ctypes.CDLL, release: Callable) -> Callable[..., tuple]:
    """The library's ``windows``, called as ``chaos._windows`` is, less its
    loop, and returning its 6-tuple."""
    fn = lib.windows
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.POINTER(_Run), ctypes.POINTER(ctypes.c_double), ctypes.c_int64,
                   ctypes.c_int64, ctypes.POINTER(ctypes.c_int)]
    vector = ctypes.c_double * 6

    def windows(a, b, cm, n1, pp, nb, u0, interval, dt, max_steps, rel_tol, abs_tol,
                blowup_norm, n_total, n_trans):
        run = _Run(a, b, cm, n1, pp, nb, interval, dt, rel_tol, abs_tol, blowup_norm,
                   0.0, 0, min(max_steps, _INT64_MAX), 0, False, 0, -1, None)
        u = vector(*u0)
        status = ctypes.c_int(0)
        # counts beyond int64 are clamped, like max_steps: no run reaches them
        w = fn(ctypes.byref(run), u, min(n_total, _INT64_MAX), min(n_trans, _INT64_MAX),
               ctypes.byref(status))
        history = []
        if run.points is not None:
            try:
                history = (ctypes.c_double * run.rows).from_address(run.points)[:]
            finally:
                release(run.points)
        if status.value == _NO_MEMORY:
            raise MemoryError("no memory left for the exponent's history")
        return w, _EXITS[status.value], tuple(u), run.dt, run.attempts, history

    return windows


def _squares_as_python(lib: ctypes.CDLL) -> bool:
    """Whether the library's ``square`` gives ``x ** 2`` on ``_SQUARES``."""
    square = lib.square
    square.restype = ctypes.c_double
    square.argtypes = [ctypes.c_double, ctypes.POINTER(ctypes.c_int)]
    overflow = ctypes.c_int(0)
    return all(repr(square(x, ctypes.byref(overflow))) == repr(x**2) for x in _SQUARES)


def _build(compiler: str, source: str, n: int) -> Callable[..., tuple] | None:
    """``source`` compiled and loaded as a loop for n components, or None
    where the compiler or the loader fails or the library squares other
    than CPython.  The build directory is gone when this returns."""
    try:
        with tempfile.TemporaryDirectory() as tmp:
            c_path, so_path = os.path.join(tmp, "loop.c"), os.path.join(tmp, "loop.so")
            with open(c_path, "w", encoding="ascii") as fh:
                fh.write(source)
            done = subprocess.run(
                [compiler, *_FLAGS, "-o", so_path, c_path, "-lm"],
                capture_output=True,
                timeout=120,
            )
            if done.returncode != 0:
                return None
            lib = ctypes.CDLL(so_path)
    except (OSError, subprocess.SubprocessError):
        return None
    return _bind(lib, n) if _squares_as_python(lib) else None


def _gains(unit_n1: bool, unit_pp: bool) -> tuple[float, float]:
    """(n1, pp) of the probe runs: the unit gain where the flag is set, a
    gain that is not unit where it is not."""
    return -1.0 if unit_n1 else -0.5, 1.0 if unit_pp else 0.75


def _probes(n: int, unit_n1: bool, unit_pp: bool) -> tuple[tuple, ...]:
    """(number of targets, loop arguments) of each fixed probe run: a
    classic-Lorenz orbit from all ones over 3 time units from dt = 0.01,
    about 300 trial steps in either mode; then a recorded run of a regular
    plant (cm = 10) from 1e-6 off its stable E+, with E- and E+ as targets,
    whose tenth state in E+'s ball of radius 1e-3 captures it within the
    span, the adaptive dwell clamp shortening its steps."""
    n1, pp = _gains(unit_n1, unit_pp)
    b = 8.0 / 3.0
    z = (10.0 + n1) / pp
    x = math.sqrt(b * z)
    pair = [(-x, -x, z), (x, x, z)]
    reach = _capture_reach(1e-3)
    bounds = [v for tgt in pair for c in tgt for v in _reach_bounds(c, reach)]
    start = (x + 1e-6, x, z, *(1.0,) * (n - 3))
    return (
        (0, (10.0, b, 28.0, n1, pp, -b, (1.0,) * n, 3.0, 0.01, 0, 10**6, 1e-9,
             1e-12, 1e6, None, 0.0, [], False)),
        (2, (10.0, b, 10.0, n1, pp, -b, start, 1.0, 0.01, 0, 10**6, 1e-9, 1e-12,
             1e6, pair, 1e-3, bounds, True)),
    )


def _window_probes(unit_n1: bool, unit_pp: bool) -> tuple[tuple, ...]:
    """The ``windows`` arguments of each fixed exponent probe: classic
    Lorenz from (1, 1, 1) with the tangent (1, 0, 0), four windows of 0.25
    after one of transient from dt = 0.01, 100-190 trial steps in either
    mode; then the same with a budget of 60 trial steps, which runs out in
    window 1 or 2."""
    n1, pp = _gains(unit_n1, unit_pp)
    b = 8.0 / 3.0
    return tuple(
        (10.0, b, 28.0, n1, pp, -b, (1.0, 1.0, 1.0, 1.0, 0.0, 0.0), 0.25, 0.01,
         max_steps, 1e-9, 1e-12, 1e6, 4, 1)
        for max_steps in (10**6, 60)
    )


@functools.cache
def _kernel(
    field_source: _FieldSource, mode: IntegratorMode, unit_n1: bool, unit_pp: bool
) -> Callable[..., tuple] | None:
    """The native loop of ``integrator._loop(field_source, mode, n_targets,
    unit_n1, unit_pp)`` for every n_targets, or None where it cannot be
    built or a probe run differs from the Python loop's in any bit.  A
    6-D loop's ``windows`` runs the exponent's windows of
    ``chaos._windows`` and is held to it on the exponent probes too."""
    compiler = _compiler()
    if compiler is None:
        return None
    n = len(field_source)
    folded = _fold_unit_gains(field_source, unit_n1, unit_pp)
    loop = _build(compiler, _c_source(folded, mode), n)
    if loop is None:
        return None
    for n_targets, args in _probes(n, unit_n1, unit_pp):
        python = _loop(field_source, mode, n_targets, unit_n1, unit_pp)
        if repr(loop(*args)) != repr(python(*args)):
            return None
    if n == 6:
        from .chaos import _windows

        python = _loop(field_source, mode, 0, unit_n1, unit_pp)
        for args in _window_probes(unit_n1, unit_pp):
            if repr(loop.windows(*args)) != repr(_windows(python, *args)):
                return None
    return loop
