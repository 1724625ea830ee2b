"""The integrator's stepping loop compiled from C, for runs that record
nothing and track no target: today the exponent's windows.

``integrator._drive`` asks ``_kernel`` for the loop of a field, a mode and
a pair of unit-gain flags.  When a C compiler is on PATH the answer is a
loop written in C from the same field text and the same step blocks as
the Python loop of ``integrator._loop_source``: ``_rk4_block`` or
``_dp54_block`` over ``_fold_unit_gains``'s field, each ``;``-separated
assignment of which is also a C statement on doubles.  The loop around
the step, its stop order and its step-size controller are ``_LOOP``'s
without recording or targets.  It takes the Python loop's arguments and
returns the Python loop's 7-tuple, with the same bits:

- C evaluates each expression as written, on IEEE doubles: ``+`` and
  ``*`` left to right, the tableau as the same ``repr`` literals.  The
  flags forbid what would change a bit: ``-ffp-contract=off`` a fused
  multiply-add, ``-fno-builtin`` folding ``pow(x, 2.0)`` into ``x * x``;
  so every ``pow`` and ``sqrt`` is the libm call CPython makes too;
- the error norm squares through ``square``, CPython's float ``x ** 2``:
  0.0 for +-0, ``pow(|x|, 2.0)`` otherwise, and where a finite x squares
  to inf, CPython's OverflowError, which the loop turns into DIVERGED at
  the last accepted state;
- ``(tol / err) ** 0.2`` is ``pow(tol / err, 0.2)``: its base is positive,
  zero, inf or NaN, where CPython's special cases give pow's value;
- trial steps are counted in int64, and max_steps is clamped to 2**63 - 1,
  a budget no run spends.

A kernel is built on first use, never at import: the C text is compiled
into a temporary directory, loaded with ctypes, and the directory removed.
It is used only after it reproduces the Python loop's full result on one
fixed probe run of a few hundred trial steps.  The compiler is looked up
once per process.  No compiler, a compiler that fails, a library that
does not load, or a probe that disagrees keeps that loop in Python for
the rest of the process.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import subprocess
import tempfile
from typing import Callable

from .integrator import (
    _GROW_LIMIT,
    _ORDER_EXPONENT,
    _RK4_SIZES,
    _SAFETY,
    _SHRINK_LIMIT,
    IntegratorMode,
    TrajectoryStatus,
    _dp54_block,
    _each,
    _FieldSource,
    _fold_unit_gains,
    _loop,
    _rk4_block,
    _stage,
)

# the loop's exit codes, by index
_EXITS = (
    TrajectoryStatus.COMPLETED_TSPAN,
    TrajectoryStatus.DIVERGED,
    TrajectoryStatus.STEP_LIMIT,
)
_INT64_MAX = 2**63 - 1
_FLAGS = ("-std=c99", "-O1", "-ffp-contract=off", "-fno-builtin", "-fPIC", "-shared")

# The C loop of one field in one mode, filled in with %-formatting: the
# locals %(names)s, the state loaded from u and stored back to it, the
# norm's sum of squares %(ss)s, the mode's %(init)s and %(advance)s (below).
# Its exits, in _LOOP's order, set status to an index of _EXITS.
_C_LOOP = """\
#include <math.h>
#include <stdint.h>

static double square(double x, int *overflow)
{
    double r;
    if (x == 0.0)
        return 0.0;
    r = pow(fabs(x), 2.0);
    if (isinf(r) && isfinite(x))
        *overflow = 1;
    return r;
}

int loop(double a, double b, double cm, double n1, double pp, double nb,
         double *u, double t_end, double *dt_io, int64_t *attempts_io,
         int64_t max_steps, double rel_tol, double abs_tol, double blowup_norm)
{
    double %(names)s;
    double dt = *dt_io, t = 0.0, nrm, remaining, dt_eff, half_dt_eff, sixth_dt_eff;
    double err, tol, r, factor;
    int64_t attempts = *attempts_io;
    int status, overflow = 0;
    %(load)s;
    nrm = sqrt(%(ss)s);
    %(init)s;
    for (;;) {
        if (!(nrm <= blowup_norm)) {
            status = 1;
            goto done;
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
    *dt_io = dt;
    *attempts_io = attempts;
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

# _ADAPTIVE_ADVANCE in C; an overflowing square sets overflow
_C_ADAPTIVE_ADVANCE = """\
        for (;;) {
            dt_eff = remaining < dt ? remaining : dt;
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
    return _C_LOOP % dict(
        names=", ".join(names),
        load=_each(n, "s{i} = u[{i}]"),
        ss=" + ".join(f"s{i} * s{i}" for i in range(n)),
        init=init,
        advance=advance,
        store=_each(n, "u[{i}] = s{i}"),
    )


@functools.cache
def _compiler() -> str | None:
    return shutil.which("cc")


def _bind(lib: ctypes.CDLL, n: int) -> Callable[..., tuple]:
    """The library's ``loop`` for an n-component field, called as the
    Python loop is and returning its 7-tuple."""
    fn = lib.loop
    fn.restype = ctypes.c_int
    fn.argtypes = [
        *[ctypes.c_double] * 6,
        ctypes.POINTER(ctypes.c_double),
        ctypes.c_double,
        ctypes.POINTER(ctypes.c_double),
        ctypes.POINTER(ctypes.c_int64),
        ctypes.c_int64,
        *[ctypes.c_double] * 3,
    ]
    vector = ctypes.c_double * n

    def loop(a, b, cm, n1, pp, nb, u0, t_end, dt, attempts, max_steps, rel_tol,
             abs_tol, blowup_norm, targets, capture_radius, bounds, record):
        # targets, capture_radius, bounds and record are the Python loop's;
        # this one runs only without targets and recording
        u = vector(*u0)
        dt_io, attempts_io = ctypes.c_double(dt), ctypes.c_int64(attempts)
        status = fn(a, b, cm, n1, pp, nb, u, t_end, ctypes.byref(dt_io),
                    ctypes.byref(attempts_io), min(max_steps, _INT64_MAX), rel_tol,
                    abs_tol, blowup_norm)
        return (_EXITS[status], tuple(u), dt_io.value, attempts_io.value, [],
                tuple([] for _ in range(n)), None)

    loop.library = lib  # the loop calls into it, so it lives as long
    return loop


def _build(compiler: str, source: str, n: int) -> Callable[..., tuple] | None:
    """``source`` compiled and loaded as a loop for n components, or None
    where the compiler or the loader fails.  The build directory is gone
    when this returns."""
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
    return _bind(lib, n)


def _probe(loop: Callable[..., tuple], n: int, unit_n1: bool, unit_pp: bool) -> tuple:
    """A fixed run of ``loop`` on a classic-Lorenz orbit from all ones, over
    3 time units from dt = 0.01: about 300 trial steps in either mode."""
    n1 = -1.0 if unit_n1 else -0.5
    pp = 1.0 if unit_pp else 0.75
    return loop(10.0, 8.0 / 3.0, 28.0, n1, pp, -8.0 / 3.0, (1.0,) * n, 3.0, 0.01, 0,
                10**6, 1e-9, 1e-12, 1e6, None, 0.0, [], False)


@functools.cache
def _kernel(
    field_source: _FieldSource, mode: IntegratorMode, unit_n1: bool, unit_pp: bool
) -> Callable[..., tuple] | None:
    """The native loop of ``integrator._loop(field_source, mode, 0, unit_n1,
    unit_pp)``, or None where it cannot be built or its probe run differs
    from the Python loop's in any bit."""
    compiler = _compiler()
    if compiler is None:
        return None
    n = len(field_source)
    folded = _fold_unit_gains(field_source, unit_n1, unit_pp)
    loop = _build(compiler, _c_source(folded, mode), n)
    if loop is None:
        return None
    python = _loop(field_source, mode, 0, unit_n1, unit_pp)
    if repr(_probe(loop, n, unit_n1, unit_pp)) != repr(_probe(python, n, unit_n1, unit_pp)):
        return None
    return loop
