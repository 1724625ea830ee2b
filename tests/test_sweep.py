import concurrent.futures
import dataclasses
import math
import multiprocessing
import os

import numpy as np

import pytest
from hypothesis import example, given, settings as hsettings, strategies as st

from lorenzlab import chaos
from lorenzlab import (
    CertificateReport,
    DegenerateBError,
    Equilibrium,
    EquilibriumSet,
    HypothesisFlags,
    IntegratorSettings,
    SweepAxis,
    SweepSpec,
    SystemParams,
    WorkerPoolError,
    certificate,
    classify_origin,
    find_equilibria,
    largest_lyapunov_exponent,
    regime_classify,
    run_sweep,
    sweep,
    sweep_csv,
)

BASE = SystemParams(10.0, 8.0 / 3.0, 28.0)


def _spec(**kw):
    defaults = dict(
        base=BASE,
        axes=(SweepAxis("c", 0.5, 1.5, 5),),
        tasks=("origin_class",),
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


def test_axis_validation():
    with pytest.raises(ValueError):
        SweepAxis("c", 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        SweepAxis("q", 0.0, 1.0, 3)


def test_axis_values_hit_the_endpoints():
    ax = SweepAxis("c", 0.1, 0.7, 7)
    vals = ax.values()
    assert len(vals) == 7
    assert vals[0] == 0.1
    assert vals[-1] == 0.7
    steps = [b - a for a, b in zip(vals, vals[1:])]
    assert all(s == pytest.approx(0.1, rel=1e-12) for s in steps)
    # the first point is start itself, not start + 0 * step: a step that
    # overflows made it NaN, and -0.0 + 0.0 is 0.0
    for start, stop, count in [(-1e308, 1e308, 2), (-0.0, 1.0, 3), (-0.0, -0.0, 2)]:
        vals = SweepAxis("c", start, stop, count).values()
        assert len(vals) == count
        assert repr(vals[0]) == repr(start) and repr(vals[-1]) == repr(stop)
    # so a finite start gives a row, not "parameter c must be finite"
    spec = _spec(axes=(SweepAxis("c", -1e308, 1e308, 2),))
    assert [row[-1] for row in run_sweep(spec, workers=1).rows] == [None, None]


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(axes=())
    with pytest.raises(ValueError):
        _spec(
            axes=(
                SweepAxis("a", 0.0, 1.0, 2),
                SweepAxis("b", 0.0, 1.0, 2),
                SweepAxis("c", 0.0, 1.0, 2),
            )
        )
    with pytest.raises(ValueError):
        _spec(axes=(SweepAxis("c", 0.0, 1.0, 2), SweepAxis("c", 2.0, 3.0, 2)))
    with pytest.raises(ValueError):
        _spec(tasks=("no_such_task",))
    with pytest.raises(ValueError):
        _spec(tasks=("origin_class", "origin_class"))
    with pytest.raises(ValueError):
        _spec(tasks=())



@pytest.mark.parametrize(
    "knobs, message",
    [
        (dict(lle_horizon=-1.0), "need horizon > transient >= 0"),
        (dict(lle_renorm_interval=math.nan), "renorm_interval must be finite, got nan"),
        (dict(lle_horizon=1e300, lle_renorm_interval=1e-10), "overflows"),
        (dict(lle_horizon=1.0, lle_transient=0.9), "no window after the transient"),
    ],
)
def test_lle_window_is_checked_when_the_spec_is_built(knobs, message):
    # the exponent's own check and text, raised before any cell runs
    with pytest.raises(ValueError, match=message) as raised:
        _spec(tasks=("origin_class", "lle"), **knobs)
    window = {name.removeprefix("lle_"): value for name, value in knobs.items()}
    with pytest.raises(ValueError) as direct:
        largest_lyapunov_exponent(BASE, **window)
    assert str(raised.value) == str(direct.value)
    # a sweep without the lle task never reads the window
    assert len(run_sweep(_spec(**knobs), workers=1).rows) == 5

def test_rows_are_in_row_major_grid_order():
    spec = _spec(
        axes=(SweepAxis("c", 0.0, 1.0, 3), SweepAxis("M", 10.0, 20.0, 2)),
    )
    res = run_sweep(spec, workers=1)
    assert res.columns[:2] == ("c", "M")
    got = [row[:2] for row in res.rows]
    want = [
        (0.0, 10.0),
        (0.0, 20.0),
        (0.5, 10.0),
        (0.5, 20.0),
        (1.0, 10.0),
        (1.0, 20.0),
    ]
    assert got == want
    assert spec.n_cells() == 6


def test_axis_values_are_built_once_per_sweep(monkeypatch):
    # rebuilding an axis per cell made a sweep quadratic in its length
    calls = []
    values = SweepAxis.values

    def counted(self):
        calls.append(self.name)
        return values(self)

    monkeypatch.setattr(SweepAxis, "values", counted)
    spec = _spec(axes=(SweepAxis("c", 0.0, 1.0, 30), SweepAxis("M", 0.0, 2.0, 40)))
    res = run_sweep(spec, workers=1)
    assert len(res.rows) == 1200
    assert sorted(calls) == ["M", "c"]


def test_worker_count_does_not_change_the_bytes():
    spec = _spec(
        axes=(SweepAxis("c", 0.5, 1.5, 7), SweepAxis("N", -1.0, 1.0, 3)),
        tasks=("equilibria", "origin_class", "certificate", "regime"),
    )
    texts = {w: sweep_csv(run_sweep(spec, workers=w)) for w in (1, 2, 4)}
    assert texts[1] == texts[2] == texts[4]


def test_cell_errors_are_isolated():
    # b hits exactly zero in the middle of this axis
    spec = SweepSpec(
        base=BASE,
        axes=(SweepAxis("b", -1.0, 1.0, 3),),
        tasks=("equilibria",),
    )
    res = run_sweep(spec, workers=1)
    err_col = res.columns.index("error")
    kinds = [row[res.columns.index("equilibria_kind")] for row in res.rows]
    errors = [row[err_col] for row in res.rows]
    assert errors[0] is None and errors[2] is None
    assert "DegenerateBError" in errors[1]
    assert kinds[1] is None
    assert kinds[0] is not None and kinds[2] is not None


def test_an_overflowing_origin_spectrum_is_an_error_row():
    # a = 1e154, M = 2e154: the origin's quadratic has cc = -a d = -inf
    spec = SweepSpec(
        base=SystemParams(1e154, 1.0, 1.0),
        axes=(SweepAxis("M", 2e154, 2e154, 2),),
        tasks=("equilibria", "origin_class"),
    )
    rows = run_sweep(spec, workers=1).rows
    message = (
        "ValueError: the origin's characteristic quadratic's coefficients "
        "(1e+154, -inf) are beyond the float range"
    )
    assert [row[-1] for row in rows] == [message, message]
    assert all(v is None for row in rows for v in row[1:-1])


def test_origin_class_flip_across_pitchfork():
    spec = _spec(axes=(SweepAxis("c", 0.5, 1.5, 11),), tasks=("origin_class",))
    res = run_sweep(spec, workers=1)
    col = res.columns.index("origin_class")
    labels = [row[col] for row in res.rows]
    assert labels[0] == "attractor"
    assert labels[5] == "non_hyperbolic"  # exactly at c = 1
    assert labels[-1] == "saddle_ws2_wu1"


def test_lle_task_smoke():
    spec = SweepSpec(
        base=SystemParams(10.0, 8.0 / 3.0, 0.5),
        axes=(SweepAxis("c", 0.4, 0.6, 2),),
        tasks=("lle",),
        settings=IntegratorSettings(rel_tol=1e-6, abs_tol=1e-9),
        lle_horizon=6.0,
        lle_transient=1.0,
        lle_renorm_interval=0.5,
    )
    res = run_sweep(spec, workers=2)
    col = res.columns.index("lle")
    for row in res.rows:
        assert isinstance(row[col], float)


# --------------------------------------------- tasks sharing a cell's algebra

_SHARED_TASKS = ("equilibria", "origin_class", "certificate", "regime")


def _standalone_row(p, tasks):
    """The task columns of one cell from the standalone functions, each
    computing its own certificate and equilibria."""
    out = []
    for task in tasks:
        if task == "equilibria":
            eqs = find_equilibria(p)
            out.append(eqs.kind.value)
            loc = eqs.pair[0].location if eqs.pair is not None else (None,) * 3
            out.extend(loc)
        elif task == "origin_class":
            out.append(classify_origin(p).value)
        elif task == "certificate":
            cert = certificate(p)
            out += [
                cert.flags.lemma_ok,
                cert.flags.conv_ok,
                cert.flags.het_ok,
                cert.no_closed_orbits,
                cert.no_homoclinic,
                cert.converges_to_equilibria,
                cert.heteroclinic_pair,
                cert.chaos_possible,
            ]
        elif task == "regime":
            out.append(regime_classify(p).value)
    return out


_axis_end = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@hsettings(max_examples=60, deadline=None)
@given(
    names=st.permutations(("a", "b", "c", "M", "N", "P")).map(lambda n: n[:2]),
    ends=st.tuples(_axis_end, _axis_end, _axis_end, _axis_end),
    counts=st.tuples(st.integers(2, 6), st.integers(2, 6)),
    tasks=st.lists(st.sampled_from(_SHARED_TASKS), min_size=1, unique=True).map(
        tuple
    ),
    base=st.sampled_from(
        [
            SystemParams(10.0, 8.0 / 3.0, 28.0),  # b < 2a
            SystemParams(1.0, 3.0, 2.0),  # b >= 2a
            SystemParams(1.0, 0.0, 2.0, P=1.0),  # b = 0, P = 1
        ]
    ),
)
@example(
    names=("b", "P"),
    ends=(-1.0, 1.0, 0.0, 2.0),
    counts=(3, 3),
    tasks=("regime", "equilibria", "certificate", "origin_class"),
    base=SystemParams(1.0, 3.0, 2.0),
)
def test_rows_equal_the_standalone_functions(names, ends, counts, tasks, base):
    # the b = 0 error rows, P = 1, and both sides of b = 2a all occur
    axes = (
        SweepAxis(names[0], ends[0], ends[1], counts[0]),
        SweepAxis(names[1], ends[2], ends[3], counts[1]),
    )
    spec = SweepSpec(base=base, axes=axes, tasks=tasks)
    res = run_sweep(spec, workers=1)
    assert res.columns == spec.columns()
    for i, row in enumerate(res.rows):
        values = spec.cell_values(i)
        assert row[:2] == values
        p = dataclasses.replace(base, **dict(zip(names, values)))
        try:
            want = _standalone_row(p, tasks)
        except DegenerateBError as exc:
            assert row[2:-1] == (None,) * (len(row) - 3)
            assert row[-1] == f"DegenerateBError: {exc}"
        else:
            assert [repr(v) for v in row[2:-1]] == [repr(v) for v in want]
            assert row[-1] is None


# values at the edges of the closed forms: b = 0, P and d inside their
# bands around 1 and 0, overflowing quadratics and cubics, non-finite
_edge = st.sampled_from(
    [0.0, -0.0, 1.0, 1.0 + 1e-14, 1e-14, -1e-14, 2e154, 1e200, 1e300, -1e300,
     math.inf, -math.inf, math.nan]
)


@hsettings(max_examples=150, deadline=None)
@given(
    names=st.permutations(sweep.AXIS_NAMES).flatmap(
        lambda n: st.sampled_from([n[:1], n[:2]])
    ),
    ends=st.tuples(*[st.one_of(_axis_end, _edge)] * 4),
    counts=st.tuples(st.integers(2, 4), st.integers(2, 4)),
    tasks=st.permutations(_SHARED_TASKS),
    base=st.sampled_from(
        [
            SystemParams(10.0, 8.0 / 3.0, 28.0),
            SystemParams(1.0, 3.0, 2.0),
            SystemParams(1.0, 0.0, 2.0),  # b = 0
            SystemParams(1.0, 3.0, 2.0, P=1.0 + 1e-14),  # P inside the band
            SystemParams(10.0, 8.0 / 3.0, 1.0 + 1e-14),  # d inside the band
            SystemParams(1e200, 1.0, 1.0),  # the origin's discriminant overflows
            SystemParams(1e154, 1.0, 1.0, M=2e154),  # the origin's cc is -inf
            SystemParams(10.0, 8.0 / 3.0, 1e300),  # E+'s cubic overflows
        ]
    ),
)
@example(
    names=("c", "b"),
    ends=(1e300, 1.0, 0.0, 1.0),
    counts=(2, 2),
    tasks=("regime", "certificate", "origin_class", "equilibria"),
    base=SystemParams(10.0, 8.0 / 3.0, 28.0),
)
@example(
    names=("P",),
    ends=(1.0, math.nan, 0.0, 0.0),
    counts=(3, 2),
    tasks=_SHARED_TASKS,
    base=SystemParams(10.0, 8.0 / 3.0, 1.0 + 1e-14),
)
def test_rows_match_the_public_api_at_the_edges(names, ends, counts, tasks, base):
    # each row's task columns, or its error, as the public functions give
    # them for the cell's SystemParams
    axes = tuple(
        SweepAxis(name, ends[2 * k], ends[2 * k + 1], counts[k])
        for k, name in enumerate(names)
    )
    spec = SweepSpec(base=base, axes=axes, tasks=tasks)
    res = run_sweep(spec, workers=1)
    k = len(names)
    for i, row in enumerate(res.rows):
        try:
            p = dataclasses.replace(base, **dict(zip(names, spec.cell_values(i))))
            want = _standalone_row(p, tasks)
        except Exception as exc:  # noqa: BLE001 - the row must carry it
            assert row[k:-1] == (None,) * len(spec._task_columns)
            assert row[-1] == f"{type(exc).__name__}: {exc}"
        else:
            assert [repr(v) for v in row[k:-1]] == [repr(v) for v in want]
            assert row[-1] is None


def test_axis_names_follow_the_params_field_order():
    # a cell's six parameter floats are picked positionally in this order
    assert sweep.AXIS_NAMES == tuple(f.name for f in dataclasses.fields(SystemParams))


def _replace_evaluate_cell(spec, index):
    """The cell evaluation that built each cell with dataclasses.replace."""
    values = spec.cell_values(index)
    try:
        p = dataclasses.replace(spec.base, **dict(zip(spec._axis_names, values)))
        return values + sweep._run_tasks(spec, p) + (None,)
    except Exception as exc:  # noqa: BLE001
        message = f"{type(exc).__name__}: {exc}"
        return values + (None,) * len(spec._task_columns) + (message,)


_any_end = st.one_of(
    _axis_end, st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -0.0])
)


@hsettings(max_examples=80, deadline=None)
@given(
    names=st.permutations(sweep.AXIS_NAMES).flatmap(
        lambda n: st.sampled_from([n[:1], n[:2]])
    ),
    ends=st.tuples(_any_end, _any_end, _any_end, _any_end),
    counts=st.tuples(st.integers(2, 5), st.integers(2, 5)),
    tasks=st.lists(st.sampled_from(_SHARED_TASKS), min_size=1, unique=True).map(
        tuple
    ),
    base=st.sampled_from(
        [
            SystemParams(10.0, 8.0 / 3.0, 28.0),
            SystemParams(1.0, 3.0, 2.0, M=-0.5, N=0.25, P=0.5),
            SystemParams(1.0, 0.0, 2.0, P=1.0),
        ]
    ),
)
@example(
    names=("c",),
    ends=(math.inf, 1.0, 0.0, 0.0),
    counts=(3, 2),
    tasks=("equilibria",),
    base=SystemParams(10.0, 8.0 / 3.0, 28.0),
)
def test_cells_built_from_the_template_equal_replace(names, ends, counts, tasks, base):
    # 1-D and 2-D specs on any axes; a non-finite bound gives error rows
    axes = tuple(
        SweepAxis(name, ends[2 * k], ends[2 * k + 1], counts[k])
        for k, name in enumerate(names)
    )
    spec = SweepSpec(base=base, axes=axes, tasks=tasks)
    res = run_sweep(spec, workers=1)
    want = [_replace_evaluate_cell(spec, i) for i in range(spec.n_cells())]
    assert [repr(row) for row in res.rows] == [repr(row) for row in want]


def test_axis_bounds_are_floats_whatever_real_type_they_come_as():
    def csv(start, stop, count):
        spec = _spec(axes=(SweepAxis("M", start, stop, count),))
        return sweep_csv(run_sweep(spec, workers=1))

    want = csv(0.0, 1.0, 3)
    assert csv(np.float64(0.0), np.float64(1.0), 3) == want
    assert csv(0, 1, np.int64(3)) == want
    assert csv(np.float32(0.0), np.int32(1), 3) == want
    ax = SweepAxis("M", np.float64(0.0), 1, np.int64(3))
    assert [type(v) for v in (ax.start, ax.stop, ax.count)] == [float, float, int]
    assert all(type(v) is float for v in ax.values())


@pytest.mark.parametrize("count", [2.5, 3.0, "3", None])
def test_axis_count_must_be_an_integer(count):
    with pytest.raises(ValueError, match="axis count must be an integer"):
        SweepAxis("M", 0.0, 1.0, count)


def _count_calls(monkeypatch, name):
    """Count the calls a cell makes to ``name``: the sweep calls it, and so
    does the regime label, which computes the equilibria it reads."""
    calls = []
    original = getattr(sweep, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (sweep, chaos):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "base",
    [
        SystemParams(10.0, 8.0 / 3.0, 28.0),  # b < 2a: regime needs the equilibria
        SystemParams(1.0, 3.0, 2.0),  # certified: regime does not
    ],
)
def test_one_certificate_and_one_equilibrium_set_per_cell(monkeypatch, base):
    eq_calls = _count_calls(monkeypatch, "_equilibrium_parts")
    cert_calls = _count_calls(monkeypatch, "_certificate_columns")
    spec = SweepSpec(
        base=base,
        axes=(SweepAxis("c", 0.5, 30.0, 7), SweepAxis("M", -1.0, 1.0, 3)),
        tasks=_SHARED_TASKS,
    )
    res = run_sweep(spec, workers=1)
    assert all(row[-1] is None for row in res.rows)
    assert len(eq_calls) == len(cert_calls) == spec.n_cells() == 21


def test_certificate_only_sweep_never_finds_equilibria(monkeypatch):
    eq_calls = _count_calls(monkeypatch, "_equilibrium_parts")
    cert_calls = _count_calls(monkeypatch, "_certificate_columns")
    spec = _spec(axes=(SweepAxis("c", 0.5, 30.0, 9),), tasks=("certificate",))
    run_sweep(spec, workers=1)
    assert eq_calls == []
    assert len(cert_calls) == 9


def test_regime_on_certified_cells_never_finds_equilibria(monkeypatch):
    # the regime label asks for the equilibria only when chaos is possible
    eq_calls = _count_calls(monkeypatch, "_equilibrium_parts")
    spec = SweepSpec(
        base=SystemParams(1.0, 3.0, 2.0),
        axes=(SweepAxis("c", 1.5, 3.0, 5),),
        tasks=("regime",),
    )
    res = run_sweep(spec, workers=1)
    assert {row[1] for row in res.rows} == {"provably_regular"}
    assert eq_calls == []


def test_a_sweep_builds_no_result_object_per_cell(monkeypatch):
    # the pitchfork map's tasks run on the six parameter floats and write
    # their columns from plain values
    built = []
    classes = (
        Equilibrium, EquilibriumSet, HypothesisFlags, CertificateReport, SystemParams
    )
    for cls in classes:
        init = cls.__init__

        def counted(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    # the counters see direct calls
    certificate(SystemParams(10.0, 8.0 / 3.0, 28.0))
    assert sorted(built) == ["CertificateReport", "HypothesisFlags", "SystemParams"]
    spec = SweepSpec(
        base=SystemParams(10.0, 8.0 / 3.0, 0.5),
        axes=(SweepAxis("c", 0.1, 0.9, 2), SweepAxis("M", -1.0, 37.0, 50)),
        tasks=_SHARED_TASKS,
    )
    built.clear()
    res = run_sweep(spec, workers=1)
    assert {row[2] for row in res.rows} == {"origin_only", "triple"}
    assert {row[-2] for row in res.rows} == {"undetermined", "chaos_candidate"}
    assert built == []
    # a non-finite axis value goes through SystemParams, for its error row
    spec = _spec(axes=(SweepAxis("c", math.inf, 1.0, 2),), tasks=_SHARED_TASKS)
    built.clear()
    rows = run_sweep(spec, workers=1).rows
    assert rows[0][-1] == "ValueError: parameter c must be finite, got inf"
    assert rows[1][-1] is None
    assert built == ["SystemParams"]
    # and an lle cell builds one for the integrator
    spec = _spec(tasks=("lle",), lle_horizon=2.0, lle_transient=0.0)
    built.clear()
    rows = run_sweep(spec, workers=1).rows
    assert all(row[-1] is None for row in rows)
    assert built == ["SystemParams"] * spec.n_cells()


# ------------------------------------------------------- a crashed worker pool


def _die(spec, p):
    os._exit(1)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see the patched task runner only when forked",
)
def test_crashed_worker_pool_raises_a_package_error(monkeypatch):
    monkeypatch.setattr(sweep, "_run_tasks", _die)
    spec = _spec(axes=(SweepAxis("c", 0.5, 1.5, 4), SweepAxis("M", 0.0, 1.0, 2)))
    axes = r"c:0\.5:1\.5:4 x M:0\.0:1\.0:2"
    with pytest.raises(WorkerPoolError, match=f"the sweep over {axes} "):
        run_sweep(spec, workers=2)


# ------------------------------------------------------------ worker count


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and maps
    in this process, so no worker process starts."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize("workers, started", [(2, 2), (5, 5), (6, 5), (64, 5)])
def test_no_more_processes_start_than_there_are_cells(monkeypatch, workers, started):
    monkeypatch.setattr(_InlineExecutor, "started", [])
    # run_sweep imports the pool class from here when it needs a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    spec = _spec(tasks=("equilibria", "origin_class"))
    inline = sweep_csv(run_sweep(spec, workers=1))
    assert _InlineExecutor.started == []
    assert sweep_csv(run_sweep(spec, workers=workers)) == inline
    assert _InlineExecutor.started == [started]


@pytest.mark.parametrize(
    "tasks, started",
    [(("equilibria", "origin_class", "certificate", "regime"), []), (("lle",), [4])],
)
def test_default_worker_count_pools_only_lle_sweeps(monkeypatch, tasks, started):
    monkeypatch.setattr(_InlineExecutor, "started", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    spec = _spec(tasks=tasks, lle_horizon=2.0, lle_transient=0.0)
    inline = sweep_csv(run_sweep(spec, workers=1))
    assert sweep_csv(run_sweep(spec)) == inline
    assert _InlineExecutor.started == started


@pytest.mark.parametrize("workers", [0, -1])
def test_fewer_than_one_worker_is_rejected(workers):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        run_sweep(_spec(), workers=workers)
