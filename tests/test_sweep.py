import concurrent.futures
import dataclasses
import inspect
import itertools
import math
import multiprocessing
import os
import pickle
from fractions import Fraction

import numpy as np

import pytest
import reference
from hypothesis import example, given, settings as hsettings, strategies as st

from lorenzlab import chaos, equilibria
from lorenzlab import (
    CertificateReport,
    DegenerateBError,
    Equilibrium,
    EquilibriumSet,
    HypothesisFlags,
    IntegratorSettings,
    SweepAxis,
    SweepResult,
    SweepSpec,
    SystemParams,
    WorkerPoolError,
    certificate,
    classify_origin,
    find_equilibria,
    largest_lyapunov_exponent,
    origin_eigenvalues,
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
    # an end that is not finite is refused up front, start before stop
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^axis start must be finite, got {bad!r}$"):
            SweepAxis("c", bad, math.nan, 3)
        with pytest.raises(ValueError, match=f"^axis stop must be finite, got {bad!r}$"):
            SweepAxis("c", 0.0, bad, 3)
    with pytest.raises(ValueError, match="^axis stop must be a number, got 'x'$"):
        SweepAxis("c", "0.5", "x", 3)
    # the non-finite ends of the row tests' former examples, on other axes
    for axis, message in [
        (("P", 1.0, math.nan, 3), "axis stop must be finite, got nan"),
        (("c", math.inf, 1.0, 3), "axis start must be finite, got inf"),
        (("M", 0.0, math.inf, 3), "axis stop must be finite, got inf"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            SweepAxis(*axis)


def _axes(names, ends, counts):
    """The drawn axes: ends 2k and 2k + 1 bound the axis names[k]."""
    return tuple(
        SweepAxis(name, ends[2 * k], ends[2 * k + 1], counts[k])
        for k, name in enumerate(names)
    )


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


def test_an_axis_whose_step_overflows_is_formed_in_halves():
    # stop - start overflows, so point i is (start + i h) + i h with h =
    # (stop / 2 - start / 2) / (count - 1): finite, and within two
    # roundings of the exact start + i (stop - start) / (count - 1)
    assert SweepAxis("c", -1e308, 1e308, 3).values() == [-1e308, 0.0, 1e308]
    assert SweepAxis("c", -1e308, 1e308, 5).values() == [
        -1e308, -5e307, 0.0, 5e307, 1e308
    ]
    for start, stop, count in [(1.7e308, -1.7e308, 6), (-1e308, 1.5e308, 7)]:
        vals = SweepAxis("c", start, stop, count).values()
        assert vals[0] == start and vals[-1] == stop
        for i, v in enumerate(vals):
            exact = Fraction(start) + i * (Fraction(stop) - Fraction(start)) / (count - 1)
            assert abs(Fraction(v) - exact) <= 2 * 2.0**-52 * (abs(start) + abs(stop))
    # so every cell is a row, not "parameter c must be finite"
    spec = _spec(axes=(SweepAxis("c", -1e308, 1e308, 3),))
    assert [row[-1] for row in run_sweep(spec, workers=1).rows] == [None] * 3


@hsettings(max_examples=200, deadline=None)
@given(
    start=st.floats(allow_nan=False, allow_infinity=False),
    stop=st.floats(allow_nan=False, allow_infinity=False),
    count=st.integers(2, 9),
)
def test_an_axis_with_a_finite_step_keeps_its_bits(start, stop, count):
    # start + i * step, as before halves were needed, with the endpoints
    # start and stop themselves
    step = (stop - start) / (count - 1)
    if math.isinf(step):
        return
    want = [start + i * step for i in range(count)]
    want[0], want[-1] = start, stop
    assert repr(SweepAxis("c", start, stop, count).values()) == repr(want)


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
    # c = M = 1e308: d = M + N + c - 1 overflows, so the origin's quadratic
    # has cc = -a d = -inf with no finite factors to form it from; a =
    # 1.7e308, c = 1e308: cc is formed scaled, but the larger root, about
    # -a, leaves the float range when it is scaled back
    for base, axis, text in [
        (SystemParams(1.0, 1.0, 1e308), SweepAxis("M", 1e308, 1e308, 2),
         "(2.0, -inf) are beyond the float range"),
        (SystemParams(1.7e308, 1.0, 1e308), SweepAxis("c", 1e308, 1e308, 2),
         "(1.7e+308, -inf) give a root beyond the float range"),
    ]:
        message = f"the origin's characteristic quadratic's coefficients {text}"
        p = dataclasses.replace(base, **{axis.name: axis.start})
        with pytest.raises(ValueError) as raised:
            origin_eigenvalues(p)
        assert str(raised.value) == message
        spec = SweepSpec(base=base, axes=(axis,), tasks=("equilibria", "origin_class"))
        rows = run_sweep(spec, workers=1).rows
        assert [row[-1] for row in rows] == [f"ValueError: {message}"] * 2
        assert all(v is None for row in rows for v in row[1:-1])


def test_an_origin_constant_term_overflowing_in_a_d_is_a_row():
    # a = 1e154, M = 2e154: -a d = -2e308 overflows, but a and d are finite,
    # so the origin's spectrum is formed scaled: the saddle (1e154, -2e154)
    spec = SweepSpec(
        base=SystemParams(1e154, 1.0, 1.0),
        axes=(SweepAxis("M", 2e154, 2e154, 2),),
        tasks=("equilibria", "origin_class"),
    )
    res = run_sweep(spec, workers=1)
    for row in res.rows:
        cells = dict(zip(res.columns, row))
        assert cells["error"] is None
        assert cells["origin_class"] == "saddle_ws2_wu1"


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
# bands around 1 and 0, overflowing quadratics and cubics
_edge = st.sampled_from(
    [0.0, -0.0, 1.0, 1.0 + 1e-14, 1e-14, -1e-14, 2e154, 1e200, 1e300, -1e300]
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
def test_rows_match_the_public_api_at_the_edges(names, ends, counts, tasks, base):
    # each row's task columns, or its error, as the public functions give
    # them for the cell's SystemParams
    spec = SweepSpec(base=base, axes=_axes(names, ends, counts), tasks=tasks)
    res = run_sweep(spec, workers=1)
    k = len(names)
    for i, row in enumerate(res.rows):
        try:
            p = dataclasses.replace(base, **dict(zip(names, spec.cell_values(i))))
            want = _standalone_row(p, tasks)
        except Exception as exc:  # noqa: BLE001 - the row must carry it
            assert row[k:-1] == (None,) * (len(spec.columns()) - len(spec.axes) - 1)
            assert row[-1] == f"{type(exc).__name__}: {exc}"
        else:
            assert [repr(v) for v in row[k:-1]] == [repr(v) for v in want]
            assert row[-1] is None


def test_spec_lle_defaults_equal_the_exponent_defaults():
    # SweepSpec's fields write the exponent's window defaults a second time
    signature = inspect.signature(largest_lyapunov_exponent).parameters
    fields = {f.name: f.default for f in dataclasses.fields(SweepSpec)}
    for name in ("renorm_interval", "horizon", "transient"):
        assert fields[f"lle_{name}"] == signature[name].default


def test_axis_names_follow_the_params_field_order():
    # a cell's six parameter floats are picked positionally in this order
    assert sweep.AXIS_NAMES == tuple(f.name for f in dataclasses.fields(SystemParams))


def _replace_evaluate_cell(spec, index):
    """The cell evaluation that built each cell with dataclasses.replace."""
    values = spec.cell_values(index)
    try:
        names = [ax.name for ax in spec.axes]
        p = dataclasses.replace(spec.base, **dict(zip(names, values)))
        return values + reference.run_tasks(spec, dataclasses.astuple(p)) + (None,)
    except Exception as exc:  # noqa: BLE001
        message = f"{type(exc).__name__}: {exc}"
        return values + (None,) * (len(spec.columns()) - len(spec.axes) - 1) + (message,)


_any_end = st.one_of(_axis_end, st.sampled_from([1e300, -0.0]))


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
    names=("c", "M"),
    ends=(1e308, 1e308, 1e308, 1e308),
    counts=(2, 2),
    tasks=_SHARED_TASKS,
    base=SystemParams(10.0, 8.0 / 3.0, 28.0),
)  # every field finite, their sum overflows: the cells run, not raise
def test_cells_built_from_the_template_equal_replace(names, ends, counts, tasks, base):
    # 1-D and 2-D specs on any axes
    spec = SweepSpec(base=base, axes=_axes(names, ends, counts), tasks=tasks)
    res = run_sweep(spec, workers=1)
    want = [_replace_evaluate_cell(spec, i) for i in range(spec.n_cells())]
    assert [repr(row) for row in res.rows] == [repr(row) for row in want]


def test_a_spec_built_from_lists_renders_as_one_built_from_tuples():
    # the generated row is cached by the task tuple and the axis names
    axes = [SweepAxis("c", 0.5, 1.5, 3), SweepAxis("M", 0.0, 1.0, 2)]
    listed = SweepSpec(base=BASE, axes=axes, tasks=list(_SHARED_TASKS))
    tupled = SweepSpec(base=BASE, axes=tuple(axes), tasks=_SHARED_TASKS)
    assert type(listed.axes) is tuple and type(listed.tasks) is tuple
    assert listed == tupled
    want = sweep_csv(run_sweep(tupled, workers=1))
    assert sweep_csv(run_sweep(listed, workers=1)) == want


def test_a_spec_holds_only_its_fields():
    # a sweep, its CSV and cell_values leave nothing on the spec
    spec = _spec(
        axes=(SweepAxis("c", 0.5, 1.5, 4), SweepAxis("M", 0.0, 30.0, 3)),
        tasks=_SHARED_TASKS,
    )
    before = pickle.dumps(spec)
    sweep_csv(run_sweep(spec, workers=1))
    spec.cell_values(5)
    assert set(vars(spec)) == {f.name for f in dataclasses.fields(spec)}
    assert pickle.dumps(spec) == before


def test_a_swept_spec_still_pickles_and_pools_alike():
    # the pool pickles the spec once per chunk; the generated row is cached
    # in the module, not stored on the spec
    spec = _spec(
        axes=(SweepAxis("c", 0.5, 1.5, 4), SweepAxis("M", 0.0, 30.0, 3)),
        tasks=_SHARED_TASKS,
    )
    res = run_sweep(spec, workers=1)
    assert not any(callable(v) for v in vars(spec).values())
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert pickle.loads(pickle.dumps(res)) == res
    assert sweep_csv(run_sweep(spec, workers=2)) == sweep_csv(res)


# every ordered task tuple, 5 + 20 + 60 + 120 + 120 of them
_TASK_TUPLES = [
    tasks for k in range(1, 6) for tasks in itertools.permutations(sweep.TASKS, k)
]
# 6 one-axis and 30 two-axis layouts
_AXIS_LAYOUTS = [
    *itertools.permutations(sweep.AXIS_NAMES, 1),
    *itertools.permutations(sweep.AXIS_NAMES, 2),
]


def _assert_row_equals_the_frozen_cell(names, tasks):
    """The generated row of one cell equals the frozen per-cell
    evaluation's, at the columns' width.  A non-finite value never reaches
    a row: SweepAxis refuses it as a bound and SystemParams as a base."""
    spec = SweepSpec(
        base=SystemParams(1.5, 0.5, 0.5, M=0.5, N=0.5, P=0.5),  # b < 2a
        axes=tuple(SweepAxis(name, 1.0, 2.0, 2) for name in names),
        tasks=tasks,
        lle_horizon=2.0,
        lle_transient=0.0,
    )
    row = sweep._row(spec.tasks, names)
    base = dataclasses.astuple(spec.base)
    values = (1.5, 0.5)[: len(names)]
    got = row(spec, base, values)
    assert len(got) == len(spec.columns())
    assert repr(got) == repr(reference.evaluate_cell((spec, values)))
    assert got[-1] is None
    with pytest.raises(ValueError, match="^axis start must be finite, got inf$"):
        SweepAxis(names[0], math.inf, 2.0, 2)
    message = f"^parameter {names[0]} must be finite, got inf$"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(spec.base, **{names[0]: math.inf})


def test_every_task_tuple_compiles_the_frozen_row():
    assert len(_TASK_TUPLES) == 325
    for tasks in _TASK_TUPLES:
        _assert_row_equals_the_frozen_cell(("c", "M"), tasks)


def test_every_axis_layout_compiles_the_frozen_row():
    assert len(_AXIS_LAYOUTS) == 36
    for names in _AXIS_LAYOUTS:
        _assert_row_equals_the_frozen_cell(names, sweep.TASKS)


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


@pytest.mark.parametrize("workers", [2.5, 1.0, "2"])
def test_worker_count_must_be_an_integer(workers):
    with pytest.raises(ValueError, match=f"workers must be an integer, got {workers!r}$"):
        run_sweep(_spec(), workers=workers)


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


def test_one_origin_type_per_cell(monkeypatch):
    # the origin class and the regime read the one set of origin counts the
    # row forms, on cells where the regime needs them (chaos candidates);
    # counted wherever the sweep, the regime or the label could call it
    dims_calls = []
    original = equilibria._origin_dims

    def counted(*args):
        dims_calls.append(args)
        return original(*args)

    for module in (sweep, chaos, equilibria):
        monkeypatch.setattr(module, "_origin_dims", counted, raising=False)
    spec = SweepSpec(
        base=SystemParams(10.0, 8.0 / 3.0, 0.5),
        axes=(SweepAxis("c", 0.1, 0.9, 3), SweepAxis("M", -1.0, 37.0, 7)),
        tasks=_SHARED_TASKS,
    )
    res = run_sweep(spec, workers=1)
    assert all(row[-1] is None for row in res.rows)
    assert {row[-2] for row in res.rows} == {"undetermined", "chaos_candidate"}
    assert len(dims_calls) == spec.n_cells() == 21


def test_a_pitchfork_sweep_solves_no_spectrum(monkeypatch):
    # in the float range, a cell's closed forms check the origin's quadratic
    # and E+-'s cubic without solving either: no column holds a spectrum
    solved = []
    for name in ("_cubic_roots", "_origin_eigenvalues"):
        original = getattr(equilibria, name)

        def counted(*args, _name=name, _original=original):
            solved.append(_name)
            return _original(*args)

        monkeypatch.setattr(equilibria, name, counted)
    spec = SweepSpec(
        base=SystemParams(10.0, 8.0 / 3.0, 0.5, N=0.5, P=0.25),
        axes=(SweepAxis("c", -2.0, 30.0, 9), SweepAxis("M", -30.0, 37.0, 9)),
        tasks=_SHARED_TASKS,
    )
    res = run_sweep(spec, workers=1)
    assert all(row[-1] is None for row in res.rows)
    assert {row[2] for row in res.rows} == {"origin_only", "triple"}
    assert solved == []
    # the public function still solves both
    find_equilibria(SystemParams(10.0, 8.0 / 3.0, 28.0))
    assert solved == ["_origin_eigenvalues", "_cubic_roots"]


# parameters of every magnitude up to 1e308
_wide_param = st.one_of(
    st.floats(-1e308, 1e308, allow_nan=False),
    st.builds(
        lambda sign, m, e: sign * m * 10.0**e,
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 9.99),
        st.integers(-320, 307),
    ),
    st.sampled_from([0.0, -0.0, 1.0, 2.0]),
)


@hsettings(max_examples=400, deadline=None)
@given(p=st.builds(SystemParams, *[_wide_param] * 6))
# E+-'s cubic with c2 = 3e51, split from its two small roots, and with
# |p| either side of 1.7e103, where (p / 3) ** 3 leaves the float range
@example(p=SystemParams(1.0, 1.0, 4e51, N=-3e51))
@example(p=SystemParams(1.0, 1.0, 1.6e103))
@example(p=SystemParams(1.0, 1.0, 1.7e103))
@example(p=SystemParams(1.0, 1.0, 1e308))  # the origin's cc is -inf
# the origin's larger root, about -a, overflows as it is scaled back
@example(p=SystemParams(1.7e308, 1.0, 1e308))
@example(p=SystemParams(1e154, 1.0, 1.0, M=2e154))  # -a d overflows, its roots not
@example(p=SystemParams(1.0, 1e200, 1e200))  # a NaN cubic
def test_a_rows_error_is_the_error_of_find_equilibria(p):
    # the row checks the ranges find_equilibria solves in, in its order, so
    # it raises where that does, with the same text, or writes its values
    try:
        eqs = find_equilibria(p)
    except Exception as exc:  # noqa: BLE001 - the row must carry it
        want = (None,) * 4 + (f"{type(exc).__name__}: {exc}",)
    else:
        plus = eqs.pair[0].location if eqs.pair is not None else (None,) * 3
        want = (eqs.kind.value, *plus, None)
    spec = SweepSpec(base=p, axes=(SweepAxis("c", p.c, p.c, 2),), tasks=("equilibria",))
    rows = run_sweep(spec, workers=1).rows
    assert [repr(row[1:]) for row in rows] == [repr(want)] * 2


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
    # E+'s x and y are one float, so sweep_csv forms its text once
    assert all(row[3] is row[4] for row in res.rows)
    # a non-finite axis end is refused before any cell runs
    with pytest.raises(ValueError, match="^axis start must be finite, got inf$"):
        SweepAxis("c", math.inf, 1.0, 2)
    # a finite cell whose six-field sum overflows (c = M = 1e308) runs
    # its closed forms too, with no SystemParams
    spec = _spec(
        base=SystemParams(10.0, 8.0 / 3.0, 0.5, M=1e308),
        axes=(SweepAxis("c", 1e308, 1.0, 2),),
        tasks=_SHARED_TASKS,
    )
    built.clear()
    rows = run_sweep(spec, workers=1).rows
    assert rows[0][-1].startswith("ValueError: the origin's characteristic quadratic")
    assert rows[1][-1] is None
    assert built == []
    # and an lle cell builds one for the integrator
    spec = _spec(tasks=("lle",), lle_horizon=2.0, lle_transient=0.0)
    built.clear()
    rows = run_sweep(spec, workers=1).rows
    assert all(row[-1] is None for row in rows)
    assert built == ["SystemParams"] * spec.n_cells()


# ------------------------------------------------------- a crashed worker pool


def _die(spec, base, values):
    os._exit(1)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see the patched row only when forked",
)
def test_crashed_worker_pool_raises_a_package_error(monkeypatch):
    monkeypatch.setattr(sweep, "_row", lambda tasks, names: _die)
    spec = _spec(axes=(SweepAxis("c", 0.5, 1.5, 4), SweepAxis("M", 0.0, 1.0, 2)))
    axes = r"c:0\.5:1\.5:4 x M:0\.0:1\.0:2"
    with pytest.raises(WorkerPoolError, match=f"the sweep over {axes} "):
        run_sweep(spec, workers=2)


# ------------------------------------------------------------ worker count


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and the
    items of each ``map`` call, and maps in this process, so no worker
    process starts."""

    started: list[int] = []
    mapped: list[list] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        items = list(iterable)
        self.mapped.append(items)
        return map(fn, items)


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
    # the pool is sized by the CPUs this process may run on, not the machine's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    spec = _spec(tasks=tasks, lle_horizon=2.0, lle_transient=0.0)
    inline = sweep_csv(run_sweep(spec, workers=1))
    assert sweep_csv(run_sweep(spec)) == inline
    assert _InlineExecutor.started == started


def test_default_pool_size_falls_back_to_the_cpu_count(monkeypatch):
    # where the platform has no affinity mask
    monkeypatch.setattr(_InlineExecutor, "started", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    run_sweep(_spec(tasks=("lle",), lle_horizon=2.0, lle_transient=0.0))
    assert _InlineExecutor.started == [3]


class _PicklingExecutor(_InlineExecutor):
    """An _InlineExecutor that also pickles the callable of each ``map``
    call, as a process pool sends it, and records its size in bytes."""

    pickled: list[int] = []

    def map(self, fn, iterable, chunksize=1):
        self.pickled.append(len(pickle.dumps(fn)))
        return super().map(fn, iterable, chunksize)


def test_a_pool_task_carries_no_grid_table(monkeypatch):
    # a pool task ships the spec's fields alone, as many bytes after an
    # inline run of the spec as before it
    monkeypatch.setattr(_InlineExecutor, "started", [])
    monkeypatch.setattr(_InlineExecutor, "mapped", [])
    monkeypatch.setattr(_PicklingExecutor, "pickled", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PicklingExecutor)
    axes = (SweepAxis("M", 0.0, 1.0, 2000),)
    run_sweep(_spec(axes=axes), workers=2)
    spec = _spec(axes=axes)
    inline = run_sweep(spec, workers=1)
    pooled = run_sweep(spec, workers=2)
    fresh, warm = _PicklingExecutor.pickled
    assert warm == fresh
    assert [repr(row) for row in pooled.rows] == [repr(row) for row in inline.rows]


@hsettings(max_examples=60, deadline=None)
@given(
    names=st.permutations(sweep.AXIS_NAMES).flatmap(
        lambda n: st.sampled_from([n[:1], n[:2]])
    ),
    counts=st.tuples(st.integers(2, 12), st.integers(2, 12)),
    workers=st.integers(1, 6),
)
@example(names=("c",), counts=(5, 2), workers=2)  # n < 4 * workers: chunk 1
@example(names=("c", "M"), counts=(9, 9), workers=2)  # 81 cells, chunk 10
@example(names=("c",), counts=(3, 2), workers=6)  # workers > n
def test_pool_chunks_tile_the_grid_in_order(names, counts, workers):
    # each pool task is a contiguous range of cells; the ranges cover the
    # grid once, in order, and the joined rows equal the inline run's
    spec = _spec(
        axes=tuple(SweepAxis(name, 0.5, 1.5, k) for name, k in zip(names, counts)),
        tasks=_SHARED_TASKS,
    )
    n = spec.n_cells()
    inline = run_sweep(spec, workers=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_InlineExecutor, "started", [])
        mp.setattr(_InlineExecutor, "mapped", [])
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
        pooled = run_sweep(spec, workers=workers)
        mapped = _InlineExecutor.mapped
    assert [repr(row) for row in pooled.rows] == [repr(row) for row in inline.rows]
    if workers == 1:  # every grid has at least two cells
        assert mapped == []
        return
    [ranges] = mapped
    assert all(type(r) is range and r.step == 1 and len(r) > 0 for r in ranges)
    assert list(itertools.chain.from_iterable(ranges)) == list(range(n))
    chunk = max(1, n // (4 * min(workers, n)))
    assert [len(r) for r in ranges[:-1]] == [chunk] * (len(ranges) - 1)


@pytest.mark.parametrize("workers", [0, -1])
def test_fewer_than_one_worker_is_rejected(workers):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        run_sweep(_spec(), workers=workers)


# ------------------------------------------------------------ CSV rendering


def _copy(v):
    """An equal float that is not the same object."""
    return float.fromhex(v.hex()) if type(v) is float else v


@hsettings(max_examples=40, deadline=None)
@given(
    names=st.permutations(sweep.AXIS_NAMES).flatmap(
        lambda n: st.sampled_from([n[:1], n[:2]])
    ),
    ends=st.tuples(_any_end, _any_end, _any_end, _any_end),
    counts=st.tuples(st.integers(2, 5), st.integers(2, 5)),
    tasks=st.permutations(_SHARED_TASKS),
    base=st.sampled_from(
        [SystemParams(10.0, 8.0 / 3.0, 28.0), SystemParams(1.0, 3.0, 2.0, P=0.5)]
    ),
    workers=st.sampled_from([1, 2]),
    data=st.data(),
)
@example(
    names=("c", "M"),
    ends=(-0.0, 30.0, 0.0, 1e300),
    counts=(4, 3),
    tasks=_SHARED_TASKS,
    base=SystemParams(10.0, 8.0 / 3.0, 28.0),
    workers=2,
    data=None,
)
def test_sweep_csv_equals_the_frozen_row_wise_renderer(
    names, ends, counts, tasks, base, workers, data
):
    # 1-D and 2-D grids, a -0.0 start (next to a 0.0 in the examples) and
    # huge bounds (error rows); rows from a pool hold one copy of the grid's
    # floats per chunk, so an axis column renders equal floats that are
    # distinct objects
    spec = SweepSpec(base=base, axes=_axes(names, ends, counts), tasks=tasks)
    res = run_sweep(spec, workers=workers)
    assert sweep_csv(res) == reference.sweep_csv(res)
    if data is None:
        return
    # the same rows reordered and truncated, or with every float copied
    order = data.draw(st.permutations(range(len(res.rows))))
    keep = data.draw(st.integers(0, len(order)))
    for rows in (
        tuple(res.rows[i] for i in order[:keep]),
        tuple(tuple(map(_copy, row)) for row in res.rows),
    ):
        hand = SweepResult(spec=spec, columns=res.columns, rows=rows)
        assert sweep_csv(hand) == reference.sweep_csv(hand)


# the M axis's stop - start overflows, so its points are formed in halves
_GRID_SPEC = SweepSpec(
    base=BASE,
    axes=(SweepAxis("c", -0.0, 1.0, 4), SweepAxis("M", 1e308, -1e308, 3)),
    tasks=("origin_class",),
)
_GRID_FLOATS = [v for ax in _GRID_SPEC.axes for v in ax.values()]
# a cell of a hand-built row: the grid's floats, equal copies of them,
# other floats, ints (0 and 1 among them), booleans, None and strings with
# commas and newlines, each once or twice in a row as the same object
_hand_cell = st.one_of(
    st.sampled_from(_GRID_FLOATS),
    st.sampled_from(_GRID_FLOATS).map(_copy),
    st.floats(),
    st.integers(-1, 2) | st.integers(),
    st.booleans(),
    st.none(),
    st.text(st.sampled_from("a1.,;\n -"), max_size=6),
).flatmap(lambda v: st.sampled_from([(v,), (v, v)]))


class _Label(str):
    """A str subclass, which the renderer writes through str()."""


@hsettings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_hand_cell, max_size=8), max_size=6))
@example(rows=[[(-0.0,), (0.0, 0.0), (_GRID_FLOATS[0],), (0.0,), (1, True)]])
# rectangular: a column the same objects as the one before it, float with
# None, an int 1 beside True, a str subclass, equal but distinct floats, grid
# floats beside a copy of one
@example(
    rows=[
        [
            (_GRID_FLOATS[0], _GRID_FLOATS[0]), (None,), (True,), (1,),
            (_Label("a,b"),), (0.1,), (_GRID_FLOATS[2],), (None,),
        ],
        [
            (_GRID_FLOATS[1], _GRID_FLOATS[1]), (2.5,), (1,), (True,),
            ("c\nd",), (_copy(0.1),), (_copy(_GRID_FLOATS[3]),), (False,),
        ],
    ]
)
# rectangular, each an axis column rendered once per object: -0.0 and 0.0
# as distinct objects, one float object repeated down the column, and a
# float beside None
@example(rows=[[(-0.0,), (None,)], [(0.0,), (True,)]])
@example(rows=[[(_copy(2.5),), ("a",)]] * 3)
@example(rows=[[(1.5,), (0.25,)], [(None,), (0.5,)]])
@example(rows=[])
@example(rows=[[(1.5,), (None,)], [(True,)], []])  # ragged
def test_sweep_csv_renders_hand_built_rows_as_the_frozen_renderer(rows):
    # rows as drawn, mostly ragged, and the non-empty ones cut to the
    # shortest of them, a rectangle
    rows = tuple(tuple(v for cell in row for v in cell) for row in rows)
    kept = [row for row in rows if row]
    width = min(map(len, kept), default=0)
    for hand in (rows, tuple(row[:width] for row in kept)):
        res = SweepResult(spec=_GRID_SPEC, columns=("x", "y"), rows=hand)
        assert sweep_csv(res) == reference.sweep_csv(res)
