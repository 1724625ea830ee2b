import pytest

from lorenzlab import (
    IntegratorSettings,
    SweepAxis,
    SweepSpec,
    SystemParams,
    run_sweep,
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
