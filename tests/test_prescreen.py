"""Model-tier pre-screening: kept sets, error reporting, progress, and
validation of the ``keep`` argument (library and CLI)."""

import math

import pytest

from repro.__main__ import main as cli_main
from repro.runner import PrescreenUnsupported, Sweep, prescreen_sweep

#: Exceptions raised by :func:`_unsupported_point`, newest last.
_RAISED: list = []


def _model_only_fails(params):
    if params.get("engine") == "model" and params["x"] == 2:
        raise RuntimeError("no closed form for this point")
    return {"makespan_s": float(params["x"])}


def _unsupported_point(params):
    _RAISED.append(PrescreenUnsupported(f"cannot screen x={params['x']}"))
    raise _RAISED[-1]


def _square(params):
    return {"makespan_s": float((params["x"] - 3) ** 2)}


def _sweep(run_fn, n=6):
    return Sweep(
        name="screen", run_fn=run_fn, points=tuple({"x": x} for x in range(n))
    )


def test_batched_and_scalar_screens_agree_on_fig10():
    from repro.experiments import fig10

    sweep = fig10.sweep(scale=8)
    batched = prescreen_sweep(sweep, keep=5, batch=True)
    scalar = prescreen_sweep(sweep, keep=5, batch=False)
    assert batched.sweep.points == scalar.sweep.points
    assert batched.kept == scalar.kept == 5
    assert [(sp.params, sp.score) for sp in batched.scored] == [
        (sp.params, sp.score) for sp in scalar.scored
    ]


def test_point_failing_under_the_model_tier_is_unsupported():
    with pytest.raises(PrescreenUnsupported) as excinfo:
        prescreen_sweep(_sweep(_model_only_fails), keep=2)
    message = str(excinfo.value)
    assert "'x': 2" in message and "'screen'" in message
    assert "no closed form for this point" in message


def test_prescreen_unsupported_from_a_point_propagates_unchanged():
    _RAISED.clear()
    with pytest.raises(PrescreenUnsupported) as excinfo:
        prescreen_sweep(_sweep(_unsupported_point), keep=2)
    assert excinfo.value is _RAISED[0]
    assert str(excinfo.value) == "cannot screen x=0"


def test_progress_reports_each_point_in_order():
    calls = []
    result = prescreen_sweep(
        _sweep(_square), keep=2,
        progress=lambda done, total: calls.append((done, total)),
    )
    assert calls == [(i, 6) for i in range(1, 7)]
    assert [p["x"] for p in result.sweep.points] == [2, 3]


@pytest.mark.parametrize("keep", [1, 3.0, 0.5, 6, 100])
def test_valid_keep_values(keep):
    result = prescreen_sweep(_sweep(_square), keep=keep)
    expected = math.ceil(keep * 6) if keep < 1 else min(int(keep), 6)
    assert result.kept == len(result.sweep.points) == expected


@pytest.mark.parametrize(
    "keep", [0, -1, 2.5, 1.5, float("nan"), float("inf"), -float("inf")]
)
def test_invalid_keep_values_raise_value_error(keep):
    with pytest.raises(ValueError):
        prescreen_sweep(_sweep(_square), keep=keep)


@pytest.mark.parametrize("keep", ["nan", "inf", "2.5", "0"])
def test_cli_rejects_bad_prescreen_before_any_sweep(keep, tmp_path, capsys):
    argv = [
        "sweep", "fig10", "--scale", "8", "--prescreen", keep,
        "--cache-dir", str(tmp_path), "--quiet",
    ]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert "bad arguments" in captured.out
    assert "prescreen kept" not in captured.err
    assert not any(tmp_path.iterdir())
