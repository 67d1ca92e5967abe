"""The fast demos run end to end (``precision_sweep.py`` is left out: it
simulates width 22 for several seconds)."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["worked_example.py", "resource_scaling.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
