"""The examples that drive the simulator API run end to end.

``worstcase_scaling.py`` is left out: it sweeps to paper scale (minutes).
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("script", ["load_balance.py", "parallel_speedup.py"])
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
