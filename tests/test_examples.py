"""Every example runs end to end.

``worstcase_scaling.py`` is left out: it sweeps to paper scale (minutes).
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


SCRIPTS = sorted(
    path.name
    for path in EXAMPLES.glob("*.py")
    if path.name != "worstcase_scaling.py"
)


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
