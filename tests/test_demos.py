"""The narrative demos run to completion.

Each demo is executed in-process as ``__main__``; its printout is not
checked, only that it runs against the current API.
"""
from pathlib import Path
import runpy

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_jump_weight_systems", "02_painleve_family",
                                  "03_determinants_meet", "04_monte_carlo_twins",
                                  "05_asymptotics_vs_finite_n"])
def test_demo_runs(name):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
