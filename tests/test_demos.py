"""The demos run to the end; their own asserts check what they print."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_faces_and_flats",
        "02_characteristic_elements",
        "03_polynomial_identities",
        "04_intrinsic_volumes",
    ],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
