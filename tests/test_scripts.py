"""The README's example scripts run to the end at small sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("node_sweep", ["--steps", "3", "--theta-samples", "256"]),
    ("ring_levels", ["--grid", "64", "--levels", "4"]),
    ("slow_loop", ["--periods", "100"]),
])
def test_script_runs(capsys, name, argv):
    assert load(name).main(argv) == 0
    out, err = capsys.readouterr()
    assert out and not err
