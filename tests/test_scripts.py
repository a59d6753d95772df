"""The README's example scripts run to the end at small sizes."""

import importlib.util
import sys
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


def test_cli_digest_exits_one_on_an_uncaught_exception(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends
    digest = load("cli_digest")
    call = ["spectrum", "--flat", "--parity", "odd", "--grid", "64"]
    monkeypatch.setattr(digest, "calls", lambda: [call])
    assert digest.main(["--quiet"]) == 0
    assert capsys.readouterr().err == ""

    def crash(argv):
        raise ValueError("embedded null byte")

    monkeypatch.setattr(digest, "cli_main", crash)
    assert digest.main(["--quiet"]) == 1
    out, err = capsys.readouterr()
    assert out.endswith(" total over 1 calls\n")
    assert err == f"uncaught exception: {' '.join(call)}\n"
