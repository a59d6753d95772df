"""The README's example scripts run to the end at small sizes."""

import importlib.util
import shutil
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


def test_cli_digest_against_a_tree_checks_the_listed_changes(
        tmp_path, capsys, monkeypatch):
    # one call, run on two copies of the package: one as it is, one whose
    # cli.main prints an extra line
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends
    digest = load("cli_digest")
    call = ["spectrum", "--flat", "--parity", "odd", "--grid", "64"]
    argv = " ".join(call)
    monkeypatch.setattr(digest, "calls", lambda: [call])
    same, patched = tmp_path / "same", tmp_path / "patched"
    for tree in (same, patched):
        shutil.copytree(SCRIPTS.parent / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    with open(patched / "src" / "berryline" / "cli.py", "a") as f:
        f.write("\n\n_main = main\n\n\ndef main(argv=None):\n"
                "    print('patched')\n    return _main(argv)\n")
    listed, empty = tmp_path / "listed.txt", tmp_path / "empty.txt"
    listed.write_text(f"# the patched call\n\n{argv}\n")
    empty.write_text("")

    def compare(tree, expect):
        code = digest.main(["--quiet", "--against", str(tree),
                            "--expect", str(expect)])
        return (code, *capsys.readouterr())

    code, out, err = compare(patched, listed)  # a listed change
    assert code == 0 and err == ""
    assert out.endswith(f"1 of 1 calls differ from {patched}\n"
                        f"changed: {argv}\n")
    code, out, err = compare(patched, empty)   # a change not listed
    assert code == 1 and err == f"unlisted change: {argv}\n"
    code, out, err = compare(same, listed)     # a listed call that held
    assert code == 1 and err == f"listed but unchanged: {argv}\n"
    assert out.endswith(f"0 of 1 calls differ from {same}\n")
    assert compare(same, empty)[:2] == (0, out)
