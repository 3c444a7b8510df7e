"""Smoke runs of the scripts under scripts/ with tiny arguments."""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("bound_landscape", ["--n", "1000"]),
        ("rate_demo", ["--sizes", "20", "--trials", "50"]),
        ("run_validation_grid", ["--trials", "20", "--out-dir", "{tmp}"]),
    ],
)
def test_script_main_runs(capsys, tmp_path, name, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert load(name).main(argv) == 0
    out = capsys.readouterr().out
    assert out.strip()


def test_bound_landscape_covers_every_probability_procedure(capsys):
    load("bound_landscape").main(["--n", "1000"])
    out = capsys.readouterr().out
    for name in ("symmetric-large", "symmetric-small", "symmetric-combined", "kfold", "holdout"):
        assert f"{name}:" in out
    assert "l1-chained:" in out
