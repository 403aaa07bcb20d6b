"""Each script under scripts/ runs end to end at tiny sizes."""

import os
import runpy
import sys

import pytest

SCRIPTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script, args", [
    ("run_comparison.py",
     "--sentences 200 --vocab-size 300 --seeds 1 --epochs 1"),
    ("run_sweep_demo.py", "--sentences 200 --trials 1 --max-epochs 1 --out {tmp}"),
], ids=["run_comparison", "run_sweep_demo"])
def test_script_runs_at_tiny_size(script, args, tmp_path, monkeypatch, capsys):
    path = os.path.join(SCRIPTS, script)
    monkeypatch.setattr(sys, "argv", [path] + args.format(tmp=tmp_path).split())
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out
