"""The benchmark's tracer (perfbench/tracing.py) wraps occlm functions by
module and name; renaming or deleting one of them must fail here, not only
in a traced benchmark run."""

import importlib
import os

from occlm import cli, model

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = (model.save_checkpoint, cli.write_manifest)
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        assert model.save_checkpoint is not before[0]
        assert cli.write_manifest is not before[1]
    finally:
        tracer.uninstall()
    assert (model.save_checkpoint, cli.write_manifest) == before
