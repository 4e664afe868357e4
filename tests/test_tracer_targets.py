"""The benchmark's call tracer (benchmarks/tracing.py) patches functions by
module attribute, some of them names kept only for it (``store.hash_bytes``,
``cli.save_checkpoint``, ``backbone.write_store``). Installing and removing it
here keeps a renamed or deleted target from passing this suite while every
traced benchmark run fails."""

import importlib.util
from pathlib import Path

from modalfuse import backbone, cli

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_target():
    tracing = load_tracing()
    forward, backward = backbone.Linear.forward, backbone.Linear.backward
    main = cli.main
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert backbone.Linear.forward is not forward
        assert backbone.Linear.backward is not backward
        assert cli.main is not main
    finally:
        tracer.uninstall()
    assert backbone.Linear.forward is forward
    assert backbone.Linear.backward is backward
    assert cli.main is main
