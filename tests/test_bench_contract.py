"""Every package name the benchmark's tracer wraps exists.

``bench/tracing.py`` replaces each engine op in ``ENGINE_OPS`` and each
``(module, function)`` in ``CALLS`` by ``getattr``, so deleting or renaming
one breaks the benchmark.  These tests load the tracer as it is and fail
first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from efanet import engine

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("efanet_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name", sorted(tracing.ENGINE_OPS))
def test_engine_op_exists(name):
    assert callable(getattr(engine, name, None)), f"engine.{name}"


@pytest.mark.parametrize("module, function", tracing.CALLS,
                         ids=[f"{m}.{f}" for m, f in tracing.CALLS])
def test_call_exists(module, function):
    mod = importlib.import_module(f"efanet.{module}")
    assert callable(getattr(mod, function, None)), f"efanet.{module}.{function}"


def test_light_calls_are_calls():
    assert set(tracing.LIGHT_CALLS) <= set(tracing.CALLS)


def test_full_tracer_installs_and_restores():
    import efanet.train  # noqa: F401  (the tracer wraps every loaded module)
    before = {name: getattr(engine, name) for name in tracing.ENGINE_OPS}
    tracer = tracing.Tracer(full=True)
    try:
        tracer.install()
        assert all(getattr(engine, name) is not before[name] for name in before)
    finally:
        tracer.uninstall()
    assert {name: getattr(engine, name) for name in before} == before
