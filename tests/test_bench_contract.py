"""Every package name the benchmark's tracer wraps exists, and is called.

``bench/tracing.py`` replaces each engine op in ``ENGINE_OPS`` and each
``(module, function)`` in ``CALLS`` by ``getattr``, so deleting or renaming
one breaks the benchmark.  ``per_layer`` in ``bench/run.py`` raises on a
metric that no span measures, so a call that training or evaluation stops
making breaks it too.  These tests load the tracer as it is and fail first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from efanet import cli, dataio, engine, pipeline
from efanet.checkpoint import load_checkpoint
from test_cli import tiny_run_config

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


def test_traced_toy_run_leaves_a_span_per_call(tmp_path):
    """A toy train() and evaluate() under the full tracer leave a span for
    every name in CALLS but ``checkpoint.load_checkpoint``, which the bench
    calls itself after training."""
    from efanet import train as T
    assert cli.main(["synth", "--n", "6", "--size", "32", "--seed", "3",
                     "--out", str(tmp_path / "data")]) == 0
    manifest = str(tmp_path / "data" / "manifest.tsv")
    cfg = tiny_run_config(tmp_path, manifest=manifest)
    tracer = tracing.Tracer(full=True)
    try:
        tracer.install()
        tracer.set_phase("work")
        final, _, _ = T.train(cfg)
        T.evaluate(load_checkpoint(final)[0], cfg, manifest)
    finally:
        tracer.uninstall()
    names = {span[tracing.NAME] for span in tracer.spans}
    wanted = {f"{m}.{f}" for m, f in tracing.CALLS} - {"checkpoint.load_checkpoint"}
    missing = wanted - names
    assert not missing, f"no span for {sorted(missing)}"


def test_samples_carry_what_the_bench_reads(tmp_path):
    """The gradient check reads a generated sample's image, mask and edge,
    and the eval workloads a loaded record's image and mask."""
    sample = pipeline.synth_sample(np.random.default_rng(0), 64, "grad")
    assert sample.image.ndim == 3 and sample.image.shape[1:] == (64, 64)
    assert sample.mask.shape == sample.edge.shape == (1, 64, 64)
    assert cli.main(["synth", "--n", "2", "--size", "32", "--seed", "3",
                     "--out", str(tmp_path / "data")]) == 0
    record = dataio.read_manifest(tmp_path / "data" / "manifest.tsv")[0]
    loaded = pipeline.load_sample(record, 1)
    assert loaded.image.ndim == 3 and loaded.image.shape[1:] == (32, 32)
    assert loaded.mask.shape == (1, 32, 32)


def test_light_trace_gives_an_interval_per_step_after_the_first(tmp_path):
    """``op_ms`` on ``train-64`` comes from ``tracing.step_intervals``: one
    interval from each ``Adam.step`` return to the next inside one
    ``train()`` call.  Two toy calls of 4 and 3 steps under the light tracer
    give 3 + 2 intervals, each with its optimizer time and no phase parts."""
    from efanet import train as T
    assert cli.main(["synth", "--n", "6", "--size", "32", "--seed", "3",
                     "--out", str(tmp_path / "data")]) == 0
    manifest = str(tmp_path / "data" / "manifest.tsv")
    runs = []
    for epochs, max_steps in ((2, 4), (3, 3)):
        cfg = tiny_run_config(tmp_path, manifest=manifest)
        cfg.optim.epochs, cfg.optim.max_steps = epochs, max_steps
        runs.append(cfg)
    tracer = tracing.Tracer(full=False)
    try:
        tracer.install()
        tracer.set_phase("work")
        steps = [T.train(cfg)[1] for cfg in runs]
    finally:
        tracer.uninstall()
    assert steps == [4, 3]
    rows = tracing.step_intervals(tracer.spans, "work")
    assert len(rows) == sum(n - 1 for n in steps)
    for interval, *parts, optimizer in rows:
        assert parts == [None] * 4
        assert 0 < optimizer < interval
