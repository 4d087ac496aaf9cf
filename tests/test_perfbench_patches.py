"""perfbench times layers by swapping package attributes that it looks up
by name. A refactor that drops or renames one breaks only the traced
benchmark run, so the lookups are checked here."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def perfbench():
    # run.py sets sys.dont_write_bytecode when imported.
    saved = sys.dont_write_bytecode
    try:
        yield _load("run"), _load("tracer")
    finally:
        sys.dont_write_bytecode = saved


def _current(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def test_patch_table_installs_and_restores(perfbench):
    run, tracer = perfbench
    patches = run.trace_patches(tracer.Tracer()) + run.Tune("tune_large", 0).timing_patches()
    originals = [(owner, key, _current(owner, key)) for owner, key, _ in patches]
    with tracer.Tracer().installed(patches):
        assert all(_current(owner, key) is not orig for owner, key, orig in originals)
    assert all(_current(owner, key) is orig for owner, key, orig in originals)


def test_timed_fitness_calls_match_evaluations(perfbench):
    # perfbench refuses a run whose timed fitness calls differ from the
    # evaluations the tuned trials report; every call must pass the patch.
    from windlssvm.experiment import PERSISTENCE, ExperimentConfig, run_experiment
    from windlssvm.swarm import SwarmConfig
    from windlssvm.synthetic import SyntheticSpec

    run, tracer = perfbench
    tune = run.Tune("tune_large", 0)
    config = ExperimentConfig(
        synthetic=SyntheticSpec(n=600, seed=3),
        n_lags=8,
        select_fraction=0.25,
        swarm=SwarmConfig(population=6, max_iter=4),
        trials=1,
        base_seed=10,
    )
    with tracer.Tracer().installed(tune.timing_patches()):
        report = run_experiment(config, log=lambda *_: None)
    tuned = [tr for tr in report.trials if tr.strategy != PERSISTENCE]
    assert len(tuned) == 3 and all(tr.ok for tr in tuned)
    assert len(tune.op_ms) == sum(tr.evaluations for tr in tuned)
