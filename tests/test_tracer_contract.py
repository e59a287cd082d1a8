"""The benchmark's tracer patches package attributes by name and reads
their results; a refactor that breaks a traced run fails here."""

import importlib.util
from pathlib import Path

import numpy as np

from conftest import DESK_CONFIG
from ecsched import baselines, sampler
from ecsched.generate import generate_instance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_best_of_runs_keep_the_tracer_contract():
    tracing = load_tracer()
    for module, attr, _, _ in tracing.patch_points():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

    network = sampler.load_model(PERFBENCH / "desk_model.json")
    inst = generate_instance(DESK_CONFIG, seed=9000)
    tracer = tracing.Tracer()
    tracer.label_network(network)
    with tracing.installed(tracer), tracer.recording():
        sampler.best_of_detailed(network, inst, 20, np.random.default_rng(0))
        baselines.rsn_best_of_detailed(inst, 20, np.random.default_rng(1))

    priced = [attrs for _, _, name, _, _, attrs in tracer.spans
              if name == "model.evaluate_hard"]
    assert len(priced) == 40
    assert all("policy" in attrs for attrs in priced)
    assert [attrs["policy"] for attrs in priced] == ["gssn"] * 20 + ["rsn"] * 20
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["gumbel.categorical_rows.calls"] == (1, "count")
    assert metrics["sampler.best_of_detailed.calls"] == (1, "count")
