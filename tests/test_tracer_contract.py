"""The benchmark's tracer patches package attributes by name and reads
their results; a refactor that breaks a traced run fails here."""

import importlib.util
from pathlib import Path

import numpy as np

from conftest import DESK_CONFIG
from ecsched import baselines, sampler
from ecsched.generate import GenConfig, generate_instance, generate_instances
from ecsched.model import build_option_table
from ecsched.nn import ROW_TILE
from ecsched.sampler import TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def distinct_rows(inst, network):
    """Rows of the uncached link and program forwards, from the option
    table: a capacity-only row per (user, link) and per user, then the
    weighted links and the valid options of every slot."""
    table = build_option_table(inst.topology)
    t, n, _ = inst.dims
    return (n * network.n_links + t * int((table.weights > 0).sum()),
            n + t * int(table.valid.sum()))


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

    # one call per encoder, each on the distinct rows of its encoder
    forwards = [(name, attrs) for _, _, name, _, _, attrs in tracer.spans
                if name.startswith("nn.mlp_forward.")]
    assert sorted(name for name, _ in forwards) == sorted(
        f"nn.mlp_forward.{encoder}" for encoder in tracing.ENCODERS)
    t, n, k = inst.dims
    link, program = distinct_rows(inst, network)
    assert link < t * n * k * network.n_options * network.n_links
    assert [attrs["rows"] for name, attrs in forwards] == [link, program, t * n * k]


def test_traced_default_size_best_of_keeps_one_span_per_encoder():
    # its distinct link and program rows span several row tiles
    tracing = load_tracer()
    network = sampler.load_model(PERFBENCH / "desk_model.json")
    inst = generate_instance(GenConfig(), seed=9000)
    tracer = tracing.Tracer()
    tracer.label_network(network)
    with tracing.installed(tracer), tracer.recording():
        sampler.best_of_detailed(network, inst, 2, np.random.default_rng(0))

    forwards = [(name, attrs["rows"]) for _, _, name, _, _, attrs in tracer.spans
                if name.startswith("nn.mlp_forward.")]
    t, n, k = inst.dims
    link, program = distinct_rows(inst, network)
    assert link > 2 * ROW_TILE and program > 2 * ROW_TILE
    assert forwards == [("nn.mlp_forward.link", link), ("nn.mlp_forward.program", program),
                        ("nn.mlp_forward.ranking", t * n * k)]


def test_traced_training_keeps_the_encoder_spans_and_rows():
    tracing = load_tracer()
    train = generate_instances(DESK_CONFIG, 3)
    held = [generate_instance(DESK_CONFIG, seed=9000)]
    network = sampler.create_network(seed=3)
    tracer = tracing.Tracer()
    tracer.label_network(network)
    with tracing.installed(tracer), tracer.recording():
        sampler.train(network, train, TrainConfig(n_epochs=1, seed=7, metric_samples=2), held)

    names = [name for _, _, name, _, _, _ in tracer.spans]
    for encoder in tracing.ENCODERS:
        assert names.count(f"nn.mlp_backward.{encoder}") == len(train)
    link_rows, program_rows = ([attrs["rows"] for _, _, name, _, _, attrs in tracer.spans
                                if name == f"nn.mlp_forward.{encoder}"]
                               for encoder in ("link", "program"))
    # one forward per descent step, then one per instance in the metric
    # pass, each on the distinct rows
    distinct = [distinct_rows(inst, network) for inst in train + train + held]
    assert link_rows == [d[0] for d in distinct]
    assert program_rows == [d[1] for d in distinct]
    # the metric pass draws and prices each instance's samples in one call
    metric_instances = len(train) + len(held)
    assert names.count("model.soft_loss") == metric_instances
    assert names.count("gumbel.sample_gumbel") == len(train) + metric_instances
