"""Tests of the benchmark harness's own logic.

    python3 -m pytest perfbench/test_harness.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ecsched import baselines, generate, sampler  # noqa: E402
from ecsched.model import build_option_table  # noqa: E402

import hostspeed  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def span(sid, parent, name, start, end, **attrs):
    return [sid, parent, name, start, end, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(1, 0, "root", 0.0, 10.0),
        span(2, 1, "child", 1.0, 4.0),
        span(3, 1, "child", 5.0, 6.0),
        span(4, 2, "grandchild", 2.0, 3.0),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [span(1, 0, "root", 0.0, 10.0),
             span(2, 1, "a", 1.0, 3.0),
             span(3, 1, "b", 2.0, 5.0),
             span(4, 1, "c", 9.0, 12.0)]  # clipped to the parent's end
    assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 4.0 - 1.0)


def test_wrapped_calls_nest_and_aggregate():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return x + 1

    traced_leaf = tracing._wrap(tracer, leaf, "leaf")
    traced_outer = tracing._wrap(tracer, lambda x: traced_leaf(traced_leaf(x)), "outer")
    assert traced_outer(1) == 3  # not recording: no spans
    assert tracer.spans == []
    with tracer.recording():
        assert traced_outer(1) == 3
    # clock: outer opens at 0, leaves span 1-2 and 3-4, outer closes at 5
    assert [(s[0], s[1], s[2], s[3], s[4]) for s in tracer.spans] == [
        (1, 0, "outer", 0.0, 5.0), (2, 1, "leaf", 1.0, 2.0), (3, 1, "leaf", 3.0, 4.0)]
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["leaf.calls"] == (2, "count")
    assert metrics["leaf.self_s"] == (2.0, "s")
    assert metrics["outer.self_s"] == (3.0, "s")


def test_installed_patches_are_restored():
    original = sampler.mlp_forward
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert sampler.mlp_forward is not original
        assert sampler.mlp_forward.__wrapped__ is original
    assert sampler.mlp_forward is original


def test_encoder_spans_are_split_by_encoder():
    tracer = tracing.Tracer()
    net = sampler.create_network(seed=0)
    tracer.label_network(net)
    inst = generate.generate_instance(workloads.DESK, seed=101)
    with tracing.installed(tracer), tracer.recording():
        sampler.forward_alpha(net, sampler.preprocess(inst))
    names = [s[2] for s in tracer.spans]
    assert names == ["sampler.preprocess", "sampler.forward_alpha", "nn.mlp_forward.link",
                     "nn.mlp_forward.program", "nn.mlp_forward.ranking"]
    t, n, k = inst.dims
    assert tracer.spans[2][5]["rows"] == t * n * k * net.n_options * net.n_links


def test_tail_is_the_value_with_ten_samples_beyond_it():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.tail(values) == (90, 90.0)
    assert stats.tail(list(range(1, 21))) == (10, 50.0)
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_interleave_spreads_each_stage_over_the_run():
    merged = workloads.interleave(["a1", "a2", "a3", "a4"], ["b1"], ["c1", "c2"])
    assert merged == ["a1", "c1", "a2", "b1", "a3", "c2", "a4"]


def test_follow_up_operations_run_right_after_their_parent():
    run = workloads.Run()
    order = []
    child = workloads.Op("child", lambda: order.append("child"))
    parent = workloads.Op("parent", lambda: order.append("parent"), record=lambda r, s: [child])
    run.submit_all([parent, workloads.Op("next", lambda: order.append("next"))])
    assert order == ["parent", "child", "next"]
    assert (run.attempted, run.failed) == (3, 0)


def test_traced_plan_halves_distinct_operations():
    plan = workloads.Plan(train=9, sample=24, oracle=2, export=1)
    assert plan.scaled(30, traced=False) == plan
    assert plan.scaled(30, traced=True) == workloads.Plan(train=5, sample=12, oracle=1, export=1)
    assert plan.scaled(3, traced=False) == workloads.Plan(train=1, sample=2, oracle=1, export=1)


@pytest.fixture(scope="module")
def rsn_result():
    inst = generate.generate_instance(workloads.DESK, seed=9000)
    table = build_option_table(inst.topology)
    result = baselines.rsn_best_of_detailed(inst, 20, np.random.default_rng(0), table)
    assert result[0] is not None
    return inst, table, result


def test_correct_cost_passes_the_check(rsn_result):
    inst, table, result = rsn_result
    run = workloads.Run()
    op = workloads.Op("rsn", lambda: result, lambda r: workloads.check_best(inst, table, r))
    assert run.submit(op)
    assert (run.attempted, run.failed) == (1, 0)


def test_wrong_cost_is_counted_as_a_failure(rsn_result):
    inst, table, ((scheme, cost), n_feasible) = rsn_result
    wrong = ((scheme, cost * (1 + 1e-6) + 1e-3), n_feasible)
    run = workloads.Run()
    op = workloads.Op("rsn", lambda: wrong, lambda r: workloads.check_best(inst, table, r))
    assert run.submit(op) is None
    assert (run.attempted, run.failed) == (1, 1)
    assert "prices to" in run.errors[0]


def test_no_feasible_draw_is_an_outcome_not_a_failure(rsn_result):
    inst, table, _ = rsn_result
    assert workloads.check_best(inst, table, (None, 0)) is None
    assert "no best scheme" in workloads.check_best(inst, table, (None, 3))
    rec = {"ms": [], "cost": [], "feasible": 0, "draws": 0, "no_feasible": 0}
    workloads.record_best(rec, (None, 0), 0.05)
    assert rec == {"ms": [50.0], "cost": [], "feasible": 0, "draws": workloads.N_SAMPLES,
                   "no_feasible": 1}


def test_probe_is_the_geometric_mean_of_kernel_slowdowns():
    slowdowns = {"elementwise": 2.0, "interpreter": 4.0, "matmul": 1.0}
    ticks = [0.0]
    for name, reference in hostspeed.REFERENCE_S.items():
        ticks += [ticks[-1] + slowdowns[name] * reference] * 2
    probe = hostspeed.Probe(clock=iter(ticks).__next__)
    assert probe() == pytest.approx(2.0)


def test_operation_time_is_divided_by_the_surrounding_slowdown():
    run = workloads.Run(probe=iter([1.0, 4.0]).__next__)
    op = workloads.Op("busy", lambda: sum(i * i for i in range(20000)))
    _, seconds = run.submit(op)
    assert run.slowdowns == [2.0]
    assert seconds == pytest.approx(run.raw_s / 2.0)


def test_raising_operation_is_counted_as_a_failure():
    run = workloads.Run()

    def boom():
        raise ValueError("bad input")

    assert run.submit(workloads.Op("boom", boom)) is None
    assert (run.attempted, run.failed) == (1, 1)


def test_oracle_route_rejects_a_wrong_optimum(tmp_path):
    pool = workloads.tiny_seeds(0, 1)
    inst = workloads.priced_tiny(generate.generate_instance(workloads.TINY, seed=pool[0]))
    table = build_option_table(inst.topology)
    scheme, cost = baselines.brute_force(inst, table=table)
    (tmp_path / "files").mkdir()
    routed = workloads.milp_route(inst, table, scheme, tmp_path)
    assert workloads.check_route((scheme, cost), routed) is None
    assert "differs" in workloads.check_route((scheme, cost + 1.0), routed)


def test_soft_loss_is_traced_under_both_names():
    tracer = tracing.Tracer()
    net = sampler.create_network(seed=0)
    inst = generate.generate_instance(workloads.DESK, seed=9000)
    table = build_option_table(inst.topology)
    with tracing.installed(tracer), tracer.recording():
        workloads.heldout_loss(net, [(inst, table)], seed=0)
    names = [s[2] for s in tracer.spans]
    assert names.count("model.soft_loss") == workloads.HELDOUT_DRAWS
    roots = {s[2] for s in tracer.spans if s[1] == 0}
    assert "model.compute_flows" not in roots


def test_layer_metrics_match_the_benchmark_definition():
    import json
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    reported = set(tracing.layer_metrics([])) | {"trace.overhead_pct", "trace.spans"}
    assert reported == declared
