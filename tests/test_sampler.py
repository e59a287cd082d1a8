"""Sampling network: features, alpha, draws, training loop, model files."""

import dataclasses
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (DESK_CONFIG, DESK_NET_SEED, HELD_SEED0, desk_instances,
                      hopeless_instance, make_tiny, recorded_protocol_loss)
from ecsched import gumbel, sampler
from ecsched.cli import main
from ecsched.generate import GenConfig, generate_instance
from ecsched.model import (DemandTensor, Instance, Topology,
                           build_option_table, evaluate_hard, soft_loss,
                           soft_loss_and_grad, total_cost)
from ecsched.sampler import (IntegrityError, TrainConfig, TrainingDiverged,
                             anneal_tau, best_of_detailed,
                             create_network, forward_alpha, load_model, preprocess,
                             save_model, train)
from ecsched.io import FormatError, write_instance
from ecsched.nn import ROW_ALIGN, mlp_backward, mlp_forward
from gradcheck import gssn_grad_check


def small_net(inst, seed=0):
    return (create_network(n_links=inst.topology.n_isps, seed=seed),
            build_option_table(inst.topology))


# ---------------------------------------------------------------------------
# feature matrix
# ---------------------------------------------------------------------------

def test_feature_matrix_layout():
    inst = make_tiny(0, n_users=2, n_slots=3, n_types=2, n_isps=4)
    table = build_option_table(inst.topology)
    inp = preprocess(inst, table)
    t, n, k = inst.dims
    p, el = table.n_options, 4
    assert inp.matrix.shape == (t * n * k * p * el, 4)
    assert inp.valid.shape == (t * n * k, p)
    assert inp.n_options == 15 and inp.n_links == 4

    ti, ni, ki, pi, ji = 1, 0, 1, 6, 2
    row = inp.matrix[((((ti * n + ni) * k + ki) * p + pi) * el + ji)]
    w = table.weights[ki, ni, pi, ji]
    assert row[0] == pytest.approx(w * inst.demands.inbound[ki, ni, ti])
    assert row[1] == pytest.approx(w * inst.demands.outbound[ki, ni, ti])
    assert row[2] == inst.topology.edge_cap_basic[ni, ji]
    assert row[3] == inst.topology.edge_cap_billable[ni, ji]


def test_padded_rows_keep_caps_zero_traffic():
    # type 0 has one admissible link of three, type 1 two
    inst = make_tiny(1, n_users=1, n_types=2, n_isps=3, full_admissible=False)
    table = build_option_table(inst.topology)
    assert table.n_valid[:, 0].tolist() == [1, 3]
    inp = preprocess(inst, table)
    t, n, k = inst.dims
    mat = inp.matrix.reshape(t, n, k, 7, 3, 4)
    for ki in range(k):
        nv = int(table.n_valid[ki, 0])
        pad = mat[:, 0, ki, nv:]
        assert pad[..., :2].sum() == 0.0
        assert (pad[..., 2] == inst.topology.edge_cap_basic[0][None, None]).all()
        assert (pad[..., 3] == inst.topology.edge_cap_billable[0][None, None]).all()
        assert not inp.valid.reshape(t, n, k, 7)[:, 0, ki, nv:].any()


def test_doubled_demand_doubles_traffic_columns():
    inst = make_tiny(2, n_users=2, n_types=2)
    double = Instance(
        topology=inst.topology,
        demands=DemandTensor(inbound=inst.demands.inbound * 2.0,
                             outbound=inst.demands.outbound * 2.0),
        instance_id="double")
    a = preprocess(inst)
    b = preprocess(double)
    np.testing.assert_allclose(b.matrix[:, :2], 2.0 * a.matrix[:, :2])
    np.testing.assert_array_equal(b.matrix[:, 2:], a.matrix[:, 2:])


# ---------------------------------------------------------------------------
# alpha and draws
# ---------------------------------------------------------------------------

def test_alpha_shape_and_positivity():
    inst = make_tiny(3, n_users=2, n_slots=4, n_types=3, n_isps=4)
    net, table = small_net(inst)
    alpha, _ = forward_alpha(net, preprocess(inst, table))
    t, n, k = inst.dims
    assert alpha.values.shape == (t * n * k, table.n_options)
    assert (alpha.values > 0.0).all()
    assert alpha.dims == (t, n, k)


def reference_matrix(inst):
    """The feature matrix built column by column over all positions."""
    table = build_option_table(inst.topology)
    topo = inst.topology
    t, n, k = inst.dims
    matrix = np.empty((t, n, k, table.n_options, topo.n_isps, 4))
    for col, demand in enumerate((inst.demands.inbound, inst.demands.outbound)):
        np.einsum("knpj,knt->tnkpj", table.weights, demand, out=matrix[..., col])
    matrix[..., 2] = topo.edge_cap_basic[None, :, None, None, :]
    matrix[..., 3] = topo.edge_cap_billable[None, :, None, None, :]
    return matrix.reshape(-1, 4)


def corner_instance(case):
    """A tiny instance (3 users, 7 slots, 3 types, 4 links) at one corner of
    the uncached forward's distinct rows.  Its 945 options are not a
    multiple of nn.ROW_ALIGN."""
    inst = make_tiny(5, n_users=3, n_slots=7, n_types=3, n_isps=4, full_admissible=False)
    topo, demands = inst.topology, inst.demands
    if case == "zero-basic-caps":
        topo = dataclasses.replace(topo, edge_cap_basic=np.zeros_like(topo.edge_cap_basic))
    elif case == "zero-demand":
        # weighted links whose traffic columns are 0, like a capacity-only row
        inbound, outbound = demands.inbound.copy(), demands.outbound.copy()
        inbound[:, 1, :3] = outbound[:, 1, :3] = 0.0
        inbound[0, 2] = 0.0
        demands = DemandTensor(inbound=inbound, outbound=outbound)
    elif case == "user-without-padding":
        admissible = topo.admissible.copy()
        admissible[:, 0] = True
        topo = dataclasses.replace(topo, admissible=admissible)
    return Instance(topology=topo, demands=demands, instance_id=inst.instance_id, seed=inst.seed)


@pytest.mark.parametrize("case", ["default", "desk", "padded", "zero-basic-caps",
                                  "zero-demand", "user-without-padding"])
def test_forward_without_cache_gives_the_same_alpha(case):
    net = load_model(Path(__file__).resolve().parents[1] / "perfbench" / "desk_model.json")
    if case in ("default", "desk"):
        inst = generate_instance(GenConfig() if case == "default" else DESK_CONFIG, seed=HELD_SEED0)
    else:
        inst = corner_instance(case)
    inp = preprocess(inst)
    t, n, k = inp.dims
    padded = ~inp.valid.reshape(t, n, k, -1).all(axis=(0, 2, 3))
    if case == "user-without-padding":
        assert not padded[0] and padded[1:].any()
    elif case != "default":
        assert padded.any()
    # on the corner instances the fresh network's last BLAS rows round
    # apart from the rest, so it fails if a matmul's rows are not aligned
    for network in (net, create_network(seed=4)):
        alpha, caches = forward_alpha(network, inp)
        bare, none = forward_alpha(network, inp, keep_cache=False)
        assert none is None
        assert len(caches) == 3 and all(c is not None for c in caches)
        assert bare.values.tobytes() == alpha.values.tobytes()
        np.testing.assert_array_equal(bare.valid, alpha.valid)
        assert bare.dims == alpha.dims
    # the distinct rows, expanded by index, are the feature matrix
    assert inp.matrix.tobytes() == reference_matrix(inst).tobytes()
    assert len(inp.link_rows) < len(inp.matrix)



@pytest.mark.parametrize("config", [DESK_CONFIG, GenConfig()], ids=["desk", "default"])
def test_full_row_forward_equals_the_chained_encoders(config):
    # forward_alpha runs every row through the distinct-row routine; the
    # reference chains the three encoders on the feature matrix itself
    net = load_model(Path(__file__).resolve().parents[1] / "perfbench" / "desk_model.json")
    inst = generate_instance(config, seed=HELD_SEED0)
    s, link_cache = mlp_forward(net.link, reference_matrix(inst) * np.asarray(net.input_scale))
    v, program_cache = mlp_forward(net.program, s.reshape(-1, net.n_links))
    a, ranking_cache = mlp_forward(net.ranking, v.reshape(-1, net.n_options))
    alpha, caches = forward_alpha(net, preprocess(inst))
    assert alpha.values.tobytes() == a.tobytes()
    for got, want in zip(caches, (link_cache, program_cache, ranking_cache), strict=True):
        for x, y in zip((*got[0], got[1]), (*want[0], want[1]), strict=True):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()

# want: sha256 of the uncached alpha bytes on seed 100001 with the stored
# benchmark network, where each encoder runs more than 4,096 rows
@pytest.mark.parametrize("config, blocks, link_rows, want", [
    (GenConfig(n_slots=96), 7680, 71464,
     "d032d1da858c48319c1391bd4076c624523ab2d3f428c40d956dbd2d5805711d"),
    (GenConfig(n_users=30), 11520, 108312,
     "cda2e42f21a04ae08f28863924b62935bff07cacae5690684800e784c27c9171"),
], ids=["96-slots", "30-users"])
def test_large_instance_alpha_bytes_are_pinned(config, blocks, link_rows, want):
    net = load_model(Path(__file__).resolve().parents[1] / "perfbench" / "desk_model.json")
    inp = preprocess(generate_instance(config, seed=100001))
    bare, _ = forward_alpha(net, inp, keep_cache=False)
    assert bare.values.shape[0] == blocks and len(inp.link_rows) == link_rows
    assert hashlib.sha256(bare.values.tobytes()).hexdigest() == want
    alpha, _ = forward_alpha(net, inp)
    assert alpha.values.tobytes() == bare.values.tobytes()


def test_input_scale_is_applied_by_the_sampler(tmp_path):
    # nn knows nothing of features; the sampler scales the link rows it runs
    inst = generate_instance(DESK_CONFIG, seed=HELD_SEED0)
    inp = preprocess(inst)
    plain = create_network(seed=4)
    scale = (0.02, 0.005, 0.004, 0.001)
    scaled = dataclasses.replace(plain, input_scale=scale)
    s, _ = mlp_forward(scaled.link, reference_matrix(inst) * np.asarray(scale))
    v, _ = mlp_forward(scaled.program, s.reshape(-1, scaled.n_links))
    reference, _ = mlp_forward(scaled.ranking, v.reshape(-1, scaled.n_options))
    for keep_cache in (True, False):
        alpha, _ = forward_alpha(scaled, inp, keep_cache=keep_cache)
        assert alpha.values.tobytes() == reference.tobytes()
    assert not np.array_equal(forward_alpha(plain, inp)[0].values, reference)
    save_model(scaled, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    assert loaded.input_scale == scale
    assert forward_alpha(loaded, inp, keep_cache=False)[0].values.tobytes() == reference.tobytes()


def traced_peak(call):
    """Peak bytes that tracemalloc sees while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_uncached_forward_never_builds_the_feature_matrix():
    net = load_model(Path(__file__).resolve().parents[1] / "perfbench" / "desk_model.json")
    inp = preprocess(generate_instance(GenConfig(), seed=HELD_SEED0))
    t, n, k = inp.dims
    matrix_bytes = t * n * k * inp.n_options * inp.n_links * 4 * 8
    peak = traced_peak(lambda: forward_alpha(net, inp, keep_cache=False))
    # the full rows are never built, nor any array of their size
    assert "matrix" not in vars(inp)
    assert peak < matrix_bytes


def test_network_size_mismatch_rejected():
    inst = make_tiny(3, n_isps=2)
    net = create_network(n_links=4)
    with pytest.raises(ValueError):
        forward_alpha(net, preprocess(inst))


def test_identical_blocks_get_identical_rows():
    # constant demands make every slot's block identical for a (user, type)
    inst = make_tiny(4, n_users=2, n_slots=5, n_types=2, n_isps=4)
    d_in = np.broadcast_to(inst.demands.inbound[:, :, :1],
                           inst.demands.inbound.shape).copy()
    d_out = np.broadcast_to(inst.demands.outbound[:, :, :1],
                            inst.demands.outbound.shape).copy()
    flat = Instance(topology=inst.topology,
                    demands=DemandTensor(inbound=d_in, outbound=d_out),
                    instance_id="flat")
    net, table = small_net(flat)
    alpha, _ = forward_alpha(net, preprocess(flat, table))
    t, n, k = flat.dims
    rows = alpha.values.reshape(t, n * k, -1)
    for ti in range(1, t):
        np.testing.assert_array_equal(rows[ti], rows[0])


def test_user_permutation_equivariance():
    inst = make_tiny(5, n_users=3, n_slots=4, n_types=2, n_isps=4,
                     full_admissible=False)
    perm = np.array([2, 0, 1])
    topo = inst.topology
    import dataclasses
    permuted = Instance(
        topology=dataclasses.replace(
            topo,
            edge_cap_basic=topo.edge_cap_basic[perm],
            edge_cap_billable=topo.edge_cap_billable[perm],
            edge_cap_phys=topo.edge_cap_phys[perm],
            edge_rate=topo.edge_rate[perm],
            admissible=topo.admissible[:, perm]),
        demands=DemandTensor(inbound=inst.demands.inbound[:, perm],
                             outbound=inst.demands.outbound[:, perm]),
        instance_id="perm")
    net, table = small_net(inst)
    table_p = build_option_table(permuted.topology)
    a = forward_alpha(net, preprocess(inst, table))[0].values
    b = forward_alpha(net, preprocess(permuted, table_p))[0].values
    t, n, k = inst.dims
    a = a.reshape(t, n, k, -1)
    b = b.reshape(t, n, k, -1)
    np.testing.assert_array_equal(b, a[:, perm])


def test_hard_draws_stay_valid():
    inst = make_tiny(6, n_users=2, n_slots=3, n_types=2, n_isps=3,
                     full_admissible=False)
    net, table = small_net(inst)
    alpha, _ = forward_alpha(net, preprocess(inst, table))
    rng = np.random.default_rng(0)
    n_valid = table.n_valid.transpose(1, 0).reshape(-1)  # (n, k) order per block
    t, n, k = inst.dims
    nv_blocks = np.tile(table.n_valid.T.reshape(-1), t)
    draws = gumbel.categorical_rows(alpha.values, alpha.valid, rng, 5000)
    assert draws.shape == (5000, t * n * k)
    assert (draws < nv_blocks).all() and (draws >= 0).all()


def test_single_valid_option_is_forced():
    adm = np.zeros((2, 1, 3), dtype=bool)
    adm[:, :, 1] = True
    topo = Topology(
        edge_cap_basic=np.full((1, 3), 100.0),
        edge_cap_billable=np.full((1, 3), 500.0),
        edge_cap_phys=np.full((1, 3), 10000.0),
        edge_rate=np.full((1, 3), 5.0),
        isp_cap_basic=np.full(3, 250.0),
        isp_cap_billable=np.full(3, 1200.0),
        isp_cap_phys=np.full(3, 25000.0),
        isp_rate=np.full(3, 6.0),
        admissible=adm)
    inst = Instance(topology=topo,
                    demands=DemandTensor(inbound=np.full((2, 1, 4), 10.0),
                                         outbound=np.full((2, 1, 4), 10.0)),
                    instance_id="forced")
    net, table = small_net(inst)
    alpha, _ = forward_alpha(net, preprocess(inst, table))
    rng = np.random.default_rng(1)
    assert (gumbel.categorical_rows(alpha.values, alpha.valid, rng, 20) == 0).all()
    x, _ = gumbel.concrete_rows(alpha.values, alpha.valid, 0.7, rng, 20)
    np.testing.assert_array_equal(x[..., 0], np.ones((20, 4 * 1 * 2)))
    assert x[..., 1:].sum() == 0.0


def test_hard_draw_frequencies_match_alpha():
    inst = make_tiny(7, n_users=1, n_slots=1, n_types=1, n_isps=2)
    net, table = small_net(inst, seed=5)
    alpha, _ = forward_alpha(net, preprocess(inst, table))
    probs = alpha.values[0] / alpha.values[0].sum()
    rng = np.random.default_rng(2)
    draws = gumbel.categorical_rows(
        np.tile(alpha.values, (200000, 1)),
        np.tile(alpha.valid, (200000, 1)), rng, 1)[0]
    freq = np.bincount(draws, minlength=3) / draws.size
    np.testing.assert_allclose(freq, probs, atol=0.01)


def test_rounded_soft_draws_follow_rounding_law():
    # argmax of a relaxed draw is distributed like alpha regardless of tau
    inst = make_tiny(8, n_users=1, n_slots=1, n_types=1, n_isps=2)
    net, table = small_net(inst, seed=6)
    alpha, _ = forward_alpha(net, preprocess(inst, table))
    probs = alpha.values[0] / alpha.values[0].sum()
    rng = np.random.default_rng(3)
    rows, _ = gumbel.concrete_rows(
        np.tile(alpha.values, (200000, 1)),
        np.tile(alpha.valid, (200000, 1)), 0.7, rng)
    freq = np.bincount(rows.argmax(axis=1), minlength=3) / rows.shape[0]
    assert 0.5 * np.abs(freq - probs).sum() <= 0.02


def test_soft_draw_entropy_shrinks_with_tau():
    inst = make_tiny(9, n_users=2, n_slots=3, n_types=2, n_isps=4)
    net, table = small_net(inst, seed=7)
    alpha, _ = forward_alpha(net, preprocess(inst, table))
    means = []
    for tau in (2.0, 1.0, 0.5, 0.31):
        rng = np.random.default_rng(4)
        ent = []
        for _ in range(300):
            x, _ = gumbel.concrete_rows(alpha.values, alpha.valid, tau, rng)
            q = np.clip(x, 1e-12, 1.0)
            ent.append(float(-(q * np.log(q) * alpha.valid).sum(axis=1).mean()))
        means.append(np.mean(ent))
    assert means[0] > means[1] > means[2] > means[3]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_anneal_schedule():
    config = TrainConfig(n_epochs=100)
    assert anneal_tau(0, config) == 2.0
    assert anneal_tau(100, config) == 0.31
    taus = [anneal_tau(e, config) for e in range(101)]
    assert all(a >= b for a, b in zip(taus, taus[1:]))


def test_training_reduces_recorded_loss(desk_run):
    # recorded losses sit at each epoch's tau; compare at matched tau
    curve = [h.train_loss for h in desk_run["history"]]
    assert len(curve) == 100
    assert np.mean(curve[-10:]) < np.mean(desk_run["untrained_trailing"])


def test_history_is_reproducible():
    insts = [make_tiny(s, n_users=2, n_slots=4, n_types=2, n_isps=4,
                       demand_scale=6.0) for s in (0, 1)]
    held = [make_tiny(2, n_users=2, n_slots=4, n_types=2, n_isps=4,
                      demand_scale=6.0)]
    config = TrainConfig(n_epochs=3, seed=11)
    runs = []
    for _ in range(2):
        net = create_network(seed=2)
        history = train(net, insts, config, eval_instances=held)
        probe = forward_alpha(net, preprocess(insts[0]))[0].values
        runs.append((history, probe))
    h0, p0 = runs[0]
    h1, p1 = runs[1]
    assert [(s.train_loss, s.eval_loss, s.tau) for s in h0] == \
        [(s.train_loss, s.eval_loss, s.tau) for s in h1]
    assert np.array_equal(p0, p1)
    assert not np.isnan(h0[0].eval_loss)


# sha256 over a 4-epoch desk training history (repr of every field) and
# the final parameter bytes
DESK_TRAINING_SHA256 = "d0708622b6ead062f50137641f8c68a3c27272b9f93883a65f3cc4e21b13190c"


def test_desk_training_bytes_are_pinned():
    train_insts = desk_instances(20)
    held = [generate_instance(DESK_CONFIG, seed=HELD_SEED0 + i) for i in range(20)]
    net = create_network(seed=DESK_NET_SEED)
    history = train(net, train_insts, TrainConfig(n_epochs=4, seed=7), eval_instances=held)
    digest = hashlib.sha256()
    for h in history:
        digest.update(repr((h.epoch, h.tau, h.train_loss, h.eval_loss)).encode())
    for p in sampler.network_parameters(net):
        digest.update(p.tobytes())
    assert digest.hexdigest() == DESK_TRAINING_SHA256


def test_metric_pass_equals_per_draw_pricing():
    # one stacked soft_loss per instance gives each draw's own loss
    insts = [make_tiny(s, n_users=3, n_slots=21, n_types=2, n_isps=4, demand_scale=9.0)
             for s in (0, 1)] + [generate_instance(DESK_CONFIG, seed=HELD_SEED0)]
    net = create_network(seed=4)
    config = TrainConfig(n_epochs=1, lam_g=1.5)
    dataset = [(inst, build_option_table(inst.topology), preprocess(inst)) for inst in insts]
    got = sampler._mean_sampled_loss(net, dataset, 0.8, config, np.random.default_rng(6))
    assert got == recorded_protocol_loss(net, insts, 0.8, config, np.random.default_rng(6))


@pytest.mark.parametrize("case", ["empty", "training", "held-out"])
def test_train_checks_its_instances_before_any_update(case):
    net = create_network(seed=2)
    # heavy enough that a step on fit moves the parameters
    fit, misfit = make_tiny(0, n_isps=4, demand_scale=8.0), make_tiny(1, n_isps=3)
    instances, held = {"empty": ([], [fit]), "training": ([fit, misfit], []),
                       "held-out": ([fit], [fit, misfit])}[case]
    before = [p.tobytes() for p in sampler.network_parameters(net)]
    match = "at least one" if case == "empty" else f"instance {misfit.instance_id} has 3 ISPs"
    with pytest.raises(ValueError, match=match):
        train(net, instances, TrainConfig(n_epochs=2), held)
    assert [p.tobytes() for p in sampler.network_parameters(net)] == before


def test_divergence_is_reported():
    inst = make_tiny(0, n_isps=4)
    net = create_network(seed=2)
    net.link.weights[0][:] = np.nan
    with pytest.raises(TrainingDiverged, match="epoch 1"):
        train(net, [inst], TrainConfig(n_epochs=1))


# ---------------------------------------------------------------------------
# sampling policies
# ---------------------------------------------------------------------------

def test_best_of_is_min_over_feasible_draws():
    inst = make_tiny(5, n_users=2, n_slots=4, n_types=3, n_isps=3,
                     full_admissible=False, demand_scale=4.0)
    net, table = small_net(inst, seed=8)
    best, n_feasible = best_of_detailed(net, inst, 50, np.random.default_rng(5), table)

    # replay the identical draw stream by hand
    alpha, _ = forward_alpha(net, preprocess(inst, table))
    rng = np.random.default_rng(5)
    t, n, k = inst.dims
    costs = []
    for _ in range(50):
        idx = gumbel.categorical_rows(alpha.values, alpha.valid, rng, 1)
        cost, feasible = evaluate_hard(inst, table, idx.reshape(t, n, k))
        if feasible:
            costs.append(cost)
    assert n_feasible == len(costs)
    assert 0 < n_feasible < 50
    assert best is not None
    assert best[1] == min(costs)
    got_cost, got_feasible = evaluate_hard(inst, table, best[0].option)
    assert got_feasible and got_cost == best[1]


# sha256 over best_of_detailed's scheme bytes, cost repr and feasible count
# on three default-size instances with the stored benchmark network
GSSN_BEST_OF_SHA256 = "30692c8b157dbbe5ac07688f0ef4607127132eb68343611223a5ff2ce2d2ae13"


def test_gssn_best_of_bytes_are_pinned():
    network = load_model(Path(__file__).resolve().parents[1] / "perfbench" / "desk_model.json")
    digest = hashlib.sha256()
    for j, seed in enumerate(range(100000, 100003)):
        inst = generate_instance(GenConfig(), seed=seed)
        best, n_feasible = best_of_detailed(network, inst, 100, np.random.default_rng([1, j, 0]))
        assert best is not None
        scheme, cost = best
        digest.update(scheme.option.tobytes())
        digest.update(repr(cost).encode())
        digest.update(str(n_feasible).encode())
    assert digest.hexdigest() == GSSN_BEST_OF_SHA256


def test_best_of_keeps_no_full_size_activations():
    # the full-row forward with caches peaked at 73 MB here
    network = load_model(Path(__file__).resolve().parents[1] / "perfbench" / "desk_model.json")
    inst = generate_instance(GenConfig(), seed=100001)
    tracemalloc.start()
    try:
        best_of_detailed(network, inst, 100, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_best_of_none_when_nothing_fits():
    inst = hopeless_instance()
    net, table = small_net(inst, seed=9)
    best, n_feasible = best_of_detailed(net, inst, 40, np.random.default_rng(6), table)
    assert best is None and n_feasible == 0
    with pytest.raises(ValueError):
        best_of_detailed(net, inst, 0, np.random.default_rng(6), table)


def test_sampled_costs_behave(desk_run):
    inst = desk_run["held_instances"][0]
    net = desk_run["network"]
    table = build_option_table(inst.topology)
    alpha, _ = forward_alpha(net, preprocess(inst, table))
    rng = np.random.default_rng(7)
    t, n, k = inst.dims
    costs = []
    for _ in range(1000):
        idx = gumbel.categorical_rows(alpha.values, alpha.valid, rng, 1)
        cost, feasible = evaluate_hard(inst, table, idx.reshape(t, n, k))
        if feasible:
            costs.append(cost)
    costs = np.array(costs)
    assert costs.size > 900
    assert np.isfinite(costs).all() and (costs >= 0.0).all()


# ---------------------------------------------------------------------------
# gradient audit
# ---------------------------------------------------------------------------

def test_sampled_gradient_passes_extended_check():
    cfg = GenConfig(n_users=2, n_slots=6, n_types=2, n_isps=4)
    inst = generate_instance(cfg, seed=8)
    net = create_network(seed=1)
    report = gssn_grad_check(net, inst, tau=1.0, lam_g=1.0, n_coords=10,
                             h=1e-5, seed=0)
    assert len(report.coords) == 10
    assert report.max_rel_err < 1e-4
    assert any(abs(c[2]) > 1e-8 for c in report.coords)


def test_grad_check_catches_corrupted_billing_gradient(monkeypatch):
    # the audit must see the package's gradient: scaling the billing
    # gradient by 1.1 leaves the loss alone and every live coordinate
    # off by 0.1 / 1.1
    cfg = GenConfig(n_users=2, n_slots=6, n_types=2, n_isps=4)
    inst = generate_instance(cfg, seed=8)
    net = create_network(seed=1)
    soft_loss_and_grad = sampler.soft_loss_and_grad

    def corrupted(*args):
        loss, dx = soft_loss_and_grad(*args)
        return loss, 1.1 * dx

    monkeypatch.setattr(sampler, "soft_loss_and_grad", corrupted)
    report = gssn_grad_check(net, inst, tau=1.0, lam_g=1.0, n_coords=10,
                             h=1e-5, seed=0)
    assert report.max_rel_err > 1e-2


def test_fixed_noise_loss_is_deterministic():
    cfg = GenConfig(n_users=2, n_slots=6, n_types=2, n_isps=4)
    inst = generate_instance(cfg, seed=8)
    net = create_network(seed=1)
    table = build_option_table(inst.topology)
    inp = preprocess(inst, table)
    noise = gumbel.sample_gumbel(np.random.default_rng([0, 3]), inp.valid.shape)
    l1, g1 = sampler.loss_grads_with_noise(net, inst, table, inp, 1.0, 1.0, noise)
    l2, g2 = sampler.loss_grads_with_noise(net, inst, table, inp, 1.0, 1.0, noise)
    assert l1 == l2
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)


def full_rows_loss_grads(network, instance, table, inp, tau, lam_g, gumbels):
    """The descent step with every encoder backward on the full caches."""
    alpha, (c1, c2, c3) = forward_alpha(network, inp)
    x_rows = gumbel.concrete_rows_given(alpha.values, alpha.valid, tau, gumbels)
    loss, dx = soft_loss_and_grad(instance, table, x_rows.reshape(*alpha.dims, -1), lam_g)
    dalpha = gumbel.concrete_rows_grad(alpha.values, alpha.valid, tau, x_rows,
                                       dx.reshape(x_rows.shape))
    dv_rows, g_rank = mlp_backward(network.ranking, c3, dalpha)
    ds_rows, g_prog = mlp_backward(network.program, c2, dv_rows.reshape(-1, 1))
    _, g_link = mlp_backward(network.link, c1, ds_rows.reshape(-1, 1))
    return loss, g_link + g_prog + g_rank


def descent_instance(case):
    """An instance at one corner of the descent step's distinct rows."""
    if case in ("desk", "default", "default-with-tail"):
        config = {"desk": DESK_CONFIG, "default": GenConfig(),
                  "default-with-tail": GenConfig(n_slots=47)}[case]
        return generate_instance(config, seed=HELD_SEED0)
    if case in ("padded", "user-without-padding"):
        # scaled so that the tiny instance's cost has a gradient
        inst = corner_instance(case)
        return Instance(topology=inst.topology,
                        demands=DemandTensor(inbound=inst.demands.inbound * 40.0,
                                             outbound=inst.demands.outbound * 40.0))
    inst = generate_instance(DESK_CONFIG, seed=HELD_SEED0)
    topo, demands = inst.topology, inst.demands
    if case == "zero-demand":
        demands = DemandTensor(inbound=np.zeros_like(demands.inbound),
                               outbound=np.zeros_like(demands.outbound))
    else:  # zero-caps
        topo = dataclasses.replace(topo, edge_cap_basic=np.zeros_like(topo.edge_cap_basic),
                                   edge_cap_billable=np.zeros_like(topo.edge_cap_billable))
    return Instance(topology=topo, demands=demands)


DESCENT_CASES = ["desk", "default", "default-with-tail", "padded",
                 "user-without-padding", "zero-demand", "zero-caps"]


@pytest.mark.parametrize("case", DESCENT_CASES)
def test_distinct_row_backward_equals_the_full_rows_backward(case):
    net = load_model(Path(__file__).resolve().parents[1] / "perfbench" / "desk_model.json")
    inst = descent_instance(case)
    table = build_option_table(inst.topology)
    inp = preprocess(inst, table)
    t, n, k = inp.dims
    tail = t * n * k * inp.n_options % ROW_ALIGN
    if case.startswith("default"):
        assert (tail > 0) == (case == "default-with-tail")
    padded = ~inp.valid.reshape(t, n, k, -1).all(axis=(0, 2, 3))
    if case == "padded":
        assert padded.all() and tail > 0
    elif case == "user-without-padding":
        assert not padded[0] and padded[1:].any()
    noise = gumbel.sample_gumbel(np.random.default_rng(11), inp.valid.shape)
    # the fresh network's last rows carry gradient on the corner
    # instances, so it fails if they backprop through misrounded rows
    for network in (net, create_network(seed=4)):
        loss, grads = sampler.loss_grads_with_noise(network, inst, table, inp, 0.5, 1.0, noise)
        want_loss, want = full_rows_loss_grads(network, inst, table, inp, 0.5, 1.0, noise)
        assert loss == want_loss
        assert [g.shape for g in grads] == [g.shape for g in want]
        for got, ref in zip(grads, want):
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
        assert any(np.any(g != 0.0) for g in want) == (case != "zero-demand")


# sha256 over the descent step's loss repr and gradient bytes on every
# descent case, with the stored benchmark network and a fresh one
DESCENT_STEP_SHA256 = "514d9f1f41a9b62b1a43a158abecaa7fc1b7825dddcf35272f48237296d4a8c6"


def test_descent_step_bytes_are_pinned():
    stored = load_model(Path(__file__).resolve().parents[1] / "perfbench" / "desk_model.json")
    digest = hashlib.sha256()
    for case in DESCENT_CASES:
        inst = descent_instance(case)
        table = build_option_table(inst.topology)
        inp = preprocess(inst, table)
        noise = gumbel.sample_gumbel(np.random.default_rng(11), inp.valid.shape)
        for network in (stored, create_network(seed=4)):
            loss, grads = sampler.loss_grads_with_noise(network, inst, table, inp, 0.5, 1.0, noise)
            digest.update(repr(loss).encode())
            for g in grads:
                digest.update(g.tobytes())
    assert digest.hexdigest() == DESCENT_STEP_SHA256


def test_descent_step_never_builds_the_feature_matrix(monkeypatch):
    net = load_model(Path(__file__).resolve().parents[1] / "perfbench" / "desk_model.json")
    inst = generate_instance(GenConfig(), seed=HELD_SEED0)
    table = build_option_table(inst.topology)
    inp = preprocess(inst, table)
    names = {id(net.link): "link", id(net.program): "program", id(net.ranking): "ranking"}
    calls = []

    def counted(mlp, x, **kwargs):
        calls.append((names[id(mlp)], len(x)))
        return mlp_forward(mlp, x, **kwargs)

    monkeypatch.setattr(sampler, "mlp_forward", counted)
    noise = gumbel.sample_gumbel(np.random.default_rng(0), inp.valid.shape)
    sampler.loss_grads_with_noise(net, inst, table, inp, 1.0, 1.0, noise)
    t, n, k = inp.dims
    assert "matrix" not in vars(inp)
    assert calls == [("link", len(inp.link_rows)), ("program", len(inp.program_links)),
                     ("ranking", t * n * k)]


def test_descent_backward_runs_on_the_distinct_rows(monkeypatch):
    net = create_network(seed=2)
    inst = generate_instance(DESK_CONFIG, seed=HELD_SEED0)
    table = build_option_table(inst.topology)
    inp = preprocess(inst, table)
    names = {id(net.link): "link", id(net.program): "program", id(net.ranking): "ranking"}
    calls = []

    def counted(mlp, cache, dy):
        calls.append((names[id(mlp)], len(dy), len(cache[0][0])))
        return mlp_backward(mlp, cache, dy)

    monkeypatch.setattr(sampler, "mlp_backward", counted)
    noise = gumbel.sample_gumbel(np.random.default_rng(0), inp.valid.shape)
    sampler.loss_grads_with_noise(net, inst, table, inp, 1.0, 1.0, noise)
    t, n, k = inp.dims
    assert len(inp.link_rows) < len(inp.matrix)
    assert calls == [("ranking", t * n * k, t * n * k),
                     ("program", len(inp.program_links), len(inp.program_links)),
                     ("link", len(inp.link_rows), len(inp.link_rows))]


def test_soft_draw_loss_matches_manual_pipeline():
    inst = make_tiny(4, n_users=2, n_slots=3, n_types=2, n_isps=4,
                     demand_scale=6.0)
    net, table = small_net(inst, seed=3)
    inp = preprocess(inst, table)
    noise = gumbel.sample_gumbel(np.random.default_rng(8), inp.valid.shape)
    loss, _ = sampler.loss_grads_with_noise(net, inst, table, inp, 0.9, 1.5, noise)
    alpha, _ = forward_alpha(net, inp)
    x = gumbel.concrete_rows_given(alpha.values, alpha.valid, 0.9, noise)
    t, n, k = inst.dims
    from ecsched.model import SoftAllocation
    manual = soft_loss(inst, SoftAllocation(x=x.reshape(t, n, k, -1)),
                       lam_g=1.5, table=table)
    assert loss == pytest.approx(manual, rel=1e-12)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def test_model_round_trip_bit_exact(tmp_path, desk_run):
    net = desk_run["network"]
    inst = desk_run["held_instances"][1]
    path = tmp_path / "model.json"
    save_model(net, path)
    back = load_model(path)
    table = build_option_table(inst.topology)
    inp = preprocess(inst, table)
    a = forward_alpha(net, inp)[0].values
    b = forward_alpha(back, inp)[0].values
    assert np.array_equal(a, b)
    first, _ = best_of_detailed(net, inst, 20, np.random.default_rng(9), table)
    second, _ = best_of_detailed(back, inst, 20, np.random.default_rng(9), table)
    assert first[1] == second[1]
    assert np.array_equal(first[0].option, second[0].option)


# sha256 of save_model's bytes for a fresh default network, and for the
# 2-link network that `ecsched train` builds and trains for one epoch
FRESH_MODEL_SHA256 = "0b3aa86ffa19221abf04058d9ccd96b9449e93936eb1e23312ac87091cb65327"
TWO_LINK_MODEL_SHA256 = "3516b3780fe5c97ff5b9b74cec5c8340787b88547fa344b3b4ce8b87416448a5"


def test_model_bytes_are_pinned(tmp_path):
    fresh = tmp_path / "fresh.json"
    save_model(create_network(seed=3), fresh)
    assert hashlib.sha256(fresh.read_bytes()).hexdigest() == FRESH_MODEL_SHA256

    insts = tmp_path / "insts"
    assert main(["gen", "--count", "2", "--users", "1", "--slots", "3",
                 "--types", "2", "--isps", "2", "--seed", "60",
                 "--out", str(insts)]) == 0
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"n_epochs": 1, "seed": 5, "metric_samples": 2}))
    two_link = tmp_path / "two_link.json"
    assert main(["train", "--instances", str(insts), "--config", str(cfg),
                 "--out", str(two_link)]) == 0
    assert load_model(two_link).n_links == 2
    assert hashlib.sha256(two_link.read_bytes()).hexdigest() == TWO_LINK_MODEL_SHA256


# sha256 over dtype, shape and bytes of every parameter load_model reads
# from the stored benchmark network, plus its input_scale
DESK_MODEL_LOAD_SHA256 = "daf1968d9d0a336c1a46502dc0f8546a6bf3054cbf1662fe390e42741d2c658c"


def test_loaded_model_bytes_are_pinned():
    network = load_model(Path(__file__).resolve().parents[1] / "perfbench" / "desk_model.json")
    digest = hashlib.sha256()
    for p in sampler.network_parameters(network):
        digest.update(repr((p.dtype.str, p.shape)).encode())
        digest.update(p.tobytes())
    digest.update(repr(network.input_scale).encode())
    assert digest.hexdigest() == DESK_MODEL_LOAD_SHA256


def test_model_corruption_detected(tmp_path):
    net = create_network(seed=4)
    path = tmp_path / "model.json"
    save_model(net, path)
    doc = json.loads(path.read_text())
    doc["encoders"]["link"]["layers"][0]["w"][0][0] += 1e-3
    path.write_text(json.dumps(doc))
    with pytest.raises(IntegrityError, match="checksum"):
        load_model(path)


def assert_model_rejected(tmp_path, doc, message):
    """load_model raises a FormatError matching message; `sample` exits 3."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=message):
        load_model(path)
    inst_path = tmp_path / "inst.json"
    write_instance(make_tiny(0, n_isps=4), inst_path)
    assert main(["sample", "--policy", "gssn", "--model", str(path),
                 "--instance", str(inst_path), "--out", str(tmp_path / "s.json")]) == 3


@pytest.mark.parametrize("field, value", [("n_options", 7), ("n_links", 3), ("alpha_eps", 1e-3)])
def test_model_sizes_must_match_encoders(tmp_path, field, value):
    path = tmp_path / "model.json"
    save_model(create_network(seed=4), path)
    doc = json.loads(path.read_text())
    doc[field] = value
    assert_model_rejected(tmp_path, doc, field)


def drop_link_input(doc):
    link = doc["encoders"]["link"]
    link["widths"][0] = 3
    link["layers"][0]["w"] = [row[:3] for row in link["layers"][0]["w"]]


def widen_output(name):
    def edit(doc):
        enc = doc["encoders"][name]
        enc["widths"][-1] = 2
        enc["layers"][-1]["w"].append(enc["layers"][-1]["w"][0])
        enc["layers"][-1]["b"].append(0.0)
    return edit


def narrow_ranking(doc):
    doc["encoders"]["ranking"] = sampler._encoder_doc(create_network(n_links=3).ranking)
    doc["n_options"] = 7


def shorten_input_scale(doc):
    doc["input_scale"] = doc["input_scale"][:3]


@pytest.mark.parametrize("edit, message", [
    (drop_link_input, "link encoder and input_scale must both take 4 features"),
    (shorten_input_scale, "link encoder and input_scale must both take 4 features"),
    (widen_output("link"), "link encoder must emit one score"),
    (widen_output("program"), "program encoder must emit one score"),
    (narrow_ranking, r"ranking head does not match n_options = 2\*\*n_links - 1"),
], ids=["link-input", "input-scale", "link-output", "program-output", "ranking-options"])
def test_model_encoders_must_fit_the_features(tmp_path, edit, message):
    path = tmp_path / "model.json"
    save_model(create_network(seed=4), path)
    doc = json.loads(path.read_text())
    edit(doc)
    doc["checksum"] = sampler._payload_checksum(doc["encoders"])
    assert_model_rejected(tmp_path, doc, message)


def set_encoder(name, key, value):
    def edit(doc):
        doc["encoders"][name][key] = value
    return edit


def string_weight(doc):
    doc["encoders"]["link"]["layers"][0]["w"][0][0] = "x"


def string_input_scale(doc):
    doc["input_scale"] = ["a", "b", "c", "d"]


@pytest.mark.parametrize("edit, message", [
    (string_input_scale, "'input_scale' in .* not a grid of finite numbers"),
    (string_weight, "'w' in layer 0 of link encoder of .* not a grid of finite numbers"),
    (set_encoder("link", "output", "tanh"), "link encoder of .*unknown output transform 'tanh'"),
    (set_encoder("program", "eps", "x"), "'eps' in program encoder of .* not a grid"),
    (set_encoder("ranking", "output", "identity"), "ranking encoder of .*needs output relu6_eps, eps > 0"),
    (set_encoder("ranking", "layers", []), "ranking encoder of .*disagree with declared widths"),
], ids=["string-input-scale", "string-weight", "tanh-output", "string-eps",
        "identity-ranking-head", "no-layers"])
def test_malformed_model_values_are_exit_3(tmp_path, edit, message):
    path = tmp_path / "model.json"
    save_model(create_network(seed=4), path)
    doc = json.loads(path.read_text())
    edit(doc)
    doc["checksum"] = sampler._payload_checksum(doc["encoders"])
    assert_model_rejected(tmp_path, doc, message)


def test_model_file_must_be_an_object(tmp_path):
    assert_model_rejected(tmp_path, 3, "top level must be a JSON object")


@pytest.mark.parametrize("field, value", [
    ("n_epochs", 0), ("metric_samples", 0), ("tau_start", -1.0), ("tau_end", 0.0),
    ("learning_rate", float("nan")), ("tau_start", float("inf")),
    ("lam_g", -0.5), ("lam_g", float("nan")),
])
def test_train_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_model_missing_field(tmp_path):
    net = create_network(seed=4)
    path = tmp_path / "model.json"
    save_model(net, path)
    doc = json.loads(path.read_text())
    del doc["input_scale"]
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="input_scale"):
        load_model(path)
    assert issubclass(IntegrityError, FormatError)
