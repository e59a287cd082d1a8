"""Sampling network: features, alpha, draws, training loop, model files."""

import json

import numpy as np
import pytest

from conftest import make_tiny
from ecsched import gumbel, sampler
from ecsched.generate import GenConfig, generate_instance
from ecsched.model import (DemandTensor, Instance, Topology,
                           build_option_table, evaluate_hard, soft_loss,
                           total_cost)
from ecsched.sampler import (IntegrityError, TrainConfig, TrainingDiverged,
                             anneal_tau, best_of, best_of_detailed,
                             create_network, draw_hard, draw_soft,
                             forward_alpha, load_model, preprocess,
                             save_model, train)
from ecsched.io import FormatError
from gradcheck import gssn_grad_check


def small_net(inst, seed=0):
    table = build_option_table(inst.topology)
    return create_network(n_options=table.n_options,
                          n_links=inst.topology.n_isps, seed=seed), table


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
    inst = make_tiny(1, n_users=1, n_types=2, n_isps=2, full_admissible=False)
    table = build_option_table(inst.topology, n_options=15)
    inp = preprocess(inst, table)
    t, n, k = inst.dims
    mat = inp.matrix.reshape(t, n, k, 15, 2, 4)
    for ki in range(k):
        nv = int(table.n_valid[ki, 0])
        pad = mat[:, 0, ki, nv:]
        assert pad[..., :2].sum() == 0.0
        assert (pad[..., 2] == inst.topology.edge_cap_basic[0][None, None]).all()
        assert (pad[..., 3] == inst.topology.edge_cap_billable[0][None, None]).all()
        assert not inp.valid.reshape(t, n, k, 15)[:, 0, ki, nv:].any()


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


def test_network_size_mismatch_rejected():
    inst = make_tiny(3, n_isps=2)
    net = create_network(n_options=15, n_links=4)
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
    for _ in range(5000):
        scheme = draw_hard(alpha, rng)
        flat = scheme.option.reshape(-1)
        assert (flat < nv_blocks).all() and (flat >= 0).all()


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
    scheme = draw_hard(alpha, rng)
    assert (scheme.option == 0).all()
    soft = draw_soft(alpha, 0.7, rng)
    np.testing.assert_array_equal(soft.x[..., 0], np.ones((4, 1, 2)))
    assert soft.x[..., 1:].sum() == 0.0


def test_hard_draw_frequencies_match_alpha():
    inst = make_tiny(7, n_users=1, n_slots=1, n_types=1, n_isps=2)
    net, table = small_net(inst, seed=5)
    alpha, _ = forward_alpha(net, preprocess(inst, table))
    probs = alpha.values[0] / alpha.values[0].sum()
    rng = np.random.default_rng(2)
    draws = gumbel.categorical_rows(
        np.tile(alpha.values, (200000, 1)),
        np.tile(alpha.valid, (200000, 1)), rng)
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
    assert anneal_tau(100, config) == pytest.approx(0.31)
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
        idx = gumbel.categorical_rows(alpha.values, alpha.valid, rng)
        cost, feasible = evaluate_hard(inst, table, idx.reshape(t, n, k))
        if feasible:
            costs.append(cost)
    assert n_feasible == len(costs)
    assert 0 < n_feasible < 50
    assert best is not None
    assert best[1] == min(costs)
    got_cost, got_feasible = evaluate_hard(inst, table, best[0].option)
    assert got_feasible and got_cost == best[1]


def test_best_of_none_when_nothing_fits():
    topo = Topology(
        edge_cap_basic=np.full((1, 2), 10.0),
        edge_cap_billable=np.full((1, 2), 20.0),
        edge_cap_phys=np.full((1, 2), 30.0),
        edge_rate=np.full((1, 2), 5.0),
        isp_cap_basic=np.full(2, 8.0),
        isp_cap_billable=np.full(2, 18.0),
        isp_cap_phys=np.full(2, 28.0),
        isp_rate=np.full(2, 5.0),
        admissible=np.ones((1, 1, 2), dtype=bool))
    inst = Instance(topology=topo,
                    demands=DemandTensor(inbound=np.full((1, 1, 3), 90.0),
                                         outbound=np.full((1, 1, 3), 90.0)),
                    instance_id="hopeless")
    net, table = small_net(inst, seed=9)
    best, n_feasible = best_of_detailed(net, inst, 40, np.random.default_rng(6), table)
    assert best is None and n_feasible == 0
    assert best_of(net, inst, 40, np.random.default_rng(6), table) is None
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
        idx = gumbel.categorical_rows(alpha.values, alpha.valid, rng)
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
    first = best_of(net, inst, 20, np.random.default_rng(9), table)
    second = best_of(back, inst, 20, np.random.default_rng(9), table)
    assert first[1] == second[1]
    assert np.array_equal(first[0].option, second[0].option)


def test_model_corruption_detected(tmp_path):
    net = create_network(seed=4)
    path = tmp_path / "model.json"
    save_model(net, path)
    doc = json.loads(path.read_text())
    doc["encoders"]["link"]["layers"][0]["w"][0][0] += 1e-3
    path.write_text(json.dumps(doc))
    with pytest.raises(IntegrityError, match="checksum"):
        load_model(path)


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
