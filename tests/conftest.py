"""Shared fixtures: tiny exactly-solvable instances plus one desk-scale
training run reused by every slow end-to-end test."""

import dataclasses
import time

import numpy as np
import pytest

from ecsched import baselines, gumbel, sampler
from ecsched.generate import GenConfig, generate_instance
from ecsched.model import (AllocationScheme, DemandTensor, Instance, SoftAllocation,
                           Topology, build_option_table, compute_flows, soft_loss)
from ecsched.sampler import TrainConfig

DESK_CONFIG = GenConfig(n_users=4, n_slots=12, n_types=6, n_isps=4, seed=101)
DESK_TRAIN = TrainConfig(n_epochs=100, seed=7)
DESK_NET_SEED = 3
HELD_SEED0 = 9000
UNTRAINED_STREAM = 80


def desk_instances(count):
    """The first count desk training instances, instance i seeded with
    DESK_CONFIG.seed + i, as ``ecsched gen`` seeds them."""
    return [generate_instance(DESK_CONFIG, seed=DESK_CONFIG.seed + i) for i in range(count)]


def rsn_scheme(inst, rng, table=None):
    """One uniform random scheme: a block of one ``rsn_options`` draw."""
    if table is None:
        table = build_option_table(inst.topology)
    return AllocationScheme(option=baselines.rsn_options(inst, table, 1, rng)[0])


def priced_alone(inst, table, option):
    """One (T, N, K) scheme priced on its own through ``compute_flows``:
    its cost, or inf when it is infeasible.  The per-draw reference that
    the samplers' stacked ``evaluate_hard`` is checked against."""
    flows = compute_flows(inst, AllocationScheme(option=option), table)
    return flows.cost_total if flows.feasible else np.inf


def hopeless_instance():
    """One user, two links and three slots whose demand no option fits:
    90 Mbps overshoots a 30 Mbps physical cap alone or split in two."""
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
    return Instance(topology=topo,
                    demands=DemandTensor(inbound=np.full((1, 1, 3), 90.0),
                                         outbound=np.full((1, 1, 3), 90.0)),
                    instance_id="hopeless")


def make_tiny(seed, n_users=1, n_slots=3, n_types=2, n_isps=2,
              full_admissible=True, demand_scale=1.0):
    """Small generated instance; full_admissible opens every link to every pair.

    demand_scale multiplies both demand tensors; generator defaults are so
    light that tiny optima are zero, and a factor of ~8 makes the billing
    overages (and therefore the optimal costs) nontrivial while staying
    feasible.
    """
    cfg = GenConfig(n_users=n_users, n_slots=n_slots, n_types=n_types, n_isps=n_isps)
    inst = generate_instance(cfg, seed=seed)
    topo = inst.topology
    if full_admissible:
        topo = dataclasses.replace(topo, admissible=np.ones_like(topo.admissible))
    demands = inst.demands
    if demand_scale != 1.0:
        demands = DemandTensor(inbound=demands.inbound * demand_scale,
                               outbound=demands.outbound * demand_scale)
    return Instance(topology=topo, demands=demands,
                    instance_id=inst.instance_id, seed=inst.seed)


def recorded_protocol_loss(network, instances, tau, config, rng):
    """Mean soft loss as train() records it: metric_samples concrete draws
    per instance at temperature tau, one forward pass per instance.  Each
    draw is its own ``gumbel.concrete_rows`` call and is priced alone, an
    independent reference for train's one block and one stacked price."""
    vals = []
    for inst in instances:
        table = build_option_table(inst.topology)
        alpha, _ = sampler.forward_alpha(network, sampler.preprocess(inst, table))
        for _ in range(config.metric_samples):
            x, _ = gumbel.concrete_rows(alpha.values, alpha.valid, tau, rng)
            vals.append(soft_loss(inst, SoftAllocation(x=x.reshape(*alpha.dims, -1)),
                                  config.lam_g, table=table))
    return float(np.mean(vals))


@pytest.fixture(scope="session")
def desk_run():
    """One trained sampler plus its bench numbers, computed once per session."""
    t_start = time.perf_counter()
    train_insts = desk_instances(20)
    held = [generate_instance(DESK_CONFIG, seed=HELD_SEED0 + i) for i in range(20)]
    network = sampler.create_network(seed=DESK_NET_SEED)
    history = sampler.train(network, train_insts, DESK_TRAIN, eval_instances=held)

    def bench(policy, instances, stream):
        costs, feasible, hits = [], 0, 0
        for idx, inst in enumerate(instances):
            table = build_option_table(inst.topology)
            rng = np.random.default_rng([stream, idx])
            if policy == "gssn":
                best, nf = sampler.best_of_detailed(network, inst, 100, rng, table)
            else:
                best, nf = baselines.rsn_best_of_detailed(inst, 100, rng, table)
            feasible += nf
            if best is not None:
                hits += 1
                costs.append(best[1])
        return {"costs": np.array(costs), "n_feasible": feasible, "n_hit": hits,
                "n_samples": 100 * len(instances), "n_instances": len(instances)}

    result = {
        "config": DESK_CONFIG,
        "train_config": DESK_TRAIN,
        "network": network,
        "history": history,
        "train_instances": train_insts,
        "held_instances": held,
        "gssn_held": bench("gssn", held, 77),
        "rsn_held": bench("rsn", held, 78),
        "gssn_train": bench("gssn", train_insts, 79),
    }
    result["elapsed_s"] = time.perf_counter() - t_start
    # the untrained network at the taus of the last 10 epochs: recorded
    # losses are only comparable with losses measured at the same tau
    untrained = sampler.create_network(seed=DESK_NET_SEED)
    rng = np.random.default_rng(UNTRAINED_STREAM)
    result["untrained_trailing"] = np.array([
        recorded_protocol_loss(untrained, train_insts, h.tau, DESK_TRAIN, rng)
        for h in history[-10:]])
    return result
