"""Generator invariants: parameter intervals, demand bounds, determinism."""

import numpy as np
import pytest

from conftest import DESK_CONFIG
from ecsched.generate import (GenConfig, generate_instance, generate_instances,
                              sample_static)


def topology_arrays(topo):
    return (topo.edge_cap_basic, topo.edge_cap_billable, topo.edge_cap_phys,
            topo.edge_rate, topo.isp_cap_basic, topo.isp_cap_billable,
            topo.isp_cap_phys, topo.isp_rate, topo.admissible)


def test_static_parameter_intervals():
    config = GenConfig()
    for i in range(30):
        topo = generate_instance(config, seed=500 + i).topology
        assert ((topo.edge_cap_billable > 300.0) & (topo.edge_cap_billable < 1000.0)).all()
        ratio = topo.edge_cap_basic / topo.edge_cap_billable
        assert ((ratio > 0.05) & (ratio < 0.5)).all()
        assert ((topo.edge_rate > 5.0) & (topo.edge_rate < 10.0)).all()
        assert ((topo.isp_rate > 5.0) & (topo.isp_rate < 10.0)).all()
        assert (topo.edge_cap_phys == 10000.0).all()
        for isp_arr, edge_arr in ((topo.isp_cap_basic, topo.edge_cap_basic),
                                  (topo.isp_cap_billable, topo.edge_cap_billable),
                                  (topo.isp_cap_phys, topo.edge_cap_phys)):
            contraction = isp_arr / edge_arr.sum(axis=0)
            assert ((contraction > 0.8) & (contraction < 0.9)).all()


def test_basic_caps_below_billable():
    for i in range(30):
        topo = generate_instance(GenConfig(), seed=600 + i).topology
        assert (topo.edge_cap_basic < topo.edge_cap_billable).all()
        assert (topo.isp_cap_basic < topo.isp_cap_billable).all()


def test_admissible_rows_nonempty():
    for i in range(30):
        topo = generate_instance(GenConfig(), seed=700 + i).topology
        assert topo.admissible.any(axis=2).all()


@pytest.mark.parametrize("config", [GenConfig(), DESK_CONFIG], ids=["full", "desk"])
def test_total_demand_within_twice_basic(config):
    # per user and slot, each direction's demand stack fits in twice the
    # user's pooled basic capacity
    for i in range(20):
        inst = generate_instance(config, seed=800 + i)
        budget = 2.0 * inst.topology.edge_cap_basic.sum(axis=1)
        for d in (inst.demands.inbound, inst.demands.outbound):
            assert (d.sum(axis=0) <= budget[:, None]).all()


@pytest.mark.parametrize("config", [GenConfig(), DESK_CONFIG], ids=["full", "desk"])
def test_cap_pass_entry_bound(config):
    for i in range(20):
        inst = generate_instance(config, seed=900 + i)
        k, n, _ = inst.topology.admissible.shape
        for q in range(k):
            for u in range(n):
                adm_basic = inst.topology.edge_cap_basic[
                    u, inst.topology.admissible[q, u]].sum()
                assert (inst.demands.inbound[q, u] <= 0.25 * adm_basic).all()
                assert (inst.demands.outbound[q, u] <= 0.25 * adm_basic).all()


def test_demands_strictly_positive():
    for i in range(20):
        inst = generate_instance(GenConfig(), seed=1000 + i)
        assert (inst.demands.inbound > 0.0).all()
        assert (inst.demands.outbound > 0.0).all()


def test_same_seed_same_instance():
    a = generate_instance(DESK_CONFIG, seed=42)
    b = generate_instance(DESK_CONFIG, seed=42)
    assert a.instance_id == b.instance_id
    for x, y in zip(topology_arrays(a.topology), topology_arrays(b.topology)):
        assert np.array_equal(x, y)
    assert np.array_equal(a.demands.inbound, b.demands.inbound)
    assert np.array_equal(a.demands.outbound, b.demands.outbound)


def test_different_seeds_differ():
    a = generate_instance(DESK_CONFIG, seed=42)
    b = generate_instance(DESK_CONFIG, seed=43)
    assert not np.array_equal(a.demands.inbound, b.demands.inbound)
    assert not np.array_equal(a.topology.edge_cap_basic, b.topology.edge_cap_basic)


def test_generate_instances_seed_ladder():
    batch = generate_instances(DESK_CONFIG, 3)
    assert [inst.seed for inst in batch] == [101, 102, 103]
    assert batch[0].instance_id != batch[1].instance_id
    again = generate_instance(DESK_CONFIG, seed=102)
    assert np.array_equal(batch[1].demands.inbound, again.demands.inbound)


def test_static_only_stream_stable():
    # the static block must consume the same number of draws regardless of
    # what follows, so two topologies from equal seeds match exactly
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    t1 = sample_static(DESK_CONFIG, rng1)
    t2 = sample_static(DESK_CONFIG, rng2)
    for x, y in zip(topology_arrays(t1), topology_arrays(t2)):
        assert np.array_equal(x, y)
