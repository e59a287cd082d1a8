"""Core billing model: option tables, flows, percentiles, cost, penalties.

Reference values come from tests/oracles.py, which recomputes everything
with plain loops.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import DESK_CONFIG, HELD_SEED0, hopeless_instance, make_tiny, priced_alone, rsn_scheme
from ecsched import _kernels, baselines, milp, sampler
from ecsched.generate import GenConfig, generate_instance
from ecsched.model import (PRICING_CHUNK, AllocationScheme, DemandTensor, FeasibilityReport,
                           Instance, InvalidTopologyError, SoftAllocation, Topology,
                           best_feasible, build_option_table, check_feasibility,
                           compute_flows, evaluate_hard, percentile_exempt_count, soft_loss,
                           soft_loss_and_grad, total_cost)
from gradcheck import billing_signature
from milp_utils import _exempt_slots


def plain_topology(cb_e, cm_e, r_e, admissible, cmax_e=1e6,
                   cb_l=1e6, cm_l=1e7, cmax_l=1e8, r_l=1.0):
    """Hand-built topology; ISP caps default high enough to never bind."""
    cb_e = np.asarray(cb_e, dtype=float)
    n, el = cb_e.shape
    return Topology(
        edge_cap_basic=cb_e,
        edge_cap_billable=np.broadcast_to(np.asarray(cm_e, dtype=float), (n, el)).copy(),
        edge_cap_phys=np.full((n, el), float(cmax_e)),
        edge_rate=np.broadcast_to(np.asarray(r_e, dtype=float), (n, el)).copy(),
        isp_cap_basic=np.full(el, float(cb_l)),
        isp_cap_billable=np.full(el, float(cm_l)),
        isp_cap_phys=np.full(el, float(cmax_l)),
        isp_rate=np.full(el, float(r_l)),
        admissible=np.asarray(admissible, dtype=bool),
    )


def instance_of(topology, d_in, d_out, name="hand"):
    demands = DemandTensor(inbound=np.asarray(d_in, dtype=float),
                           outbound=np.asarray(d_out, dtype=float))
    return Instance(topology=topology, demands=demands, instance_id=name)


def random_soft(instance, table, rng):
    t, n, k = instance.dims
    u = rng.uniform(0.1, 1.0, size=(t, n, k, table.n_options))
    u *= table.valid.transpose(1, 0, 2)[None]
    return SoftAllocation(x=u / u.sum(axis=3, keepdims=True))


# ---------------------------------------------------------------------------
# option table
# ---------------------------------------------------------------------------

def test_two_link_option_rows():
    topo = plain_topology([[100.0, 300.0]], 1e4, 5.0, np.ones((1, 1, 2), dtype=bool))
    table = build_option_table(topo)
    assert table.n_valid[0, 0] == 3
    np.testing.assert_allclose(table.weights[0, 0, 0], [1.0, 0.0])
    np.testing.assert_allclose(table.weights[0, 0, 1], [0.0, 1.0])
    np.testing.assert_allclose(table.weights[0, 0, 2], [0.25, 0.75])


def test_single_link_forced_option():
    adm = np.zeros((1, 1, 3), dtype=bool)
    adm[0, 0, 1] = True
    topo = plain_topology([[50.0, 80.0, 90.0]], 1e4, 5.0, adm)
    table = build_option_table(topo)
    assert table.n_valid[0, 0] == 1
    np.testing.assert_allclose(table.weights[0, 0, 0], [0.0, 1.0, 0.0])


def test_four_equal_links_full_subset():
    topo = plain_topology([[200.0] * 4], 1e4, 5.0, np.ones((1, 1, 4), dtype=bool))
    table = build_option_table(topo)
    assert table.n_valid[0, 0] == 15
    assert table.valid[0, 0].sum() == 15
    np.testing.assert_allclose(table.weights[0, 0, 14], [0.25] * 4)


def test_padded_rows_are_zero():
    # type 0 may use both links, type 1 only the second
    adm = np.array([[[True, True]], [[False, True]]])
    topo = plain_topology([[100.0, 300.0]], 1e4, 5.0, adm)
    table = build_option_table(topo)
    assert table.n_options == 3
    assert table.n_valid[:, 0].tolist() == [3, 1]
    assert table.weights[1, :, 1:].sum() == 0.0
    assert not table.valid[1, :, 1:].any()


# sha256 over dtype, shape and bytes of build_option_table's three arrays
# for a default-size, a desk and a tiny instance with some links closed,
# for the default-size topology with all, then some, basic caps at 0, and
# for 8 open links, where numpy sums 8 caps pairwise and fewer in order
OPTION_TABLE_SHA256 = "22c728954ee99213568ad37b5fe5a946592cc081de1f2fc064c14be9d8048f51"


def test_option_table_bytes_are_pinned():
    default = generate_instance(GenConfig(), seed=100001).topology
    cb = default.edge_cap_basic.copy()
    cb[::2, 1:] = 0.0  # even users keep one nonzero basic cap, link 0
    topologies = [default,
                  generate_instance(DESK_CONFIG, seed=HELD_SEED0).topology,
                  make_tiny(4, n_users=2, n_isps=3, full_admissible=False).topology,
                  dataclasses.replace(default, edge_cap_basic=np.zeros_like(cb)),
                  dataclasses.replace(default, edge_cap_basic=cb),
                  make_tiny(4, n_users=2, n_isps=8).topology]
    digest = hashlib.sha256()
    for topology in topologies:
        table = build_option_table(topology)
        for arr in (table.weights, table.valid, table.n_valid):
            digest.update(repr((arr.dtype.str, arr.shape)).encode())
            digest.update(arr.tobytes())
    assert digest.hexdigest() == OPTION_TABLE_SHA256


def test_option_table_matches_oracle_subsets():
    inst = make_tiny(4, n_users=2, n_isps=3, full_admissible=False)
    table = build_option_table(inst.topology)
    for k in range(inst.dims[2]):
        for n in range(inst.dims[1]):
            links = oracles.admissible_links(inst.topology, k, n)
            assert table.n_valid[k, n] == 2 ** len(links) - 1
            for p in range(int(table.n_valid[k, n])):
                expect = oracles.split_weights(
                    inst.topology, n, oracles.option_subset(links, p))
                row = table.weights[k, n, p]
                assert set(np.flatnonzero(row).tolist()) == set(expect)
                for j, w in expect.items():
                    assert row[j] == pytest.approx(w, rel=1e-12)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_topology_rejects_empty_admissible_row():
    adm = np.ones((2, 1, 2), dtype=bool)
    adm[1, 0] = False
    with pytest.raises(InvalidTopologyError):
        plain_topology([[100.0, 300.0]], 1e4, 5.0, adm)


def test_topology_rejects_cap_order_violation():
    with pytest.raises(InvalidTopologyError):
        plain_topology([[100.0, 300.0]], 50.0, 5.0, np.ones((1, 1, 2), dtype=bool))


@pytest.mark.parametrize("kwargs", [
    {"r_e": np.nan}, {"cb_e": [[np.nan, 300.0]]}, {"cmax_e": np.inf},
    {"cmax_l": np.nan}, {"r_l": np.inf},
], ids=["nan-edge-rate", "nan-edge-basic", "inf-edge-phys", "nan-isp-phys", "inf-isp-rate"])
def test_topology_rejects_non_finite_caps_and_rates(kwargs):
    args = {"cb_e": [[100.0, 300.0]], "cm_e": 1e4, "r_e": 5.0,
            "admissible": np.ones((1, 1, 2), dtype=bool), **kwargs}
    with pytest.raises(InvalidTopologyError, match="finite"):
        plain_topology(**args)


@pytest.mark.parametrize("field, value, message", [
    ("edge_rate", np.full((1, 3), 5.0), r"edge_rate must have shape \(1, 2\)"),
    ("isp_cap_phys", np.full(3, 1e8), r"isp_cap_phys must have shape \(2,\)"),
    ("admissible", np.ones((1, 2, 2), dtype=bool), r"admissible must have shape \(K, 1, 2\)"),
    ("admissible", np.ones((1, 1, 2), dtype=np.int64), "admissible must be boolean"),
    ("edge_rate", np.full((1, 2), -5.0), "billing rates must be nonnegative"),
    ("isp_rate", np.full(2, -1.0), "billing rates must be nonnegative"),
], ids=["edge-shape", "isp-shape", "admissible-shape", "admissible-dtype",
        "negative-edge-rate", "negative-isp-rate"])
def test_topology_rejects_bad_shapes_dtypes_and_rates(field, value, message):
    topo = plain_topology([[100.0, 300.0]], 1e4, 5.0, np.ones((1, 1, 2), dtype=bool))
    with pytest.raises(InvalidTopologyError, match=message):
        dataclasses.replace(topo, **{field: value})


def test_demands_reject_negative_but_allow_zero():
    z = np.zeros((1, 1, 3))
    DemandTensor(inbound=z, outbound=z)
    with pytest.raises(ValueError):
        DemandTensor(inbound=z - 1.0, outbound=z)
    with pytest.raises(ValueError):
        DemandTensor(inbound=z + np.nan, outbound=z)


def test_topology_rejects_zero_users():
    # with no user, exhaustive search and the MILP could not shape their arrays
    with pytest.raises(InvalidTopologyError, match="at least one user"):
        plain_topology(np.zeros((0, 2)), 1e4, 5.0, np.ones((1, 0, 2), dtype=bool))


def test_demands_reject_zero_slots():
    # with no slot, there is no billed level to price
    z = np.zeros((2, 1, 0))
    with pytest.raises(ValueError, match="T >= 1"):
        DemandTensor(inbound=z, outbound=z)


def test_instance_rejects_demands_of_other_types():
    topo = plain_topology([[100.0, 300.0]], 1e4, 5.0, np.ones((2, 1, 2), dtype=bool))
    z = np.zeros((1, 1, 3))
    with pytest.raises(ValueError, match=r"\(K, N\)"):
        instance_of(topo, z, z)


def test_built_instances_are_not_checked_again(monkeypatch, tmp_path):
    inst = make_tiny(3, demand_scale=8.0)
    held = make_tiny(4)

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} checked again after construction")

    for cls in (Topology, DemandTensor, Instance):
        monkeypatch.setattr(cls, "validate", refuse)
    rng = np.random.default_rng(0)
    table = build_option_table(inst.topology)
    compute_flows(inst, rsn_scheme(inst, rng))
    soft_loss(inst, random_soft(inst, table, rng))
    network = sampler.create_network(n_links=inst.topology.n_isps)
    sampler.forward_alpha(network, sampler.preprocess(inst))
    sampler.best_of_detailed(network, inst, 5, rng)
    baselines.rsn_best_of_detailed(inst, 5, rng)
    baselines.brute_force(inst)
    milp.write_lp(milp.linearize(inst), tmp_path / "tiny.lp")
    sampler.train(network, [inst], sampler.TrainConfig(n_epochs=1), eval_instances=[held])


def test_instance_arrays_are_read_only_copies():
    inst = generate_instance(DESK_CONFIG, seed=9000)
    scheme = rsn_scheme(inst, np.random.default_rng(0))
    report, cost = check_feasibility(inst, scheme), total_cost(inst, scheme)
    for part in (inst.topology, inst.demands):
        for f in dataclasses.fields(part):
            assert not getattr(part, f.name).flags.writeable, f.name
    with pytest.raises(ValueError, match="read-only"):
        inst.demands.inbound[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        inst.topology.edge_cap_basic[0, 0] = 0.0

    # built from arrays the caller keeps: writing to them changes nothing
    owned = {f.name: getattr(inst.topology, f.name).copy()
             for f in dataclasses.fields(inst.topology)}
    d_in, d_out = inst.demands.inbound.copy(), inst.demands.outbound.copy()
    rebuilt = Instance(topology=Topology(**owned),
                       demands=DemandTensor(inbound=d_in, outbound=d_out))
    for array in (*owned.values(), d_in, d_out):
        array[...] = 0
    d_in[0, 0, 0] = np.nan
    assert check_feasibility(rebuilt, scheme) == report
    assert total_cost(rebuilt, scheme) == cost


def test_scheme_option_out_of_range():
    inst = make_tiny(0)
    table = build_option_table(inst.topology)
    bad = AllocationScheme(option=np.full(inst.dims, 3, dtype=np.int64))
    with pytest.raises(ValueError):
        total_cost(inst, bad, table)


# ---------------------------------------------------------------------------
# flows and billing
# ---------------------------------------------------------------------------

def test_proportional_split_flow_values():
    topo = plain_topology([[100.0, 300.0]], 1e4, 5.0, np.ones((1, 1, 2), dtype=bool))
    inst = instance_of(topo, [[[40.0, 40.0, 40.0]]], [[[40.0, 40.0, 40.0]]])
    both = AllocationScheme(option=np.full((3, 1, 1), 2, dtype=np.int64))
    flows = compute_flows(inst, both)
    np.testing.assert_allclose(flows.edge.flows[0, 0, 0], [10.0, 10.0, 10.0])
    np.testing.assert_allclose(flows.edge.flows[0, 0, 1], [30.0, 30.0, 30.0])


def test_zero_demands_zero_everything():
    topo = plain_topology([[100.0, 300.0]], 1e4, 5.0, np.ones((2, 1, 2), dtype=bool))
    inst = instance_of(topo, np.zeros((2, 1, 4)), np.zeros((2, 1, 4)))
    scheme = AllocationScheme(option=np.zeros((4, 1, 2), dtype=np.int64))
    flows = compute_flows(inst, scheme)
    assert flows.edge.flows[0].sum() == 0.0 and flows.edge.flows[1].sum() == 0.0
    assert flows.cost_total == 0.0
    assert check_feasibility(inst, scheme).feasible


def test_isp_flows_sum_users():
    inst = make_tiny(5, n_users=3, n_isps=3, full_admissible=False)
    table = build_option_table(inst.topology)
    scheme = rsn_scheme(inst, np.random.default_rng(0), table)
    flows = compute_flows(inst, scheme, table)
    np.testing.assert_allclose(flows.isp.flows[0], flows.edge.flows[0].sum(axis=0), rtol=1e-12)
    np.testing.assert_allclose(flows.isp.flows[1], flows.edge.flows[1].sum(axis=0), rtol=1e-12)


def test_overage_cost_value():
    topo = plain_topology([[100.0]], 1e4, 5.0, np.ones((1, 1, 1), dtype=bool))
    inst = instance_of(topo, [[[120.0, 50.0, 10.0]]], [[[1.0, 1.0, 1.0]]])
    scheme = AllocationScheme(option=np.zeros((3, 1, 1), dtype=np.int64))
    # T=3 exempts nothing, so z = 120 and the edge overage bills 5 * 20
    assert total_cost(inst, scheme) == pytest.approx(100.0)


def test_under_basic_cap_is_free():
    topo = plain_topology([[100.0]], 1e4, 5.0, np.ones((1, 1, 1), dtype=bool))
    inst = instance_of(topo, [[[90.0, 50.0, 10.0]]], [[[1.0, 1.0, 1.0]]])
    scheme = AllocationScheme(option=np.zeros((3, 1, 1), dtype=np.int64))
    assert total_cost(inst, scheme) == 0.0


def test_billable_is_max_of_directions():
    topo = plain_topology([[10.0]], 1e4, 7.0, np.ones((1, 1, 1), dtype=bool))
    inst = instance_of(topo, [[[30.0, 5.0, 5.0]]], [[[80.0, 5.0, 5.0]]])
    scheme = AllocationScheme(option=np.zeros((3, 1, 1), dtype=np.int64))
    assert total_cost(inst, scheme) == pytest.approx(7.0 * (80.0 - 10.0))


# ---------------------------------------------------------------------------
# percentile
# ---------------------------------------------------------------------------

def test_exempt_counts():
    assert percentile_exempt_count(3) == 0
    assert percentile_exempt_count(19) == 0
    assert percentile_exempt_count(20) == 1
    assert percentile_exempt_count(48) == 2
    assert percentile_exempt_count(100) == 5


def billed_level(series):
    m = percentile_exempt_count(series.size)
    return _kernels._top_slots(series, m + 1)[..., m]


def test_g95_skips_one_of_twenty():
    assert billed_level(np.arange(1.0, 21.0)) == 19.0


def test_g95_constant_series():
    assert billed_level(np.full(48, 7.5)) == 7.5


def test_g95_three_spikes_in_48():
    series = np.ones(48)
    series[[5, 17, 40]] = 100.0
    assert billed_level(series) == 100.0


def test_g95_is_an_element_below_max():
    rng = np.random.default_rng(6)
    for _ in range(100):
        series = rng.uniform(0.0, 50.0, size=int(rng.integers(1, 120)))
        v = billed_level(series)
        assert v in series
        assert v <= series.max()


def test_g95_ignores_exempt_slot_growth():
    rng = np.random.default_rng(7)
    series = rng.uniform(10.0, 90.0, size=48)
    base = billed_level(series)
    bumped = series.copy()
    bumped[np.argmax(series)] += 123.456
    assert billed_level(bumped) == base


# ---------------------------------------------------------------------------
# feasibility reporting
# ---------------------------------------------------------------------------

def test_physical_violation_reported():
    topo = plain_topology([[100.0]], 140.0, 5.0, np.ones((1, 1, 1), dtype=bool),
                          cmax_e=140.0)
    inst = instance_of(topo, [[[150.0, 10.0, 10.0]]], [[[1.0, 1.0, 1.0]]])
    scheme = AllocationScheme(option=np.zeros((3, 1, 1), dtype=np.int64))
    report = check_feasibility(inst, scheme)
    assert not report.feasible
    assert ((0, 0, 0), "in", pytest.approx(10.0)) in report.edge_phys
    # z = 150 also clears the billable cap by the same 10 Mbps
    assert report.counts()["edge_billable"] == 1
    assert report.edge_billable[0][0] == (0, 0)


def test_feasibility_report_refuses_a_stack():
    rng = np.random.default_rng(15)
    inst = make_tiny(3, n_users=2, n_slots=4, n_types=2, n_isps=3, demand_scale=9.0)
    table = build_option_table(inst.topology)
    stack = SoftAllocation(x=np.stack([random_soft(inst, table, rng).x for _ in range(3)]))
    with pytest.raises(ValueError, match=r"\(3, 2, 3, 4\)"):
        check_feasibility(inst, stack, table)
    with pytest.raises(ValueError, match=r"\(3, 2, 3, 4\)"):
        FeasibilityReport.from_flows(compute_flows(inst, stack, table))
    with pytest.raises(ValueError, match="does not match"):
        compute_flows(inst, SoftAllocation(x=stack.x[None]), table)


def test_feasibility_agrees_with_oracle():
    rng = np.random.default_rng(8)
    hits = {True: 0, False: 0}
    for seed in range(15):
        inst = make_tiny(seed, n_users=2, n_slots=4, n_types=3, n_isps=3,
                         full_admissible=False, demand_scale=4.0)
        table = build_option_table(inst.topology)
        for _ in range(4):
            scheme = rsn_scheme(inst, rng, table)
            got = check_feasibility(inst, scheme, table).feasible
            assert got == oracles.feasible(inst, scheme.option)
            hits[got] += 1
    assert hits[True] > 0 and hits[False] > 0


def test_evaluate_hard_matches_slow_path():
    rng = np.random.default_rng(9)
    for seed in range(10):
        inst = make_tiny(seed, n_users=2, n_slots=4, n_types=3, n_isps=3,
                         full_admissible=False, demand_scale=4.0)
        table = build_option_table(inst.topology)
        schemes = [rsn_scheme(inst, rng, table) for _ in range(4)]
        costs, n_feasible = evaluate_hard(inst, table, np.stack([s.option for s in schemes]))
        verdicts = [check_feasibility(inst, scheme, table).feasible for scheme in schemes]
        assert n_feasible == sum(verdicts)
        for scheme, cost, feasible in zip(schemes, costs, verdicts):
            if feasible:
                assert cost == pytest.approx(total_cost(inst, scheme, table), rel=1e-12)
            else:
                assert cost == np.inf


@pytest.fixture(scope="module")
def chunk_edge_instances():
    """A desk instance, a default-size one, a tiny one where some uniform
    draws are infeasible, and one where every draw is."""
    return {"desk": generate_instance(DESK_CONFIG, seed=HELD_SEED0),
            "default": generate_instance(GenConfig(), seed=100001),
            "tiny": make_tiny(5, n_users=2, n_slots=4, n_types=3, n_isps=3,
                              full_admissible=False, demand_scale=4.0),
            "hopeless": hopeless_instance()}


@pytest.mark.parametrize("n_draws", [1, 24, 25, 26, 51, 100])
def test_stacked_hard_pricing_equals_per_draw_pricing_at_chunk_edges(chunk_edge_instances,
                                                                    n_draws):
    assert PRICING_CHUNK == 25  # the stack sizes sit on either side of its multiples
    rng = np.random.default_rng(n_draws)
    counts = {}
    for name, inst in chunk_edge_instances.items():
        table = build_option_table(inst.topology)
        stack = baselines.rsn_options(inst, table, n_draws, rng)
        costs, n_feasible = evaluate_hard(inst, table, stack)
        want = np.array([priced_alone(inst, table, option) for option in stack])
        assert costs.tobytes() == want.tobytes()  # bit for bit, inf included
        assert n_feasible == np.isfinite(want).sum()
        counts[name] = n_feasible
    assert counts["hopeless"] == 0
    if n_draws >= 24:
        assert 0 < counts["tiny"] < n_draws


def test_best_feasible_keeps_the_earliest_of_tied_draws():
    inst = make_tiny(5, n_users=2, n_slots=4, n_types=3, n_isps=3,
                     full_admissible=False, demand_scale=4.0)
    table = build_option_table(inst.topology)
    draws = baselines.rsn_options(inst, table, 40, np.random.default_rng(3))
    # the block twice over: each draw's copy prices in another chunk, and
    # ties with it
    stack = np.concatenate([draws, draws])
    priced = evaluate_hard(inst, table, stack)
    costs, n_feasible = priced
    assert costs[:40].tobytes() == costs[40:].tobytes()
    first = int(np.argmin(costs[:40]))
    assert costs[first] < np.inf
    # positions in place of schemes show which copy is kept
    (position, cost), count = best_feasible(np.arange(80), priced)
    assert position.option == first and cost == costs[first] and count == n_feasible
    (scheme, _), _ = best_feasible(stack, priced)
    assert np.array_equal(scheme.option, draws[first])
    assert not np.shares_memory(scheme.option, stack)

    empty = np.empty((0, *inst.dims), dtype=np.int64)
    with pytest.raises(ValueError):
        best_feasible(empty, evaluate_hard(inst, table, empty))


# ---------------------------------------------------------------------------
# oracle agreement on generated instances
# ---------------------------------------------------------------------------

def test_hard_cost_matches_oracle():
    rng = np.random.default_rng(10)
    for seed in range(20):
        inst = make_tiny(seed, n_users=2, n_slots=5, n_types=3, n_isps=3,
                         full_admissible=False, demand_scale=6.0)
        table = build_option_table(inst.topology)
        scheme = rsn_scheme(inst, rng, table)
        assert total_cost(inst, scheme, table) == pytest.approx(
            oracles.cost(inst, scheme.option), rel=1e-10)


def tied_slots_instance(seed, n_slots):
    """An instance with m >= 1 exempt slots whose slots 1-3 repeat slot
    0's demands; a scheme from ``tied_slots_scheme`` repeats its options
    there too, so equal flows meet at the exemption boundary."""
    base = make_tiny(seed, n_users=2, n_slots=n_slots, n_types=2, n_isps=3,
                     full_admissible=False, demand_scale=6.0)
    assert percentile_exempt_count(n_slots) >= 1
    d_in = base.demands.inbound.copy()
    d_out = base.demands.outbound.copy()
    d_in[:, :, 1:4] = d_in[:, :, :1]
    d_out[:, :, 1:4] = d_out[:, :, :1]
    return Instance(topology=base.topology, demands=DemandTensor(inbound=d_in, outbound=d_out),
                    instance_id=base.instance_id)


def tied_slots_scheme(inst, rng, table):
    option = rsn_scheme(inst, rng, table).option
    option[1:4] = option[0]
    return AllocationScheme(option=option)


@pytest.mark.parametrize("n_slots", [20, 40, 48])
@pytest.mark.parametrize("seed", range(6))
def test_pricing_routes_agree_with_oracle_on_tied_slots(seed, n_slots):
    inst = tied_slots_instance(seed, n_slots)
    table = build_option_table(inst.topology)
    model = milp.linearize(inst, table)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        scheme = tied_slots_scheme(inst, rng, table)
        option = scheme.option
        want = oracles.cost(inst, option)
        feasible = oracles.feasible(inst, option)
        priced = want if feasible else np.inf
        assert check_feasibility(inst, scheme, table).feasible == feasible
        assert total_cost(inst, scheme, table) == pytest.approx(want, rel=1e-12)
        assert evaluate_hard(inst, table, option[None])[0][0] == pytest.approx(priced, rel=1e-12)
        assert milp.objective_of(model, option) == pytest.approx(priced, rel=1e-12)


def test_soft_loss_matches_oracle():
    rng = np.random.default_rng(11)
    for seed in range(10):
        inst = make_tiny(seed, n_users=2, n_slots=4, n_types=2, n_isps=3,
                         full_admissible=False, demand_scale=9.0)
        table = build_option_table(inst.topology)
        alloc = random_soft(inst, table, rng)
        got = soft_loss(inst, alloc, lam_g=1.3, table=table)
        assert got == pytest.approx(oracles.soft_loss(inst, alloc.x, 1.3), rel=1e-10)


def test_soft_loss_of_a_stack_is_each_draws_loss():
    rng = np.random.default_rng(16)
    inst = make_tiny(4, n_users=3, n_slots=21, n_types=2, n_isps=3, demand_scale=9.0)
    table = build_option_table(inst.topology)
    allocs = [random_soft(inst, table, rng) for _ in range(5)]
    losses = soft_loss(inst, SoftAllocation(x=np.stack([a.x for a in allocs])), 1.3, table)
    assert losses.shape == (5,)
    assert losses.tolist() == [soft_loss(inst, a, 1.3, table) for a in allocs]


# the soft kernel sums a one-hot row's zero terms too, and in another
# order, so the two kernels agree to rounding, not bit for bit
def test_one_hot_soft_flows_are_the_hard_flows():
    inst = generate_instance(DESK_CONFIG, seed=HELD_SEED0)
    table = build_option_table(inst.topology)
    args = (table.weights, inst.demands.inbound, inst.demands.outbound)
    stack = np.random.default_rng(0).integers(0, table.n_valid.T, size=(4, *inst.dims))
    for option in (stack, stack[0]):
        x = np.zeros((*option.shape, table.n_options))
        np.put_along_axis(x, option[..., None], 1.0, axis=-1)
        hard = _kernels.hard_edge_flows(option, *args)
        soft = _kernels.soft_edge_flows(x, *args)
        assert soft.shape == hard.shape == (2, *option.shape[:-3], *inst.topology.edge_rate.shape,
                                            inst.dims[0])
        for d in range(2):
            np.testing.assert_allclose(soft[d], hard[d], rtol=1e-12, atol=0)
        soft_cost = _kernels.price_flows(inst.topology, soft).cost_total
        hard_cost = _kernels.price_flows(inst.topology, hard).cost_total
        assert np.all(hard_cost > 0)
        np.testing.assert_allclose(soft_cost, hard_cost, rtol=1e-12, atol=0)


# N*EL >= 8 edge costs go through numpy's pairwise summation, whose order
# follows the memory layout of the summed array
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n_users=st.integers(1, 4), n_isps=st.integers(1, 4), n_slots=st.integers(1, 25),
       n_types=st.integers(1, 3), seed=st.integers(0, 2 ** 16), n_draws=st.integers(1, 6),
       hard=st.booleans())
@example(n_users=4, n_isps=4, n_slots=24, n_types=2, seed=0, n_draws=6, hard=False)
@example(n_users=4, n_isps=4, n_slots=24, n_types=2, seed=0, n_draws=6, hard=True)
def test_stacked_pricing_equals_single_pricing(n_users, n_isps, n_slots, n_types, seed,
                                               n_draws, hard):
    inst = make_tiny(seed, n_users=n_users, n_slots=n_slots, n_types=n_types, n_isps=n_isps,
                     full_admissible=False, demand_scale=8.0)
    table = build_option_table(inst.topology)
    rng = np.random.default_rng(seed)
    args = (table.weights, inst.demands.inbound, inst.demands.outbound)
    if hard:
        stack = rng.integers(0, table.n_valid.T, size=(n_draws, *inst.dims))
        flows_of = _kernels.hard_edge_flows
    else:
        stack = np.stack([random_soft(inst, table, rng).x for _ in range(n_draws)])
        flows_of = _kernels.soft_edge_flows
    batch = _kernels.price_flows(inst.topology, flows_of(stack, *args))
    for s in range(n_draws):
        one = _kernels.price_flows(inst.topology, flows_of(stack[s], *args))
        assert batch.cost_total[s] == one.cost_total
        assert batch.penalty[s] == one.penalty
        assert batch.feasible[s] == one.feasible


def no_overshoot_entry(flows):
    """The reference feasibility rule: per allocation, no entry of any
    overshoot array is nonzero (NaN counts as nonzero)."""
    ok = True
    for o in (*flows.edge.overshoot[0], *flows.isp.overshoot[0],
              flows.edge.overshoot[1], flows.isp.overshoot[1]):
        ok = ok & ~o.any(axis=tuple(range(flows.isp.z.ndim - 1, o.ndim)))
    return ok


# ``feasible`` reads each link's sorted peak and z; it must say what the
# overshoot arrays say.  With the finite caps that Topology (and so io)
# admits, the two rules agree on every flow, NaN and +inf included:
#   - a NaN slot sorts last, so the peak is NaN and ``peak <= cap`` is
#     False, while its overshoot max(NaN - cap, 0) is NaN, nonzero;
#   - a flow exactly at a cap has a peak equal to the cap and an overshoot
#     of exactly 0, since finite floats subtract to 0 only when equal;
#   - a +inf flow has peak +inf > cap and overshoot +inf;
#   - a NaN z fails ``z <= cap`` and has a NaN overshoot.
# Only a non-finite cap could part them (+inf - +inf is NaN, while
# +inf <= +inf holds), and no Topology holds one.
@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(n_users=st.integers(1, 3), n_isps=st.integers(1, 3), n_slots=st.integers(1, 25),
       n_types=st.integers(1, 3), seed=st.integers(0, 2 ** 16), n_draws=st.integers(1, 5),
       hard=st.booleans(),
       special=st.sampled_from(("none", "nan", "inf", "phys cap", "billable cap")),
       n_special=st.integers(1, 4))
@example(n_users=1, n_isps=2, n_slots=20, n_types=1, seed=3, n_draws=3, hard=True,
         special="phys cap", n_special=2)
def test_feasible_is_no_overshoot_entry(n_users, n_isps, n_slots, n_types, seed, n_draws,
                                        hard, special, n_special):
    inst = make_tiny(seed, n_users=n_users, n_slots=n_slots, n_types=n_types, n_isps=n_isps,
                     full_admissible=False, demand_scale=8.0)
    topo, table = inst.topology, build_option_table(inst.topology)
    rng = np.random.default_rng(seed)
    args = (table.weights, inst.demands.inbound, inst.demands.outbound)
    if hard:
        edge = _kernels.hard_edge_flows(
            rng.integers(0, table.n_valid.T, size=(n_draws, *inst.dims)), *args)
    else:
        edge = _kernels.soft_edge_flows(
            np.stack([random_soft(inst, table, rng).x for _ in range(n_draws)]), *args)
    for _ in range(n_special if special != "none" else 0):
        flow = edge[rng.integers(2)]
        s, n, j, t = (rng.integers(d) for d in flow.shape)
        if special == "billable cap":
            # every slot at the billable cap puts z exactly on it
            flow[s, n, j] = topo.edge_cap_billable[n, j]
        else:
            flow[s, n, j, t] = {"nan": np.nan, "inf": np.inf,
                                "phys cap": topo.edge_cap_phys[n, j]}[special]
    batch = _kernels.price_flows(topo, edge)
    assert np.array_equal(batch.feasible, no_overshoot_entry(batch))
    for s in range(n_draws):
        one = _kernels.price_flows(topo, edge[:, s])
        assert one.feasible == no_overshoot_entry(one) == batch.feasible[s]


def test_feasibility_edge_cases():
    # one user, one link, 20 slots (one exempt); the ISP link carries the
    # same flows as the edge link and has the same caps
    caps = dict(cap_basic=np.full((1, 1), 10.0), cap_billable=np.full((1, 1), 20.0),
                cap_phys=np.full((1, 1), 30.0), rate=np.full((1, 1), 1.0))
    topo = Topology(**{f"edge_{k}": v for k, v in caps.items()},
                    **{f"isp_{k}": v[0] for k, v in caps.items()},
                    admissible=np.ones((1, 1, 1), dtype=bool))
    base = np.full(20, 10.0)

    def series(*slots):
        out = base.copy()
        for t, v in slots:
            out[t] = v
        return out

    above = np.nextafter(30.0, np.inf)
    cases = [  # (inbound, outbound, feasible)
        (base, base, True),
        (series((4, 30.0)), base, True),                  # a slot at the physical cap
        (np.full(20, 20.0), base, True),                  # z at the billable cap
        (series((4, 30.0)), np.full(20, 20.0), True),     # both at once
        (series((4, -np.inf)), base, True),
        (series((4, above)), base, False),
        (series((4, np.nextafter(20.0, np.inf)), (5, 20.5)), base, False),  # z over
        (series((4, np.nan)), base, False),               # NaN peak, z finite
        (series((4, np.inf)), base, False),               # +inf peak, z finite
        (base, series((4, np.nan), (5, np.nan)), False),  # NaN z
    ]
    stack = np.stack([[c[0] for c in cases], [c[1] for c in cases]])[:, :, None, None, :]
    batch = _kernels.price_flows(topo, stack)
    assert np.isnan(batch.edge.z[-1, 0, 0]) and np.isnan(batch.edge.peak[7, 0, 0])
    want = [c[2] for c in cases]
    assert batch.feasible.tolist() == no_overshoot_entry(batch).tolist() == want
    for s, feasible in enumerate(want):
        one = _kernels.price_flows(topo, stack[:, s])
        assert one.feasible == no_overshoot_entry(one) == feasible
        assert FeasibilityReport.from_flows(one).feasible == feasible


def test_cheap_routes_never_build_the_overshoot_arrays(monkeypatch):
    inst = make_tiny(3, n_users=2, n_types=2, demand_scale=8.0)
    table = build_option_table(inst.topology)
    stack = np.random.default_rng(3).integers(0, table.n_valid.T, size=(4, *inst.dims))
    flows = _kernels.price_flows(inst.topology, _kernels.hard_edge_flows(
        stack, table.weights, inst.demands.inbound, inst.demands.outbound))
    assert flows.feasible.shape == flows.cost_total.shape == (4,)
    assert "overshoot" not in vars(flows.edge) and "overshoot" not in vars(flows.isp)
    flows.penalty
    built = vars(flows.edge)["overshoot"], vars(flows.isp)["overshoot"]
    assert flows.edge.overshoot is flows.edge.overshoot is built[0]
    assert flows.isp.overshoot is built[1]

    # exhaustive search and the samplers' pricing never read them
    def refuse(self):
        raise AssertionError("overshoot arrays built")
    monkeypatch.setattr(_kernels.LinkTier, "overshoot", property(refuse))
    evaluate_hard(inst, table, stack)
    baselines.rsn_best_of_detailed(inst, 5, np.random.default_rng(0), table)
    assert baselines.brute_force(make_tiny(4, demand_scale=8.0)) is not None


def test_soft_loss_two_paths_agree():
    rng = np.random.default_rng(12)
    inst = make_tiny(2, n_users=2, n_slots=4, n_types=3, n_isps=4, demand_scale=9.0)
    table = build_option_table(inst.topology)
    alloc = random_soft(inst, table, rng)
    loss, _ = soft_loss_and_grad(inst, table, alloc.x, 1.0)
    assert loss == pytest.approx(soft_loss(inst, alloc, table=table), rel=1e-12)


# ---------------------------------------------------------------------------
# soft-loss structure
# ---------------------------------------------------------------------------

def test_billable_violation_penalty_value():
    # a lone 2 Mbps billable overshoot adds exactly 4 at unit weight
    topo = plain_topology([[10.0]], 50.0, 3.0, np.ones((1, 1, 1), dtype=bool))
    inst = instance_of(topo, [[[52.0, 5.0, 5.0]]], [[[1.0, 1.0, 1.0]]])
    scheme = AllocationScheme(option=np.zeros((3, 1, 1), dtype=np.int64))
    pen = soft_loss(inst, scheme, lam_g=1.0) - total_cost(inst, scheme)
    assert pen == pytest.approx(4.0)


def test_penalty_scales_quadratically():
    rng = np.random.default_rng(14)
    inst = make_tiny(6, n_users=2, n_types=3, demand_scale=12.0)
    table = build_option_table(inst.topology)
    alloc = random_soft(inst, table, rng)
    cost1 = soft_loss(inst, alloc, lam_g=0.0, table=table)
    pen1 = soft_loss(inst, alloc, lam_g=1.0, table=table) - cost1
    assert pen1 > 0.0

    c = 3.0
    topo = inst.topology
    import dataclasses
    scaled_topo = dataclasses.replace(
        topo,
        edge_cap_basic=topo.edge_cap_basic * c,
        edge_cap_billable=topo.edge_cap_billable * c,
        edge_cap_phys=topo.edge_cap_phys * c,
        isp_cap_basic=topo.isp_cap_basic * c,
        isp_cap_billable=topo.isp_cap_billable * c,
        isp_cap_phys=topo.isp_cap_phys * c)
    scaled = Instance(
        topology=scaled_topo,
        demands=DemandTensor(inbound=inst.demands.inbound * c,
                             outbound=inst.demands.outbound * c),
        instance_id="scaled")
    cost_c = soft_loss(scaled, alloc, lam_g=0.0)
    pen_c = soft_loss(scaled, alloc, lam_g=1.0) - cost_c
    assert cost_c == pytest.approx(c * cost1, rel=1e-9)
    assert pen_c == pytest.approx(c * c * pen1, rel=1e-9)


def test_cost_monotone_in_demand():
    rng = np.random.default_rng(15)
    inst = make_tiny(7, n_users=2, n_slots=4, n_types=2, n_isps=3, demand_scale=6.0)
    table = build_option_table(inst.topology)
    scheme = rsn_scheme(inst, rng, table)
    base = total_cost(inst, scheme, table)
    t, n, k = inst.dims
    for _ in range(20):
        d = inst.demands.inbound.copy()
        d[rng.integers(k), rng.integers(n), rng.integers(t)] += 5.0
        bumped = Instance(
            topology=inst.topology,
            demands=DemandTensor(inbound=d, outbound=inst.demands.outbound),
            instance_id="bumped")
        assert total_cost(bumped, scheme, table) >= base - 1e-12


def test_flow_conservation():
    rng = np.random.default_rng(16)
    for seed in range(25):
        inst = make_tiny(seed, n_users=2, n_slots=4, n_types=3, n_isps=3,
                         full_admissible=False)
        table = build_option_table(inst.topology)
        alloc = (rsn_scheme(inst, rng, table) if seed % 2
                 else random_soft(inst, table, rng))
        flows = compute_flows(inst, alloc, table)
        np.testing.assert_allclose(flows.edge.flows[0].sum(axis=1),
                                   inst.demands.inbound.sum(axis=0), rtol=1e-9)
        np.testing.assert_allclose(flows.edge.flows[1].sum(axis=1),
                                   inst.demands.outbound.sum(axis=0), rtol=1e-9)


# sha256 over soft_loss_and_grad's loss repr and gradient bytes on a
# desk-size and a default-size instance, each as generated and with
# doubled demands (which adds ISP overages and cap overshoots)
SOFT_LOSS_AND_GRAD_SHA256 = "44cd665ff714cd2e7c87870707fcc289f283a780e2ed7988fcbcb8de3326a6d3"


def test_soft_loss_and_grad_bytes_are_pinned():
    digest = hashlib.sha256()
    for base in (generate_instance(DESK_CONFIG, seed=9000),
                 generate_instance(GenConfig(), seed=100000)):
        for factor in (1.0, 2.0):
            inst = Instance(topology=base.topology,
                            demands=DemandTensor(inbound=base.demands.inbound * factor,
                                                 outbound=base.demands.outbound * factor))
            table = build_option_table(inst.topology)
            x = random_soft(inst, table, np.random.default_rng(0)).x
            for lam_g in (0.0, 1.0, 3.5):
                loss, dx = soft_loss_and_grad(inst, table, x, lam_g)
                digest.update(repr(loss).encode())
                digest.update(dx.tobytes())
    assert digest.hexdigest() == SOFT_LOSS_AND_GRAD_SHA256


# sha256 over soft_loss's repr (lam_g 1) on the same two instances with
# demands x40 and x100, three relaxed allocations each: their flows
# overshoot the per-slot physical caps on 9 to 1,874 edge link-slots
SOFT_PENALTY_SHA256 = "01b70623c2339490e57438b0762c5d54b2be4465ba5faa220a90e47ae929fd28"


def test_soft_penalty_bytes_are_pinned_under_slot_overshoots():
    # the per-slot overshoot totals follow the soft flows' memory layout;
    # totalling them from a C-ordered copy moves these bytes
    digest = hashlib.sha256()
    for base in (generate_instance(DESK_CONFIG, seed=9000),
                 generate_instance(GenConfig(), seed=100000)):
        for factor in (40.0, 100.0):
            inst = Instance(topology=base.topology,
                            demands=DemandTensor(inbound=base.demands.inbound * factor,
                                                 outbound=base.demands.outbound * factor))
            table = build_option_table(inst.topology)
            rng = np.random.default_rng(0)
            for _ in range(3):
                alloc = random_soft(inst, table, rng)
                assert compute_flows(inst, alloc, table).edge.overshoot[0].any()
                digest.update(repr(soft_loss(inst, alloc, 1.0, table)).encode())
    assert digest.hexdigest() == SOFT_PENALTY_SHA256


def stable_slots_on_tied_slots(path, inst, table, model, scheme):
    """Check that the warm start's exemptions and the subgradient's billed
    slots, both from ranked_slots, are the stable sort's; returns how many
    series a tie decides, (exempt, billed)."""
    m, n_slots = model.exempt, inst.dims[0]
    flows = compute_flows(inst, scheme, table)
    milp.write_warmstart(model, scheme, path)
    start = dict(line.split() for line in path.read_text().splitlines()[1:])
    want, ties = [], np.zeros(2, dtype=np.int64)
    for block, tier in (("u_e", flows.edge), ("u_l", flows.isp)):
        cols = model.blocks[block]
        for pos in np.ndindex(tier.flows.shape[:-1]):
            exempt = [t for t in range(n_slots) if start[model.variables[cols[pos + (t,)]]] == "1"]
            assert exempt == sorted(_exempt_slots(tier.flows[pos], m))
        # without a penalty the subgradient is each link's billing
        # coefficient at the stable (m+1)-th slot of the direction that
        # sets z
        order = np.argsort(-tier.flows, axis=-1, kind="stable")
        sets_z = np.stack([tier.inbound, ~tier.inbound])
        coef = np.where(sets_z, tier.rate * (tier.z > tier.cap_basic), 0.0)
        want.append(coef[..., None] * (np.arange(n_slots) == order[..., m, None]))
        # a tie decides the exempt slots where the level's slots are split
        # between exempt and billed, and the billed slot wherever more than
        # one slot holds a level that bills
        level = np.take_along_axis(tier.flows, order[..., m, None], axis=-1)
        tied = (tier.flows == level).sum(axis=-1) > 1
        ties += [np.count_nonzero(tied & ((tier.flows > level).sum(axis=-1) < m)),
                 np.count_nonzero(tied & (coef > 0))]
    grad = _kernels.price_flows_grad(flows, 0.0)
    assert grad.tobytes() == (want[0] + want[1][..., None, :, :]).tobytes()
    return ties


@pytest.mark.parametrize("n_slots", [20, 40])
def test_exempt_and_billed_slots_are_the_stable_ones_on_tied_slots(tmp_path, n_slots):
    ties = 0
    for seed in range(6):
        inst = tied_slots_instance(seed, n_slots)
        table = build_option_table(inst.topology)
        model = milp.linearize(inst, table)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            ties += stable_slots_on_tied_slots(tmp_path / "warm.mst", inst, table, model,
                                               tied_slots_scheme(inst, rng, table))
    assert (ties > 0).all()


def test_nan_flow_routes_the_billed_term_to_the_slot_pricing_bills():
    # one NaN slot ranks first, so with m = 1 the price bills the largest
    # number, 19.0 at slot 19, and the subgradient routes there; the NaN
    # slot's own term is NaN, from its NaN cap overshoot
    topo = plain_topology([[1.0]], 1e6, 1.0, [[[True]]])
    edge = np.zeros((2, 1, 1, 20))
    edge[0, 0, 0] = np.arange(20.0)
    edge[0, 0, 0, 5] = np.nan
    flows = _kernels.price_flows(topo, edge)
    assert flows.edge.z.tolist() == [[19.0]] and flows.edge.inbound.all()
    want = np.zeros_like(edge)
    want[0, 0, 0, 19] = 1.0  # the edge rate; the ISP link bills no overage
    want[0, 0, 0, 5] = np.nan
    assert np.array_equal(_kernels.price_flows_grad(flows, 1.0), want, equal_nan=True)


def test_soft_gradient_matches_central_differences():
    inst = make_tiny(3, n_users=2, n_slots=4, n_types=2, n_isps=3, demand_scale=6.0)
    table = build_option_table(inst.topology)
    rng = np.random.default_rng(17)
    alloc = random_soft(inst, table, rng)
    x = alloc.x
    loss0, dx = soft_loss_and_grad(inst, table, x, 1.0)
    sig0 = billing_signature(inst, table, x)
    h = 1e-6
    t, n, k = inst.dims
    checked = 0
    attempts = 0
    while checked < 12 and attempts < 100:
        attempts += 1
        idx = (int(rng.integers(t)), int(rng.integers(n)), int(rng.integers(k)),
               int(rng.integers(table.n_options)))
        if not table.valid[idx[2], idx[1], idx[3]]:
            continue
        xp = x.copy()
        xp[idx] += h
        lp, _ = soft_loss_and_grad(inst, table, xp, 1.0)
        xm = x.copy()
        xm[idx] -= h
        lm, _ = soft_loss_and_grad(inst, table, xm, 1.0)
        if (billing_signature(inst, table, xp) != sig0
                or billing_signature(inst, table, xm) != sig0):
            continue
        numeric = (lp - lm) / (2.0 * h)
        analytic = dx[idx]
        denom = max(abs(numeric), abs(analytic))
        if denom < 1e-8:
            checked += 1
            continue
        assert abs(numeric - analytic) / denom < 1e-4, (idx, numeric, analytic)
        checked += 1
    assert checked >= 12
