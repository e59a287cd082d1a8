"""Exhaustive-search kernel: pricing combinations in chunks must not
change the result, which is that of an odometer enumeration.  And the
slot ranking read from a billed level, which must be that of a stable
sort."""

import hashlib
import itertools
import tracemalloc

import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import hopeless_instance, make_tiny, priced_alone
from ecsched import _kernels, baselines
from ecsched.model import DemandTensor, Instance, Topology, build_option_table


def flat_valid_counts(inst, table):
    t, n, k = inst.dims
    return np.ascontiguousarray(
        np.broadcast_to(table.n_valid.T[None], (t, n, k)).reshape(-1))


def search(inst, chunk, n_valid_flat=None):
    table = build_option_table(inst.topology)
    if n_valid_flat is None:
        n_valid_flat = flat_valid_counts(inst, table)
    return _kernels.brute_force_search(
        n_valid_flat, table.weights, inst.demands.inbound,
        inst.demands.outbound, inst.topology, chunk=chunk)


def test_numpy_chunking_is_invisible():
    inst = make_tiny(4, demand_scale=8.0)
    a, b = search(inst, chunk=7), search(inst, chunk=4096)
    assert len(a) == len(b) == 2
    assert 0.0 < a[0] < np.inf and a[0] == b[0]
    assert np.array_equal(a[1], b[1])

    # nothing feasible: both chunkings report cost inf
    for chunk in (7, 4096):
        assert search(hopeless_instance(), chunk)[0] == np.inf

    # many equal-cost optima: both chunkings keep the first in odometer
    # order, which lies inside a chunk of 7
    for chunk in (7, 4096):
        cost, best = search(first_optimum_at_243(), chunk)
        assert cost == 0.0
        assert np.array_equal(best, [1, 0, 0, 0, 0, 0])


def first_optimum_at_243():
    """Six blocks of three options, 729 combinations.  Only block 0
    carries demand, and putting all of it on link 0 (option 0)
    overshoots that link's physical cap; every other combination costs
    0.  The first optimum, block 0 on option 1 and every later block on
    option 0, is combination 3**5 = 243."""
    topo = Topology(
        edge_cap_basic=np.array([[10.0, 60.0]]),
        edge_cap_billable=np.array([[20.0, 80.0]]),
        edge_cap_phys=np.array([[30.0, 100.0]]),
        edge_rate=np.full((1, 2), 5.0),
        isp_cap_basic=np.full(2, 1000.0),
        isp_cap_billable=np.full(2, 2000.0),
        isp_cap_phys=np.full(2, 3000.0),
        isp_rate=np.full(2, 1.0),
        admissible=np.ones((2, 1, 2), dtype=bool))
    d_in = np.zeros((2, 1, 3))
    d_in[0, 0, 0] = 50.0
    return Instance(topology=topo, demands=DemandTensor(inbound=d_in, outbound=np.zeros((2, 1, 3))))


def pinned_instances():
    """Priced instances of every shape the search's slot runs take: tiny
    ones, one slot (a run as long as the chunk), two users of one type,
    three types; then nothing feasible and a late first optimum."""
    return ([make_tiny(seed, demand_scale=8.0) for seed in (1, 2, 3)]
            + [make_tiny(2, n_slots=1, n_types=3, n_isps=3, demand_scale=8.0),
               make_tiny(3, n_users=2, n_slots=2, n_types=1, n_isps=3, demand_scale=15.0),
               make_tiny(4, n_slots=2, n_types=3, demand_scale=8.0),
               hopeless_instance(), first_optimum_at_243()])


# sha256 over brute_force_search's cost repr and option dtype and bytes,
# at chunks 7 and 4096, on every pinned instance in order
BRUTE_FORCE_SHA256 = "84705cd0d257c846888ecae29ab2027c5cac8eeb97341d4ada257281fbf2245e"


def test_brute_force_bytes_are_pinned():
    digest = hashlib.sha256()
    for inst in pinned_instances():
        for chunk in (7, 4096):
            cost, options = search(inst, chunk)
            digest.update(repr(cost).encode())
            digest.update(str(options.dtype).encode())
            digest.update(options.tobytes())
    assert digest.hexdigest() == BRUTE_FORCE_SHA256


def exempting_instances():
    """Priced instances with exempt slots (m = 1, 1 and 3 at T = 20, 24
    and 60), one with two types and one with two users, each with the
    valid options of a few busy slots and the last one: (instance, slots,
    types), every other block keeping only option 0."""
    return [(make_tiny(1, n_slots=20, demand_scale=4.0), [3, 15, 19], 2),
            (make_tiny(7, n_users=2, n_slots=24, n_types=1, demand_scale=4.0), [10, 15, 23], 1),
            (make_tiny(2, n_slots=60, n_types=3, demand_scale=4.0), [7, 9, 19, 23, 40, 59], 1)]


def reduced_valid_counts(inst, slots, types):
    full = flat_valid_counts(inst, build_option_table(inst.topology)).reshape(inst.dims)
    counts = np.ones(inst.dims, dtype=np.int64)
    counts[slots, :, :types] = full[slots, :, :types]
    return counts.reshape(-1)


def odometer_search(inst, n_valid_flat):
    """Every combination in odometer order, each priced alone
    (``priced_alone``); the earliest cheapest wins."""
    table = build_option_table(inst.topology)
    best_cost, best = np.inf, None
    for combo in itertools.product(*(range(int(c)) for c in n_valid_flat)):
        cost = priced_alone(inst, table, np.array(combo).reshape(inst.dims))
        if cost < best_cost:
            best_cost, best = cost, np.array(combo)
    return best_cost, best


def test_exempting_search_matches_odometer_enumeration():
    for inst, slots, types in exempting_instances():
        counts = reduced_valid_counts(inst, slots, types)
        ref_cost, ref_best = odometer_search(inst, counts)
        assert 0.0 < ref_cost < np.inf and ref_best.any()
        for chunk in (7, 512, 4096):
            cost, best = search(inst, chunk, counts)
            assert cost == ref_cost
            assert np.array_equal(best, ref_best)


# sha256 over brute_force_search's cost repr and option dtype and bytes,
# at chunks 7, 512 and 4096, on every exempting instance in order
EXEMPTING_BRUTE_FORCE_SHA256 = "c85ae15e38b56f29306b74917bdcf2225989212aaed18b110e2f4f3043c55d99"


def test_exempting_brute_force_bytes_are_pinned():
    digest = hashlib.sha256()
    for inst, slots, types in exempting_instances():
        counts = reduced_valid_counts(inst, slots, types)
        for chunk in (7, 512, 4096):
            cost, options = search(inst, chunk, counts)
            digest.update(repr(cost).encode())
            digest.update(str(options.dtype).encode())
            digest.update(options.tobytes())
    assert digest.hexdigest() == EXEMPTING_BRUTE_FORCE_SHA256


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(n_slots=st.integers(1, 24), n_users=st.integers(1, 2), n_isps=st.integers(2, 3),
       demand_scale=st.sampled_from([4.0, 8.0, 15.0, 30.0]), seed=st.integers(0, 2 ** 16))
@example(n_slots=24, n_users=2, n_isps=2, demand_scale=8.0, seed=1)  # m = 1
def test_a_partial_assignment_bounds_every_completion(n_slots, n_users, n_isps, demand_scale,
                                                      seed):
    # the bound a branch-and-bound search would prune with: billing a
    # partial assignment from its placed slots' k largest flows, -inf
    # while fewer than k slots are placed
    inst = make_tiny(seed, n_users=n_users, n_slots=n_slots, n_isps=n_isps,
                     demand_scale=demand_scale)
    table = build_option_table(inst.topology)
    rng = np.random.default_rng(seed)
    completions = baselines.rsn_options(inst, table, 16, rng)
    placed = rng.random(n_slots) < rng.random()
    completions[:, placed] = completions[0, placed]
    k = _kernels.percentile_exempt_count(n_slots) + 1
    edge = _kernels.hard_edge_flows(completions[0, placed], table.weights,
                                    inst.demands.inbound[..., placed],
                                    inst.demands.outbound[..., placed])
    tops = [_kernels._top_slots(np.concatenate([np.full((*f.shape[:-1], k), -np.inf), f],
                                               axis=-1), k)
            for f in (edge, edge.sum(axis=-3))]
    bound = _kernels._summary(inst.topology, *((top[..., k - 1], top[..., 0]) for top in tops))
    costs = [priced_alone(inst, table, option) for option in completions]
    if bound.feasible:
        assert all(cost >= bound.cost_total for cost in costs)
    else:
        assert all(cost == np.inf for cost in costs)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(n_slots=st.integers(1, 24), n_users=st.integers(1, 3), n_isps=st.integers(2, 3),
       demand_scale=st.sampled_from([2.0, 4.0, 8.0]), n_open=st.integers(1, 5),
       chunk=st.sampled_from([1, 7, 4096]), seed=st.integers(0, 2 ** 16))
@example(n_slots=24, n_users=2, n_isps=2, demand_scale=4.0, n_open=5, chunk=7, seed=1)  # m = 1
@example(n_slots=5, n_users=1, n_isps=2, demand_scale=2.0, n_open=0, chunk=7,
         seed=1)  # one combination
# nine edge links: each allocation's link sum takes numpy's 8-accumulator path
@example(n_slots=20, n_users=3, n_isps=3, demand_scale=8.0, n_open=4, chunk=7, seed=1)
def test_search_equals_the_odometer_enumeration(n_slots, n_users, n_isps, demand_scale, n_open,
                                                chunk, seed):
    inst = make_tiny(seed, n_users=n_users, n_slots=n_slots, n_isps=n_isps,
                     demand_scale=demand_scale)
    rng = np.random.default_rng(seed)
    full = flat_valid_counts(inst, build_option_table(inst.topology))
    # a few blocks keep their valid options, every other one only option
    # 0; with 3 ISPs (7 options a block) at most 4, 2,401 combinations
    counts = np.ones_like(full)
    n_open = min(n_open, 4 if n_isps == 3 else 5)
    blocks = rng.choice(full.size, size=min(n_open, full.size), replace=False)
    counts[blocks] = full[blocks]
    ref_cost, ref_best = odometer_search(inst, counts)
    cost, best = search(inst, chunk, counts)
    assert repr(cost) == repr(ref_cost)
    if ref_best is not None:
        assert (best.dtype, best.tobytes()) == (ref_best.dtype, ref_best.tobytes())


def stack_innermost(x):
    """x with the same values and shape, and its axis 1 (the stack)
    innermost in memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 1, -1)), -1, 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(n_slots=st.integers(20, 48), n_users=st.integers(1, 3), n_isps=st.integers(2, 3),
       demand_scale=st.sampled_from([4.0, 8.0, 30.0, 120.0]), seed=st.integers(0, 2 ** 16))
@example(n_slots=20, n_users=3, n_isps=3, demand_scale=8.0, seed=1)  # nine edge links, m = 1
@example(n_slots=20, n_users=3, n_isps=3, demand_scale=120.0, seed=1)  # billable caps overshot
def test_billing_bytes_do_not_depend_on_memory_order(n_slots, n_users, n_isps, demand_scale,
                                                     seed):
    # exhaustive search bills with its combinations innermost in memory,
    # price_flows with each allocation's links innermost: both must give
    # the same bytes (the per-slot flows, which only the penalty reads,
    # keep the layout the flow kernels give them)
    inst = make_tiny(seed, n_users=n_users, n_slots=n_slots, n_types=2, n_isps=n_isps,
                     demand_scale=demand_scale)
    table = build_option_table(inst.topology)
    options = baselines.rsn_options(inst, table, 50, np.random.default_rng(seed))
    edge = _kernels.hard_edge_flows(options, table.weights, inst.demands.inbound,
                                    inst.demands.outbound)
    flows = (edge, edge.sum(axis=-3))  # (2, draws, links..., T)
    k = _kernels.percentile_exempt_count(n_slots) + 1
    billed = [(top[..., k - 1], top[..., 0]) for top in (_kernels._top_slots(f, k) for f in flows)]
    summaries = []
    for layout in (np.ascontiguousarray, stack_innermost):
        laid = [[layout(x) for x in tier] for tier in billed]
        assert all(np.moveaxis(x, 1, -1).flags.c_contiguous == (layout is stack_innermost)
                   for tier in laid for x in tier)
        summaries.append(_kernels._summary(inst.topology, *laid, flows))

    def record(s):
        return [np.asarray(x).tobytes() for x in (s.cost_total, s.penalty, s.feasible)] + [
            getattr(tier, name).tobytes() for tier in (s.edge, s.isp)
            for name in ("z", "peak", "inbound")]

    assert record(summaries[0]) == record(summaries[1])


def test_search_bills_with_the_combinations_innermost(monkeypatch):
    # every element-wise billing step runs along the combinations, not
    # along each combination's few links
    billed = []
    summary = _kernels._summary

    def spy(topology, edge, isp, *args):
        billed.extend([*edge, *isp])
        return summary(topology, edge, isp, *args)

    monkeypatch.setattr(_kernels, "_summary", spy)
    assert baselines.brute_force(make_tiny(1, demand_scale=8.0)) is not None
    assert billed and all(x.shape[1] > 1 for x in billed)
    assert all(np.moveaxis(x, 1, -1).flags.c_contiguous for x in billed)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(n_slots=st.integers(1, 60), cut=st.integers(0, 60), n_values=st.integers(1, 60),
       seed=st.integers(0, 2 ** 16))
@example(n_slots=60, cut=2, n_values=3, seed=1)  # a part shorter than k = 4
def test_merged_order_statistics_equal_the_sort(n_slots, cut, n_values, seed):
    rng = np.random.default_rng(seed)
    # few distinct values, zero among them, give ties, and negative ones
    # tell the -inf padding of a short part from a zero; flows (links, slots)
    pool = np.concatenate([[0.0], rng.uniform(-50.0, 100.0, n_values - 1)])
    flows = rng.choice(pool, size=(3, n_slots))
    cut = min(cut, n_slots)
    m = _kernels.percentile_exempt_count(n_slots)
    k = m + 1
    # the reference: the (m+1)-th largest and the largest of one sort
    ordered = np.sort(flows, axis=-1)
    want = ordered[..., n_slots - 1 - m], ordered[..., -1]
    merged = _kernels._merged_level_and_peak(_kernels._top_slots(flows[:, :cut], k),
                                             _kernels._top_slots(flows[:, cut:], k))
    whole = _kernels._top_slots(flows, k)
    for got in (merged, (whole[..., k - 1], whole[..., 0])):
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


# m = 0, 0, 0, 0, 1, 1, 2, 3 exempt slots
SLOT_COUNTS = [1, 6, 12, 19, 20, 24, 48, 60]


def ranked(flows):
    """m and ``ranked_slots`` of flows at their own billed level."""
    m = _kernels.percentile_exempt_count(flows.shape[-1])
    return m, _kernels.ranked_slots(flows, _kernels._top_slots(flows, m + 1)[..., m], m)


def masks_of(order, m):
    """(exempt, billed) masks of a slot order: its first m slots and its
    (m+1)-th."""
    exempt, billed = np.zeros(order.shape, dtype=bool), np.zeros(order.shape, dtype=bool)
    np.put_along_axis(exempt, order[..., :m], True, axis=-1)
    np.put_along_axis(billed, order[..., m:m + 1], True, axis=-1)
    return exempt, billed


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(n_slots=st.sampled_from(SLOT_COUNTS), lead=st.lists(st.integers(1, 3), max_size=2),
       pool=st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 4.0]), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16))
@example(n_slots=20, lead=[], pool=[2.0], seed=0)  # one value: every slot ties
@example(n_slots=60, lead=[2, 3], pool=[0.0, -0.0], seed=1)  # zeros of both signs tie
def test_ranked_slots_equal_a_stable_sort(n_slots, lead, pool, seed):
    # few integer values give ties at the exemption boundary; flows carry
    # any stack axes ahead of the slots
    flows = np.random.default_rng(seed).choice(np.array(pool), size=(*lead, n_slots))
    m, got = ranked(flows)
    want = masks_of(np.argsort(-flows, axis=-1, kind="stable"), m)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(n_slots=st.sampled_from(SLOT_COUNTS), lead=st.lists(st.integers(1, 3), max_size=2),
       pool=st.lists(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1.0, 2.0]),
                     min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16))
@example(n_slots=20, lead=[], pool=[np.nan], seed=0)  # a NaN level
def test_ranked_slots_put_nan_above_every_number(n_slots, lead, pool, seed):
    flows = np.random.default_rng(seed).choice(np.array(pool), size=(*lead, n_slots))
    m, (exempt, billed) = ranked(flows)
    # NaN first, then numbers largest first, ties to the lowest slot: the
    # order _top_slots reads the billed level from
    nan = np.isnan(flows)
    order = np.lexsort((np.where(nan, 0.0, -flows), ~nan), axis=-1)
    want = masks_of(order, m)
    assert [exempt.tobytes(), billed.tobytes()] == [w.tobytes() for w in want]
    # so the billed slot holds the level that pricing bills
    level = _kernels._top_slots(flows, m + 1)[..., m]
    assert flows[billed].tobytes() == level.reshape(-1).tobytes()


def test_search_runs_with_an_empty_part(monkeypatch):
    """The pinned one-slot instance has 343 combinations, all in its one
    slot: at chunk 7 the suffix holds no slot and each batch is 7
    prefixes, and at chunk 4096 the prefix holds none."""
    inst = pinned_instances()[3]
    parts = []
    hard_edge_flows = _kernels.hard_edge_flows

    def spy(options, *args):
        parts.append(options.shape[:2])  # (part combinations, part slots)
        return hard_edge_flows(options, *args)

    monkeypatch.setattr(_kernels, "hard_edge_flows", spy)
    small, large = search(inst, 7), search(inst, 4096)
    assert parts == [(1, 0)] + [(7, 1)] * 49 + [(343, 1), (1, 0)]
    assert 0.0 < small[0] == large[0] < np.inf
    assert np.array_equal(small[1], large[1])


def test_search_solves_thousands_of_single_combination_slots():
    # one ISP: every block has one option, so 3,000 slots hold one
    # combination; a search that recursed once per slot would overflow
    inst = make_tiny(1, n_slots=3000, n_isps=1)
    table = build_option_table(inst.topology)
    assert baselines.combination_count(inst, table) == 1
    scheme, cost = baselines.brute_force(inst, table=table)
    assert not scheme.option.any()
    assert cost == priced_alone(inst, table, scheme.option)


def test_search_memory_stays_small_at_the_default_chunk():
    # 9**6 = 531,441 combinations; 1.08-1.17 MB measured on seeds 1-4
    inst = make_tiny(1, n_slots=6, demand_scale=8.0)
    assert np.prod(flat_valid_counts(inst, build_option_table(inst.topology))) == 531441
    tracemalloc.start()
    try:
        assert search(inst, 4096)[0] < np.inf
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
