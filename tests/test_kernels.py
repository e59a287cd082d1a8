"""Exhaustive-search kernel: pricing combinations in chunks must not
change the result."""

import hashlib

import numpy as np

from conftest import hopeless_instance, make_tiny
from ecsched import _kernels
from ecsched.model import DemandTensor, Instance, Topology, build_option_table


def flat_valid_counts(inst, table):
    t, n, k = inst.dims
    return np.ascontiguousarray(
        np.broadcast_to(table.n_valid.T[None], (t, n, k)).reshape(-1))


def search(inst, chunk):
    table = build_option_table(inst.topology)
    return _kernels.brute_force_search(
        flat_valid_counts(inst, table), table.weights, inst.demands.inbound,
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
