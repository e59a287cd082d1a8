"""Exhaustive-search kernel: pricing combinations in chunks must not
change the result."""

import numpy as np

from conftest import make_tiny
from ecsched import _kernels
from ecsched.model import build_option_table


def flat_valid_counts(inst, table):
    t, n, k = inst.dims
    return np.ascontiguousarray(
        np.broadcast_to(table.n_valid.T[None], (t, n, k)).reshape(-1))


def test_numpy_chunking_is_invisible():
    inst = make_tiny(4, demand_scale=8.0)
    table = build_option_table(inst.topology)
    nv = flat_valid_counts(inst, table)
    args = (table.weights, inst.demands.inbound, inst.demands.outbound, inst.topology)
    a = _kernels.brute_force_search(nv, *args, chunk=7)
    b = _kernels.brute_force_search(nv, *args, chunk=4096)
    assert a[0] == b[0] and a[2] == b[2] and a[3] == b[3]
    assert np.array_equal(a[1], b[1])
