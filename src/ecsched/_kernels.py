"""Numeric kernels: per-slot flows of an allocation and their pricing.

Every route that prices an allocation (the cost model, the soft loss and
its gradient, the samplers, exhaustive search and the MILP objective)
goes through ``price_flows``, so the percentile rule, the overage cost
and the cap checks are written once.  Pricing takes leading batch axes,
which lets exhaustive search price a chunk of combinations in one call.

Array conventions match the rest of the package: demand tensors are
``[type, user, slot]``, per-slot link flows are ``[user, link, slot]``
(edge) and ``[link, slot]`` (ISP), split weights are
``[type, user, option, link]``.
"""

import math
from dataclasses import dataclass

import numpy as np

BACKEND = "numpy"


def percentile_exempt_count(n_slots):
    """Number of slots the 95th percentile ignores: floor(0.05 T)."""
    if n_slots < 1:
        raise ValueError("need at least one slot")
    return int(0.05 * n_slots)


def billed_level(flows):
    """(m+1)-th largest value along the last (slot) axis, m exempt slots."""
    t = flows.shape[-1]
    return np.sort(flows, axis=-1)[..., t - 1 - percentile_exempt_count(t)]


def descending_slots(flows):
    """Slot indices by descending flow along the last axis, ties to the
    lowest slot: ``[..., :m]`` are the exempt slots, ``[..., m]`` the
    billed one."""
    return np.argsort(-flows, axis=-1, kind="stable")


def _per_allocation(value):
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class FlowSummary:
    """Per-slot flows, billable bandwidths, cost and cap overshoots.

    Shapes are those of one allocation below; any leading batch axes of
    the edge flows are carried through, and the totals then become
    arrays over them.  ``overshoot`` holds, in this order, the per-slot
    excess of edge inbound, edge outbound, ISP inbound and ISP outbound
    flow over the physical caps, then the excess of z_edge and z_isp over
    the billable caps; entries are zero where a cap holds.
    """

    edge_in: np.ndarray       # (N, EL, T)
    edge_out: np.ndarray      # (N, EL, T)
    isp_in: np.ndarray        # (EL, T)
    isp_out: np.ndarray       # (EL, T)
    z_edge: np.ndarray        # (N, EL)
    z_isp: np.ndarray         # (EL,)
    inbound_edge: np.ndarray  # (N, EL) True where inbound sets z (ties inbound)
    inbound_isp: np.ndarray   # (EL,)
    cost_edge: np.ndarray
    cost_isp: np.ndarray
    cost_total: float
    overshoot: tuple

    def _per_allocation_axes(self, arr):
        return tuple(range(self.z_isp.ndim - 1, arr.ndim))

    @property
    def feasible(self):
        """No cap is overshot (overshoots are never negative, so any
        nonzero entry is an overshoot)."""
        ok = True
        for o in self.overshoot:
            ok = ok & ~o.any(axis=self._per_allocation_axes(o))
        return ok

    @property
    def penalty(self):
        """Sum of squared cap overshoots."""
        return _per_allocation(sum((o ** 2).sum(axis=self._per_allocation_axes(o))
                                   for o in self.overshoot))


def price_flows(topology, edge_in, edge_out):
    """Percentile billing of per-slot edge flows (..., N, EL, T).

    A link's billable bandwidth z is the larger of its inbound and
    outbound (m+1)-th largest slot flows, its cost is rate times the
    overage of z over the basic cap, and ISP flows are sums over users.
    """
    isp_in = edge_in.sum(axis=-3)
    isp_out = edge_out.sum(axis=-3)
    zin_e, zout_e = billed_level(edge_in), billed_level(edge_out)
    zin_l, zout_l = billed_level(isp_in), billed_level(isp_out)
    inbound_edge = zin_e >= zout_e
    inbound_isp = zin_l >= zout_l
    z_edge = np.where(inbound_edge, zin_e, zout_e)
    z_isp = np.where(inbound_isp, zin_l, zout_l)
    cost_edge = topology.edge_rate * np.maximum(z_edge - topology.edge_cap_basic, 0.0)
    cost_isp = topology.isp_rate * np.maximum(z_isp - topology.isp_cap_basic, 0.0)
    phys_e = topology.edge_cap_phys[:, :, None]
    phys_l = topology.isp_cap_phys[:, None]
    overshoot = (
        np.maximum(edge_in - phys_e, 0.0), np.maximum(edge_out - phys_e, 0.0),
        np.maximum(isp_in - phys_l, 0.0), np.maximum(isp_out - phys_l, 0.0),
        np.maximum(z_edge - topology.edge_cap_billable, 0.0),
        np.maximum(z_isp - topology.isp_cap_billable, 0.0))
    return FlowSummary(
        edge_in=edge_in, edge_out=edge_out, isp_in=isp_in, isp_out=isp_out,
        z_edge=z_edge, z_isp=z_isp, inbound_edge=inbound_edge, inbound_isp=inbound_isp,
        cost_edge=cost_edge, cost_isp=cost_isp,
        cost_total=_per_allocation(cost_edge.sum(axis=(-2, -1)) + cost_isp.sum(axis=-1)),
        overshoot=overshoot)


def _selected_weights(weights, options):
    # split weights of the chosen options, (..., T, N, K) -> (..., T, N, K, EL);
    # np.take of rows of the flattened table is about 10x faster than
    # fancy indexing with three index arrays
    K, N, P, EL = weights.shape
    rows = (np.arange(K) * N + np.arange(N)[:, None]) * P  # (N, K)
    return np.take(weights.reshape(-1, EL), options + rows, axis=0)


def hard_edge_flows(options, weights, d_in, d_out):
    """Per-slot edge link flows of a hard scheme.

    options: (T, N, K) int64 option indices, weights: (K, N, P, EL),
    d_in/d_out: (K, N, T).  Returns (edge_in, edge_out), each (N, EL, T).
    The flows are written in C order: einsum's default output layout here
    is several times slower, for the einsum and for the sorts after it.
    """
    w_sel = _selected_weights(weights, options)  # (T, N, K, EL)
    edge_in = np.einsum("tnkj,knt->njt", w_sel, d_in, order="C")
    edge_out = np.einsum("tnkj,knt->njt", w_sel, d_out, order="C")
    return edge_in, edge_out


def soft_edge_flows(x, weights, d_in, d_out):
    """Per-slot edge link flows of a relaxed allocation.

    x: (T, N, K, P) option weights, rows on the simplex.  Same returns as
    the hard variant.
    """
    edge_in = np.einsum("tnkp,knpj,knt->njt", x, weights, d_in, optimize=True)
    edge_out = np.einsum("tnkp,knpj,knt->njt", x, weights, d_out, optimize=True)
    return edge_in, edge_out


def _digits_for(combo_ids, radices):
    # mixed-radix decode, last slot fastest (odometer order)
    S = radices.shape[0]
    digits = np.empty((combo_ids.shape[0], S), dtype=np.int64)
    rem = combo_ids.copy()
    for s in range(S - 1, -1, -1):
        digits[:, s] = rem % radices[s]
        rem //= radices[s]
    return digits


def brute_force_search(n_valid_flat, weights, d_in, d_out, topology, chunk=4096):
    """Exhaustive search over option combinations, priced in chunks.

    n_valid_flat: (S,) valid option counts, slots flattened t-major as
    s = (t*N + n)*K + k.  Returns (best_cost, best_options (S,), found,
    n_feasible); combos enumerated in odometer order (last slot fastest),
    cost ties resolved toward the earlier combination.
    """
    K, N = weights.shape[:2]
    T = d_in.shape[2]
    total = math.prod(int(c) for c in n_valid_flat)

    best_cost = np.inf
    best = np.zeros(n_valid_flat.shape[0], dtype=np.int64)
    found = False
    n_feasible = 0

    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = _digits_for(ids, n_valid_flat)
        w_sel = _selected_weights(weights, digits.reshape(-1, T, N, K))  # (B, T, N, K, EL)
        # C order for speed, as in hard_edge_flows
        flows = price_flows(topology,
                            np.einsum("btnkj,knt->bnjt", w_sel, d_in, order="C"),
                            np.einsum("btnkj,knt->bnjt", w_sel, d_out, order="C"))
        ok = flows.feasible
        cost = np.where(ok, flows.cost_total, np.inf)

        n_feasible += int(ok.sum())
        j = int(np.argmin(cost))
        if cost[j] < best_cost:  # strict: keeps the earliest minimizer
            best_cost = float(cost[j])
            best = digits[j].copy()
            found = True

    return best_cost, best, found, n_feasible
