"""Numeric kernels: per-slot flows of an allocation, their pricing, and
the adjoints of both.

Every route that prices an allocation (the cost model, the soft loss and
its gradient, the samplers, exhaustive search and the MILP objective)
goes through ``price_flows``.  It bills the edge links and the ISP links
with one routine, so the percentile rule, the overage cost and the cap
checks are written once, and returns a ``FlowSummary`` of one
``LinkTier`` record per tier, whose fields every reader (feasibility,
penalty, subgradient, feasibility report) reads by name.  One sort per
link and direction gives both the billed level z and the link's largest
slot flow, its peak: a link keeps its physical cap in every slot exactly
when its peak does, so feasibility reads the peak and z, and each tier's
per-slot cap overshoot arrays are built only when the penalty, the
subgradient or a feasibility report first reads them.  The soft loss's
subgradient of that rule, ``price_flows_grad``, is likewise one loop
over both tiers, and ``soft_edge_flows_grad`` carries it back to the
relaxed allocation.
Hard and soft flows and pricing take leading batch axes, which lets
exhaustive search price a chunk of combinations in one call and
training price an instance's metric draws in one call.  A stack's
totals equal the totals of its allocations priced one at a time, bit
for bit.  Exhaustive search gathers a chunk's flows from per-slot
flows: a slot's flows depend only on that slot's options, so one
hard-flow call per chunk covers the few slot combinations that the
chunk's combinations share.

Array conventions match the rest of the package: demand tensors are
``[type, user, slot]``, per-slot link flows are ``[user, link, slot]``
(edge) and ``[link, slot]`` (ISP), split weights are
``[type, user, option, link]``.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

BACKEND = "numpy"


def percentile_exempt_count(n_slots):
    """Number of slots the 95th percentile ignores: floor(0.05 T)."""
    if n_slots < 1:
        raise ValueError("need at least one slot")
    return int(0.05 * n_slots)


def _billed_and_peak(flows):
    """The billed level and the largest value along the last (slot) axis,
    both from one sort.  NaN sorts last, so a NaN slot makes the peak NaN."""
    t = flows.shape[-1]
    ordered = np.sort(flows, axis=-1)
    return ordered[..., t - 1 - percentile_exempt_count(t)], ordered[..., -1]


def billed_level(flows):
    """(m+1)-th largest value along the last (slot) axis, m exempt slots."""
    return _billed_and_peak(flows)[0]


def descending_slots(flows):
    """Slot indices by descending flow along the last axis, ties to the
    lowest slot: ``[..., :m]`` are the exempt slots, ``[..., m]`` the
    billed one."""
    return np.argsort(-flows, axis=-1, kind="stable")


def _per_allocation(value):
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class LinkTier:
    """One tier of links, the edge links or the ISP links, as billed.

    The tier's links are (N, EL) for the edge tier and (EL,) for the ISP
    tier, and so are its rate and caps.  The per-slot flows add a slot
    axis after the links, and they, z, inbound and the peak flows keep
    any leading batch axes of the edge flows.  inbound is True where the
    inbound billed level sets z (ties inbound); peak_in and peak_out are
    each link's largest slot flow, views of the sorts that billed it.
    """

    flow_in: np.ndarray
    flow_out: np.ndarray
    z: np.ndarray
    inbound: np.ndarray
    peak_in: np.ndarray
    peak_out: np.ndarray
    rate: np.ndarray
    cap_basic: np.ndarray
    cap_billable: np.ndarray
    cap_phys: np.ndarray

    @property
    def cost(self):
        """Each link's rate times the overage of z over its basic cap."""
        return self.rate * np.maximum(self.z - self.cap_basic, 0.0)

    @cached_property
    def overshoot(self):
        """(in, out, z): the per-slot excess of the inbound and the
        outbound flow over the physical cap, then the excess of z over
        the billable cap; zero where a cap holds.  Built on first read,
        and kept."""
        return (np.maximum(self.flow_in - self.cap_phys[..., None], 0.0),
                np.maximum(self.flow_out - self.cap_phys[..., None], 0.0),
                np.maximum(self.z - self.cap_billable, 0.0))


@dataclass(frozen=True)
class FlowSummary:
    """The two billed tiers of links, and the total cost.

    Shapes are those of one allocation below; any leading batch axes of
    the edge flows are carried through, and the totals then become
    arrays over them.
    """

    edge: LinkTier    # flows (N, EL, T)
    isp: LinkTier     # flows (EL, T), the edge flows summed over users
    cost_total: float

    @property
    def feasible(self):
        """No cap is overshot: every peak flow is within its physical cap
        and every z within its billable cap.  A NaN peak flow or z fails
        its check, as its NaN overshoot is nonzero."""
        lead = self.isp.z.shape[:-1]
        ok = True
        for tier in (self.edge, self.isp):
            within = ((tier.peak_in <= tier.cap_phys) & (tier.peak_out <= tier.cap_phys)
                      & (tier.z <= tier.cap_billable))
            # copied with the stack axes innermost, so that the reduction
            # runs along the stack and not along each allocation's few links
            by_link = np.moveaxis(within, range(len(lead)), range(-len(lead), 0)).copy()
            ok = ok & by_link.reshape(-1, *lead).all(axis=0)
        return ok

    @property
    def penalty(self):
        """Sum of squared cap overshoots, totalled per array in this order:
        edge in, edge out, ISP in, ISP out, edge z, ISP z."""
        (e_in, e_out, e_z), (l_in, l_out, l_z) = self.edge.overshoot, self.isp.overshoot
        return _per_allocation(sum((o ** 2).sum(axis=tuple(range(self.isp.z.ndim - 1, o.ndim)))
                                   for o in (e_in, e_out, l_in, l_out, e_z, l_z)))


def _bill_links(flow_in, flow_out, rate, cap_basic, cap_billable, cap_phys):
    """Percentile billing of one tier of links, flows (..., L, T), from
    one sort per direction."""
    (z_in, peak_in), (z_out, peak_out) = _billed_and_peak(flow_in), _billed_and_peak(flow_out)
    inbound = z_in >= z_out
    return LinkTier(flow_in, flow_out, np.where(inbound, z_in, z_out), inbound, peak_in, peak_out,
                    rate, cap_basic, cap_billable, cap_phys)


def price_flows(topology, edge_in, edge_out):
    """Percentile billing of per-slot edge flows (..., N, EL, T).

    A link's billable bandwidth z is the larger of its inbound and
    outbound (m+1)-th largest slot flows, its cost is rate times the
    overage of z over the basic cap, and ISP flows are sums over users.
    Edge and ISP links are billed by the same routine.
    """
    edge = _bill_links(edge_in, edge_out, topology.edge_rate, topology.edge_cap_basic,
                       topology.edge_cap_billable, topology.edge_cap_phys)
    isp = _bill_links(edge_in.sum(axis=-3), edge_out.sum(axis=-3), topology.isp_rate,
                      topology.isp_cap_basic, topology.isp_cap_billable, topology.isp_cap_phys)
    return FlowSummary(edge=edge, isp=isp, cost_total=_per_allocation(
        edge.cost.sum(axis=(-2, -1)) + isp.cost.sum(axis=-1)))


def price_flows_grad(flows, lam_g):
    """Subgradient of cost + lam_g * penalty in the edge flows, from their
    ``price_flows`` summary: (d/d edge_in, d/d edge_out), each shaped
    like the edge flows.

    Conventions at the kinks: ReLU'(0) = 0, the in/out max routes to
    inbound on ties, and the percentile routes to the stable (m+1)-th
    largest slot.
    """
    slots = np.arange(flows.edge.flow_in.shape[-1])
    m = percentile_exempt_count(slots.size)
    grads = []
    for tier in (flows.edge, flows.isp):
        over_in, over_out, over_z = tier.overshoot
        # the billable terms enter through the billed slot of the
        # direction that sets z
        coef = tier.rate * (tier.z > tier.cap_basic) + 2.0 * lam_g * over_z
        for flow, over, sets_z in ((tier.flow_in, over_in, tier.inbound),
                                   (tier.flow_out, over_out, ~tier.inbound)):
            # built in place: the einsum of soft_edge_flows_grad sums in
            # an order that depends on the memory layout of this array,
            # and an out-of-place sum lays it out differently
            d = 2.0 * lam_g * over
            d += np.where(sets_z, coef, 0.0)[..., None] * (slots == descending_slots(flow)[..., m, None])
            grads.append(d)
    e_in, e_out, l_in, l_out = grads
    # ISP flows are sums over users, so their sensitivities broadcast
    return e_in + l_in[..., None, :, :], e_out + l_out[..., None, :, :]


def _selected_weights(weights, options):
    # split weights of the chosen options, (..., T, N, K) -> (..., T, N, K, EL);
    # np.take of rows of the flattened table is about 10x faster than
    # fancy indexing with three index arrays
    K, N, P, EL = weights.shape
    rows = (np.arange(K) * N + np.arange(N)[:, None]) * P  # (N, K)
    return np.take(weights.reshape(-1, EL), options + rows, axis=0)


def hard_edge_flows(options, weights, d_in, d_out):
    """Per-slot edge link flows of hard schemes.

    options: (..., T, N, K) int64 option indices, weights: (K, N, P, EL),
    d_in/d_out: (K, N, T).  Returns (edge_in, edge_out), each
    (..., N, EL, T).  The flows are written in C order: einsum's default
    output layout here is several times slower, for the einsum and for
    the sorts after it.
    """
    w_sel = _selected_weights(weights, options)  # (..., T, N, K, EL)
    edge_in = np.einsum("...tnkj,knt->...njt", w_sel, d_in, order="C")
    edge_out = np.einsum("...tnkj,knt->...njt", w_sel, d_out, order="C")
    return edge_in, edge_out


def soft_edge_flows(x, weights, d_in, d_out):
    """Per-slot edge link flows of relaxed allocations.

    x: (..., T, N, K, P) option weights, rows on the simplex.  Same
    returns as the hard variant.  Two stacked matmuls with the leading
    axes of x as pure batch axes, so each allocation of a stack goes
    through the same BLAS calls, and gets a block of the same memory
    layout, as it does alone: its flows and every per-allocation sum of
    them are bit-equal to its own.  The flows lie (..., N, T, EL) in
    memory, viewed as (..., N, EL, T).
    """
    K, N, P, EL = weights.shape
    *lead, T = x.shape[:-3]
    # per (k, n) block, each link's share per slot: (EL, P) @ (P, T)
    xb = np.moveaxis(x, -4, -1).swapaxes(-4, -3).reshape(*lead, K * N, P, T)
    w = weights.transpose(0, 1, 3, 2).reshape(K * N, EL, P)
    share = np.matmul(w, xb).reshape(*lead, K, N, EL, T)
    # per (n, t), each link's flow summed over types: (EL, K) @ (K, 1)
    share = np.moveaxis(share, -4, -1).swapaxes(-3, -2).reshape(*lead, N * T, EL, K)

    def flows(d):
        f = np.matmul(share, d.transpose(1, 2, 0).reshape(N * T, K, 1))
        return f.reshape(*lead, N, T, EL).swapaxes(-1, -2)

    return flows(d_in), flows(d_out)


def soft_edge_flows_grad(g_in, g_out, weights, d_in, d_out):
    """Adjoint of soft_edge_flows for one allocation: d loss / d x, (T, N,
    K, P), from the loss's sensitivities g_in and g_out to the edge flows,
    each (N, EL, T), as ``price_flows_grad`` returns them."""
    # d flow[n,j,t] / d x[t,n,k,p] = W[k,n,p,j] * d[k,n,t], per direction
    a = (g_in.transpose(2, 0, 1)[:, :, None, :] * d_in.transpose(2, 1, 0)[:, :, :, None]
         + g_out.transpose(2, 0, 1)[:, :, None, :] * d_out.transpose(2, 1, 0)[:, :, :, None])
    return np.einsum("tnkj,knpj->tnkp", a, weights)


def _digits_for(combo_ids, radices):
    # mixed-radix decode along radices' last axis, last digit fastest
    # (odometer order); radices[..., 0] broadcasts against combo_ids
    digits = np.empty((*combo_ids.shape, radices.shape[-1]), dtype=np.int64)
    rem = combo_ids.copy()
    for b in range(radices.shape[-1] - 1, -1, -1):
        digits[..., b] = rem % radices[..., b]
        rem //= radices[..., b]
    return digits


def brute_force_search(n_valid_flat, weights, d_in, d_out, topology, chunk=4096):
    """Exhaustive search over option combinations, priced in chunks.

    n_valid_flat: (S,) valid option counts, slots flattened t-major as
    s = (t*N + n)*K + k.  Returns (best_cost, best_options (S,)), with
    best_cost inf when no combination is feasible; combos enumerated in
    odometer order (last slot fastest), cost ties resolved toward the
    earlier combination.

    A slot's flows depend only on that slot's N*K options, its slot
    combination.  Slot t has C_t of them, the product of its valid
    counts, and it advances every place_t combinations, the product of the
    later slots' C.  So the chunk [start, stop) visits in slot t a
    cyclic run of min(C_t, (stop-1)//place_t - start//place_t + 1)
    consecutive slot combinations.  Each chunk prices the flows of only
    those runs, in one ``hard_edge_flows`` call, and gathers every
    combination's flows from them.  A flow is the same sum over types
    either way, so the costs are bit-equal to pricing each combination's
    own flows, and memory stays bounded by the chunk.
    """
    K, N = weights.shape[:2]
    T = d_in.shape[2]
    radices = n_valid_flat.reshape(T, N * K)
    counts = [math.prod(int(c) for c in row) for row in radices]
    total = math.prod(counts)
    count = np.array(counts, dtype=np.int64)
    place = np.array([math.prod(counts[t + 1:]) for t in range(T)], dtype=np.int64)
    slots = np.arange(T)

    best_cost = np.inf
    best = np.zeros(n_valid_flat.shape[0], dtype=np.int64)

    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        first = start // place
        run = np.minimum(count, (stop - 1) // place - first + 1)
        # row r holds slot combination (first + r) mod C_t of every slot t
        options = _digits_for((first + np.arange(run.max())[:, None]) % count, radices)
        run_in, run_out = hard_edge_flows(options.reshape(-1, T, N, K), weights, d_in, d_out)
        # each combination's row in every slot's run, (T, ids); slot-major,
        # so every integer op runs along the chunk
        ids = np.arange(start, stop, dtype=np.int64)
        rows = (ids // place[:, None] - first[:, None]) % count[:, None]
        # flat positions in the run flows, (ids, N*EL, T)
        step = run_in[0].size
        flat = (rows * step + slots[:, None]).T[:, None, :] + np.arange(0, step, T)[:, None]
        shape = (ids.size, *run_in.shape[1:])
        flows = price_flows(topology, np.take(run_in, flat).reshape(shape),
                            np.take(run_out, flat).reshape(shape))
        cost = np.where(flows.feasible, flows.cost_total, np.inf)
        j = int(np.argmin(cost))
        if cost[j] < best_cost:  # strict: keeps the earliest minimizer
            best_cost = float(cost[j])
            best = options[rows[:, j], slots].reshape(-1)

    return best_cost, best
