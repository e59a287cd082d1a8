"""Numeric kernels: per-slot flows of an allocation, their pricing, and
the adjoints of both.

Every route that prices an allocation (the cost model, the soft loss and
its gradient, the samplers, exhaustive search and the MILP objective)
goes through ``price_flows``.  It bills the edge links and the ISP links
with one routine, so the percentile rule, the overage cost and the cap
checks are written once.  One sort per link and direction gives both the
billed level z and the link's largest slot flow, its peak: a link keeps
its physical cap in every slot exactly when its peak does, so
feasibility reads the peaks and z, and the per-slot cap overshoot arrays
are built only when the penalty, the subgradient or a feasibility report
first reads them.  The soft loss's subgradient of that rule,
``price_flows_grad``, is likewise one routine for both tiers, and
``soft_edge_flows_grad`` carries it back to the relaxed allocation.
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
class FlowSummary:
    """Per-slot flows, billable bandwidths, cost and cap checks.

    Shapes are those of one allocation below; any leading batch axes of
    the edge flows are carried through, and the totals then become
    arrays over them.  ``peaks`` holds each link's largest slot flow, in
    this order: edge inbound, edge outbound, ISP inbound, ISP outbound;
    they are views of the sorts that billed the links.  ``feasible``
    compares the peaks with the physical caps and z with the billable
    caps.  ``overshoot`` is built from the flows and the topology's caps
    on first read, and kept: it holds, in the order of ``peaks``, the
    per-slot excess of each flow over its physical cap, then the excess
    of z_edge and z_isp over the billable caps; entries are zero where a
    cap holds.
    """

    topology: object          # the caps and rates the flows were priced against
    edge_in: np.ndarray       # (N, EL, T)
    edge_out: np.ndarray      # (N, EL, T)
    isp_in: np.ndarray        # (EL, T)
    isp_out: np.ndarray       # (EL, T)
    z_edge: np.ndarray        # (N, EL)
    z_isp: np.ndarray         # (EL,)
    inbound_edge: np.ndarray  # (N, EL) True where inbound sets z (ties inbound)
    inbound_isp: np.ndarray   # (EL,)
    peaks: tuple              # (N, EL), (N, EL), (EL,), (EL,)
    cost_total: float

    def _per_allocation_axes(self, arr):
        return tuple(range(self.z_isp.ndim - 1, arr.ndim))

    @property
    def feasible(self):
        """No cap is overshot: every peak is within its physical cap and
        every z within its billable cap.  A NaN peak or z fails its
        check, as its NaN overshoot is nonzero."""
        lead = self.z_isp.shape[:-1]
        ok = True
        for (peak_in, peak_out), z, (_, _, cap_billable, cap_phys) in zip(
                (self.peaks[:2], self.peaks[2:]), (self.z_edge, self.z_isp),
                _link_tiers(self.topology)):
            within = (peak_in <= cap_phys) & (peak_out <= cap_phys) & (z <= cap_billable)
            # copied with the stack axes innermost, so that the reduction
            # runs along the stack and not along each allocation's few links
            by_link = np.moveaxis(within, range(len(lead)), range(-len(lead), 0)).copy()
            ok = ok & by_link.reshape(-1, *lead).all(axis=0)
        return ok

    @cached_property
    def overshoot(self):
        """The six cap overshoot arrays (see the class docstring)."""
        (_, _, bill_e, phys_e), (_, _, bill_l, phys_l) = _link_tiers(self.topology)
        phys = (np.maximum(f - cap[..., None], 0.0) for f, cap in
                ((self.edge_in, phys_e), (self.edge_out, phys_e),
                 (self.isp_in, phys_l), (self.isp_out, phys_l)))
        return (*phys, np.maximum(self.z_edge - bill_e, 0.0), np.maximum(self.z_isp - bill_l, 0.0))

    @property
    def penalty(self):
        """Sum of squared cap overshoots."""
        return _per_allocation(sum((o ** 2).sum(axis=self._per_allocation_axes(o))
                                   for o in self.overshoot))

    @property
    def tiers(self):
        """The edge links, then the ISP links, each as (inbound flows,
        outbound flows, z, inbound sets z, the in and out overshoots of
        the physical cap, the overshoot of z over the billable cap)."""
        o = self.overshoot
        return ((self.edge_in, self.edge_out, self.z_edge, self.inbound_edge, *o[0:2], o[4]),
                (self.isp_in, self.isp_out, self.z_isp, self.inbound_isp, *o[2:4], o[5]))


def _link_tiers(topology):
    """(rate, basic, billable and physical cap) of the edge links, then
    of the ISP links."""
    return ((topology.edge_rate, topology.edge_cap_basic,
             topology.edge_cap_billable, topology.edge_cap_phys),
            (topology.isp_rate, topology.isp_cap_basic,
             topology.isp_cap_billable, topology.isp_cap_phys))


def _bill_links(flow_in, flow_out, rate, cap_basic):
    """Percentile billing of one tier of links, flows (..., L, T).

    Returns (z, inbound sets z, cost per link, the largest inbound and
    outbound slot flow per link), from one sort per direction.
    """
    (z_in, peak_in), (z_out, peak_out) = _billed_and_peak(flow_in), _billed_and_peak(flow_out)
    inbound = z_in >= z_out
    z = np.where(inbound, z_in, z_out)
    return z, inbound, rate * np.maximum(z - cap_basic, 0.0), peak_in, peak_out


def price_flows(topology, edge_in, edge_out):
    """Percentile billing of per-slot edge flows (..., N, EL, T).

    A link's billable bandwidth z is the larger of its inbound and
    outbound (m+1)-th largest slot flows, its cost is rate times the
    overage of z over the basic cap, and ISP flows are sums over users.
    Edge and ISP links are billed by the same routine.
    """
    isp_in, isp_out = edge_in.sum(axis=-3), edge_out.sum(axis=-3)
    (z_e, in_e, cost_e, *peak_e), (z_l, in_l, cost_l, *peak_l) = (
        _bill_links(f_in, f_out, rate, cap_basic) for (f_in, f_out), (rate, cap_basic, _, _)
        in zip(((edge_in, edge_out), (isp_in, isp_out)), _link_tiers(topology)))
    return FlowSummary(
        topology=topology, edge_in=edge_in, edge_out=edge_out, isp_in=isp_in, isp_out=isp_out,
        z_edge=z_e, z_isp=z_l, inbound_edge=in_e, inbound_isp=in_l, peaks=(*peak_e, *peak_l),
        cost_total=_per_allocation(cost_e.sum(axis=(-2, -1)) + cost_l.sum(axis=-1)))


def price_flows_grad(flows, lam_g):
    """Subgradient of cost + lam_g * penalty in the edge flows, from their
    ``price_flows`` summary and its topology: (d/d edge_in, d/d edge_out),
    each shaped like edge_in.

    Conventions at the kinks: ReLU'(0) = 0, the in/out max routes to
    inbound on ties, and the percentile routes to the stable (m+1)-th
    largest slot.
    """
    slots = np.arange(flows.edge_in.shape[-1])
    m = percentile_exempt_count(slots.size)
    grads = []
    for tier, (rate, cap_basic, _, _) in zip(flows.tiers, _link_tiers(flows.topology)):
        flow_in, flow_out, z, inbound, over_in, over_out, over_z = tier
        # the billable terms enter through the billed slot of the
        # direction that sets z
        coef = rate * (z > cap_basic) + 2.0 * lam_g * over_z
        for flow, over, sets_z in ((flow_in, over_in, inbound), (flow_out, over_out, ~inbound)):
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
