"""Numeric kernels: per-slot flows of an allocation, their pricing, and
the adjoints of both.

Every route that prices an allocation (the cost model, the soft loss and
its gradient, the samplers and the MILP objective) goes through
``price_flows``, and exhaustive search through the same billing code.
``_bill_links`` bills a tier of links, the edge links or the ISP links,
from its billed levels and peaks, so the inbound tie rule,
the overage cost and the cap checks are written once, and
``_summary`` returns a ``FlowSummary`` of one ``LinkTier`` record per
tier and the total cost; every reader (feasibility, penalty,
subgradient, feasibility report) reads the records by name.
One order statistic, ``_top_slots``, the k = m + 1 largest slot flows
of each link and direction from one sort per tier, gives every billed
level z (its [..., m]) and every peak, the largest slot flow (its
[..., 0]): a link keeps its physical cap in every slot and direction
exactly when the larger of its two peaks does, so each link keeps that
one peak, feasibility reads it and z, and each tier's per-slot cap
overshoot array is built only when the penalty, the subgradient or a
feasibility report first reads it.  Which slots a billed level exempts
and which one it bills is read from the level itself (``ranked_slots``:
ties go to the lowest slot, and NaN ranks above every number, as
``_top_slots`` orders it), so that one sort is the package's only sort
of slot values.  The soft loss's subgradient of that rule,
``price_flows_grad``, routes each billed term to the slot so ranked, and
is likewise one loop over both tiers; ``soft_edge_flows_grad`` carries
it back to the relaxed allocation.  The MILP warm start marks the
exempt slots so ranked.
Hard and soft flows and pricing take leading batch axes, which lets
training price an instance's metric draws in one call.  A stack's
totals equal the totals of its allocations priced one at a time, bit
for bit.  Exhaustive search builds no per-combination flows: it splits
the slots in two parts, keeps each part's ``_top_slots`` with k of all
the slots, and merges a combination's two parts into its billed levels
and peaks (``_merged_level_and_peak``), which equal those
``price_flows`` reads from the statistic of the whole.

Billed levels and peaks may arrive in any memory order.  The
element-wise billing steps follow it, and each allocation's cost, and
the penalty's per-link terms, are totalled from a C-ordered copy, so
the bytes do not depend on it (the penalty's per-slot terms follow the
flows' own layout, which the flow kernels fix).  Exhaustive search
keeps its combinations innermost in memory, so every billing step runs
along thousands of combinations, not along one combination's few
links.

Array conventions match the rest of the package: demand tensors are
``[type, user, slot]``, per-slot link flows are ``[direction, user,
link, slot]`` (edge) and ``[direction, link, slot]`` (ISP), inbound
then outbound as in the MILP's flow blocks, so every billing step runs
once per tier with the direction as an index (any stack axes follow
the direction), and split weights are ``[type, user, option, link]``.
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


def _top_slots(flows, k):
    """The k largest values along the last (slot) axis, largest first, on
    a trailing axis of length k: [..., 0] is the peak, and with k = m + 1
    [..., m] is the billed level.  A basic-slice view of one sort; only a
    series shorter than k is padded with -inf, into a copy.  NaN sorts
    last, so a NaN slot makes the peak NaN."""
    top = np.sort(flows, axis=-1)[..., :-k - 1:-1]
    short = k - top.shape[-1]
    return top if short == 0 else np.concatenate(
        [top, np.full((*top.shape[:-1], short), -np.inf)], axis=-1)


def _merged_level_and_peak(a, b):
    """The billed level and the peak of slots split into two parts, from
    each part's ``_top_slots`` with k = m + 1 of all the slots (broadcast
    against each other).  With a_i the i-th largest of a (1-based, a_0 =
    +inf) and b_j likewise, the k-th largest of the union is the largest
    min(a_i, b_(k-i)) over i = 0..k, and the peak is the larger peak.
    Both are values of the union, those its sort gives, so equal to them
    bit for bit (NaN aside, and the sign of a zero)."""
    k = a.shape[-1]
    peak = np.maximum(a[..., 0], b[..., 0])
    level = peak if k == 1 else np.maximum(a[..., k - 1], b[..., k - 1])  # i = k and i = 0
    for i in range(1, k):
        level = np.maximum(level, np.minimum(a[..., i - 1], b[..., k - 1 - i]))
    return level, peak


def ranked_slots(flows, level, m):
    """(exempt, billed) masks shaped like flows: a series' m largest slots
    and its (m+1)-th, read from its billed level (``_top_slots(flows, m +
    1)[..., m]``) with no second sort.  Ties go to the lowest slot, and
    NaN ranks above every number, as ``_top_slots`` orders it: with g
    slots above the level, the exempt slots are those g and the first m -
    g slots equal to it, and the billed slot is the (m+1-g)-th equal."""
    level = level[..., None]
    above = ~(flows <= level) & ~np.isnan(level)
    tied = (flows == level) | np.isnan(level) & np.isnan(flows)
    rank = above.sum(axis=-1, keepdims=True) + np.cumsum(tied, axis=-1)
    return above | tied & (rank <= m), tied & (rank == m + 1)


def _per_allocation(value):
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class LinkTier:
    """One tier of links, the edge links or the ISP links, as billed.

    The tier's links are (N, EL) for the edge tier and (EL,) for the ISP
    tier, and so are its rate and caps.  flows are the per-slot flows,
    (2, ..., links, T): the direction (inbound, then outbound), any batch
    axes of the edge flows, the links and the slots; z, inbound and peak
    keep the batch axes.  inbound is True where the inbound billed level
    sets z (ties inbound); peak is each link's largest slot flow in
    either direction, the larger of the two directions' peaks (NaN when
    either is NaN).  Only ``overshoot`` reads flows, and exhaustive
    search, which never reads it, bills from order statistics and leaves
    them None.
    """

    flows: np.ndarray
    z: np.ndarray
    inbound: np.ndarray
    peak: np.ndarray
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
        """(flows, z): the per-slot excess of each direction's flow over
        the physical cap, shaped like flows, then the excess of z over the
        billable cap; zero where a cap holds.  Built on first read, and
        kept."""
        return (np.maximum(self.flows - self.cap_phys[..., None], 0.0),
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
        """No cap is overshot: every link's peak is within its physical cap
        and its z within its billable cap.  A NaN peak or z fails its
        check, as its NaN overshoot is nonzero."""
        lead = self.isp.z.shape[:-1]
        ok = True
        for tier in (self.edge, self.isp):
            within = (tier.peak <= tier.cap_phys) & (tier.z <= tier.cap_billable)
            # the stack axes innermost (copied unless they already are
            # there, as in exhaustive search), so that the reduction runs
            # along the stack and not along each allocation's few links
            by_link = np.ascontiguousarray(within.transpose(*range(len(lead), within.ndim),
                                                            *range(len(lead))))
            ok = ok & by_link.reshape(-1, *lead).all(axis=0)
        return ok

    @property
    def penalty(self):
        """Sum of squared cap overshoots, totalled per array in this order:
        edge in, edge out, ISP in, ISP out, edge z, ISP z.  The per-slot
        totals follow the flows' memory layout, which the flow kernels set,
        and the per-link ones read a C-ordered copy, like ``cost_total``."""
        (edge, edge_z), (isp, isp_z) = self.edge.overshoot, self.isp.overshoot
        per_link = [np.ascontiguousarray(o) for o in (edge_z, isp_z)]
        return _per_allocation(sum((o ** 2).sum(axis=tuple(range(self.isp.z.ndim - 1, o.ndim)))
                                   for o in (*edge, *isp, *per_link)))


def _bill_links(billed, flows, rate, cap_basic, cap_billable, cap_phys):
    """Percentile billing of one tier of links (..., L) from its (billed
    level, peak), each (2, ..., L) with the direction leading."""
    (z_in, z_out), (peak_in, peak_out) = billed
    inbound = z_in >= z_out
    return LinkTier(flows, np.where(inbound, z_in, z_out), inbound,
                    np.maximum(peak_in, peak_out), rate, cap_basic, cap_billable, cap_phys)


def _summary(topology, edge, isp, flows=(None, None)):
    """Both tiers billed, and the total cost, from each tier's (billed
    level, peak).  flows are the per-slot (edge, ISP) flows that only
    ``LinkTier.overshoot`` reads; exhaustive search builds none, so its
    records hold None."""
    edge = _bill_links(edge, flows[0], topology.edge_rate, topology.edge_cap_basic,
                       topology.edge_cap_billable, topology.edge_cap_phys)
    isp = _bill_links(isp, flows[1], topology.isp_rate, topology.isp_cap_basic,
                      topology.isp_cap_billable, topology.isp_cap_phys)
    return FlowSummary(edge=edge, isp=isp, cost_total=_per_allocation(
        np.ascontiguousarray(edge.cost).sum(axis=(-2, -1))
        + np.ascontiguousarray(isp.cost).sum(axis=-1)))


def price_flows(topology, edge):
    """Percentile billing of per-slot edge flows (2, ..., N, EL, T), in then out.

    A link's billable bandwidth z is the larger of its inbound and
    outbound (m+1)-th largest slot flows, its cost is rate times the
    overage of z over the basic cap, and ISP flows are sums over users.
    Edge and ISP links are billed by the same routine, from the k = m + 1
    largest slot flows per link and direction (``_top_slots``).
    """
    flows = (edge, edge.sum(axis=-3))
    k = percentile_exempt_count(edge.shape[-1]) + 1
    tops = [_top_slots(f, k) for f in flows]
    return _summary(topology, *((top[..., k - 1], top[..., 0]) for top in tops), flows)


def price_flows_grad(flows, lam_g):
    """Subgradient of cost + lam_g * penalty in the edge flows, from their
    ``price_flows`` summary, shaped like the edge flows (2, ..., N, EL,
    T), inbound then outbound.

    Conventions at the kinks: ReLU'(0) = 0, the in/out max routes to
    inbound on ties, and the percentile routes to the slot ``price_flows``
    bills, the (m+1)-th largest with ties to the lowest slot and NaN above
    every number (``ranked_slots``): with one NaN slot and a numeric
    level, the billed slot is the m-th largest number's.
    """
    m = percentile_exempt_count(flows.edge.flows.shape[-1])
    grads = []
    for tier in (flows.edge, flows.isp):
        over, over_z = tier.overshoot
        # the billable terms enter through the billed slot of the
        # direction that sets z
        coef = tier.rate * (tier.z > tier.cap_basic) + 2.0 * lam_g * over_z
        sets_z = np.stack([tier.inbound, ~tier.inbound])
        # built in place: the einsum of soft_edge_flows_grad sums in an
        # order that depends on the memory layout of this array, and an
        # out-of-place sum lays it out differently
        d = 2.0 * lam_g * over
        # each direction's slots are ranked against z, which only the
        # direction that sets z bills; the other's coefficient is zero
        d += np.where(sets_z, coef, 0.0)[..., None] * ranked_slots(tier.flows, tier.z, m)[1]
        grads.append(d)
    edge, isp = grads
    # ISP flows are sums over users, so their sensitivities broadcast
    return edge + isp[..., None, :, :]


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
    d_in/d_out: (K, N, T).  Returns the flows (2, ..., N, EL, T),
    inbound then outbound.  They are written in C order: einsum's
    default output layout here is several times slower, for the einsum
    and for the sorts after it.
    """
    w_sel = _selected_weights(weights, options)  # (..., T, N, K, EL)
    *lead, T, N, _, EL = w_sel.shape
    edge = np.empty((2, *lead, N, EL, T))
    for d, demand in enumerate((d_in, d_out)):
        np.einsum("...tnkj,knt->...njt", w_sel, demand, out=edge[d])
    return edge


def soft_edge_flows(x, weights, d_in, d_out):
    """Per-slot edge link flows of relaxed allocations.

    x: (..., T, N, K, P) option weights, rows on the simplex.  Same
    returns as the hard variant.  Two stacked matmuls with the leading
    axes of x as pure batch axes, so each allocation of a stack goes
    through the same BLAS calls, and gets a block of the same memory
    layout, as it does alone: its flows and every per-allocation sum of
    them are bit-equal to its own.  Each direction's flows lie
    (..., N, T, EL) in memory, viewed as (..., N, EL, T).
    """
    K, N, P, EL = weights.shape
    *lead, T = x.shape[:-3]
    # per (k, n) block, each link's share per slot: (EL, P) @ (P, T)
    xb = np.moveaxis(x, -4, -1).swapaxes(-4, -3).reshape(*lead, K * N, P, T)
    w = weights.transpose(0, 1, 3, 2).reshape(K * N, EL, P)
    share = np.matmul(w, xb).reshape(*lead, K, N, EL, T)
    # per (n, t), each link's flow summed over types: (EL, K) @ (K, 1)
    share = np.moveaxis(share, -4, -1).swapaxes(-3, -2).reshape(*lead, N * T, EL, K)

    edge = np.empty((2, *lead, N * T, EL, 1))
    for d, demand in enumerate((d_in, d_out)):
        np.matmul(share, demand.transpose(1, 2, 0).reshape(N * T, K, 1), out=edge[d])
    return edge.reshape(2, *lead, N, T, EL).swapaxes(-1, -2)


def soft_edge_flows_grad(g, weights, d_in, d_out):
    """Adjoint of soft_edge_flows for one allocation: d loss / d x, (T, N,
    K, P), from the loss's sensitivity g to the edge flows (2, N, EL, T),
    inbound then outbound, as ``price_flows_grad`` returns it."""
    # d flow[n,j,t] / d x[t,n,k,p] = W[k,n,p,j] * d[k,n,t], per direction
    a = (g[0].transpose(2, 0, 1)[:, :, None, :] * d_in.transpose(2, 1, 0)[:, :, :, None]
         + g[1].transpose(2, 0, 1)[:, :, None, :] * d_out.transpose(2, 1, 0)[:, :, :, None])
    return np.einsum("tnkj,knpj->tnkp", a, weights)


def _digits_for(combo_ids, radices):
    # mixed-radix decode, (ids,) -> (ids, radices.size), last digit
    # fastest (odometer order)
    digits = np.empty((combo_ids.size, radices.size), dtype=np.int64)
    rem = combo_ids.copy()
    for b in range(radices.size - 1, -1, -1):
        digits[:, b] = rem % radices[b]
        rem //= radices[b]
    return digits


def brute_force_search(n_valid_flat, weights, d_in, d_out, topology, chunk=4096):
    """Exhaustive search over option combinations, priced in chunks.

    n_valid_flat: (S,) valid option counts, slots flattened t-major as
    s = (t*N + n)*K + k.  Returns (best_cost, best_options (S,)), with
    best_cost inf when no combination is feasible; combos enumerated in
    odometer order (last slot fastest), cost ties resolved toward the
    earlier combination.

    Each combination splits at one slot boundary into a suffix, its
    options in the longest run of trailing slots that has at most chunk
    combinations (possibly no slot), and a prefix, its options in the
    slots before.  A part's flows depend only on its own options, so each
    suffix's flows are priced once per search, and each prefix's once per
    batch of chunk // (suffix count) prefixes (at least one), into their
    ``_top_slots`` per tier, k = m + 1, laid out (2, links..., ids, k)
    with the ids innermost in memory.  A combination's billed levels and
    peaks merge its two parts' (``_merged_level_and_peak``, once per
    tier, into (2, links..., prefixes, suffixes)) with no per-combination
    flows or sort; they equal those ``price_flows`` reads from its own
    flows bit for bit, so its cost does too, and memory stays bounded by
    the chunk.  ``_summary`` bills them as (2, combinations, links...)
    views, so every element-wise billing step runs along the batch's
    combinations, which lie innermost in memory.
    """
    K, N = weights.shape[:2]
    T = d_in.shape[2]
    radices = n_valid_flat.reshape(T, N * K)
    counts = [math.prod(int(c) for c in row) for row in radices]
    split = T
    while split > 0 and math.prod(counts[split - 1:]) <= chunk:
        split -= 1
    n_prefix, n_suffix = math.prod(counts[:split]), math.prod(counts[split:])
    k = percentile_exempt_count(T) + 1

    def part(ids, lo, hi):
        # the options of slots [lo, hi) of each part id, and the k largest
        # edge and ISP flows there, (2, links..., ids, k) with the ids
        # innermost in memory
        digits = _digits_for(ids, radices[lo:hi].reshape(-1))
        edge = hard_edge_flows(digits.reshape(ids.size, hi - lo, N, K), weights,
                               d_in[..., lo:hi], d_out[..., lo:hi])
        tops = [_top_slots(f, k) for f in (edge, edge.sum(axis=-3))]
        return digits, [t.transpose(0, *range(2, t.ndim), 1).copy().swapaxes(-1, -2) for t in tops]

    suffixes, suffix_top = part(np.arange(n_suffix, dtype=np.int64), split, T)
    per_batch = max(1, chunk // n_suffix)
    best_cost = np.inf
    best = np.zeros(n_valid_flat.shape[0], dtype=np.int64)

    for start in range(0, n_prefix, per_batch):
        prefixes, prefix_top = part(
            np.arange(start, min(start + per_batch, n_prefix), dtype=np.int64), 0, split)
        # (2, links..., prefixes, suffixes) flattened: combinations in
        # odometer order, innermost in memory, billed as (2, combinations,
        # links...) views
        billed = [[x.reshape(*x.shape[:-2], -1).transpose(0, -1, *range(1, x.ndim - 2))
                   for x in _merged_level_and_peak(a[..., :, None, :], b[..., None, :, :])]
                  for a, b in zip(prefix_top, suffix_top)]
        flows = _summary(topology, *billed)
        cost = np.where(flows.feasible, flows.cost_total, np.inf)
        j = int(np.argmin(cost))
        if cost[j] < best_cost:  # strict: keeps the earliest minimizer
            best_cost = float(cost[j])
            best = np.concatenate([prefixes[j // n_suffix], suffixes[j % n_suffix]])

    return best_cost, best
