"""Traffic allocation model with 95th-percentile billing.

A billing cycle has T five-minute slots.  Each of N users reaches EL ISPs
through its own edge links; per ISP, an aggregated link carries that ISP's
traffic from all users.  In every slot each (user, traffic type) demand
pair is assigned one *option*: a nonempty subset of its admissible links,
over which the demand is split in proportion to basic link capacities.
A link bills the overage of its billable bandwidth over its basic
capacity, where the billable bandwidth is the larger of the inbound and
outbound 95th percentiles of per-slot utilization.

Conventions fixed here and relied on everywhere else:

* demand tensors are indexed ``[type k, user n, slot t]``;
* hard schemes are option index arrays ``[t, n, k]``; relaxed allocations
  add a trailing option axis ``[t, n, k, p]``;
* option p of a pair whose admissible links are ``a_0 < a_1 < ...``
  (ascending global link position) selects ``{a_j : bit j of p+1 set}``,
  i.e. binary counting: p = 0, 1, 2 pick {a_0}, {a_1}, {a_0, a_1};
* the percentile exempts ``m = floor(0.05 T)`` slots, so g95 is the
  (m+1)-th largest value; on ties the lowest slot index is selected;
* ``max(inbound, outbound)`` resolves ties toward inbound.

``Topology``, ``DemandTensor`` and ``Instance`` check themselves at
construction, so an instance that exists is valid: pricing, sampling,
search and export code trusts what it is given and never re-checks it.
All operations are pure: they never mutate their inputs, so instances and
option tables can be shared freely across threads.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import FlowSummary, percentile_exempt_count


class InvalidTopologyError(ValueError):
    """Topology arrays are inconsistent or violate a capacity ordering."""


@dataclass(frozen=True)
class Topology:
    """Static network description.

    Edge arrays are (N, EL), ISP arrays are (EL,).  ``admissible`` is a
    boolean (K, N, EL) tensor; every (k, n) row must have at least one
    True entry.
    """

    edge_cap_basic: np.ndarray
    edge_cap_billable: np.ndarray
    edge_cap_phys: np.ndarray
    edge_rate: np.ndarray
    isp_cap_basic: np.ndarray
    isp_cap_billable: np.ndarray
    isp_cap_phys: np.ndarray
    isp_rate: np.ndarray
    admissible: np.ndarray

    def __post_init__(self):
        self.validate()

    @property
    def n_users(self):
        return self.edge_cap_basic.shape[0]

    @property
    def n_isps(self):
        return self.edge_cap_basic.shape[1]

    @property
    def n_types(self):
        return self.admissible.shape[0]

    def validate(self):
        n, el = self.edge_cap_basic.shape
        for name in ("edge_cap_basic", "edge_cap_billable", "edge_cap_phys", "edge_rate"):
            if getattr(self, name).shape != (n, el):
                raise InvalidTopologyError(f"{name} must have shape ({n}, {el})")
        for name in ("isp_cap_basic", "isp_cap_billable", "isp_cap_phys", "isp_rate"):
            if getattr(self, name).shape != (el,):
                raise InvalidTopologyError(f"{name} must have shape ({el},)")
        if self.admissible.shape[1:] != (n, el):
            raise InvalidTopologyError("admissible must have shape (K, {}, {})".format(n, el))
        if self.admissible.dtype != np.bool_:
            raise InvalidTopologyError("admissible must be boolean")
        if not (self.admissible.any(axis=2)).all():
            raise InvalidTopologyError("every (type, user) pair needs at least one admissible link")
        for cb, cm, cM, where in (
            (self.edge_cap_basic, self.edge_cap_billable, self.edge_cap_phys, "edge"),
            (self.isp_cap_basic, self.isp_cap_billable, self.isp_cap_phys, "ISP"),
        ):
            if (cb < 0).any() or (cb > cm).any() or (cm > cM).any():
                raise InvalidTopologyError(f"{where} capacities must satisfy 0 <= basic <= billable <= physical")
        if (self.edge_rate < 0).any() or (self.isp_rate < 0).any():
            raise InvalidTopologyError("billing rates must be nonnegative")
        return self


@dataclass(frozen=True)
class DemandTensor:
    """Inbound/outbound demand, each (K, N, T), nonnegative.

    The generator only ever produces strictly positive demands; zeros are
    legal here so degenerate instances can be expressed directly.
    """

    inbound: np.ndarray
    outbound: np.ndarray

    def __post_init__(self):
        self.validate()

    @property
    def n_slots(self):
        return self.inbound.shape[2]

    def validate(self):
        if self.inbound.shape != self.outbound.shape or self.inbound.ndim != 3:
            raise ValueError("demand tensors must share one (K, N, T) shape")
        if (self.inbound < 0).any() or (self.outbound < 0).any():
            raise ValueError("demands must be nonnegative")
        if not (np.isfinite(self.inbound).all() and np.isfinite(self.outbound).all()):
            raise ValueError("demands must be finite")
        return self


@dataclass(frozen=True)
class Instance:
    """A topology plus one billing cycle of demands."""

    topology: Topology
    demands: DemandTensor
    instance_id: str = "unnamed"
    seed: int | None = None

    def __post_init__(self):
        self.validate()

    @property
    def dims(self):
        """(T, N, K) of this instance."""
        k, n, t = self.demands.inbound.shape
        return t, n, k

    def validate(self):
        """ValueError unless the demands' (K, N) match the topology; returns
        self.  The topology and the demands checked themselves when built."""
        k, n, _ = self.demands.inbound.shape
        if (k, n) != (self.topology.n_types, self.topology.n_users):
            raise ValueError("demand tensor does not match topology (K, N)")
        return self


@dataclass(frozen=True)
class OptionTable:
    """Precomputed option encoding for one topology.

    weights[k, n, p, j] is the fraction of demand (k, n) placed on edge
    link j under option p (zero rows past the valid count); valid[k, n, p]
    marks real options; n_valid[k, n] = 2**s - 1 for s admissible links.
    """

    weights: np.ndarray
    valid: np.ndarray
    n_valid: np.ndarray

    @property
    def n_options(self):
        return self.weights.shape[2]


def build_option_table(topology, n_options=None):
    """Enumerate link subsets and their capacity-proportional split weights.

    Option p (0-based) selects the links whose global ascending positions
    correspond to the set bits of p + 1 over that pair's admissible links.
    The table is padded with zero rows up to ``n_options`` (default
    2**EL - 1).
    """
    k_types, n_users, el = topology.admissible.shape
    if n_options is None:
        n_options = 2 ** el - 1
    weights = np.zeros((k_types, n_users, n_options, el))
    valid = np.zeros((k_types, n_users, n_options), dtype=bool)
    n_valid = np.zeros((k_types, n_users), dtype=np.int64)
    for k in range(k_types):
        for n in range(n_users):
            links = np.flatnonzero(topology.admissible[k, n])
            count = 2 ** links.size - 1
            if count > n_options:
                raise InvalidTopologyError(
                    f"{links.size} admissible links need {count} options, table holds {n_options}")
            n_valid[k, n] = count
            cb = topology.edge_cap_basic[n]
            for p in range(count):
                bits = p + 1
                sel = links[[j for j in range(links.size) if bits >> j & 1]]
                w = cb[sel]
                total = w.sum()
                if total > 0:
                    weights[k, n, p, sel] = w / total
                else:
                    # all-zero basic capacities: fall back to an even split
                    weights[k, n, p, sel] = 1.0 / sel.size
                valid[k, n, p] = True
    return OptionTable(weights=weights, valid=valid, n_valid=n_valid)


@dataclass(frozen=True)
class AllocationScheme:
    """Hard allocation: option[t, n, k] is an option index."""

    option: np.ndarray

    @property
    def dims(self):
        return self.option.shape


@dataclass(frozen=True)
class SoftAllocation:
    """Relaxed allocation: x[t, n, k, p] with each valid row on the simplex."""

    x: np.ndarray

    @property
    def dims(self):
        return self.x.shape[:3]


@dataclass
class FeasibilityReport:
    """Violations per constraint family, as (location, overshoot Mbps).

    Edge physical locations are (user, link, slot, direction), ISP
    physical are (link, slot, direction), billable locations drop slot
    and direction.  ``feasible`` is True exactly when all lists are empty.
    """

    edge_phys: list = field(default_factory=list)
    isp_phys: list = field(default_factory=list)
    edge_billable: list = field(default_factory=list)
    isp_billable: list = field(default_factory=list)

    @classmethod
    def from_flows(cls, flows):
        """Every positive overshoot of a FlowSummary, by constraint family."""
        report = cls()
        families = ((report.edge_phys, ("in",)), (report.edge_phys, ("out",)),
                    (report.isp_phys, ("in",)), (report.isp_phys, ("out",)),
                    (report.edge_billable, ()), (report.isp_billable, ()))
        for (family, direction), over in zip(families, flows.overshoot):
            for idx in np.argwhere(over > 0):
                loc = tuple(int(i) for i in idx)
                family.append((loc + direction, float(over[loc])))
        return report

    @property
    def feasible(self):
        return not (self.edge_phys or self.isp_phys or self.edge_billable or self.isp_billable)

    def counts(self):
        return {
            "edge_phys": len(self.edge_phys),
            "isp_phys": len(self.isp_phys),
            "edge_billable": len(self.edge_billable),
            "isp_billable": len(self.isp_billable),
        }


def g95(series):
    """95th-percentile bandwidth of a per-slot series.

    Sorted descending, the first floor(0.05 T) entries are exempt and the
    next one is the billable value.  With T < 20 no slot is exempt and
    this is the maximum.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("series must be a nonempty 1-d array")
    return float(_kernels.billed_level(arr))


def check_scheme(instance, option, table):
    """ValueError unless option is a (T, N, K) array of the instance's options.

    The shape is checked first; the first block (slot-major) holding an
    option outside ``[0, n_valid)`` is named.
    """
    if option.shape != instance.dims:
        raise ValueError(f"scheme shape {option.shape} does not match instance dims {instance.dims}")
    bad = np.argwhere((option < 0) | (option >= table.n_valid.T))
    if bad.size:
        t, n, k = bad[0]
        raise ValueError(f"option {option[t, n, k]} out of range at slot {t}, user {n}, type {k}")


def _check_alloc(instance, alloc, table):
    if isinstance(alloc, AllocationScheme):
        check_scheme(instance, alloc.option, table)
    elif isinstance(alloc, SoftAllocation):
        if alloc.x.shape != (*instance.dims, table.n_options):
            raise ValueError(f"allocation shape {alloc.x.shape} does not match instance dims")
    else:
        raise TypeError("expected AllocationScheme or SoftAllocation")


def compute_flows(instance, alloc, table=None):
    """Aggregate an allocation into per-slot flows, billables, and cost.

    ``alloc`` may be hard or relaxed.  Caps are not enforced here; their
    overshoots are reported (see check_feasibility).
    """
    if table is None:
        table = build_option_table(instance.topology)
    _check_alloc(instance, alloc, table)
    d_in = instance.demands.inbound
    d_out = instance.demands.outbound
    if isinstance(alloc, AllocationScheme):
        edge_in, edge_out = _kernels.hard_edge_flows(
            np.ascontiguousarray(alloc.option), table.weights, d_in, d_out)
    else:
        edge_in, edge_out = _kernels.soft_edge_flows(
            np.ascontiguousarray(alloc.x), table.weights, d_in, d_out)
    return _kernels.price_flows(instance.topology, edge_in, edge_out)


def total_cost(instance, alloc, table=None):
    """Billing-cycle cost of an allocation (hard or relaxed)."""
    return compute_flows(instance, alloc, table).cost_total


def check_feasibility(instance, alloc, table=None):
    """Physical and billable capacity checks, with per-violation detail."""
    return FeasibilityReport.from_flows(compute_flows(instance, alloc, table))


def evaluate_hard(instance, table, option):
    """Fast path for samplers: (cost, feasible) of an option array."""
    edge_in, edge_out = _kernels.hard_edge_flows(
        np.ascontiguousarray(option), table.weights,
        instance.demands.inbound, instance.demands.outbound)
    flows = _kernels.price_flows(instance.topology, edge_in, edge_out)
    if not flows.feasible:
        return np.inf, False
    return flows.cost_total, True


def soft_loss(instance, alloc, lam_g=1.0, lam_h=1.0, table=None):
    """Penalized objective: cost + lam_g * sum of squared cap overshoots.

    The overshoots cover per-slot physical caps (edge and ISP) and the
    billable caps on z.  The equality-penalty weight lam_h is accepted
    for interface completeness; split weights are normalized per option,
    so flow conservation holds identically and that term is zero.
    """
    if lam_g < 0 or lam_h < 0:
        raise ValueError("penalty weights must be nonnegative")
    flows = compute_flows(instance, alloc, table)
    return flows.cost_total + lam_g * flows.penalty


def soft_loss_and_grad(instance, table, x, lam_g=1.0):
    """Soft loss of a relaxed allocation and its gradient in x.

    Returns (loss, dloss/dx).  Subgradient conventions at the kinks:
    ReLU'(0) = 0, the in/out max routes to inbound on ties, and the
    percentile routes to the stable (m+1)-th largest slot.
    """
    topo = instance.topology
    d_in = instance.demands.inbound
    d_out = instance.demands.outbound
    flows = _kernels.price_flows(topo, *_kernels.soft_edge_flows(
        np.ascontiguousarray(x), table.weights, d_in, d_out))
    m = percentile_exempt_count(d_in.shape[2])
    tin_e, tout_e, tin_l, tout_l = (
        _kernels.descending_slots(arr)[..., m]
        for arr in (flows.edge_in, flows.edge_out, flows.isp_in, flows.isp_out))
    win_e, win_l = flows.inbound_edge, flows.inbound_isp
    z_edge, z_isp = flows.z_edge, flows.z_isp
    over_e_in, over_e_out, over_l_in, over_l_out, over_ze, over_zl = flows.overshoot
    loss = flows.cost_total + lam_g * flows.penalty
    above_e = z_edge > topo.edge_cap_basic  # links billing an overage
    above_l = z_isp > topo.isp_cap_basic

    # d loss / d flow, accumulated per slot then routed back through x
    dE_in = 2.0 * lam_g * over_e_in
    dE_out = 2.0 * lam_g * over_e_out
    dL_in = 2.0 * lam_g * over_l_in
    dL_out = 2.0 * lam_g * over_l_out

    # billable terms enter through the single selected slot per link
    coef_e = topo.edge_rate * above_e + 2.0 * lam_g * over_ze
    n_idx, j_idx = np.nonzero(coef_e)
    for n, j in zip(n_idx, j_idx):
        if win_e[n, j]:
            dE_in[n, j, tin_e[n, j]] += coef_e[n, j]
        else:
            dE_out[n, j, tout_e[n, j]] += coef_e[n, j]
    coef_l = topo.isp_rate * above_l + 2.0 * lam_g * over_zl
    for j in np.nonzero(coef_l)[0]:
        if win_l[j]:
            dL_in[j, tin_l[j]] += coef_l[j]
        else:
            dL_out[j, tout_l[j]] += coef_l[j]

    # ISP flows are sums over users, so their sensitivities broadcast
    dE_in = dE_in + dL_in[None, :, :]
    dE_out = dE_out + dL_out[None, :, :]

    # d flow[n,j,t] / d x[t,n,k,p] = W[k,n,p,j] * d[k,n,t], per direction
    a = (dE_in.transpose(2, 0, 1)[:, :, None, :] * d_in.transpose(2, 1, 0)[:, :, :, None]
         + dE_out.transpose(2, 0, 1)[:, :, None, :] * d_out.transpose(2, 1, 0)[:, :, :, None])
    dx = np.einsum("tnkj,knpj->tnkp", a, table.weights)
    return loss, dx
