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
* the percentile exempts ``m = floor(0.05 T)`` slots, so the billed
  level of a per-slot series (``_kernels._top_slots(series, m + 1)[...,
  m]``, the order statistic ``price_flows`` bills from) is its (m+1)-th
  largest value; on ties the lowest slot index is selected;
* ``max(inbound, outbound)`` resolves ties toward inbound.

``Topology``, ``DemandTensor`` and ``Instance`` check themselves at
construction and the first two keep read-only copies of their arrays, so
an instance that exists is valid and stays so: pricing, sampling, search
and export code trusts what it is given and never re-checks it.
All operations are pure: they never mutate their inputs, so instances and
option tables can be shared freely across threads.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import _kernels
from ._kernels import FlowSummary, percentile_exempt_count  # re-exported


class InvalidTopologyError(ValueError):
    """Topology arrays are inconsistent or violate a capacity ordering."""


def _store_read_only(obj):
    """Replace every array field of a frozen dataclass with a read-only copy.

    Nothing re-checks an instance after construction, so neither the
    caller's arrays nor an in-place write may change what was validated.
    """
    for f in fields(obj):
        value = getattr(obj, f.name).copy()
        value.flags.writeable = False
        object.__setattr__(obj, f.name, value)


@dataclass(frozen=True)
class Topology:
    """Static network description.

    Edge arrays are (N, EL) with N >= 1, ISP arrays are (EL,).
    ``admissible`` is a boolean (K, N, EL) tensor; every (k, n) row must
    have at least one True entry.  Caps and rates are finite.
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
        _store_read_only(self)

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
        if n == 0:
            raise InvalidTopologyError("a topology needs at least one user")
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
        # NaN passes every ordering check below
        if not all(np.isfinite(getattr(self, f.name)).all() for f in fields(self)):
            raise InvalidTopologyError("capacities and rates must be finite")
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
    """Inbound/outbound demand, each (K, N, T) with T >= 1, nonnegative.

    The generator only ever produces strictly positive demands; zeros are
    legal here so degenerate instances can be expressed directly.
    """

    inbound: np.ndarray
    outbound: np.ndarray

    def __post_init__(self):
        self.validate()
        _store_read_only(self)

    @property
    def n_slots(self):
        return self.inbound.shape[2]

    def validate(self):
        if (self.inbound.shape != self.outbound.shape or self.inbound.ndim != 3
                or self.inbound.shape[2] == 0):
            raise ValueError("demand tensors must share one (K, N, T) shape with T >= 1")
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
        """ValueError unless the demands' (K, N) match the topology and the
        id is a string without a line break; returns self.  The topology and
        the demands checked themselves when built."""
        k, n, _ = self.demands.inbound.shape
        if (k, n) != (self.topology.n_types, self.topology.n_users):
            raise ValueError("demand tensor does not match topology (K, N)")
        # the id ends up on one comment line of an LP file and a warm start
        if not isinstance(self.instance_id, str) or self.instance_id.splitlines() not in (
                [], [self.instance_id]):
            raise ValueError(f"instance id must be a string without a line break, "
                             f"not {self.instance_id!r}")
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


def build_option_table(topology):
    """Enumerate link subsets and their capacity-proportional split weights.

    Option p (0-based) selects link j when bit rank(j) of p + 1 is set,
    where rank(j) is j's position among that pair's admissible links.
    The selected links split the demand in proportion to their basic
    capacities, evenly when those sum to 0.  Every pair's rows are padded
    with zero rows up to 2**EL - 1.
    """
    adm = topology.admissible
    el = adm.shape[2]
    n_valid = 2 ** adm.sum(axis=2) - 1
    bits = np.arange(1, 2 ** el)  # p + 1
    valid = bits <= n_valid[:, :, None]
    rank = np.cumsum(adm, axis=2) - adm  # admissible links before j
    sel = (bits[:, None] >> rank[:, :, None, :] & 1).astype(bool)  # (K, N, P, EL)
    sel &= adm[:, :, None, :] & valid[..., None]
    caps = np.where(sel, topology.edge_cap_basic[None, :, None, :], 0.0)
    count = sel.sum(axis=3, keepdims=True)
    # each total sums its selected caps alone, as a row of its own term
    # count: padding zeros would regroup numpy's pairwise sum of 8 or more
    total = np.zeros(count.shape)
    for c in range(1, el + 1):
        total[count == c] = caps[sel & (count == c)].reshape(-1, c).sum(axis=1)
    # a zero total is an all-zero split or a padded row; the latter has no
    # selected link and stays zero
    zero = total == 0
    weights = np.where(zero, sel, caps) / np.where(zero, np.maximum(count, 1), total)
    return OptionTable(weights=weights, valid=valid, n_valid=n_valid)


@dataclass(frozen=True)
class AllocationScheme:
    """Hard allocation: option[t, n, k] is an option index."""

    option: np.ndarray


@dataclass(frozen=True)
class SoftAllocation:
    """Relaxed allocation: x[t, n, k, p] with each valid row on the simplex,
    or a stack of S of them, x[s, t, n, k, p], priced in one call."""

    x: np.ndarray


@dataclass
class FeasibilityReport:
    """Violations per constraint family, as (location, direction,
    overshoot Mbps).

    Edge physical locations are (user, link, slot) and ISP physical are
    (link, slot), with direction "in" or "out"; billable locations drop
    the slot, and their direction is None.  ``feasible`` is True exactly
    when all lists are empty.
    """

    edge_phys: list = field(default_factory=list)
    isp_phys: list = field(default_factory=list)
    edge_billable: list = field(default_factory=list)
    isp_billable: list = field(default_factory=list)

    @classmethod
    def from_flows(cls, flows):
        """Every nonzero overshoot of a FlowSummary, by constraint family:
        the positive ones, and the NaN ones of NaN flows, which
        ``FlowSummary.feasible`` also counts as violations.

        The locations index one allocation, so the flows of a stack are
        refused."""
        if flows.isp.z.ndim != 1:
            raise ValueError(f"a feasibility report covers one allocation, got flows of "
                             f"shape {flows.edge.flows.shape[1:]}")
        report = cls()
        for tier, phys, billable in ((flows.edge, report.edge_phys, report.edge_billable),
                                     (flows.isp, report.isp_phys, report.isp_billable)):
            for family, direction, over in zip((phys, phys, billable), ("in", "out", None),
                                               (*tier.overshoot[0], tier.overshoot[1])):
                for idx in np.argwhere(over != 0):
                    loc = tuple(int(i) for i in idx)
                    family.append((loc, direction, float(over[loc])))
        return report

    @property
    def feasible(self):
        return not any(self.counts().values())

    def counts(self):
        return {f.name: len(getattr(self, f.name)) for f in fields(self)}


def check_scheme(instance, option, table):
    """ValueError unless option is a (T, N, K) array of the instance's options.

    The dtype is checked first (signed integers only: a fractional option
    names no option, and an unsigned one does not index with the table's
    int64 offsets), then the shape; the first block (slot-major) holding
    an option outside ``[0, n_valid)`` is named.
    """
    if option.dtype.kind != "i":
        raise ValueError(f"options must be signed integers, got dtype {option.dtype}")
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
        if alloc.x.ndim not in (4, 5) or alloc.x.shape[-4:] != (*instance.dims, table.n_options):
            raise ValueError(f"allocation shape {alloc.x.shape} does not match instance dims")
    else:
        raise TypeError("expected AllocationScheme or SoftAllocation")


def compute_flows(instance, alloc, table=None):
    """Aggregate an allocation into per-slot flows, billables, and cost.

    ``alloc`` may be hard or relaxed; a relaxed stack of S allocations
    gives flows with a leading draw axis and (S,) totals, each equal to
    that allocation's own.  Caps are not enforced here; their overshoots
    are reported (see check_feasibility).
    """
    if table is None:
        table = build_option_table(instance.topology)
    _check_alloc(instance, alloc, table)
    d_in, d_out = instance.demands.inbound, instance.demands.outbound
    if isinstance(alloc, AllocationScheme):
        edge = _kernels.hard_edge_flows(np.ascontiguousarray(alloc.option), table.weights, d_in, d_out)
    else:
        edge = _kernels.soft_edge_flows(np.ascontiguousarray(alloc.x), table.weights, d_in, d_out)
    return _kernels.price_flows(instance.topology, edge)


def total_cost(instance, alloc, table=None):
    """Billing-cycle cost of an allocation (hard or relaxed)."""
    return compute_flows(instance, alloc, table).cost_total


def check_feasibility(instance, alloc, table=None):
    """Physical and billable capacity checks, with per-violation detail,
    for one allocation (a stack raises ValueError)."""
    return FeasibilityReport.from_flows(compute_flows(instance, alloc, table))


# draws per hard_edge_flows/price_flows call: at the default size a
# chunk of 25 peaks at about a third of the memory that one stack of 100
# takes, at the same speed
PRICING_CHUNK = 25


def evaluate_hard(instance, table, options):
    """Price a stack of hard schemes, (S, T, N, K) option indices, in
    chunks of PRICING_CHUNK draws: (costs, n_feasible), costs[s] the cost
    of draw s or inf when it is infeasible, and n_feasible the count of
    feasible draws.  Each cost equals that scheme's ``compute_flows``
    total bit for bit.  The samplers price every draw of a best-of here,
    in one call."""
    costs = np.empty(len(options))
    n_feasible = 0
    for lo in range(0, len(options), PRICING_CHUNK):
        flows = _kernels.price_flows(instance.topology, _kernels.hard_edge_flows(
            options[lo:lo + PRICING_CHUNK], table.weights,
            instance.demands.inbound, instance.demands.outbound))
        feasible = flows.feasible
        costs[lo:lo + PRICING_CHUNK] = np.where(feasible, flows.cost_total, np.inf)
        n_feasible += int(feasible.sum())
    return costs, n_feasible


def best_feasible(options, priced):
    """The cheapest feasible draw of an (S, T, N, K) option block, given
    its ``evaluate_hard`` pricing (costs, n_feasible): ((scheme, cost) or
    None, n_feasible).  Ties go to the earliest draw, and the scheme holds
    a copy, not a view of the block.  The feasible count is the
    pricing's own, passed through rather than counted a second time."""
    costs, n_feasible = priced
    if costs.size == 0:
        raise ValueError("need at least one sample")
    best = int(np.argmin(costs))
    if costs[best] == np.inf:
        return None, n_feasible
    return (AllocationScheme(option=options[best].copy()), float(costs[best])), n_feasible


def soft_loss(instance, alloc, lam_g=1.0, table=None):
    """Penalized objective: cost + lam_g * sum of squared cap overshoots.

    The overshoots cover per-slot physical caps (edge and ISP) and the
    billable caps on z.  Flow conservation needs no penalty: split
    weights are normalized per option, so it holds identically.  A
    relaxed stack of S allocations gives an (S,) array of their losses.
    """
    if lam_g < 0:
        raise ValueError("penalty weight lam_g must be nonnegative")
    flows = compute_flows(instance, alloc, table)
    return flows.cost_total + lam_g * flows.penalty


def soft_loss_and_grad(instance, table, x, lam_g=1.0):
    """Soft loss of a relaxed allocation and its gradient in x.

    Returns (loss, dloss/dx): the flows are priced, the billing rule's
    subgradient gives the loss's sensitivity to each edge flow (see
    ``_kernels.price_flows_grad`` for the conventions at the kinks), and
    the flow adjoint carries it back to x.
    """
    d_in, d_out = instance.demands.inbound, instance.demands.outbound
    flows = _kernels.price_flows(instance.topology, _kernels.soft_edge_flows(
        np.ascontiguousarray(x), table.weights, d_in, d_out))
    dx = _kernels.soft_edge_flows_grad(
        _kernels.price_flows_grad(flows, lam_g), table.weights, d_in, d_out)
    return flows.cost_total + lam_g * flows.penalty, dx
