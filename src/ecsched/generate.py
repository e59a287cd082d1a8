"""Synthetic instance generation.

The static layer draws edge capacities, rates, and admissible sets, then
sizes each ISP link to a contraction of the corresponding edge sums, so
the aggregated layer is always the binding one.  Demands start uniform
and are rescaled per (user, slot) so the user's aggregate sits inside a
band of either the basic or the billable edge budget (one fair coin per
slot for both directions), followed by a per-(type, user) cap pass that
resamples any entry exceeding a quarter of that pair's admissible basic
capacity.  These two passes guarantee, for every (k, n, t) and direction,

    d[k, n, t] <= 0.25 * sum of basic capacities over admissible links

and, per (n, t), total demand <= 2 * sum of the user's basic capacities
(with K = 8 types; the branch band tops out at 0.8 and the cap pass only
shrinks entries).

Draw order is part of the format and must not change: edge billable
caps, edge basic caps, edge rates, admissible sets, then ISP basic /
billable / physical caps and ISP rates.  The demand pass draws the full
initial inbound block, then the outbound block, then per user: the
per-slot coins, inbound band positions, outbound band positions, and per
type one inbound and one outbound resample vector for the cap pass.  All
draws come from a single numpy Generator, so one seed pins the instance
bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .model import DemandTensor, Instance, Topology


@dataclass(frozen=True)
class GenConfig:
    """Knobs of the generator; defaults reproduce the reference workload."""

    n_users: int = 10
    n_slots: int = 48
    n_types: int = 8
    n_isps: int = 4
    seed: int = 0
    cap_billable_range: tuple = (300.0, 1000.0)
    cap_basic_frac: tuple = (0.05, 0.5)
    cap_phys: float = 10000.0
    rate_range: tuple = (5.0, 10.0)
    admissible_prob: float = 0.5
    isp_contraction: tuple = (0.8, 0.9)
    demand_init: tuple = (20.0, 30.0)
    demand_band: tuple = (0.6, 0.8)
    cap_pass_trigger: float = 0.25
    cap_pass_band: tuple = (0.05, 0.125)


def sample_static(config, rng):
    """Draw one topology."""
    n, el, k = config.n_users, config.n_isps, config.n_types
    lo, hi = config.cap_billable_range
    cm_e = rng.uniform(lo, hi, size=(n, el))
    cb_e = rng.uniform(config.cap_basic_frac[0] * cm_e, config.cap_basic_frac[1] * cm_e)
    r_e = rng.uniform(*config.rate_range, size=(n, el))
    cmax_e = np.full((n, el), config.cap_phys)

    admissible = rng.random(size=(k, n, el)) < config.admissible_prob
    empty = ~admissible.any(axis=2)
    admissible[empty] = True  # empty set falls back to all of the user's links

    c_lo, c_hi = config.isp_contraction
    cb_l = rng.uniform(c_lo * cb_e.sum(axis=0), c_hi * cb_e.sum(axis=0))
    cm_l = rng.uniform(c_lo * cm_e.sum(axis=0), c_hi * cm_e.sum(axis=0))
    cmax_l = rng.uniform(c_lo * cmax_e.sum(axis=0), c_hi * cmax_e.sum(axis=0))
    r_l = rng.uniform(*config.rate_range, size=el)

    return Topology(
        edge_cap_basic=cb_e, edge_cap_billable=cm_e, edge_cap_phys=cmax_e,
        edge_rate=r_e, isp_cap_basic=cb_l, isp_cap_billable=cm_l,
        isp_cap_phys=cmax_l, isp_rate=r_l, admissible=admissible,
    )


def sample_demands(topology, rng, config=None):
    """Draw one billing cycle of demands for an existing topology."""
    if config is None:
        config = GenConfig()
    k, n, el = topology.admissible.shape
    t = config.n_slots
    lo, hi = config.demand_init
    b_lo, b_hi = config.demand_band

    d_in = rng.uniform(lo, hi, size=(k, n, t))
    d_out = rng.uniform(lo, hi, size=(k, n, t))

    for u in range(n):
        basic = topology.edge_cap_basic[u].sum()
        billable = topology.edge_cap_billable[u].sum()
        coins = rng.random(size=t)
        budget = np.where(coins < 0.5, basic, billable)

        sum_in = d_in[:, u, :].sum(axis=0)
        sum_out = d_out[:, u, :].sum(axis=0)
        pos_in = rng.uniform(size=(k, t))
        pos_out = rng.uniform(size=(k, t))
        # rescale each entry into [b_lo, b_hi] * entry * budget / column sum
        d_in[:, u, :] *= (b_lo + (b_hi - b_lo) * pos_in) * budget[None, :] / sum_in[None, :]
        d_out[:, u, :] *= (b_lo + (b_hi - b_lo) * pos_out) * budget[None, :] / sum_out[None, :]

        for q in range(k):
            adm_basic = topology.edge_cap_basic[u, topology.admissible[q, u]].sum()
            thresh = config.cap_pass_trigger * adm_basic
            c_lo, c_hi = config.cap_pass_band
            fresh_in = rng.uniform(c_lo * adm_basic, c_hi * adm_basic, size=t)
            fresh_out = rng.uniform(c_lo * adm_basic, c_hi * adm_basic, size=t)
            row = d_in[q, u, :]
            d_in[q, u, :] = np.where(row > thresh, fresh_in, row)
            row = d_out[q, u, :]
            d_out[q, u, :] = np.where(row > thresh, fresh_out, row)

    return DemandTensor(inbound=d_in, outbound=d_out)


def generate_instance(config, seed=None, instance_id=None):
    """Topology plus demands from a single seeded stream (static first)."""
    if seed is None:
        seed = config.seed
    rng = np.random.default_rng(seed)
    topo = sample_static(config, rng)
    demands = sample_demands(topo, rng, config)
    if instance_id is None:
        instance_id = f"inst-{seed:08d}"
    return Instance(topology=topo, demands=demands, instance_id=instance_id, seed=seed)


def generate_instances(config, count):
    """Instances i = 0..count-1, instance i seeded with config.seed + i."""
    return [generate_instance(config, seed=config.seed + i) for i in range(count)]
