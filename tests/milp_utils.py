"""Test-only helpers around the package's linear model.

``solve_with_scipy`` converts MilpModel rows into scipy.optimize.milp
inputs so an independent exact solver can cross-check the brute-force
oracle.  All variables are nonnegative, binaries additionally bounded by
1, matching the LP text export's implicit bounds.

``exhaustive_optimum`` is a second exact route that shares no pricing
code with the package: per option combination it picks each link and
direction's m largest slots as exemptions (the optimal choice for a
fixed assignment) and prices the rest from the model's instance and
option table.  ``complete_assignment`` and ``verify_assignment`` extend a
binary assignment to every variable and check it row by row.
"""

import numpy as np


def solve_with_scipy(model):
    """Exact optimum of a MilpModel; returns (objective, values dict)."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix

    n = len(model.variables)
    c = np.zeros(n)
    for vi, coeff in model.objective:
        c[vi] += coeff
    integrality = np.array([1 if v.binary else 0 for v in model.variables])
    ub = np.array([1.0 if v.binary else np.inf for v in model.variables])

    a = lil_matrix((len(model.constraints), n))
    lo = np.empty(len(model.constraints))
    hi = np.empty(len(model.constraints))
    for r, con in enumerate(model.constraints):
        for vi, coeff in con.terms:
            a[r, vi] += coeff
        if con.sense == "<=":
            lo[r], hi[r] = -np.inf, con.rhs
        elif con.sense == ">=":
            lo[r], hi[r] = con.rhs, np.inf
        elif con.sense == "=":
            lo[r], hi[r] = con.rhs, con.rhs
        else:
            raise ValueError(f"unknown sense {con.sense!r}")

    res = milp(c=c, constraints=LinearConstraint(a.tocsr(), lo, hi),
               integrality=integrality, bounds=Bounds(np.zeros(n), ub))
    if not res.success:
        raise RuntimeError(f"scipy milp failed: {res.message}")
    values = {v.name: float(res.x[i]) for i, v in enumerate(model.variables)}
    return float(res.fun), values


def _flows_from_options(model, option):
    """Per-slot flows implied by an option array, from the stored shares."""
    t_n, n_n, k_n = model.meta["dims"]
    w_tab = model.meta["table"].weights
    demands = model.meta["instance"].demands
    flows = {}
    for direction, dem in (("in", demands.inbound), ("out", demands.outbound)):
        kk = np.arange(k_n)[None, None, :]
        nn = np.arange(n_n)[None, :, None]
        w_sel = w_tab[kk, nn, option]  # (T, N, K, EL)
        flows[direction] = np.einsum("tnkj,knt->njt", w_sel, dem)
    return flows  # each (N, EL, T)


def _exempt_slots(series, m):
    # indices of the m largest entries, ties resolved to the lowest slot
    order = np.argsort(-series, kind="stable")
    return order[:m]


def _evaluate_options(model, option):
    """(objective, feasible) of an option array under exemption semantics."""
    topo = model.meta["instance"].topology
    el = topo.n_isps
    m = model.meta["exempt"]
    flows = _flows_from_options(model, option)
    cost = 0.0
    z_edge = {}
    z_agg = {}
    for direction in ("in", "out"):
        arr = flows[direction]
        n_n = arr.shape[0]
        for n in range(n_n):
            for i in range(el):
                series = arr[n, i]
                exempt = _exempt_slots(series, m)
                counted = np.delete(series, exempt)
                if counted.max(initial=0.0) > topo.edge_cap_billable[n, i]:
                    return np.inf, False
                if series[exempt].max(initial=0.0) > topo.edge_cap_phys[n, i]:
                    return np.inf, False
                z_edge[n, i] = max(z_edge.get((n, i), 0.0), counted.max(initial=0.0))
        agg = arr.sum(axis=0)
        for i in range(el):
            series = agg[i]
            exempt = _exempt_slots(series, m)
            counted = np.delete(series, exempt)
            if counted.max(initial=0.0) > topo.isp_cap_billable[i]:
                return np.inf, False
            if series[exempt].max(initial=0.0) > topo.isp_cap_phys[i]:
                return np.inf, False
            z_agg[i] = max(z_agg.get(i, 0.0), counted.max(initial=0.0))
    for (n, i), z in z_edge.items():
        cost += topo.edge_rate[n, i] * max(z - topo.edge_cap_basic[n, i], 0.0)
    for i, z in z_agg.items():
        cost += topo.isp_rate[i] * max(z - topo.isp_cap_basic[i], 0.0)
    return cost, True


def exhaustive_optimum(model, max_combinations=1_000_000):
    """Optimum over all lambda assignments with exemptions chosen greedily.

    Per assignment, the optimal exemptions are simply each link and
    direction's m largest slots, so this scans option combinations in
    odometer order and returns (option array, objective), or None if no
    combination is feasible.  An independent route from the order-statistic
    evaluation: it uses only the model's stored coefficients.
    """
    t_n, n_n, k_n = model.meta["dims"]
    n_valid = model.meta["table"].n_valid
    radices = np.broadcast_to(n_valid.T[None], (t_n, n_n, k_n)).reshape(-1)
    total = 1
    for r in radices:
        total *= int(r)
    if total > max_combinations:
        raise RuntimeError(f"{total} combinations exceed the limit of {max_combinations}")
    opts = np.zeros(radices.size, dtype=np.int64)
    best = None
    for _ in range(total):
        cost, feasible = _evaluate_options(model, opts.reshape(t_n, n_n, k_n))
        if feasible and (best is None or cost < best[1]):
            best = (opts.copy().reshape(t_n, n_n, k_n), cost)
        s = radices.size - 1
        while s >= 0:
            opts[s] += 1
            if opts[s] < radices[s]:
                break
            opts[s] = 0
            s -= 1
    return best


def complete_assignment(model, binaries):
    """Extend a binary assignment to all continuous variables.

    Flows come from the definitional rows, z is the smallest value the
    non-exempt slots allow, w the smallest value the overage rows allow.
    """
    values = dict(binaries)
    t_n, n_n, k_n = model.meta["dims"]
    topo = model.meta["instance"].topology
    el = topo.n_isps
    n_valid = model.meta["table"].n_valid
    option = np.zeros((t_n, n_n, k_n), dtype=np.int64)
    for t in range(t_n):
        for n in range(n_n):
            for k in range(k_n):
                chosen = [p for p in range(int(n_valid[k, n]))
                          if values.get(f"lam_t{t}_n{n}_k{k}_p{p}", 0) > 0.5]
                if len(chosen) != 1:
                    raise ValueError(f"slot {t}, user {n}, type {k}: need exactly one option set")
                option[t, n, k] = chosen[0]
    flows = _flows_from_options(model, option)
    for direction in ("in", "out"):
        arr = flows[direction]
        for n in range(n_n):
            for i in range(el):
                for t in range(t_n):
                    values[f"f_{direction}_n{n}_i{i}_t{t}"] = arr[n, i, t]
        agg = arr.sum(axis=0)
        for i in range(el):
            for t in range(t_n):
                values[f"X_{direction}_i{i}_t{t}"] = agg[i, t]
    for n in range(n_n):
        for i in range(el):
            z = 0.0
            for direction in ("in", "out"):
                for t in range(t_n):
                    if values.get(f"u_{direction}_e_n{n}_i{i}_t{t}", 0) < 0.5:
                        z = max(z, values[f"f_{direction}_n{n}_i{i}_t{t}"])
            values[f"z_e_n{n}_i{i}"] = z
            values[f"w_e_n{n}_i{i}"] = max(z - topo.edge_cap_basic[n, i], 0.0)
    for i in range(el):
        z = 0.0
        for direction in ("in", "out"):
            for t in range(t_n):
                if values.get(f"u_{direction}_l_i{i}_t{t}", 0) < 0.5:
                    z = max(z, values[f"X_{direction}_i{i}_t{t}"])
        values[f"z_l_i{i}"] = z
        values[f"w_l_i{i}"] = max(z - topo.isp_cap_basic[i], 0.0)
    return values


def verify_assignment(model, values, tol=1e-6):
    """Check every row; returns (feasible, objective, violated row names)."""
    violated = []
    for con in model.constraints:
        lhs = sum(coeff * values.get(model.variables[idx].name, 0.0)
                  for idx, coeff in con.terms)
        if con.sense == "=" and abs(lhs - con.rhs) > tol:
            violated.append(con.name)
        elif con.sense == "<=" and lhs > con.rhs + tol:
            violated.append(con.name)
        elif con.sense == ">=" and lhs < con.rhs - tol:
            violated.append(con.name)
    objective = sum(coeff * values.get(model.variables[idx].name, 0.0)
                    for idx, coeff in model.objective)
    return not violated, objective, violated
