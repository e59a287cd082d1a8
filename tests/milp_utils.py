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


def constraint_matrix(model):
    """The model's rows as a scipy CSR matrix."""
    from scipy.sparse import csr_matrix

    return csr_matrix((model.coeffs, model.cols, model.indptr),
                      shape=(len(model.constraints), len(model.variables)))


def solve_with_scipy(model):
    """Exact optimum of a MilpModel; returns (objective, value per column)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    c = np.zeros(len(model.variables))
    for vi, coeff in model.objective:
        c[vi] += coeff
    lo = np.where(model.sense == "<=", -np.inf, model.rhs)
    hi = np.where(model.sense == ">=", np.inf, model.rhs)
    res = milp(c=c, constraints=LinearConstraint(constraint_matrix(model), lo, hi),
               integrality=model.binary.astype(int),
               bounds=Bounds(0.0, np.where(model.binary, 1.0, np.inf)))
    if not res.success:
        raise RuntimeError(f"scipy milp failed: {res.message}")
    return float(res.fun), res.x


def _flows_from_options(model, option):
    """Per-slot flows implied by an option array, from the stored shares."""
    t_n, n_n, k_n = model.instance.dims
    w_tab = model.table.weights
    demands = model.instance.demands
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
    topo = model.instance.topology
    el = topo.n_isps
    m = model.exempt
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
    t_n, n_n, k_n = model.instance.dims
    n_valid = model.table.n_valid
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
    """Extend a {name: value} binary assignment to a value per column.

    Flows come from the definitional rows, z is the smallest value the
    non-exempt slots allow, w the smallest value the overage rows allow.
    """
    index = {name: col for col, name in enumerate(model.variables)}
    x = np.zeros(len(model.variables))
    for name, value in binaries.items():
        x[index[name]] = value
    blocks = model.blocks
    lam = blocks["lam"]
    chosen = (lam >= 0) & (x[lam] > 0.5)
    bad = np.argwhere(chosen.sum(axis=-1) != 1)
    if bad.size:
        t, n, k = bad[0]
        raise ValueError(f"slot {t}, user {n}, type {k}: need exactly one option set")
    flows = _flows_from_options(model, chosen.argmax(axis=-1))
    edge = np.stack([flows["in"], flows["out"]])  # (2, N, EL, T)
    x[blocks["f_e"]] = edge
    x[blocks["x_l"]] = edge.sum(axis=1)
    topo = model.instance.topology
    for u, level, overage, flow, basic in (
            ("u_e", "z_e", "w_e", edge, topo.edge_cap_basic),
            ("u_l", "z_l", "w_l", x[blocks["x_l"]], topo.isp_cap_basic)):
        # max over direction and non-exempt slots
        z = np.where(x[blocks[u]] < 0.5, flow, 0.0).max(axis=(0, -1))
        x[blocks[level]] = z
        x[blocks[overage]] = np.maximum(z - basic, 0.0)
    return x


def verify_assignment(model, x, tol=1e-6):
    """Check every row; returns (feasible, objective, violated row names)."""
    lhs = constraint_matrix(model) @ x
    violated = ((model.sense != ">=") & (lhs > model.rhs + tol)) | \
        ((model.sense != "<=") & (lhs < model.rhs - tol))
    objective = sum(coeff * x[idx] for idx, coeff in model.objective)
    return not violated.any(), objective, [model.constraints[r] for r in np.flatnonzero(violated)]
