"""Exact mixed-integer linearization of the percentile billing model.

Percentile billing is linearized with exemption binaries: per link and
direction, u[t] = 1 marks slot t as one of the floor(0.05 T) exempt
slots.  Non-exempt slots bound the billable bandwidth z from below and
must respect the billable cap; exempt slots only respect the physical
cap.  Option choice is a one-hot block of binaries per (slot, user,
type), flows are definitional sums of the chosen options' split shares,
and the objective prices the overage w >= z - basic cap.

For a fixed option assignment the optimal exemptions are the m largest
slots per link and direction, which makes z the (m+1)-th largest flow;
the MILP optimum therefore coincides with the percentile model optimum,
and ``objective_of`` prices an assignment with the cost model itself.

The LP text export is deterministic: fixed variable naming, fixed row
order, full-precision repr coefficients, and no timestamps, so exports
are byte-stable across runs and platforms.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .io import FormatError
from .model import (AllocationScheme, build_option_table, evaluate_hard,
                    percentile_exempt_count)


@dataclass(frozen=True)
class MilpVariable:
    name: str
    binary: bool


@dataclass(frozen=True)
class MilpConstraint:
    name: str
    terms: tuple  # ((var index, coefficient), ...)
    sense: str    # "<=", ">=", "="
    rhs: float


@dataclass
class MilpModel:
    variables: list
    constraints: list
    objective: list  # (var index, coefficient)
    index: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def n_binaries(self):
        return sum(1 for v in self.variables if v.binary)


def linearize(instance, table=None):
    """Build the MILP for one instance."""
    instance.validate()
    if table is None:
        table = build_option_table(instance.topology)
    topo = instance.topology
    t_n, n_n, k_n = instance.dims
    el = topo.n_isps
    m = percentile_exempt_count(t_n)
    w_tab = table.weights
    d_in = instance.demands.inbound
    d_out = instance.demands.outbound

    variables = []
    index = {}

    def add_var(name, binary):
        index[name] = len(variables)
        variables.append(MilpVariable(name=name, binary=binary))
        return index[name]

    lam = {}
    for t in range(t_n):
        for n in range(n_n):
            for k in range(k_n):
                for p in range(int(table.n_valid[k, n])):
                    lam[t, n, k, p] = add_var(f"lam_t{t}_n{n}_k{k}_p{p}", True)
    u_e = {}
    for direction in ("in", "out"):
        for n in range(n_n):
            for i in range(el):
                for t in range(t_n):
                    u_e[direction, n, i, t] = add_var(f"u_{direction}_e_n{n}_i{i}_t{t}", True)
    u_l = {}
    for direction in ("in", "out"):
        for i in range(el):
            for t in range(t_n):
                u_l[direction, i, t] = add_var(f"u_{direction}_l_i{i}_t{t}", True)
    f_e = {}
    for direction in ("in", "out"):
        for n in range(n_n):
            for i in range(el):
                for t in range(t_n):
                    f_e[direction, n, i, t] = add_var(f"f_{direction}_n{n}_i{i}_t{t}", False)
    x_l = {}
    for direction in ("in", "out"):
        for i in range(el):
            for t in range(t_n):
                x_l[direction, i, t] = add_var(f"X_{direction}_i{i}_t{t}", False)
    z_e = {(n, i): add_var(f"z_e_n{n}_i{i}", False)
           for n in range(n_n) for i in range(el)}
    z_l = {i: add_var(f"z_l_i{i}", False) for i in range(el)}
    w_e = {(n, i): add_var(f"w_e_n{n}_i{i}", False)
           for n in range(n_n) for i in range(el)}
    w_l = {i: add_var(f"w_l_i{i}", False) for i in range(el)}

    constraints = []

    def add_con(name, terms, sense, rhs):
        constraints.append(MilpConstraint(name=name, terms=tuple(terms), sense=sense, rhs=float(rhs)))

    for t in range(t_n):
        for n in range(n_n):
            for k in range(k_n):
                terms = [(lam[t, n, k, p], 1.0) for p in range(int(table.n_valid[k, n]))]
                add_con(f"assign_t{t}_n{n}_k{k}", terms, "=", 1.0)

    demand = {"in": d_in, "out": d_out}
    for direction in ("in", "out"):
        for n in range(n_n):
            for i in range(el):
                for t in range(t_n):
                    terms = [(f_e[direction, n, i, t], 1.0)]
                    for k in range(k_n):
                        for p in range(int(table.n_valid[k, n])):
                            share = w_tab[k, n, p, i] * demand[direction][k, n, t]
                            if share != 0.0:
                                terms.append((lam[t, n, k, p], -share))
                    add_con(f"def_f{direction}_n{n}_i{i}_t{t}", terms, "=", 0.0)
    for direction in ("in", "out"):
        for i in range(el):
            for t in range(t_n):
                terms = [(x_l[direction, i, t], 1.0)]
                terms += [(f_e[direction, n, i, t], -1.0) for n in range(n_n)]
                add_con(f"def_X{direction}_i{i}_t{t}", terms, "=", 0.0)

    for direction in ("in", "out"):
        for n in range(n_n):
            for i in range(el):
                terms = [(u_e[direction, n, i, t], 1.0) for t in range(t_n)]
                add_con(f"bud_{direction}_e_n{n}_i{i}", terms, "<=", m)
    for direction in ("in", "out"):
        for i in range(el):
            terms = [(u_l[direction, i, t], 1.0) for t in range(t_n)]
            add_con(f"bud_{direction}_l_i{i}", terms, "<=", m)

    # z >= f - cphys * u on every slot; f <= cbill + (cphys - cbill) * u
    for direction in ("in", "out"):
        for n in range(n_n):
            for i in range(el):
                big = topo.edge_cap_phys[n, i]
                cap = topo.edge_cap_billable[n, i]
                for t in range(t_n):
                    add_con(f"zlb_{direction}_e_n{n}_i{i}_t{t}",
                            [(z_e[n, i], 1.0), (f_e[direction, n, i, t], -1.0),
                             (u_e[direction, n, i, t], big)], ">=", 0.0)
                for t in range(t_n):
                    add_con(f"cap_{direction}_e_n{n}_i{i}_t{t}",
                            [(f_e[direction, n, i, t], 1.0),
                             (u_e[direction, n, i, t], big - cap)], "<=", big)
    for direction in ("in", "out"):
        for i in range(el):
            big = topo.isp_cap_phys[i]
            cap = topo.isp_cap_billable[i]
            for t in range(t_n):
                add_con(f"zlb_{direction}_l_i{i}_t{t}",
                        [(z_l[i], 1.0), (x_l[direction, i, t], -1.0),
                         (u_l[direction, i, t], big)], ">=", 0.0)
            for t in range(t_n):
                add_con(f"cap_{direction}_l_i{i}_t{t}",
                        [(x_l[direction, i, t], 1.0),
                         (u_l[direction, i, t], big - cap)], "<=", big)

    for n in range(n_n):
        for i in range(el):
            add_con(f"zub_e_n{n}_i{i}", [(z_e[n, i], 1.0)], "<=", topo.edge_cap_billable[n, i])
    for i in range(el):
        add_con(f"zub_l_i{i}", [(z_l[i], 1.0)], "<=", topo.isp_cap_billable[i])

    for n in range(n_n):
        for i in range(el):
            add_con(f"wlb_e_n{n}_i{i}",
                    [(w_e[n, i], 1.0), (z_e[n, i], -1.0)], ">=", -topo.edge_cap_basic[n, i])
    for i in range(el):
        add_con(f"wlb_l_i{i}",
                [(w_l[i], 1.0), (z_l[i], -1.0)], ">=", -topo.isp_cap_basic[i])

    objective = [(w_e[n, i], float(topo.edge_rate[n, i]))
                 for n in range(n_n) for i in range(el)]
    objective += [(w_l[i], float(topo.isp_rate[i])) for i in range(el)]

    meta = {"instance": instance, "table": table, "dims": (t_n, n_n, k_n), "exempt": m}
    return MilpModel(variables=variables, constraints=constraints,
                     objective=objective, index=index, meta=meta)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def _term_tokens(model, terms, lead_sign=False):
    tokens = []
    for pos, (idx, coeff) in enumerate(terms):
        coeff = float(coeff)
        sign = "-" if coeff < 0 else "+"
        body = f"{repr(abs(coeff))} {model.variables[idx].name}"
        if pos == 0 and not lead_sign and sign == "+":
            tokens.append(body)
        else:
            tokens.append(f"{sign} {body}")
    return tokens


def _wrap(prefix, tokens, per_line=8):
    lines = []
    for start in range(0, len(tokens), per_line):
        chunk = " ".join(tokens[start:start + per_line])
        lines.append(f"{prefix}{chunk}" if start == 0 else f"   {chunk}")
    return lines


def write_lp(model, path):
    """CPLEX-style LP text; byte-stable for a given model."""
    t_n, n_n, k_n = model.meta["dims"]
    lines = [
        "\\ percentile billing schedule",
        f"\\ instance: {model.meta['instance'].instance_id}",
        f"\\ dims: T={t_n} N={n_n} K={k_n} exempt={model.meta['exempt']}",
        "Minimize",
    ]
    lines += _wrap(" obj: ", _term_tokens(model, model.objective))
    lines.append("Subject To")
    for con in model.constraints:
        sense = {"<=": "<=", ">=": ">=", "=": "="}[con.sense]
        tokens = _term_tokens(model, con.terms)
        tokens.append(f"{sense} {repr(con.rhs)}")
        lines += _wrap(f" {con.name}: ", tokens)
    lines.append("Binaries")
    names = [v.name for v in model.variables if v.binary]
    lines += _wrap(" ", names, per_line=8)
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _exempt_mask(flows, m):
    # True at each series' m largest slots, ties to the lowest slot
    mask = np.zeros(flows.shape, dtype=bool)
    np.put_along_axis(mask, _kernels.descending_slots(flows)[..., :m], True, axis=-1)
    return mask


def write_warmstart(model, scheme, path):
    """Feasible starting point for a scheme: every binary gets a value.

    Options set their one-hot lambda block; exemption binaries mark each
    link and direction's m largest flow slots (lowest slot on ties),
    which is the optimal exemption pattern for that scheme.
    """
    t_n, n_n, k_n = model.meta["dims"]
    if scheme.option.shape != (t_n, n_n, k_n):
        raise ValueError(f"scheme shape {scheme.option.shape} does not match model dims {(t_n, n_n, k_n)}")
    instance, table = model.meta["instance"], model.meta["table"]
    n_valid = table.n_valid
    for (t, n, k), p in np.ndenumerate(scheme.option):
        if not 0 <= p < n_valid[k, n]:
            raise ValueError(f"option {p} out of range at slot {t}, user {n}, type {k}")
    m = model.meta["exempt"]
    edge_flows = _kernels.hard_edge_flows(scheme.option, table.weights,
                                          instance.demands.inbound, instance.demands.outbound)
    values = {}
    for t in range(t_n):
        for n in range(n_n):
            for k in range(k_n):
                for p in range(int(n_valid[k, n])):
                    values[f"lam_t{t}_n{n}_k{k}_p{p}"] = int(p == scheme.option[t, n, k])
    for direction, edge in zip(("in", "out"), edge_flows):
        for (n, i, t), u in np.ndenumerate(_exempt_mask(edge, m)):
            values[f"u_{direction}_e_n{n}_i{i}_t{t}"] = int(u)
        for (i, t), u in np.ndenumerate(_exempt_mask(edge.sum(axis=0), m)):
            values[f"u_{direction}_l_i{i}_t{t}"] = int(u)
    lines = [f"# warm start for instance {instance.instance_id}"]
    lines += [f"{v.name} {values[v.name]}" for v in model.variables if v.binary]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_solution(path, model):
    """Parse a solver's "name value" solution file against a model.

    Accepts comment lines starting with '#' or '\\'; an objective may be
    declared either as "# Objective value = X" or a plain "objective X"
    line.  Errors: unknown variable names, fractional binaries (beyond
    1e-6), blocks without exactly one chosen option, and a declared
    objective that disagrees with the recomputed cost by more than 1e-4
    relative.  Returns (scheme, objective).
    """
    declared = None
    values = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#") or line.startswith("\\"):
                low = line.lstrip("#\\ \t").lower()
                if low.startswith("objective value"):
                    _, _, tail = line.partition("=")
                    try:
                        declared = float(tail.strip())
                    except ValueError as exc:
                        raise FormatError(f"{path}:{line_no}: bad objective comment") from exc
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"{path}:{line_no}: expected 'name value'")
            name, text = parts
            if name.lower() == "objective":
                try:
                    declared = float(text)
                except ValueError as exc:
                    raise FormatError(f"{path}:{line_no}: bad objective value") from exc
                continue
            if name not in model.index:
                raise FormatError(f"{path}:{line_no}: unknown variable '{name}'")
            try:
                values[name] = float(text)
            except ValueError as exc:
                raise FormatError(f"{path}:{line_no}: bad value for '{name}'") from exc

    t_n, n_n, k_n = model.meta["dims"]
    n_valid = model.meta["table"].n_valid
    option = np.zeros((t_n, n_n, k_n), dtype=np.int64)
    for t in range(t_n):
        for n in range(n_n):
            for k in range(k_n):
                chosen = []
                for p in range(int(n_valid[k, n])):
                    val = values.get(f"lam_t{t}_n{n}_k{k}_p{p}", 0.0)
                    if min(abs(val), abs(val - 1.0)) > 1e-6:
                        raise FormatError(
                            f"{path}: lam_t{t}_n{n}_k{k}_p{p} = {val} is not binary")
                    if val > 0.5:
                        chosen.append(p)
                if len(chosen) != 1:
                    raise FormatError(
                        f"{path}: slot {t}, user {n}, type {k} has {len(chosen)} chosen options")
                option[t, n, k] = chosen[0]
    scheme = AllocationScheme(option=option)
    cost = objective_of(model, option)
    if declared is not None:
        if abs(cost - declared) > 1e-4 * max(1.0, abs(declared)):
            raise FormatError(
                f"{path}: declared objective {declared} disagrees with recomputed cost {cost}")
    return scheme, cost


def objective_of(model, option):
    """Objective of an option array; infeasible assignments are inf."""
    cost, _ = evaluate_hard(model.meta["instance"], model.meta["table"],
                            np.asarray(option, dtype=np.int64))
    return float(cost)
