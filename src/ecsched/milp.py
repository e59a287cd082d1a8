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

The model is held as arrays (see ``MilpModel``): every variable family
is an index block of columns and the rows are CSR, so the LP writer,
the warm start, solution import and external solvers all read one
structure, and only ``linearize`` formats variable names.

The LP text export is deterministic: fixed variable naming, fixed row
order, full-precision repr coefficients, and no timestamps, so exports
are byte-stable across runs and platforms.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .io import FormatError, read_text, write_text
from .model import (AllocationScheme, Instance, OptionTable, build_option_table, compute_flows,
                    percentile_exempt_count)

@dataclass
class MilpModel:
    """One instance's MILP as arrays.

    Columns: ``variables[c]`` is column c's name and ``binary[c]`` its
    type.  ``blocks`` maps each variable family to an int array of its
    columns: ``lam`` (T, N, K, P), -1 where option p does not exist;
    ``u_e`` and ``f_e`` (2, N, EL, T); ``u_l`` and ``x_l`` (2, EL, T);
    ``z_e`` and ``w_e`` (N, EL); ``z_l`` and ``w_l`` (EL,).  A leading 2
    is the direction, in then out.  Rows are CSR: row r's terms are
    ``cols[indptr[r]:indptr[r + 1]]`` with ``coeffs`` in written order,
    ``sense[r]`` is "<=", ">=" or "=", ``rhs[r]`` its bound and
    ``constraints[r]`` its name.  ``objective`` lists (column,
    coefficient) pairs.  ``instance`` and ``table`` are the instance and
    option table the model was built from, and ``exempt`` is m, the
    exempt slots per link and direction.
    """

    variables: list
    binary: np.ndarray
    blocks: dict
    constraints: list
    indptr: np.ndarray
    cols: np.ndarray
    coeffs: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray
    objective: list
    instance: Instance
    table: OptionTable
    exempt: int


def linearize(instance, table=None):
    """Build the MILP for one instance."""
    if table is None:
        table = build_option_table(instance.topology)
    topo = instance.topology
    t_n, n_n, k_n = instance.dims
    el = topo.n_isps
    m = percentile_exempt_count(t_n)
    dirs = ("in", "out")  # the leading axis of the u, f and X blocks

    variables, binary, blocks = [], [], {}

    def add_block(family, shape, name, is_binary, exists=None):
        # columns numbered in C order of shape, -1 where a variable is absent
        exists = np.ones(shape, dtype=bool) if exists is None else exists
        count = int(np.count_nonzero(exists))
        cols = np.full(shape, -1, dtype=np.int64)
        cols[exists] = np.arange(len(variables), len(variables) + count)
        variables.extend(name(*pos) for pos in np.argwhere(exists).tolist())
        binary.extend([is_binary] * count)
        blocks[family] = cols
        return cols

    lam_shape = (t_n, n_n, k_n, table.n_options)
    lam = add_block("lam", lam_shape, lambda t, n, k, p: f"lam_t{t}_n{n}_k{k}_p{p}", True,
                    np.broadcast_to(table.valid.transpose(1, 0, 2), lam_shape))
    u_e = add_block("u_e", (2, n_n, el, t_n),
                    lambda d, n, i, t: f"u_{dirs[d]}_e_n{n}_i{i}_t{t}", True)
    u_l = add_block("u_l", (2, el, t_n), lambda d, i, t: f"u_{dirs[d]}_l_i{i}_t{t}", True)
    f_e = add_block("f_e", (2, n_n, el, t_n),
                    lambda d, n, i, t: f"f_{dirs[d]}_n{n}_i{i}_t{t}", False)
    x_l = add_block("x_l", (2, el, t_n), lambda d, i, t: f"X_{dirs[d]}_i{i}_t{t}", False)
    z_e = add_block("z_e", (n_n, el), lambda n, i: f"z_e_n{n}_i{i}", False)
    z_l = add_block("z_l", (el,), lambda i: f"z_l_i{i}", False)
    w_e = add_block("w_e", (n_n, el), lambda n, i: f"w_e_n{n}_i{i}", False)
    w_l = add_block("w_l", (el,), lambda i: f"w_l_i{i}", False)

    names, counts, cols, coeffs, senses, bounds = [], [], [], [], [], []

    def add_rows(shape, name, sense, bound, *terms):
        # rows in C order of shape; each term is (cols, coeffs) whose last
        # axis lists that term's columns in a row; column -1 drops a term
        row_cols = np.concatenate(
            [np.broadcast_to(c, shape + np.shape(c)[-1:]) for c, _ in terms], axis=-1)
        row_coeffs = np.concatenate(
            [np.broadcast_to(v, shape + np.shape(c)[-1:]) for c, v in terms], axis=-1)
        keep = row_cols >= 0
        names.extend(name(*pos) for pos in np.ndindex(*shape))
        counts.append(keep.sum(axis=-1).ravel())
        cols.append(row_cols[keep])
        coeffs.append(row_coeffs[keep])
        senses.append(np.full(int(np.prod(shape)), sense))
        bounds.append(np.broadcast_to(np.asarray(bound, dtype=float), shape).ravel())

    add_rows((t_n, n_n, k_n), lambda t, n, k: f"assign_t{t}_n{n}_k{k}", "=", 1.0, (lam, 1.0))

    # def_f: f = sum of the chosen options' shares; zero shares get no term
    demand = np.stack([instance.demands.inbound, instance.demands.outbound])  # (2, K, N, T)
    share = (table.weights.transpose(1, 3, 0, 2)[None, :, :, None]
             * demand.transpose(0, 2, 3, 1)[:, :, None, :, :, None])  # (2, N, EL, T, K, P)
    share_cols = np.where(share != 0.0, lam.transpose(1, 0, 2, 3)[None, :, None], -1)
    add_rows((2, n_n, el, t_n), lambda d, n, i, t: f"def_f{dirs[d]}_n{n}_i{i}_t{t}", "=", 0.0,
             (f_e[..., None], 1.0),
             (share_cols.reshape(2, n_n, el, t_n, -1), -share.reshape(2, n_n, el, t_n, -1)))
    add_rows((2, el, t_n), lambda d, i, t: f"def_X{dirs[d]}_i{i}_t{t}", "=", 0.0,
             (x_l[..., None], 1.0), (f_e.transpose(0, 2, 3, 1), -1.0))

    add_rows((2, n_n, el), lambda d, n, i: f"bud_{dirs[d]}_e_n{n}_i{i}", "<=", m, (u_e, 1.0))
    add_rows((2, el), lambda d, i: f"bud_{dirs[d]}_l_i{i}", "<=", m, (u_l, 1.0))

    def level_rows(link, z, flow, u, big, cap):
        # z >= f - cphys * u on every slot; f <= cbill + (cphys - cbill) * u
        add_rows((t_n,), lambda t: f"zlb_{link}_t{t}", ">=", 0.0,
                 (z[None], 1.0), (flow[:, None], -1.0), (u[:, None], big))
        add_rows((t_n,), lambda t: f"cap_{link}_t{t}", "<=", big,
                 (flow[:, None], 1.0), (u[:, None], big - cap))

    for d, n, i in np.ndindex(2, n_n, el):
        level_rows(f"{dirs[d]}_e_n{n}_i{i}", z_e[n, i], f_e[d, n, i], u_e[d, n, i],
                   topo.edge_cap_phys[n, i], topo.edge_cap_billable[n, i])
    for d, i in np.ndindex(2, el):
        level_rows(f"{dirs[d]}_l_i{i}", z_l[i], x_l[d, i], u_l[d, i],
                   topo.isp_cap_phys[i], topo.isp_cap_billable[i])

    add_rows((n_n, el), lambda n, i: f"zub_e_n{n}_i{i}", "<=", topo.edge_cap_billable,
             (z_e[..., None], 1.0))
    add_rows((el,), lambda i: f"zub_l_i{i}", "<=", topo.isp_cap_billable, (z_l[:, None], 1.0))
    add_rows((n_n, el), lambda n, i: f"wlb_e_n{n}_i{i}", ">=", -topo.edge_cap_basic,
             (w_e[..., None], 1.0), (z_e[..., None], -1.0))
    add_rows((el,), lambda i: f"wlb_l_i{i}", ">=", -topo.isp_cap_basic,
             (w_l[:, None], 1.0), (z_l[:, None], -1.0))

    objective = list(zip(w_e.ravel().tolist(), topo.edge_rate.ravel().tolist()))
    objective += list(zip(w_l.tolist(), topo.isp_rate.tolist()))

    return MilpModel(variables=variables, binary=np.array(binary, dtype=bool), blocks=blocks,
                     constraints=names,
                     indptr=np.concatenate([[0], np.cumsum(np.concatenate(counts))]),
                     cols=np.concatenate(cols), coeffs=np.concatenate(coeffs),
                     sense=np.concatenate(senses), rhs=np.concatenate(bounds),
                     objective=objective, instance=instance, table=table, exempt=m)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

TERMS_PER_LINE = 8  # LP terms per line, continuation lines included


def _term_tokens(names, terms):
    # terms: (column, coefficient) pairs of Python numbers
    tokens = []
    for pos, (col, coeff) in enumerate(terms):
        body = f"{abs(coeff)!r} {names[col]}"
        if coeff < 0:
            tokens.append(f"- {body}")
        else:
            tokens.append(body if pos == 0 else f"+ {body}")
    return tokens


def _wrap(prefix, tokens):
    lines = []
    for start in range(0, len(tokens), TERMS_PER_LINE):
        chunk = " ".join(tokens[start:start + TERMS_PER_LINE])
        lines.append(f"{prefix}{chunk}" if start == 0 else f"   {chunk}")
    return lines


def write_lp(model, path):
    """CPLEX-style LP text; byte-stable for a given model."""
    t_n, n_n, k_n = model.instance.dims
    names = model.variables
    lines = [
        "\\ percentile billing schedule",
        f"\\ instance: {model.instance.instance_id}",
        f"\\ dims: T={t_n} N={n_n} K={k_n} exempt={model.exempt}",
        "Minimize",
    ]
    lines += _wrap(" obj: ", _term_tokens(names, model.objective))
    lines.append("Subject To")
    # Python numbers, not numpy scalars: formatting numpy scalars is much slower
    indptr, cols, coeffs = model.indptr.tolist(), model.cols.tolist(), model.coeffs.tolist()
    rows = zip(model.constraints, indptr, indptr[1:], model.sense.tolist(), model.rhs.tolist())
    for name, lo, hi, sense, rhs in rows:
        tokens = _term_tokens(names, zip(cols[lo:hi], coeffs[lo:hi]))
        tokens.append(f"{sense} {rhs!r}")
        lines += _wrap(f" {name}: ", tokens)
    lines.append("Binaries")
    lines += _wrap(" ", [names[c] for c in np.flatnonzero(model.binary).tolist()])
    lines.append("End")
    write_text(path, "\n".join(lines) + "\n")


def write_warmstart(model, scheme, path):
    """Starting point for a scheme: every binary gets a value.

    Options set their one-hot lambda block; exemption binaries mark each
    link and direction's m largest flow slots (lowest slot on ties),
    which is the optimal exemption pattern for that scheme.  The start
    is feasible for the MILP only when the scheme is: a flow over its
    physical cap breaks a ``cap_*`` row whatever the exemptions say.
    """
    # pricing checks the scheme before the lam lookup: a padded -1 entry
    # would index the last column
    flows = compute_flows(model.instance, scheme, model.table)
    x = np.zeros(len(model.variables), dtype=np.int64)
    x[np.take_along_axis(model.blocks["lam"], scheme.option[..., None], axis=-1)] = 1
    for block, tier in (("u_e", flows.edge), ("u_l", flows.isp)):
        level = _kernels._top_slots(tier.flows, model.exempt + 1)[..., model.exempt]
        x[model.blocks[block][_kernels.ranked_slots(tier.flows, level, model.exempt)[0]]] = 1
    binaries = np.flatnonzero(model.binary).tolist()
    lines = [f"# warm start for instance {model.instance.instance_id}"]
    lines += [f"{model.variables[c]} {v}" for c, v in zip(binaries, x[binaries].tolist())]
    write_text(path, "\n".join(lines) + "\n")


def _finite(text, error):
    """float(text); FormatError(error) unless it is a finite number."""
    try:
        value = float(text)
    except ValueError as exc:
        raise FormatError(error) from exc
    if not math.isfinite(value):
        raise FormatError(f"{error}: {text} is not finite")
    return value


def read_solution(path, model):
    """Parse a solver's "name value" solution file against a model.

    Accepts comment lines starting with '#' or '\\'; an objective may be
    declared either as "# Objective value = X" or a plain "objective X"
    line.  Errors: unknown variable names, a variable listed twice,
    non-finite values, fractional binaries (beyond 1e-6), blocks without
    exactly one chosen option, and a declared objective that disagrees
    with the recomputed cost by more than 1e-4 relative.  Returns
    (scheme, objective); the objective of an infeasible assignment is
    inf, whatever the file declares.
    """
    declared = None
    index = {name: col for col, name in enumerate(model.variables)}
    seen = {}  # variable name -> line number
    values = np.zeros(len(model.variables))
    for line_no, raw in enumerate(read_text(path, "solution text").split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#") or line.startswith("\\"):
            low = line.lstrip("#\\ \t").lower()
            if low.startswith("objective value"):
                declared = _finite(line.partition("=")[2].strip(),
                                   f"{path}:{line_no}: bad objective comment")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"{path}:{line_no}: expected 'name value'")
        name, text = parts
        if name.lower() == "objective":
            declared = _finite(text, f"{path}:{line_no}: bad objective value")
            continue
        if name not in index:
            raise FormatError(f"{path}:{line_no}: unknown variable '{name}'")
        if seen.setdefault(name, line_no) != line_no:
            raise FormatError(f"{path}:{line_no}: variable '{name}' repeats line {seen[name]}")
        values[index[name]] = _finite(text, f"{path}:{line_no}: bad value for '{name}'")

    lam = model.blocks["lam"]
    exists = lam >= 0
    lam_values = np.where(exists, values[lam], 0.0)
    fractional = exists & (np.minimum(np.abs(lam_values), np.abs(lam_values - 1.0)) > 1e-6)
    chosen = exists & (lam_values > 0.5)
    n_chosen = chosen.sum(axis=-1)
    bad = np.argwhere(fractional.any(axis=-1) | (n_chosen != 1))
    if bad.size:
        t, n, k = bad[0]
        if fractional[t, n, k].any():
            col = lam[t, n, k][fractional[t, n, k]][0]
            raise FormatError(f"{path}: {model.variables[col]} = {values[col]} is not binary")
        raise FormatError(
            f"{path}: slot {t}, user {n}, type {k} has {n_chosen[t, n, k]} chosen options")
    option = chosen.argmax(axis=-1)
    cost = objective_of(model, option)
    if declared is not None and cost < math.inf:
        if abs(cost - declared) > 1e-4 * max(1.0, abs(declared)):
            raise FormatError(
                f"{path}: declared objective {declared} disagrees with recomputed cost {cost}")
    return AllocationScheme(option=option), cost


def objective_of(model, option):
    """Objective of an option array; infeasible assignments are inf.  An
    array that is not (T, N, K) signed integers, each an option of the
    instance, is a ValueError (``model.check_scheme``)."""
    flows = compute_flows(model.instance, AllocationScheme(np.asarray(option)), model.table)
    return flows.cost_total if flows.feasible else math.inf
