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
structure, and only ``linearize`` formats variable names: each column
and row family has a name pattern that ``_names`` broadcasts over the
family's axis labels into an object array, with no per-element call.

The LP text export is deterministic: fixed variable naming, fixed row
order, full-precision repr coefficients, and no timestamps, so exports
are byte-stable across runs and platforms.  ``write_lp`` places every
token of a block (objective, rows, binaries) in one object grid, one
``repr`` per distinct coefficient magnitude, and joins it once; the
line grammar is in FORMATS.md.
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


def _names(pattern, *axes):
    """Names in C order of the axes as an object array: each ``{}`` of
    pattern takes its axis' label, the entry of a tuple of labels or
    the index along an axis given by its size."""
    parts = pattern.split("{}")
    names = np.array(parts[0], dtype=object)
    for text, axis in zip(parts[1:], axes):
        labels = axis if isinstance(axis, tuple) else range(axis)
        names = names[..., None] + np.array([f"{label}{text}" for label in labels], dtype=object)
    return names


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

    def add_block(family, names, is_binary, exists=None):
        # columns numbered in C order of the names, -1 where a variable is absent
        exists = np.ones(names.shape, dtype=bool) if exists is None else exists
        count = int(np.count_nonzero(exists))
        cols = np.full(names.shape, -1, dtype=np.int64)
        cols[exists] = np.arange(len(variables), len(variables) + count)
        variables.extend(names[exists].tolist())
        binary.extend([is_binary] * count)
        blocks[family] = cols
        return cols

    lam_shape = (t_n, n_n, k_n, table.n_options)
    lam = add_block("lam", _names("lam_t{}_n{}_k{}_p{}", *lam_shape), True,
                    np.broadcast_to(table.valid.transpose(1, 0, 2), lam_shape))
    u_e = add_block("u_e", _names("u_{}_e_n{}_i{}_t{}", dirs, n_n, el, t_n), True)
    u_l = add_block("u_l", _names("u_{}_l_i{}_t{}", dirs, el, t_n), True)
    f_e = add_block("f_e", _names("f_{}_n{}_i{}_t{}", dirs, n_n, el, t_n), False)
    x_l = add_block("x_l", _names("X_{}_i{}_t{}", dirs, el, t_n), False)
    z_e = add_block("z_e", _names("z_e_n{}_i{}", n_n, el), False)
    z_l = add_block("z_l", _names("z_l_i{}", el), False)
    w_e = add_block("w_e", _names("w_e_n{}_i{}", n_n, el), False)
    w_l = add_block("w_l", _names("w_l_i{}", el), False)

    names, counts, cols, coeffs, senses, bounds = [], [], [], [], [], []

    def add_rows(row_names, sense, bound, *terms):
        # rows in C order of row_names; sense and bound broadcast to it;
        # each term is (cols, coeffs) whose last axis lists that term's
        # columns in a row; column -1 drops a term
        shape = row_names.shape
        row_cols = np.concatenate(
            [np.broadcast_to(c, shape + np.shape(c)[-1:]) for c, _ in terms], axis=-1)
        row_coeffs = np.concatenate(
            [np.broadcast_to(v, shape + np.shape(c)[-1:]) for c, v in terms], axis=-1)
        keep = row_cols >= 0
        names.extend(row_names.ravel().tolist())
        counts.append(keep.sum(axis=-1).ravel())
        cols.append(row_cols[keep])
        coeffs.append(row_coeffs[keep])
        senses.append(np.broadcast_to(sense, shape).ravel())
        bounds.append(np.broadcast_to(np.asarray(bound, dtype=float), shape).ravel())

    add_rows(_names("assign_t{}_n{}_k{}", t_n, n_n, k_n), "=", 1.0, (lam, 1.0))

    # def_f: f = sum of the chosen options' shares; zero shares get no term
    demand = np.stack([instance.demands.inbound, instance.demands.outbound])  # (2, K, N, T)
    share = (table.weights.transpose(1, 3, 0, 2)[None, :, :, None]
             * demand.transpose(0, 2, 3, 1)[:, :, None, :, :, None])  # (2, N, EL, T, K, P)
    share_cols = np.where(share != 0.0, lam.transpose(1, 0, 2, 3)[None, :, None], -1)
    add_rows(_names("def_f{}_n{}_i{}_t{}", dirs, n_n, el, t_n), "=", 0.0,
             (f_e[..., None], 1.0),
             (share_cols.reshape(2, n_n, el, t_n, -1), -share.reshape(2, n_n, el, t_n, -1)))
    add_rows(_names("def_X{}_i{}_t{}", dirs, el, t_n), "=", 0.0,
             (x_l[..., None], 1.0), (f_e.transpose(0, 2, 3, 1), -1.0))

    add_rows(_names("bud_{}_e_n{}_i{}", dirs, n_n, el), "<=", m, (u_e, 1.0))
    add_rows(_names("bud_{}_l_i{}", dirs, el), "<=", m, (u_l, 1.0))

    def level_rows(row_names, z, flow, u, big, cap):
        # rows (direction, link..., kind, slot), kind zlb then cap:
        # zlb  z >= f - cphys * u;  cap  f <= cbill + (cphys - cbill) * u;
        # a cap row's z column is -1, so its term drops
        zlb = np.array([True, False])[:, None]
        big, cap = big[..., None, None], cap[..., None, None]
        add_rows(np.moveaxis(row_names, 0, -2),
                 np.where(zlb, ">=", "<="), np.where(zlb, 0.0, big),
                 (np.where(zlb, z[..., None, None], -1)[..., None], 1.0),
                 (flow[..., None, :, None], np.where(zlb, -1.0, 1.0)[..., None]),
                 (u[..., None, :, None], np.where(zlb, big, big - cap)[..., None]))

    kinds = ("zlb", "cap")
    level_rows(_names("{}_{}_e_n{}_i{}_t{}", kinds, dirs, n_n, el, t_n), z_e, f_e, u_e,
               topo.edge_cap_phys, topo.edge_cap_billable)
    level_rows(_names("{}_{}_l_i{}_t{}", kinds, dirs, el, t_n), z_l, x_l, u_l,
               topo.isp_cap_phys, topo.isp_cap_billable)

    add_rows(_names("zub_e_n{}_i{}", n_n, el), "<=", topo.edge_cap_billable,
             (z_e[..., None], 1.0))
    add_rows(_names("zub_l_i{}", el), "<=", topo.isp_cap_billable, (z_l[:, None], 1.0))
    add_rows(_names("wlb_e_n{}_i{}", n_n, el), ">=", -topo.edge_cap_basic,
             (w_e[..., None], 1.0), (z_e[..., None], -1.0))
    add_rows(_names("wlb_l_i{}", el), ">=", -topo.isp_cap_basic,
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


_SEPARATORS = np.array([" ", "\n   "], dtype=object)  # inside a line, at a wrap
_SIGNS = np.array(["", "+ ", "- "], dtype=object)  # first positive, positive, negative


def _token_grid(counts):
    """An empty (tokens, fields) object grid for rows of counts[r] tokens,
    fields separator, sign, coefficient, space and name; also each row's
    first token and each token's position in its row."""
    first = np.cumsum(counts) - counts
    pos = np.arange(int(np.sum(counts))) - np.repeat(first, counts)
    return np.empty((len(pos), 5), dtype=object), first, pos


def _terms(grid, at, names, cols, coeffs, pos):
    # the fields of the terms at grid rows at, pos their positions in
    # their rows: one repr per distinct |coefficient|
    values, inverse = np.unique(np.abs(coeffs), return_inverse=True)
    grid[at, 1] = _SIGNS[np.where(coeffs < 0, 2, pos > 0)]
    grid[at, 2] = np.array(list(map(repr, values.tolist())), dtype=object)[inverse]
    grid[at, 3] = " "
    grid[at, 4] = names[cols]


def _join(grid, first, pos, prefixes):
    """The grid's text: a newline and its row's prefix before a row's
    first token, a newline and three spaces before every
    TERMS_PER_LINE-th token, a space before any other."""
    grid[:, 0] = _SEPARATORS[(pos % TERMS_PER_LINE == 0).astype(np.intp)]
    grid[first, 0] = "\n" + np.asarray(prefixes, dtype=object)
    return "".join(grid.ravel().tolist())


def write_lp(model, path):
    """CPLEX-style LP text; byte-stable for a given model."""
    t_n, n_n, k_n = model.instance.dims
    names = np.array(model.variables, dtype=object)
    objective = np.array(model.objective)
    grid, first, pos = _token_grid([len(objective)])
    _terms(grid, slice(None), names, objective[:, 0].astype(np.int64), objective[:, 1], pos)
    text = [f"\\ percentile billing schedule\n\\ instance: {model.instance.instance_id}\n"
            f"\\ dims: T={t_n} N={n_n} K={k_n} exempt={model.exempt}\nMinimize",
            _join(grid, first, pos, [" obj: "]), "\nSubject To"]
    counts = np.diff(model.indptr) + 1  # the row's terms, then "sense rhs"
    grid, first, pos = _token_grid(counts)
    last = first + counts - 1
    at = np.delete(np.arange(len(pos)), last)
    _terms(grid, at, names, model.cols, model.coeffs, pos[at])
    grid[last, 1:4] = ""
    grid[last, 4] = (model.sense.astype(object) + " "
                     + np.array(list(map(repr, model.rhs.tolist())), dtype=object))
    text += [_join(grid, first, pos, " " + np.array(model.constraints, dtype=object) + ": "),
             "\nBinaries"]
    grid, first, pos = _token_grid([int(model.binary.sum())])
    grid[:, 1:4] = ""
    grid[:, 4] = names[model.binary]
    write_text(path, "".join(text + [_join(grid, first, pos, [" "]), "\nEnd\n"]))


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
