"""Slow reference implementations used to freeze expected test values.

Everything here recomputes results from first principles with plain
Python loops and deliberately shares no code path with the package:
flows are expanded link by link, percentiles sort list copies, and
subsets are enumerated by hand.  Tests compare the fast implementations
against these.  The concrete transform's reference is the exception: it
is the package's earlier full-width numpy transform, kept to check the
current one byte for byte.
"""

import itertools
import math

import numpy as np


def exempt_count(n_slots):
    return int(math.floor(0.05 * n_slots))


def g95(series, m=None):
    """(m+1)-th largest element of the series."""
    vals = sorted((float(v) for v in series), reverse=True)
    if m is None:
        m = exempt_count(len(vals))
    return vals[m]


def admissible_links(topology, k, n):
    el = topology.admissible.shape[2]
    return [j for j in range(el) if topology.admissible[k, n, j]]


def option_subset(links, p):
    """Links selected by option p: set bits of p + 1 over ascending links."""
    bits = p + 1
    if bits >= 2 ** len(links):
        raise ValueError(f"option {p} out of range for {len(links)} links")
    return [links[j] for j in range(len(links)) if (bits >> j) & 1]


def split_weights(topology, n, subset):
    caps = [float(topology.edge_cap_basic[n, j]) for j in subset]
    total = sum(caps)
    if total == 0.0:
        return {j: 1.0 / len(subset) for j in subset}
    return {j: c / total for j, c in zip(subset, caps)}


def hard_edge_flows(instance, option):
    """Per-slot link loads as nested lists f[n][j][t], one per direction."""
    topo = instance.topology
    k_types, n_users, t_slots = instance.demands.inbound.shape
    el = topo.admissible.shape[2]
    f_in = [[[0.0] * t_slots for _ in range(el)] for _ in range(n_users)]
    f_out = [[[0.0] * t_slots for _ in range(el)] for _ in range(n_users)]
    for t in range(t_slots):
        for n in range(n_users):
            for k in range(k_types):
                links = admissible_links(topo, k, n)
                subset = option_subset(links, int(option[t, n, k]))
                for j, frac in split_weights(topo, n, subset).items():
                    f_in[n][j][t] += frac * float(instance.demands.inbound[k, n, t])
                    f_out[n][j][t] += frac * float(instance.demands.outbound[k, n, t])
    return f_in, f_out


def soft_edge_flows(instance, x):
    """Same expansion for a relaxed allocation x[t][n][k][p]."""
    topo = instance.topology
    k_types, n_users, t_slots = instance.demands.inbound.shape
    el = topo.admissible.shape[2]
    f_in = [[[0.0] * t_slots for _ in range(el)] for _ in range(n_users)]
    f_out = [[[0.0] * t_slots for _ in range(el)] for _ in range(n_users)]
    for t in range(t_slots):
        for n in range(n_users):
            for k in range(k_types):
                links = admissible_links(topo, k, n)
                for p in range(2 ** len(links) - 1):
                    frac_p = float(x[t, n, k, p])
                    if frac_p == 0.0:
                        continue
                    for j, frac in split_weights(topo, n, option_subset(links, p)).items():
                        f_in[n][j][t] += frac_p * frac * float(instance.demands.inbound[k, n, t])
                        f_out[n][j][t] += frac_p * frac * float(instance.demands.outbound[k, n, t])
    return f_in, f_out


def isp_flows(f_in, f_out):
    n_users = len(f_in)
    el = len(f_in[0])
    t_slots = len(f_in[0][0])
    x_in = [[sum(f_in[n][j][t] for n in range(n_users)) for t in range(t_slots)]
            for j in range(el)]
    x_out = [[sum(f_out[n][j][t] for n in range(n_users)) for t in range(t_slots)]
             for j in range(el)]
    return x_in, x_out


def _billables(instance, f_in, f_out):
    topo = instance.topology
    t_slots = instance.demands.inbound.shape[2]
    m = exempt_count(t_slots)
    n_users = len(f_in)
    el = len(f_in[0])
    z_edge = [[max(g95(f_in[n][j], m), g95(f_out[n][j], m)) for j in range(el)]
              for n in range(n_users)]
    x_in, x_out = isp_flows(f_in, f_out)
    z_isp = [max(g95(x_in[j], m), g95(x_out[j], m)) for j in range(el)]
    return z_edge, z_isp, x_in, x_out


def cost_of_flows(instance, f_in, f_out):
    topo = instance.topology
    z_edge, z_isp, _, _ = _billables(instance, f_in, f_out)
    total = 0.0
    for n in range(len(z_edge)):
        for j in range(len(z_edge[n])):
            total += float(topo.edge_rate[n, j]) * max(
                z_edge[n][j] - float(topo.edge_cap_basic[n, j]), 0.0)
    for j in range(len(z_isp)):
        total += float(topo.isp_rate[j]) * max(
            z_isp[j] - float(topo.isp_cap_basic[j]), 0.0)
    return total


def cost(instance, option):
    f_in, f_out = hard_edge_flows(instance, option)
    return cost_of_flows(instance, f_in, f_out)


def soft_cost(instance, x):
    f_in, f_out = soft_edge_flows(instance, x)
    return cost_of_flows(instance, f_in, f_out)


def feasible(instance, option):
    """Hard feasibility: per-slot loads under physical caps, z under billable."""
    topo = instance.topology
    f_in, f_out = hard_edge_flows(instance, option)
    z_edge, z_isp, x_in, x_out = _billables(instance, f_in, f_out)
    for n in range(len(f_in)):
        for j in range(len(f_in[n])):
            cap = float(topo.edge_cap_phys[n, j])
            if any(v > cap for v in f_in[n][j]) or any(v > cap for v in f_out[n][j]):
                return False
            if z_edge[n][j] > float(topo.edge_cap_billable[n, j]):
                return False
    for j in range(len(z_isp)):
        cap = float(topo.isp_cap_phys[j])
        if any(v > cap for v in x_in[j]) or any(v > cap for v in x_out[j]):
            return False
        if z_isp[j] > float(topo.isp_cap_billable[j]):
            return False
    return True


def soft_loss(instance, x, lam_g=1.0):
    """Cost plus lam_g times the squared cap overshoots of the relaxation."""
    topo = instance.topology
    f_in, f_out = soft_edge_flows(instance, x)
    z_edge, z_isp, x_in, x_out = _billables(instance, f_in, f_out)
    pen = 0.0
    for n in range(len(f_in)):
        for j in range(len(f_in[n])):
            cap = float(topo.edge_cap_phys[n, j])
            pen += sum(max(v - cap, 0.0) ** 2 for v in f_in[n][j])
            pen += sum(max(v - cap, 0.0) ** 2 for v in f_out[n][j])
            pen += max(z_edge[n][j] - float(topo.edge_cap_billable[n, j]), 0.0) ** 2
    for j in range(len(z_isp)):
        cap = float(topo.isp_cap_phys[j])
        pen += sum(max(v - cap, 0.0) ** 2 for v in x_in[j])
        pen += sum(max(v - cap, 0.0) ** 2 for v in x_out[j])
        pen += max(z_isp[j] - float(topo.isp_cap_billable[j]), 0.0) ** 2
    return cost_of_flows(instance, f_in, f_out) + lam_g * pen


def option_counts(instance):
    """Per (t, n, k) block, the number of valid options, slot-major order."""
    topo = instance.topology
    k_types, n_users, t_slots = instance.demands.inbound.shape
    counts = []
    for t in range(t_slots):
        for n in range(n_users):
            for k in range(k_types):
                counts.append(2 ** len(admissible_links(topo, k, n)) - 1)
    return counts


def exhaustive_best(instance):
    """Cheapest feasible assignment by full enumeration; None if infeasible.

    Only sensible for tiny instances; ties keep the first assignment in
    odometer order (last block varies fastest).
    """
    import numpy as np

    k_types, n_users, t_slots = instance.demands.inbound.shape
    counts = option_counts(instance)
    best = None
    for combo in itertools.product(*(range(c) for c in counts)):
        option = np.array(combo, dtype=np.int64).reshape(t_slots, n_users, k_types)
        if not feasible(instance, option):
            continue
        c = cost(instance, option)
        if best is None or c < best[0]:
            best = (c, option)
    return best


MASK_LOGIT = -1e9


def concrete_rows_given(alpha, valid, tau, g):
    """The concrete transform over every (row, option) entry: a masked
    entry gets MASK_LOGIT in place of log alpha, is exponentiated with
    the rest and then set to 0."""
    safe = np.log(np.maximum(alpha, np.finfo(float).tiny))
    logits = (np.where(valid, safe, MASK_LOGIT) + g) / tau
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    np.copyto(e, 0.0, where=~valid)
    return e / e.sum(axis=-1, keepdims=True)


def gumbel_margin_prob(alpha, delta):
    """P(top-two gap of log alpha + G is at least delta), G iid Gumbel.

    The winner i beats the max of the others, itself a Gumbel located at
    log(S - alpha_i); the difference of two Gumbels is logistic, so each
    winner contributes alpha_i / (alpha_i + e^delta (S - alpha_i)).
    """
    total = sum(float(a) for a in alpha)
    scale = math.exp(delta)
    return sum(float(a) / (float(a) + scale * (total - float(a))) for a in alpha)


def concrete_saturation_bracket(alpha, tau, level):
    """Bounds on P(max coordinate of a concrete sample >= level).

    With logit gaps d_j to the winner, the max coordinate is
    1 / (1 + sum_j exp(-d_j / tau)).  It reaches level only if the
    smallest gap is at least tau * ln(r), r = level / (1 - level), and
    surely does once every gap is at least tau * ln(r * (P - 1)).
    """
    ratio = level / (1.0 - level)
    lower = gumbel_margin_prob(alpha, tau * math.log(ratio * (len(alpha) - 1)))
    upper = gumbel_margin_prob(alpha, tau * math.log(ratio))
    return lower, upper


def saturation_band(alpha, tau, level, n_draws):
    """The saturation bracket widened by 4 binomial standard errors of a
    fraction over n_draws samples; returns (bracket, band)."""
    lower, upper = concrete_saturation_bracket(alpha, tau, level)

    def se(p):
        return math.sqrt(p * (1.0 - p) / n_draws)

    return (lower, upper), (lower - 4.0 * se(lower), upper + 4.0 * se(upper))


LP_TERMS_PER_LINE = 8


def _lp_term_tokens(names, terms):
    # terms: (column, coefficient) pairs of Python numbers
    tokens = []
    for pos, (col, coeff) in enumerate(terms):
        body = f"{abs(coeff)!r} {names[col]}"
        if coeff < 0:
            tokens.append(f"- {body}")
        else:
            tokens.append(body if pos == 0 else f"+ {body}")
    return tokens


def _lp_wrap(prefix, tokens):
    lines = []
    for start in range(0, len(tokens), LP_TERMS_PER_LINE):
        chunk = " ".join(tokens[start:start + LP_TERMS_PER_LINE])
        lines.append(f"{prefix}{chunk}" if start == 0 else f"   {chunk}")
    return lines


def reference_lp_text(model):
    """The LP text of a MilpModel, formatted row by row and token by token."""
    t_n, n_n, k_n = model.instance.dims
    names = model.variables
    lines = [
        "\\ percentile billing schedule",
        f"\\ instance: {model.instance.instance_id}",
        f"\\ dims: T={t_n} N={n_n} K={k_n} exempt={model.exempt}",
        "Minimize",
    ]
    lines += _lp_wrap(" obj: ", _lp_term_tokens(names, model.objective))
    lines.append("Subject To")
    indptr, cols, coeffs = model.indptr.tolist(), model.cols.tolist(), model.coeffs.tolist()
    rows = zip(model.constraints, indptr, indptr[1:], model.sense.tolist(), model.rhs.tolist())
    for name, lo, hi, sense, rhs in rows:
        tokens = _lp_term_tokens(names, zip(cols[lo:hi], coeffs[lo:hi]))
        tokens.append(f"{sense} {rhs!r}")
        lines += _lp_wrap(f" {name}: ", tokens)
    lines.append("Binaries")
    lines += _lp_wrap(" ", [names[c] for c in range(len(names)) if model.binary[c]])
    lines.append("End")
    return "\n".join(lines) + "\n"
