"""Finite-difference audit of the package's analytic gradients.

The sampled penalized loss is piecewise smooth: the billing cost commits
to discrete selections (the billed slot per link and direction, inbound
or outbound, which caps are overshot, which links bill an overage) and
every ReLU6 unit sits on its rising segment or on a flat one.  A
signature gathers all of them, rebuilt here from the package's own
outputs; a central-difference probe whose +h and -h points carry
different signatures straddles a kink and is redrawn instead of
compared.  Release criterion 3 runs ``gssn_grad_check``.
"""

from dataclasses import dataclass, field

import numpy as np

from ecsched import _kernels, gumbel, sampler
from ecsched.model import build_option_table


def billing_signature(instance, table, x):
    """Every discrete selection the soft loss of x (T, N, K, P) commits to."""
    topo = instance.topology
    flows = _kernels.price_flows(topo, *_kernels.soft_edge_flows(
        np.ascontiguousarray(x), table.weights,
        instance.demands.inbound, instance.demands.outbound))
    m = _kernels.percentile_exempt_count(instance.demands.inbound.shape[2])
    tin_e, tout_e, tin_l, tout_l = (
        _kernels.descending_slots(arr)[..., m]
        for arr in (flows.edge.flow_in, flows.edge.flow_out, flows.isp.flow_in, flows.isp.flow_out))
    return (
        tin_e.tobytes(), tout_e.tobytes(), flows.edge.inbound.tobytes(),
        tin_l.tobytes(), tout_l.tobytes(), flows.isp.inbound.tobytes(),
        *((over > 0).tobytes() for over in (*flows.edge.overshoot, *flows.isp.overshoot)),
        (flows.edge.z > topo.edge_cap_basic).tobytes(),
        (flows.isp.z > topo.isp_cap_basic).tobytes(),
    )


def relu6_activity(mlp, cache):
    """Which units sit on the rising segment of ReLU6 (kinks at 0 and 6).

    Hidden units are read from their activations, which sit strictly
    inside (0, 6) exactly where their preactivations do.
    """
    inputs, z = cache
    live = inputs[1:] + [z] if mlp.output == "relu6_eps" else inputs[1:]
    return b"".join(((a > 0.0) & (a < 6.0)).tobytes() for a in live)


@dataclass
class GradCheckReport:
    """Per-coordinate comparison of analytic vs central-difference grads."""

    coords: list = field(default_factory=list)  # (param idx, flat idx, analytic, numeric, rel err)
    max_rel_err: float = 0.0
    n_kinks_skipped: int = 0


def grad_check(loss_and_grad, params, rng, n_coords=20, h=1e-5, max_retries=50):
    """Probe random parameter coordinates with central differences.

    loss_and_grad() must return (loss, grads, signature) at the current
    params; the signature captures every discrete selection the loss
    committed to.  A probe where the signatures at +h and -h differ
    straddles a kink and is redrawn (counted, not compared).  Relative
    error uses max(|analytic|, |numeric|) as denominator; coordinates
    where both magnitudes are below 1e-8 count as exact.
    """
    _, grads0, sig0 = loss_and_grad()
    sizes = [p.size for p in params]
    total = sum(sizes)
    report = GradCheckReport()
    picked = 0
    attempts = 0
    while picked < n_coords:
        if attempts > n_coords + max_retries:
            raise RuntimeError("too many kinked coordinates; loosen h or reseed")
        attempts += 1
        flat = int(rng.integers(total))
        pi = 0
        while flat >= sizes[pi]:
            flat -= sizes[pi]
            pi += 1
        p = params[pi].reshape(-1)
        old = p[flat]
        p[flat] = old + h
        lp, _, sig_plus = loss_and_grad()
        p[flat] = old - h
        lm, _, sig_minus = loss_and_grad()
        p[flat] = old
        if sig_plus != sig_minus or sig_plus != sig0:
            report.n_kinks_skipped += 1
            continue
        numeric = (lp - lm) / (2.0 * h)
        analytic = float(grads0[pi].reshape(-1)[flat])
        denom = max(abs(analytic), abs(numeric))
        rel = 0.0 if denom < 1e-8 else abs(analytic - numeric) / denom
        report.coords.append((pi, flat, analytic, numeric, rel))
        report.max_rel_err = max(report.max_rel_err, rel)
        picked += 1
    return report


def gssn_grad_check(network, instance, tau=1.0, lam_g=1.0, n_coords=20,
                    h=1e-5, seed=0, table=None):
    """Central-difference audit of the sampled-loss parameter gradient.

    The noise block is drawn once and frozen, making the loss a fixed
    function of the parameters; probed coordinates whose +/- h points
    land on different smooth pieces are re-drawn at a perturbed base
    point rather than compared across a kink.
    """
    if table is None:
        table = build_option_table(instance.topology)
    inp = sampler.preprocess(instance, table)
    noise = gumbel.sample_gumbel(np.random.default_rng([seed, 3]), inp.valid.shape)
    params = sampler.network_parameters(network)

    def closure():
        loss, grads = sampler.loss_grads_with_noise(
            network, instance, table, inp, tau, lam_g, noise)
        alpha, caches = sampler.forward_alpha(network, inp)
        x = gumbel.concrete_rows_given(alpha.values, alpha.valid, tau, noise)
        signature = billing_signature(instance, table, x.reshape(*alpha.dims, -1))
        signature += tuple(relu6_activity(mlp, cache) for mlp, cache in zip(
            (network.link, network.program, network.ranking), caches))
        return loss, grads, signature

    return grad_check(closure, params, np.random.default_rng([seed, 4]),
                      n_coords=n_coords, h=h)
