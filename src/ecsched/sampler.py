"""Learned scheme sampler.

Three small dense encoders turn an instance into one location parameter
per (slot, user, type, option):

* the link encoder reads one row per (option, link) with columns
  [inbound share, outbound share, basic cap, billable cap] and emits a
  per-link score;
* the program encoder reads the EL link scores of one option and emits a
  per-option score;
* the ranking head maps the P option scores of a block through a
  bottleneck back to P values, then ReLU6 plus a floor keeps every
  location parameter strictly positive.

Sampling an allocation is then row-wise concrete sampling (soft, for
training) or exact categorical rounding (hard, for deployment) over the
valid options of each block.  Blocks are independent given the network,
so identical (demand, capacity, admissible) blocks get identical
parameters, and the row layout is slot-major: block (t, n, k) sits at
row (t*N + n)*K + k.

Raw Mbps features span three orders of magnitude, which would pin the
ReLU6 hidden units to their flat regions at init; the forward pass
therefore rescales each input column by a fixed constant recorded in the
model file.

Training follows the sampled penalized cost: one concrete sample per
instance per epoch (batch size 1), Adam, and a linearly annealed
temperature; see ``train``.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import gumbel
from .io import FormatError
from .model import (AllocationScheme, SoftAllocation, build_option_table,
                    evaluate_hard, soft_loss, soft_loss_and_grad)
from .nn import AdamState, Mlp, adam_step, init_mlp, mlp_backward, mlp_forward, parameters

MODEL_FORMAT = "ecsched-model"
MODEL_VERSION = 1

# per-column input scaling: traffic shares, then the two capacity columns
INPUT_SCALE = (0.01, 0.01, 0.002, 0.002)


class IntegrityError(FormatError):
    """Stored checksum does not match the model payload."""


class TrainingDiverged(RuntimeError):
    """A training loss went non-finite."""


@dataclass(frozen=True)
class NetworkInput:
    """Feature matrix of one instance.

    matrix: (T*N*K*P*EL, 4) with row EL*p + j inside each block; valid:
    (T*N*K, P) marking real options.  Padded option rows keep the
    capacity columns (they describe links, not options) and have zero
    traffic columns.
    """

    matrix: np.ndarray
    valid: np.ndarray
    dims: tuple
    n_links: int

    @property
    def n_options(self):
        return self.valid.shape[1]


@dataclass(frozen=True)
class AlphaMatrix:
    """Location parameters per block, alongside the valid-option mask."""

    values: np.ndarray  # (T*N*K, P), strictly positive
    valid: np.ndarray   # (T*N*K, P) bool
    dims: tuple         # (T, N, K)


@dataclass
class SamplingNetwork:
    """The three encoders plus the sizes they were built for."""

    link: Mlp
    program: Mlp
    ranking: Mlp
    n_options: int
    n_links: int
    alpha_eps: float = 1e-6
    input_scale: tuple = INPUT_SCALE


def create_network(n_options=15, n_links=4, seed=0,
                   link_hidden=(8, 8, 8), program_hidden=(8, 8, 8),
                   ranking_widths=(32, 16, 8, 16, 32), alpha_eps=1e-6):
    """Fresh network; encoders initialized in order link, program, ranking."""
    rng = np.random.default_rng(seed)
    link = init_mlp([4, *link_hidden, 1], rng, output="identity")
    program = init_mlp([n_links, *program_hidden, 1], rng, output="identity")
    ranking = init_mlp([n_options, *ranking_widths, n_options], rng,
                       output="relu6_eps", eps=alpha_eps)
    return SamplingNetwork(link=link, program=program, ranking=ranking,
                           n_options=n_options, n_links=n_links, alpha_eps=alpha_eps)


def preprocess(instance, table=None):
    """Expand an instance into the (T*N*K*P*EL, 4) feature matrix."""
    if table is None:
        table = build_option_table(instance.topology)
    t, n, k = instance.dims
    p = table.n_options
    el = instance.topology.n_isps
    share_in = np.einsum("knpj,knt->tnkpj", table.weights, instance.demands.inbound)
    share_out = np.einsum("knpj,knt->tnkpj", table.weights, instance.demands.outbound)
    shape = (t, n, k, p, el)
    cb = np.broadcast_to(instance.topology.edge_cap_basic[None, :, None, None, :], shape)
    cm = np.broadcast_to(instance.topology.edge_cap_billable[None, :, None, None, :], shape)
    matrix = np.stack([share_in, share_out, cb, cm], axis=-1).reshape(-1, 4)
    valid = np.broadcast_to(table.valid.transpose(1, 0, 2)[None], (t, n, k, p)).reshape(-1, p)
    return NetworkInput(matrix=matrix, valid=np.ascontiguousarray(valid),
                        dims=(t, n, k), n_links=el)


def forward_alpha(network, inp):
    """Location parameters for every block; returns (AlphaMatrix, caches)."""
    if inp.n_links != network.n_links:
        raise ValueError(f"input has {inp.n_links} links per user, network expects {network.n_links}")
    if inp.n_options != network.n_options:
        raise ValueError(f"input has {inp.n_options} options per block, network expects {network.n_options}")
    x = inp.matrix * np.asarray(network.input_scale)
    s, link_cache = mlp_forward(network.link, x)
    v, program_cache = mlp_forward(network.program, s.reshape(-1, network.n_links))
    a, ranking_cache = mlp_forward(network.ranking, v.reshape(-1, network.n_options))
    alpha = AlphaMatrix(values=a, valid=inp.valid, dims=inp.dims)
    return alpha, (link_cache, program_cache, ranking_cache)


def draw_soft(alpha, tau, rng):
    """One relaxed allocation; each valid row a concrete sample."""
    x, _ = gumbel.concrete_rows(alpha.values, alpha.valid, tau, rng)
    t, n, k = alpha.dims
    return SoftAllocation(x=x.reshape(t, n, k, -1))


def draw_hard(alpha, rng):
    """One hard scheme; each block an exact categorical draw."""
    idx = gumbel.categorical_rows(alpha.values, alpha.valid, rng)
    t, n, k = alpha.dims
    return AllocationScheme(option=idx.reshape(t, n, k))


def network_parameters(network):
    """Flat live parameter list: link, then program, then ranking."""
    return parameters(network.link) + parameters(network.program) + parameters(network.ranking)


def loss_grads_with_noise(network, instance, table, inp, tau, lam_g, gumbels):
    """Sampled penalized cost and its parameter gradient for fixed noise.

    With the Gumbel block pinned, the loss is a deterministic piecewise
    smooth function of the parameters.  Returns (loss, grads) with grads
    ordered link, program, ranking.
    """
    alpha, (c1, c2, c3) = forward_alpha(network, inp)
    x_rows = gumbel.concrete_rows_given(alpha.values, alpha.valid, tau, gumbels)
    t, n, k = alpha.dims
    loss, dx = soft_loss_and_grad(instance, table, x_rows.reshape(t, n, k, -1), lam_g)
    dx_rows = dx.reshape(-1, network.n_options)
    # softmax jacobian per row, then through log alpha at temperature tau
    row_dot = (x_rows * dx_rows).sum(axis=1, keepdims=True)
    dlogits = x_rows * (dx_rows - row_dot)
    dalpha = np.where(alpha.valid, dlogits / (tau * alpha.values), 0.0)
    dv_rows, g_rank = mlp_backward(network.ranking, c3, dalpha)
    ds_rows, g_prog = mlp_backward(network.program, c2, dv_rows.reshape(-1, 1))
    _, g_link = mlp_backward(network.link, c1, ds_rows.reshape(-1, 1))
    return loss, g_link + g_prog + g_rank


@dataclass(frozen=True)
class TrainConfig:
    n_epochs: int = 100
    tau_start: float = 2.0
    tau_end: float = 0.31
    learning_rate: float = 1e-4
    lam_g: float = 1.0
    lam_h: float = 1.0
    seed: int = 0
    # samples per instance for the recorded loss curves; single sampled
    # losses swing too much at small sizes for curves to be comparable
    metric_samples: int = 8


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    tau: float
    train_loss: float
    eval_loss: float


def anneal_tau(epoch, config):
    """Linear schedule, hitting tau_end exactly at the last epoch."""
    frac = epoch / config.n_epochs
    return config.tau_start - frac * (config.tau_start - config.tau_end)


def _mean_sampled_loss(network, dataset, tau, config, rng):
    # one forward per instance, metric_samples concrete draws sharing it
    vals = []
    for inst, table, inp in dataset:
        alpha, _ = forward_alpha(network, inp)
        for _ in range(config.metric_samples):
            vals.append(soft_loss(inst, draw_soft(alpha, tau, rng),
                                  config.lam_g, config.lam_h, table=table))
    return float(np.mean(vals))


def train(network, instances, config, eval_instances=()):
    """Anneal-and-descend loop; mutates the network's parameters.

    Per epoch, every training instance contributes one sampled-loss
    gradient step (batch size 1).  The recorded curves are computed
    after the epoch's updates with one shared protocol for both sets
    (metric_samples concrete draws per instance at the epoch's
    temperature, drawn from a separate stream), so the train and
    held-out numbers are directly comparable and a fixed config
    reproduces the history bit for bit.  Each epoch's losses are
    measured at that epoch's tau, and a fixed network's loss moves
    with tau (on the desk set it grows as tau falls), so rows at
    different tau are not a learning curve; compare against another
    network at the same tau instead.  Raises TrainingDiverged if a
    descent loss goes non-finite.
    """
    data, held = [], []
    for group, dataset in ((instances, data), (eval_instances, held)):
        for inst in group:
            table = build_option_table(inst.topology)
            dataset.append((inst, table, preprocess(inst, table)))

    params = network_parameters(network)
    adam = AdamState.for_params(params, lr=config.learning_rate)
    rng_train = np.random.default_rng([config.seed, 1])
    rng_eval = np.random.default_rng([config.seed, 2])

    history = []
    for epoch in range(1, config.n_epochs + 1):
        tau = anneal_tau(epoch, config)
        for inst, table, inp in data:
            noise = gumbel.sample_gumbel(rng_train, inp.valid.shape)
            loss, grads = loss_grads_with_noise(
                network, inst, table, inp, tau, config.lam_g, noise)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch} on {inst.instance_id}")
            adam_step(adam, params, grads)
        train_loss = _mean_sampled_loss(network, data, tau, config, rng_eval)
        eval_loss = (_mean_sampled_loss(network, held, tau, config, rng_eval)
                     if held else float("nan"))
        history.append(EpochStats(epoch=epoch, tau=tau,
                                  train_loss=train_loss, eval_loss=eval_loss))
    return history


def best_of_detailed(network, instance, n_samples, rng, table=None):
    """n_samples hard draws; returns ((scheme, cost) or None, feasible count).

    The location parameters are computed once; ties between equal-cost
    feasible samples resolve to the earliest draw.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if table is None:
        table = build_option_table(instance.topology)
    inp = preprocess(instance, table)
    alpha, _ = forward_alpha(network, inp)
    best = None
    n_feasible = 0
    for _ in range(n_samples):
        scheme = draw_hard(alpha, rng)
        cost, feasible = evaluate_hard(instance, table, scheme.option)
        if feasible:
            n_feasible += 1
            if best is None or cost < best[1]:
                best = (scheme, cost)
    return best, n_feasible


def best_of(network, instance, n_samples, rng, table=None):
    """Best feasible of n_samples draws as (scheme, cost), or None."""
    best, _ = best_of_detailed(network, instance, n_samples, rng, table)
    return best


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def _encoder_doc(mlp):
    return {
        "widths": mlp.widths,
        "output": mlp.output,
        "eps": mlp.eps,
        "layers": [{"w": w.tolist(), "b": b.tolist()}
                   for w, b in zip(mlp.weights, mlp.biases)],
    }


def _encoder_from_doc(doc, where):
    try:
        widths = list(doc["widths"])
        layers = doc["layers"]
        mlp = Mlp(weights=[np.asarray(l["w"], dtype=float) for l in layers],
                  biases=[np.asarray(l["b"], dtype=float) for l in layers],
                  output=doc["output"], eps=float(doc["eps"]))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{where}: malformed encoder block ({exc})") from exc
    if mlp.widths != widths:
        raise FormatError(f"{where}: layer shapes disagree with declared widths")
    for w, b, fan_out in zip(mlp.weights, mlp.biases, widths[1:]):
        if b.shape != (fan_out,) or w.shape[0] != fan_out:
            raise FormatError(f"{where}: bias/weight shape mismatch")
    return mlp


def _payload_checksum(encoders_doc):
    canonical = json.dumps(encoders_doc, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def save_model(network, path):
    encoders = {
        "link": _encoder_doc(network.link),
        "program": _encoder_doc(network.program),
        "ranking": _encoder_doc(network.ranking),
    }
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "n_options": network.n_options,
        "n_links": network.n_links,
        "alpha_eps": network.alpha_eps,
        "input_scale": list(network.input_scale),
        "encoders": encoders,
        "checksum": _payload_checksum(encoders),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    for key in ("format", "version", "n_options", "n_links", "alpha_eps",
                "input_scale", "encoders", "checksum"):
        if key not in doc:
            raise FormatError(f"{path}: missing field '{key}'")
    if doc["format"] != MODEL_FORMAT:
        raise FormatError(f"{path}: format is '{doc['format']}', expected '{MODEL_FORMAT}'")
    if doc["version"] != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported version {doc['version']}")
    if _payload_checksum(doc["encoders"]) != doc["checksum"]:
        raise IntegrityError(f"{path}: checksum mismatch, model payload corrupted")
    network = SamplingNetwork(
        link=_encoder_from_doc(doc["encoders"]["link"], path),
        program=_encoder_from_doc(doc["encoders"]["program"], path),
        ranking=_encoder_from_doc(doc["encoders"]["ranking"], path),
        n_options=int(doc["n_options"]),
        n_links=int(doc["n_links"]),
        alpha_eps=float(doc["alpha_eps"]),
        input_scale=tuple(doc["input_scale"]),
    )
    if network.ranking.widths[0] != network.n_options or network.ranking.widths[-1] != network.n_options:
        raise FormatError(f"{path}: ranking head does not match n_options")
    if network.program.widths[0] != network.n_links:
        raise FormatError(f"{path}: program encoder does not match n_links")
    return network
