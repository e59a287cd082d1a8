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
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import gumbel
from .io import FormatError, load_json, need_array, write_json
from .model import (SoftAllocation, best_feasible, build_option_table, evaluate_hard,
                    soft_loss, soft_loss_and_grad)
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
    """Network input of one instance: the index of its distinct rows, and
    its full feature matrix, expanded from them on first use.

    matrix: (T*N*K*P*EL, 4) with row EL*p + j inside each block, columns
    [option weight * inbound demand, option weight * outbound demand,
    basic cap, billable cap]; valid: (T*N*K, P) marking real options.
    Padded option rows keep the capacity columns (they describe links,
    not options) and have zero traffic columns.  Only ``every_row``, the
    input of the full-row reference forward (``forward_alpha`` with
    keep_cache=True), reads matrix.

    A link row whose option weight is 0 equals the capacity-only row of
    its (user, link), and every padded option of a user reads that
    user's EL capacity-only rows, so the inference forward and the
    descent step run their link and program encoders on distinct rows
    only:

    * link_rows: the N*EL capacity-only rows (user major, traffic columns
      +0.0), then the rows of matrix whose option weight is nonzero, in
      matrix order;
    * program_links: (rows, EL) indexes into link_rows: one capacity-only
      row per user, then the rows of the valid options, slot by slot in
      block order;
    * program_index: (T*N*K*P,) the program row of every option.

    Each row gives the same bytes in the distinct-row forward as in the
    full one, since ``nn.mlp_forward`` rounds a row alike wherever it
    sits in a call.
    """

    valid: np.ndarray
    dims: tuple
    n_links: int
    link_rows: np.ndarray
    program_links: np.ndarray
    program_index: np.ndarray

    @property
    def n_options(self):
        return self.valid.shape[1]

    @cached_property
    def matrix(self):
        # np.take, as fancy indexing gathers these rows about 6x slower
        links = np.take(self.program_links, self.program_index, axis=0)
        return np.take(self.link_rows, links.reshape(-1), axis=0)

    def every_row(self):
        """The same input with every row of ``matrix`` distinct: link_rows
        is the matrix and both indexes count up, so a forward over it
        runs every row."""
        options = len(self.valid) * self.n_options
        return replace(self, link_rows=self.matrix, program_index=np.arange(options),
                       program_links=np.arange(options * self.n_links).reshape(-1, self.n_links))


@dataclass(frozen=True)
class AlphaMatrix:
    """Location parameters per block, alongside the valid-option mask."""

    values: np.ndarray  # (T*N*K, P), strictly positive
    valid: np.ndarray   # (T*N*K, P) bool
    dims: tuple         # (T, N, K)


@dataclass
class SamplingNetwork:
    """The three encoders; their widths fix the sizes the network serves."""

    link: Mlp
    program: Mlp
    ranking: Mlp
    input_scale: tuple = INPUT_SCALE

    @property
    def n_options(self):
        return self.ranking.widths[0]

    @property
    def n_links(self):
        return self.program.widths[0]

    @property
    def alpha_eps(self):
        """Floor added to every location parameter."""
        return self.ranking.eps


def create_network(n_links=4, seed=0):
    """Fresh network for blocks of n_links links, so 2**n_links - 1 options;
    encoders initialized in order link, program, ranking."""
    n_options = 2 ** n_links - 1
    rng = np.random.default_rng(seed)
    link = init_mlp([4, 8, 8, 8, 1], rng, output="identity")
    program = init_mlp([n_links, 8, 8, 8, 1], rng, output="identity")
    ranking = init_mlp([n_options, 32, 16, 8, 16, 32, n_options], rng,
                       output="relu6_eps", eps=1e-6)
    return SamplingNetwork(link=link, program=program, ranking=ranking)


def preprocess(instance, table=None):
    """Index the distinct network input rows of an instance (see
    ``NetworkInput``); the full feature matrix waits for its first use."""
    if table is None:
        table = build_option_table(instance.topology)
    topo = instance.topology
    t, n, k = instance.dims
    p, el = table.n_options, topo.n_isps
    real = table.valid.transpose(1, 0, 2)  # (N, K, P)
    valid = np.broadcast_to(real[None], (t, n, k, p)).reshape(-1, p)
    carries = table.weights.transpose(1, 0, 2, 3) > 0  # (N, K, P, EL)
    n_carry, n_real = int(carries.sum()), int(real.sum())

    # each list is written in place, since a fresh large temporary costs
    # its page faults again on every call
    link_rows = np.zeros((n * el + t * n_carry, 4))
    capacity = link_rows[:n * el].reshape(n, el, 4)
    capacity[..., 2] = topo.edge_cap_basic
    capacity[..., 3] = topo.edge_cap_billable
    users, types, _, links = carries.nonzero()
    weighted = link_rows[n * el:].reshape(t, n_carry, 4)
    weighted[:] = capacity[users, links]
    weights = table.weights.transpose(1, 0, 2, 3)[carries]
    for col, demand in enumerate((instance.demands.inbound, instance.demands.outbound)):
        np.multiply(weights, demand[types, users].T, out=weighted[..., col])

    # each position's distinct row in slot 0; slot s moves a weighted link
    # row by s*n_carry and a valid option row by s*n_real
    slots = np.arange(t)
    link0 = np.where(carries, n * el + np.cumsum(carries).reshape(carries.shape) - 1,
                     np.arange(n * el).reshape(n, 1, 1, el))
    program_links = np.empty((n + t * n_real, el), dtype=np.intp)
    program_links[:n] = np.arange(n * el).reshape(n, el)
    options = program_links[n:].reshape(t, n_real, el)
    np.multiply(slots[:, None, None], n_carry * carries[real], out=options)
    options += link0[real]
    program_index = np.multiply.outer(slots, n_real * real)
    program_index += np.where(real, n + np.cumsum(real).reshape(real.shape) - 1,
                              np.arange(n)[:, None, None])
    return NetworkInput(valid=np.ascontiguousarray(valid),
                        dims=(t, n, k), n_links=el, link_rows=link_rows,
                        program_links=program_links,
                        program_index=program_index.reshape(-1))


def forward_alpha(network, inp, keep_cache=True):
    """Location parameters for every block; returns (AlphaMatrix, caches).

    The link and program encoders run the distinct rows of inp (see
    ``_distinct_forward``), and with keep_cache=False caches is None.
    With keep_cache=True they run every row, as the distinct rows of
    ``inp.every_row()``, and caches holds the link, program and ranking
    forward caches of all those rows.  That full-row forward is the
    reference that the tests compare the distinct-row descent step
    against, and the benchmark harness pins its link row count at all
    of the rows.  The alpha is the same, bit for bit, either way, as
    ``nn.mlp_forward`` gives a row the same bytes wherever it sits in a
    call.
    """
    return _distinct_forward(network, inp.every_row() if keep_cache else inp, keep_cache)


def _distinct_forward(network, inp, keep_cache):
    """``forward_alpha`` with the link and program encoders on the
    distinct rows of inp, their scores expanded back by index.  The link
    rows are scaled by the model's input_scale here, in one array of the
    distinct rows only.  caches holds the forward caches of those
    distinct rows and of every block's ranking row, or is None without
    keep_cache."""
    _check_fit(network, inp)
    s, link_cache = mlp_forward(network.link, inp.link_rows * np.asarray(network.input_scale),
                                keep_cache=keep_cache)
    # np.take, as fancy indexing gathers these scores about 3x slower
    v, program_cache = mlp_forward(network.program, np.take(s.reshape(-1), inp.program_links),
                                   keep_cache=keep_cache)
    blocks = np.take(v.reshape(-1), inp.program_index).reshape(-1, network.n_options)
    a, ranking_cache = mlp_forward(network.ranking, blocks, keep_cache=keep_cache)
    alpha = AlphaMatrix(values=a, valid=inp.valid, dims=inp.dims)
    return alpha, ((link_cache, program_cache, ranking_cache) if keep_cache else None)


def _check_fit(network, inp):
    if inp.n_links != network.n_links:
        raise ValueError(f"input has {inp.n_links} links per user, network expects {network.n_links}")
    if inp.n_options != network.n_options:
        raise ValueError(f"input has {inp.n_options} options per block, network expects {network.n_options}")


def network_parameters(network):
    """Flat live parameter list: link, then program, then ranking."""
    return parameters(network.link) + parameters(network.program) + parameters(network.ranking)


def loss_grads_with_noise(network, instance, table, inp, tau, lam_g, gumbels):
    """Sampled penalized cost and its parameter gradient for fixed noise.

    With the Gumbel block pinned, the loss is a deterministic piecewise
    smooth function of the parameters.  Returns (loss, grads) with grads
    ordered link, program, ranking.

    The step runs the link and program encoders on the distinct rows of
    ``inp``.  Once the activations are fixed a backward is linear in its
    output gradient, and equal rows have equal activations, so each
    distinct row backprops the sum of its positions' gradients.
    """
    alpha, (c1, c2, c3) = _distinct_forward(network, inp, keep_cache=True)
    x_rows = gumbel.concrete_rows_given(alpha.values, alpha.valid, tau, gumbels)
    loss, dx = soft_loss_and_grad(instance, table, x_rows.reshape(*alpha.dims, -1), lam_g)
    dalpha = gumbel.concrete_rows_grad(alpha.values, alpha.valid, tau, x_rows,
                                       dx.reshape(x_rows.shape))
    dv_rows, g_rank = mlp_backward(network.ranking, c3, dalpha)
    dv = np.bincount(inp.program_index, weights=dv_rows.reshape(-1),
                     minlength=len(inp.program_links))
    ds, g_prog = mlp_backward(network.program, c2, dv[:, None])
    dl = np.bincount(inp.program_links.reshape(-1), weights=ds.reshape(-1),
                     minlength=len(inp.link_rows))
    _, g_link = mlp_backward(network.link, c1, dl[:, None])
    return loss, g_link + g_prog + g_rank


@dataclass(frozen=True)
class TrainConfig:
    n_epochs: int = 100
    tau_start: float = 2.0
    tau_end: float = 0.31
    learning_rate: float = 1e-4
    lam_g: float = 1.0
    seed: int = 0
    # samples per instance for the recorded loss curves; single sampled
    # losses swing too much at small sizes for curves to be comparable
    metric_samples: int = 8

    def __post_init__(self):
        if not (self.n_epochs >= 1 and self.metric_samples >= 1 and self.seed >= 0):
            raise ValueError("n_epochs and metric_samples must be at least 1, seed at least 0")
        if not all(0 < v < math.inf for v in (self.tau_start, self.tau_end, self.learning_rate)):
            raise ValueError("tau_start, tau_end and learning_rate must be finite and positive")
        if not 0 <= self.lam_g < math.inf:
            raise ValueError("lam_g must be finite and nonnegative")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    tau: float
    train_loss: float
    eval_loss: float


def anneal_tau(epoch, config):
    """Linear schedule, hitting tau_end exactly at the last epoch."""
    frac = epoch / config.n_epochs
    return (1.0 - frac) * config.tau_start + frac * config.tau_end


def _mean_sampled_loss(network, dataset, tau, config, rng):
    """Mean soft loss over metric_samples concrete draws per instance.

    Per instance: one uncached forward, one ``gumbel.concrete_rows``
    block of metric_samples draws and one ``soft_loss`` call pricing the
    stack, whose losses equal those of single calls.
    """
    vals = []
    for inst, table, inp in dataset:
        alpha, _ = forward_alpha(network, inp, keep_cache=False)
        x, _ = gumbel.concrete_rows(alpha.values, alpha.valid, tau, rng, config.metric_samples)
        stack = SoftAllocation(x=x.reshape(config.metric_samples, *alpha.dims, -1))
        vals.extend(soft_loss(inst, stack, config.lam_g, table=table))
    return float(np.mean(vals))


def train(network, instances, config, eval_instances=()):
    """Anneal-and-descend loop; mutates the network's parameters.

    Per epoch, every training instance contributes one sampled-loss
    gradient step (batch size 1).  The recorded curves are computed
    after the epoch's updates with one shared protocol for both sets
    (metric_samples concrete draws per instance at the epoch's
    temperature, drawn from a separate stream), so the train and
    held-out numbers are directly comparable and a fixed config
    reproduces the history bit for bit.  That pass prices each
    instance's draws in one call (see ``_mean_sampled_loss``).  Each
    epoch's losses are measured at that epoch's tau, and a fixed
    network's loss moves with tau (on the desk set it grows as tau
    falls), so rows at different tau are not a learning curve; compare
    against another network at the same tau instead.  Raises ValueError,
    before any update, if there is no training instance or an instance
    does not have network.n_links ISPs; raises TrainingDiverged if a
    descent loss goes non-finite.
    """
    data, held = [], []
    for group, dataset in ((instances, data), (eval_instances, held)):
        for inst in group:
            if inst.topology.n_isps != network.n_links:
                raise ValueError(f"instance {inst.instance_id} has {inst.topology.n_isps} ISPs, "
                                 f"the network expects {network.n_links}")
            table = build_option_table(inst.topology)
            dataset.append((inst, table, preprocess(inst, table)))
    if not data:
        raise ValueError("training needs at least one instance")

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
    """n_samples hard draws from one forward pass, drawn as one
    ``gumbel.categorical_rows`` block; ``best_feasible`` of them."""
    if table is None:
        table = build_option_table(instance.topology)
    alpha, _ = forward_alpha(network, preprocess(instance, table), keep_cache=False)
    options = gumbel.categorical_rows(alpha.values, alpha.valid, rng, n_samples)
    options = options.reshape(n_samples, *alpha.dims)
    return best_feasible(options, evaluate_hard(instance, table, options))


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


def _encoder_from_doc(encoders, name, path):
    """The named encoder of a model file, or a FormatError naming it."""
    where = f"{name} encoder of {path}"
    try:
        doc = encoders[name]
        widths, layers, output = list(doc["widths"]), list(doc["layers"]), doc["output"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{where}: malformed encoder block ({exc})") from exc
    if output not in ("identity", "relu6_eps"):
        raise FormatError(f"{where}: unknown output transform {output!r}")
    mlp = Mlp(weights=[need_array(layer, "w", f"layer {i} of {where}", shape=(None, None))
                       for i, layer in enumerate(layers)],
              biases=[need_array(layer, "b", f"layer {i} of {where}", shape=(None,))
                      for i, layer in enumerate(layers)],
              output=output, eps=float(need_array(doc, "eps", where, shape=())))
    shapes = [(w.shape, b.shape) for w, b in zip(mlp.weights, mlp.biases)]
    if not layers or shapes != [((o, i), (o,)) for i, o in zip(widths, widths[1:])]:
        raise FormatError(f"{where}: layer shapes disagree with declared widths")
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
    write_json(path, {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "n_options": network.n_options,
        "n_links": network.n_links,
        "alpha_eps": network.alpha_eps,
        "input_scale": list(network.input_scale),
        "encoders": encoders,
        "checksum": _payload_checksum(encoders),
    })


def load_model(path):
    doc = load_json(path, MODEL_FORMAT, MODEL_VERSION)
    for key in ("n_options", "n_links", "alpha_eps", "input_scale", "encoders", "checksum"):
        if key not in doc:
            raise FormatError(f"{path}: missing field '{key}'")
    if _payload_checksum(doc["encoders"]) != doc["checksum"]:
        raise IntegrityError(f"{path}: checksum mismatch, model payload corrupted")
    network = SamplingNetwork(
        **{name: _encoder_from_doc(doc["encoders"], name, path)
           for name in ("link", "program", "ranking")},
        input_scale=tuple(need_array(doc, "input_scale", path, shape=(None,)).tolist()),
    )
    # the sizes are read from the encoders; a file whose stated sizes
    # disagree with them is inconsistent, and so is a ranking head that
    # does not take one option per nonempty subset of the links
    if not doc["n_options"] == network.n_options == network.ranking.widths[-1] == 2 ** network.n_links - 1:
        raise FormatError(f"{path}: ranking head does not match n_options = 2**n_links - 1")
    if doc["n_links"] != network.n_links:
        raise FormatError(f"{path}: program encoder does not match n_links")
    if doc["alpha_eps"] != network.alpha_eps:
        raise FormatError(f"{path}: ranking head floor does not match alpha_eps")
    # the floor keeps every location parameter strictly positive
    if network.ranking.output != "relu6_eps" or not network.alpha_eps > 0:
        raise FormatError(f"ranking encoder of {path}: needs output relu6_eps, eps > 0")
    # preprocess writes one feature column per INPUT_SCALE entry, and the
    # link and program encoders each emit one score per row
    n_features = len(INPUT_SCALE)
    if not network.link.widths[0] == len(network.input_scale) == n_features:
        raise FormatError(f"{path}: link encoder and input_scale must both take "
                          f"{n_features} features")
    if network.link.widths[-1] != 1:
        raise FormatError(f"{path}: link encoder must emit one score per link")
    if network.program.widths[-1] != 1:
        raise FormatError(f"{path}: program encoder must emit one score per option")
    return network
