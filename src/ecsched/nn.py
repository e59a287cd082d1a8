"""Minimal dense-network machinery: forward, reverse mode and Adam.

Everything operates on plain numpy arrays.  A network is a list of
(weight, bias) layers; hidden activations are ReLU6, the output layer
applies either the identity or ReLU6 plus a small positive floor.
Backward passes consume the caches produced by the forward pass, so a
training step is forward -> external loss gradient -> backward -> Adam.

Subgradient convention: ReLU6 has derivative zero at both kinks (0 and
6).

A forward layer step is one matmul over all rows, an in-place bias add
and, in hidden layers, one in-place clamp, so each layer allocates one
array, which is both its activation and the next layer's input.  The
backward cache keeps the layer inputs and the output layer's
preactivation only; without it, the hidden activations are dropped as
soon as the next layer has read them.

A BLAS may round the last rows of a matmul (its row count modulo its
kernel's row unroll; 4 in OpenBLAS 0.3.31) with another kernel, so a
row's last bit could depend on where it sits in a call.  Every matmul
here therefore takes a multiple of ROW_ALIGN rows: the input is
zero-padded up to one once, and the result and the cache are views of
their first rows.  At the link and program encoders' widths (at most 8
inputs per layer) a row then gives the same bytes in any call, so
callers may run only the rows that differ and expand the results by
index.  Not at every width: OpenBLAS 0.3.31 picks its kernel by matrix
size, and rounds 32 inputs apart in calls of 64 or 128 rows; no caller
deduplicates rows of such a layer.

The backward pass reads each hidden ReLU6 mask from the activation
relu6(z) instead of from z: relu6(z) lies strictly inside (0, 6) exactly
where z does, so the two masks are equal.  The clamp returns -0.0 and
NaN unchanged and maps -inf to 0 and +inf to 6, and none of these lies
inside (0, 6).
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


# every matmul takes a multiple of this many rows, a multiple of a BLAS
# kernel's row unroll
ROW_ALIGN = 64


def relu6(z, out=None):
    return np.clip(z, 0.0, 6.0, out=out)


def relu6_grad(z):
    """Boolean mask of where ReLU6 has slope 1; a product with it is the
    product with the 0/1 floats it stands for."""
    return (z > 0.0) & (z < 6.0)


@dataclass
class Mlp:
    """Dense layers with shared hidden activation.

    output: "identity" or "relu6_eps" (ReLU6 plus eps, keeps outputs
    strictly positive).
    """

    weights: list
    biases: list
    output: str = "identity"
    eps: float = 1e-6

    @property
    def widths(self):
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]


def init_mlp(widths, rng, output="identity", eps=1e-6):
    """Glorot-uniform weights, zero biases: W_ij ~ U(+-sqrt(6/(fi+fo)))."""
    if len(widths) < 2:
        raise ValueError("need an input and an output width")
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(weights=weights, biases=biases, output=output, eps=eps)


def mlp_forward(mlp, x, keep_cache=True):
    """Batched forward pass; x is (rows, widths[0]) and is not modified.

    Returns (y, cache) with cache = (inputs, z): inputs[i] is layer i's
    input (x, then the ReLU6 activations of the hidden layers) and z is
    the output layer's preactivation.  With keep_cache=False the cache is
    None.  Every matmul takes a multiple of ROW_ALIGN rows (see the
    module docstring).
    """
    if mlp.output not in ("identity", "relu6_eps"):
        raise ValueError(f"unknown output transform '{mlp.output}'")
    rows = x.shape[0]
    a = x
    if rows % ROW_ALIGN:
        a = np.concatenate([x, np.zeros((-rows % ROW_ALIGN, x.shape[1]))])
    inputs = [x]
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = np.matmul(a, w.T)
        z += b
        if i < last:
            a = relu6(z, out=z)
            if keep_cache:
                inputs.append(a[:rows])
    y = z if mlp.output == "identity" else relu6(z) + mlp.eps
    return y[:rows], ((inputs, z[:rows]) if keep_cache else None)


def mlp_backward(mlp, cache, dy):
    """Gradients from a forward cache.

    Hidden layer i's ReLU6 mask is read from its activation inputs[i+1],
    which equals the mask of its preactivation (see the module
    docstring); only a relu6_eps output reads the stored preactivation.
    Each hidden mask multiplies, in place, the product ``d @ W`` that this
    pass made, so neither dy nor the cache is written.  Returns (dx, grads)
    with grads a flat list [dW0, db0, dW1, db1, ...] matching
    parameters(mlp).
    """
    inputs, z = cache
    last = len(mlp.weights) - 1
    grads = [None] * (2 * len(mlp.weights))
    d = dy
    for i in range(last, -1, -1):
        if i < last:
            d *= relu6_grad(inputs[i + 1])
        elif mlp.output == "relu6_eps":
            d = d * relu6_grad(z)
        # identity output: d passes through
        grads[2 * i] = d.T @ inputs[i]
        grads[2 * i + 1] = d.sum(axis=0)
        d = d @ mlp.weights[i]
    return d, grads


def parameters(mlp):
    """Flat parameter list [W0, b0, W1, b1, ...]; arrays are live views."""
    out = []
    for w, b in zip(mlp.weights, mlp.biases):
        out.append(w)
        out.append(b)
    return out


# Adam's moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _views(flat, shapes):
    """Views of consecutive slices of flat, one per shape in order."""
    sizes = list(map(math.prod, shapes))
    ends = itertools.accumulate(sizes)
    return [flat[end - size:end].reshape(shape) for shape, size, end in zip(shapes, sizes, ends)]


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter.

    Both moments live in one zero-initialized (2, n) buffer, ``moments``,
    over the entries of parameters of the given shapes in order; m[i]
    and v[i] are views of parameter i's slice of its rows, shaped like
    the parameter.
    """

    shapes: tuple
    step: int = 0
    lr: float = 1e-4
    moments: np.ndarray = field(init=False, repr=False)
    m: list = field(init=False, repr=False)
    v: list = field(init=False, repr=False)

    def __post_init__(self):
        self.shapes = tuple(tuple(shape) for shape in self.shapes)
        self.moments = np.zeros((2, sum(map(math.prod, self.shapes))))
        self.m = _views(self.moments[0], self.shapes)
        self.v = _views(self.moments[1], self.shapes)

    @classmethod
    def for_params(cls, params, lr=1e-4):
        return cls(shapes=[p.shape for p in params], lr=lr)


def adam_step(state, params, grads):
    """One bias-corrected Adam update, applied to params in place.

    The gradients are concatenated once and the moment and step
    arithmetic runs once over all entries, elementwise as per parameter;
    only the step is split back onto the parameters.
    """
    shapes = tuple(p.shape for p in params)
    if shapes != state.shapes:
        raise ValueError("params do not match the optimizer state")
    if tuple(g.shape for g in grads) != shapes:
        raise ValueError("every gradient needs its parameter's shape")
    state.step += 1
    b1c = 1.0 - ADAM_BETA1 ** state.step
    b2c = 1.0 - ADAM_BETA2 ** state.step
    g = np.concatenate([grad.reshape(-1) for grad in grads])
    m, v = state.moments
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    step = state.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
    for p, d in zip(params, _views(step, shapes)):
        p -= d
    return params, state
