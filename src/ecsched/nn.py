"""Minimal dense-network machinery: forward, reverse mode and Adam.

Everything operates on plain numpy arrays.  A network is a list of
(weight, bias) layers; hidden activations are ReLU6, the output layer
applies either the identity or ReLU6 plus a small positive floor.
Backward passes consume the caches produced by the forward pass, so a
training step is forward -> external loss gradient -> backward -> Adam.

Subgradient convention: ReLU6 has derivative zero at both kinks (0 and
6).
"""

from dataclasses import dataclass

import numpy as np


def relu6(z):
    return np.minimum(np.maximum(z, 0.0), 6.0)


def relu6_grad(z):
    return ((z > 0.0) & (z < 6.0)).astype(float)


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


def mlp_forward(mlp, x):
    """Batched forward pass; x is (rows, widths[0]).

    Returns (y, cache) where the cache holds each layer's input and
    preactivation for the backward pass.
    """
    inputs, preacts = [], []
    a = x
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inputs.append(a)
        z = a @ w.T + b
        preacts.append(z)
        if i < last:
            a = relu6(z)
        elif mlp.output == "identity":
            a = z
        elif mlp.output == "relu6_eps":
            a = relu6(z) + mlp.eps
        else:
            raise ValueError(f"unknown output transform '{mlp.output}'")
    return a, (inputs, preacts)


def mlp_backward(mlp, cache, dy):
    """Gradients from a forward cache.

    Returns (dx, grads) with grads a flat list [dW0, db0, dW1, db1, ...]
    matching parameters(mlp).
    """
    inputs, preacts = cache
    last = len(mlp.weights) - 1
    grads = [None] * (2 * len(mlp.weights))
    d = dy
    for i in range(last, -1, -1):
        z = preacts[i]
        if i < last or mlp.output == "relu6_eps":
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


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    m: list
    v: list
    step: int = 0
    lr: float = 1e-4

    @classmethod
    def for_params(cls, params, lr=1e-4):
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params], lr=lr)


def adam_step(state, params, grads):
    """One bias-corrected Adam update, applied to params in place."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("params/grads do not match the optimizer state")
    state.step += 1
    b1c = 1.0 - ADAM_BETA1 ** state.step
    b2c = 1.0 - ADAM_BETA2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
    return params, state
