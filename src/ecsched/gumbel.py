"""Row-wise concrete (Gumbel-Softmax) and categorical samplers.

Every sampler works on an (R, P) block of location parameters, one row
per (slot, user, type) block, with a boolean mask of the row's valid
categories.  A concrete sample of a row with location parameters
alpha > 0 and temperature tau > 0 is

    x_k = exp((log alpha_k + G_k) / tau) / sum_j exp((log alpha_j + G_j) / tau)

with iid standard Gumbel noise G = -log(-log U).  Uniform draws are
clamped to [1e-12, 1 - 1e-12] before the double log, and the softmax
subtracts the row maximum before exponentiating, so samples are finite
for any tau >= 0.01 and alpha within [1e-6, 1e6].

Rounding a sample to its largest coordinate recovers an exact categorical
draw with probabilities alpha / ||alpha||_1, at any temperature;
``categorical_rows`` draws that law directly, with one uniform per row
per draw.  Excluded categories are masked by adding -1e9 to their
logit, which leaves them with zero probability mass.
"""

import numpy as np

U_CLAMP = 1e-12
MASK_LOGIT = -1e9


def sample_gumbel(rng, size=None):
    """Standard Gumbel draws via the clamped inverse CDF."""
    u = np.clip(rng.uniform(size=size), U_CLAMP, 1.0 - U_CLAMP)
    return -np.log(-np.log(u))


def concrete_rows_given(alpha, valid, tau, g):
    """Row-wise masked concrete transform for pre-drawn Gumbel noise g.

    alpha, valid: (R, P); every row needs at least one valid entry with
    alpha > 0 there.  g is (R, P) or carries leading draw axes, (..., R,
    P); the transform runs along the last axis.  Masked entries get -1e9
    added to their logit.  Returns x of g's shape whose rows sum to 1
    with zeros on masked entries.
    """
    if tau <= 0:
        raise ValueError("temperature must be positive")
    if not valid.any(axis=-1).all():
        raise ValueError("every row needs at least one valid category")
    safe = np.log(np.maximum(alpha, np.finfo(float).tiny))
    logits = (np.where(valid, safe, MASK_LOGIT) + g) / tau
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    np.copyto(e, 0.0, where=~valid)
    return e / e.sum(axis=-1, keepdims=True)


def concrete_rows_grad(alpha, valid, tau, x, dx):
    """Adjoint of concrete_rows_given in alpha, for fixed noise.

    x: the (R, P) transform of alpha, dx: d loss / d x.  Returns d loss /
    d alpha, (R, P): the softmax Jacobian per row, then the chain rule
    through log alpha / tau; masked entries get exactly 0 and are never
    divided, so a masked alpha of 0 is accepted.
    """
    dlogits = x * (dx - (x * dx).sum(axis=-1, keepdims=True))
    return np.divide(dlogits, tau * alpha, out=np.zeros_like(dlogits), where=valid)


def concrete_rows(alpha, valid, tau, rng, n_draws=None):
    """Row-wise masked concrete samples.

    Gumbel noise is drawn for the full (R, P) block in one call
    (row-major).  With n_draws = S the (S, R, P) block is drawn in one
    call (draw-major, so it equals S single draws in a row) and x is
    (S, R, P).  Returns (x, gumbels); see concrete_rows_given for the
    transform itself.
    """
    g = sample_gumbel(rng, alpha.shape if n_draws is None else (n_draws, *alpha.shape))
    return concrete_rows_given(alpha, valid, tau, g), g


def categorical_rows(alpha, valid, rng, n_draws):
    """Row-wise masked categorical draws; one uniform per row per draw.

    The (S, R) uniform block of S = n_draws draws is drawn in one call
    (draw-major, so it equals S single draws in a row) against one
    masked cumsum, and the result is (S, R).  Never returns an excluded
    index: masked entries carry zero mass and the rare boundary draw is
    snapped to the first valid category.
    """
    if not valid.any(axis=1).all():
        raise ValueError("every row needs at least one valid category")
    n_rows, n_cats = alpha.shape
    size = (n_draws, n_rows)
    cum = np.cumsum(np.where(valid, alpha, 0.0), axis=1)
    r = rng.uniform(size=size) * cum[:, -1]
    # count cum < r one category at a time, with no (S, R, P) temporary,
    # in the narrowest unsigned dtype that holds the count n_cats
    count = np.zeros(size, dtype=np.min_scalar_type(n_cats))
    for column in np.ascontiguousarray(cum.T):
        count += column < r
    idx = np.minimum(count, n_cats - 1, out=count).astype(int)
    bad = ~valid[np.arange(n_rows), idx]
    if bad.any():
        idx[bad] = np.argmax(valid, axis=1)[np.nonzero(bad)[-1]]
    return idx
