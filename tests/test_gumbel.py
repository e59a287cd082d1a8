"""Sampling primitives: transform identities, limit laws, masking."""

import numpy as np
import pytest
from scipy import stats

import oracles
from ecsched import gumbel


class FixedUniform:
    """Stands in for a Generator and hands out pre-chosen uniform draws in order."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float).ravel()
        self._used = 0

    def uniform(self, size=None):
        n = 1 if size is None else int(np.prod(size))
        out = self._values[self._used:self._used + n]
        self._used += n
        return float(out[0]) if size is None else out.reshape(size)


def concrete_row(alpha, tau, rng):
    """One concrete sample of a single all-valid row."""
    alpha = np.asarray(alpha, dtype=float)[None]
    x, _ = gumbel.concrete_rows(alpha, np.ones(alpha.shape, dtype=bool), tau, rng)
    return x[0]


def test_transform_fixed_point():
    # u = 1/e collapses both logs: -log(-log(1/e)) = 0
    g = gumbel.sample_gumbel(FixedUniform(np.exp(-1.0)))
    assert g == pytest.approx(0.0, abs=1e-12)


def test_transform_monotone_in_u():
    u = np.linspace(0.01, 0.99, 99)
    g = gumbel.sample_gumbel(FixedUniform(u), size=99)
    assert (np.diff(g) > 0).all()


def test_extreme_uniforms_stay_finite():
    g = gumbel.sample_gumbel(FixedUniform(np.array([0.0, 1.0])), size=2)
    assert np.isfinite(g).all()


def test_gumbel_mean_is_euler_mascheroni():
    g = gumbel.sample_gumbel(np.random.default_rng(0), size=1_000_000)
    assert abs(g.mean() - 0.5772156649) < 0.01


def test_single_category_is_degenerate():
    x = concrete_row([3.0], 0.5, np.random.default_rng(1))
    assert x.shape == (1,)
    assert x[0] == pytest.approx(1.0)


def test_samples_live_on_the_simplex():
    rng = np.random.default_rng(2)
    for _ in range(200):
        alpha = rng.uniform(0.1, 5.0, size=int(rng.integers(2, 8)))
        x = concrete_row(alpha, float(rng.uniform(0.05, 3.0)), rng)
        assert (x >= 0).all()
        assert abs(x.sum() - 1.0) < 1e-12


def test_high_temperature_flattens():
    rng = np.random.default_rng(3)
    xs = np.array([concrete_row([1.0, 1.0], 100.0, rng)
                   for _ in range(1000)])
    assert np.allclose(xs.mean(axis=0), [0.5, 0.5], atol=0.01)


def test_rounding_law_chi_square():
    # rounded samples follow alpha / ||alpha||_1 regardless of temperature
    alpha = np.array([1.0, 2.0, 3.0, 4.0])
    rng = np.random.default_rng(4)
    n = 20_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[np.argmax(concrete_row(alpha, 0.5, rng))] += 1
    expected = alpha / alpha.sum() * n
    assert stats.chisquare(counts, expected).pvalue > 0.001


def test_categorical_rows_frequencies():
    alpha = np.array([1.0, 2.0, 3.0, 4.0])
    n = 200_000
    idx = gumbel.categorical_rows(np.tile(alpha, (n, 1)), np.ones((n, 4), dtype=bool),
                                  np.random.default_rng(6), 1)[0]
    freq = np.bincount(idx, minlength=4) / n
    assert np.abs(freq - alpha / alpha.sum()).max() < 0.01


def test_categorical_block_equals_sequential_draws():
    rng = np.random.default_rng(15)
    alpha = rng.uniform(0.5, 2.0, size=(40, 6))
    valid = rng.random((40, 6)) > 0.4
    valid[:, 4] = True
    valid[0] = [False, False, True, False, True, True]
    valid[1] = [False, True, False, True, True, False]
    u = np.random.default_rng(16).uniform(size=(7, 40))
    # r = 0 lands on the boundary cum[0] = 0 of a masked first option,
    # so both draws take the snap to the row's first valid option
    u[2, 0] = u[4, 1] = 0.0
    block = gumbel.categorical_rows(alpha, valid, FixedUniform(u), 7)
    stream = FixedUniform(u)
    single = [gumbel.categorical_rows(alpha, valid, stream, 1)[0] for _ in range(7)]
    assert block.shape == (7, 40)
    assert np.array_equal(block, np.stack(single))
    assert block[2, 0] == 2 and block[4, 1] == 1
    assert valid[np.arange(40), block].all()

    block = gumbel.categorical_rows(alpha, valid, np.random.default_rng(17), 50)
    stream = np.random.default_rng(17)
    single = [gumbel.categorical_rows(alpha, valid, stream, 1)[0] for _ in range(50)]
    assert np.array_equal(block, np.stack(single))


@pytest.mark.parametrize("n_cats", [4, 255, 256, 1023])
def test_categorical_counts_match_a_search_at_every_count_width(n_cats):
    # the counter is uint8 up to 255 categories and uint16 from 256 on
    rng = np.random.default_rng(n_cats)
    alpha = rng.uniform(0.5, 2.0, size=(30, n_cats))
    valid = rng.random((30, n_cats)) > 0.3
    valid[:, -1] = True
    u = rng.uniform(size=(3, 30))
    idx = gumbel.categorical_rows(alpha, valid, FixedUniform(u), 3)
    assert idx.dtype == np.dtype(int)
    cum = np.cumsum(np.where(valid, alpha, 0.0), axis=1)
    for draw, row in np.ndindex(idx.shape):
        want = min(np.searchsorted(cum[row], u[draw, row] * cum[row, -1]), n_cats - 1)
        if not valid[row, want]:
            want = np.argmax(valid[row])
        assert idx[draw, row] == want


def test_near_zero_temperature_matches_categorical():
    alpha = np.array([1.0, 2.0, 3.0, 4.0])
    n = 100_000
    x, _ = gumbel.concrete_rows(np.tile(alpha, (n, 1)), np.ones((n, 4), dtype=bool),
                                0.01, np.random.default_rng(7))
    hard = np.bincount(np.argmax(x, axis=1), minlength=4) / n
    idx = gumbel.categorical_rows(np.tile(alpha, (n, 1)), np.ones((n, 4), dtype=bool),
                                  np.random.default_rng(8), 1)[0]
    cat = np.bincount(idx, minlength=4) / n
    assert 0.5 * np.abs(hard - cat).sum() <= 0.02


def test_saturation_fraction_follows_margin_law():
    # the share of samples with max coordinate >= 0.999 sits inside the
    # closed-form bracket at each tau, and tau=0.01's band excludes half
    # and double that temperature
    alpha = np.array([1.0, 2.0, 3.0, 4.0])
    n = 10_000

    def band(tau):
        return oracles.saturation_band(alpha, tau, 0.999, n)[1]

    gate = band(0.01)
    for tau in (0.005, 0.01, 0.02, 0.05):
        x, _ = gumbel.concrete_rows(np.tile(alpha, (n, 1)), np.ones((n, 4), dtype=bool),
                                    tau, np.random.default_rng(10))
        frac = float((x.max(axis=1) >= 0.999).mean())
        lo, hi = band(tau)
        assert lo <= frac <= hi
        assert (gate[0] <= frac <= gate[1]) == (tau == 0.01)


def test_scale_invariance():
    alpha = np.array([0.3, 1.7, 2.2])
    x1 = concrete_row(alpha, 0.7, np.random.default_rng(9))
    x2 = concrete_row(1000.0 * alpha, 0.7, np.random.default_rng(9))
    np.testing.assert_allclose(x1, x2, atol=1e-12)


def test_masked_categorical_never_leaks():
    valid = np.array([True, False, True, False])
    n = 1_000_000
    idx = gumbel.categorical_rows(np.tile([1.0, 2.0, 3.0, 4.0], (n, 1)),
                                  np.tile(valid, (n, 1)), np.random.default_rng(10), 1)[0]
    assert set(np.unique(idx).tolist()) <= {0, 2}


def test_masked_concrete_rows_zero_mass():
    rng = np.random.default_rng(11)
    alpha = rng.uniform(0.5, 2.0, size=(1000, 5))
    valid = rng.random((1000, 5)) > 0.4
    valid[:, 2] = True
    x, g = gumbel.concrete_rows(alpha, valid, 0.5, rng)
    assert g.shape == alpha.shape
    assert (x[~valid] == 0.0).all()
    assert np.abs(x.sum(axis=1) - 1.0).max() < 1e-12
    assert valid[np.arange(1000), np.argmax(x, axis=1)].all()


def test_concrete_rows_given_is_the_same_transform():
    rng = np.random.default_rng(12)
    alpha = rng.uniform(0.5, 2.0, size=(64, 7))
    valid = rng.random((64, 7)) > 0.3
    valid[:, 0] = True
    x1, g = gumbel.concrete_rows(alpha, valid, 0.9, np.random.default_rng(13))
    x2 = gumbel.concrete_rows_given(alpha, valid, 0.9, g)
    assert np.array_equal(x1, x2)


def test_concrete_block_equals_sequential_draws():
    rng = np.random.default_rng(18)
    alpha = rng.uniform(0.5, 2.0, size=(30, 9))
    valid = rng.random((30, 9)) > 0.4
    valid[:, 3] = True
    x, g = gumbel.concrete_rows(alpha, valid, 0.7, np.random.default_rng(19), 6)
    assert x.shape == g.shape == (6, 30, 9)
    stream = np.random.default_rng(19)
    for s in range(6):
        x1, g1 = gumbel.concrete_rows(alpha, valid, 0.7, stream)
        assert np.array_equal(g[s], g1)
        assert np.array_equal(x[s], x1)
    assert np.array_equal(gumbel.concrete_rows_given(alpha, valid, 0.7, g), x)
    assert (x[:, ~valid] == 0.0).all()


def test_concrete_rows_grad_matches_central_differences():
    # L(alpha) = sum(c * x(alpha)) for fixed noise, so dL/dx = c
    rng = np.random.default_rng(21)
    alpha = rng.uniform(0.5, 2.0, size=(12, 7))
    valid = rng.random((12, 7)) > 0.4
    valid[:, 1] = True
    g, c, tau = gumbel.sample_gumbel(rng, alpha.shape), rng.normal(size=alpha.shape), 0.8
    # masked entries never enter x, so a masked alpha of 0 is a valid input
    # and must not be divided by
    for block in (alpha, np.where(valid, alpha, 0.0)):
        x = gumbel.concrete_rows_given(block, valid, tau, g)
        grad = gumbel.concrete_rows_grad(block, valid, tau, x, c)
        assert not grad[~valid].view(np.uint64).any()  # +0.0, byte for byte
        h = 1e-6
        for r, p in np.argwhere(valid):
            up, down = block.copy(), block.copy()
            up[r, p] += h
            down[r, p] -= h
            numeric = (c * (gumbel.concrete_rows_given(up, valid, tau, g)
                            - gumbel.concrete_rows_given(down, valid, tau, g))).sum() / (2 * h)
            assert abs(grad[r, p] - numeric) <= 1e-7 * max(1.0, abs(numeric))


def test_rejects_bad_inputs():
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError):
        concrete_row([1.0, 2.0], 0.0, rng)
    bad_valid = np.array([[True, True], [False, False]])
    with pytest.raises(ValueError):
        gumbel.concrete_rows(np.ones((2, 2)), bad_valid, 0.5, rng)
    with pytest.raises(ValueError):
        gumbel.categorical_rows(np.ones((2, 2)), bad_valid, rng, 1)
    with pytest.raises(ValueError):
        gumbel.concrete_rows_given(np.ones((2, 2)), bad_valid, 0.5, np.zeros((2, 2)))
