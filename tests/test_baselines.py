"""Uniform sampling policy and exhaustive search."""

import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.stats

import oracles
from conftest import hopeless_instance, make_tiny
from ecsched import _kernels
from ecsched.baselines import (BudgetExceededError, brute_force,
                               combination_count, rsn_best_of_detailed,
                               rsn_options)
from ecsched.generate import GenConfig, generate_instance
from ecsched.model import (build_option_table, check_feasibility,
                           evaluate_hard, total_cost)


def test_uniform_over_three_options():
    inst = make_tiny(0, n_users=1, n_slots=1, n_types=1, n_isps=2)
    table = build_option_table(inst.topology)
    assert table.n_valid[0, 0] == 3
    rng = np.random.default_rng(0)
    counts = np.bincount(rsn_options(inst, table, 100000, rng)[:, 0, 0, 0], minlength=3)
    np.testing.assert_allclose(counts / counts.sum(), [1 / 3] * 3, atol=0.01)


def test_draws_always_encoding_valid():
    inst = make_tiny(1, n_users=2, n_slots=3, n_types=3, n_isps=3,
                     full_admissible=False)
    table = build_option_table(inst.topology)
    rng = np.random.default_rng(1)
    t, n, k = inst.dims
    limit = np.broadcast_to(table.n_valid.T[None], (t, n, k))
    opt = rsn_options(inst, table, 2000, rng)
    assert opt.shape == (2000, t, n, k)
    assert (opt >= 0).all() and (opt < limit).all()


def test_block_marginals_are_uniform():
    inst = make_tiny(2, n_users=2, n_slots=2, n_types=2, n_isps=3,
                     full_admissible=False)
    table = build_option_table(inst.topology)
    rng = np.random.default_rng(2)
    t, n, k = inst.dims
    draws = rsn_options(inst, table, 20000, rng)
    for ti in range(t):
        for ni in range(n):
            for ki in range(k):
                nv = int(table.n_valid[ki, ni])
                if nv == 1:
                    continue
                freq = np.bincount(draws[:, ti, ni, ki], minlength=nv)
                p = scipy.stats.chisquare(freq).pvalue
                assert p > 0.001, (ti, ni, ki, freq)


def test_single_valid_option_forced():
    inst = make_tiny(3, n_users=1, n_types=1, n_isps=1)
    table = build_option_table(inst.topology)
    assert table.n_valid[0, 0] == 1
    rng = np.random.default_rng(3)
    assert (rsn_options(inst, table, 50, rng) == 0).all()


def test_combination_count():
    inst = make_tiny(4, n_users=1, n_slots=3, n_types=2, n_isps=2)
    # two types, one user, three valid options each, three slots: 3^6
    assert combination_count(inst) == 729
    product = 1
    for c in oracles.option_counts(inst):
        product *= c
    assert product == 729


def test_budget_refusal_is_explicit():
    inst = make_tiny(5, n_users=2, n_slots=4, n_types=2, n_isps=3)
    assert combination_count(inst) > 10000
    with pytest.raises(BudgetExceededError, match="exceed"):
        brute_force(inst, max_combinations=10000)


def test_counts_int64_cannot_number_are_refused_before_searching(monkeypatch):
    # 3**40 combinations, about 1.2e19, past the 2**63 that int64 ids number
    inst = make_tiny(2, n_users=1, n_slots=40, n_types=1, n_isps=2)
    assert combination_count(inst) == 3 ** 40 > 2 ** 63

    def search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(_kernels, "brute_force_search", search)
    with pytest.raises(BudgetExceededError, match=r"2\*\*63"):
        brute_force(inst, max_combinations=10 ** 30)


def test_search_memory_is_bounded_by_the_chunk():
    # one slot of three links: 7**5 and 7**6 combinations, all of them
    # slot combinations of that slot
    peak_bytes = []
    for n_types in (5, 6):
        inst = make_tiny(2, n_slots=1, n_types=n_types, n_isps=3, demand_scale=8.0)
        table = build_option_table(inst.topology)
        assert combination_count(inst, table) == 7 ** n_types
        tracemalloc.start()
        try:
            brute_force(inst, table=table)
            peak_bytes.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peak_bytes) < 1.5 * min(peak_bytes)


def test_brute_force_matches_oracle():
    for seed in range(8):
        inst = make_tiny(seed, demand_scale=8.0)
        got = brute_force(inst)
        want = oracles.exhaustive_best(inst)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[1] == pytest.approx(want[0], rel=1e-10)
            assert total_cost(inst, got[0]) == pytest.approx(got[1], rel=1e-12)
            assert check_feasibility(inst, got[0]).feasible


def test_brute_force_cost_is_single_scheme_pricing():
    # N * EL = 8 edge costs per combination, so pricing sums them pairwise
    for seed in range(3):
        inst = make_tiny(seed, n_users=2, n_slots=2, n_types=1, n_isps=4, demand_scale=30.0)
        table = build_option_table(inst.topology)
        scheme, cost = brute_force(inst, table=table)
        assert cost > 0.0
        assert evaluate_hard(inst, table, scheme.option) == (cost, True)


def test_brute_force_bounds_sampling():
    rng = np.random.default_rng(4)
    inst = make_tiny(6, n_users=1, n_slots=3, n_types=2, n_isps=2,
                     demand_scale=8.0)
    table = build_option_table(inst.topology)
    opt = brute_force(inst, table=table)
    assert opt is not None
    for option in rsn_options(inst, table, 200, rng):
        cost, feasible = evaluate_hard(inst, table, option)
        if feasible:
            assert cost >= opt[1] - 1e-9


def test_rsn_best_of_replay():
    inst = make_tiny(5, n_users=2, n_slots=4, n_types=3, n_isps=3,
                     full_admissible=False, demand_scale=4.0)
    table = build_option_table(inst.topology)
    best, nf = rsn_best_of_detailed(inst, 60, np.random.default_rng(5), table)
    # replay the stream one scheme at a time
    rng = np.random.default_rng(5)
    costs = []
    for _ in range(60):
        option = rng.integers(0, table.n_valid.T, size=inst.dims)
        cost, feasible = evaluate_hard(inst, table, option)
        if feasible:
            costs.append(cost)
    assert nf == len(costs)
    assert 0 < nf < 60
    assert best is not None and best[1] == min(costs)
    again, _ = rsn_best_of_detailed(inst, 60, np.random.default_rng(5), table)
    assert again[1] == best[1]
    assert np.array_equal(again[0].option, best[0].option)
    with pytest.raises(ValueError):
        rsn_best_of_detailed(inst, 0, np.random.default_rng(5), table)


def test_nothing_feasible_on_either_pick_path():
    inst = hopeless_instance()
    assert brute_force(inst) is None
    assert rsn_best_of_detailed(inst, 30, np.random.default_rng(7)) == (None, 0)


# sha256 over rsn_best_of_detailed's scheme bytes, cost repr and feasible
# count on three default-size instances
RSN_BEST_OF_SHA256 = "c2be78e8c2692dafd97ba51c032419b0f3c5e20a2ec861ba5bfd0a2ae94ca93c"


def test_rsn_best_of_bytes_are_pinned():
    digest = hashlib.sha256()
    for j, seed in enumerate(range(100000, 100003)):
        inst = generate_instance(GenConfig(), seed=seed)
        best, n_feasible = rsn_best_of_detailed(inst, 100, np.random.default_rng([1, j, 1]))
        assert best is not None
        scheme, cost = best
        digest.update(scheme.option.tobytes())
        digest.update(repr(cost).encode())
        digest.update(str(n_feasible).encode())
    assert digest.hexdigest() == RSN_BEST_OF_SHA256
