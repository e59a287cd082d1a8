"""Reference policies: uniform random sampling and exhaustive search.

The random policy draws every block's option uniformly over that block's
valid options; it is the yardstick the learned sampler has to beat.  The
exhaustive search enumerates all option combinations, so its cost is a
true optimum; it refuses instances whose combination count exceeds an
explicit budget instead of silently running for hours.
"""

import math

import numpy as np

from . import _kernels
from .model import AllocationScheme, best_feasible, build_option_table, evaluate_hard


class BudgetExceededError(RuntimeError):
    """The instance has more option combinations than the search budget."""


def rsn_options(instance, table, n_samples, rng):
    """n_samples uniform schemes as one (S, T, N, K) option block: every
    block's option uniform over its valid options, drawn in one call."""
    # n_valid is (K, N); draws are block by block in slot-major order
    return rng.integers(0, table.n_valid.T, size=(n_samples, *instance.dims))


def rsn_best_of_detailed(instance, n_samples, rng, table=None):
    """``best_feasible`` of the n_samples schemes of ``rsn_options``."""
    if table is None:
        table = build_option_table(instance.topology)
    options = rsn_options(instance, table, n_samples, rng)
    return best_feasible(options, evaluate_hard(instance, table, options))


def combination_count(instance, table=None):
    """Product of valid option counts over all (t, n, k) blocks."""
    if table is None:
        table = build_option_table(instance.topology)
    t, _, _ = instance.dims
    return math.prod(int(c) ** t for c in table.n_valid.flat)


def brute_force(instance, max_combinations=1_000_000, table=None):
    """Exact optimum by enumeration: (scheme, cost), or None if nothing
    is feasible.

    Combinations are scanned in odometer order over blocks laid out
    slot-major, so equal-cost optima resolve deterministically to the
    earliest combination.  Raises BudgetExceededError when the instance
    has more than max_combinations, or at least 2**63, which int64
    combination ids cannot number, whatever the budget.
    """
    if table is None:
        table = build_option_table(instance.topology)
    total = combination_count(instance, table)
    if total >= 2 ** 63:  # the search numbers combinations with int64 ids
        raise BudgetExceededError(
            f"{total} option combinations exceed the 2**63 that int64 combination ids can number")
    if total > max_combinations:
        raise BudgetExceededError(
            f"{total} option combinations exceed the budget of {max_combinations}")
    t, n, k = instance.dims
    n_valid_flat = np.broadcast_to(table.n_valid.T[None], (t, n, k)).reshape(-1)
    cost, best_flat = _kernels.brute_force_search(
        np.ascontiguousarray(n_valid_flat), table.weights,
        instance.demands.inbound, instance.demands.outbound, instance.topology)
    if cost == np.inf:
        return None
    return AllocationScheme(option=best_flat.reshape(t, n, k)), float(cost)
