"""Reference policies: uniform random sampling and exhaustive search.

The random policy draws every block's option uniformly over that block's
valid options; it is the yardstick the learned sampler has to beat.  The
exhaustive search enumerates all option combinations, so its cost is a
true optimum; it refuses instances whose combination count exceeds an
explicit budget instead of silently running for hours.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .model import AllocationScheme, build_option_table, evaluate_hard


class BudgetExceededError(RuntimeError):
    """The instance has more option combinations than the search budget."""


def rsn_sample(instance, rng, table=None):
    """One scheme with every block uniform over its valid options."""
    if table is None:
        table = build_option_table(instance.topology)
    # n_valid is (K, N); draws are block by block in slot-major order
    return AllocationScheme(option=rng.integers(0, table.n_valid.T, size=instance.dims))


def rsn_best_of_detailed(instance, n_samples, rng, table=None):
    """n_samples uniform schemes; ((scheme, cost) or None, feasible count)."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if table is None:
        table = build_option_table(instance.topology)
    best = None
    n_feasible = 0
    for _ in range(n_samples):
        scheme = rsn_sample(instance, rng, table)
        cost, feasible = evaluate_hard(instance, table, scheme.option)
        if feasible:
            n_feasible += 1
            if best is None or cost < best[1]:
                best = (scheme, cost)
    return best, n_feasible


def rsn_best_of(instance, n_samples, rng, table=None):
    """Best feasible of n uniform draws as (scheme, cost), or None."""
    best, _ = rsn_best_of_detailed(instance, n_samples, rng, table)
    return best


@dataclass(frozen=True)
class SearchBudget:
    max_combinations: int = 1_000_000


def combination_count(instance, table=None):
    """Product of valid option counts over all (t, n, k) blocks."""
    if table is None:
        table = build_option_table(instance.topology)
    t, _, _ = instance.dims
    total = 1
    for c in table.n_valid.flat:
        total *= int(c) ** t
    return total


def brute_force(instance, budget=SearchBudget(), table=None):
    """Exact optimum by enumeration: (scheme, cost), or None if nothing
    is feasible.

    Combinations are scanned in odometer order over blocks laid out
    slot-major, so equal-cost optima resolve deterministically to the
    earliest combination.  Raises BudgetExceededError above the budget.
    """
    if table is None:
        table = build_option_table(instance.topology)
    total = combination_count(instance, table)
    if total > budget.max_combinations:
        raise BudgetExceededError(
            f"{total} option combinations exceed the budget of {budget.max_combinations}")
    t, n, k = instance.dims
    n_valid_flat = np.broadcast_to(table.n_valid.T[None], (t, n, k)).reshape(-1)
    cost, best_flat, found, _ = _kernels.brute_force_search(
        np.ascontiguousarray(n_valid_flat), table.weights,
        instance.demands.inbound, instance.demands.outbound, instance.topology)
    if not found:
        return None
    return AllocationScheme(option=best_flat.reshape(t, n, k)), float(cost)
