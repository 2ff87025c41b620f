"""Exhaustive minimal-counterfactual search on small instances.

The oracle enumerates, distance level by distance level, every fixed-length
sequence reachable from the source by substitutions only, and returns the
first level containing a valid candidate. It exists as trivially correct
ground truth for the genetic search, so it deliberately does no pruning.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb, perm

from .core import CategoryMap, as_items
from .objective import SettingSpec, is_valid

ENUMERATION_BUDGET = 10_000_000


class EnumerationBudgetError(RuntimeError):
    """The instance is too large for exhaustive search."""


def count_search_space(n: int, length: int) -> int:
    """Number of duplicate-free sequences of the given length over n items.

    Exact big-integer value of n * (n-1) * ... * (n-length+1).
    """
    if length < 1 or n < length:
        raise ValueError("need n >= length >= 1")
    return perm(n, length)


def _level_size_bound(length: int, n: int, max_distance: int) -> int:
    return sum(comb(length, d) * (n - length) ** d for d in range(1, max_distance + 1))


def oracle_optimal(
    source,
    setting: SettingSpec,
    model,
    k: int,
    max_distance: int,
    categories: CategoryMap | None = None,
) -> tuple[tuple[int, ...], int] | None:
    """Closest valid fixed-length substitution counterfactual, or None.

    Returns (candidate, distance) where distance is the Hamming distance,
    which for substitution-only candidates equals the number of replaced
    positions. Within the first successful level the lexicographically
    smallest candidate wins, so results do not depend on enumeration
    chunking. Raises EnumerationBudgetError when the estimated candidate
    count exceeds the budget.
    """
    src = as_items(source)
    length = len(src)
    m = model.num_items
    if max_distance < 1:
        raise ValueError("max_distance must be >= 1")
    max_distance = min(max_distance, length)
    if _level_size_bound(length, m, max_distance) > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"enumeration would exceed {ENUMERATION_BUDGET} candidates"
        )
    src_scores = model.score(src)

    for d in range(1, max_distance + 1):
        best: tuple[int, ...] | None = None
        for cand in substitutions(src, m, d):
            if best is not None and cand >= best:
                continue
            if is_valid(setting, src_scores, model.score(cand), k, categories):
                best = cand
        if best is not None:
            return best, d
    return None


def substitutions(source, m: int, d: int):
    """Every duplicate-free sequence over range(m) that differs from `source` in exactly d positions."""
    src = as_items(source)
    for positions in combinations(range(len(src)), d):
        kept = set(src) - {src[p] for p in positions}
        available = sorted(set(range(m)) - kept)
        for assignment in permutations(available, d):
            if any(z == src[p] for z, p in zip(assignment, positions)):
                continue
            cand = list(src)
            for z, p in zip(assignment, positions):
                cand[p] = z
            yield tuple(cand)
