"""Exhaustive minimal-counterfactual search on small instances.

The oracle enumerates, distance level by distance level, every fixed-length
sequence reachable from the source by substitutions only, and returns the
first level containing a valid candidate. It exists as trivially correct
ground truth for the genetic search, so it prunes no candidate: each level
is made as int64 rows (`_level_rows`) in chunks of at most `_CHUNK_ROWS`,
so memory does not grow with it, and every chunk is judged by the search's
`_RowEvaluator`, whose exact logit screen only spares the softmax of
candidates it proves invalid. `ENUMERATION_BUDGET` caps the candidates
enumerated, checked just before each level, so a deep `max_distance` does
not stop an answer at a shallow level.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, perm

import numpy as np

from .core import CategoryMap
from .objective import SettingSpec
from .search import _RowEvaluator

ENUMERATION_BUDGET = 10_000_000
# candidates per chunk: their (rows, length) int64 cells take a few MiB at most
_CHUNK_ROWS = 4096


class EnumerationBudgetError(RuntimeError):
    """The instance is too large for exhaustive search."""


def count_search_space(n: int, length: int) -> int:
    """Number of duplicate-free sequences of the given length over n items.

    Exact big-integer value of n * (n-1) * ... * (n-length+1).
    """
    if length < 1 or n < length:
        raise ValueError("need n >= length >= 1")
    return perm(n, length)


def _level_size(length: int, m: int, d: int) -> int:
    """How many rows `_level_rows` yields at level d for a duplicate-free source.

    A level-d candidate replaces d of the `length` positions with distinct
    items among the m - length unused ones and the d replaced ones, none
    keeping its own item: inclusion-exclusion over the j positions that do.
    """
    spare = m - length + d
    return comb(length, d) * sum((-1) ** j * comb(d, j) * perm(spare - j, d - j) for j in range(d + 1))


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
    chunking. The source is checked as the search checks it. Raises
    EnumerationBudgetError, naming the level, when enumerating a level
    would take the running candidate count past the budget; the levels
    after the first successful one are never counted.
    """
    if max_distance < 1:
        raise ValueError("max_distance must be >= 1")
    m = model.num_items
    evaluate = _RowEvaluator(model, setting, source, k, categories, m - 1)  # a substitution keeps the length
    src = np.asarray(evaluate.source_items, dtype=np.int64)
    max_distance = min(max_distance, len(src))

    enumerated = 0
    for d in range(1, max_distance + 1):
        enumerated += _level_size(len(src), m, d)
        if enumerated > ENUMERATION_BUDGET:
            raise EnumerationBudgetError(f"enumeration through level {d} would exceed {ENUMERATION_BUDGET} candidates")
        # each chunk's smallest valid row; rows compare as lists as the candidates do as tuples
        valid = (rows[evaluate.valid(rows, np.full(len(rows), len(src)))] for rows in _level_rows(src, m, d))
        if found := [min(hits.tolist()) for hits in valid if len(hits)]:
            return tuple(min(found)), d
    return None


def _level_rows(src: np.ndarray, m: int, d: int):
    """Every duplicate-free sequence over range(m) that differs from `src` in exactly d positions, as rows.

    Per set of d positions, chunks of at most `_CHUNK_ROWS` flat indices of the d-permutations of the items
    they may hold are decoded as Lehmer codes, and picks that keep a position's own item are dropped.
    """
    for at in map(list, combinations(range(len(src)), d)):
        free = np.delete(np.arange(m), np.delete(src, at))
        size = perm(len(free), d)
        for start in range(0, size, _CHUNK_ROWS):
            flat = np.arange(start, min(start + _CHUNK_ROWS, size))
            picks = np.column_stack(np.unravel_index(flat, range(len(free), len(free) - d, -1)))
            for j in range(1, d):  # digit j is a rank among the items the earlier picks left
                for earlier in np.sort(picks[:, :j], axis=1).T:
                    picks[:, j] += earlier <= picks[:, j]
            picks = free[picks]
            keep = (picks != src[at]).all(axis=1)
            rows = np.tile(src, (np.count_nonzero(keep), 1))
            rows[:, at] = picks[keep]
            yield rows
