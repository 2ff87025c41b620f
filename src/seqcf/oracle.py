"""Exhaustive minimal-counterfactual search on small instances.

The oracle enumerates, distance level by distance level, every fixed-length
sequence reachable from the source by substitutions only, and returns the
first level containing a valid candidate. It exists as trivially correct
ground truth for the genetic search, so it deliberately prunes no
candidate: every one of a level is enumerated and judged. It judges on the
search's row path (`search._checked_source`, `_source_top1`, `_valid`), as
the baselines do, each level in chunks of at most `_CHUNK_ROWS`
candidates, so memory does not grow with the level; that path's exact
logit screen only spares the softmax of candidates it proves invalid.
`ENUMERATION_BUDGET` caps the candidates enumerated, checked just before
each level, so a deep `max_distance` does not stop an answer at a
shallow level.
"""

from __future__ import annotations

from itertools import combinations, islice, permutations
from math import comb, perm

import numpy as np

from .core import CategoryMap, as_items
from .objective import SettingSpec
from .search import _checked_source, _padded, _source_top1, _valid

ENUMERATION_BUDGET = 10_000_000
# candidates per chunk: their Python tuples and (rows, length) int64 cells take a few MiB at most
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
    """How many candidates `substitutions` yields at level d for a duplicate-free source.

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
    src = _checked_source(source, m, k, m - 1)  # a substitution keeps the length
    max_distance = min(max_distance, len(src))
    top1 = _source_top1(model, *_padded([src]))

    enumerated = 0
    for d in range(1, max_distance + 1):
        enumerated += _level_size(len(src), m, d)
        if enumerated > ENUMERATION_BUDGET:
            raise EnumerationBudgetError(f"enumeration through level {d} would exceed {ENUMERATION_BUDGET} candidates")
        best: tuple[int, ...] | None = None
        level = substitutions(src, m, d)
        while chunk := list(islice(level, _CHUNK_ROWS)):
            hits = np.flatnonzero(_valid(model, setting, top1, *_padded(chunk), k, categories))
            if hits.size:
                cand = min(chunk[i] for i in hits)
                best = cand if best is None else min(best, cand)
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
