"""Scalar references of the package's batched code: one candidate at a time, in plain Python.

The package runs only the batched forms; the tests check them against
these:
- `mutate_replace`, `mutate_add` and `mutate_delete` against
  `search.mutate_rows` and `search.apply_edits`;
- `random_attempts` against `baselines._random_rows`: each attempt is a
  `mutate_replace` of the one before, drawn call by call from the user's
  stream;
- `crossover` against `search.crossover_rows`;
- `fitness` against the GA's per-row results (`search._ga_results`);
- `scalar_oracle` against `oracle.oracle_optimal`: it scores each
  substitution with `model.score` and judges it with the scalar `is_valid`;
- `unscreened_valid` against `search._valid`: it normalizes every row and
  judges it with `objective.valid_rows`, with no logit screen.
"""

from __future__ import annotations

import numpy as np

from seqcf.core import DEFAULT_MAX_LEN, CategoryMap, as_items
from seqcf.metrics import levenshtein
from seqcf.models import ScoreVector
from seqcf.objective import SettingSpec, is_valid, objective_loss, valid_rows
from seqcf.oracle import substitutions
from seqcf.search import _normalized, combine_fitness


def _draw_unseen(items: tuple[int, ...], m: int, rng: np.random.Generator) -> int:
    present = set(items)
    if len(present) >= m:
        raise ValueError("catalog exhausted: every item already in the sequence")
    while True:
        z = int(rng.integers(m))
        if z not in present:
            return z


def mutate_replace(seq, m: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Overwrite one uniformly random position with an item of range(m) not in the sequence."""
    items = as_items(seq)
    i = int(rng.integers(len(items)))
    z = _draw_unseen(items, m, rng)
    return items[:i] + (z,) + items[i + 1 :]


def random_attempts(items, rng: np.random.Generator, budget: int, m: int) -> list[tuple[int, ...]]:
    """The random baseline's attempts: each replaces a random position of the previous one with an item not in it."""
    attempts = []
    for _ in range(budget):
        items = mutate_replace(items, m, rng)
        attempts.append(items)
    return attempts


def mutate_add(seq, m: int, rng: np.random.Generator, max_len: int = DEFAULT_MAX_LEN) -> tuple[int, ...]:
    """Insert an unseen item of range(m) at a random slot; overflow drops the oldest item."""
    items = as_items(seq)
    i = int(rng.integers(len(items) + 1))
    z = _draw_unseen(items, m, rng)
    out = items[:i] + (z,) + items[i:]
    if len(out) > max_len:
        out = out[1:]
    return out


def mutate_delete(seq, rng: np.random.Generator) -> tuple[int, ...]:
    """Remove one uniformly random position, shifting the suffix left."""
    items = as_items(seq)
    if len(items) < 2:
        raise ValueError("cannot delete from a length-1 sequence")
    i = int(rng.integers(len(items)))
    return items[:i] + items[i + 1 :]


def _dedup_keep_first(items: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(dict.fromkeys(items))


def crossover(
    parent1, parent2, rng: np.random.Generator, max_len: int = DEFAULT_MAX_LEN
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Single-cut recombination; duplicate repair drops later occurrences."""
    p1, p2 = as_items(parent1), as_items(parent2)
    c1 = int(rng.integers(1, len(p1) + 1))
    c2 = int(rng.integers(1, len(p2) + 1))
    child1 = _dedup_keep_first(p1[:c1] + p2[c2:])[-max_len:]
    child2 = _dedup_keep_first(p2[:c2] + p1[c1:])[-max_len:]
    return child1, child2


def fitness(
    source,
    source_scores: ScoreVector,
    cand,
    cand_scores: ScoreVector,
    setting: SettingSpec,
    edit_weight: float = 0.5,
    max_len: int = DEFAULT_MAX_LEN,
    categories: CategoryMap | None = None,
) -> float:
    """Stand-alone fitness of one scored candidate (lower is better)."""
    lev = levenshtein(as_items(source), as_items(cand))
    loss = objective_loss(setting, source_scores, cand_scores, categories)
    return combine_fitness(lev, loss, edit_weight, max_len)


def scalar_oracle(
    source,
    setting: SettingSpec,
    model,
    k: int,
    max_distance: int,
    categories: CategoryMap | None = None,
) -> tuple[tuple[int, ...], int] | None:
    """The lexicographically smallest valid substitution of the first level that has one, and the level."""
    src = as_items(source)
    m = model.num_items
    max_distance = min(max_distance, len(src))
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


def unscreened_valid(model, setting, source_top1, rows, lengths, k, categories=None) -> np.ndarray:
    """`search._valid` without its logit screen: every row is normalized and judged by `valid_rows`."""
    source_top1 = np.broadcast_to(source_top1, lengths.shape)
    valid = np.empty(len(lengths), dtype=bool)
    for block, norm in _normalized(model, rows, lengths):
        valid[block] = valid_rows(setting, source_top1[block], norm, k, categories)
    return valid
