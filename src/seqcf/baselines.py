"""Single-substitution baselines the genetic search is measured against.

A baseline draws up to `budget` substitutions of the source and answers
with the first valid one, numbered from 1. Its attempts are judged like
the search's rows: one `search._RowEvaluator`, built before any attempt is
drawn, checks the inputs and then scores every attempt in one batch, so
the attempts after the first valid one are drawn and scored too.
"""

from __future__ import annotations

import numpy as np

from .core import TAG_BASELINE, CategoryMap, UserSequence, as_items, derive_stream, user_of
from .search import _RowEvaluator, mutate_replace
from .objective import SettingSpec
from .records import ExplanationRecord, explanation_record


class SettingNotApplicableError(ValueError):
    """The requested baseline has no defined behaviour in this regime."""


def _first_valid(source, method, setting, model, k, seed, categories, candidates) -> ExplanationRecord:
    """The record of the first valid candidate, numbered from 1 as `candidates` yields them, or of none."""
    length = len(as_items(source))  # a substitution keeps it, so the candidates are one batch of rows
    evaluate = _RowEvaluator(model, setting, source, k, categories, length)
    rows = np.array(list(candidates), dtype=np.int64).reshape(-1, length)
    hit = np.flatnonzero(evaluate.valid(rows, np.full(len(rows), length)))
    if hit.size == 0:
        return explanation_record(source, method, setting, None, None, seed)
    return explanation_record(source, method, setting, tuple(rows[hit[0]].tolist()), int(hit[0]) + 1, seed)


def baseline_random(
    source: UserSequence,
    setting: SettingSpec,
    model,
    k: int,
    budget: int = 10,
    seed: int = 0,
    categories: CategoryMap | None = None,
) -> ExplanationRecord:
    """Accumulate random single-item substitutions until one is valid.

    Each edit replaces a uniformly random position of the current sequence
    with a uniformly random item not present in it; the loop stops at the
    first valid candidate or after `budget` edits.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = derive_stream(seed, [TAG_BASELINE, user_of(source)])

    def edits():
        items = as_items(source)
        for _ in range(budget):
            items = mutate_replace(items, model.num_items, rng)
            yield items

    return _first_valid(source, "random", setting, model, k, seed, categories, edits())


def baseline_educated(
    source: UserSequence,
    setting: SettingSpec,
    model,
    k: int,
    budget: int = 10,
    seed: int = 0,
    categories: CategoryMap | None = None,
) -> ExplanationRecord:
    """Place the desired item (or a target-category item) at random positions.

    Only defined for targeted regimes; untargeted settings have no item to
    place and raise SettingNotApplicableError. With an item target each
    attempt substitutes the target into a fresh random position of the
    source (the target cannot be inserted twice, so attempts do not stack);
    with a category target the edits accumulate like the random baseline,
    drawing a not-yet-present member of the category each time.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not setting.targeted:
        raise SettingNotApplicableError(
            "educated baseline does not apply to untargeted settings"
        )
    source_items = as_items(source)
    rng = derive_stream(seed, [TAG_BASELINE, user_of(source)])

    def placements():
        members = categories.members(setting.target_category)
        if not members:
            raise ValueError(f"target category {setting.target_category} has no items")
        items = source_items
        for _ in range(budget):
            pool = [z for z in members if z not in items]
            if not pool:
                return  # every member already present; nothing left to place
            z = pool[int(rng.integers(len(pool)))]
            i = int(rng.integers(len(items)))
            items = items[:i] + (z,) + items[i + 1 :]
            yield items

    if not setting.categorized:
        target = setting.target_item
        # the target cannot be substituted in without duplicating itself
        attempts = 0 if target in source_items else budget
        positions = (int(rng.integers(len(source_items))) for _ in range(attempts))
        candidates = (source_items[:i] + (target,) + source_items[i + 1 :] for i in positions)
    else:
        candidates = placements()
    return _first_valid(source, "educated", setting, model, k, seed, categories, candidates)
