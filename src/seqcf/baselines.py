"""Single-substitution baselines the genetic search is measured against."""

from __future__ import annotations

from .core import TAG_BASELINE, CategoryMap, UserSequence, as_items, derive_stream, user_of
from .search import mutate_replace
from .objective import SettingSpec, is_valid
from .records import ExplanationRecord, explanation_record


class SettingNotApplicableError(ValueError):
    """The requested baseline has no defined behaviour in this regime."""


def _first_valid(source, method, setting, model, k, seed, categories, candidates) -> ExplanationRecord:
    """The record of the first valid candidate, numbered from 1 as `candidates` yields them, or of none."""
    src_scores = model.score(as_items(source))
    for number, cand in enumerate(candidates, start=1):
        if is_valid(setting, src_scores, model.score(cand), k, categories):
            return explanation_record(source, method, setting, cand, number, seed)
    return explanation_record(source, method, setting, None, None, seed)


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

    def placements(members: tuple[int, ...]):
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
        if not 0 <= target < model.num_items:
            raise ValueError(f"target item {target} outside the catalog")
        # the target cannot be substituted in without duplicating itself
        attempts = 0 if target in source_items else budget
        positions = (int(rng.integers(len(source_items))) for _ in range(attempts))
        candidates = (source_items[:i] + (target,) + source_items[i + 1 :] for i in positions)
    else:
        if categories is None:
            raise ValueError("targeted-categorized baseline needs a category map")
        members = categories.members(setting.target_category)
        if not members:
            raise ValueError(f"target category {setting.target_category} has no items")
        candidates = placements(members)
    return _first_valid(source, "educated", setting, model, k, seed, categories, candidates)
