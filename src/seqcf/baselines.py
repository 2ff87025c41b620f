"""Single-substitution baselines the genetic search is measured against."""

from __future__ import annotations

from .core import TAG_BASELINE, CategoryMap, UserSequence, as_items, derive_stream
from .search import mutate_replace
from .objective import SettingSpec, is_valid
from .records import ExplanationRecord, explanation_record


class SettingNotApplicableError(ValueError):
    """The requested baseline has no defined behaviour in this regime."""


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
    source_items = as_items(source)
    user = source.user if isinstance(source, UserSequence) else 0
    rng = derive_stream(seed, [TAG_BASELINE, user])
    src_scores = model.score(source_items)
    items = source_items
    for edit in range(1, budget + 1):
        items = mutate_replace(items, model.num_items, rng)
        if is_valid(setting, src_scores, model.score(items), k, categories):
            return explanation_record(source, "random", setting, model, items, edit, seed, categories)
    return explanation_record(source, "random", setting, model, None, None, seed, categories)


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
    user = source.user if isinstance(source, UserSequence) else 0
    rng = derive_stream(seed, [TAG_BASELINE, user])
    src_scores = model.score(source_items)

    if not setting.categorized:
        target = setting.target_item
        if not 0 <= target < model.num_items:
            raise ValueError(f"target item {target} outside the catalog")
        if target in source_items:
            # the target cannot be substituted in without duplicating itself
            return explanation_record(source, "educated", setting, model, None, None, seed, categories)
        for attempt in range(1, budget + 1):
            i = int(rng.integers(len(source_items)))
            cand = source_items[:i] + (target,) + source_items[i + 1 :]
            if is_valid(setting, src_scores, model.score(cand), k, categories):
                return explanation_record(source, "educated", setting, model, cand, attempt, seed, categories)
        return explanation_record(source, "educated", setting, model, None, None, seed, categories)

    if categories is None:
        raise ValueError("targeted-categorized baseline needs a category map")
    members = categories.members(setting.target_category)
    if not members:
        raise ValueError(f"target category {setting.target_category} has no items")
    items = source_items
    for edit in range(1, budget + 1):
        pool = [z for z in members if z not in items]
        if not pool:
            break  # every member already present; nothing left to place
        z = pool[int(rng.integers(len(pool)))]
        i = int(rng.integers(len(items)))
        items = items[:i] + (z,) + items[i + 1 :]
        if is_valid(setting, src_scores, model.score(items), k, categories):
            return explanation_record(source, "educated", setting, model, items, edit, seed, categories)
    return explanation_record(source, "educated", setting, model, None, None, seed, categories)
