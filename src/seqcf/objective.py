"""Validity predicates, scalar losses, and the bounded-distance verifier.

Four regimes are supported, crossing targeted/untargeted with
categorized/uncategorized. A candidate only counts as valid when the
model's output (its top-1 item) actually changed; on top of that each
regime adds its own rank and threshold conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CategoryMap, as_items
from .metrics import levenshtein
from .models import ScoreVector, top_k

SETTING_NAMES = ("un_un", "targ_un", "un_cat", "targ_cat")
RANK_RULES = ("topk_absence", "top1_change")


@dataclass(frozen=True)
class SettingSpec:
    """One counterfactual regime with its target and validity threshold."""

    targeted: bool
    categorized: bool
    target_item: int | None = None
    target_category: int | None = None
    threshold: float = 0.5
    k_eval: tuple[int, ...] = (1, 5, 10)
    untargeted_rank_rule: str = "topk_absence"

    def __post_init__(self) -> None:
        if self.targeted and not self.categorized and self.target_item is None:
            raise ValueError("targeted-uncategorized needs target_item")
        if self.targeted and self.categorized and self.target_category is None:
            raise ValueError("targeted-categorized needs target_category")
        if not self.targeted and (self.target_item is not None or self.target_category is not None):
            raise ValueError("untargeted settings take no target")
        if self.targeted and not self.categorized and self.target_category is not None:
            raise ValueError("targeted-uncategorized takes no target_category")
        if self.targeted and self.categorized and self.target_item is not None:
            raise ValueError("targeted-categorized takes no target_item")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if not self.k_eval or any(k < 1 for k in self.k_eval):
            raise ValueError("k_eval must be positive")
        if self.untargeted_rank_rule not in RANK_RULES:
            raise ValueError(f"unknown rank rule {self.untargeted_rank_rule!r}")
        object.__setattr__(self, "k_eval", tuple(self.k_eval))

    @property
    def name(self) -> str:
        return ("targ" if self.targeted else "un") + "_" + ("cat" if self.categorized else "un")

    @classmethod
    def from_name(cls, name: str, **kwargs) -> "SettingSpec":
        if name not in SETTING_NAMES:
            raise ValueError(f"unknown setting {name!r}")
        targeted = name.startswith("targ")
        categorized = name.endswith("cat")
        return cls(targeted=targeted, categorized=categorized, **kwargs)

    def to_dict(self) -> dict:
        return {
            "setting": self.name,
            "target_item": self.target_item,
            "target_category": self.target_category,
            "threshold": self.threshold,
            "k_eval": list(self.k_eval),
            "untargeted_rank_rule": self.untargeted_rank_rule,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SettingSpec":
        return cls.from_name(
            doc["setting"],
            target_item=doc.get("target_item"),
            target_category=doc.get("target_category"),
            threshold=doc.get("threshold", 0.5),
            k_eval=tuple(doc.get("k_eval", (1, 5, 10))),
            untargeted_rank_rule=doc.get("untargeted_rank_rule", "topk_absence"),
        )


def _require_categories(setting: SettingSpec, categories: CategoryMap | None) -> CategoryMap:
    if categories is None:
        raise ValueError(f"setting {setting.name} needs a category map")
    return categories


def valid_from_topk(
    setting: SettingSpec,
    source_top1: int,
    topk_ids,
    topk_scores,
    k: int,
    categories: CategoryMap | None = None,
) -> bool:
    """Validity decision given the candidate's top-k ids and normalized scores.

    This is the scalar decision path behind `is_valid`, and the reference
    for `valid_from_topk_batch`. `topk_ids`/`topk_scores` must cover at
    least k entries sorted by descending score (ties by ascending id).
    """
    if topk_ids[0] == source_top1:
        # the recommendation did not change, so nothing counts as a
        # counterfactual in any regime
        return False
    ids = list(topk_ids[:k])
    scores = list(topk_scores[:k])
    t = setting.threshold
    if not setting.targeted and not setting.categorized:
        if setting.untargeted_rank_rule == "topk_absence" and source_top1 in ids:
            return False
        return bool(scores[0] >= t)
    if setting.targeted and not setting.categorized:
        if setting.target_item not in ids:
            return False
        return bool(scores[ids.index(setting.target_item)] >= t)
    cats = _require_categories(setting, categories)
    if not setting.targeted and setting.categorized:
        if cats.of(ids[0]) & cats.of(source_top1):
            return False
        return bool(scores[0] >= t)
    return any(
        setting.target_category in cats.of(i) and s >= t for i, s in zip(ids, scores)
    )


def valid_from_topk_batch(
    setting: SettingSpec,
    source_top1: int,
    topk_ids: np.ndarray,
    topk_scores: np.ndarray,
    categories: CategoryMap | None = None,
) -> np.ndarray:
    """`valid_from_topk` for a batch: one bool per row of (rows, k) top-k arrays.

    Category lookups go through the (items, categories) membership matrix
    instead of per-item sets.
    """
    ids, scores = np.asarray(topk_ids), np.asarray(topk_scores)
    t = setting.threshold
    # an unchanged recommendation is never a counterfactual
    changed = ids[:, 0] != source_top1
    if not setting.targeted and not setting.categorized:
        ok = scores[:, 0] >= t
        if setting.untargeted_rank_rule == "topk_absence":
            ok &= ~(ids == source_top1).any(axis=1)
        return changed & ok
    if setting.targeted and not setting.categorized:
        return changed & ((ids == setting.target_item) & (scores >= t)).any(axis=1)
    member = _require_categories(setting, categories).membership
    if not setting.targeted and setting.categorized:
        shared = (member[ids[:, 0]] & member[source_top1]).any(axis=1)
        return changed & ~shared & (scores[:, 0] >= t)
    return changed & (member[ids, setting.target_category] & (scores >= t)).any(axis=1)


def is_valid(
    setting: SettingSpec,
    source_scores: ScoreVector,
    cand_scores: ScoreVector,
    k: int,
    categories: CategoryMap | None = None,
) -> bool:
    """Does the candidate's score vector satisfy the regime at rank k?"""
    if source_scores.num_items != cand_scores.num_items:
        raise ValueError("score vectors cover different catalogs")
    if not 1 <= k <= cand_scores.num_items:
        raise ValueError(f"k={k} outside [1, {cand_scores.num_items}]")
    source_top1 = top_k(source_scores, 1)[0]
    ids = top_k(cand_scores, k)
    scores = cand_scores.normalized[ids]
    return valid_from_topk(setting, source_top1, ids, scores, k, categories)


def loss_weights(
    setting: SettingSpec,
    source_scores: ScoreVector,
    num_items: int,
    categories: CategoryMap | None = None,
) -> tuple[np.ndarray, bool]:
    """Weight vector w and orientation flag for the scalar objective.

    The loss of a candidate with normalized scores p is `p @ w` when the
    flag is False (untargeted: mass to suppress) and `1 - p @ w` when True
    (targeted: mass to attract).
    """
    w = np.zeros(num_items, dtype=float)
    if not setting.targeted and not setting.categorized:
        w[top_k(source_scores, 1)[0]] = 1.0
        return w, False
    if setting.targeted and not setting.categorized:
        w[setting.target_item] = 1.0
        return w, True
    member = _require_categories(setting, categories).membership
    if not setting.targeted and setting.categorized:
        # items sharing a category with the source's top-1
        w[:] = member @ member[top_k(source_scores, 1)[0]]
        return w, False
    w[:] = member[:, setting.target_category]
    return w, True


def objective_loss(
    setting: SettingSpec,
    source_scores: ScoreVector,
    cand_scores: ScoreVector,
    categories: CategoryMap | None = None,
) -> float:
    """Scalar objective in [0, 1]; lower is closer to the regime's goal."""
    if source_scores.num_items != cand_scores.num_items:
        raise ValueError("score vectors cover different catalogs")
    w, targeted = loss_weights(setting, source_scores, cand_scores.num_items, categories)
    mass = float(cand_scores.normalized @ w)
    return 1.0 - mass if targeted else mass


def verify_eps_vcs(model, source, candidate, eps: float, distance=levenshtein) -> bool:
    """Two-check certificate verifier for a bounded-distance counterfactual.

    First check: the model's outputs (top-1 items) differ. Second check:
    the distance from source to candidate is at most eps. Runs in time
    polynomial in the model evaluation and the distance computation.
    """
    src_items, cand_items = as_items(source), as_items(candidate)
    if top_k(model.score(cand_items), 1)[0] == top_k(model.score(src_items), 1)[0]:
        return False
    if distance(cand_items, src_items) > eps:
        return False
    return True
