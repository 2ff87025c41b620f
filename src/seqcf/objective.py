"""Validity predicates, scalar losses, and the bounded-distance verifier.

Four regimes are supported, crossing targeted/untargeted with
categorized/uncategorized. A candidate only counts as valid when the
model's output (its top-1 item) actually changed; on top of that each
regime adds its own rank and threshold conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CategoryMap, as_items, typed_field
from .metrics import levenshtein
from .models import LOGIT_MARGIN, ScoreVector, top_k, unique_argmax

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
        if len(set(self.k_eval)) != len(self.k_eval):
            raise ValueError(f"k_eval repeats an entry: {list(self.k_eval)}")
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
        """Inverse of `to_dict`; an absent field takes its default.

        A field of the wrong type fails naming it by its path in a record,
        `setting.<key>`.
        """
        kinds = {
            "target_item": ("an integer", True),
            "target_category": ("an integer", True),
            "threshold": ("a number", False),
            "k_eval": ("a list of integers", False),
            "untargeted_rank_rule": ("a string", False),
        }
        given = {key: typed_field(doc, key, *kinds[key], prefix="setting.") for key in kinds if key in doc}
        return cls.from_name(typed_field(doc, "setting", "a string", prefix="setting."), **given)


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
    for `valid_rows`. `topk_ids`/`topk_scores` must cover at least k
    entries sorted by descending score (ties by ascending id).
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


def _rank(norm: np.ndarray, item: np.ndarray) -> np.ndarray:
    """Each row's rank of its item `item[row]` by (-score, id); the top item ranks 0."""
    score = np.take_along_axis(norm, item[:, None], axis=1)
    rank = np.count_nonzero(norm > score, axis=1)
    # equal scores rank by id: only rows with a tie pay for the id mask
    tied = np.flatnonzero(np.count_nonzero(norm == score, axis=1) > 1)
    if tied.size:
        lower = np.arange(norm.shape[1]) < item[tied, None]
        rank[tied] += np.count_nonzero((norm[tied] == score[tied]) & lower, axis=1)
    return rank


def _in_top_k(norm: np.ndarray, top1: np.ndarray, item: np.ndarray, k: int, where: np.ndarray) -> np.ndarray:
    """True at the rows of `where` whose item `item[row]` is in the row's top k."""
    if k == 1:  # rank 0 is the argmax
        return where & (item == top1)
    out = np.zeros(where.shape, dtype=bool)
    rows = np.flatnonzero(where)
    sub = norm if rows.size == len(where) else norm[rows]
    out[rows] = _rank(sub, item[rows]) < k
    return out


def _threshold_secures_top_k(threshold: float, k: int) -> bool:
    """Whether every item scoring at least `threshold` is in its row's top k.

    A row sums to 1, so at most 1/threshold items score that much and such
    an item ranks at most 1/threshold - 1, which is below k when
    threshold · (k + 1) > 1; the slack covers the rounding of the row sum.
    """
    return threshold * (k + 1) > 1.0 + 1e-9


def valid_rows(
    setting: SettingSpec,
    source_top1: int | np.ndarray,
    norm: np.ndarray,
    k: int,
    categories: CategoryMap | None = None,
) -> np.ndarray:
    """`valid_from_topk` of every row of a (rows, m) normalized score matrix.

    `source_top1` is one item for every row, or one per row, so a batch
    may hold candidates of several sources, each judged against its own
    source. No row's top k is built: the top-1 is the argmax (the first
    maximum, which is the ascending-id tie-break), and an item is in the
    top k when its rank by (-score, id), the count of items scoring above it
    plus the lower ids scoring the same, is below k. Untargeted, the row's
    top-1 must differ from its source's (under `un_cat`, share no category
    with it: a membership test of the two items) and clear the threshold,
    and under `topk_absence` the source's top-1 must leave the top k too.
    Targeted, the regime is read from `loss_weights`, the items whose mass
    the loss counts: some weighted item of the top k clears the threshold
    exactly when the best-scoring weighted item (the argmax over the
    weighted columns) does and ranks below k. A targeted item that clears
    the threshold needs no rank when the threshold alone puts it in the
    top k (threshold · (k + 1) > 1), so a row that passes costs no more than
    one that fails.
    """
    n, m = norm.shape
    if not 1 <= k <= m:
        raise ValueError(f"k={k} outside [1, {m}]")
    source = np.broadcast_to(source_top1, (n,))
    top1 = np.argmax(norm, axis=1)
    at = np.arange(n)
    t = setting.threshold
    # an unchanged recommendation is never a counterfactual
    ok = top1 != source
    if not setting.targeted:
        ok &= norm[at, top1] >= t
        if setting.categorized:
            member = _require_categories(setting, categories).membership
            ok &= ~(member[top1] & member[source]).any(axis=1)
        elif setting.untargeted_rank_rule == "topk_absence":
            ok &= ~_in_top_k(norm, top1, source, k, ok)
        return ok
    w, _ = loss_weights(setting, None, m, categories)  # a target's weights do not depend on the source
    members = np.flatnonzero(w)
    if members.size == 0:
        return np.zeros(n, dtype=bool)
    best = members[np.argmax(norm[:, members], axis=1)]
    ok &= norm[at, best] >= t
    if _threshold_secures_top_k(t, k):
        return ok
    return _in_top_k(norm, top1, best, k, ok)


def _target_cut(threshold: float) -> float:
    """The bound on (best weighted logit - row peak) below which a targeted row is surely invalid."""
    if threshold < np.finfo(float).tiny:
        return -math.inf  # a subnormal threshold: exp rounds too coarsely there, so nothing is settled
    return min(0.0, math.log(threshold / (1.0 - threshold))) - LOGIT_MARGIN


def settled_invalid(
    setting: SettingSpec,
    source_top1: int | np.ndarray,
    logits: np.ndarray,
    categories: CategoryMap | None = None,
) -> np.ndarray:
    """The rows of a (rows, m) logit matrix whose logits alone prove them invalid.

    `valid_rows` of such a row's softmax is False, so it needs no softmax;
    the other rows are left to `valid_rows`. `source_top1` is as there.
    Targeted, no weighted item (the items `loss_weights` weighs) clears the
    threshold t when every weighted logit lies below the row's peak by more
    than c = -min(0, ln(t / (1 - t))): the peak is then an unweighted item,
    which adds exp(0) = 1 to the row sum, so a weighted item whose
    exponential e is below min(1, t / (1 - t)) scores at most e / (1 + e),
    below min(1/2, t). The min(0, ·) matters above t = 1/2, where a
    weighted item holding the peak may clear t. The cut keeps
    `models.LOGIT_MARGIN` from c, on the differences softmax exponentiates.
    Untargeted, the recommendation is unchanged when the row's logit argmax
    is surely its softmax's (`models.unique_argmax`) and is the source's
    top-1. A row whose peak is not finite is never settled, so softmax
    still rejects it, and a categorized setting without a category map or
    a target outside the catalog fails here as in `valid_rows`.
    """
    if not setting.targeted:
        if setting.categorized:
            _require_categories(setting, categories)
        top1, unique = unique_argmax(logits)
        return unique & (top1 == source_top1)
    w, _ = loss_weights(setting, None, logits.shape[1], categories)
    peak = np.max(logits, axis=1)
    peak[~np.isfinite(peak)] = np.nan  # NaN compares False below
    # an empty target category gives -inf: its rows are all invalid
    best = np.max(logits[:, np.flatnonzero(w)], axis=1, initial=-np.inf)
    return best - peak < _target_cut(setting.threshold)


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
    source_top1: int | None,
    num_items: int,
    categories: CategoryMap | None = None,
) -> tuple[np.ndarray, bool]:
    """Weight vector w and orientation flag for the scalar objective.

    The loss of a candidate with normalized scores p is `p @ w` when the
    flag is False (untargeted: mass to suppress, the source's top-1 or the
    items sharing a category with it) and `1 - p @ w` when True (targeted:
    mass to attract, the target item or the target category's items, so
    `source_top1` is not read and may be None).
    A target outside the catalog or the category map is rejected.
    """
    w = np.zeros(num_items, dtype=float)
    if not setting.categorized:
        if setting.targeted and not 0 <= setting.target_item < num_items:
            raise ValueError(f"target item {setting.target_item} outside the catalog of {num_items} items")
        w[setting.target_item if setting.targeted else source_top1] = 1.0
        return w, setting.targeted
    member = _require_categories(setting, categories).membership
    if setting.targeted and not 0 <= setting.target_category < member.shape[1]:
        raise ValueError(f"target category {setting.target_category} outside the {member.shape[1]} categories")
    w[:] = member[:, setting.target_category] if setting.targeted else member @ member[source_top1]
    return w, setting.targeted


def objective_loss(
    setting: SettingSpec,
    source_scores: ScoreVector,
    cand_scores: ScoreVector,
    categories: CategoryMap | None = None,
) -> float:
    """Scalar objective in [0, 1]; lower is closer to the regime's goal."""
    if source_scores.num_items != cand_scores.num_items:
        raise ValueError("score vectors cover different catalogs")
    w, targeted = loss_weights(setting, top_k(source_scores, 1)[0], cand_scores.num_items, categories)
    mass = float(cand_scores.normalized @ w)
    return 1.0 - mass if targeted else mass


def verify_eps_vcs(model, source, candidate, eps: float) -> bool:
    """Two-check certificate verifier for a bounded-distance counterfactual.

    First check: the model's outputs (top-1 items) differ. Second check:
    the edit distance from source to candidate is at most eps. Runs in time
    polynomial in the model evaluation and the distance computation.
    """
    src_items, cand_items = as_items(source), as_items(candidate)
    if top_k(model.score(cand_items), 1)[0] == top_k(model.score(src_items), 1)[0]:
        return False
    return levenshtein(cand_items, src_items) <= eps
