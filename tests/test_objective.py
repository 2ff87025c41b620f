import numpy as np
import pytest

from seqcf import (
    GaConfig,
    SettingSpec,
    baseline_educated,
    baseline_random,
    explain,
    genetic,
    is_valid,
    objective_loss,
    verify_eps_vcs,
)
from seqcf.core import CategoryMap
from seqcf.models import ScoreVector, softmax, top_k
from seqcf.objective import loss_weights, valid_from_topk, valid_rows

from conftest import SumScorer, overlapping_categories, seqs


def sv(*probs):
    """ScoreVector whose normalized values equal the given probabilities."""
    arr = np.array(probs, dtype=float)
    with np.errstate(divide="ignore"):
        return ScoreVector(np.log(arr / arr.sum()))


CATS = CategoryMap(
    categories_of=(frozenset({0}), frozenset({0}), frozenset({1}), frozenset({1}), frozenset()),
    num_categories=2,
)


class TestSettingSpec:
    def test_names_round_trip(self):
        for name in ("un_un", "targ_un", "un_cat", "targ_cat"):
            kwargs = {}
            if name == "targ_un":
                kwargs["target_item"] = 3
            if name == "targ_cat":
                kwargs["target_category"] = 1
            s = SettingSpec.from_name(name, **kwargs)
            assert s.name == name
            assert SettingSpec.from_dict(s.to_dict()) == s

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"targeted": True, "categorized": False},  # missing target_item
            {"targeted": True, "categorized": True},  # missing target_category
            {"targeted": False, "categorized": False, "target_item": 2},
            {"targeted": True, "categorized": False, "target_item": 1, "target_category": 0},
        ],
    )
    def test_target_field_exclusivity(self, kwargs):
        with pytest.raises(ValueError):
            SettingSpec(**kwargs)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            SettingSpec(targeted=False, categorized=False, threshold=1.0)

    @pytest.mark.parametrize("k_eval", [(1, 1), (5, 1, 10, 5)])
    def test_repeated_k_eval_rejected(self, k_eval):
        with pytest.raises(ValueError, match="k_eval repeats an entry"):
            SettingSpec(targeted=False, categorized=False, k_eval=k_eval)


class TestIsValid:
    def test_un_un_requires_topk_absence(self):
        source = sv(0.1, 0.1, 0.1, 0.6, 0.1)  # top-1 is item 3
        cand = sv(0.05, 0.6, 0.05, 0.25, 0.05)  # item 3 still in top-2
        setting = SettingSpec.from_name("un_un")
        assert is_valid(setting, source, cand, 1)
        assert not is_valid(setting, source, cand, 2)

    def test_un_un_top1_change_rule(self):
        source = sv(0.1, 0.1, 0.1, 0.6, 0.1)
        cand = sv(0.05, 0.6, 0.05, 0.25, 0.05)
        setting = SettingSpec.from_name("un_un", untargeted_rank_rule="top1_change")
        assert is_valid(setting, source, cand, 2)  # absence no longer required

    def test_targeted_example(self):
        source = sv(0.6, 0.1, 0.1, 0.1, 0.1)
        cand = sv(0.02, 0.02, 0.02, 0.04, 0.9)  # target 4 at rank 1, score 0.9
        setting = SettingSpec.from_name("targ_un", target_item=4)
        assert is_valid(setting, source, cand, 1)

    def test_targeted_needs_threshold(self):
        source = sv(0.6, 0.1, 0.1, 0.1, 0.1)
        cand = sv(0.3, 0.25, 0.05, 0.05, 0.35)  # target 4 top but only 0.35
        setting = SettingSpec.from_name("targ_un", target_item=4)
        assert not is_valid(setting, source, cand, 1)

    def test_identical_scores_invalid_in_all_settings(self):
        source = sv(0.55, 0.2, 0.1, 0.1, 0.05)
        for name, kwargs in [
            ("un_un", {}),
            ("targ_un", {"target_item": 0}),
            ("un_cat", {}),
            ("targ_cat", {"target_category": 0}),
        ]:
            setting = SettingSpec.from_name(name, **kwargs)
            assert not is_valid(setting, source, source, 1, CATS)

    def test_un_cat_needs_disjoint_categories(self):
        setting = SettingSpec.from_name("un_cat")
        source = sv(0.6, 0.1, 0.1, 0.1, 0.1)  # top-1 item 0, category {0}
        same_cat = sv(0.1, 0.6, 0.1, 0.1, 0.1)  # top-1 item 1, category {0}
        other_cat = sv(0.1, 0.1, 0.6, 0.1, 0.1)  # top-1 item 2, category {1}
        assert not is_valid(setting, source, same_cat, 1, CATS)
        assert is_valid(setting, source, other_cat, 1, CATS)

    def test_targ_cat_any_topk_member(self):
        setting = SettingSpec.from_name("targ_cat", target_category=1)
        source = sv(0.6, 0.1, 0.1, 0.1, 0.1)
        cand = sv(0.05, 0.52, 0.38, 0.02, 0.03)  # top-2: item1 (cat 0), item2 (cat 1)
        assert not is_valid(setting, source, cand, 1, CATS)
        assert not is_valid(setting, source, cand, 2, CATS)  # item2 below threshold
        strong = sv(0.04, 0.38, 0.52, 0.02, 0.04)
        assert is_valid(setting, source, strong, 1, CATS)

    def test_categorized_without_map_errors(self):
        setting = SettingSpec.from_name("un_cat")
        source = sv(0.6, 0.2, 0.2)
        cand = sv(0.2, 0.6, 0.2)
        with pytest.raises(ValueError, match="category map"):
            is_valid(setting, source, cand, 1)

    def test_targeted_monotone_in_k(self):
        rng = np.random.default_rng(8)
        setting = SettingSpec.from_name("targ_un", target_item=2, threshold=0.2)
        for _ in range(200):
            source = ScoreVector(rng.normal(size=6))
            cand = ScoreVector(rng.normal(size=6))
            flags = [is_valid(setting, source, cand, k) for k in range(1, 7)]
            assert all(b or not a for a, b in zip(flags, flags[1:]))  # a -> b

    def test_un_un_anti_monotone_in_k(self):
        rng = np.random.default_rng(9)
        setting = SettingSpec.from_name("un_un", threshold=0.2)
        for _ in range(200):
            source = ScoreVector(rng.normal(size=6))
            cand = ScoreVector(rng.normal(size=6))
            flags = [is_valid(setting, source, cand, k) for k in range(1, 7)]
            assert all(a or not b for a, b in zip(flags, flags[1:]))  # b -> a


def tie_heavy_logits(rng, rows, m, levels):
    """Logits on `levels` distinct values (ties everywhere), some masked to -inf."""
    logits = rng.integers(0, levels, size=(rows, m)).astype(float)
    logits[rng.random(logits.shape) < 0.3] = -np.inf  # masked items tie at exactly 0
    logits[:, 0] = 0.0  # one finite logit per row
    return logits


def ranked(logits):
    """Each row's scalar `top_k` over the whole catalog, with its scores."""
    out = []
    for row in logits:
        scores = ScoreVector(row)
        ids = top_k(scores, scores.num_items)
        out.append((ids, scores.normalized[ids]))
    return out


def scalar_valid_rows(setting, source_top1, rows_ranked, k, cats):
    """`valid_from_topk` of each row (it reads the first k of the ranking)."""
    return [valid_from_topk(setting, source_top1, ids, scores, k, cats) for ids, scores in rows_ranked]


class TestValidRows:
    def test_tie_at_the_cut_takes_lowest_ids(self):
        # top 3 by (-score, id): [3, 1, 0] and [4, 0, 1]; items 2 and 4 of row 0 tie item 0 but rank after it
        norm = np.array([[0.1, 0.2, 0.1, 0.5, 0.1], [0.0, 0.0, 0.0, 0.0, 1.0]])
        setting = SettingSpec.from_name("un_un", threshold=0.4)
        assert valid_rows(setting, 0, norm, 3).tolist() == [False, False]
        assert valid_rows(setting, 2, norm, 3).tolist() == [True, True]

    @pytest.mark.parametrize("t, k", [(0.5, 1), (1 / 3, 2)])
    def test_target_tied_at_the_threshold_still_needs_its_rank(self, t, k):
        # k + 1 items score exactly t, so the target (the last of them) ranks k: t alone does not secure it
        norm = np.zeros((1, 5))
        norm[0, : k + 1] = t
        cats = CategoryMap(categories_of=tuple(frozenset({int(i == k)}) for i in range(5)), num_categories=2)
        for setting in (SettingSpec.from_name("targ_un", target_item=k, threshold=t),
                        SettingSpec.from_name("targ_cat", target_category=1, threshold=t)):
            assert valid_rows(setting, 4, norm, k, cats).tolist() == [False]
            assert valid_rows(setting, 4, norm, k + 1, cats).tolist() == [True]

    @pytest.mark.parametrize("m", [2, 7, 40])
    def test_matches_valid_from_topk_on_tie_heavy_rows(self, m):
        rng = np.random.default_rng(m)
        # category 3 has no member: targ_cat on it is never valid
        cats = CategoryMap(
            categories_of=tuple(frozenset(int(c) for c in rng.choice(3, int(rng.integers(0, 3)), replace=False))
                                for _ in range(m)),
            num_categories=4,
        )
        for levels in (1, 2, 3, m):
            logits = tie_heavy_logits(rng, 20, m, levels)
            norm, rows_ranked = softmax(logits), ranked(logits)
            src = int(rng.integers(m))
            for t in (0.05, 0.25, 0.5, 0.6):
                settings = [
                    SettingSpec.from_name("un_un", threshold=t),
                    SettingSpec.from_name("un_un", threshold=t, untargeted_rank_rule="top1_change"),
                    SettingSpec.from_name("targ_un", target_item=int(rng.integers(m)), threshold=t),
                    SettingSpec.from_name("un_cat", threshold=t),
                    SettingSpec.from_name("targ_cat", target_category=int(rng.integers(4)), threshold=t),
                    SettingSpec.from_name("targ_cat", target_category=3, threshold=t),
                ]
                for setting in settings:
                    for k in range(1, m + 1):
                        got = valid_rows(setting, src, norm, k, cats)
                        assert got.tolist() == scalar_valid_rows(setting, src, rows_ranked, k, cats)

    def test_matches_valid_from_topk_on_wide_rows(self):
        rng = np.random.default_rng(4)
        logits = rng.integers(0, 3, size=(100, 3000)).astype(float)
        norm, rows_ranked = softmax(logits), ranked(logits)
        cats = CategoryMap(categories_of=tuple(frozenset({i % 5}) for i in range(3000)), num_categories=5)
        settings = [
            SettingSpec.from_name("un_un", threshold=1e-4),
            SettingSpec.from_name("targ_un", target_item=7, threshold=1e-4),
            SettingSpec.from_name("targ_cat", target_category=2, threshold=1e-4),
        ]
        for setting in settings:
            for k in (2, 10, 3000):
                assert valid_rows(setting, 3, norm, k, cats).tolist() == scalar_valid_rows(
                    setting, 3, rows_ranked, k, cats
                )

    @pytest.mark.parametrize("m", [12, 40])
    def test_per_row_sources_match_scalar_is_valid(self, m):
        # candidates of many sources in one block, each judged against its own source's top-1
        rng = np.random.default_rng(100 + m)
        cats = CategoryMap(
            categories_of=tuple(frozenset(int(c) for c in rng.choice(4, int(rng.integers(0, 3)), replace=False))
                                for _ in range(m)),
            num_categories=4,
        )
        valid, tied_at_k = {}, dict.fromkeys((1, 5, 10), 0)
        for levels in (2, 3, 5, m):
            cand_logits = tie_heavy_logits(rng, 40, m, levels)
            sources = [ScoreVector(row) for row in tie_heavy_logits(rng, 40, m, 3)]
            cands = [ScoreVector(row) for row in cand_logits]
            source_top1 = np.array([top_k(s, 1)[0] for s in sources])
            assert len(set(source_top1.tolist())) > 1
            norm = softmax(cand_logits)
            ordered = -np.sort(-norm, axis=1)
            for k in tied_at_k:
                tied_at_k[k] += int(np.count_nonzero(ordered[:, k - 1] == ordered[:, k]))
            for t in (0.05, 0.25, 0.5):
                settings = [
                    SettingSpec.from_name("un_un", threshold=t),
                    SettingSpec.from_name("un_un", threshold=t, untargeted_rank_rule="top1_change"),
                    SettingSpec.from_name("targ_un", target_item=int(rng.integers(m)), threshold=t),
                    SettingSpec.from_name("un_cat", threshold=t),
                    SettingSpec.from_name("targ_cat", target_category=int(rng.integers(4)), threshold=t),
                ]
                for setting in settings:
                    for k in tied_at_k:
                        got = valid_rows(setting, source_top1, norm, k, cats).tolist()
                        assert got == [is_valid(setting, s, c, k, cats) for s, c in zip(sources, cands)]
                        key = (setting.name, setting.untargeted_rank_rule)
                        valid[key] = valid.get(key, 0) + sum(got)
        assert all(tied_at_k.values())  # rows tied across the k-th score, at every k
        assert len(valid) == 5 and all(valid.values())

    def test_k_out_of_range(self):
        setting = SettingSpec.from_name("un_un")
        with pytest.raises(ValueError):
            valid_rows(setting, 0, np.full((2, 3), 1 / 3), 4)
        with pytest.raises(ValueError):
            valid_rows(setting, 0, np.full((2, 3), 1 / 3), 0)


class TestObjectiveLoss:
    def test_candidate_equal_source_untargeted(self):
        source = sv(0.55, 0.25, 0.2)
        setting = SettingSpec.from_name("un_un")
        assert objective_loss(setting, source, source) == pytest.approx(0.55)

    def test_targeted_perfect_mass_is_zero(self):
        setting = SettingSpec.from_name("targ_un", target_item=2)
        source = sv(0.5, 0.3, 0.2)
        cand = ScoreVector(np.array([-np.inf, -np.inf, 0.0]))  # all mass on target
        assert objective_loss(setting, source, cand) == 0.0

    def test_targeted_arithmetic(self):
        setting = SettingSpec.from_name("targ_un", target_item=1)
        source = sv(0.5, 0.3, 0.2)
        cand = sv(0.5, 0.25, 0.25)
        assert objective_loss(setting, source, cand) == pytest.approx(0.75)

    def test_categorized_mass(self):
        setting = SettingSpec.from_name("targ_cat", target_category=1)
        source = sv(0.6, 0.1, 0.1, 0.1, 0.1)
        cand = sv(0.1, 0.1, 0.3, 0.4, 0.1)  # mass on items 2,3 = 0.7
        assert objective_loss(setting, source, cand, CATS) == pytest.approx(0.3)

    def test_zero_loss_implies_valid_at_k1(self):
        # holds whenever the target is not already the source's top-1
        rng = np.random.default_rng(12)
        for _ in range(100):
            source = ScoreVector(rng.normal(size=5))
            target = int(rng.integers(5))
            if top_k(source, 1)[0] == target:
                continue
            setting = SettingSpec.from_name("targ_un", target_item=target)
            logits = np.full(5, -np.inf)
            logits[target] = 0.0
            cand = ScoreVector(logits)
            assert objective_loss(setting, source, cand) == 0.0
            assert is_valid(setting, source, cand, 1)


class TestLossWeights:
    def test_categorized_weights_equal_the_set_definition(self):
        m = 12
        cats = overlapping_categories(m)
        rng = np.random.default_rng(5)
        for _ in range(20):
            source = ScoreVector(rng.normal(size=m))
            top1 = top_k(source, 1)[0]
            w, targeted = loss_weights(SettingSpec.from_name("un_cat"), top1, m, cats)
            assert not targeted
            assert w.tolist() == [float(bool(cats.of(i) & cats.of(top1))) for i in range(m)]
        for c in range(cats.num_categories):
            w, targeted = loss_weights(SettingSpec.from_name("targ_cat", target_category=c), top1, m, cats)
            assert targeted
            assert w.tolist() == [float(c in cats.of(i)) for i in range(m)]

    # every search method builds the loss weights, so each rejects a target outside the catalog or the map
    @pytest.mark.parametrize(
        "run",
        [
            lambda setting, model, cats: explain((0, 1, 2), setting, model, 1, GaConfig(2, 4), categories=cats),
            lambda setting, model, cats: genetic((0, 1, 2), setting, model, 1, GaConfig(2, 4), categories=cats),
            lambda setting, model, cats: baseline_random((0, 1, 2), setting, model, 1, categories=cats),
            lambda setting, model, cats: baseline_educated((0, 1, 2), setting, model, 1, categories=cats),
            lambda setting, model, cats: objective_loss(setting, model.score((0, 1)), model.score((0, 2)), cats),
        ],
        ids=["explain", "genetic", "baseline_random", "baseline_educated", "objective_loss"],
    )
    @pytest.mark.parametrize(
        "setting, message",
        [
            (SettingSpec.from_name("targ_un", target_item=-1), "target item -1 outside the catalog of 12 items"),
            (SettingSpec.from_name("targ_un", target_item=12), "target item 12 outside the catalog of 12 items"),
            (SettingSpec.from_name("targ_cat", target_category=-1), "target category -1 outside the 3 categories"),
            (SettingSpec.from_name("targ_cat", target_category=3), "target category 3 outside the 3 categories"),
        ],
        ids=["item-below", "item-above", "category-below", "category-above"],
    )
    def test_target_outside_the_catalog_rejected(self, run, setting, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(setting, SumScorer(12), overlapping_categories(12))


class TestVerifier:
    def test_identity_never_verifies(self):
        model = SumScorer(7)
        for seq in [(0,), (1, 2), (3, 4, 5)]:
            assert not verify_eps_vcs(model, seq, seq, 100)

    def test_flip_within_budget(self):
        model = SumScorer(7)
        assert verify_eps_vcs(model, (1, 2), (1, 3), 2)

    def test_flip_beyond_budget(self):
        model = SumScorer(7)
        assert not verify_eps_vcs(model, (1, 2, 4), (5, 3, 6), 2)
