import pytest

from seqcf import (
    SettingNotApplicableError,
    UserSequence,
    baseline_educated,
    baseline_random,
    verify_eps_vcs,
)
from seqcf.core import CategoryMap
from seqcf.objective import SettingSpec, is_valid

from conftest import ConstScorer, CountingScorer, EchoScorer, SumScorer


CATS6 = CategoryMap(
    categories_of=tuple(frozenset({i % 2}) for i in range(12)),
    num_categories=2,
)


class TestRandomBaseline:
    def test_flip_any_model_succeeds_in_one_edit(self):
        model = SumScorer(10)
        rec = baseline_random(
            UserSequence(1, (0, 1, 2), 50), SettingSpec.from_name("un_un"), model, 1, budget=5, seed=0
        )
        assert rec.counterfactual is not None
        assert rec.hamming == 1
        assert rec.generation_found == 1

    def test_budget_zero_rejected(self):
        with pytest.raises(ValueError):
            baseline_random(
                UserSequence(1, (0, 1), 50), SettingSpec.from_name("un_un"), SumScorer(6), 1, budget=0
            )

    def test_same_seed_same_record(self):
        model = SumScorer(10)
        src = UserSequence(2, (0, 1, 2, 3), 50)
        a = baseline_random(src, SettingSpec.from_name("un_un"), model, 1, budget=5, seed=4)
        b = baseline_random(src, SettingSpec.from_name("un_un"), model, 1, budget=5, seed=4)
        assert a.to_dict() == b.to_dict()

    def test_edit_count_bounded_by_budget(self, cycle_markov):
        src = UserSequence(1, (0, 1), 3)
        for seed in range(10):
            rec = baseline_random(src, SettingSpec.from_name("un_un"), cycle_markov, 1, budget=3, seed=seed)
            if rec.counterfactual is not None:
                assert rec.generation_found <= 3
                assert verify_eps_vcs(cycle_markov, rec.source, rec.counterfactual, rec.levenshtein)

    def test_method_tag(self):
        rec = baseline_random(
            UserSequence(1, (0, 1), 50), SettingSpec.from_name("un_un"), SumScorer(8), 1, seed=1
        )
        assert rec.method == "random"


class TestEducatedBaseline:
    def test_last_item_dominant_model_gives_hamming_one(self):
        # replacing the final position with the target flips the suggestion
        # to the target itself, one substitution away from the source
        model = EchoScorer(12)
        src = UserSequence(1, (0, 1, 2, 3), 50)
        setting = SettingSpec.from_name("targ_un", target_item=7)
        rec = baseline_educated(src, setting, model, 1, budget=20, seed=0)
        assert rec.counterfactual == (0, 1, 2, 7)
        assert rec.hamming == 1
        assert is_valid(setting, model.score(src), model.score(rec.counterfactual), 1)
        assert verify_eps_vcs(model, src.items, rec.counterfactual, rec.levenshtein)

    @pytest.mark.parametrize("name", ["un_un", "un_cat"])
    def test_untargeted_not_applicable(self, name):
        with pytest.raises(SettingNotApplicableError):
            baseline_educated(
                UserSequence(1, (0, 1), 50),
                SettingSpec.from_name(name),
                EchoScorer(6),
                1,
                categories=CATS6,
            )

    def test_empty_target_category_rejected(self):
        cats = CategoryMap(categories_of=tuple(frozenset() for _ in range(6)), num_categories=1)
        setting = SettingSpec.from_name("targ_cat", target_category=0)
        with pytest.raises(ValueError, match="no items"):
            baseline_educated(UserSequence(1, (0, 1), 50), setting, EchoScorer(6), 1, categories=cats)

    def test_target_already_present_yields_absent_record(self):
        model = EchoScorer(8)
        setting = SettingSpec.from_name("targ_un", target_item=2)
        rec = baseline_educated(UserSequence(1, (0, 2, 3), 50), setting, model, 1, budget=5, seed=0)
        assert rec.counterfactual is None

    def test_categorized_placement(self):
        model = EchoScorer(12)
        setting = SettingSpec.from_name("targ_cat", target_category=1)
        src = UserSequence(1, (0, 2, 4), 50)
        rec = baseline_educated(src, setting, model, 1, budget=20, seed=1, categories=CATS6)
        assert rec.counterfactual is not None
        assert rec.counterfactual[-1] % 2 == 1  # an odd (category 1) item ended up last
        assert rec.generation_found <= 20

    def test_determinism(self):
        model = EchoScorer(12)
        setting = SettingSpec.from_name("targ_cat", target_category=0)
        src = UserSequence(3, (1, 3, 5), 50)
        a = baseline_educated(src, setting, model, 1, budget=10, seed=6, categories=CATS6)
        b = baseline_educated(src, setting, model, 1, budget=10, seed=6, categories=CATS6)
        assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize(
    "run",
    [
        lambda model, src: baseline_random(src, SettingSpec.from_name("un_un"), model, 1, budget=6, seed=2),
        lambda model, src: baseline_educated(
            src, SettingSpec.from_name("targ_un", target_item=9, threshold=0.2), model, 1, budget=6, seed=2
        ),
        lambda model, src: baseline_educated(
            src, SettingSpec.from_name("targ_cat", target_category=1, threshold=0.2), model, 1, budget=6,
            seed=2, categories=CATS6,
        ),
    ],
    ids=["random", "educated-item", "educated-category"],
)
def test_baselines_score_each_sequence_once(run):
    # the record reuses the scores its baseline already holds
    src = UserSequence(1, (0, 2), 50)
    model = CountingScorer(EchoScorer(12))
    rec = run(model, src)
    assert rec.counterfactual is not None
    assert len(model.calls) == 1 + rec.generation_found  # the source, then one call per attempt
    assert model.calls[0] == src.items and model.calls[-1] == rec.counterfactual



@pytest.mark.parametrize(
    "run, items, attempts",
    [
        (lambda model, src: baseline_random(src, SettingSpec.from_name("un_un"), model, 1, budget=4, seed=2),
         (0, 2), 4),
        (lambda model, src: baseline_educated(
            src, SettingSpec.from_name("targ_un", target_item=9), model, 1, budget=4, seed=2), (0, 2), 4),
        (lambda model, src: baseline_educated(
            src, SettingSpec.from_name("targ_un", target_item=2), model, 1, budget=4, seed=2), (0, 2), 0),
        (lambda model, src: baseline_educated(
            src, SettingSpec.from_name("targ_cat", target_category=1), model, 1, budget=4, seed=2,
            categories=CATS6), (0, 2), 4),
        # the source already holds every item of category 1: nothing to place
        (lambda model, src: baseline_educated(
            src, SettingSpec.from_name("targ_cat", target_category=1), model, 1, budget=4, seed=2,
            categories=CATS6), (1, 3, 5, 7, 9, 11), 0),
    ],
    ids=["random", "educated-item", "educated-target-present", "educated-category", "educated-category-full"],
)
def test_absent_record_scores_the_source_and_each_attempt(run, items, attempts):
    src = UserSequence(1, items, 50)
    model = CountingScorer(ConstScorer(12))
    rec = run(model, src)
    assert rec.counterfactual is None and rec.generation_found is None
    assert len(model.calls) == 1 + attempts and model.calls[0] == src.items
