import hashlib
import json

import pytest

from seqcf import (
    SettingNotApplicableError,
    UserSequence,
    baseline_educated,
    baseline_random,
    verify_eps_vcs,
)
from seqcf import baselines, search
from seqcf.core import CategoryMap
from seqcf.objective import SettingSpec, is_valid

from conftest import ConstScorer, CountingScorer, EchoScorer, SumScorer


CATS6 = CategoryMap(
    categories_of=tuple(frozenset({i % 2}) for i in range(12)),
    num_categories=2,
)


@pytest.fixture
def drawn_attempts(monkeypatch):
    """The attempts of each user a baseline served, in the order they were drawn: one list per user."""
    drawn = []

    def spy(draw):
        def kept(*args, **kwargs):
            drawn.append(draw(*args, **kwargs))
            return drawn[-1]

        return kept

    for name in ("_random_attempts", "_educated_attempts"):
        monkeypatch.setattr(baselines, name, spy(getattr(baselines, name)))
    return drawn


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
def test_baselines_score_each_sequence_once(run, drawn_attempts):
    # the source, then every attempt once in one batch, also those past the first valid one
    src = UserSequence(1, (0, 2), 50)
    model = CountingScorer(EchoScorer(12))
    rec = run(model, src)
    assert rec.counterfactual is not None
    [drawn] = drawn_attempts
    assert len(drawn) == 6 and model.calls == [src.items, *drawn]
    assert drawn[rec.generation_found - 1] == rec.counterfactual


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


def scalar_first_valid(source, setting, model, k, categories, attempts):
    """The scalar reference: (first attempt whose `is_valid` holds, its number from 1), or (None, None)."""
    source_scores = model.score(source)
    for number, cand in enumerate(attempts, start=1):
        if is_valid(setting, source_scores, model.score(cand), k, categories):
            return cand, number
    return None, None


# (baseline, setting) pairs the baselines serve; low thresholds so that many attempts are valid
SERVED = [
    (baseline_random, SettingSpec.from_name("un_un", threshold=0.05)),
    (baseline_random, SettingSpec.from_name("un_un", threshold=0.05, untargeted_rank_rule="top1_change")),
    (baseline_random, SettingSpec.from_name("targ_un", target_item=22, threshold=0.02)),
    (baseline_random, SettingSpec.from_name("un_cat", threshold=0.05)),
    (baseline_random, SettingSpec.from_name("targ_cat", target_category=4, threshold=0.02)),
    (baseline_educated, SettingSpec.from_name("targ_un", target_item=22, threshold=0.02)),
    (baseline_educated, SettingSpec.from_name("targ_cat", target_category=4, threshold=0.02)),
]


# the Markov scorer scores a batch by `score_batch`; wrapped, it has only `score`,
# which `score_batch_logits` then calls row by row
@pytest.mark.parametrize("wrap", [lambda model: model, CountingScorer], ids=["markov", "score-only"])
@pytest.mark.parametrize(
    "run, setting", SERVED, ids=[f"{run.__name__}-{s.name}-{s.untargeted_rank_rule}" for run, s in SERVED]
)
@pytest.mark.parametrize("k", [1, 5, 10])
def test_batched_judgement_matches_the_scalar_loop(synth_corpus, drawn_attempts, wrap, run, setting, k):
    train, markov, cats = synth_corpus
    model = wrap(markov)
    found = 0
    for seed in (0, 1):
        for user in range(1, 13):
            rec = run(train[user], setting, model, k, budget=10, seed=seed, categories=cats)
            want = scalar_first_valid(train[user].items, setting, markov, k, cats, drawn_attempts[-1])
            assert (rec.counterfactual, rec.generation_found) == want
            found += want[0] is not None
    # some attempt was valid, so the batch did pick one; the Markov scorer never
    # recommends an item of its input, so placing the target item cannot succeed
    assert found or (run, setting.name) == (baseline_educated, "targ_un")


class TestPinnedOutputs:
    """Records of the baselines pinned at fixed seeds: a refactor of how they judge attempts must leave them as they are.

    Users 1-8 of the synthetic corpus, budget 10, at k = 1 and k = 10; each
    case pins the generation_found of every user and a digest of the eight
    records.
    """

    SETTINGS = {
        "un_un": SettingSpec.from_name("un_un", threshold=0.05),
        "targ_un": SettingSpec.from_name("targ_un", target_item=22, threshold=0.05),
        "un_cat": SettingSpec.from_name("un_cat", threshold=0.05),
        "targ_cat": SettingSpec.from_name("targ_cat", target_category=4, threshold=0.05),
    }
    EXPECTED = {
        "random-un_un": {
            1: ([10, None, 2, 8, 2, 6, None, 3], "4651463843dbd916"),
            10: ([10, None, 2, 8, 2, 6, None, 3], "4651463843dbd916"),
        },
        "random-targ_un": {
            1: ([None, None, None, 8, 2, None, None, None], "6217db63e2fe147c"),
            10: ([None, None, None, 8, 2, None, None, None], "6217db63e2fe147c"),
        },
        "random-un_cat": {
            1: ([10, None, 2, 8, 2, None, None, 3], "d930ae0fb296fb79"),
            10: ([10, None, 2, 8, 2, None, None, 3], "d930ae0fb296fb79"),
        },
        "random-targ_cat": {
            1: ([10, None, 2, None, None, None, None, 3], "5d3329c27fc43fa5"),
            10: ([10, None, 2, None, None, None, None, 3], "5d3329c27fc43fa5"),
        },
        "educated-targ_un": {
            1: ([None, None, None, None, None, None, None, None], "fdf45830adcd7ec0"),
            10: ([None, None, None, None, None, None, None, None], "fdf45830adcd7ec0"),
        },
        "educated-targ_cat": {
            1: ([6, None, None, None, None, None, None, None], "e6abf8b3f069b386"),
            10: ([6, None, None, None, None, None, None, 5], "b63863b5bcc5f44f"),
        },
    }

    @pytest.mark.parametrize("k", [1, 10])
    @pytest.mark.parametrize("case", list(EXPECTED))
    def test_records(self, synth_corpus, case, k):
        train, model, cats = synth_corpus
        method, name = case.split("-")
        run = {"random": baseline_random, "educated": baseline_educated}[method]
        recs = [run(train[u], self.SETTINGS[name], model, k, budget=10, seed=0, categories=cats) for u in range(1, 9)]
        blob = "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in recs).encode()
        found = [r.generation_found for r in recs]
        assert (found, hashlib.sha256(blob).hexdigest()[:16]) == self.EXPECTED[case][k]

    def test_target_in_the_source_makes_no_attempt(self, synth_corpus):
        train, model, _ = synth_corpus
        source = train[1]
        setting = SettingSpec.from_name("targ_un", target_item=source.items[3], threshold=0.05)
        for k in (1, 10):
            rec = baseline_educated(source, setting, model, k, budget=10, seed=0)
            assert (rec.counterfactual, rec.generation_found, rec.hamming) == (None, None, None)

    def test_category_already_present_makes_no_attempt(self, synth_corpus):
        # category 0 holds four items of the source and nothing else
        train, model, _ = synth_corpus
        source = train[1]
        cats = CategoryMap(
            categories_of=tuple(frozenset({0 if z in source.items[2:6] else 1}) for z in range(model.num_items)),
            num_categories=2,
        )
        setting = SettingSpec.from_name("targ_cat", target_category=0, threshold=0.05)
        for k in (1, 10):
            rec = baseline_educated(source, setting, model, k, budget=10, seed=0, categories=cats)
            assert (rec.counterfactual, rec.generation_found, rec.hamming) == (None, None, None)


# every (method, setting) the baselines serve, at thresholds where some attempts are valid and some not
BATCHED = [("random", s) for s in TestPinnedOutputs.SETTINGS.values()] + [
    ("educated", TestPinnedOutputs.SETTINGS[name]) for name in ("targ_un", "targ_cat")
]


class TestBatching:
    """A user's record does not depend on the users batched with it, nor on how the batch is cut."""

    @staticmethod
    def lines(recs):
        return [json.dumps(r.to_dict(), sort_keys=True) for r in recs]

    @pytest.mark.parametrize("k", [1, 10])
    @pytest.mark.parametrize("method, setting", BATCHED, ids=[f"{m}-{s.name}" for m, s in BATCHED])
    def test_records_are_the_same_however_users_are_batched(self, synth_corpus, monkeypatch, method, setting, k):
        train, model, cats = synth_corpus
        sources = [train[u] for u in sorted(train)]
        run = {"random": baseline_random, "educated": baseline_educated}[method]
        alone = self.lines(run(s, setting, model, k, budget=10, seed=0, categories=cats) for s in sources)
        if method == "random":  # the educated targ_un baseline never succeeds on the Markov scorer
            assert 0 < sum('"counterfactual": null' not in line for line in alone) < len(sources)
        m = model.num_items
        assert len(sources) <= baselines._CHUNK_ROWS // 10  # unpatched, the sample is one chunk
        for block_rows, chunk_rows in [(None, None), (1, None), (7, None), (None, 70), (7, 10)]:
            if block_rows:
                monkeypatch.setattr(search, "_BLOCK_BYTES", 8 * m * block_rows)
            if chunk_rows:  # 7 users, then 1 user, per chunk at budget 10
                monkeypatch.setattr(baselines, "_CHUNK_ROWS", chunk_rows)
            batch = baselines.baseline_records(method, sources, setting, model, k, 10, 0, cats)
            assert self.lines(batch) == alone, (block_rows, chunk_rows)
            monkeypatch.undo()

    @pytest.mark.parametrize("chunk_rows", [None, 70])
    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    @pytest.mark.parametrize("method, setting", [BATCHED[0], BATCHED[-1]], ids=["random", "educated"])
    def test_a_repeating_source_fails_alike_anywhere_in_a_batch(
        self, synth_corpus, monkeypatch, method, setting, at, chunk_rows
    ):
        train, model, cats = synth_corpus
        sources = [train[u] for u in sorted(train)]
        bad = (3, 5, 3)
        sources[{"first": 0, "middle": len(sources) // 2, "last": -1}[at]] = bad
        run = {"random": baseline_random, "educated": baseline_educated}[method]
        with pytest.raises(ValueError) as alone:
            run(bad, setting, model, 1, budget=10, seed=0, categories=cats)
        assert str(alone.value) == "source repeats an item"
        if chunk_rows:
            monkeypatch.setattr(baselines, "_CHUNK_ROWS", chunk_rows)
        with pytest.raises(ValueError) as batch:
            baselines.baseline_records(method, sources, setting, model, 1, 10, 0, cats)
        assert str(batch.value) == str(alone.value)
