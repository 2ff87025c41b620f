import math
import re

import numpy as np
import pytest

from seqcf import (
    GaConfig,
    UserSequence,
    count_search_space,
    explain,
    is_valid,
    oracle_optimal,
    train_markov,
    verify_eps_vcs,
)
from seqcf import oracle
from seqcf.models import MarkovScorer, PopularityScorer
from seqcf.objective import SettingSpec
from seqcf.oracle import EnumerationBudgetError, _level_size

from conftest import ConstScorer, CountingScorer, SumScorer, overlapping_categories, seqs
from reference import scalar_oracle, substitutions


class TestSearchSpace:
    @pytest.mark.parametrize("n,length,expected", [(5, 3, 60), (4, 4, 24)])
    def test_examples(self, n, length, expected):
        assert count_search_space(n, length) == expected

    def test_fifty_items_is_fifty_factorial(self):
        assert count_search_space(50, 50) == math.factorial(50)

    def test_matches_independent_factorial_ratio(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            length = int(rng.integers(1, n + 1))
            assert count_search_space(n, length) == math.factorial(n) // math.factorial(n - length)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            count_search_space(3, 4)
        with pytest.raises(ValueError):
            count_search_space(3, 0)


def two_edit_instance():
    """Hand-built 5-item scorer whose only top-1 flip needs two replacements.

    Rows 0,1,2,4 all point strongly at item 3; row 3 points at item 1. From
    source (0,1,2) the suggestion is 3. One edit either keeps the suggestion
    (last item still maps to 3) or lands on a masked/flat row below the 0.8
    threshold; the pair {position 1 -> 4, position 2 -> 3} flips to item 1.
    Hand-enumerated in TestOracle.test_two_edit_instance before freezing.
    """
    model = MarkovScorer(
        rows=np.array([0, 1, 2, 3, 4]),
        cols=np.array([3, 3, 3, 1, 3]),
        counts=np.full(5, 10),
        frequency=np.ones(5, dtype=np.int64),
        alpha=0.1,
        beta=0.9,
    )
    setting = SettingSpec.from_name("un_un", threshold=0.8)
    return model, setting, (0, 1, 2)


class TestOracle:
    def test_flip_any_model_returns_distance_one(self):
        model = SumScorer(8)
        res = oracle_optimal((0, 1, 2), SettingSpec.from_name("un_un"), model, 1, max_distance=3)
        assert res is not None
        cand, dist = res
        assert dist == 1
        assert verify_eps_vcs(model, (0, 1, 2), cand, 1)

    def test_constant_model_has_no_counterfactual(self):
        model = ConstScorer(8)
        res = oracle_optimal((0, 1, 2), SettingSpec.from_name("un_un"), model, 1, max_distance=3)
        assert res is None

    def test_two_edit_instance(self):
        model, setting, src = two_edit_instance()
        src_scores = model.score(src)
        # independent enumeration of every single-substitution candidate
        one_edits = []
        for p in range(3):
            for z in range(5):
                if z in src:
                    continue
                cand = list(src)
                cand[p] = z
                one_edits.append(tuple(cand))
        assert len(one_edits) == 6
        assert not any(is_valid(setting, src_scores, model.score(c), 1) for c in one_edits)

        res = oracle_optimal(src, setting, model, 1, max_distance=3)
        assert res is not None
        cand, dist = res
        assert dist == 2
        assert is_valid(setting, src_scores, model.score(cand), 1)
        assert verify_eps_vcs(model, src, cand, 2)

    def test_result_is_lexicographically_smallest_at_its_level(self):
        model = SumScorer(6)
        res = oracle_optimal((0, 1, 2), SettingSpec.from_name("un_un"), model, 1, max_distance=2)
        cand, dist = res
        others = []
        for p in range(3):
            for z in range(6):
                if z in (0, 1, 2):
                    continue
                c = list((0, 1, 2))
                c[p] = z
                if is_valid(SettingSpec.from_name("un_un"), model.score((0, 1, 2)), model.score(tuple(c)), 1):
                    others.append(tuple(c))
        assert cand == min(others)

    def test_budget_guard(self):
        # no substitution flips a constant scorer, so level 2 (about 1.8e8 candidates) is reached
        model = ConstScorer(2000)
        with pytest.raises(EnumerationBudgetError, match="through level 2 would exceed 10000000 candidates"):
            oracle_optimal(tuple(range(10)), SettingSpec.from_name("un_un"), model, 1, max_distance=4)

    def test_level_one_answer_when_level_two_is_over_budget(self):
        setting, model = SettingSpec.from_name("un_un"), SumScorer(2000)
        assert _level_size(10, 2000, 1) + _level_size(10, 2000, 2) > oracle.ENUMERATION_BUDGET
        found = oracle_optimal(tuple(range(10)), setting, model, 1, max_distance=4)
        assert found is not None and found[1] == 1
        assert found == oracle_optimal(tuple(range(10)), setting, model, 1, max_distance=1)

    def test_genetic_never_beats_oracle_spot_check(self, cycle_markov):
        setting = SettingSpec.from_name("un_un")
        cfg = GaConfig(
            generations=20, population_size=64, mutation_weights=(1.0, 0.0, 0.0),
            crossover_prob=0.0, max_len=3,
        )
        src = UserSequence(1, (0, 1), 3)
        optimal = oracle_optimal(src, setting, cycle_markov, 1, max_distance=2)
        rec = explain(src, setting, cycle_markov, 1, cfg, seed=3)
        assert optimal is not None and rec.counterfactual is not None
        assert rec.levenshtein >= optimal[1]


class TestLevelSize:
    @pytest.mark.parametrize("m, source", [(8, (0, 1, 2, 3)), (8, (5, 2, 7, 0)), (6, (4, 0, 1, 3, 2)), (5, (3,)),
                                           (9, (8, 1, 4)), (4, (2, 0, 3)), (7, (6, 5, 4, 3, 2, 1))])
    def test_counts_every_level_exactly(self, m, source):
        for d in range(1, len(source) + 1):
            assert _level_size(len(source), m, d) == sum(1 for _ in substitutions(source, m, d))

    def test_level_four_of_four_over_eight_items(self):
        # (m - L)^d per position set would count 4^4 = 256
        assert _level_size(4, 8, 4) == len(list(substitutions((0, 1, 2, 3), 8, 4))) == 1001

    def test_budget_counts_every_candidate(self, monkeypatch):
        # levels 1 and 2 of a 4-item source over 8 items hold 16 + 126 candidates
        setting, model = SettingSpec.from_name("un_un"), ConstScorer(8)
        monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", 16 + 126 - 1)
        with pytest.raises(EnumerationBudgetError):
            oracle_optimal((0, 1, 2, 3), setting, model, 1, max_distance=2)
        monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", 16 + 126)
        assert oracle_optimal((0, 1, 2, 3), setting, model, 1, max_distance=2) is None


def level_cases(n=24, seed=11):
    """(m, L, d) triples: the edges L = m - 1, d = L and d = 1, then random small ones."""
    rng = np.random.default_rng(seed)
    cases = [(6, 5, 1), (6, 5, 5), (5, 4, 2), (7, 1, 1), (8, 3, 3), (2, 1, 1)]
    while len(cases) < n:
        m = int(rng.integers(2, 8))
        length = int(rng.integers(1, m))
        cases.append((m, length, int(rng.integers(1, length + 1))))
    return cases


class TestLevelRows:
    """`oracle._level_rows` against `reference.substitutions`, which yields a level one tuple at a time."""

    @pytest.mark.parametrize("chunk_rows", [5, 4096])
    @pytest.mark.parametrize("m, length, d", level_cases())
    def test_rows_are_the_references_substitutions(self, monkeypatch, chunk_rows, m, length, d):
        monkeypatch.setattr(oracle, "_CHUNK_ROWS", chunk_rows)
        source = np.random.default_rng(m * 100 + length * 10 + d).permutation(m)[:length]
        chunks = list(oracle._level_rows(source, m, d))
        assert all(c.dtype == np.int64 and c.shape == (len(c), length) and len(c) <= chunk_rows for c in chunks)
        rows = [tuple(r) for c in chunks for r in c.tolist()]
        assert len(rows) == len(set(rows)) == _level_size(length, m, d)
        assert set(rows) == set(substitutions(source.tolist(), m, d))


class TestOracleInputChecks:
    @pytest.mark.parametrize("name", ["un_cat", "targ_cat"])
    @pytest.mark.parametrize("model", [ConstScorer(8), SumScorer(8)], ids=["const", "flips"])
    def test_categorized_setting_without_a_category_map(self, model, name):
        setting = SettingSpec.from_name(name, **({"target_category": 0} if name == "targ_cat" else {}))
        with pytest.raises(ValueError, match=f"setting {name} needs a category map"):
            oracle_optimal((0, 1, 2), setting, model, 1, 2)

    @pytest.mark.parametrize(
        "source, k",
        [((3, 5, 3), 1), ((0, 1), 0), ((0, 1), 9), ((0, 8), 1), ((), 1), (tuple(range(8)), 1)],
        ids=["repeat", "k-zero", "k-above-m", "item-above", "empty", "too-long-for-catalog"],
    )
    def test_rejects_what_the_search_rejects(self, source, k):
        setting, model = SettingSpec.from_name("un_un"), SumScorer(8)
        with pytest.raises(ValueError) as gece:
            explain(source, setting, model, k, GaConfig(generations=1, population_size=4))
        with pytest.raises(ValueError, match=re.escape(str(gece.value))):
            oracle_optimal(source, setting, model, k, 2)


def tiny_markov(m, seed):
    rng = np.random.default_rng(seed)
    walks = [tuple(rng.permutation(m)[: rng.integers(2, m)].tolist()) for _ in range(12)]
    return train_markov(seqs(dict(enumerate(walks, 1))), m)


# thresholds at which answers lie at levels 1 and 2 or nowhere; at 0.2 and k = 3 a targeted row is ranked
REFERENCE_SETTINGS = [
    SettingSpec.from_name("un_un", threshold=0.4),
    SettingSpec.from_name("un_un", threshold=0.4, untargeted_rank_rule="top1_change"),
    SettingSpec.from_name("targ_un", target_item=4, threshold=0.2),
    SettingSpec.from_name("un_cat", threshold=0.35),
    SettingSpec.from_name("targ_cat", target_category=1, threshold=0.2),
]


class TestMatchesScalarOracle:
    """The batched oracle against `reference.scalar_oracle`, which scores and judges one candidate at a time."""

    M = 8
    SOURCES = [(0, 1, 2), (3, 7, 5, 1), (6,), (2, 4, 6, 0), (5, 3)]

    @pytest.mark.parametrize("scorer", ["markov", "popularity", "score-only"])
    @pytest.mark.parametrize("setting", REFERENCE_SETTINGS, ids=lambda s: s.name + "-" + s.untargeted_rank_rule)
    @pytest.mark.parametrize("k", [1, 3])
    def test_every_chunk_size(self, monkeypatch, scorer, setting, k):
        markov = tiny_markov(self.M, 3)
        # popularity frequencies in {0, 1, 2} tie many items, where the lowest id ranks first
        model = {
            "markov": markov,
            "popularity": PopularityScorer(frequency=np.random.default_rng(5).integers(0, 3, size=self.M)),
            "score-only": CountingScorer(markov),  # no score_batch: scored row by row
        }[scorer]
        cats = overlapping_categories(self.M)
        found = []
        for source in self.SOURCES:
            want = scalar_oracle(source, setting, model, k, 3, cats)
            for chunk_rows in (1, 7, 10**9):  # one-row chunks, a ragged last chunk, whole levels
                monkeypatch.setattr(oracle, "_CHUNK_ROWS", chunk_rows)
                assert oracle_optimal(source, setting, model, k, 3, cats) == want, (source, chunk_rows)
            found.append(want and want[1])
        assert any(found)
