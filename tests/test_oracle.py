import math

import numpy as np
import pytest

from seqcf import (
    GaConfig,
    UserSequence,
    count_search_space,
    explain,
    is_valid,
    oracle_optimal,
    verify_eps_vcs,
)
from seqcf.models import MarkovScorer
from seqcf.objective import SettingSpec
from seqcf.oracle import EnumerationBudgetError

from conftest import ConstScorer, SumScorer


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
        model = SumScorer(2000)
        with pytest.raises(EnumerationBudgetError):
            oracle_optimal(tuple(range(10)), SettingSpec.from_name("un_un"), model, 1, max_distance=4)

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
