import json
import math
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcf import SettingSpec, fidelity_at_k, hamming, levenshtein, mean_hamming
from seqcf.metrics import (
    NULL_ITEM,
    aggregate_report,
    levenshtein_batch,
    mean_levenshtein,
    merge_seed_reports,
    write_report_json,
)
from seqcf.models import ScoreVector
from seqcf.records import ExplanationRecord

from conftest import CountingScorer, EchoScorer

short_seq = st.lists(st.integers(0, 5), min_size=0, max_size=8).map(tuple)


def brute_levenshtein(a, b):
    """Independent oracle: plain recursive definition with memoization."""

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return rec(len(a), len(b))


class TestFidelity:
    @pytest.mark.parametrize(
        "k,expected", [(1, 1.0), (2, 1.0), (3, pytest.approx(2 / 3))]
    )
    def test_formula_on_raw_scores(self, k, expected):
        assert fidelity_at_k([0.7, 0.6, 0.4], k, 0.5) == expected

    def test_all_above_threshold_is_one(self):
        assert fidelity_at_k([0.9, 0.8, 0.7], 3, 0.5) == 1.0

    def test_none_above_threshold_is_zero(self):
        assert fidelity_at_k([0.3, 0.2, 0.1], 3, 0.5) == 0.0

    def test_accepts_score_vector(self):
        sv = ScoreVector(np.log(np.array([0.5, 0.3, 0.2])))
        assert fidelity_at_k(sv, 1, 0.4) == 1.0

    def test_monotone_non_increasing_in_k(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            sv = ScoreVector(rng.normal(size=10))
            values = [fidelity_at_k(sv, k, 0.08) for k in range(1, 11)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            fidelity_at_k([0.5, 0.5], 3, 0.5)


class TestHamming:
    def test_identical(self):
        assert hamming((1, 2, 3), (1, 2, 3)) == 0

    def test_single_position(self):
        assert hamming((1, 2, 3), (1, 5, 3)) == 1

    def test_padding_rule(self):
        # (1,2,3) vs (2,3): right-align pads to (NULL,2,3), one mismatch
        assert hamming((1, 2, 3), (2, 3)) == 1
        assert hamming((2, 3), (1, 2, 3)) == 1

    @given(short_seq, short_seq, short_seq)
    def test_metric_axioms(self, a, b, c):
        assert hamming(a, a) == 0
        assert hamming(a, b) == hamming(b, a)
        if len(a) == len(b) == len(c):
            assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,d",
        [
            ((1, 2, 3), (1, 2, 3), 0),
            ((1, 2, 3), (1, 3), 1),
            ((1, 2, 3), (4, 5, 6), 3),
            ((), (1, 2), 2),
        ],
    )
    def test_examples(self, a, b, d):
        assert levenshtein(a, b) == d

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a = tuple(rng.integers(0, 6, size=rng.integers(0, 9)).tolist())
            b = tuple(rng.integers(0, 6, size=rng.integers(0, 9)).tolist())
            assert levenshtein(a, b) == brute_levenshtein(a, b)

    @given(short_seq, short_seq)
    def test_axioms(self, a, b):
        assert (levenshtein(a, b) == 0) == (a == b)
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_seq, short_seq)
    def test_bounded_by_hamming_on_equal_lengths(self, a, b):
        if len(a) == len(b):
            assert levenshtein(a, b) <= hamming(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([5, 0, 1, 63, 64, 65, 130]),
        st.lists(short_seq | st.lists(st.integers(0, 6), max_size=140).map(tuple), min_size=1, max_size=12),
    )
    def test_batch_agrees_with_scalar(self, n, cands):
        # sources past 64 items span several bit-vector words; items repeat
        # in source and rows, and 6 is never in the source; n = 0 is empty
        source = tuple(range(5)) if n == 5 else tuple(np.random.default_rng(n).integers(0, 6, size=n).tolist())
        cands = [c if c else (9,) for c in cands]
        width = max(len(c) for c in cands)
        rows = np.full((len(cands), width), NULL_ITEM, dtype=np.int64)
        lengths = np.array([len(c) for c in cands])
        for i, c in enumerate(cands):
            rows[i, : len(c)] = c
        got = levenshtein_batch(source, rows, lengths)
        assert got.tolist() == [levenshtein(source, c) for c in cands]


def _record(user, cf):
    setting = SettingSpec.from_name("un_un")
    return ExplanationRecord(
        user=user,
        method="gece",
        setting=setting,
        source=(1, 2, 3),
        counterfactual=cf,
        generation_found=1 if cf else None,
        seed=0,
    )


class TestAggregates:
    def test_mean_hamming(self):
        recs = [_record(u, (1, 2, 4)) for u in (1, 2, 3)]
        assert mean_hamming(recs) == 1.0
        recs = [_record(1, (1, 2, 4)), _record(2, (1, 5, 4))]
        assert mean_hamming(recs) == 1.5

    def test_mean_hamming_excludes_absent(self):
        recs = [_record(1, (1, 2, 4)), _record(2, None)]
        assert mean_hamming(recs) == 1.0
        assert mean_levenshtein(recs) == 1.0

    def test_mean_hamming_all_absent_is_error(self):
        with pytest.raises(ValueError):
            mean_hamming([_record(1, None)])

    def test_aggregate_report_scores_each_sequence_once(self):
        # two found records at three k: each source and counterfactual is scored once
        model = CountingScorer(EchoScorer(12))
        recs = [_record(1, (1, 2, 4)), _record(2, (1, 5, 3)), _record(3, None)]
        rows = aggregate_report(recs, model, [1, 5, 10], 0.5)
        assert sorted(model.calls) == [(1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 5, 3)]
        assert [r["k"] for r in rows] == [1, 5, 10]
        assert all(r["mean_hamming"] == 1.0 and r["mean_levenshtein"] == 1.0 and r["n_users"] == 3 for r in rows)
        # the echo model recommends the last item: (1, 2, 4) flips the source's top-1 (3), (1, 5, 3) does not
        assert rows[0]["valid_fraction"] == pytest.approx(1 / 3)
        assert rows[0]["fidelity"] == pytest.approx(2 / 3)

    def test_json_report_writes_null_for_an_undefined_mean(self, tmp_path):
        # no record has a counterfactual: both mean distances are NaN, which JSON has no literal for
        rows = aggregate_report([_record(1, None)], EchoScorer(12), [1, 5], 0.5)
        assert all(math.isnan(r["mean_hamming"]) and math.isnan(r["mean_levenshtein"]) for r in rows)
        write_report_json(tmp_path / "r.json", rows, {"command": "evaluate"})
        doc = json.loads((tmp_path / "r.json").read_text(), parse_constant=pytest.fail)
        assert [(r["mean_hamming"], r["mean_levenshtein"], r["valid_fraction"]) for r in doc["rows"]] == [
            (None, None, 0.0), (None, None, 0.0)
        ]

    def test_merge_seed_reports(self):
        row = {
            "method": "gece",
            "setting": "un_un",
            "dataset": "d",
            "model": "m",
            "k": 1,
            "n_users": 4,
        }
        reports = [
            [dict(row, seed=s, fidelity=f, mean_hamming=1.0, mean_levenshtein=1.0, valid_fraction=v)]
            for s, f, v in [(0, 1.0, 1.0), (1, 0.5, 0.5), (2, 0.75, 0.75)]
        ]
        merged = merge_seed_reports(reports)
        assert len(merged) == 1
        out = merged[0]
        assert out["fidelity_seed0"] == 1.0
        assert out["fidelity_seed1"] == 0.5
        assert out["fidelity_mean"] == pytest.approx(0.75)
        assert out["valid_fraction_mean"] == pytest.approx(0.75)

    def test_merge_refuses_seeds_of_unequal_user_counts(self):
        row = dict(method="gece", setting="un_un", dataset="d", model="m", k=1, fidelity=1.0,
                   mean_hamming=1.0, mean_levenshtein=1.0, valid_fraction=1.0)
        other = dict(row, k=5)
        # another row may hold another count
        assert len(merge_seed_reports([[dict(row, seed=0, n_users=3), dict(other, seed=0, n_users=5)],
                                       [dict(row, seed=1, n_users=3), dict(other, seed=1, n_users=5)]])) == 2
        want = ("seed 0 has 3 users but seed 1 has 5 for row (method, setting, dataset, model, k) = "
                "('gece', 'un_un', 'd', 'm', '1')")
        with pytest.raises(ValueError, match=re.escape(want)):
            merge_seed_reports([[dict(row, seed=0, n_users=3)], [dict(row, seed=1, n_users=5)]])

    def test_merge_refuses_a_seed_given_twice_for_a_row(self):
        row = dict(method="gece", setting="un_un", dataset="d", model="m", k=1, n_users=3, fidelity=1.0,
                   mean_hamming=1.0, mean_levenshtein=1.0, valid_fraction=1.0)
        other = dict(row, k=5)
        assert len(merge_seed_reports([[dict(row, seed=0)], [dict(other, seed=0)]])) == 2
        want = "seed 0 given twice for row (method, setting, dataset, model, k) = ('gece', 'un_un', 'd', 'm', '1')"
        with pytest.raises(ValueError, match=re.escape(want)):
            merge_seed_reports([[dict(row, seed=0), dict(other, seed=0)], [dict(row, seed=0, n_users=5)]])
