import hashlib
import re
from functools import partial
from itertools import permutations

import numpy as np
import pytest

from seqcf import (
    GaConfig,
    UserSequence,
    explain,
    genetic,
    levenshtein,
    objective_loss,
    oracle_optimal,
    train_markov,
    verify_eps_vcs,
)
from seqcf import models, search
from seqcf.cli import main
from seqcf.core import CategoryMap, derive_stream
from seqcf.metrics import NULL_ITEM
from seqcf.models import LOGIT_MARGIN, PopularityScorer, ScoreVector, top_k, unique_argmax
from seqcf.objective import SettingSpec, is_valid, settled_invalid
from seqcf.search import (
    MUTATION_KINDS,
    _ga_results,
    _harvest,
    _radius1_best,
    _earliest_copies,
    _row_keys,
    _RowEvaluator,
    apply_edits,
    crossover_rows,
    mutate_rows,
    radius1_ball,
    radius1_size,
)

from conftest import ConstScorer, EchoScorer, QueuedRng, TableScorer, overlapping_categories, seqs
from reference import (
    crossover,
    distinct_first_copies,
    fitness,
    mutate_add,
    mutate_delete,
    mutate_replace,
    unscreened_valid,
)


def chi_square(counts, expected):
    return sum((c - expected) ** 2 / expected for c in counts)


class TestMutateReplace:
    def test_uniform_over_position_and_item(self):
        rng = derive_stream(7, [1])
        outcomes = {}
        for _ in range(9000):
            out = mutate_replace((0, 1, 2), 6, rng)
            outcomes[out] = outcomes.get(out, 0) + 1
        # 3 positions x 3 unseen items = 9 equally likely results
        assert len(outcomes) == 9
        assert chi_square(outcomes.values(), 1000) < 26.12  # chi2(8), p=0.001

    def test_catalog_exhausted(self):
        with pytest.raises(ValueError, match="exhausted"):
            mutate_replace((0, 1, 2), 3, derive_stream(0, [1]))

    def test_shape_preserved(self):
        rng = derive_stream(3, [1])
        for _ in range(200):
            out = mutate_replace((4, 1, 7, 2), 9, rng)
            assert len(out) == 4
            assert len(set(out)) == 4


class TestMutateAdd:
    def test_inserts_at_position(self):
        out = mutate_add((0, 1), 4, QueuedRng(integers=[1, 2]))
        assert out == (0, 2, 1)

    def test_overflow_drops_oldest(self):
        out = mutate_add((0, 1, 2), 5, QueuedRng(integers=[3, 4]), max_len=3)
        assert out == (1, 2, 4)

    def test_length_rule(self):
        rng = derive_stream(5, [2])
        for _ in range(200):
            base = (3, 8, 5)
            out = mutate_add(base, 12, rng, max_len=4)
            assert len(out) == min(len(base) + 1, 4)
            assert len(set(out)) == len(out)


class TestMutateDelete:
    def test_uniform_over_positions(self):
        rng = derive_stream(11, [3])
        counts = {0: 0, 1: 0, 2: 0}
        for _ in range(9000):
            out = mutate_delete((5, 6, 7), rng)
            gone = ({5, 6, 7} - set(out)).pop()
            counts[{5: 0, 6: 1, 7: 2}[gone]] += 1
        assert chi_square(counts.values(), 3000) < 13.82  # chi2(2), p=0.001

    def test_length_one_rejected(self):
        with pytest.raises(ValueError):
            mutate_delete((5,), derive_stream(0, [1]))

    def test_order_preserved(self):
        rng = derive_stream(2, [4])
        for _ in range(100):
            out = mutate_delete((1, 2, 3, 4), rng)
            assert list(out) == sorted(out)


class TestCrossover:
    def test_single_cut_example(self):
        c1, c2 = crossover((0, 1), (2, 3), QueuedRng(integers=[1, 1]))
        assert c1 == (0, 3)
        assert c2 == (2, 1)

    def test_duplicate_repair_drops_later(self):
        c1, c2 = crossover((0, 1), (1, 2), QueuedRng(integers=[2, 1]))
        # child1 = (0,1)+(2,) ok; child2 = (1,)+(1,) repaired to (1,)
        assert c1 == (0, 1, 2)
        assert c2 == (1,)

    def test_children_never_contain_duplicates(self):
        rng = derive_stream(9, [5])
        for _ in range(300):
            p1 = tuple(rng.permutation(12)[: rng.integers(1, 7)].tolist())
            p2 = tuple(rng.permutation(12)[: rng.integers(1, 7)].tolist())
            for child in crossover(p1, p2, rng, max_len=8):
                assert 1 <= len(child) <= 8
                assert len(set(child)) == len(child)


def scalar_mutants(items, m, max_len, weights=(1.0, 1.0, 1.0)):
    """Every outcome the scalar operators can give `items`, by kind."""
    unseen = [z for z in range(m) if z not in items]
    out = {"replace": set(), "add": set(), "delete": set()}
    if weights[0] > 0:
        for i in range(len(items)):
            for z in unseen:
                out["replace"].add(mutate_replace(items, m, QueuedRng(integers=[i, z])))
    if weights[1] > 0:
        for i in range(len(items) + 1):
            for z in unseen:
                out["add"].add(mutate_add(items, m, QueuedRng(integers=[i, z]), max_len))
    if weights[2] > 0 and len(items) > 1:
        for i in range(len(items)):
            out["delete"].add(mutate_delete(items, QueuedRng(integers=[i])))
    return out


def as_rows(seqs_, width=None):
    width = width or max(len(x) for x in seqs_)
    rows = np.full((len(seqs_), width), NULL_ITEM, dtype=np.int64)
    for i, x in enumerate(seqs_):
        rows[i, : len(x)] = x
    return rows, np.array([len(x) for x in seqs_], dtype=np.int64)


def row_tuples(rows, lengths):
    assert rows.shape[1] == (lengths.max() if len(lengths) else 0)
    out = []
    for row, n in zip(rows, lengths):
        assert (row[n:] == NULL_ITEM).all()
        out.append(tuple(int(x) for x in row[:n]))
    return out


class TestMutateRows:
    @pytest.mark.parametrize(
        "items, m, max_len, weights",
        [
            ((0, 1, 2), 6, 5, (1.0, 1.0, 1.0)),
            ((0, 1, 2), 5, 3, (1.0, 1.0, 1.0)),  # adds overflow and drop the oldest
            ((4,), 6, 5, (1.0, 1.0, 1.0)),  # delete does not apply
            ((2, 0, 1), 3, 3, (1.0, 1.0, 1.0)),  # no unseen item: only delete applies
            ((3, 1), 5, 4, (0.0, 2.0, 1.0)),
        ],
    )
    def test_support_matches_scalar(self, items, m, max_len, weights):
        rows, lengths = as_rows([items] * 3000)
        out = row_tuples(*mutate_rows(rows, lengths, m, weights, max_len, derive_stream(1, [9])))
        support = set().union(*scalar_mutants(items, m, max_len, weights).values())
        assert len(out) == 3000
        assert set(out) == support
        for x in out:
            assert 1 <= len(x) <= max_len and len(set(x)) == len(x)

    def test_mixed_batch_mutates_each_row_once(self):
        rng = derive_stream(4, [2])
        parents = [tuple(rng.permutation(15)[: rng.integers(1, 9)].tolist()) for _ in range(400)]
        rows, lengths = as_rows(parents, width=10)
        out = row_tuples(*mutate_rows(rows, lengths, 15, (1.0, 1.0, 1.0), 8, rng))
        assert len(out) == len(parents)
        for parent, child in zip(parents, out):
            assert child in set().union(*scalar_mutants(parent, 15, 8).values())

    def test_rows_without_an_applicable_kind_are_skipped(self):
        rows, lengths = as_rows([(3,), (0, 1), (2, 4, 1)])
        out = row_tuples(*mutate_rows(rows, lengths, 5, (0.0, 0.0, 1.0), 5, derive_stream(0, [1])))
        assert len(out) == 2  # a length-1 row cannot lose its item
        rows, lengths = as_rows([(0, 1)])
        assert len(mutate_rows(rows, lengths, 2, (1.0, 1.0, 0.0), 5, derive_stream(0, [1]))[1]) == 0

    def test_replace_uniform_over_position_and_item(self):
        rows, lengths = as_rows([(0, 1, 2)] * 9000)
        out = row_tuples(*mutate_rows(rows, lengths, 6, (1.0, 0.0, 0.0), 5, derive_stream(7, [1])))
        counts = {}
        for x in out:
            counts[x] = counts.get(x, 0) + 1
        # 3 positions x 3 unseen items = 9 equally likely results
        assert set(counts) == scalar_mutants((0, 1, 2), 6, 5, (1.0, 0.0, 0.0))["replace"]
        assert chi_square(counts.values(), 1000) < 26.12  # chi2(8), p=0.001

    def test_add_uniform_over_slot_and_item(self):
        rows, lengths = as_rows([(0, 1)] * 6000)
        out = row_tuples(*mutate_rows(rows, lengths, 4, (0.0, 1.0, 0.0), 5, derive_stream(8, [1])))
        counts = {}
        for x in out:
            counts[x] = counts.get(x, 0) + 1
        # 3 slots x 2 unseen items = 6 equally likely results
        assert set(counts) == scalar_mutants((0, 1), 4, 5, (0.0, 1.0, 0.0))["add"]
        assert chi_square(counts.values(), 1000) < 20.52  # chi2(5), p=0.001

    def test_delete_uniform_over_positions(self):
        rows, lengths = as_rows([(5, 6, 7)] * 9000)
        out = row_tuples(*mutate_rows(rows, lengths, 9, (0.0, 0.0, 1.0), 5, derive_stream(11, [3])))
        counts = {0: 0, 1: 0, 2: 0}
        for x in out:
            counts[{5: 0, 6: 1, 7: 2}[({5, 6, 7} - set(x)).pop()]] += 1
        assert chi_square(counts.values(), 3000) < 13.82  # chi2(2), p=0.001

    def test_kind_follows_mutation_weights(self):
        rows, lengths = as_rows([(0, 1, 2)] * 6000)
        out = mutate_rows(rows, lengths, 50, (1.0, 2.0, 3.0), 10, derive_stream(3, [3]))[1]
        # length tells the kind: 3 replace, 4 add, 2 delete
        counts = [int((out == 3).sum()), int((out == 4).sum()), int((out == 2).sum())]
        expected = [1000, 2000, 3000]
        assert sum((c - e) ** 2 / e for c, e in zip(counts, expected)) < 13.82  # chi2(2), p=0.001


class TestApplyEdits:
    @pytest.mark.parametrize("max_len", [3, 4, 6])
    def test_matches_scalar_operators(self, max_len):
        # every (kind, position, unseen item) of NULL-padded rows of mixed
        # lengths in one batch; at max_len 3 and 4 a row at max_len makes
        # each of its adds overflow
        m = 6
        replace, add, delete = (MUTATION_KINDS.index(k) for k in ("replace", "add", "delete"))
        cases, expected = [], []
        for parent in [p for p in [(3,), (0, 4), (5, 1, 2), (2, 0, 4, 1)] if len(p) <= max_len]:
            for z in sorted(set(range(m)) - set(parent)):
                for i in range(len(parent)):
                    cases.append((parent, replace, i, z))
                    expected.append(mutate_replace(parent, m, QueuedRng(integers=[i, z])))
                for i in range(len(parent) + 1):
                    cases.append((parent, add, i, z))
                    expected.append(mutate_add(parent, m, QueuedRng(integers=[i, z]), max_len))
            for i in range(len(parent) if len(parent) >= 2 else 0):
                cases.append((parent, delete, i, NULL_ITEM))
                expected.append(mutate_delete(parent, QueuedRng(integers=[i])))
        rows, _ = as_rows([parent for parent, *_ in cases], width=m)
        kind, pos, item = (np.array([case[j] for case in cases]) for j in (1, 2, 3))
        assert row_tuples(*apply_edits(rows, kind, pos, item, max_len)) == expected


def crossed(rows, lengths, a, b, rng, max_len, m):
    """`crossover_rows` into a NULL-filled buffer of its widest bound; the children as tuples."""
    out = np.full((2 * len(a), min(max_len, 2 * rows.shape[1] - 1)), NULL_ITEM, dtype=np.int64)
    kid_lengths = crossover_rows(rows, lengths, a, b, rng, max_len, m, out)
    assert (out[:, kid_lengths.max() :] == NULL_ITEM).all()
    return row_tuples(out[:, : kid_lengths.max()], kid_lengths)


class TestCrossoverRows:
    @pytest.mark.parametrize("m", [2, 3, 7, 40])
    @pytest.mark.parametrize("max_len", [1, 3, None, 50], ids=["1", "3", "m-1", "50"])
    def test_matches_scalar_on_every_cut(self, m, max_len):
        # random duplicate-free parent pairs, and a pair whose head prefix
        # holds every tail item; at max_len 1 and 3 long children overflow
        max_len = max_len or m - 1
        rng = derive_stream(m, [max_len])
        pairs = [(tuple(range(m)), tuple(range(m))[::-1])]
        pairs += [tuple(tuple(rng.permutation(m)[: rng.integers(1, m + 1)].tolist()) for _ in "ab") for _ in range(12)]
        rows, lengths = as_rows([parent for pair in pairs for parent in pair])
        cases = [
            (2 * j, 2 * j + 1, c1, c2)
            for j, (p1, p2) in enumerate(pairs)
            for c1 in range(1, len(p1) + 1)
            for c2 in range(1, len(p2) + 1)
        ]
        a, b, cut_a, cut_b = (np.array(column) for column in zip(*cases))
        out = crossed(rows, lengths, a, b, QueuedRng(integers=[cut_a, cut_b]), max_len, m)
        for j, (i, _, c1, c2) in enumerate(cases):
            p1, p2 = pairs[i // 2]
            assert (out[j], out[len(cases) + j]) == crossover(p1, p2, QueuedRng(integers=[c1, c2]), max_len)

    def test_cuts_uniform_and_children_paired(self):
        rows, lengths = as_rows([(0, 1, 2), (3, 4, 5)])
        first, second = np.zeros(9000, dtype=np.int64), np.ones(9000, dtype=np.int64)
        out = crossed(rows, lengths, first, second, derive_stream(5, [5]), 8, 6)
        support = {
            crossover((0, 1, 2), (3, 4, 5), QueuedRng(integers=[a, b]), 8)
            for a in range(1, 4)
            for b in range(1, 4)
        }
        counts = {}
        for pair in zip(out[:9000], out[9000:]):
            counts[pair] = counts.get(pair, 0) + 1
        assert set(counts) == support
        assert chi_square(counts.values(), 1000) < 26.12  # chi2(8), p=0.001

    def test_children_never_contain_duplicates(self):
        rng = derive_stream(9, [5])
        p1 = [tuple(rng.permutation(12)[: rng.integers(1, 7)].tolist()) for _ in range(300)]
        p2 = [tuple(rng.permutation(12)[: rng.integers(1, 7)].tolist()) for _ in range(300)]
        out = crossed(*as_rows(p1 + p2), np.arange(300), np.arange(300, 600), rng, 8, 12)
        for j, (a, b) in enumerate(zip(p1, p2)):
            support = {
                crossover(a, b, QueuedRng(integers=[c1, c2]), 8)
                for c1 in range(1, len(a) + 1)
                for c2 in range(1, len(b) + 1)
            }
            assert (out[j], out[300 + j]) in support
            for child in (out[j], out[300 + j]):
                assert 1 <= len(child) <= 8
                assert len(set(child)) == len(child)

    @pytest.mark.parametrize("max_len", [4, 9])
    def test_overflowing_children_written_into_a_pool(self, max_len):
        # parents no longer than max_len, as in the search, whose children
        # reach 2 * max_len - 1 cells before repair and overflow
        m, n = 40, 400
        rng = derive_stream(3, [max_len])
        parents = [tuple(rng.permutation(m)[: rng.integers(1, max_len + 1)].tolist()) for _ in range(n)]
        rows, lengths = as_rows(parents)
        a, b = np.arange(n // 2), np.arange(n // 2, n)
        cut_a, cut_b = rng.integers(1, lengths[a] + 1), rng.integers(1, lengths[b] + 1)
        pool = np.full((2 * n, 2 * max_len - 1), NULL_ITEM, dtype=np.int64)
        pool[:n, : rows.shape[1]] = rows
        kid_lengths = crossover_rows(pool[:n], lengths, a, b, QueuedRng(integers=[cut_a, cut_b]), max_len, m, pool[n:])
        assert np.array_equal(pool[:n, : rows.shape[1]], rows) and (pool[:n, rows.shape[1]:] == NULL_ITEM).all()
        width = kid_lengths.max()
        assert (pool[n:, width:] == NULL_ITEM).all()
        out = row_tuples(pool[n:, :width], kid_lengths)
        overflowed = 0
        for j in range(n // 2):
            p1, p2 = parents[j], parents[n // 2 + j]
            assert (out[j], out[n // 2 + j]) == crossover(p1, p2, QueuedRng(integers=[cut_a[j], cut_b[j]]), max_len)
            overflowed += len(set(p1[: cut_a[j]] + p2[cut_b[j]:])) > max_len
            overflowed += len(set(p2[: cut_b[j]] + p1[cut_a[j]:])) > max_len
        assert overflowed >= 20


class TestRowEvaluator:
    SETTINGS = [
        SettingSpec.from_name("un_un", threshold=0.2),
        SettingSpec.from_name("un_un", threshold=0.2, untargeted_rank_rule="top1_change"),
        SettingSpec.from_name("targ_un", target_item=5, threshold=0.1),
        SettingSpec.from_name("un_cat", threshold=0.2),
        SettingSpec.from_name("targ_cat", target_category=1, threshold=0.1),
    ]

    @pytest.mark.parametrize("scorer", ["markov", "const", "echo"])
    @pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s.name + "-" + s.untargeted_rank_rule)
    # k = 1 takes the argmax path, k > 1 `top_k_rows`; the const and echo
    # scorers tie every item but one, so the k-th score is tied across the cut
    @pytest.mark.parametrize("k", [1, 3, 10, 12])
    def test_matches_scalar_references(self, walk_markov, scorer, setting, k):
        model = {"markov": walk_markov, "const": ConstScorer(12), "echo": EchoScorer(12)}[scorer]
        cats = overlapping_categories(12)
        cfg = GaConfig(population_size=8, edit_weight=0.3, max_len=8)
        source = (0, 1, 2, 3)
        rng = derive_stream(2, [7])
        cands = [source] + [tuple(rng.permutation(12)[: rng.integers(1, 9)].tolist()) for _ in range(150)]
        rows, lengths = as_rows(cands)
        evaluate = partial(row_results, _RowEvaluator(model, setting, source, k, cats, cfg.max_len), cfg)
        results = evaluate(rows, lengths)
        fit, loss, lev, valid = results
        src_scores = model.score(source)
        for i, cand in enumerate(cands):
            cand_scores = model.score(cand)
            assert lev[i] == levenshtein(source, cand)
            assert loss[i] == objective_loss(setting, src_scores, cand_scores, cats)
            assert fit[i] == fitness(source, src_scores, cand, cand_scores, setting, 0.3, 8, cats)
            assert valid[i] == is_valid(setting, src_scores, cand_scores, k, cats)
        # a row's results do not depend on the rest of its batch: reversed,
        # or split in two (each half padded to its own longest row)
        again = evaluate(rows[::-1], lengths[::-1])
        halves = [evaluate(*as_rows(part)) for part in (cands[:70], cands[70:])]
        for got, back, head, tail in zip(results, again, *halves):
            assert np.array_equal(back, got[::-1])
            assert np.array_equal(np.concatenate([head, tail]), got)

    @pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s.name + "-" + s.untargeted_rank_rule)
    @pytest.mark.parametrize("k", [1, 3])
    def test_blocks_match_one_batch(self, walk_markov, setting, k, monkeypatch):
        cats = overlapping_categories(12)
        cfg = GaConfig(population_size=8, edit_weight=0.3, max_len=8)
        rng = derive_stream(5, [7])
        rows, lengths = as_rows([tuple(rng.permutation(12)[: rng.integers(1, 9)].tolist()) for _ in range(100)])
        evaluate = _RowEvaluator(walk_markov, setting, (0, 1, 2, 3), k, cats, cfg.max_len)
        set_block_rows(monkeypatch, 12, len(lengths))
        whole = row_results(evaluate, cfg, rows, lengths)
        for block_rows in (1, 7, len(lengths)):
            set_block_rows(monkeypatch, 12, block_rows)
            for got, want in zip(row_results(evaluate, cfg, rows, lengths), whole):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s.name + "-" + s.untargeted_rank_rule)
    def test_cached_scorer_arrays_stay_unwritten(self, walk_markov, setting, monkeypatch):
        cats = overlapping_categories(12)
        cfg = GaConfig(population_size=8, edit_weight=0.3, max_len=8)
        rng = derive_stream(6, [7])
        rows, lengths = as_rows([tuple(rng.permutation(12)[: rng.integers(1, 9)].tolist()) for _ in range(40)])
        want = row_results(_RowEvaluator(walk_markov, setting, (0, 1, 2, 3), 3, cats, cfg.max_len), cfg, rows, lengths)
        memo = MemoScorer(walk_markov)
        evaluate = _RowEvaluator(memo, setting, (0, 1, 2, 3), 3, cats, cfg.max_len)
        for block_rows in (len(lengths), 7, len(lengths), 7):  # the second pass is served from the cache
            set_block_rows(monkeypatch, 12, block_rows)
            kept = {key: logits.copy() for key, logits in memo.cache.items()}
            for got, expected in zip(row_results(evaluate, cfg, rows, lengths), want):
                assert np.array_equal(got, expected)
            assert all(np.array_equal(memo.cache[key], logits) for key, logits in kept.items())
        assert memo.hits > 0

    @pytest.mark.parametrize("scorer", ["markov", "popularity"])
    def test_source_top1_matches_scalar_top_k(self, scorer):
        # the search ranks the source on the rows' path; the judges' scalar
        # top_k is the reference. Frequencies in {0, 1, 2} and few, doubled
        # training sequences make many items share the top score, where the
        # lowest id must win
        rng = np.random.default_rng(11)
        setting = SettingSpec.from_name("un_un")
        tied = 0
        for _ in range(300):
            m = int(rng.integers(2, 30))
            if scorer == "popularity":
                model = PopularityScorer(frequency=rng.integers(0, 3, size=m))
            else:
                walks = [tuple(rng.permutation(m)[: rng.integers(1, 4)].tolist()) for _ in range(rng.integers(1, 4))]
                model = train_markov(seqs(dict(enumerate(walks + walks, 1))), m)
            source = tuple(rng.permutation(m)[: rng.integers(1, m)].tolist())
            scores = model.score(source)
            assert _RowEvaluator(model, setting, source, 1, None, m).source_top1 == top_k(scores, 1)[0]
            tied += np.count_nonzero(scores.normalized == scores.normalized.max()) > 1
        assert tied >= 100


class TestWeightedColumnLoss:
    """The loss divides only the weighted columns by the row sum; its bits are the full softmax's.

    References: `np.vecdot` of the fully normalized block with the weights,
    and the scalar `objective_loss` of each row, on a Markov scorer that
    masks each row's items (-inf cells, which include weighted columns).
    """

    M = 150
    CATS = overlapping_categories(M)  # items 0, 4, 8, ... carry two categories

    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(31)
        return train_markov(seqs({u: tuple(rng.permutation(self.M)[: rng.integers(2, 20)].tolist())
                                  for u in range(1, 400)}), self.M)

    def assert_same_bits(self, monkeypatch, model, setting, source, cats, seed=0):
        rng = derive_stream(seed, [len(source)])
        cands = [source] + [tuple(rng.permutation(self.M)[: rng.integers(1, 30)].tolist()) for _ in range(300)]
        rows, lengths = as_rows(cands)
        evaluate = _RowEvaluator(model, setting, source, 10, cats, 49)
        mass = np.vecdot(search.softmax(search.score_batch_logits(model, rows, lengths)), evaluate.weights)
        want = 1.0 - mass if evaluate.targeted_loss else mass
        for block_rows in (1, 7, len(cands)):  # one-row blocks, a ragged last block, one block
            set_block_rows(monkeypatch, self.M, block_rows)
            assert evaluate.loss(rows, lengths).tobytes() == want.tobytes()
        src_scores = model.score(source)
        assert [objective_loss(setting, src_scores, model.score(c), cats) for c in cands] == want.tolist()
        return evaluate

    @pytest.mark.parametrize("setting", [
        SettingSpec.from_name("un_un"),
        SettingSpec.from_name("targ_un", target_item=7),
        SettingSpec.from_name("un_cat"),
        SettingSpec.from_name("targ_cat", target_category=1),
    ], ids=lambda s: s.name)
    def test_four_regimes(self, model, setting, monkeypatch):
        evaluate = self.assert_same_bits(monkeypatch, model, setting, (3, 1, 4, 15, 9, 2, 6), self.CATS)
        assert 0 < len(evaluate.weighted) < self.M

    def test_un_cat_top1_in_two_categories(self, model, monkeypatch):
        rng = derive_stream(4, [1])
        while True:  # a source whose top-1 carries two categories
            source = tuple(rng.permutation(self.M)[:6].tolist())
            evaluate = _RowEvaluator(model, SettingSpec.from_name("un_cat"), source, 10, self.CATS, 49)
            if len(self.CATS.of(evaluate.source_top1)) == 2:
                break
        # an item sharing both categories is weighed once: membership is boolean
        shares = [i for i in range(self.M) if self.CATS.of(i) & self.CATS.of(evaluate.source_top1)]
        assert evaluate.weighted.tolist() == shares and set(evaluate.weights[shares]) == {1.0}
        assert any(self.CATS.of(i) == self.CATS.of(evaluate.source_top1) for i in shares if i != evaluate.source_top1)
        self.assert_same_bits(monkeypatch, model, SettingSpec.from_name("un_cat"), source, self.CATS)

    def test_one_hot_category(self, model, monkeypatch):
        # category 3 holds item 5 alone, so the targeted weights are one-hot
        cats = CategoryMap(categories_of=tuple(c | ({3} if i == 5 else set()) for i, c in
                                               enumerate(self.CATS.categories_of)), num_categories=4)
        setting = SettingSpec.from_name("targ_cat", target_category=3)
        evaluate = self.assert_same_bits(monkeypatch, model, setting, (3, 1, 4, 15, 9, 2, 6), cats)
        assert evaluate.weighted.tolist() == [5]


D = LOGIT_MARGIN
NEG = -np.inf


def peaked(m, item):
    """Source scores whose top-1 is `item`."""
    return ScoreVector(np.where(np.arange(m) == item, 1.0, 0.0))


def judge_crafted(setting, logits, source_top1, k, cats=None):
    """`search._valid` of one row per crafted logit row; it must equal the unscreened judge and `is_valid`."""
    logits = np.asarray(logits, dtype=float)
    model = TableScorer(logits)
    rows, lengths = as_rows([(i,) for i in range(len(logits))])
    got = search._valid(model, setting, source_top1, rows, lengths, k, cats).tolist()
    assert got == unscreened_valid(model, setting, source_top1, rows, lengths, k, cats).tolist()
    sources = np.broadcast_to(source_top1, len(logits))
    m = logits.shape[1]
    assert got == [is_valid(setting, peaked(m, s), ScoreVector(row), k, cats) for s, row in zip(sources, logits)]
    return got


def settled(setting, logits, source_top1, cats=None):
    logits = np.asarray(logits, dtype=float)
    return settled_invalid(setting, np.broadcast_to(source_top1, len(logits)), logits, cats).tolist()


class TestLogitScreen:
    """`search._valid` settles rows on their logits alone (`objective.settled_invalid`) and judges the rest.

    Every crafted case is checked against the scalar `is_valid` and against
    the unscreened judge (`reference.unscreened_valid`), and names the rows
    the screen settles, so each cut is exercised from both sides.
    """

    CATS6 = CategoryMap(  # category 1 holds items 2 and 4; category 2 holds none
        categories_of=tuple(frozenset({1}) if i in (2, 4) else frozenset({0}) for i in range(6)), num_categories=3
    )

    @pytest.mark.parametrize("t", [0.6, 0.9])
    @pytest.mark.parametrize("name", ["targ_un", "targ_cat"])
    def test_target_holding_the_peak_is_not_cut_above_one_half(self, t, name):
        kw = {"target_item": 2} if name == "targ_un" else {"target_category": 1}
        setting = SettingSpec.from_name(name, threshold=t, **kw)
        logits = [[0, 0, 5, 0, 0, 0], [0, 0, 1, 0, 0, 0], [3, 0, 0, 0, 0, 0]]
        assert settled(setting, logits, 0, self.CATS6) == [False, False, True]
        assert judge_crafted(setting, logits, 0, 1, self.CATS6) == [True, False, False]
        # a cut of ln(t / (1 - t)) alone would have settled the valid first row
        assert logits[0][2] - max(logits[0]) < np.log(t / (1 - t))

    def test_target_near_the_cut(self):
        t = 0.05
        c = np.log(t / (1 - t))
        setting = SettingSpec.from_name("targ_un", target_item=1, threshold=t)
        logits = [[0, c - D / 2, NEG, NEG], [0, c - 2 * D, NEG, NEG], [0, c + D / 2, NEG, NEG]]
        assert settled(setting, logits, 3) == [False, True, False]
        assert judge_crafted(setting, logits, 3, 2) == [False, False, True]

    def test_near_ties_at_the_peak(self):
        setting = SettingSpec.from_name("un_un", threshold=0.2)
        logits = [
            [1, 1 - D / 2, 0, 0],  # inside the margin: judged, the source keeps the top
            [1, 1 - 2 * D, 0, 0],  # outside it: settled
            [1, 1, 0, 0],  # an exact tie goes to the lower id, the source
            [1 - D / 2, 1, 0, 0],
            [1, np.nextafter(1, 2), 0, 0],  # one ulp apart
        ]
        assert settled(setting, logits, 0) == [False, True, False, False, False]
        assert judge_crafted(setting, logits, 0, 1) == [False, False, False, True, True]
        rows, lengths = as_rows([(i,) for i in range(len(logits))])
        want = [top_k(ScoreVector(np.array(row, dtype=float)), 1)[0] for row in logits]
        assert search._source_top1(TableScorer(logits), rows, lengths).tolist() == want
        assert unique_argmax(np.array(logits, dtype=float))[1].tolist() == [False, True, False, False, False]

    def test_rank_check_at_a_low_threshold(self):
        # t = 0.05 at k = 10: t (k + 1) <= 1, so a target clearing t still needs its rank
        setting = SettingSpec.from_name("targ_un", target_item=11, threshold=0.05)
        far, behind, ahead = np.full(14, np.log(0.03)), np.full(14, np.log(0.055)), np.full(14, np.log(0.08))
        behind[:11], behind[11] = np.log(0.08), np.log(0.06)  # the target ranks 11th
        ahead[9:] = np.log(0.055)
        ahead[11] = np.log(0.06)  # 9 items above it: it ranks 9th
        far[11] = np.log(0.001)
        logits = [behind, ahead, far]
        assert settled(setting, logits, 13) == [False, False, True]
        assert judge_crafted(setting, logits, 13, 10) == [False, True, False]

    @pytest.mark.parametrize("setting", [
        SettingSpec.from_name("un_un", threshold=0.5),
        SettingSpec.from_name("un_un", threshold=0.5, untargeted_rank_rule="top1_change"),
        SettingSpec.from_name("un_cat", threshold=0.5),
    ], ids=lambda s: s.name + "-" + s.untargeted_rank_rule)
    def test_per_row_sources(self, setting):
        logits = [[3, 0, 0, 0, 0, 0], [3, 0, 0, 0, 0, 0], [0, 3, 0, 0, 0, 0], [0, 0, 3, 0, 0, 0]]
        sources = np.array([0, 1, 1, 2])
        assert settled(setting, logits, sources, self.CATS6) == [True, False, True, True]
        assert judge_crafted(setting, logits, sources, 1, self.CATS6) == [False, setting.name == "un_un", False, False]

    def test_empty_target_category_settles_every_finite_row(self):
        setting = SettingSpec.from_name("targ_cat", target_category=2, threshold=0.05)
        logits = [[0, 0, 0, 0, 0, 0], [NEG, NEG, 4, NEG, NEG, NEG]]
        assert settled(setting, logits, 0, self.CATS6) == [True, True]
        assert judge_crafted(setting, logits, 0, 1, self.CATS6) == [False, False]

    @pytest.mark.parametrize("bad", [[np.nan, 0, 0, 0, 0, 0], [0, 0, np.inf, 0, 0, 0], [NEG] * 6],
                             ids=["nan", "inf", "all-neg-inf"])
    @pytest.mark.parametrize("setting", [
        SettingSpec.from_name("un_un"),
        SettingSpec.from_name("targ_un", target_item=2),
        SettingSpec.from_name("un_cat"),
        SettingSpec.from_name("targ_cat", target_category=1),
        SettingSpec.from_name("targ_cat", target_category=2),
    ], ids=lambda s: f"{s.name}-{s.target_category}")
    def test_a_peak_that_is_not_finite_still_fails(self, setting, bad):
        logits = np.array([[5, 0, 0, 0, 0, 0], bad], dtype=float)
        assert settled(setting, logits, 0, self.CATS6)[1] is False
        rows, lengths = as_rows([(0,), (1,)])
        with pytest.raises(ValueError, match="at least one finite logit per row"):
            search._valid(TableScorer(logits), setting, 0, rows, lengths, 1, self.CATS6)
        with pytest.raises(ValueError, match="at least one finite logit per row"):
            search._source_top1(TableScorer(logits), rows, lengths)

    def test_a_float32_scorer_is_screened_in_float64(self):
        # the screen reads the float64 logits softmax reads, and copies them into the float64 buffer
        class Float32Scorer(TableScorer):
            def score_batch(self, rows, lengths):
                return self.logits[rows[:, 0]].astype(np.float32)

        t = 1e-30
        setting = SettingSpec.from_name("targ_un", target_item=1, threshold=t)
        logits = np.float32([[4.0, 4.0 + np.log(t / (1 - t)), NEG], [0.0, -80.0, NEG]]).astype(float)
        model = Float32Scorer(logits)
        rows, lengths = as_rows([(0,), (1,)])
        assert models.score_batch_logits(model, rows, lengths).dtype == np.float64
        got = search._valid(model, setting, 2, rows, lengths, 1, None)
        assert got.tolist() == unscreened_valid(model, setting, 2, rows, lengths, 1, None).tolist()

    @pytest.mark.parametrize("t", [0.05, 0.3, 0.5, 0.6, 0.9])
    def test_near_cut_rows_match_the_references(self, t, monkeypatch):
        # rows crowded at both cuts: logits within a few margins of the peak
        # and of the targeted cut, ties and masked items, each row with its
        # own source, scored in small blocks so the screened buffer fills
        # across blocks
        rng = np.random.default_rng(int(t * 100))
        m, n = 12, 120
        cats = overlapping_categories(m)
        steps = np.array([0.0, D / 2, 2 * D, 1e-15, 1.0])
        logits = np.round(rng.normal(0, 2, (n, m)), 1)
        logits[rng.random((n, m)) < 0.2] = NEG
        logits[:, 0] = np.maximum(logits[:, 0], -3.0)
        logits[np.arange(n), rng.integers(m, size=n)] += rng.choice([0.0, 6.0], n)  # some rows with a clear top
        peak = logits.max(axis=1)
        tied = np.flatnonzero(rng.random(n) < 0.5)
        logits[tied, rng.integers(m, size=len(tied))] = peak[tied] - rng.choice(steps, len(tied))
        cut = min(0.0, np.log(t / (1 - t)))
        cut_rows = rng.random(n) < 0.5
        logits[cut_rows, 5] = peak[cut_rows] + cut + rng.choice([-2 * D, -D / 2, 0.0, D / 2], cut_rows.sum())
        sources = rng.integers(m, size=n)
        settings = [
            SettingSpec.from_name("un_un", threshold=t),
            SettingSpec.from_name("un_un", threshold=t, untargeted_rank_rule="top1_change"),
            SettingSpec.from_name("targ_un", target_item=5, threshold=t),
            SettingSpec.from_name("un_cat", threshold=t),
            SettingSpec.from_name("targ_cat", target_category=1, threshold=t),
        ]
        set_block_rows(monkeypatch, m, 7)
        seen_settled, seen_valid = 0, 0
        for setting in settings:
            for k in (1, 5, 10):
                got = judge_crafted(setting, logits, sources, k, cats)
                seen_valid += sum(got)
            seen_settled += sum(settled(setting, logits, sources, cats))
        assert 0 < seen_settled < len(settings) * n and seen_valid > 0


def set_block_rows(monkeypatch, m, block_rows):
    """Score blocks of `block_rows` rows at catalog size m."""
    monkeypatch.setattr(search, "_BLOCK_BYTES", 8 * m * block_rows)


def row_results(evaluate, cfg, rows, lengths):
    """The GA's per-generation results of each row, then its validity."""
    return (*_ga_results(evaluate, cfg, rows, lengths), evaluate.valid(rows, lengths))


class MemoScorer:
    """Hands back the same cached logits array whenever a batch repeats, as a memoizing scorer may."""

    def __init__(self, model):
        self.model, self.num_items, self.cache, self.hits = model, model.num_items, {}, 0

    def score(self, seq):
        return self.model.score(seq)

    def score_batch(self, rows, lengths):
        key = (rows.shape, rows.tobytes(), lengths.tobytes())
        self.hits += key in self.cache
        if key not in self.cache:
            self.cache[key] = self.model.score_batch(rows, lengths)
        return self.cache[key]


def distance1_sequences(items, m, max_len):
    """Brute force: every duplicate-free sequence over range(m), at most max_len long, at edit distance 1."""
    return {
        cand
        for length in range(max(1, len(items) - 1), min(len(items) + 1, max_len) + 1)
        for cand in permutations(range(m), length)
        if levenshtein(items, cand) == 1
    }


class TestRadius1Ball:
    @pytest.mark.parametrize(
        "items, m, max_len",
        [((3,), 6, 5), ((0, 4, 2), 6, 5), ((5, 1, 0, 3), 7, 4), ((1, 0, 2, 4, 3), 6, 5), ((2, 0), 3, 2)],
    )
    def test_matches_brute_force_enumeration(self, items, m, max_len):
        expected = distance1_sequences(items, m, max_len)
        rows, lengths = radius1_ball(items, m, max_len)
        assert rows.dtype == np.int64 and rows.shape[1] == lengths.max()
        assert (rows[np.arange(rows.shape[1]) >= lengths[:, None]] == NULL_ITEM).all()
        got = row_tuples(rows, lengths)
        assert len(got) == len(set(got))
        assert set(got) == expected
        assert radius1_size(items, m, max_len) == len(expected)
        # by kind (replace, add, delete), then position, then item
        absent = [z for z in range(m) if z not in items]
        L = len(items)
        ordered = [items[:p] + (z,) + items[p + 1 :] for p in range(L) for z in absent]
        ordered += [items[:p] + (z,) + items[p:] for p in range(L + 1) if L < max_len for z in absent]
        ordered += [items[:p] + items[p + 1 :] for p in range(L) if L >= 2]
        assert got == ordered


def ball_optimum(model, setting, items, k, max_len, cats=None):
    """Brute force: the valid distance-1 sequence of minimal (objective_loss, items), or None."""
    src = model.score(items)
    scored = ((c, model.score(c)) for c in distance1_sequences(items, model.num_items, max_len))
    valid = [(objective_loss(setting, src, s, cats), c) for c, s in scored if is_valid(setting, src, s, k, cats)]
    return min(valid, default=(None, None))[1]


class TestRadius1Best:
    @pytest.mark.parametrize("items, m, max_len", [((0, 1, 2), 6, 5), ((3, 0), 4, 3), ((4, 1, 0, 2), 6, 4)])
    def test_echo_ties_across_lengths_pick_the_shorter_row(self, items, m, max_len):
        # EchoScorer recommends the last item, so under un_un exactly the edits
        # of the last item are valid, and all of them tie in loss: the pick is
        # the tuple minimum, deleting the last item, a prefix of every other
        model, setting = EchoScorer(m), SettingSpec.from_name("un_un")
        evaluate = _RowEvaluator(model, setting, items, 1, None, max_len)
        rows, lengths = radius1_ball(items, m, max_len)
        hit = np.flatnonzero(evaluate.valid(rows, lengths))
        ends = {len(c) - len(items) for c in row_tuples(rows[hit], lengths[hit])}
        assert ends == ({-1, 0, 1} if len(items) < max_len else {-1, 0})
        assert len(set(evaluate.loss(rows[hit], lengths[hit]).tolist())) == 1
        assert _radius1_best(evaluate) == items[:-1] == ball_optimum(model, setting, items, 1, max_len)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_tiny_catalogs_match_brute_force(self, m):
        rng = np.random.default_rng(m)
        model = train_markov(seqs({u: tuple(rng.permutation(m).tolist()) for u in range(1, 8)}), m)
        for setting in (SettingSpec.from_name("un_un"), SettingSpec.from_name("targ_un", target_item=m - 1)):
            for items in [(0,), (1, 0), tuple(range(m - 1))]:
                for k in range(1, m + 1):
                    evaluate = _RowEvaluator(model, setting, items, k, None, m - 1)
                    assert _radius1_best(evaluate) == ball_optimum(model, setting, items, k, m - 1)

    @pytest.mark.parametrize(
        "setting",
        [
            SettingSpec.from_name("un_un", threshold=0.2),
            SettingSpec.from_name("targ_un", target_item=5, threshold=0.1),
            SettingSpec.from_name("un_cat", threshold=0.2),
            SettingSpec.from_name("targ_cat", target_category=1, threshold=0.2),
        ],
        ids=lambda s: s.name,
    )
    def test_walk_markov_matches_brute_force(self, walk_markov, setting):
        cats = overlapping_categories(12)
        found = 0
        for items in [(0, 1, 2), (4, 9), (2,), (8, 6, 10), (11, 3, 7)]:
            for k in (1, 3):
                evaluate = _RowEvaluator(walk_markov, setting, items, k, cats, 4)
                best = _radius1_best(evaluate)
                assert best == ball_optimum(walk_markov, setting, items, k, 4, cats)
                found += best is not None
        assert found > 0


class TestFitness:
    def setup_method(self):
        arr = np.array([0.5, 0.3, 0.2])
        self.source_scores = ScoreVector(np.log(arr))
        self.setting = SettingSpec.from_name("targ_un", target_item=2)

    def test_source_candidate_arithmetic(self):
        # lev 0; targeted loss 1 - 0.2 = 0.8; 0.5 * 0.8 = 0.4
        got = fitness((0, 1), self.source_scores, (0, 1), self.source_scores, self.setting, 0.5)
        assert got == pytest.approx(0.4)

    def test_weight_one_is_pure_edit_distance(self):
        cand_scores = ScoreVector(np.log(np.array([0.2, 0.3, 0.5])))
        got = fitness((0, 1, 2), self.source_scores, (0, 1), cand_scores, self.setting, 1.0, max_len=10)
        assert got == pytest.approx(levenshtein((0, 1, 2), (0, 1)) / 10)

    def test_weight_zero_is_pure_loss(self):
        cand_scores = ScoreVector(np.log(np.array([0.2, 0.3, 0.5])))
        got = fitness((0, 1), self.source_scores, (1, 2), cand_scores, self.setting, 0.0)
        assert got == pytest.approx(objective_loss(self.setting, self.source_scores, cand_scores))


@pytest.fixture
def walk_markov():
    rng = np.random.default_rng(21)
    return train_markov(
        seqs({u: tuple(rng.permutation(12)[:8].tolist()) for u in range(1, 30)}), 12
    )


class TestGenetic:
    def test_noop_evolution_keeps_source_copies(self, cycle_markov):
        cfg = GaConfig(generations=1, population_size=16, mutation_prob=0.0, crossover_prob=0.0, max_len=3)
        pop = genetic((0, 1), SettingSpec.from_name("un_un"), cycle_markov, 1, cfg, seed=0)
        assert len(pop) == 16
        assert all(pop.items(i) == (0, 1) for i in range(len(pop)))

    def test_deterministic_final_population(self, walk_markov):
        cfg = GaConfig(generations=6, population_size=32, max_len=10)
        src = UserSequence(3, (0, 1, 2, 3), 10)
        setting = SettingSpec.from_name("un_un")
        a = genetic(src, setting, walk_markov, 1, cfg, seed=5)
        b = genetic(src, setting, walk_markov, 1, cfg, seed=5)
        assert [(a.items(i), a.born[i], a.fitness[i]) for i in range(len(a))] == [
            (b.items(i), b.born[i], b.fitness[i]) for i in range(len(b))
        ]

    def test_population_invariants_each_generation(self, walk_markov):
        # streams are keyed per generation, so a g-generation run ends on
        # generation g of any longer run with the same seed
        best = None
        for gens in range(1, 9):
            cfg = GaConfig(generations=gens, population_size=24, max_len=6)
            src = UserSequence(1, (4, 2, 9), 6)
            pop = genetic(src, SettingSpec.from_name("un_un"), walk_markov, 1, cfg, seed=3)
            assert len(pop) == 24
            assert pop.born.max() <= gens
            for i in range(len(pop)):
                items = pop.items(i)
                assert 1 <= len(items) <= 6
                assert len(set(items)) == len(items)
            gen_best = pop.fitness.min()
            if best is not None:
                assert gen_best <= best + 1e-12
            best = gen_best

    def test_select_scores_each_new_sequence_once(self, walk_markov, monkeypatch):
        select = search._select
        scored, recreated, repeated = [], [], []

        def watch(population, rows, lengths, gen, evaluate, *rest):
            n = len(population)
            seqs_ = [tuple(row[:length].tolist()) for row, length in zip(rows, lengths)]
            old, born_now = set(seqs_[:n]), seqs_[n:]
            recreated.append(len(set(born_now) & old))
            repeated.append(len(born_now) - len(set(born_now)))
            loss = evaluate.loss

            def counted(batch, batch_lengths):
                got = [tuple(row[:length].tolist()) for row, length in zip(batch, batch_lengths)]
                # distinct, and exactly the pool's sequences absent from the population
                assert len(set(got)) == len(got)
                assert set(got) == set(born_now) - old
                scored.append(len(got))
                return loss(batch, batch_lengths)

            evaluate.loss = counted
            try:
                return select(population, rows, lengths, gen, evaluate, *rest)
            finally:
                del evaluate.loss  # the class's method again

        monkeypatch.setattr(search, "_select", watch)
        cfg = GaConfig(generations=6, population_size=32, max_len=6)
        genetic(UserSequence(1, (4, 2, 9), 6), SettingSpec.from_name("un_un"), walk_markov, 1, cfg, seed=3)
        assert len(scored) == 6 and all(scored)
        # the pools did hold recreated population sequences and repeated new ones
        assert sum(recreated) > 0 and sum(repeated) > 0

    @pytest.mark.parametrize("setting", TestRowEvaluator.SETTINGS, ids=lambda s: s.name + "-" + s.untargeted_rank_rule)
    def test_validity_judged_once_on_the_final_population(self, walk_markov, monkeypatch, setting):
        judged = []
        valid = search._valid

        def recorded(model, setting, source_top1, rows, lengths, *rest):
            verdicts = valid(model, setting, source_top1, rows, lengths, *rest)
            judged.append(([tuple(int(x) for x in row[:n]) for row, n in zip(rows, lengths)], verdicts))
            return verdicts

        monkeypatch.setattr(search, "_valid", recorded)
        cats = overlapping_categories(12)
        cfg = GaConfig(generations=6, population_size=32, max_len=6)
        src = UserSequence(1, (4, 2, 9), 6)
        pop = genetic(src, setting, walk_markov, 3, cfg, seed=3, categories=cats)
        # one call holding each distinct final sequence once, not a batch per generation
        [(cands, verdicts)] = judged
        assert len(set(cands)) == len(cands) and set(cands) == {pop.items(i) for i in range(len(pop))}
        src_scores = walk_markov.score(src.items)
        assert verdicts.tolist() == [is_valid(setting, src_scores, walk_markov.score(c), 3, cats) for c in cands]
        for i in range(len(pop)):
            assert pop.valid[i] == verdicts[cands.index(pop.items(i))]

    def test_toy_flip_matches_oracle(self, cycle_markov):
        # trained cycle 0->1->2->3; from (0,1) the model suggests 2, and one
        # replacement (0,2) flips the suggestion to 3
        setting = SettingSpec.from_name("un_un")
        cfg = GaConfig(generations=30, population_size=64, max_len=3)
        src = UserSequence(1, (0, 1), 3)
        found = _harvest(genetic(src, setting, cycle_markov, 1, cfg, seed=2))
        assert found is not None
        optimal = oracle_optimal(src, setting, cycle_markov, 1, max_distance=2)
        assert optimal is not None
        assert levenshtein(src.items, found[0]) == optimal[1] == 1

    def test_replace_only_weights_keep_length(self, walk_markov):
        cfg = GaConfig(
            generations=5, population_size=16, mutation_weights=(1.0, 0.0, 0.0),
            crossover_prob=0.0, max_len=8,
        )
        pop = genetic(
            UserSequence(1, (0, 3, 6), 8), SettingSpec.from_name("un_un"), walk_markov, 1, cfg, seed=4
        )
        assert all(len(pop.items(i)) == 3 for i in range(len(pop)))

    def test_final_population_is_ranked_and_padded(self, walk_markov):
        cfg = GaConfig(generations=5, population_size=40, max_len=8)
        src = UserSequence(4, (3, 7, 1, 10), 8)
        pop = genetic(src, SettingSpec.from_name("un_un"), walk_markov, 1, cfg, seed=6)
        keys = [(pop.fitness[i], pop.items(i)) for i in range(len(pop))]
        assert keys == sorted(keys)
        assert pop.rows.shape[1] == pop.lengths.max()
        for i in range(len(pop)):
            assert (pop.rows[i, pop.lengths[i]:] == NULL_ITEM).all()
            assert pop.lev[i] == levenshtein(src.items, pop.items(i))
        # a sequence's earliest birth survives selection
        born = {}
        for i in range(len(pop)):
            born.setdefault(pop.items(i), set()).add(int(pop.born[i]))
        assert all(len(b) == 1 for b in born.values())

    def test_recreated_sequence_keeps_earliest_birth(self, walk_markov):
        # crossover of source copies recreates the source every generation
        cfg = GaConfig(generations=3, population_size=8, mutation_prob=0.0, crossover_prob=1.0, max_len=8)
        pop = genetic((0, 1, 2), SettingSpec.from_name("un_un"), walk_markov, 1, cfg, seed=1)
        source_rows = [i for i in range(len(pop)) if pop.items(i) == (0, 1, 2)]
        assert source_rows and all(pop.born[i] == 0 for i in source_rows)
        assert pop.born.max() > 0


class TestSelectInvariant:
    """`_select` leaves the d distinct sequences first, by (fitness, items), then their cyclic copies.

    d is the smaller of the population size and the pool's distinct
    sequence count. The final population's validity and order rest on this.
    """

    SETTINGS = ("un_un", "targ_un", "un_cat", "targ_cat")

    def test_random_small_configurations(self, monkeypatch):
        select = search._select
        selected, padded = [], 0

        def watch(population, rows, lengths, *rest):
            out = select(population, rows, lengths, *rest)
            items = [out.items(i) for i in range(len(out))]
            d = min(len(out), len({tuple(row[:n].tolist()) for row, n in zip(rows, lengths)}))
            assert len(set(items[:d])) == d
            keys = [(out.fitness[i], items[i]) for i in range(d)]
            assert keys == sorted(keys)
            for i in range(d, len(out)):
                assert items[i] == items[i % d]
                assert all(getattr(out, f)[i] == getattr(out, f)[i % d] for f in ("born", "fitness", "loss", "lev"))
            selected.append(out)
            return out

        monkeypatch.setattr(search, "_select", watch)
        rng = np.random.default_rng(41)
        for trial in range(40):
            m = int(rng.integers(3, 14))
            model = train_markov(seqs({u: tuple(rng.permutation(m)[: rng.integers(2, m + 1)].tolist())
                                       for u in range(1, 6)}), m)
            source = tuple(rng.permutation(m)[: rng.integers(1, m)].tolist())
            name = self.SETTINGS[trial % 4]
            target = {"targ_un": {"target_item": int(rng.integers(m))}, "targ_cat": {"target_category": 1}}
            setting = SettingSpec.from_name(name, threshold=0.3, **target.get(name, {}))
            cfg = GaConfig(
                generations=int(rng.integers(1, 5)), population_size=int(rng.integers(2, 40)),
                mutation_prob=float(rng.random()), crossover_prob=float(rng.random()),
                mutation_weights=tuple(rng.integers(0, 3, size=3) + np.array([1, 0, 0])),
                max_len=int(rng.integers(len(source), m)),
            )
            k, cats = int(rng.integers(1, m + 1)), overlapping_categories(m)
            pop = genetic(source, setting, model, k, cfg, seed=trial, categories=cats)
            # the final population is the last selection's rows by (fitness, items)
            last = selected[-1]
            order = np.lexsort((*last.rows.T[::-1], last.fitness))
            for f in ("rows", "lengths", "born", "fitness", "loss", "lev"):
                assert np.array_equal(getattr(pop, f), getattr(last, f)[order])
            src_scores = model.score(source)
            assert pop.valid.tolist() == [is_valid(setting, src_scores, model.score(pop.items(i)), k, cats)
                                          for i in range(len(pop))]
            padded += len({pop.items(i) for i in range(len(pop))}) < len(pop)
        assert len(selected) > 40 and 0 < padded < 40


class TestRowKeys:
    """`_row_keys` orders rows as tuples, and `_earliest_copies` finds each distinct row's first copy."""

    CATALOGS = (2, 3, 7, 100, 255, 256, 1000, 65535, 65536, 10**6)

    @staticmethod
    def pool(rng, m):
        """A random pool over NULL_ITEM and range(m) that holds m - 1, of width 1 to 59, often duplicate-heavy."""
        width = int(rng.integers(1, 60))
        cells = rng.integers(NULL_ITEM, m, size=(int(rng.integers(1, 40)), width))
        if rng.random() < 0.5:  # few distinct rows, many copies
            cells = cells[rng.integers(0, min(len(cells), 4), size=int(rng.integers(1, 80)))]
        cells[rng.integers(len(cells)), rng.integers(width)] = m - 1  # the cell type's upper edge
        return cells

    @staticmethod
    def strided(rng, rows):
        """`rows` as a view that is not C-contiguous: every other row or column of a larger array, or a transpose."""
        kind = int(rng.integers(3))
        if kind == 0:
            big = np.full((2 * len(rows), rows.shape[1]), 7)
            big[::2] = rows
            return big[::2]
        if kind == 1:
            big = np.full((len(rows), 2 * rows.shape[1]), 7)
            big[:, 1::2] = rows
            return big[:, 1::2]
        return np.asfortranarray(rows)

    def test_against_the_reference(self):
        rng = np.random.default_rng(26)
        for trial in range(600):
            m = self.CATALOGS[trial % len(self.CATALOGS)]
            rows = self.pool(rng, m)
            if trial % 3 == 0:
                rows = self.strided(rng, rows)
            want = distinct_first_copies(rows)
            got = _earliest_copies(rows)
            assert [(tuple(rows[i].tolist()), int(i)) for i in got] == want
            # a stable sort by key is the stable sort by tuple, ties in row order
            order = sorted(range(len(rows)), key=lambda i: tuple(rows[i].tolist()))
            assert np.argsort(_row_keys(rows), kind="stable").tolist() == order

    def test_cell_width_follows_the_largest_item(self):
        for top, size in [(0, 1), (254, 1), (255, 2), (65534, 2), (65535, 4), (10**6, 4), (2**32 - 1, 8)]:
            keys = _row_keys(np.array([[NULL_ITEM, top], [top, NULL_ITEM]]))
            assert keys.dtype.itemsize == 2 * size
            assert np.argsort(keys[::-1]).tolist() == [1, 0]  # NULL_ITEM, shifted to 0, sorts below every item

    def test_numpy_unique_returns_first_copies(self):
        # `_earliest_copies` relies on np.unique(return_index=True) sorting stably
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 3, size=(5000, 4)).astype(np.uint8).view(np.dtype((np.void, 4)))[:, 0]
        first = {}
        for i, key in enumerate(keys.tolist()):  # each key as bytes
            first.setdefault(key, i)
        assert np.unique(keys, return_index=True)[1].tolist() == [first[key] for key in sorted(first)]

    def test_numpy_void_keys_sort_as_unsigned_bytes(self):
        # the keys compare as big-endian unsigned cells only if numpy compares void bytes unsigned
        cells = np.array([[0x80, 0x00], [0x7F, 0xFF], [0x00, 0x01], [0xFF, 0x00], [0x7F, 0xFF]], dtype=np.uint8)
        keys = cells.view(np.dtype((np.void, 2)))[:, 0]
        want = sorted(range(len(cells)), key=lambda i: bytes(cells[i]))  # bytes compare unsigned, ties stable
        assert np.argsort(keys, kind="stable").tolist() == want == [2, 1, 4, 0, 3]
        assert np.lexsort((keys, np.zeros(len(keys)))).tolist() == want
        assert np.unique(keys, return_index=True)[1].tolist() == [2, 1, 0, 3]


class TestGaConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("generations", 0, "generations must be >= 1"),
            ("population_size", 1, "population_size must be >= 2"),
            ("mutation_prob", -0.1, "mutation_prob must lie in [0, 1]"),
            ("crossover_prob", 1.5, "crossover_prob must lie in [0, 1]"),
            ("edit_weight", float("nan"), "edit_weight must lie in [0, 1]"),
            ("mutation_weights", (1.0, 1.0), "mutation_weights are 3 finite non-negative reals"),
            ("mutation_weights", (1.0, -1.0, 1.0), "mutation_weights are 3 finite non-negative reals"),
            ("mutation_weights", (float("nan"), 1.0, 1.0), "mutation_weights are 3 finite non-negative reals"),
            ("mutation_weights", (float("inf"), 1.0, 1.0), "mutation_weights are 3 finite non-negative reals"),
            ("mutation_weights", (0.0, 0.0, 0.0), "mutation_weights are all 0; set mutation_prob to 0"),
            ("max_len", 0, "max_len must be >= 1"),
        ],
        ids=["generations", "population", "mutation-prob", "crossover-prob", "edit-weight", "two-weights",
             "negative-weight", "nan-weight", "inf-weight", "zero-weights", "max-len"],
    )
    def test_rejects_bad_field(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GaConfig(**{field: value})

    def test_accepts_the_bounds(self):
        GaConfig(generations=1, population_size=2, mutation_prob=0.0, crossover_prob=1.0, edit_weight=0.0,
                 mutation_weights=(0.0, 0.0, 1.0), max_len=1)


class TestSearchInputChecks:
    @pytest.mark.parametrize("search_fn", [explain, genetic], ids=["explain", "genetic"])
    @pytest.mark.parametrize(
        "source, k, max_len, message",
        [
            ((0, 1), 0, 5, "k=0 outside [1, 6]"),
            ((0, 1), 7, 5, "k=7 outside [1, 6]"),
            ((0, 1, 2, 3), 1, 3, "source length 4 exceeds limit 3"),
            ((0, 1, 2, 3, 4, 5), 1, 50, "source length 6 exceeds limit 5"),  # capped at m - 1
            ((0, 6), 1, 5, "source holds item 6, not an integer id in the catalog [0, 6)"),
            ((-1, 2), 1, 5, "source holds item -1, not an integer id in the catalog [0, 6)"),
            ((), 1, 5, "source is empty"),
            ((3, 5, 3), 1, 5, "source repeats an item"),
        ],
        ids=["k-zero", "k-above-m", "too-long", "too-long-for-catalog", "item-above", "item-below", "empty", "repeat"],
    )
    def test_rejects_bad_inputs(self, search_fn, source, k, max_len, message):
        cfg = GaConfig(generations=1, population_size=4, max_len=max_len)
        with pytest.raises(ValueError, match=re.escape(message)):
            search_fn(source, SettingSpec.from_name("un_un"), EchoScorer(6), k, cfg)


class TestExplain:
    @pytest.mark.parametrize(
        "setting",
        [
            SettingSpec.from_name("un_un", threshold=0.2),
            SettingSpec.from_name("targ_un", target_item=5, threshold=0.1),
            SettingSpec.from_name("un_cat", threshold=0.2),
            SettingSpec.from_name("targ_cat", target_category=1, threshold=0.2),
        ],
        ids=lambda s: s.name,
    )
    @pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 1.0)])
    def test_radius1_returns_the_harvest_optimum_over_distance_1(self, walk_markov, setting, weights):
        # whatever the weights, the ball holds every distance-1 sequence: the
        # GA reaches deletions by crossover even when delete's weight is 0
        cats = overlapping_categories(12)
        # 4 x 80 GA rows admit balls of up to 80 rows; the largest here has 76
        cfg = GaConfig(generations=4, population_size=80, max_len=6, mutation_weights=weights)
        hits = 0
        for user, items in enumerate([(0, 1, 2, 3), (4, 9), (7, 3, 11, 5, 1, 0), (2,), (8, 6, 10)], start=1):
            src = UserSequence(user, items, 6)
            rec = explain(src, setting, walk_markov, 3, cfg, seed=user, categories=cats)
            ga = _harvest(genetic(src, setting, walk_markov, 3, cfg, seed=user, categories=cats))
            src_scores = walk_markov.score(items)

            def key(cand):  # the harvest rule's order: distance, loss, items
                loss = objective_loss(setting, src_scores, walk_markov.score(cand), cats)
                return levenshtein(items, cand), loss, cand

            valid = sorted(
                key(cand)
                for cand in set().union(*scalar_mutants(items, 12, 6).values())
                if levenshtein(items, cand) == 1  # an add at max_len also drops the oldest item
                if is_valid(setting, src_scores, walk_markov.score(cand), 3, cats)
            )
            if valid:
                hits += 1
                assert rec.counterfactual == valid[0][2]
                assert rec.generation_found == 0 and rec.levenshtein == 1
                assert ga is None or key(rec.counterfactual) <= key(ga[0])
            else:  # no valid member: the GA's harvest is the answer
                assert (rec.counterfactual, rec.generation_found) == (ga or (None, None))
        assert hits > 0

    def test_ball_larger_than_its_share_of_the_search_is_not_scored(self, walk_markov):
        # 4 x 24 GA rows admit balls of up to 24 rows, and every ball here is larger
        cfg = GaConfig(generations=4, population_size=24, max_len=6)
        setting = SettingSpec.from_name("un_un", threshold=0.2)
        prepass = GaConfig(generations=4, population_size=80, max_len=6)
        differ = 0
        for user, items in enumerate([(0, 1, 2, 3), (4, 9), (7, 3, 11, 5, 1, 0), (8, 6, 10)], start=1):
            src = UserSequence(user, items, 6)
            assert radius1_size(items, 12, 6) > 24
            rec = explain(src, setting, walk_markov, 3, cfg, seed=user)
            ga = _harvest(genetic(src, setting, walk_markov, 3, cfg, seed=user))
            assert (rec.counterfactual, rec.generation_found) == (ga or (None, None))
            ball = explain(src, setting, walk_markov, 3, prepass, seed=user)
            differ += ball.generation_found == 0 and ball.counterfactual != rec.counterfactual
        assert differ > 0  # the share decided the answer somewhere

    def test_crossover_reaches_deletions_the_weights_rule_out(self, walk_markov):
        cfg = GaConfig(generations=1, population_size=32, mutation_prob=0.0, mutation_weights=(1.0, 0.0, 0.0),
                       crossover_prob=1.0, max_len=8)
        src = (0, 1, 2, 3)
        pop = genetic(src, SettingSpec.from_name("un_un"), walk_markov, 1, cfg, seed=0)
        shorter = {pop.items(i) for i in range(len(pop)) if len(pop.items(i)) < len(src)}
        assert any(levenshtein(src, cand) == 1 for cand in shorter)

    def test_absent_counterfactual_is_a_result(self):
        model = ConstScorer(8)
        cfg = GaConfig(generations=3, population_size=16, max_len=5)
        rec = explain(
            UserSequence(1, (0, 1, 2), 5), SettingSpec.from_name("un_un"), model, 1, cfg, seed=0
        )
        assert rec.counterfactual is None
        assert rec.generation_found is None  # nothing to check with is_valid
        assert rec.hamming is None and rec.levenshtein is None

    def test_minimal_distance_wins(self, cycle_markov):
        setting = SettingSpec.from_name("un_un")
        cfg = GaConfig(generations=25, population_size=64, max_len=3)
        src = UserSequence(1, (0, 1), 3)
        found = _harvest(genetic(src, setting, cycle_markov, 1, cfg, seed=1))
        assert levenshtein(src.items, found[0]) == 1  # a one-edit flip exists and the GA must find it

    def test_returned_counterfactual_verifies(self, walk_markov):
        setting = SettingSpec.from_name("un_un")
        cfg = GaConfig(generations=10, population_size=48, max_len=8)
        for seed in range(5):
            rec = explain(UserSequence(1, (0, 1, 2, 3), 8), setting, walk_markov, 1, cfg, seed=seed)
            if rec.counterfactual is not None:
                assert verify_eps_vcs(walk_markov, rec.source, rec.counterfactual, rec.levenshtein)
                assert is_valid(setting, walk_markov.score(rec.source), walk_markov.score(rec.counterfactual), 1)

    def test_threads_do_not_change_results(self, tmp_path):
        log, split, model = tmp_path / "log.tsv", tmp_path / "split.json", tmp_path / "model.json"
        assert main(["synth", "--users", "30", "--items", "20", "--seed", "4", "--out", str(log)]) == 0
        assert main(["preprocess", "--input", str(log), "--out", str(split)]) == 0
        assert main(["train", "--split", str(split), "--out", str(model)]) == 0
        blobs = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"t{threads}.jsonl"
            assert main(
                ["explain", "--model", str(model), "--split", str(split), "--setting", "un_un",
                 "--seed", "9", "--sample-users", "3", "--generations", "6", "--population", "40",
                 "--threads", threads, "--out", str(out)]
            ) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


class TestPinnedOutputs:
    """Outputs of the search pinned at fixed seeds: a refactor of the GA must leave them as they are.

    The ball of every source here exceeds its share of a 64 x 10 search, so
    each user reaches the GA; (counterfactual, generation_found) pins the
    harvest and a digest of user 1's final population pins every row and
    the bits of every result (fitness, loss, edit distance, validity).
    """

    SETTINGS = {
        "un_un": SettingSpec.from_name("un_un"),
        "targ_un": SettingSpec.from_name("targ_un", target_item=9),
        "un_cat": SettingSpec.from_name("un_cat"),
        "targ_cat": SettingSpec.from_name("targ_cat", target_category=1),
    }
    EXPECTED = {
        "un_un": (
            [((13, 41, 16, 32, 54, 34, 36, 48, 17, 20, 49, 1, 0), 5),
             ((53, 23, 29, 2, 27, 30, 9, 14, 43, 46, 18, 21, 51, 12), 1),
             ((1, 5, 21, 51, 6, 3, 7, 19, 26, 39, 53, 50), 8),
             ((0, 2, 27, 30, 9, 14, 43, 46, 18, 55, 58, 25, 56), 6)],
            "69db57e37bcf782e",
        ),
        "targ_un": (
            [((13, 14, 16, 32, 54, 34, 36, 48, 17, 20, 49, 1, 0, 30), 10),
             ((53, 23, 29, 2, 27, 30), 1),
             (None, None),
             ((0, 2, 27, 30), 2)],
            "23456059a08f651d",
        ),
        "un_cat": (
            [((13, 41, 16, 32, 54, 34, 36, 48, 17, 20, 49, 1, 0), 8),
             ((53, 23, 29, 2, 27, 30, 9, 14, 43, 46, 18, 21), 3),
             ((1, 5, 21, 51, 6, 3, 7, 19, 26, 39, 24), 9),
             ((0, 2, 27, 30, 9, 14, 43, 46, 18, 55, 58, 25, 41), 5)],
            "8507a75601dc6170",
        ),
        "targ_cat": (
            [((13, 41, 16, 32, 54, 34, 36, 48, 17, 20, 49, 1, 0, 2, 46), 7),
             ((53, 23, 29, 2, 27, 30, 9, 14, 43, 56, 46, 18, 21, 41), 6),
             ((1, 5, 21, 51, 6, 3, 7, 19, 14, 26, 39, 48), 4),
             ((0, 2, 27, 30, 9, 14, 43, 46, 18, 55, 58, 25), 1)],
            "bf6b40883d2f9e39",
        ),
    }

    @pytest.mark.parametrize("name", list(SETTINGS))
    def test_genetic_search(self, synth_corpus, name):
        train, model, cats = synth_corpus
        setting, cfg = self.SETTINGS[name], GaConfig(population_size=64, generations=10)
        found = []
        for user in (1, 2, 3, 4):
            rec = explain(train[user], setting, model, 1, cfg, seed=0, categories=cats)
            found.append((rec.counterfactual, rec.generation_found))
        pop = genetic(train[1], setting, model, 1, cfg, seed=0, categories=cats)
        # every row and every result, to the last bit of each float
        fields = ("rows", "lengths", "born", "fitness", "loss", "lev", "valid")
        digest = hashlib.sha256(b"".join(getattr(pop, f).tobytes() for f in fields)).hexdigest()
        assert (found, digest[:16]) == self.EXPECTED[name]

    def test_ball_answers(self, synth_corpus):
        # a 1024 x 30 search admits these balls, and each holds a valid member
        train, model, cats = synth_corpus
        cfg = GaConfig(population_size=1024, generations=30)
        records = [explain(train[u], self.SETTINGS["un_un"], model, 1, cfg, seed=0) for u in (1, 2, 3, 4)]
        assert all(rec.generation_found == 0 for rec in records)
        assert [rec.counterfactual for rec in records] == [
            (13, 41, 16, 32, 54, 34, 36, 48, 17, 20, 49, 1, 0, 2, 27),
            (53, 23, 29, 2, 27, 30, 9, 14, 43, 46, 18, 21, 6),
            (1, 5, 21, 51, 6, 3, 7, 19, 26, 39, 23),
            (0, 2, 27, 30, 9, 14, 43, 46, 18, 55, 58, 25, 10, 40),
        ]
