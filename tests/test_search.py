import numpy as np
import pytest

from seqcf import (
    GaConfig,
    UserSequence,
    crossover,
    explain,
    fitness,
    genetic,
    levenshtein,
    mutate_add,
    mutate_delete,
    mutate_replace,
    objective_loss,
    oracle_optimal,
    train_markov,
    verify_eps_vcs,
)
from seqcf.cli import main
from seqcf.core import CategoryMap, derive_stream
from seqcf.metrics import NULL_ITEM
from seqcf.models import ScoreVector
from seqcf.objective import SettingSpec, is_valid
from seqcf.search import _RowEvaluator, crossover_rows, mutate_rows, splice_rows

from conftest import ConstScorer, EchoScorer, QueuedRng, seqs


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


class TestCrossoverRows:
    def test_splice_matches_scalar_on_every_cut(self):
        # overlapping parents exercise the keep-first repair, max_len the truncation
        p1, p2 = (0, 1, 2, 3), (2, 4, 0, 5, 6)
        cuts = [(c1, c2) for c1 in range(1, 5) for c2 in range(1, 6)]
        for max_len in (3, 50):
            heads, _ = as_rows([p1] * len(cuts))
            tails, tail_lengths = as_rows([p2] * len(cuts))
            c1 = np.array([c for c, _ in cuts])
            c2 = np.array([c for _, c in cuts])
            first = row_tuples(*splice_rows(heads, c1, tails, c2, max_len))
            second = row_tuples(*splice_rows(tails, c2, heads, c1, max_len))
            for j, (a, b) in enumerate(cuts):
                assert (first[j], second[j]) == crossover(p1, p2, QueuedRng(integers=[a, b]), max_len)

    def test_cuts_uniform_and_children_paired(self):
        rows_a, len_a = as_rows([(0, 1, 2)] * 9000)
        rows_b, len_b = as_rows([(3, 4, 5)] * 9000)
        out = row_tuples(*crossover_rows(rows_a, len_a, rows_b, len_b, derive_stream(5, [5]), 8))
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
        out = row_tuples(*crossover_rows(*as_rows(p1), *as_rows(p2), rng, 8))
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


def overlapping_categories(m):
    # some items carry two categories, so un_cat overlap checks see sets
    return CategoryMap(
        categories_of=tuple(frozenset({i % 3} | ({(i + 1) % 3} if i % 4 == 0 else set())) for i in range(m)),
        num_categories=3,
    )


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
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_scalar_references(self, walk_markov, scorer, setting, k):
        model = {"markov": walk_markov, "const": ConstScorer(12), "echo": EchoScorer(12)}[scorer]
        cats = overlapping_categories(12)
        cfg = GaConfig(population_size=8, edit_weight=0.3, max_len=8)
        source = (0, 1, 2, 3)
        rng = derive_stream(2, [7])
        cands = [source] + [tuple(rng.permutation(12)[: rng.integers(1, 9)].tolist()) for _ in range(150)]
        rows, lengths = as_rows(cands)
        evaluate = _RowEvaluator(model, setting, source, k, cfg, cats, 8)
        fit, loss, lev, valid = evaluate(rows, lengths)
        src_scores = model.score(source)
        for i, cand in enumerate(cands):
            cand_scores = model.score(cand)
            assert lev[i] == levenshtein(source, cand)
            assert loss[i] == pytest.approx(objective_loss(setting, src_scores, cand_scores, cats), abs=1e-12)
            assert fit[i] == pytest.approx(
                fitness(source, src_scores, cand, cand_scores, setting, 0.3, 8, cats), abs=1e-12
            )
            assert valid[i] == is_valid(setting, src_scores, cand_scores, k, cats)
        # a second look is served from the cache and agrees exactly
        again = evaluate(rows[::-1], lengths[::-1])
        for a, b in zip(again, (fit, loss, lev, valid)):
            assert np.array_equal(a, b[::-1])


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
        cfg = GaConfig(generations=8, population_size=24, max_len=6)
        observed = []

        def watch(gen, pop):
            observed.append((gen, pop))

        genetic(
            UserSequence(1, (4, 2, 9), 6),
            SettingSpec.from_name("un_un"),
            walk_markov,
            1,
            cfg,
            seed=3,
            on_generation=watch,
        )
        assert [g for g, _ in observed] == list(range(1, 9))
        best = None
        for _, pop in observed:
            assert len(pop) == 24
            for i in range(len(pop)):
                items = pop.items(i)
                assert 1 <= len(items) <= 6
                assert len(set(items)) == len(items)
            gen_best = pop.fitness.min()
            if best is not None:
                assert gen_best <= best + 1e-12
            best = gen_best

    def test_toy_flip_matches_oracle(self, cycle_markov):
        # trained cycle 0->1->2->3; from (0,1) the model suggests 2, and one
        # replacement (0,2) flips the suggestion to 3
        setting = SettingSpec.from_name("un_un")
        cfg = GaConfig(generations=30, population_size=64, max_len=3)
        src = UserSequence(1, (0, 1), 3)
        rec = explain(src, setting, cycle_markov, 1, cfg, seed=2)
        assert rec.counterfactual is not None
        optimal = oracle_optimal(src, setting, cycle_markov, 1, max_distance=2)
        assert optimal is not None
        assert rec.levenshtein == optimal[1] == 1

    def test_partial_elitism_keeps_size_and_determinism(self, walk_markov):
        cfg = GaConfig(generations=4, population_size=20, elitism_fraction=0.5, max_len=8)
        src = UserSequence(2, (1, 5, 7), 8)
        a = genetic(src, SettingSpec.from_name("un_un"), walk_markov, 1, cfg, seed=8)
        b = genetic(src, SettingSpec.from_name("un_un"), walk_markov, 1, cfg, seed=8)
        assert len(a) == 20
        assert [a.items(i) for i in range(len(a))] == [b.items(i) for i in range(len(b))]

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


class TestExplain:
    def test_absent_counterfactual_is_a_result(self):
        model = ConstScorer(8)
        cfg = GaConfig(generations=3, population_size=16, max_len=5)
        rec = explain(
            UserSequence(1, (0, 1, 2), 5), SettingSpec.from_name("un_un"), model, 1, cfg, seed=0
        )
        assert rec.counterfactual is None
        assert rec.valid_at_k == {1: False, 5: False}
        assert rec.hamming is None and rec.levenshtein is None

    def test_minimal_distance_wins(self, cycle_markov):
        setting = SettingSpec.from_name("un_un")
        cfg = GaConfig(generations=25, population_size=64, max_len=3)
        rec = explain(UserSequence(1, (0, 1), 3), setting, cycle_markov, 1, cfg, seed=1)
        assert rec.levenshtein == 1  # a one-edit flip exists and must win

    def test_returned_counterfactual_verifies(self, walk_markov):
        setting = SettingSpec.from_name("un_un")
        cfg = GaConfig(generations=10, population_size=48, max_len=8)
        for seed in range(5):
            rec = explain(UserSequence(1, (0, 1, 2, 3), 8), setting, walk_markov, 1, cfg, seed=seed)
            if rec.counterfactual is not None:
                assert verify_eps_vcs(walk_markov, rec.source, rec.counterfactual, rec.levenshtein)
                assert rec.valid_at_k[1]

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
