import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqcf import (
    MarkovScorer,
    ModelFormatError,
    PopularityScorer,
    load_model,
    save_model,
    top_k,
    train_markov,
    train_popularity,
)
from seqcf.models import ScoreVector, _mask_rows, softmax

from conftest import seqs


class TestScoreVector:
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=40))
    def test_normalization_invariant(self, logits):
        sv = ScoreVector(np.array(logits))
        norm = sv.normalized
        assert abs(norm.sum() - 1.0) < 1e-9
        assert ((norm >= 0) & (norm <= 1)).all()

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError):
            ScoreVector(np.array([-np.inf, -np.inf])).normalized

    def test_masked_entries_exactly_zero(self):
        sv = ScoreVector(np.array([0.0, -np.inf, 1.0]))
        assert sv.normalized[1] == 0.0


class TestTopK:
    def test_argmax(self):
        sv = ScoreVector(np.log(np.array([0.1, 0.5, 0.4])))
        assert top_k(sv, 1) == [1]

    def test_tie_break_by_id(self):
        sv = ScoreVector(np.log(np.array([0.4, 0.4, 0.2])))
        assert top_k(sv, 2) == [0, 1]

    def test_full_permutation(self):
        sv = ScoreVector(np.log(np.array([0.25, 0.4, 0.25, 0.1])))
        assert top_k(sv, 4) == [1, 0, 2, 3]

    def test_k_out_of_range(self):
        sv = ScoreVector(np.zeros(3))
        with pytest.raises(ValueError):
            top_k(sv, 4)
        with pytest.raises(ValueError):
            top_k(sv, 0)


class TestScoring:
    def test_popularity_masks_and_ranks(self):
        model = train_popularity(seqs({1: (0,), 2: (0,), 3: (1,), 4: (2,)}), 3)
        assert top_k(model.score((2,)), 1) == [0]
        assert model.score((2,)).normalized[2] == 0.0

    def test_markov_recovers_transition_ratio(self):
        model = train_markov(seqs({1: (0, 1), 2: (0, 1), 3: (0, 2)}), 3, alpha=1e-9, beta=1.0)
        norm = model.score((0,)).normalized
        assert norm[1] == pytest.approx(2 / 3, abs=1e-6)
        assert norm[2] == pytest.approx(1 / 3, abs=1e-6)
        assert norm[0] == 0.0

    def test_score_is_pure(self):
        model = train_markov(seqs({1: (0, 1, 2), 2: (2, 1, 3)}), 4)
        a = model.score((1, 2)).logits
        b = model.score((1, 2)).logits
        assert np.array_equal(a, b)

    def test_empty_sequence_rejected(self):
        model = train_popularity(seqs({1: (0, 1)}), 3)
        with pytest.raises(ValueError):
            model.score(())

    def test_out_of_catalog_rejected(self):
        model = train_popularity(seqs({1: (0, 1)}), 3)
        with pytest.raises(ValueError):
            model.score((5,))

    def test_masking_invariant(self):
        rng = np.random.default_rng(3)
        model = train_markov(
            seqs({u: tuple(rng.permutation(10)[:6].tolist()) for u in range(1, 8)}), 10
        )
        for _ in range(50):
            length = int(rng.integers(1, 6))
            seq = tuple(rng.permutation(10)[:length].tolist())
            for k in range(1, 10 - length + 1):
                assert not set(top_k(model.score(seq), k)) & set(seq)

    @pytest.mark.parametrize("train", [train_markov, train_popularity], ids=["markov", "popularity"])
    def test_batch_matches_scalar(self, train):
        rng = np.random.default_rng(4)
        model = train(seqs({u: tuple(rng.permutation(12)[:7].tolist()) for u in range(1, 9)}), 12)
        cands = [tuple(rng.permutation(12)[: rng.integers(1, 8)].tolist()) for _ in range(40)]
        width = max(len(c) for c in cands)
        rows = np.full((len(cands), width), -1, dtype=np.int64)
        lengths = np.array([len(c) for c in cands])
        for i, c in enumerate(cands):
            rows[i, : len(c)] = c
        batch = model.score_batch(rows, lengths)
        for i, c in enumerate(cands):
            assert np.array_equal(batch[i], model.score(c).logits)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_mask_rows_writes_through_any_layout(self, layout):
        rng = np.random.default_rng(5)
        rows = np.full((9, 4), -1, dtype=np.int64)
        for i in range(9):
            n = int(rng.integers(0, 5))
            rows[i, :n] = rng.permutation(11)[:n]
        base = rng.normal(size=(9, 24))
        logits = {"C": base[:, :11].copy(), "F": np.asfortranarray(base[:, :11]), "strided": base[:, :22:2]}[layout]
        expected = np.array(logits)
        for i, j in zip(*np.nonzero(rows >= 0)):
            expected[i, rows[i, j]] = -np.inf
        _mask_rows(logits, rows)
        assert np.array_equal(logits, expected)


def transition_of(model) -> list[tuple[int, int, int]]:
    """The scorer's sparse counts as (row, col, count) triples, in stored order."""
    return list(zip(model.rows.tolist(), model.cols.tolist(), model.counts.tolist()))


class TestTraining:
    def test_single_sequence_counts(self):
        model = train_markov(seqs({1: (0, 1, 2)}), 3)
        assert transition_of(model) == [(0, 1, 1), (1, 2, 1)]
        assert model.frequency.tolist() == [1, 1, 1]

    def test_counts_add_across_users(self):
        model = train_markov(seqs({1: (0, 1), 2: (0, 1)}), 3)
        assert transition_of(model) == [(0, 1, 2)]

    def test_training_deterministic(self):
        split = seqs({1: (0, 1, 2), 2: (2, 0)})
        a, b = train_markov(split, 3), train_markov(split, 3)
        assert transition_of(a) == transition_of(b)
        assert np.array_equal(a.frequency, b.frequency)

    @pytest.mark.parametrize("m", [2, 3, 8, 50])
    def test_counts_match_independent_recount(self, m):
        rng = np.random.default_rng(9)
        # lengths from 1 up, so no pair may be counted across two sequences
        split = seqs({u: tuple(rng.permutation(m)[: rng.integers(1, m + 1)].tolist()) for u in range(1, 30)})
        model = train_markov(split, m)
        pairs = Counter(pair for seq in split.values() for pair in zip(seq.items, seq.items[1:]))
        freq = Counter(item for seq in split.values() for item in seq.items)
        assert transition_of(model) == [(a, b, n) for (a, b), n in sorted(pairs.items())]
        assert model.frequency.tolist() == [freq[i] for i in range(m)]
        assert np.array_equal(train_popularity(split, m).frequency, model.frequency)
        for arr in (model.rows, model.cols, model.counts, model.frequency):
            assert arr.dtype == np.int64

    def test_length_one_sequences_have_no_pairs(self, tmp_path):
        model = train_markov(seqs({1: (0,), 2: (2,), 3: (0,)}), 3)
        assert transition_of(model) == []
        save_model(model, tmp_path / "m.json")
        assert json.loads((tmp_path / "m.json").read_text())["transition"] == {"rows": [], "cols": [], "counts": []}
        loaded = load_model(tmp_path / "m.json")
        assert np.array_equal(loaded.score((1,)).logits, model.score((1,)).logits)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            train_markov({}, 4)

    @pytest.mark.parametrize("train", [train_markov, train_popularity])
    @pytest.mark.parametrize("item", [4, 9])  # UserSequence rejects negative ids itself
    def test_item_outside_catalog_rejected(self, train, item):
        with pytest.raises(ValueError, match="outside the catalog of 4 items"):
            train(seqs({1: (0, 1), 2: (2, item)}), 4)


class TestPersistence:
    def test_round_trip_scores_identically(self, tmp_path):
        rng = np.random.default_rng(13)
        model = train_markov(
            seqs({u: tuple(rng.permutation(9)[:5].tolist()) for u in range(1, 10)}), 9
        )
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        for _ in range(100):
            seq = tuple(rng.permutation(9)[: rng.integers(1, 6)].tolist())
            assert np.array_equal(model.score(seq).logits, loaded.score(seq).logits)

    def test_popularity_round_trip(self, tmp_path):
        model = train_popularity(seqs({1: (0, 1, 2)}), 4, alpha=0.3)
        save_model(model, tmp_path / "p.json")
        loaded = load_model(tmp_path / "p.json")
        assert isinstance(loaded, PopularityScorer)
        assert loaded.alpha == 0.3

    def test_file_holds_version_3_params(self, tmp_path):
        save_model(train_markov(seqs({1: (0, 1, 2), 2: (1, 2)}), 3), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["version"] == 3 and doc["params"] == {"alpha": 0.1, "beta": 0.9}
        assert doc["transition"] == {"rows": [0, 1], "cols": [1, 2], "counts": [1, 2]}
        assert doc["frequency"] == [1, 2, 2]

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"magic": "NOPE", "version": 1}')
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: missing or wrong magic header"

    @pytest.mark.parametrize("content", [b"{", b"\xff\xfe{"], ids=["truncated", "not-utf8"])
    def test_not_json_rejected_naming_the_file(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: not a model file: ")
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("version", [99, 1])  # 1: the layout whose params also held mask_seen
    def test_wrong_version_rejected(self, tmp_path, version):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"magic": "SEQCF-MODEL", "version": version, "kind": "markov",
                                    "params": {"alpha": 0.1, "beta": 0.9, "mask_seen": True}}))
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: unsupported model version {version}"

    @staticmethod
    def _tamper(tmp_path, edit):
        model = train_markov(seqs({1: (0, 1, 2), 2: (2, 1)}), 3)
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    @staticmethod
    def _set(field, index, value):
        def edit(doc):
            (doc["frequency"] if field == "frequency" else doc["transition"][field])[index] = value

        return edit

    @staticmethod
    def _swap_first_two(doc):
        for values in doc["transition"].values():
            values[0], values[1] = values[1], values[0]

    @staticmethod
    def _repeat_first_pair(doc):
        doc["transition"]["rows"][1] = doc["transition"]["rows"][0]
        doc["transition"]["cols"][1] = doc["transition"]["cols"][0]

    # the tampered model holds the pairs (0, 1), (1, 2), (2, 1), each once, over 3 items
    @pytest.mark.parametrize(
        "edit, message",
        [
            (_set("rows", 2, 3), r"transition\.rows holds an item id outside the catalog \[0, 3\)"),
            (_set("rows", 0, -1), r"transition\.rows holds an item id outside the catalog \[0, 3\)"),
            (_set("cols", 1, 3), r"transition\.cols holds an item id outside the catalog \[0, 3\)"),
            (_set("cols", 0, -1), r"transition\.cols holds an item id outside the catalog \[0, 3\)"),
            (lambda doc: doc["frequency"].pop(), r"transition\.rows holds an item id outside the catalog \[0, 2\)"),
            (_swap_first_two, "not strictly increasing in row-major order"),
            (_repeat_first_pair, "not strictly increasing in row-major order"),
            (_set("counts", 1, 0), r"transition\.counts holds a count below 1"),
            (_set("counts", 1, -4), r"transition\.counts holds a count below 1"),
            (_set("frequency", 2, -1), "frequency holds negative counts"),
            (lambda doc: doc["transition"]["counts"].pop(), r"differ in length \(3, 3, 2\)"),
            (_set("counts", 0, 2.5), r"transition\.counts holds 2\.5, not an integer"),
            (_set("rows", 0, 0.0), r"transition\.rows holds 0\.0, not an integer"),
            (_set("cols", 0, "1"), r'transition\.cols holds "1", not an integer'),
            (_set("frequency", 2, "3"), r'model field frequency holds "3", not an integer'),
            (_set("counts", 0, True), r"transition\.counts holds true, not an integer"),
            (_set("rows", 0, False), r"transition\.rows holds false, not an integer"),
            (_set("frequency", 2, True), "model field frequency holds true, not an integer"),
            (_set("counts", 0, 2**63), r"transition\.counts holds a count outside the int64 range"),
            (lambda doc: doc.pop("frequency"), "model field frequency is missing or not a list"),
            (lambda doc: doc["transition"].update(rows=5), r"transition\.rows is missing or not a list"),
            (lambda doc: doc.update(transition=[[0, 1, 0], [0, 0, 1], [0, 1, 0]]), "transition must be an object"),
            (lambda doc: doc["transition"].pop("counts"), "transition must be an object with exactly rows"),
            (lambda doc: doc["transition"].update(weights=[]), "transition must be an object with exactly rows"),
        ],
        ids=[
            "row-past-catalog", "negative-row", "col-past-catalog", "negative-col", "short-frequency",
            "unsorted", "duplicate-pair", "zero-count", "negative-count", "negative-frequency",
            "unequal-lengths", "float-count", "float-row", "string-col", "string-frequency", "bool-count",
            "bool-row", "bool-frequency", "count-past-int64", "no-frequency", "rows-not-a-list",
            "dense-transition", "no-counts", "extra-key",
        ],
    )
    def test_tampered_counts_rejected(self, tmp_path, edit, message):
        path = self._tamper(tmp_path, edit)
        with pytest.raises(ModelFormatError, match=message) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert "\n" not in str(exc.value)

    def test_version_2_dense_file_rejected(self, tmp_path):
        def edit(doc):
            doc["version"] = 2
            doc["transition"] = [[0, 1, 0], [0, 0, 1], [0, 1, 0]]

        path = self._tamper(tmp_path, edit)
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: unsupported model version 2"

    def test_bool_in_popularity_frequency_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        save_model(train_popularity(seqs({1: (0, 1, 2)}), 4), path)
        doc = json.loads(path.read_text())
        doc["frequency"][3] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: model field frequency holds true, not an integer"

    @pytest.mark.parametrize(
        "param, value, message",
        [
            ("gamma", 0.3, "unknown markov params.*gamma"),
            ("mask_seen", 0.3, "unknown markov params.*mask_seen"),
            ("alpha", True, "markov param alpha must be a number, got True"),
            ("beta", "0.9", "markov param beta must be a number, got '0.9'"),
        ],
        ids=["gamma", "mask_seen", "bool-alpha", "string-beta"],
    )
    def test_unknown_params_rejected(self, tmp_path, param, value, message):
        path = self._tamper(tmp_path, lambda doc: doc["params"].update({param: value}))
        with pytest.raises(ModelFormatError, match=message) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_unwritable_path_errors(self, tmp_path):
        model = train_popularity(seqs({1: (0, 1)}), 3)
        with pytest.raises(OSError):
            save_model(model, tmp_path)  # a directory, not a file


def _sparse(rows, cols, counts, frequency):
    return dict(rows=np.array(rows), cols=np.array(cols), counts=np.array(counts), frequency=np.array(frequency))


def test_markov_beta_bounds():
    with pytest.raises(ValueError):
        MarkovScorer(**_sparse([0], [1], [2], [1, 1, 1]), beta=1.5)


@pytest.mark.parametrize(
    "counts, message",
    [
        (_sparse([0.0], [1], [2], [1, 1, 1]), r"transition\.rows holds entries that are not integers \(float64\)"),
        (_sparse([0], [1], [2.0], [1, 1, 1]), r"transition\.counts holds entries that are not integers \(float64\)"),
        (_sparse([0], [1], [True], [1, 1, 1]), r"transition\.counts holds entries that are not integers \(bool\)"),
        (_sparse([0], [1], [2], [1.0, 1, 1]), r"frequency holds entries that are not integers \(float64\)"),
        (_sparse([], [], [], [1, 1, 1]), r"transition\.rows holds entries that are not integers \(float64\)"),
        (_sparse([[0]], [[1]], [[2]], [1, 1, 1]), r"transition\.rows must be one-dimensional"),
        (_sparse([1, 0], [0, 1], [2, 2], [1, 1, 1]), "not strictly increasing"),
    ],
    ids=["float-rows", "float-counts", "bool-counts", "float-frequency", "untyped-empty", "2d", "unsorted"],
)
def test_markov_constructor_checks_counts(counts, message):
    """A scorer built in code meets the same checks as one read from a file: nothing is cast."""
    with pytest.raises(ValueError, match=message):
        MarkovScorer(**counts)


def _dense_log_mix(model):
    """The dense formula the sparse score table replaced; it must agree bit for bit."""
    m = model.num_items
    trans = np.zeros((m, m), dtype=np.int64)
    trans[model.rows, model.cols] = model.counts
    row_totals = trans.sum(axis=1, keepdims=True)
    p_trans = (trans + model.alpha) / (row_totals + model.alpha * m)
    p_pop = (model.frequency + model.alpha) / (model.frequency.sum() + model.alpha * m)
    return np.log(model.beta * p_trans + (1.0 - model.beta) * p_pop[None, :])


@pytest.mark.parametrize("m", [2, 3, 9, 50])
@pytest.mark.parametrize("corpus", ["random", "repeated-pair", "no-pairs"])
def test_sparse_table_equals_dense_formula(tmp_path, m, corpus):
    rng = np.random.default_rng(m)
    for trial, (alpha, beta) in enumerate([(0.1, 0.9), (1e-9, 1.0), (1, 0.0), (2.5, 0.5)]):
        longest = 1 if corpus == "no-pairs" else m
        split = {u: tuple(rng.permutation(m)[: rng.integers(1, longest + 1)].tolist())
                 for u in range(1, int(rng.integers(1, 3 * m)) + 1)}
        if corpus == "repeated-pair":
            split.update({len(split) + 1: (0, 1), len(split) + 2: (1, 0), len(split) + 3: (0, 1)})
        model = train_markov(seqs(split), m, alpha=alpha, beta=beta)
        assert np.array_equal(model._log_mix, _dense_log_mix(model))
        path = tmp_path / f"m{trial}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded._log_mix, model._log_mix)
        for _ in range(10):
            seq = tuple(rng.permutation(m)[: rng.integers(1, m)].tolist())
            assert np.array_equal(loaded.score(seq).logits, model.score(seq).logits)


def test_softmax_rows_independent():
    rng = np.random.default_rng(2)
    block = rng.normal(size=(6, 5))
    whole = softmax(block)
    for i in range(6):
        assert np.array_equal(whole[i], softmax(block[i]))


def _softmax_reference(logits):
    """The two-buffer formula `softmax` replaced; it must agree bit for bit."""
    logits = np.asarray(logits, dtype=float)
    z = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    return z / np.sum(z, axis=-1, keepdims=True)


def test_softmax_same_bits_and_input_untouched():
    rng = np.random.default_rng(3)
    for shape in ((7,), (5, 9), (3, 4, 1000)):
        logits = rng.normal(scale=20.0, size=shape)
        logits[rng.random(shape) < 0.2] = -np.inf
        logits[..., 0] = rng.normal()
        before = logits.copy()
        out = softmax(logits)
        # into a caller's buffer: a view of a larger array, as the search's blocks are
        buf = np.full((2, *shape), np.nan)
        into = softmax(logits, out=buf[0])
        assert np.shares_memory(into, buf) and np.isnan(buf[1]).all()
        assert np.array_equal(logits, before)
        for got in (out, into):
            assert got.tobytes() == _softmax_reference(before).tobytes()
            assert (got[np.isneginf(logits)] == 0.0).all()


@pytest.mark.parametrize("shape", [(1, 100), (1, 1000), (10, 1000), (65, 1000), (655, 100), (13, 5000)])
def test_softmax_small_buffer_moves_no_bit(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    logits = rng.normal(scale=20.0, size=shape)
    logits[rng.random(shape) < 0.1] = -np.inf
    logits[:, 0] = rng.normal(size=shape[0])  # one finite logit per row
    with np.errstate():  # the reference runs with numpy's default buffer
        np.setbufsize(8192)
        want = _softmax_reference(logits).tobytes()
    assert softmax(logits).tobytes() == want
    assert softmax(logits, out=np.empty(shape)).tobytes() == want


def test_softmax_restores_the_callers_buffer_size():
    with np.errstate():  # scopes this test's own buffer size
        np.setbufsize(4096)
        softmax(np.zeros((3, 5)))
        assert np.getbufsize() == 4096
        with pytest.raises(ValueError, match="finite logit"):
            softmax(np.full((2, 4), -np.inf))
        assert np.getbufsize() == 4096
        with pytest.raises(ValueError):  # an `out` of the wrong shape fails inside the scoped arithmetic
            softmax(np.zeros((3, 5)), out=np.empty((2, 5)))
        assert np.getbufsize() == 4096
