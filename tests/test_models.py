import json

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
from seqcf.models import ScoreVector, softmax

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


class TestTraining:
    def test_single_sequence_counts(self):
        model = train_markov(seqs({1: (0, 1, 2)}), 3)
        assert model.transition[0, 1] == 1
        assert model.transition[1, 2] == 1
        assert model.transition.sum() == 2
        assert model.frequency.tolist() == [1, 1, 1]

    def test_counts_add_across_users(self):
        model = train_markov(seqs({1: (0, 1), 2: (0, 1)}), 3)
        assert model.transition[0, 1] == 2

    def test_training_deterministic(self):
        split = seqs({1: (0, 1, 2), 2: (2, 0)})
        a, b = train_markov(split, 3), train_markov(split, 3)
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.frequency, b.frequency)

    def test_counts_match_independent_recount(self):
        rng = np.random.default_rng(9)
        # lengths from 1 up, so no pair may be counted across two sequences
        split = seqs({u: tuple(rng.permutation(8)[: rng.integers(1, 9)].tolist()) for u in range(1, 30)})
        model = train_markov(split, 8)
        recount = np.zeros((8, 8), dtype=np.int64)
        freq = np.zeros(8, dtype=np.int64)
        for seq in split.values():
            for item in seq.items:
                freq[item] += 1
            for a, b in zip(seq.items, seq.items[1:]):
                recount[a, b] += 1
        assert np.array_equal(model.transition, recount)
        assert np.array_equal(model.frequency, freq)
        assert np.array_equal(train_popularity(split, 8).frequency, freq)
        assert model.transition.dtype == model.frequency.dtype == np.int64

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

    def test_file_holds_version_2_params(self, tmp_path):
        save_model(train_markov(seqs({1: (0, 1, 2)}), 3), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["version"] == 2 and doc["params"] == {"alpha": 0.1, "beta": 0.9}

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"magic": "NOPE", "version": 1}')
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    @pytest.mark.parametrize("version", [99, 1])  # 1: the layout whose params also held mask_seen
    def test_wrong_version_rejected(self, tmp_path, version):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"magic": "SEQCF-MODEL", "version": version, "kind": "markov",
                                    "params": {"alpha": 0.1, "beta": 0.9, "mask_seen": True}}))
        with pytest.raises(ModelFormatError, match=f"^unsupported model version {version}$"):
            load_model(path)

    @staticmethod
    def _tamper(tmp_path, edit):
        model = train_markov(seqs({1: (0, 1, 2), 2: (2, 1)}), 3)
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("transition", -4, "negative"),
            ("frequency", -1, "negative"),
            ("transition", 2.5, r"not integers \(float64\)"),
            ("frequency", "3", r"not integers \(<U21\)"),
        ],
        ids=["transition", "frequency", "transition-fraction", "frequency-string"],
    )
    def test_negative_counts_rejected(self, tmp_path, field, value, message):
        def edit(doc):
            if field == "transition":
                doc["transition"][1][0] = value
            else:
                doc["frequency"][2] = value

        with pytest.raises(ModelFormatError, match=f"{field}.*{message}"):
            load_model(self._tamper(tmp_path, edit))

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
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_non_square_transition_rejected(self, tmp_path):
        path = self._tamper(tmp_path, lambda doc: doc["transition"].pop())
        with pytest.raises(ModelFormatError, match="square"):
            load_model(path)

    def test_frequency_shape_mismatch_rejected(self, tmp_path):
        path = self._tamper(tmp_path, lambda doc: doc["frequency"].append(5))
        with pytest.raises(ModelFormatError, match="does not match"):
            load_model(path)

    def test_unwritable_path_errors(self, tmp_path):
        model = train_popularity(seqs({1: (0, 1)}), 3)
        with pytest.raises(OSError):
            save_model(model, tmp_path)  # a directory, not a file


def test_markov_beta_bounds():
    with pytest.raises(ValueError):
        MarkovScorer(np.zeros((3, 3), dtype=np.int64), np.zeros(3, dtype=np.int64), beta=1.5)


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
        assert np.array_equal(logits, before)
        assert out.tobytes() == _softmax_reference(before).tobytes()
        assert (out[np.isneginf(logits)] == 0.0).all()
