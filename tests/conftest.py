import numpy as np
import pytest

from seqcf import UserSequence, k_core_filter, leave_one_out_split, synthesize_corpus, train_markov
from seqcf.core import CategoryMap
from seqcf.dataset import load_categories, write_categories
from seqcf.models import ScoreVector


class EchoScorer:
    """Last-item-dominant test model: recommends whatever ends the sequence."""

    def __init__(self, num_items: int):
        self.num_items = num_items

    def score(self, seq):
        items = seq.items if isinstance(seq, UserSequence) else tuple(seq)
        logits = np.zeros(self.num_items)
        logits[items[-1]] = 10.0
        return ScoreVector(logits)


class SumScorer:
    """Any single change flips the output: top-1 is the item sum mod m."""

    def __init__(self, num_items: int):
        self.num_items = num_items

    def score(self, seq):
        items = seq.items if isinstance(seq, UserSequence) else tuple(seq)
        logits = np.zeros(self.num_items)
        logits[sum(items) % self.num_items] = 10.0
        return ScoreVector(logits)


class ConstScorer:
    """Recommends item 0 no matter the input; no counterfactual exists."""

    def __init__(self, num_items: int):
        self.num_items = num_items

    def score(self, seq):
        logits = np.zeros(self.num_items)
        logits[0] = 10.0
        return ScoreVector(logits)


class TableScorer:
    """Crafted logits: the sequence (i, ...) scores as row i of the table."""

    def __init__(self, logits):
        self.logits = np.asarray(logits, dtype=float)
        self.num_items = self.logits.shape[1]

    def score(self, seq):
        items = seq.items if isinstance(seq, UserSequence) else tuple(seq)
        return ScoreVector(self.logits[items[0]])


class CountingScorer:
    """Wraps a scorer and records every sequence it is asked to score."""

    def __init__(self, model):
        self.model, self.num_items, self.calls = model, model.num_items, []

    def score(self, seq):
        self.calls.append(tuple(seq.items if isinstance(seq, UserSequence) else seq))
        return self.model.score(seq)


class QueuedRng:
    """Stand-in generator releasing scripted integers/floats in order."""

    def __init__(self, integers=(), randoms=()):
        self._ints = list(integers)
        self._floats = list(randoms)

    def integers(self, low, high=None):
        return self._ints.pop(0)

    def random(self):
        return self._floats.pop(0)


def overlapping_categories(m):
    # some items carry two categories, so un_cat overlap checks see sets
    return CategoryMap(
        categories_of=tuple(frozenset({i % 3} | ({(i + 1) % 3} if i % 4 == 0 else set())) for i in range(m)),
        num_categories=3,
    )


def seqs(mapping, max_len=50):
    return {u: UserSequence(u, tuple(items), max_len) for u, items in mapping.items()}


@pytest.fixture
def cycle_markov():
    """Markov scorer trained on ten copies of the chain 0->1->2->3."""
    return train_markov(seqs({u: (0, 1, 2, 3) for u in range(1, 11)}), 4)


@pytest.fixture
def echo6():
    return EchoScorer(6)


@pytest.fixture(scope="session")
def synth_corpus(tmp_path_factory):
    """Training sequences, Markov scorer and category map of a small synthetic corpus (80 users x 60 items)."""
    log, labels = synthesize_corpus(80, 60, seed=0)
    split = leave_one_out_split(k_core_filter(log, 5), max_len=50)
    path = tmp_path_factory.mktemp("corpus") / "categories.tsv"
    write_categories(labels, path)
    return split.train, train_markov(split.train, split.catalog.num_items), load_categories(path, split.catalog)
