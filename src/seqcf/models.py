"""Black-box next-item scorers and score post-processing.

A scorer maps an item sequence to one raw score (logit) per catalog item.
Raw scores are normalized to a probability-like scale with a softmax; the
validity threshold used elsewhere applies to that normalized scale. The
count-based scorers emit log-probabilities as their raw scores and mask
the items already in the sequence (-inf), so the softmax reproduces the
underlying smoothed probabilities renormalized over the unseen items.

Search code must treat every scorer as opaque: the only sanctioned channel
is `score` (and the batched convenience wrapper around it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .core import UserSequence, as_items, atomic_write

MODEL_MAGIC = "SEQCF-MODEL"
MODEL_VERSION = 2


class ModelFormatError(ValueError):
    """Raised when a persisted model file is not readable as one."""


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; -inf logits map to exactly 0."""
    logits = np.asarray(logits, dtype=float)
    peak = np.max(logits, axis=-1, keepdims=True)
    if not np.all(np.isfinite(peak)):
        raise ValueError("softmax needs at least one finite logit per row")
    # one output-sized buffer, never the input: callers may reuse `logits`
    z = logits - peak
    np.exp(z, out=z)
    z /= np.sum(z, axis=-1, keepdims=True)
    return z


@dataclass(frozen=True)
class ScoreVector:
    """Raw per-item scores plus their lazily normalized form."""

    logits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.logits, dtype=float)
        if arr.ndim != 1:
            raise ValueError("a score vector is one-dimensional")
        object.__setattr__(self, "logits", arr)

    @cached_property
    def normalized(self) -> np.ndarray:
        return softmax(self.logits)

    @property
    def num_items(self) -> int:
        return int(self.logits.shape[0])


def top_k(scores: ScoreVector, k: int) -> list[int]:
    """The k highest-normalized items, ties broken by ascending item id."""
    m = scores.num_items
    if not 1 <= k <= m:
        raise ValueError(f"k={k} outside [1, {m}]")
    order = np.lexsort((np.arange(m), -scores.normalized))
    return [int(i) for i in order[:k]]


class BlackBoxScorer(Protocol):
    num_items: int

    def score(self, seq: "UserSequence | Sequence[int]") -> ScoreVector:
        ...


def score_batch_logits(model: BlackBoxScorer, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Raw logits for a padded batch of sequences, one row per candidate.

    Uses the scorer's vectorized `score_batch` when it has one, otherwise
    falls back to per-row `score` calls. Padding cells are NULL/-1.
    """
    batch_fn = getattr(model, "score_batch", None)
    if batch_fn is not None:
        return batch_fn(rows, lengths)
    out = np.empty((rows.shape[0], model.num_items), dtype=float)
    for b in range(rows.shape[0]):
        out[b] = model.score(tuple(int(x) for x in rows[b, : lengths[b]])).logits
    return out


def _check_sequence(items: tuple[int, ...], num_items: int) -> None:
    if len(items) == 0:
        raise ValueError("cannot score an empty sequence")
    if min(items) < 0 or max(items) >= num_items:
        raise ValueError("sequence contains items outside the catalog")


def _mask_rows(logits: np.ndarray, rows: np.ndarray) -> None:
    valid = rows >= 0
    idx = np.nonzero(valid)
    logits[idx[0], rows[idx]] = -np.inf


@dataclass(frozen=True)
class PopularityScorer:
    """Frequency-proportional scorer; items already in the sequence masked out."""

    frequency: np.ndarray
    alpha: float = 0.1

    def __post_init__(self) -> None:
        freq = np.asarray(self.frequency, dtype=np.int64)
        if freq.ndim != 1 or freq.shape[0] < 2:
            raise ValueError("frequency must be one count per catalog item")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        object.__setattr__(self, "frequency", freq)

    @property
    def num_items(self) -> int:
        return int(self.frequency.shape[0])

    @cached_property
    def _log_pop(self) -> np.ndarray:
        m = self.num_items
        p = (self.frequency + self.alpha) / (self.frequency.sum() + self.alpha * m)
        return np.log(p)

    def score(self, seq) -> ScoreVector:
        items = as_items(seq)
        _check_sequence(items, self.num_items)
        logits = self._log_pop.copy()
        logits[list(items)] = -np.inf
        return ScoreVector(logits)

    def score_batch(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        logits = np.tile(self._log_pop, (rows.shape[0], 1))
        _mask_rows(logits, rows)
        return logits


@dataclass(frozen=True)
class MarkovScorer:
    """First-order transition scorer blended with a popularity prior.

    The smoothed probability of item j after sequence S with last item i is

        beta * (T[i,j] + alpha) / (sum_j' T[i,j'] + alpha*m)
          + (1 - beta) * (F[j] + alpha) / (sum F + alpha*m)

    and the emitted raw score is its log (so the softmax-normalized scores
    equal these probabilities renormalized over the items not in S). Items
    of S get -inf.
    """

    transition: np.ndarray
    frequency: np.ndarray
    alpha: float = 0.1
    beta: float = 0.9

    def __post_init__(self) -> None:
        trans = np.asarray(self.transition, dtype=np.int64)
        freq = np.asarray(self.frequency, dtype=np.int64)
        if trans.ndim != 2 or trans.shape[0] != trans.shape[1]:
            raise ValueError("transition must be square")
        if freq.shape != (trans.shape[0],):
            raise ValueError("frequency must match the transition matrix")
        if trans.shape[0] < 2:
            raise ValueError("a catalog needs at least 2 items")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "frequency", freq)

    @property
    def num_items(self) -> int:
        return int(self.frequency.shape[0])

    @cached_property
    def _log_mix(self) -> np.ndarray:
        m = self.num_items
        row_totals = self.transition.sum(axis=1, keepdims=True)
        p_trans = (self.transition + self.alpha) / (row_totals + self.alpha * m)
        p_pop = (self.frequency + self.alpha) / (self.frequency.sum() + self.alpha * m)
        return np.log(self.beta * p_trans + (1.0 - self.beta) * p_pop[None, :])

    def score(self, seq) -> ScoreVector:
        items = as_items(seq)
        _check_sequence(items, self.num_items)
        logits = self._log_mix[items[-1]].copy()
        logits[list(items)] = -np.inf
        return ScoreVector(logits)

    def score_batch(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        last = rows[np.arange(rows.shape[0]), lengths - 1]
        logits = self._log_mix[last]  # fancy indexing already copies
        _mask_rows(logits, rows)
        return logits


def count_items(sequences: Iterable, num_items: int) -> np.ndarray:
    """How often each item of range(num_items) occurs across `sequences`."""
    items = np.fromiter(chain.from_iterable(map(as_items, sequences)), dtype=np.int64)
    if items.size and (items.min() < 0 or items.max() >= num_items):
        raise ValueError(f"item outside the catalog of {num_items} items")
    return np.bincount(items, minlength=num_items)


def train_popularity(train: Mapping[int, UserSequence], num_items: int, alpha: float = 0.1) -> PopularityScorer:
    if not train:
        raise ValueError("empty training split")
    return PopularityScorer(frequency=count_items(train.values(), num_items), alpha=alpha)


def train_markov(
    train: Mapping[int, UserSequence], num_items: int, alpha: float = 0.1, beta: float = 0.9
) -> MarkovScorer:
    """Count adjacent pairs and item occurrences over the training split."""
    if not train:
        raise ValueError("empty training split")
    seqs = [as_items(seq) for seq in train.values()]
    freq = count_items(seqs, num_items)  # also checks every item lies in the catalog
    heads = np.fromiter(chain.from_iterable(s[:-1] for s in seqs), dtype=np.int64)
    tails = np.fromiter(chain.from_iterable(s[1:] for s in seqs), dtype=np.int64)
    trans = np.zeros((num_items, num_items), dtype=np.int64)
    np.add.at(trans, (heads, tails), 1)
    return MarkovScorer(transition=trans, frequency=freq, alpha=alpha, beta=beta)


def save_model(model, path) -> None:
    """Persist a count-based scorer as a JSON container."""
    if isinstance(model, MarkovScorer):
        kind = "markov"
        payload = {
            "transition": model.transition.tolist(),
            "frequency": model.frequency.tolist(),
            "params": {"alpha": model.alpha, "beta": model.beta},
        }
    elif isinstance(model, PopularityScorer):
        kind = "popularity"
        payload = {
            "frequency": model.frequency.tolist(),
            "params": {"alpha": model.alpha},
        }
    else:
        raise ModelFormatError(f"cannot persist scorer of type {type(model).__name__}")
    doc = {"magic": MODEL_MAGIC, "version": MODEL_VERSION, "kind": kind, **payload}
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


_PARAMS = {"markov": {"alpha", "beta"}, "popularity": {"alpha"}}


def _counts(doc: dict, key: str, ndim: int) -> np.ndarray:
    try:
        # no dtype= cast, which would load 2.5 as 2 and "3" as 3: a float or a
        # string entry makes numpy infer float64 or str, rejected below
        counts = np.asarray(doc[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model field {key!r} is missing or not an integer array") from exc
    if counts.dtype != np.int64:
        raise ModelFormatError(f"model field {key!r} holds entries that are not integers ({counts.dtype})")
    if counts.ndim != ndim:
        raise ModelFormatError(f"model field {key!r} must be {ndim}-dimensional, got shape {counts.shape}")
    if counts.min(initial=0) < 0:  # a reduction: no count-sized temporary
        raise ModelFormatError(f"model field {key!r} holds negative counts")
    return counts


def load_model(path):
    """Read a model file written by `save_model`, checking it before use."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"not a model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("magic") != MODEL_MAGIC:
        raise ModelFormatError("missing or wrong magic header")
    if doc.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind not in _PARAMS:
        raise ModelFormatError(f"unknown scorer kind {kind!r}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ModelFormatError("model params must be an object")
    unknown = sorted(set(params) - _PARAMS[kind])
    if unknown:
        raise ModelFormatError(f"unknown {kind} params {unknown}")
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ModelFormatError(f"{kind} param {name} must be a number, got {value!r}")
    frequency = _counts(doc, "frequency", 1)
    if kind == "markov":
        transition = _counts(doc, "transition", 2)
        if transition.shape[0] != transition.shape[1]:
            raise ModelFormatError(f"transition must be square, got shape {transition.shape}")
        if frequency.shape != (transition.shape[0],):
            raise ModelFormatError(
                f"frequency shape {frequency.shape} does not match transition shape {transition.shape}"
            )
    try:
        if kind == "markov":
            return MarkovScorer(transition=transition, frequency=frequency, **params)
        return PopularityScorer(frequency=frequency, **params)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"invalid {kind} model: {exc}") from exc
