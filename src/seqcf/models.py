"""Black-box next-item scorers and score post-processing.

A scorer maps an item sequence to one raw score (logit) per catalog item.
Raw scores are normalized to a probability-like scale with a softmax; the
validity threshold used elsewhere applies to that normalized scale. The
count-based scorers emit log-probabilities as their raw scores, so the
softmax reproduces the underlying smoothed probabilities exactly
(restricted to unmasked items).

Search code must treat every scorer as opaque: the only sanctioned channel
is `score` (and the batched convenience wrapper around it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from .core import UserSequence, as_items, atomic_write

MODEL_MAGIC = "SEQCF-MODEL"
MODEL_VERSION = 1


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


_BLOCK_CELLS = 1 << 18  # cells per block of the top-k tie repair: 2 MiB of float64


def top_k_rows(norm: np.ndarray, k: int) -> np.ndarray:
    """`top_k` of every row of a (rows, m) score matrix, as a (rows, k) id array.

    A partition picks each row's k highest scores without sorting the row.
    Where scores equal to the k-th one straddle the cut, the partition's
    pick among them need not be the lowest ids, so such a row takes every
    score above the k-th and then the lowest ids equal to it. The k picks
    are then ordered by descending score, ties by ascending id.
    """
    rows, m = norm.shape
    if not 1 <= k <= m:
        raise ValueError(f"k={k} outside [1, {m}]")
    # a copy, so the (rows, m) index array is freed at once
    ids = np.argpartition(norm, m - k, axis=1)[:, m - k :].copy()
    kth = np.take_along_axis(norm, ids[:, :1], axis=1)  # the k-th highest score
    tied = np.flatnonzero(np.count_nonzero(norm >= kth, axis=1) > k)
    # every score above the k-th, then the lowest ids among those equal to it;
    # in blocks of rows, so that the repair adds no (rows, m) temporaries
    step = max(1, _BLOCK_CELLS // m)
    for start in range(0, tied.size, step):
        block = tied[start : start + step]
        sub, cut = norm[block], kth[block]
        above, at = sub > cut, sub == cut
        room = k - np.count_nonzero(above, axis=1)
        pick = above | (at & (np.cumsum(at, axis=1, dtype=np.int32) <= room[:, None]))
        ids[block] = np.nonzero(pick)[1].reshape(-1, k)
    scores = np.take_along_axis(norm, ids, axis=1)
    return np.take_along_axis(ids, np.lexsort((ids, -scores), axis=1), axis=1)


@runtime_checkable
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
    mask_seen: bool = True

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
        if self.mask_seen:
            logits[list(items)] = -np.inf
        return ScoreVector(logits)

    def score_batch(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        logits = np.tile(self._log_pop, (rows.shape[0], 1))
        if self.mask_seen:
            _mask_rows(logits, rows)
        return logits


@dataclass(frozen=True)
class MarkovScorer:
    """First-order transition scorer blended with a popularity prior.

    The smoothed probability of item j after sequence S with last item i is

        beta * (T[i,j] + alpha) / (sum_j' T[i,j'] + alpha*m)
          + (1 - beta) * (F[j] + alpha) / (sum F + alpha*m)

    and the emitted raw score is its log (so the softmax-normalized scores
    equal these probabilities renormalized over unmasked items). Items of S
    get -inf when mask_seen is on.
    """

    transition: np.ndarray
    frequency: np.ndarray
    alpha: float = 0.1
    beta: float = 0.9
    mask_seen: bool = True

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
        if self.mask_seen:
            logits[list(items)] = -np.inf
        return ScoreVector(logits)

    def score_batch(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        last = rows[np.arange(rows.shape[0]), lengths - 1]
        logits = self._log_mix[last]  # fancy indexing already copies
        if self.mask_seen:
            _mask_rows(logits, rows)
        return logits


def train_popularity(
    train: Mapping[int, UserSequence], num_items: int, alpha: float = 0.1, mask_seen: bool = True
) -> PopularityScorer:
    if not train:
        raise ValueError("empty training split")
    freq = np.zeros(num_items, dtype=np.int64)
    for seq in train.values():
        for item in as_items(seq):
            freq[item] += 1
    return PopularityScorer(frequency=freq, alpha=alpha, mask_seen=mask_seen)


def train_markov(
    train: Mapping[int, UserSequence],
    num_items: int,
    alpha: float = 0.1,
    beta: float = 0.9,
    mask_seen: bool = True,
) -> MarkovScorer:
    """Count adjacent pairs and item occurrences over the training split."""
    if not train:
        raise ValueError("empty training split")
    trans = np.zeros((num_items, num_items), dtype=np.int64)
    freq = np.zeros(num_items, dtype=np.int64)
    for seq in train.values():
        items = as_items(seq)
        for item in items:
            freq[item] += 1
        for a, b in zip(items, items[1:]):
            trans[a, b] += 1
    return MarkovScorer(transition=trans, frequency=freq, alpha=alpha, beta=beta, mask_seen=mask_seen)


def save_model(model, path) -> None:
    """Persist a count-based scorer as a JSON container."""
    if isinstance(model, MarkovScorer):
        kind = "markov"
        payload = {
            "transition": model.transition.tolist(),
            "frequency": model.frequency.tolist(),
            "params": {"alpha": model.alpha, "beta": model.beta, "mask_seen": model.mask_seen},
        }
    elif isinstance(model, PopularityScorer):
        kind = "popularity"
        payload = {
            "frequency": model.frequency.tolist(),
            "params": {"alpha": model.alpha, "mask_seen": model.mask_seen},
        }
    else:
        raise ModelFormatError(f"cannot persist scorer of type {type(model).__name__}")
    doc = {"magic": MODEL_MAGIC, "version": MODEL_VERSION, "kind": kind, **payload}
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


_PARAMS = {"markov": {"alpha", "beta", "mask_seen"}, "popularity": {"alpha", "mask_seen"}}


def _counts(doc: dict, key: str, ndim: int) -> np.ndarray:
    try:
        counts = np.asarray(doc[key], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model field {key!r} is missing or not an integer array") from exc
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
