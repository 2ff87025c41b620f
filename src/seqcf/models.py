"""Black-box next-item scorers and score post-processing.

A scorer maps an item sequence to one raw score (logit) per catalog item.
Raw scores are normalized to a probability-like scale with a softmax; the
validity threshold used elsewhere applies to that normalized scale. The
count-based scorers emit log-probabilities as their raw scores and mask
the items already in the sequence (-inf), so the softmax reproduces the
underlying smoothed probabilities renormalized over the unseen items.

Search code must treat every scorer as opaque: the only sanctioned channel
is `score` (and the batched convenience wrapper around it).

Counts are held sparsely. A Markov scorer keeps only the adjacent pairs
seen in training, as row ids, column ids and counts in row-major order; no
m x m count matrix is built by training, the model file or the scorer. The
one m x m array is the scorer's float table of log-probabilities.

Model file (`save_model`, `load_model`): one JSON object with magic
`SEQCF-MODEL`, version 3, the scorer `kind`, its `params`, `frequency`
(one count per catalog item; its length is the catalog size m) and, for
`markov`, `transition` = {"rows": [...], "cols": [...], "counts": [...]}.
Files of versions 1 and 2 (a dense transition matrix) are rejected.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .core import UserSequence, as_items, checked_items, read_json, write_json

MODEL_MAGIC = "SEQCF-MODEL"
MODEL_VERSION = 3


class ModelFormatError(ValueError):
    """Raised when a persisted model file is not readable as one."""


# ufunc buffer, in elements, for softmax's row broadcasts (numpy's default is 8192)
_BROADCAST_BUFSIZE = 128


@contextmanager
def _row_broadcasts():
    """Run the body with a ufunc buffer of `_BROADCAST_BUFSIZE` elements; the caller's size is restored."""
    bufsize = np.setbufsize(_BROADCAST_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(bufsize)


def softmax_numerators(logits: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """exp(logits - row max) and its row sums: a softmax before the divide.

    Returns (numerators, sums), the sums with a trailing axis of 1, so that
    `numerators / sums` is `softmax(logits)` bit for bit. A caller that reads
    only some columns of the softmax divides only those. `out` and the
    buffer size are as in `softmax`; the numerators lie in [0, 1], -inf
    logits giving exactly 0.
    """
    logits = np.asarray(logits, dtype=float)
    peak = np.max(logits, axis=-1, keepdims=True)
    if not np.all(np.isfinite(peak)):
        raise ValueError("softmax needs at least one finite logit per row")
    with _row_broadcasts():
        z = np.subtract(logits, peak, out=out)
        np.exp(z, out=z)
    return z, np.sum(z, axis=-1, keepdims=True)


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise stable softmax; -inf logits map to exactly 0.

    The result goes to `out` when given (a float64 array of the logits'
    shape), else to a new array, and every value has the same bits either
    way. Only `out` is written: a scorer may hand back a cached `logits`.

    The arithmetic runs with a ufunc buffer of `_BROADCAST_BUFSIZE`
    elements: with numpy's default buffer the two row broadcasts (minus
    the row max, over the row sum) cost far more than the arithmetic
    needs (on a 65 x 1000 block, about 3.5x and 1.4x the time with the
    small buffer; numpy 2.4, one x86_64 core). The buffer size moves no
    bit: subtract, exp and divide are exactly rounded per element, and the
    float64 row sum is not buffered. The caller's buffer size is restored
    on return and on error.
    """
    z, sums = softmax_numerators(logits, out)
    with _row_broadcasts():
        z /= sums
    return z


# how far a logit screen keeps from its exact cut, in logit units: far above
# the rounding of softmax's subtract, exp, row sum and divide for any catalog
# below 10^9 items, so a row a screen settles is settled as its softmax would be
LOGIT_MARGIN = 1e-6


def unique_argmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's logit argmax, and whether it is surely the first maximum of the row's softmax.

    It is when every other logit of the row lies below peak - LOGIT_MARGIN ·
    max(1, |peak|) (the scaling covers the rounding of that difference): the
    softmax then exponentiates a difference below -0.99 · LOGIT_MARGIN for
    every other item, which stays below the peak's exp(0) = 1 through any
    rounding of the exp and of the divide by the row sum. A row whose peak
    is not finite (NaN, +inf, every logit -inf) is never sure, so softmax
    still rejects it.
    """
    top = np.argmax(logits, axis=1)
    at = np.arange(len(top))
    peak = logits[at, top]
    finite = np.isfinite(peak)
    peak = np.where(finite, peak, np.nan)  # NaN compares False with every logit
    with _row_broadcasts():  # the comparison is a row broadcast too
        near = logits >= (peak - LOGIT_MARGIN * np.maximum(1.0, np.abs(peak)))[:, None]
    near[at, top] = False
    return top, finite & ~near.any(axis=1)


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
    """Raw float64 logits for a padded batch of sequences, one row per candidate.

    Uses the scorer's vectorized `score_batch` when it has one, otherwise
    falls back to per-row `score` calls. Padding cells are NULL/-1. The
    logits are float64 as softmax reads them, so a logit screen compares
    the differences softmax exponentiates.
    """
    batch_fn = getattr(model, "score_batch", None)
    if batch_fn is not None:
        return np.asarray(batch_fn(rows, lengths), dtype=float)
    out = np.empty((rows.shape[0], model.num_items), dtype=float)
    for b in range(rows.shape[0]):
        out[b] = model.score(tuple(int(x) for x in rows[b, : lengths[b]])).logits
    return out


def _mask_rows(logits: np.ndarray, rows: np.ndarray) -> None:
    """-inf at each row's items, written through one flat (row-major) index of `logits`."""
    flat = (rows + np.arange(0, logits.size, logits.shape[1])[:, None])[rows >= 0]
    np.put(logits, flat, -np.inf)


def _int_array(name: str, values) -> np.ndarray:
    """`values` as a 1-d int64 array; float, string and boolean arrays are refused, not cast."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{name} holds entries that are not integers ({arr.dtype})")
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr.astype(np.int64, copy=False)


def _frequency(values) -> np.ndarray:
    freq = _int_array("frequency", values)
    if freq.shape[0] < 2:
        raise ValueError("frequency must hold one count per catalog item, and a catalog needs at least 2 items")
    if freq.min() < 0:
        raise ValueError("frequency holds negative counts")
    return freq


@dataclass(frozen=True)
class PopularityScorer:
    """Frequency-proportional scorer; items already in the sequence masked out."""

    frequency: np.ndarray
    alpha: float = 0.1

    def __post_init__(self) -> None:
        freq = _frequency(self.frequency)
        if not 0 < self.alpha <= sys.float_info.max:  # also NaN, infinity and an integer no float holds
            raise ValueError("alpha must be a finite positive number")
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
        items = checked_items(as_items(seq), m=self.num_items)
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

    With T[i,j] the number of times item j directly followed item i in
    training and F[j] the number of occurrences of j, the smoothed
    probability of item j after sequence S with last item i is

        beta * (T[i,j] + alpha) / (sum_j' T[i,j'] + alpha*m)
          + (1 - beta) * (F[j] + alpha) / (sum F + alpha*m)

    and the emitted raw score is its log (so the softmax-normalized scores
    equal these probabilities renormalized over the items not in S). Items
    of S get -inf.

    T is held sparsely: `counts[n]` is T[rows[n], cols[n]], every other
    entry is 0, and the pairs are strictly increasing in row-major order
    (`rows * m + cols`), so none is repeated. The catalog size m is the
    length of `frequency`. All four arrays must hold integers; the
    constructor checks them, for a scorer built in code and one read from
    a file alike.
    """

    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray
    frequency: np.ndarray
    alpha: float = 0.1
    beta: float = 0.9

    def __post_init__(self) -> None:
        freq = _frequency(self.frequency)
        m = freq.shape[0]
        rows, cols, counts = (_int_array(f"transition.{name}", getattr(self, name))
                              for name in ("rows", "cols", "counts"))
        if not rows.shape == cols.shape == counts.shape:
            raise ValueError(
                f"transition.rows, .cols and .counts differ in length ({rows.size}, {cols.size}, {counts.size})"
            )
        for name, ids in (("rows", rows), ("cols", cols)):
            if ids.min(initial=0) < 0 or ids.max(initial=0) >= m:
                raise ValueError(f"transition.{name} holds an item id outside the catalog [0, {m})")
        flat = rows * m + cols
        if np.any(flat[1:] <= flat[:-1]):
            raise ValueError("transition pairs are not strictly increasing in row-major order (unsorted or repeated)")
        if counts.min(initial=1) < 1:
            raise ValueError("transition.counts holds a count below 1")
        if not 0 < self.alpha <= sys.float_info.max:  # also NaN, infinity and an integer no float holds
            raise ValueError("alpha must be a finite positive number")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        for name, arr in (("rows", rows), ("cols", cols), ("counts", counts), ("frequency", freq)):
            object.__setattr__(self, name, arr)

    @property
    def num_items(self) -> int:
        return int(self.frequency.shape[0])

    @cached_property
    def _log_mix(self) -> np.ndarray:
        """log P(column item | last item = row), in one m x m buffer.

        The dense formula's float operations in its order, so the same bits:
        the unseen-pair value everywhere, the seen pairs' values over it,
        then the blend and the log.
        """
        m = self.num_items
        # float sums of integer counts, exact below 2**53
        denom = np.bincount(self.rows, weights=self.counts, minlength=m) + self.alpha * m
        out = np.empty((m, m))
        out[...] = (self.alpha / denom)[:, None]
        out[self.rows, self.cols] = (self.counts + self.alpha) / denom[self.rows]
        p_pop = (self.frequency + self.alpha) / (self.frequency.sum() + self.alpha * m)
        out *= self.beta
        out += (1.0 - self.beta) * p_pop
        np.log(out, out=out)
        return out

    def score(self, seq) -> ScoreVector:
        items = checked_items(as_items(seq), m=self.num_items)
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
    pairs, counts = np.unique(heads * num_items + tails, return_counts=True)  # sorted: row-major
    rows, cols = np.divmod(pairs, num_items)
    return MarkovScorer(rows=rows, cols=cols, counts=counts, frequency=freq, alpha=alpha, beta=beta)


def save_model(model, path) -> None:
    """Persist a count-based scorer as a JSON container."""
    if isinstance(model, MarkovScorer):
        kind = "markov"
        payload = {
            "transition": {name: getattr(model, name).tolist() for name in ("rows", "cols", "counts")},
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
    write_json(path, {"magic": MODEL_MAGIC, "version": MODEL_VERSION, "kind": kind, **payload})


_PARAMS = {"markov": {"alpha", "beta"}, "popularity": {"alpha"}}


def _counts(values, field: str) -> np.ndarray:
    """A JSON list of integers as an int64 array; the scorer checks the values."""
    if not isinstance(values, list):
        raise ModelFormatError(f"model field {field} is missing or not a list of integers")
    # an exact type test: numpy would load [1, true] as [1, 1], 2.5 and "3"
    # as float and str arrays, and [] as a float array
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ModelFormatError(f"model field {field} holds {json.dumps(bad)}, not an integer")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ModelFormatError(f"model field {field} holds a count outside the int64 range") from None


def load_model(path):
    """Read a model file written by `save_model`, checking it before use.

    Any malformed content is one `ModelFormatError` naming the file.
    """
    doc = read_json(path, "model file", ModelFormatError)
    try:
        return _model_from_doc(doc)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def _model_from_doc(doc):
    """The scorer a model file's JSON value describes."""
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
    arrays = {"frequency": _counts(doc.get("frequency"), "frequency")}
    if kind == "markov":
        transition = doc.get("transition")
        if not isinstance(transition, dict) or set(transition) != {"rows", "cols", "counts"}:
            raise ModelFormatError("model field transition must be an object with exactly rows, cols and counts")
        arrays.update((name, _counts(values, f"transition.{name}")) for name, values in transition.items())
    try:
        if kind == "markov":
            return MarkovScorer(**arrays, **params)
        return PopularityScorer(**arrays, **params)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"invalid {kind} model: {exc}") from exc
