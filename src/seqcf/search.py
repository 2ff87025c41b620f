"""Genetic search for minimal sequence edits that flip a recommender.

The search evolves a population seeded with copies of the source sequence.
Each generation appends mutants (replace / add / delete, one edit each) and
single-cut crossover children to the pool, scores the new sequences through
the black-box model, and keeps the best `population_size` individuals by a
fitness that blends normalized edit distance with the regime's objective
loss. Selection has one rule: the `population_size` best distinct
sequences of the pool by (fitness, items) (clones of a front-runner would
otherwise take over the population within a few generations), padded
cyclically with duplicates when fewer distinct sequences exist.
Validity never steers evolution, so a generation scores only the loss;
validity is judged once, on the final population's distinct sequences,
which are then harvested for the closest valid candidate.

The population is a set of arrays (`Population`): an (N, W) item matrix
padded with NULL_ITEM, W being its longest row, plus per-row lengths,
birth generations and evaluation results. A generation is a fixed number of
numpy steps whatever N is: `mutate_rows` and `crossover_rows` are the array
forms of the scalar operators `mutate_*` and `crossover` (kept as their
reference and used by the baselines). One gather kernel, `apply_edits`,
makes the edit of every mutant and radius-1 ball member; `crossover_rows`
gathers its children from the pool and repairs them with a presence bitmap
and a running count. Neither sorts. Crossover's repair needs duplicate-free
parents, and every row is one: `_RowEvaluator`, which checks the inputs
of the search and of the baselines, rejects a source that repeats an
item, a mutant only takes an item its row lacks, and a child's repair
drops its repeats. Selection's one stable sort of the pool by items keeps
each sequence's first copy in pool order, which is its earliest-born
copy, and the copies born this generation, the sequences new to the
population, are scored in one batch.
A row is scored by itself (softmax; validity by `valid_rows`, from argmax
and rank counts with no top-k; objective mass by one dot product; edit
distance by `levenshtein_batch`), so its results do not depend on the rows
batched with it. The source's own top-1, which validity and the loss
weights compare against, is ranked on the same path: the argmax of its
softmax row, whose first maximum is the scalar `top_k`'s ascending-id
tie-break. Every caller hands the evaluator a whole batch, which it
alone blocks: 512 KiB of float64 scores, normalized in place in one
buffer, so the scorer's block and the buffer stay within a core's 2 MiB
L2 cache over every (rows, m) pass. The baselines judge their attempts
through the same evaluator, so the search and both baselines decide
validity on one path; the scalar `is_valid` and `objective_loss` remain
the reference of the judges (`evaluate`, the oracle) and of the tests.

Before the GA, `explain` scores the whole radius-1 ball of the source
(every sequence one replace, add or delete away, whatever the mutation
weights, since crossover alone also reaches deletions) as one batch when
it holds at most a quarter of the rows the GA would score (`_BALL_SHARE`
of population_size × generations), which bounds both what a miss adds
and the ball's memory. One validity pass judges the whole ball, and only
its valid members are scored for loss. A valid member is the answer: the
one of minimal (loss, items) is exactly what harvesting would pick among
all distance-1 sequences, so no evolved candidate can beat it, and it is
recorded as found in generation 0. Only when no member is valid, or the
ball is too large to score first, does the GA run. At a catalog of
1000 items the ball of a 12-item source is 25k rows, about as many as a
1024 × 30 search scores; scored first, it would make a user's cost
differ twofold by whether the target happens to be one edit away.

Everything is reproducible: randomness comes from streams keyed by
(master seed, purpose, user, generation), and evaluation is pure, so the
result depends only on the inputs and the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_MAX_LEN,
    TAG_CROSSOVER,
    TAG_MUTATE,
    CategoryMap,
    UserSequence,
    as_items,
    derive_stream,
    user_of,
)
from .metrics import NULL_ITEM, levenshtein, levenshtein_batch
from .models import ScoreVector, score_batch_logits, softmax
from .objective import SettingSpec, loss_weights, objective_loss, valid_rows
from .records import ExplanationRecord, explanation_record

MUTATION_KINDS = ("replace", "add", "delete")
_ADD, _DELETE = MUTATION_KINDS.index("add"), MUTATION_KINDS.index("delete")
# float64 scores per evaluation block: the scorer's block and the softmax
# buffer, 1 MiB together, stay within a core's 2 MiB L2 over every pass
_BLOCK_BYTES = 512 << 10
# the pre-pass runs when the ball has at most this share of the rows the GA
# scores (about population_size a generation), so a miss costs at most that much more
_BALL_SHARE = 0.25


@dataclass(frozen=True)
class GaConfig:
    """Search hyperparameters; the defaults are the reference configuration."""

    generations: int = 30
    population_size: int = 8192
    mutation_prob: float = 0.5
    crossover_prob: float = 0.7
    edit_weight: float = 0.5
    max_len: int = DEFAULT_MAX_LEN
    mutation_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        for name in ("mutation_prob", "crossover_prob", "edit_weight"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if len(self.mutation_weights) != 3 or not all(0.0 <= w < math.inf for w in self.mutation_weights):
            raise ValueError("mutation_weights are 3 finite non-negative reals")
        if not any(self.mutation_weights):
            raise ValueError("mutation_weights are all 0; set mutation_prob to 0 to switch mutation off")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")


@dataclass(frozen=True)
class Population:
    """Individuals as arrays; individual i is the sequence rows[i, :lengths[i]].

    `rows` is (N, W) int64 padded with NULL_ITEM, W the longest length;
    `born` is the generation that created each individual; `fitness` (lower
    is better), `loss` and `lev` (edit distance to the source) are its
    evaluation. `valid` (at the search's k) is judged once, on the final
    population, and is None before.
    """

    rows: np.ndarray
    lengths: np.ndarray
    born: np.ndarray
    fitness: np.ndarray
    loss: np.ndarray
    lev: np.ndarray
    valid: np.ndarray | None

    def __len__(self) -> int:
        return int(self.lengths.shape[0])

    def items(self, i: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.rows[i, : self.lengths[i]])

    def take(self, idx: np.ndarray) -> "Population":
        """The individuals at `idx`, in that order, with W cut to their longest row."""
        width = int(self.lengths[idx].max(initial=0))
        return Population(self.rows[idx, :width], *(getattr(self, f)[idx] for f in _PER_ROW))


_RESULTS = ("fitness", "loss", "lev")  # a row's evaluation in each generation, in `_ga_results` order
_PER_ROW = ("lengths", "born", *_RESULTS, "valid")  # Population fields after rows


def _draw_unseen(items: tuple[int, ...], m: int, rng: np.random.Generator) -> int:
    present = set(items)
    if len(present) >= m:
        raise ValueError("catalog exhausted: every item already in the sequence")
    while True:
        z = int(rng.integers(m))
        if z not in present:
            return z


def mutate_replace(seq, m: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Overwrite one uniformly random position with an item of range(m) not in the sequence."""
    items = as_items(seq)
    i = int(rng.integers(len(items)))
    z = _draw_unseen(items, m, rng)
    return items[:i] + (z,) + items[i + 1 :]


def mutate_add(seq, m: int, rng: np.random.Generator, max_len: int = DEFAULT_MAX_LEN) -> tuple[int, ...]:
    """Insert an unseen item of range(m) at a random slot; overflow drops the oldest item."""
    items = as_items(seq)
    i = int(rng.integers(len(items) + 1))
    z = _draw_unseen(items, m, rng)
    out = items[:i] + (z,) + items[i:]
    if len(out) > max_len:
        out = out[1:]
    return out


def mutate_delete(seq, rng: np.random.Generator) -> tuple[int, ...]:
    """Remove one uniformly random position, shifting the suffix left."""
    items = as_items(seq)
    if len(items) < 2:
        raise ValueError("cannot delete from a length-1 sequence")
    i = int(rng.integers(len(items)))
    return items[:i] + items[i + 1 :]


def _dedup_keep_first(items: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(dict.fromkeys(items))


def crossover(
    parent1, parent2, rng: np.random.Generator, max_len: int = DEFAULT_MAX_LEN
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Single-cut recombination; duplicate repair drops later occurrences."""
    p1, p2 = as_items(parent1), as_items(parent2)
    c1 = int(rng.integers(1, len(p1) + 1))
    c2 = int(rng.integers(1, len(p2) + 1))
    child1 = _dedup_keep_first(p1[:c1] + p2[c2:])[-max_len:]
    child2 = _dedup_keep_first(p2[:c2] + p1[c1:])[-max_len:]
    return child1, child2


def combine_fitness(lev: float, loss: float, edit_weight: float, max_len: int) -> float:
    return edit_weight * (lev / max_len) + (1.0 - edit_weight) * loss


def fitness(
    source,
    source_scores: ScoreVector,
    cand,
    cand_scores: ScoreVector,
    setting: SettingSpec,
    edit_weight: float = 0.5,
    max_len: int = DEFAULT_MAX_LEN,
    categories: CategoryMap | None = None,
) -> float:
    """Stand-alone fitness of one scored candidate (lower is better)."""
    lev = levenshtein(as_items(source), as_items(cand))
    loss = objective_loss(setting, source_scores, cand_scores, categories)
    return combine_fitness(lev, loss, edit_weight, max_len)


def _widen(rows: np.ndarray, width: int) -> np.ndarray:
    """`rows` with NULL_ITEM columns appended up to `width`."""
    out = np.full((rows.shape[0], width), NULL_ITEM, dtype=np.int64)
    out[:, : rows.shape[1]] = rows
    return out


def _pad_stack(*blocks: np.ndarray) -> np.ndarray:
    """Stack row blocks of different widths into one NULL-padded block."""
    width = max(b.shape[1] for b in blocks)
    return np.vstack([_widen(b, width) for b in blocks])


def apply_edits(
    rows: np.ndarray, kind: np.ndarray, pos: np.ndarray, item: np.ndarray, max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row i with one edit of kind `kind[i]` (MUTATION_KINDS index) at `pos[i]`, and the lengths.

    `rows` is padded with NULL_ITEM. An add opens slot pos and writes the
    item there, a replace writes it over position pos, a delete closes
    position pos, and a row longer than `max_len` (an add past it) drops its
    oldest items. Each output cell is gathered from one input cell, so
    nothing is sorted.
    """
    is_add, is_delete = kind == _ADD, kind == _DELETE
    lengths = np.count_nonzero(rows != NULL_ITEM, axis=1) + is_add - is_delete
    drop = np.maximum(lengths - max_len, 0)
    lengths -= drop
    cols = np.arange(int(lengths.max(initial=0))) + drop[:, None]  # cells of the edited row
    after = cols > pos[:, None]
    src = cols - (is_add[:, None] & after) + (is_delete[:, None] & (after | (cols == pos[:, None])))
    out = np.take_along_axis(rows, np.minimum(src, rows.shape[1] - 1), axis=1)
    out = np.where(~is_delete[:, None] & (cols == pos[:, None]), item[:, None], out)
    out[cols - drop[:, None] >= lengths[:, None]] = NULL_ITEM
    return out, lengths


def mutate_rows(
    rows: np.ndarray,
    lengths: np.ndarray,
    m: int,
    weights: Sequence[float],
    max_len: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One replace / add / delete edit per row: the array form of `mutate_*`.

    Each row draws its kind among the kinds that apply to it (replace and
    add need an item the row lacks, delete needs two items), weighted by
    `weights`; a row where none applies yields no mutant. The position and
    the unseen item are uniform, as in the scalar operators, and
    `apply_edits` makes the edits (an add that overflows `max_len` drops
    the oldest item). Returns the mutants' rows and lengths in their
    parents' order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    has_unseen = lengths < m
    applies = np.stack([has_unseen, has_unseen, lengths >= 2], axis=1) & (np.asarray(weights) > 0)
    cum = np.cumsum(np.where(applies, weights, 0.0), axis=1)
    some = applies.any(axis=1)
    rows, lengths, applies, cum = rows[some], lengths[some], applies[some], cum[some]

    # the first kind whose cumulative weight exceeds u; a u rounded up to the
    # total falls back to the last kind that applies
    u = rng.random(len(rows)) * cum[:, -1]
    last = applies.shape[1] - 1 - np.argmax(applies[:, ::-1], axis=1)
    kind = np.minimum((u[:, None] >= cum).sum(axis=1), last)
    pos = rng.integers(0, lengths + (kind == _ADD))
    # the rank-th item missing from the row: step past each of the row's
    # items, in ascending order, that is at or below the candidate; this
    # costs O(W) per row where a presence-mask scan costs O(m)
    item = rng.integers(0, np.maximum(m - lengths, 1))
    for present in np.sort(np.where(rows == NULL_ITEM, m, rows), axis=1).T:
        item += present <= item
    return apply_edits(rows, kind, pos, item, max_len)


def crossover_rows(
    rows: np.ndarray,
    lengths: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    rng: np.random.Generator,
    max_len: int,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-cut crossover of the row pairs (a[j], b[j]) of `rows`: the array form of `crossover`.

    Pair j draws uniform cuts c_a, c_b in [1, length] of its parents; its
    children a[:c_a] + b[c_b:] and b[:c_b] + a[c_a:] are rows j and
    len(a) + j of the result, gathered from `rows` in one step. The parents
    must be duplicate-free, so a repeated item can only be a tail cell whose
    item is in the head's prefix. Repair drops those cells, looked up in a
    presence bitmap of the prefix over the m items, and keeps the last
    `max_len` items: a running count of the kept cells gives each its place,
    so nothing is sorted.
    """
    cut_a = rng.integers(1, lengths[a] + 1)
    cut_b = rng.integers(1, lengths[b] + 1)
    head, tail = np.concatenate([a, b])[:, None], np.concatenate([b, a])[:, None]
    cut, tail_cut = np.concatenate([cut_a, cut_b])[:, None], np.concatenate([cut_b, cut_a])[:, None]
    n, width = len(head), rows.shape[1]
    # the pool's cells, each row followed by one NULL cell, which the cells past the tail read
    cells, stride = _widen(rows, width + 1).ravel(), width + 1
    cols = np.arange(2 * width)
    in_head = cols < cut
    wide = cells[np.where(in_head, head * stride + cols, tail * stride + np.minimum(tail_cut + cols - cut, width))]
    # m + 1 presence flags per child, item z at flag z + 1: flag 0, which
    # NULL_ITEM reads, counts as seen
    base = np.arange(n)[:, None] * (m + 1)
    flag = base + 1 + wide
    seen = np.zeros(n * (m + 1), dtype=bool)
    seen[np.where(in_head, flag, base)] = True
    keep = in_head | ~seen[flag]
    count = np.cumsum(keep, axis=1)  # kept cells up to and including each cell
    total = count[:, -1:]
    out_lengths = np.minimum(total, max_len)
    dest = count - 1 - (total - out_lengths)  # the first total - max_len kept cells fall off
    write = keep & (dest >= 0)
    out = np.full((n, int(out_lengths.max(initial=0))), NULL_ITEM, dtype=np.int64)
    out[np.nonzero(write)[0], dest[write]] = wide[write]
    return out, out_lengths[:, 0]


class _RowEvaluator:
    """Loss and validity of candidate rows for one search, whatever the method.

    Building it checks the search's inputs; `max_len`, the longest row the
    search makes, is capped at m - 1, since replacement needs a spare item
    and masking scorers need at least one scoreable item. It also ranks
    the source on the rows' path (`score_batch_logits`, `softmax`, then
    the first maximum), which picks the item `top_k(model.score(source), 1)`
    picks without building a `ScoreVector` or sorting the catalog.

    A row's results depend on its items alone, never on the other rows of
    the batch (the objective mass is one dot product per row). Every
    caller (a GA generation, the final population, the radius-1 ball, the
    baselines) hands over a whole batch, which this class alone scores in
    blocks of `block_rows` rows, 512 KiB of float64 scores. `loss` and
    `valid` each score their rows: the GA's generations need only the
    loss, and validity only decides the final pick.
    """

    def __init__(self, model, setting, source, k, categories, max_len):
        source_items = as_items(source)
        m = model.num_items
        if not 1 <= k <= m:
            raise ValueError(f"k={k} outside [1, {m}]")
        self.max_len = min(max_len, m - 1)
        if len(source_items) > self.max_len:
            raise ValueError(f"source length {len(source_items)} exceeds limit {self.max_len}")
        if not source_items or min(source_items) < 0 or max(source_items) >= m:
            raise ValueError("source must be a non-empty sequence of catalog items")
        if len(set(source_items)) < len(source_items):
            raise ValueError("source repeats an item")  # crossover's repair relies on unique items
        self.model = model
        self.setting = setting
        self.source_items = source_items
        self.k = k
        self.categories = categories
        source_row = np.array([source_items], dtype=np.int64)
        scores = softmax(score_batch_logits(model, source_row, np.array([len(source_items)])))
        self.source_top1 = int(np.argmax(scores[0]))
        self.weights, self.targeted_loss = loss_weights(setting, self.source_top1, m, categories)
        self.block_rows = max(1, _BLOCK_BYTES // (8 * m))

    def _normalized(self, rows: np.ndarray, lengths: np.ndarray):
        """(block, normalized scores) per block of `block_rows` rows.

        Every block is normalized in place in one buffer, allocated here
        (tests set `block_rows` after construction), so a block's scores
        are only valid until the next block is yielded. The scorer's own
        array is never written: a scorer may hand back a cached one.
        """
        buffer = np.empty((min(self.block_rows, len(lengths)), self.model.num_items))
        for start in range(0, len(lengths), self.block_rows):
            block = slice(start, start + self.block_rows)
            logits = score_batch_logits(self.model, rows[block], lengths[block])
            yield block, softmax(logits, out=buffer[: len(logits)])

    def loss(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The objective loss of each row."""
        loss = np.empty(len(lengths))
        for block, norm in self._normalized(rows, lengths):
            mass = np.vecdot(norm, self.weights)
            loss[block] = 1.0 - mass if self.targeted_loss else mass
        return loss

    def valid(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Whether each row is a counterfactual at the search's k."""
        valid = np.empty(len(lengths), dtype=bool)
        for block, norm in self._normalized(rows, lengths):
            valid[block] = valid_rows(self.setting, self.source_top1, norm, self.k, self.categories)
        return valid


def _ga_results(evaluate: _RowEvaluator, config: GaConfig, rows: np.ndarray, lengths: np.ndarray):
    """(fitness, loss, lev) per row: the GA's `_RESULTS`."""
    loss = evaluate.loss(rows, lengths)
    lev = levenshtein_batch(evaluate.source_items, rows, lengths)
    return combine_fitness(lev, loss, config.edit_weight, config.max_len), loss, lev


def _ball_positions(n: int, max_len: int) -> tuple[int, int, int]:
    """Edit positions per kind, in MUTATION_KINDS order, of a length-n source; 0 where the kind does not apply."""
    return n, n + 1 if n < max_len else 0, n if n >= 2 else 0


def radius1_size(source_items: tuple[int, ...], m: int, max_len: int) -> int:
    """How many rows `radius1_ball` returns, without building them."""
    replace, add, delete = _ball_positions(len(source_items), max_len)
    return (replace + add) * (m - len(set(source_items))) + delete


def radius1_ball(source_items: tuple[int, ...], m: int, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Every duplicate-free sequence one edit away from the source, as one NULL-padded batch.

    A replace puts an item absent from the source at one of its L
    positions, an add inserts one at one of its L + 1 slots while
    L < max_len, and a delete removes one of its positions while L >= 2.
    No two edits give the same sequence. One `apply_edits` call edits a
    copy of the source per (kind, position) slot, each replace or add slot
    is repeated over the absent items, and one assignment writes them in.
    Returns (rows, lengths), ordered by kind, then position, then item.
    """
    src = np.asarray(source_items, dtype=np.int64)
    absent = np.delete(np.arange(m), src)
    counts = _ball_positions(len(src), max_len)
    kind, pos = np.array([(k, p) for k, c in enumerate(counts) for p in range(c)]).T
    slots, lengths = apply_edits(np.tile(src, (len(kind), 1)), kind, pos, np.full(len(kind), NULL_ITEM), max_len)
    per_slot = np.where(kind == _DELETE, 1, len(absent))
    rows, lengths = np.repeat(slots, per_slot, axis=0), np.repeat(lengths, per_slot)
    filled = np.repeat(kind != _DELETE, per_slot)  # the replace and add rows, which take an absent item
    rows[filled, np.repeat(pos, per_slot)[filled]] = np.tile(absent, len(kind) - counts[_DELETE])
    return rows, lengths


def _radius1_best(evaluate: _RowEvaluator) -> tuple[int, ...] | None:
    """The ball member with minimal (loss, items) among the valid ones, or None.

    Every member is at edit distance 1, so this is the harvest rule's
    winner over all distance-1 sequences.
    """
    rows, lengths = radius1_ball(evaluate.source_items, evaluate.model.num_items, evaluate.max_len)
    hit = np.flatnonzero(evaluate.valid(rows, lengths))
    if not hit.size:
        return None
    rows, lengths = rows[hit], lengths[hit]
    # NULL_ITEM padding sorts below every item, so column order is tuple order across lengths
    best = np.lexsort((*rows.T[::-1], evaluate.loss(rows, lengths)))[0]
    return tuple(int(x) for x in rows[best, : lengths[best]])


def _row_words(rows: np.ndarray, m: int) -> np.ndarray:
    """Rows of items below `m` packed into int64 words that compare as the rows do.

    Each cell, shifted up by one so that NULL_ITEM packs as 0, fills a bit
    field of fixed width, so comparing the words in turn compares the rows
    lexicographically, and a lexsort over words needs fewer keys than over
    columns.
    """
    bits = m.bit_length()
    per_word = 63 // bits
    used = -(-rows.shape[1] // per_word)
    cells = np.zeros((rows.shape[0], used * per_word), dtype=np.int64)
    cells[:, : rows.shape[1]] = rows + 1
    words = np.zeros((rows.shape[0], used), dtype=np.int64)
    for j in range(per_word):  # cell j of every word
        words |= cells[:, j::per_word] << (bits * (per_word - 1 - j))
    return words


def _earliest_copies(rows: np.ndarray, m: int) -> np.ndarray:
    """Index of the first copy in pool order of each distinct row, in row order.

    In a pool the population's copies of a sequence share one birth and
    come before the generation's new rows, so the first copy is the
    earliest-born one.
    """
    # NULL_ITEM padding sorts below every item, so row order is tuple order;
    # lexsort is stable, so equal rows stay in pool order
    words = _row_words(rows, m)
    order = np.lexsort(words.T[::-1])
    words = words[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    return order[first]


def _select(
    population: Population,
    rows: np.ndarray,
    lengths: np.ndarray,
    gen: int,
    evaluate: _RowEvaluator,
    config: GaConfig,
) -> Population:
    """The next population, from the pool `rows`: `population`, then the rows born in `gen`.

    The next population is the `len(population)` best distinct sequences of
    the pool by (fitness, items), padded cyclically with duplicates when
    there are fewer (clones of one strong candidate would otherwise flood
    truncation selection and stall the search). Each sequence keeps its
    first copy in pool order, so the copies born in `gen` are the
    sequences absent from `population`, and only they are scored.
    """
    n = len(population)
    born = np.concatenate([population.born, np.full(len(lengths) - n, gen)])
    distinct = _earliest_copies(rows, evaluate.model.num_items)
    new = distinct >= n
    fresh = distinct[new]
    scored = _ga_results(evaluate, config, rows[fresh, : lengths[fresh].max(initial=0)], lengths[fresh])
    # each distinct copy's results: its population row's, or the next scored row's
    at = np.where(new, n - 1 + np.cumsum(new), distinct)
    results = [np.concatenate([getattr(population, f), s])[at] for f, s in zip(_RESULTS, scored)]
    ranked = np.argsort(results[0], kind="stable")  # by (fitness, items)
    # fewer distinct sequences than slots: pad cyclically with duplicates
    keep = ranked[np.arange(n) % min(len(ranked), n)]
    idx = distinct[keep]
    return Population(
        rows[idx, : lengths[idx].max()], lengths[idx], born[idx], *(values[keep] for values in results), None
    )


def _variation(
    population: Population, gen: int, m: int, max_len: int, config: GaConfig, seed: int, user: int
) -> tuple[np.ndarray, np.ndarray]:
    """The pool of generation `gen`: the population, then its mutants and crossover children."""
    m_rng = derive_stream(seed, [TAG_MUTATE, user, gen])
    parents = np.flatnonzero(m_rng.random(len(population)) < config.mutation_prob)
    mut_rows, mut_lengths = mutate_rows(
        population.rows[parents], population.lengths[parents], m, config.mutation_weights, max_len, m_rng
    )
    rows = _pad_stack(population.rows, mut_rows)
    lengths = np.concatenate([population.lengths, mut_lengths])
    c_rng = derive_stream(seed, [TAG_CROSSOVER, user, gen])
    order = c_rng.permutation(len(lengths))
    pairs = order[: len(order) // 2 * 2].reshape(-1, 2)
    a, b = pairs[c_rng.random(len(pairs)) < config.crossover_prob].T
    kid_rows, kid_lengths = crossover_rows(rows, lengths, a, b, c_rng, max_len, m)
    return _pad_stack(rows, kid_rows), np.concatenate([lengths, kid_lengths])


def _evolve(evaluate: _RowEvaluator, config: GaConfig, seed: int, user: int) -> Population:
    """The evolutionary loop; the final population ranked by (fitness, items)."""
    m, n = evaluate.model.num_items, config.population_size
    rows = np.tile(np.asarray(evaluate.source_items, dtype=np.int64), (n, 1))
    lengths = np.full(n, len(evaluate.source_items), dtype=np.int64)
    scored = _ga_results(evaluate, config, rows[:1], lengths[:1])  # every individual is the source
    population = Population(rows, lengths, np.zeros(n, dtype=np.int64), *(np.repeat(r, n) for r in scored), None)

    for gen in range(1, config.generations + 1):
        rows, lengths = _variation(population, gen, m, evaluate.max_len, config, seed, user)
        population = _select(population, rows, lengths, gen, evaluate, config)

    # validity steers no generation, so only the final population's distinct rows are judged
    words = _row_words(population.rows, m)
    _, first, copy_of = np.unique(words, axis=0, return_index=True, return_inverse=True)
    valid = evaluate.valid(population.rows[first], population.lengths[first])[copy_of.reshape(-1)]
    population = replace(population, valid=valid)
    # by (fitness, items): equal sequences are copies of one row, so born breaks no tie
    return population.take(np.lexsort((*words.T[::-1], population.fitness)))


def genetic(
    source,
    setting: SettingSpec,
    model,
    k: int,
    config: GaConfig = GaConfig(),
    seed: int = 0,
    categories: CategoryMap | None = None,
) -> Population:
    """Run the evolutionary loop; return the final population ranked by (fitness, items)."""
    evaluate = _RowEvaluator(model, setting, source, k, categories, config.max_len)
    return _evolve(evaluate, config, seed, user_of(source))


def _harvest(population: Population) -> tuple[tuple[int, ...], int] | None:
    """The closest valid candidate of a final population and its birth generation, or None.

    Among candidates valid at the search's k the winner minimizes edit
    distance (ties: lower objective loss, then lexicographic items).
    """
    valid = population.take(np.flatnonzero(population.valid))
    if len(valid) == 0:
        return None
    # equal sequences are copies of one row, so born breaks no tie
    best = np.lexsort((*valid.rows.T[::-1], valid.loss, valid.lev))[0]
    return valid.items(best), int(valid.born[best])


def explain(
    source: UserSequence,
    setting: SettingSpec,
    model,
    k: int,
    config: GaConfig = GaConfig(),
    seed: int = 0,
    categories: CategoryMap | None = None,
) -> ExplanationRecord:
    """The closest valid candidate: from the radius-1 ball, else from the evolved population.

    When the ball is small next to the search (at most `_BALL_SHARE` of
    the population_size × generations rows the GA scores), the whole
    distance-1 neighbourhood is scored first, and its valid member of
    minimal (loss, items) is the result, recorded as found in generation 0;
    no evolved candidate can be closer or rank before it. Otherwise, or
    when no ball member is valid, the genetic search runs and its final
    population is harvested (`_harvest`). No valid candidate is a
    legitimate outcome, recorded as an absent counterfactual.
    """
    evaluate = _RowEvaluator(model, setting, source, k, categories, config.max_len)

    def record(counterfactual, generation_found):
        return explanation_record(source, "gece", setting, counterfactual, generation_found, seed)

    ball_rows = radius1_size(evaluate.source_items, model.num_items, evaluate.max_len)
    if ball_rows <= _BALL_SHARE * config.population_size * config.generations:
        if (best := _radius1_best(evaluate)) is not None:
            return record(best, 0)
    population = _evolve(evaluate, config, seed, user_of(source))
    found = _harvest(population)
    return record(*found) if found else record(None, None)
