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
numpy steps whatever N is: `mutate_rows` and `crossover_rows` edit every
row at once (the tests keep the scalar replace, add, delete and
crossover operators as references of these, and the random baseline
draws its attempts as rows too). One gather kernel, `apply_edits`,
makes the edit of every mutant and radius-1 ball member; `crossover_rows`
gathers its children's real cells from the pool, one flat run per child,
and repairs them with a presence bitmap and a count of the kept cells.
Neither sorts. A generation's pool is one NULL-padded buffer, which
crossover reads its parents from and writes its children into.
Crossover's repair needs duplicate-free parents, and every row is one:
`_checked_source`, which checks the inputs of the search and of the
baselines, rejects a source that repeats an item, a mutant only takes an
item its row lacks, and a child's repair drops its repeats. Selection's
one stable sort of the pool by items keeps each sequence's first copy in
pool order, which is its earliest-born copy, and the copies born this
generation, the sequences new to the population, are scored in one batch.
It is the search's one distinct pass: selection leaves its d distinct
sequences first, by (fitness, items), and row i >= d a copy of row i mod d,
so the final population's validity is judged on its first d rows.
Every ordering of rows by items (this pass, and the items tie-breaks of
the harvest and of the radius-1 ball) compares one byte key per row
(`_row_keys`).
A row is scored by itself (softmax; validity by `valid_rows`, from argmax
and rank counts with no top-k; objective mass by one dot product over the
row, whose weighted columns alone are divided by the row sum; edit
distance by `levenshtein_batch`), so its results do not depend on the rows
batched with it. Validity first screens each row on its logits
(`objective.settled_invalid`): an exact bound settles most invalid rows,
and only the others are normalized and judged. The source's own top-1,
which validity and the loss weights compare against, is ranked on the
same path: the argmax of its softmax row, whose first maximum is the
scalar `top_k`'s ascending-id tie-break, or straight from the logits when
their argmax is unique by a margin (`models.unique_argmax`). Every caller
hands over a whole batch, which `_normalized` alone blocks: 512 KiB of
float64 scores, normalized in place in one buffer, so the scorer's block
and the buffer stay within a core's 2 MiB L2 cache over every (rows, m)
pass. A screened pass copies only its open rows into that buffer and
normalizes it when it fills, so the scorer still sees the same blocks
and each row is scored once. The baselines share that row path
(`_checked_source`, `_source_top1`, `_valid`) for a whole user sample at
once, each attempt judged against its own source's top-1, and the oracle
judges each chunk of a substitution level with a `_RowEvaluator`, so every
explainer decides validity on one path; `evaluate` and the benchmark's
record checks judge with the scalar `is_valid`.

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
1000 items the ball of a 12-item source is 25k rows, about two thirds of
the 35k–42k rows a 1024 × 30 search scores; scored first, it would make
a user's cost differ more than twofold by whether the target happens to
be one edit away.

Everything is reproducible: randomness comes from streams keyed by
(master seed, purpose, user, generation), and evaluation is pure, so the
result depends only on the inputs and the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_MAX_LEN,
    TAG_CROSSOVER,
    TAG_MUTATE,
    CategoryMap,
    UserSequence,
    as_items,
    checked_items,
    derive_stream,
    user_of,
)
from .metrics import NULL_ITEM, levenshtein_batch
from .models import score_batch_logits, softmax, softmax_numerators, unique_argmax
from .objective import SettingSpec, loss_weights, settled_invalid, valid_rows
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


def combine_fitness(lev: float, loss: float, edit_weight: float, max_len: int) -> float:
    return edit_weight * (lev / max_len) + (1.0 - edit_weight) * loss


def _padded(seqs: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Item sequences as one NULL-padded (rows, lengths) batch."""
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    rows = np.full((len(seqs), int(lengths.max(initial=0))), NULL_ITEM, dtype=np.int64)
    cells = np.fromiter(chain.from_iterable(seqs), dtype=np.int64, count=int(lengths.sum()))
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = cells  # row-major, as the items follow each other
    return rows, lengths


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
    """One replace / add / delete edit per row: the array form of the scalar mutation operators.

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
    out: np.ndarray,
) -> np.ndarray:
    """Single-cut crossover of the row pairs (a[j], b[j]) of `rows`, with duplicate repair.

    Pair j draws uniform cuts c_a, c_b in [1, length] of its parents; its
    children a[:c_a] + b[c_b:] and b[:c_b] + a[c_a:] are rows j and
    len(a) + j of the result. Only the children's real cells are made, one
    flat run per child (head cells, then tail cells), gathered from `rows`
    in one step. The parents must be duplicate-free, so a repeated item can
    only be a tail cell whose item is in the head's prefix. Repair drops
    those cells, looked up in a presence bitmap of the heads over the m
    items, and a child with more than `max_len` kept cells drops its first
    ones. One masked assignment writes the kept cells into the padded rows,
    so nothing is sorted. The children go to `out`: 2 * len(a) NULL_ITEM
    rows at least as wide as the longest child, which is at most
    min(max_len, 2 * longest parent - 1). Returns the children's lengths.
    """
    cut_a = rng.integers(1, lengths[a] + 1)
    cut_b = rng.integers(1, lengths[b] + 1)
    head, tail = np.concatenate([a, b]), np.concatenate([b, a])
    cut, tail_cut = np.concatenate([cut_a, cut_b]), np.concatenate([cut_b, cut_a])
    n, width = len(head), rows.shape[1]
    size = cut + lengths[tail] - tail_cut  # each child's cells before repair
    child = np.repeat(np.arange(n), size)
    pos = np.arange(len(child)) - np.repeat(np.cumsum(size) - size, size)  # cell's place in its child
    in_head = pos < cut[child]
    # head cells read the head parent's cell pos, tail cells its tail parent's cell tail_cut + pos - cut
    src = np.where(in_head, head[child] * width + pos, tail[child] * width + (tail_cut - cut)[child] + pos)
    cells = np.take(rows, src)
    flag = child * m + cells  # child's presence flag of the cell's item
    seen = np.zeros(n * m, dtype=bool)
    seen[flag[in_head]] = True
    keep = in_head | ~seen[flag]
    total = np.bincount(child[keep], minlength=n)  # kept cells per child
    out_lengths = np.minimum(total, max_len)
    if (total > max_len).any():  # an overflowing child drops its first total - max_len kept cells
        kept = child[keep]
        rank = np.arange(len(kept)) - (np.cumsum(total) - total)[kept]
        keep[keep] = rank >= (total - out_lengths)[kept]
    out[np.arange(out.shape[1]) < out_lengths[:, None]] = cells[keep]  # row-major, as the cells follow each other
    return out_lengths


def _checked_source(source, m: int, k: int, max_len: int) -> tuple[int, ...]:
    """The items of `source`, after the checks every search and baseline makes of its input.

    `max_len` is the longest row the caller makes, at most m - 1: replacement
    needs a spare item and masking scorers need at least one scoreable item.
    """
    if not 1 <= k <= m:
        raise ValueError(f"k={k} outside [1, {m}]")
    return checked_items(as_items(source), "source", m, max_len)  # crossover's repair relies on unique items


def _normalized(model, rows: np.ndarray, lengths: np.ndarray, normalize=softmax, screen=None):
    """(rows, normalize(their logits)) per block of `_BLOCK_BYTES` of float64 scores.

    `normalize` is `softmax` or `softmax_numerators`. Every block is
    normalized in place in one buffer, allocated per call, so a block's
    scores are only valid until the next block is yielded. The scorer's
    own array is never written: a scorer may hand back a cached one.
    Without `screen` each yield is a block, as a slice of the batch. With
    it, `screen(block, logits)` marks the rows of a block to normalize,
    and only those are copied into the buffer, which is normalized and
    yielded, with those rows' indices in the batch, whenever it fills and
    once at the end: the scorer still sees the same blocks, each row is
    scored once, and few rows make no small softmax calls. A block whose
    rows are all marked, met with an empty buffer, is yielded as without
    a screen, so a batch the screen settles nothing of is not copied.
    """
    block_rows = max(1, _BLOCK_BYTES // (8 * model.num_items))
    buffer = np.empty((min(block_rows, len(lengths)), model.num_items))
    held = np.empty(len(buffer), dtype=np.int64)  # the batch index of each buffered row
    n = 0
    for start in range(0, len(lengths), block_rows):
        block = slice(start, start + block_rows)
        logits = score_batch_logits(model, rows[block], lengths[block])
        kept = None if screen is None else np.flatnonzero(screen(block, logits))
        if kept is None or (n == 0 and kept.size == len(logits)):  # the whole block: no copy
            yield block, normalize(logits, out=buffer[: len(logits)])
            continue
        while kept.size:
            take, kept = kept[: len(buffer) - n], kept[len(buffer) - n :]
            # "clip" only spares np.take a buffered copy: every index is in range
            np.take(logits, take, axis=0, out=buffer[n : n + len(take)], mode="clip")
            held[n : n + len(take)] = start + take
            n += len(take)
            if n == len(buffer):
                yield held, normalize(buffer, out=buffer)
                n = 0
    if n:
        yield held[:n], normalize(buffer[:n], out=buffer[:n])


def _source_top1(model, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The top-1 item of each source row, ranked on the candidates' path.

    It is the first maximum of the row's softmax, which is the item
    `top_k(model.score(source), 1)` picks (ascending-id tie-break) without
    building a `ScoreVector` or sorting the catalog. A row whose logit
    argmax is surely that maximum (`models.unique_argmax`) takes it
    without a softmax; only the others are normalized.
    """
    top1 = np.empty(len(lengths), dtype=np.int64)

    def unsure(block, logits):
        top1[block], sure = unique_argmax(logits)
        return ~sure

    for held, norm in _normalized(model, rows, lengths, screen=unsure):
        top1[held] = np.argmax(norm, axis=1)
    return top1


def _valid(model, setting, source_top1, rows, lengths, k, categories) -> np.ndarray:
    """Whether each row is a counterfactual at k, against `source_top1` (one item, or one per row).

    Each block is first screened on its logits (`objective.settled_invalid`,
    where the bounds are proved). Targeted at threshold t, a row is invalid
    when every weighted logit lies more than -min(0, ln(t / (1 - t))) plus
    `models.LOGIT_MARGIN` below the row's peak; untargeted, when its logit
    argmax is unique by that margin and is the source's top-1. Both bounds
    are exact, so a settled row needs no softmax; the open rows are
    normalized in `_normalized`'s one buffer and judged by `valid_rows`.
    A categorized setting without a category map fails even when every row
    is settled, and a row whose peak is not finite is always judged, so
    softmax rejects it.
    """
    source_top1 = np.broadcast_to(source_top1, lengths.shape)
    valid = np.zeros(len(lengths), dtype=bool)

    def unsettled(block, logits):
        return ~settled_invalid(setting, source_top1[block], logits, categories)

    for held, norm in _normalized(model, rows, lengths, screen=unsettled):
        valid[held] = valid_rows(setting, source_top1[held], norm, k, categories)
    return valid


class _RowEvaluator:
    """Loss and validity of one search's candidate rows.

    Building it checks the search's inputs (`_checked_source`, with
    `max_len` capped at m - 1) and ranks the source (`_source_top1`).
    A row's results depend on its items alone, never on the other rows of
    the batch (the objective mass is one dot product per row). Every
    caller (a GA generation, the final population, the radius-1 ball)
    hands over a whole batch, which is scored in blocks of 512 KiB of
    float64 scores. `loss` and `valid` each score their rows: the GA's
    generations need only the loss, and validity only decides the final
    pick.
    """

    def __init__(self, model, setting, source, k, categories, max_len):
        m = model.num_items
        self.max_len = min(max_len, m - 1)
        self.source_items = _checked_source(source, m, k, self.max_len)
        self.model = model
        self.setting = setting
        self.k = k
        self.categories = categories
        self.source_top1 = int(_source_top1(model, *_padded([self.source_items]))[0])
        self.weights, self.targeted_loss = loss_weights(setting, self.source_top1, m, categories)
        self.weighted = np.flatnonzero(self.weights)  # the columns the loss reads

    def loss(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The objective loss of each row.

        The mass is `np.vecdot(softmax row, weights)` to the last bit, but
        only the weighted columns are divided by the row sum: an undivided
        numerator is finite and non-negative, so its weight of 0 adds
        exactly 0 to the same sum over the same row.
        """
        loss = np.empty(len(lengths))
        for block, (e, sums) in _normalized(self.model, rows, lengths, softmax_numerators):
            e[:, self.weighted] /= sums
            mass = np.vecdot(e, self.weights)
            loss[block] = 1.0 - mass if self.targeted_loss else mass
        return loss

    def valid(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Whether each row is a counterfactual at the search's k."""
        return _valid(self.model, self.setting, self.source_top1, rows, lengths, self.k, self.categories)


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
    best = np.lexsort((_row_keys(rows), evaluate.loss(rows, lengths)))[0]
    return tuple(int(x) for x in rows[best, : lengths[best]])


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row as one fixed-width byte string that compares as the row's items do as a tuple.

    Each cell, shifted up by one so that NULL_ITEM packs as 0 and sorts
    below every item, is stored big-endian in the smallest unsigned type
    that holds the largest one, and the row's bytes are viewed as one
    `np.void`, which numpy compares and sorts as unsigned bytes.
    """
    cell = np.min_scalar_type(int(rows.max()) + 1).newbyteorder(">")
    cells = (rows + 1).astype(cell, order="C")
    return cells.view(np.dtype((np.void, cells.itemsize * rows.shape[1])))[:, 0]


def _earliest_copies(rows: np.ndarray) -> np.ndarray:
    """Index of the first copy in pool order of each distinct row, in row order.

    In a pool the population's copies of a sequence share one birth and
    come before the generation's new rows, so the first copy is the
    earliest-born one. `np.unique` sorts stably when it returns indices,
    so each index it returns is its key's first copy.
    """
    return np.unique(_row_keys(rows), return_index=True)[1]


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
    distinct = _earliest_copies(rows)
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
    """The pool of generation `gen`: the population, then its mutants and crossover children.

    The pool is one NULL-padded buffer, as wide as its longest row: the
    population and the mutants are copied in, and crossover reads its
    parents from there and writes its children below them.
    """
    m_rng = derive_stream(seed, [TAG_MUTATE, user, gen])
    parents = np.flatnonzero(m_rng.random(len(population)) < config.mutation_prob)
    mut_rows, mut_lengths = mutate_rows(
        population.rows[parents], population.lengths[parents], m, config.mutation_weights, max_len, m_rng
    )
    lengths = np.concatenate([population.lengths, mut_lengths])
    c_rng = derive_stream(seed, [TAG_CROSSOVER, user, gen])
    order = c_rng.permutation(len(lengths))
    pairs = order[: len(order) // 2 * 2].reshape(-1, 2)
    a, b = pairs[c_rng.random(len(pairs)) < config.crossover_prob].T

    n, width = len(lengths), max(population.rows.shape[1], mut_rows.shape[1])
    pool = np.full((n + 2 * len(a), min(max_len, 2 * width - 1)), NULL_ITEM, dtype=np.int64)
    pool[: len(population), : population.rows.shape[1]] = population.rows
    pool[len(population) : n, : mut_rows.shape[1]] = mut_rows
    kid_lengths = crossover_rows(pool[:n], lengths, a, b, c_rng, max_len, m, pool[n:])
    lengths = np.concatenate([lengths, kid_lengths])
    return pool[:, : lengths.max()], lengths


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

    # `_select` leaves its d distinct sequences first, by (fitness, items), and
    # row i >= d a copy of row i mod d, so d is where row 0 first repeats
    repeats = np.flatnonzero((population.rows[1:] == population.rows[0]).all(axis=1))
    d = int(repeats[0]) + 1 if repeats.size else n
    copy_of = np.arange(n) % d
    # validity steers no generation, so only the final population's distinct rows are judged
    valid = evaluate.valid(population.rows[:d], population.lengths[:d])[copy_of]
    # by (fitness, items): each sequence's copies follow it
    return replace(population, valid=valid).take(np.argsort(copy_of, kind="stable"))


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
    best = np.lexsort((_row_keys(valid.rows), valid.loss, valid.lev))[0]
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
