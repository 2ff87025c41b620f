"""Genetic search for minimal sequence edits that flip a recommender.

The search evolves a population seeded with copies of the source sequence.
Each generation appends mutants (replace / add / delete, one edit each) and
single-cut crossover children to the pool, scores the new sequences through
the black-box model, and keeps the best `population_size` individuals by a
fitness that blends normalized edit distance with the regime's objective
loss. Selection ranks distinct sequences (clones of a front-runner would
otherwise take over the population within a few generations); slots left
over when few distinct sequences exist are padded with duplicates.
Validity never steers evolution; it is only applied when the final
population is harvested for the closest valid candidate.

The population is a set of arrays (`Population`): an (N, W) item matrix
padded with NULL_ITEM, W being its longest row, plus per-row lengths,
birth generations and evaluation results. A generation is a fixed number of
numpy steps whatever N is, plus one cache lookup per new row: `mutate_rows`
and `crossover_rows` are the array forms of the scalar operators `mutate_*`
and `crossover` (kept as their reference and used by the baselines), only
sequences not seen before in the run are scored, in one model batch, and
selection is one lexsort. Scoring a batch takes its softmax, its top-k
(an argmax for k = 1, otherwise `top_k_rows`, a row-wise partition that
sorts only the k picks, the array form of `top_k`) and its edit distances
to the source (`levenshtein_batch`, bit-parallel).

Everything is reproducible: randomness comes from streams keyed by
(master seed, purpose, user, generation), and evaluation is pure, so the
result depends only on the inputs and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    DEFAULT_MAX_LEN,
    TAG_CROSSOVER,
    TAG_MUTATE,
    TAG_SELECT,
    Catalog,
    CategoryMap,
    UserSequence,
    as_items,
    derive_stream,
)
from .metrics import NULL_ITEM, hamming, levenshtein_batch
from .models import ScoreVector, score_batch_logits, softmax, top_k, top_k_rows
from .objective import SettingSpec, is_valid, loss_weights, valid_from_topk_batch
from .records import ExplanationRecord

MUTATION_KINDS = ("replace", "add", "delete")
_ADD, _DELETE = MUTATION_KINDS.index("add"), MUTATION_KINDS.index("delete")


@dataclass(frozen=True)
class GaConfig:
    """Search hyperparameters; the defaults are the reference configuration."""

    generations: int = 30
    population_size: int = 8192
    mutation_prob: float = 0.5
    crossover_prob: float = 0.7
    edit_weight: float = 0.5
    max_len: int = DEFAULT_MAX_LEN
    elitism_fraction: float = 1.0
    mutation_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        for name in ("mutation_prob", "crossover_prob", "edit_weight", "elitism_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if len(self.mutation_weights) != 3 or any(w < 0 for w in self.mutation_weights):
            raise ValueError("mutation_weights are 3 non-negative reals")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")


@dataclass(frozen=True)
class Population:
    """Individuals as arrays; individual i is the sequence rows[i, :lengths[i]].

    `rows` is (N, W) int64 padded with NULL_ITEM, W the longest length;
    `born` is the generation that created each individual; `fitness` (lower
    is better), `loss`, `lev` (edit distance to the source) and `valid` (at
    the search's k) are its evaluation.
    """

    rows: np.ndarray
    lengths: np.ndarray
    born: np.ndarray
    fitness: np.ndarray
    loss: np.ndarray
    lev: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return int(self.lengths.shape[0])

    def items(self, i: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.rows[i, : self.lengths[i]])

    def take(self, idx: np.ndarray) -> "Population":
        """The individuals at `idx`, in that order, with W cut to their longest row."""
        width = int(self.lengths[idx].max(initial=0))
        return Population(self.rows[idx, :width], *(getattr(self, f)[idx] for f in _PER_ROW))

    def concat(self, other: "Population") -> "Population":
        """This population followed by `other`."""
        return Population(
            _pad_stack(self.rows, other.rows),
            *(np.concatenate([getattr(self, f), getattr(other, f)]) for f in _PER_ROW),
        )


_PER_ROW = ("lengths", "born", "fitness", "loss", "lev", "valid")  # Population fields after rows


def _num_items(catalog: "Catalog | int") -> int:
    return catalog.num_items if isinstance(catalog, Catalog) else int(catalog)


def _draw_unseen(items: tuple[int, ...], m: int, rng: np.random.Generator) -> int:
    present = set(items)
    if len(present) >= m:
        raise ValueError("catalog exhausted: every item already in the sequence")
    while True:
        z = int(rng.integers(m))
        if z not in present:
            return z


def mutate_replace(seq, catalog, rng: np.random.Generator) -> tuple[int, ...]:
    """Overwrite one uniformly random position with an item not in the sequence."""
    items = as_items(seq)
    i = int(rng.integers(len(items)))
    z = _draw_unseen(items, _num_items(catalog), rng)
    return items[:i] + (z,) + items[i + 1 :]


def mutate_add(seq, catalog, rng: np.random.Generator, max_len: int = DEFAULT_MAX_LEN) -> tuple[int, ...]:
    """Insert an unseen item at a random slot; overflow drops the oldest item."""
    items = as_items(seq)
    i = int(rng.integers(len(items) + 1))
    z = _draw_unseen(items, _num_items(catalog), rng)
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
    seen: set[int] = set()
    out = []
    for x in items:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return tuple(out)


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
    from .metrics import levenshtein
    from .objective import objective_loss

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


def _compact(wide: np.ndarray, keep: np.ndarray, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Move each row's kept cells left in order and keep only the last `max_len`."""
    total = keep.sum(axis=1)
    lengths = np.minimum(total, max_len)
    cols = np.arange(int(lengths.max(initial=0)))
    order = np.argsort(~keep, axis=1, kind="stable")  # kept columns first, in order
    src = np.take_along_axis(order, (total - lengths)[:, None] + cols, axis=1)
    rows = np.take_along_axis(wide, src, axis=1)
    rows[cols >= lengths[:, None]] = NULL_ITEM
    return rows, lengths


def _first_occurrence(wide: np.ndarray) -> np.ndarray:
    """True at the first column where each row holds its value."""
    order = np.argsort(wide, axis=1, kind="stable")  # equal values keep column order
    ranked = np.take_along_axis(wide, order, axis=1)
    first = np.ones(wide.shape, dtype=bool)
    first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    out = np.empty_like(first)
    np.put_along_axis(out, order, first, axis=1)
    return out


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
    the unseen item are uniform, and an add that overflows `max_len` drops
    the oldest item, as in the scalar operators. Returns the mutants' rows
    and lengths in their parents' order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    has_unseen = lengths < m
    applies = np.stack([has_unseen, has_unseen, lengths >= 2], axis=1) & (np.asarray(weights) > 0)
    cum = np.cumsum(np.where(applies, weights, 0.0), axis=1)
    some = applies.any(axis=1)
    rows, lengths, applies, cum = rows[some], lengths[some], applies[some], cum[some]
    n_rows, width = rows.shape

    # the first kind whose cumulative weight exceeds u; a u rounded up to the
    # total falls back to the last kind that applies
    u = rng.random(n_rows) * cum[:, -1]
    last = applies.shape[1] - 1 - np.argmax(applies[:, ::-1], axis=1)
    kind = np.minimum((u[:, None] >= cum).sum(axis=1), last)
    is_add = kind == _ADD
    pos = rng.integers(0, lengths + is_add)
    # the rank-th item missing from the row: step past each of the row's
    # items, in ascending order, that is at or below the candidate; this
    # costs O(W) per row where a presence-mask scan costs O(m)
    item = rng.integers(0, np.maximum(m - lengths, 1))
    for present in np.sort(np.where(rows == NULL_ITEM, m, rows), axis=1).T:
        item += present <= item

    cols = np.arange(width + 1)
    shifted = cols - (is_add[:, None] & (cols > pos[:, None]))  # open the slot of an add
    wide = np.take_along_axis(_widen(rows, width + 1), shifted, axis=1)
    at = np.arange(n_rows)
    writes = kind != _DELETE
    wide[at[writes], pos[writes]] = item[writes]
    keep = wide != NULL_ITEM
    keep[at[~writes], pos[~writes]] = False
    return _compact(wide, keep, max_len)


def splice_rows(
    head: np.ndarray,
    head_cut: np.ndarray,
    tail: np.ndarray,
    tail_cut: np.ndarray,
    max_len: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise head[:head_cut] + tail[tail_cut:], repaired as `crossover` does.

    Repair keeps the first occurrence of each item and then the last
    `max_len` items.
    """
    head_width, tail_width = head.shape[1], tail.shape[1]
    cols = np.arange(head_width + tail_width)
    tail = _widen(tail, tail_width + 1)
    from_tail = np.clip(tail_cut[:, None] + cols - head_cut[:, None], 0, tail_width)
    wide = np.where(
        cols < head_cut[:, None],
        head[:, np.minimum(cols, head_width - 1)],
        np.take_along_axis(tail, from_tail, axis=1),
    )
    return _compact(wide, (wide != NULL_ITEM) & _first_occurrence(wide), max_len)


def crossover_rows(
    rows_a: np.ndarray,
    lengths_a: np.ndarray,
    rows_b: np.ndarray,
    lengths_b: np.ndarray,
    rng: np.random.Generator,
    max_len: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-cut crossover of row pairs: the array form of `crossover`.

    Pair j has uniform cuts in [1, length] of each parent; its children are
    rows j and n_pairs + j of the result.
    """
    cut_a = rng.integers(1, lengths_a + 1)
    cut_b = rng.integers(1, lengths_b + 1)
    return splice_rows(
        _pad_stack(rows_a, rows_b),
        np.concatenate([cut_a, cut_b]),
        _pad_stack(rows_b, rows_a),
        np.concatenate([cut_b, cut_a]),
        max_len,
    )


class _RowEvaluator:
    """Fitness, loss, edit distance and validity of candidate rows for one search.

    Results are cached for the whole run, keyed by the bytes of the packed
    row, so a sequence that variation recreates is scored once; the rows
    not cached are scored in one model batch.
    """

    def __init__(self, model, setting, source_items, k, config, categories, key_width):
        self.model = model
        self.setting = setting
        self.source_items = source_items
        self.k = k
        self.config = config
        self.categories = categories
        self.key_width = key_width
        self.m = model.num_items
        source_scores = model.score(source_items)
        self.source_top1 = top_k(source_scores, 1)[0]
        self.weights, self.targeted_loss = loss_weights(setting, source_scores, self.m, categories)
        self.slots: dict[bytes, int] = {}
        self.results: tuple[np.ndarray, ...] = (
            np.empty(0),
            np.empty(0),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
        )

    def __call__(self, rows: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, ...]:
        """(fitness, loss, lev, valid) per row."""
        words = _row_words(rows, self.m, self.key_width)
        keys = words.view(f"V{words.shape[1] * words.itemsize}").ravel().tolist()
        known = len(self.slots)
        # an unseen key takes the next slot, in first-seen order
        slot = np.array([self.slots.setdefault(key, len(self.slots)) for key in keys], dtype=np.int64)
        if len(self.slots) > known:
            slots, first = np.unique(slot, return_index=True)
            fresh = first[slots >= known]
            width = int(lengths[fresh].max())
            scored = self._score(rows[fresh, :width], lengths[fresh])
            self.results = tuple(np.concatenate(pair) for pair in zip(self.results, scored))
        return tuple(r[slot] for r in self.results)

    def _score(self, rows: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, ...]:
        norm = softmax(score_batch_logits(self.model, rows, lengths))
        lev = levenshtein_batch(self.source_items, rows, lengths)
        mass = norm @ self.weights
        loss = 1.0 - mass if self.targeted_loss else mass
        if self.k == 1:
            # argmax picks the first max, which is the ascending-id tie-break
            ids = np.argmax(norm, axis=-1)[:, None]
        else:
            ids = top_k_rows(norm, self.k)
        scores = np.take_along_axis(norm, ids, axis=-1)
        valid = valid_from_topk_batch(self.setting, self.source_top1, ids, scores, self.categories)
        fitness = combine_fitness(lev, loss, self.config.edit_weight, self.config.max_len)
        return fitness, loss, lev, valid


def _row_words(rows: np.ndarray, m: int, width: int = 0) -> np.ndarray:
    """Rows of items below `m` packed into int64 words that compare as the rows do.

    Each cell, shifted up by one so that NULL_ITEM packs as 0, fills a bit
    field of fixed width, so comparing the words in turn compares the rows
    lexicographically; a lexsort over words needs fewer keys than over
    columns, and a row's words are a compact cache key. `width` pads the
    rows to that many columns first, so keys of blocks of different widths
    agree.
    """
    bits = m.bit_length()
    per_word = 63 // bits
    used = -(-rows.shape[1] // per_word)
    cells = np.zeros((rows.shape[0], used * per_word), dtype=np.int64)
    cells[:, : rows.shape[1]] = rows + 1
    words = np.zeros((rows.shape[0], max(used, -(-width // per_word))), dtype=np.int64)
    for j in range(per_word):  # cell j of every word
        words[:, :used] |= cells[:, j::per_word] << (bits * (per_word - 1 - j))
    return words


def _ranking(pop: Population, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices by (fitness, items), earliest born first among equal sequences,
    and the rows' packed words in that order.

    NULL_ITEM padding sorts below every item, so row order is tuple order.
    """
    words = _row_words(pop.rows, m)
    order = np.lexsort((pop.born, *words.T[::-1], pop.fitness))
    return order, words[order]


def _select(
    pool: Population, n: int, m: int, elitism_fraction: float, seed: int, user: int, gen: int
) -> Population:
    ranked, words = _ranking(pool, m)
    # select over distinct sequences: clones of one strong candidate
    # would otherwise flood truncation selection and stall the search
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    distinct = ranked[first]
    n_best = int(round(n * elitism_fraction))
    if n_best < n and len(distinct) > n:
        s_rng = derive_stream(seed, [TAG_SELECT, user, gen])
        rest = distinct[n_best:]
        picked = s_rng.choice(len(rest), size=n - n_best, replace=False)
        distinct = np.concatenate([distinct[:n_best], rest[np.sort(picked)]])
    # fewer distinct sequences than slots: pad cyclically with duplicates
    return pool.take(distinct[np.arange(n) % min(len(distinct), n)])


def genetic(
    source,
    setting: SettingSpec,
    model,
    k: int,
    config: GaConfig = GaConfig(),
    seed: int = 0,
    categories: CategoryMap | None = None,
    on_generation: Callable[[int, Population], None] | None = None,
) -> Population:
    """Run the evolutionary loop; return the final population ranked by (fitness, items)."""
    source_items = as_items(source)
    user = source.user if isinstance(source, UserSequence) else 0
    m = model.num_items
    if not 1 <= k <= m:
        raise ValueError(f"k={k} outside [1, {m}]")
    # candidates never use the whole catalog: replacement needs a spare item
    # and masking scorers need at least one scoreable item
    max_len = min(config.max_len, m - 1)
    if len(source_items) > max_len:
        raise ValueError(f"source length {len(source_items)} exceeds limit {max_len}")
    if not source_items or min(source_items) < 0 or max(source_items) >= m:
        raise ValueError("source must be a non-empty sequence of catalog items")

    evaluate = _RowEvaluator(model, setting, source_items, k, config, categories, max_len)
    n = config.population_size
    rows = np.tile(np.asarray(source_items, dtype=np.int64), (n, 1))
    lengths = np.full(n, len(source_items), dtype=np.int64)
    population = Population(rows, lengths, np.zeros(n, dtype=np.int64), *evaluate(rows, lengths))

    for gen in range(1, config.generations + 1):
        m_rng = derive_stream(seed, [TAG_MUTATE, user, gen])
        parents = np.flatnonzero(m_rng.random(n) < config.mutation_prob)
        mut_rows, mut_lengths = mutate_rows(
            population.rows[parents], population.lengths[parents], m, config.mutation_weights, max_len, m_rng
        )

        pool_rows = _pad_stack(population.rows, mut_rows)
        pool_lengths = np.concatenate([population.lengths, mut_lengths])
        c_rng = derive_stream(seed, [TAG_CROSSOVER, user, gen])
        order = c_rng.permutation(len(pool_lengths))
        pairs = order[: len(order) // 2 * 2].reshape(-1, 2)
        a, b = pairs[c_rng.random(len(pairs)) < config.crossover_prob].T
        kid_rows, kid_lengths = crossover_rows(
            pool_rows[a], pool_lengths[a], pool_rows[b], pool_lengths[b], c_rng, max_len
        )

        rows = _pad_stack(mut_rows, kid_rows)
        lengths = np.concatenate([mut_lengths, kid_lengths])
        new = Population(rows, lengths, np.full(len(lengths), gen), *evaluate(rows, lengths))
        population = _select(population.concat(new), n, m, config.elitism_fraction, seed, user, gen)
        if on_generation is not None:
            on_generation(gen, population)

    return population.take(_ranking(population, m)[0])


def explain(
    source: UserSequence,
    setting: SettingSpec,
    model,
    k: int,
    config: GaConfig = GaConfig(),
    seed: int = 0,
    categories: CategoryMap | None = None,
    method: str = "gece",
) -> ExplanationRecord:
    """Harvest the closest valid candidate from the evolved population.

    Among final-population candidates valid at rank k, the winner minimizes
    edit distance (ties: lower objective loss, then lexicographic items).
    No valid candidate is a legitimate outcome, recorded as an absent
    counterfactual.
    """
    population = genetic(source, setting, model, k, config, seed, categories=categories)
    source_items = as_items(source)
    valid = population.take(np.flatnonzero(population.valid))
    m = model.num_items
    ks = [kk for kk in setting.k_eval if kk <= m]
    if len(valid) == 0:
        return ExplanationRecord(
            user=source.user if isinstance(source, UserSequence) else 0,
            method=method,
            setting=setting,
            source=source_items,
            counterfactual=None,
            valid_at_k={kk: False for kk in ks},
            hamming=None,
            levenshtein=None,
            generation_found=None,
            seed=seed,
        )
    best = np.lexsort((valid.born, *valid.rows.T[::-1], valid.loss, valid.lev))[0]
    winner = valid.items(best)
    src_scores = model.score(source_items)
    cf_scores = model.score(winner)
    return ExplanationRecord(
        user=source.user if isinstance(source, UserSequence) else 0,
        method=method,
        setting=setting,
        source=source_items,
        counterfactual=winner,
        valid_at_k={kk: is_valid(setting, src_scores, cf_scores, kk, categories) for kk in ks},
        hamming=hamming(source_items, winner),
        levenshtein=int(valid.lev[best]),
        generation_found=int(valid.born[best]),
        seed=seed,
    )
