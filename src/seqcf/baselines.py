"""Single-substitution baselines the genetic search is measured against.

A baseline draws up to `budget` substitutions of the source and answers
with the first valid one, numbered from 1. `baseline_records` serves a
whole user sample on one row path, shared with the search
(`search._checked_source`, `search._source_top1`, `search._valid`): it
checks every source and ranks all of them in one blocked pass, draws each
user's attempts from the user's own stream as rows of the chunk, then
judges every attempt in 512 KiB blocks, each row against its own source's
top-1, so the attempts after a user's first valid one are drawn and
scored too. The random baseline draws each user's numbers in one call and
makes the chunk's substitutions as array steps (`_random_rows`); a user
whose drawn item is already in its row takes its attempts from there on
by the scalar rule, so every attempt is the one the scalar operator, which
the tests keep as its reference, makes. The educated baseline, which no
benchmark runs, draws each user's attempts as a list. Users are taken in
chunks of at most `_CHUNK_ROWS` attempts, so memory does not grow with
the sample. `baseline_random` and `baseline_educated` are the batch of
one: a user's record does not depend on the users batched with it.
"""

from __future__ import annotations

from functools import partial
from itertools import chain

import numpy as np

from .core import TAG_BASELINE, CategoryMap, UserSequence, derive_stream, user_of
from .objective import SettingSpec, loss_weights
from .records import ExplanationRecord, explanation_record
from .search import _checked_source, _padded, _source_top1, _valid

# attempts per chunk of users: their (rows, max_len) int64 cells, at most 400 KiB, stay below a score block
_CHUNK_ROWS = 1024


class SettingNotApplicableError(ValueError):
    """The requested baseline has no defined behaviour in this regime."""


def _random_rows(streams, items, src_rows, src_lengths, *, budget: int, m: int):
    """Each user's `budget` random attempts as rows: (rows, lengths, counts), user by user.

    Attempt t replaces a random position of attempt t - 1 (the source for
    t = 0) with a random item not in it: the scalar rule draws the
    position, then items until one is not in the row. Each user draws its
    numbers in one `integers(0, bounds)` call, bounds (L, m, L, m, ...),
    which consumes the stream exactly as the scalar calls do while no drawn
    item is already in its row. The chunk's substitutions are then made in
    `budget` array steps, which also mark each user's first attempt whose
    item is in its row. From that attempt on, a marked user's attempts are
    the scalar rule's: its stream replays the call up to the attempt and
    draws the rest one number at a time. Each user's stream is derived in
    turn, saves its start state and draws, so no user's generator outlives
    its draw; a replay restores a saved state into the last one. `items`
    holds the sources, the rows a clash at the first attempt starts from.
    """
    n, width = src_rows.shape
    bounds = np.tile(np.column_stack([src_lengths, np.full(n, m)]), budget)  # (L, m, L, m, ...) per user
    drawn = np.empty_like(bounds)
    starts = []
    for u, rng in enumerate(streams):  # a user's stream lives for its draw; the last one replays the clashes
        starts.append(rng.bit_generator.state)
        drawn[u] = rng.integers(0, bounds[u])
    rows = np.empty((n, budget, width), dtype=np.int64)
    cur, at = src_rows.copy(), np.arange(n)
    clash = np.full(n, budget)  # each user's first attempt whose drawn item is already in its row
    for t in range(budget):
        pos, item = drawn[:, 2 * t], drawn[:, 2 * t + 1]
        clash[(clash == budget) & (cur == item[:, None]).any(axis=1)] = t
        cur[at, pos] = item
        rows[:, t] = cur
    for u in np.flatnonzero(clash < budget).tolist():
        first, length = int(clash[u]), int(src_lengths[u])
        rng.bit_generator.state = starts[u]
        rng.integers(0, bounds[u, : 2 * first])  # the array draw up to the marked attempt
        row = list(items[u]) if first == 0 else rows[u, first - 1, :length].tolist()
        for t in range(first, budget):
            i, z = int(rng.integers(length)), int(rng.integers(m))
            present = set(row)
            while z in present:
                z = int(rng.integers(m))
            row[i] = z
            rows[u, t, :length] = row
    return rows.reshape(n * budget, width), np.repeat(src_lengths, budget), np.full(n, budget, dtype=np.int64)


def _educated_attempts(items, rng, *, budget: int, target: int | None, members: list[int]) -> list[tuple[int, ...]]:
    """Each attempt places the target, or a target-category member not yet present, at a random position.

    An item target goes into a fresh position of the source each time (it
    cannot be placed twice, so attempts do not stack, and a source that
    holds it gets none); category members accumulate like the random
    baseline's edits until every member is present.
    """
    if target is not None:
        if target in items:
            return []
        return [items[:i] + (target,) + items[i + 1 :] for i in (int(rng.integers(len(items))) for _ in range(budget))]
    attempts = []
    for _ in range(budget):
        present = set(items)
        pool = [z for z in members if z not in present]
        if not pool:
            break
        z = pool[int(rng.integers(len(pool)))]
        i = int(rng.integers(len(items)))
        items = items[:i] + (z,) + items[i + 1 :]
        attempts.append(items)
    return attempts


def _educated_rows(streams, items, src_rows, src_lengths, **draw):
    """Each user's educated attempts as rows: (rows, lengths, counts), user by user."""
    attempts = [_educated_attempts(it, rng, **draw) for it, rng in zip(items, streams)]
    counts = np.fromiter(map(len, attempts), dtype=np.int64, count=len(attempts))
    return *_padded(list(chain.from_iterable(attempts))), counts


def _chunk_records(sources, method, setting, model, k, seed, categories, rows_of) -> list[ExplanationRecord]:
    """The record of each source: its first valid attempt, numbered from 1, or none."""
    m = model.num_items
    items = [_checked_source(source, m, k, m - 1) for source in sources]  # a substitution keeps the length
    src_rows, src_lengths = _padded(items)
    top1 = _source_top1(model, src_rows, src_lengths)
    streams = (derive_stream(seed, [TAG_BASELINE, user_of(s)]) for s in sources)  # each taken in turn, then freed
    rows, lengths, counts = rows_of(streams, items, src_rows, src_lengths)
    valid = _valid(model, setting, np.repeat(top1, counts), rows, lengths, k, categories)
    starts = np.cumsum(counts) - counts
    # a user's first valid row is the first valid row at or after its first row, if still its own
    hits = np.flatnonzero(valid)
    first = np.append(hits, len(valid))[np.searchsorted(hits, starts)]
    out = []
    for u, source in enumerate(sources):
        if first[u] < starts[u] + counts[u]:
            row = int(first[u])
            cand = tuple(rows[row, : lengths[row]].tolist())
            out.append(explanation_record(source, method, setting, cand, row - int(starts[u]) + 1, seed))
        else:
            out.append(explanation_record(source, method, setting, None, None, seed))
    return out


def baseline_records(
    method: str,
    sources,
    setting: SettingSpec,
    model,
    k: int,
    budget: int,
    seed: int,
    categories: CategoryMap | None,
) -> list[ExplanationRecord]:
    """The record of each source under `method` ("random" or "educated"), in order.

    Each record equals the one `baseline_random` or `baseline_educated`
    returns for that source alone.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if method == "random":
        rows_of = partial(_random_rows, budget=budget, m=model.num_items)
    elif method == "educated":
        if not setting.targeted:
            raise SettingNotApplicableError("educated baseline does not apply to untargeted settings")
        # rejects a target outside the catalog or the category map before any attempt is drawn
        weights, _ = loss_weights(setting, None, model.num_items, categories)
        members = np.flatnonzero(weights).tolist()  # the target item, or the category's items in ascending order
        if not members:
            raise ValueError(f"target category {setting.target_category} has no items")
        rows_of = partial(_educated_rows, budget=budget, target=setting.target_item, members=members)
    else:
        raise ValueError(f"unknown baseline {method!r}")
    per_chunk = max(1, _CHUNK_ROWS // budget)
    out = []
    for start in range(0, len(sources), per_chunk):
        chunk = sources[start : start + per_chunk]
        out += _chunk_records(chunk, method, setting, model, k, seed, categories, rows_of)
    return out


def baseline_random(
    source: UserSequence,
    setting: SettingSpec,
    model,
    k: int,
    budget: int = 10,
    seed: int = 0,
    categories: CategoryMap | None = None,
) -> ExplanationRecord:
    """Accumulate random single-item substitutions until one is valid.

    Each edit replaces a uniformly random position of the current sequence
    with a uniformly random item not present in it; the first valid one of
    the `budget` edits is the answer.
    """
    return baseline_records("random", [source], setting, model, k, budget, seed, categories)[0]


def baseline_educated(
    source: UserSequence,
    setting: SettingSpec,
    model,
    k: int,
    budget: int = 10,
    seed: int = 0,
    categories: CategoryMap | None = None,
) -> ExplanationRecord:
    """Place the desired item (or a target-category item) at random positions.

    Only defined for targeted regimes; untargeted settings have no item to
    place and raise SettingNotApplicableError. With an item target each
    attempt substitutes the target into a fresh random position of the
    source (the target cannot be inserted twice, so attempts do not stack);
    with a category target the edits accumulate like the random baseline,
    drawing a not-yet-present member of the category each time.
    """
    return baseline_records("educated", [source], setting, model, k, budget, seed, categories)[0]
