"""Interaction-log ingestion, preprocessing, splits, and synthetic corpora.

File formats
  interactions: UTF-8, one row per interaction, tab- or comma-delimited,
    columns user / item / timestamp; an optional header row is detected by
    a non-numeric first field.
  categories: `item<TAB>label1|label2|...`.
  split: one JSON document with keys catalog, categories, train,
    validation, test.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEFAULT_MAX_LEN,
    TAG_DATA,
    Catalog,
    CategoryMap,
    UserSequence,
    atomic_write,
    derive_stream,
    read_text,
)
from .models import count_items

log = logging.getLogger(__name__)

SPLIT_FORMAT = "seqcf-split.v1"


@dataclass
class InteractionLog:
    """Raw (user, external item id, timestamp) rows in file order."""

    rows: list[tuple[int, str, int]]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class SplitDataset:
    """Leave-one-out split plus the catalog and optional category map."""

    train: dict[int, UserSequence]
    validation: dict[int, int]
    test: dict[int, int]
    catalog: Catalog
    categories: CategoryMap | None = None
    max_len: int = DEFAULT_MAX_LEN

    @property
    def users(self) -> list[int]:
        return sorted(self.train)

    def with_categories(self, categories: CategoryMap) -> "SplitDataset":
        return replace(self, categories=categories)


def _detect_delimiter(line: str) -> str:
    if "\t" in line:
        return "\t"
    if "," in line:
        return ","
    raise ValueError("rows must be tab- or comma-delimited")


def load_interactions(path) -> InteractionLog:
    """Parse a tab- or comma-delimited interactions file; malformed rows are counted and reported."""
    try:
        lines = [ln for ln in read_text(path).split("\n") if ln.strip()]
    except OSError as exc:
        raise ValueError(f"cannot read interactions file {path}: {exc}") from exc
    if not lines:
        raise ValueError(f"zero valid rows in {path}")
    delimiter = _detect_delimiter(lines[0])
    first_field = lines[0].split(delimiter)[0].strip()
    if not first_field.lstrip("-").isdigit():
        lines = lines[1:]  # header row

    rows: list[tuple[int, str, int]] = []
    malformed = 0
    for ln in lines:
        parts = [p.strip() for p in ln.split(delimiter)]
        if len(parts) < 3:
            malformed += 1
            continue
        try:
            user = int(parts[0])
            ts = int(parts[2])
        except ValueError:
            malformed += 1
            continue
        if user < 1 or not parts[1]:
            malformed += 1
            continue
        rows.append((user, parts[1], ts))
    if malformed:
        log.warning("skipped %d malformed rows in %s", malformed, path)
    if not rows:
        raise ValueError(f"zero valid rows in {path}")
    return InteractionLog(rows=rows)


def k_core_filter(logdata: InteractionLog, k: int = 5) -> InteractionLog:
    """Iteratively drop users and items with fewer than k interactions.

    Repeats until a fixed point, yielding the maximal sub-log where every
    surviving user and item has at least k interactions.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rows = list(logdata.rows)
    changed = True
    while changed and rows:
        changed = False
        user_counts = Counter(u for u, _, _ in rows)
        kept = [r for r in rows if user_counts[r[0]] >= k]
        changed |= len(kept) != len(rows)
        rows = kept
        item_counts = Counter(i for _, i, _ in rows)
        kept = [r for r in rows if item_counts[r[1]] >= k]
        changed |= len(kept) != len(rows)
        rows = kept
    if not rows:
        raise ValueError(f"{k}-core filtering removed every interaction")
    return InteractionLog(rows=rows)


def _sorted_external_ids(ids) -> list[str]:
    ids = list(ids)
    try:
        return sorted(ids, key=int)
    except ValueError:
        return sorted(ids)


def _dedup_keep_recent(items: list[int]) -> list[int]:
    return list(dict.fromkeys(reversed(items)))[::-1]


def leave_one_out_split(logdata: InteractionLog, max_len: int = DEFAULT_MAX_LEN) -> SplitDataset:
    """Last interaction to test, second-to-last to validation, rest to train.

    Per user the rows are ordered chronologically (file order breaks ties),
    duplicates keep only their most recent occurrence, and the train part
    keeps at most its most recent max_len items.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    ext_ids = _sorted_external_ids({i for _, i, _ in logdata.rows})
    index_of = {e: idx for idx, e in enumerate(ext_ids)}
    catalog = Catalog(num_items=len(ext_ids), item_labels=tuple(ext_ids))

    per_user: dict[int, list[tuple[int, int, int]]] = {}
    for order, (u, i, ts) in enumerate(logdata.rows):
        per_user.setdefault(u, []).append((ts, order, index_of[i]))

    train: dict[int, UserSequence] = {}
    validation: dict[int, int] = {}
    test: dict[int, int] = {}
    for u in sorted(per_user):
        chron = [item for _, _, item in sorted(per_user[u])]
        chron = _dedup_keep_recent(chron)
        if len(chron) < 3:
            raise ValueError(f"user {u} has fewer than 3 interactions after deduplication")
        test[u] = chron[-1]
        validation[u] = chron[-2]
        head = chron[:-2][-max_len:]
        train[u] = UserSequence(user=u, items=tuple(head), max_len=max_len)
    return SplitDataset(
        train=train, validation=validation, test=test, catalog=catalog, max_len=max_len
    )


def load_categories(path, catalog: Catalog) -> CategoryMap:
    """Read `item<TAB>label1|label2` rows into a CategoryMap over the catalog.

    Items missing from the file get the empty category set; repeated rows
    for one item contribute the union of their labels.
    """
    try:
        lines = [ln for ln in read_text(path).split("\n") if ln.strip()]
    except OSError as exc:
        raise ValueError(f"cannot read categories file {path}: {exc}") from exc

    index_of = {}
    if catalog.item_labels is not None:
        index_of = {label: idx for idx, label in enumerate(catalog.item_labels)}
    labels_per_item: dict[int, set[str]] = {}
    for ln in lines:
        parts = ln.split("\t")
        if len(parts) < 2:
            continue
        ext = parts[0].strip()
        idx = index_of.get(ext)
        if idx is None:
            continue
        labels = {lab.strip() for lab in parts[1].split("|") if lab.strip()}
        labels_per_item.setdefault(idx, set()).update(labels)

    all_labels = sorted({lab for labs in labels_per_item.values() for lab in labs})
    label_ids = {lab: cid for cid, lab in enumerate(all_labels)}
    categories_of = tuple(
        frozenset(label_ids[lab] for lab in labels_per_item.get(i, ()))
        for i in range(catalog.num_items)
    )
    return CategoryMap(
        categories_of=categories_of,
        num_categories=len(all_labels),
        category_labels=tuple(all_labels),
    )


def save_split(split: SplitDataset, path) -> None:
    doc = {
        "format": SPLIT_FORMAT,
        "max_len": split.max_len,
        "catalog": {
            "num_items": split.catalog.num_items,
            "item_labels": list(split.catalog.item_labels or []) or None,
        },
        "categories": None
        if split.categories is None
        else {
            "num_categories": split.categories.num_categories,
            "category_labels": list(split.categories.category_labels or []) or None,
            "items": [sorted(s) for s in split.categories.categories_of],
        },
        "train": {str(u): list(seq.items) for u, seq in split.train.items()},
        "validation": {str(u): i for u, i in split.validation.items()},
        "test": {str(u): i for u, i in split.test.items()},
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _user_key(path, field: str, key: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise ValueError(f"{path}: {field} has user key {key!r}, not an integer") from None


def _labels(path, field: str, labels, count: int) -> tuple[str, ...] | None:
    """A label list of `count` strings, or None for a null or empty one."""
    if labels is None or labels == []:
        return None
    if type(labels) is not list or len(labels) != count or set(map(type, labels)) != {str}:
        raise ValueError(f"{path}: {field} is not null or a list of {count} strings")
    return tuple(labels)


def _category_map(path, cdoc, m: int) -> CategoryMap:
    if not isinstance(cdoc, dict):
        raise ValueError(f"{path}: categories is a {type(cdoc).__name__}, not an object")
    num, items = cdoc.get("num_categories"), cdoc.get("items")
    if type(num) is not int or num < 0:
        raise ValueError(f"{path}: categories.num_categories is {num!r}, not a count")
    if type(items) is not list:
        raise ValueError(f"{path}: categories.items is a {type(items).__name__}, not a list of category id lists")
    if len(items) != m:
        raise ValueError(f"{path}: categories.items covers {len(items)} items, catalog.num_items is {m}")
    for item, cats in enumerate(items):
        if type(cats) is not list or not all(type(c) is int and 0 <= c < num for c in cats):
            raise ValueError(f"{path}: categories.items[{item}] is {cats!r}, not a list of ids in [0, {num})")
    labels = _labels(path, "categories.category_labels", cdoc.get("category_labels"), num)
    return CategoryMap(categories_of=tuple(frozenset(s) for s in items), num_categories=num, category_labels=labels)


def load_split(path) -> SplitDataset:
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON split file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != SPLIT_FORMAT:
        raise ValueError(f"not a split file: {path}")
    for key in ("max_len", "catalog", "train", "validation", "test"):
        if key not in doc:
            raise ValueError(f"{path}: missing field {key}")
    max_len = doc["max_len"]
    if type(max_len) is not int or max_len < 1:
        raise ValueError(f"{path}: max_len is {max_len!r}, not an integer >= 1")
    cat = doc["catalog"] if isinstance(doc["catalog"], dict) else {}
    m = cat.get("num_items")
    if type(m) is not int or m < 2:
        raise ValueError(f"{path}: catalog.num_items is {m!r}, not an integer >= 2")
    if "item_labels" not in cat:
        raise ValueError(f"{path}: missing field catalog.item_labels")
    catalog = Catalog(num_items=m, item_labels=_labels(path, "catalog.item_labels", cat["item_labels"], m))
    users = {}
    for field in ("train", "validation", "test"):
        section = doc[field]
        if not isinstance(section, dict):
            raise ValueError(f"{path}: {field} is a {type(section).__name__}, not an object keyed by user id")
        if field == "train":
            bad = next((u for u, ids in section.items() if type(ids) is not list), None)
            if bad is not None:
                raise ValueError(f"{path}: train user {bad} holds {section[bad]!r}, not a list of item ids")
        # a type set and min/max reductions per sequence: no per-item Python
        # step and no split-sized temporary array; bool is not an item id
        for ids in section.values() if field == "train" else [section.values()]:
            if ids and not (set(map(type, ids)) == {int} and 0 <= min(ids) and max(ids) < m):
                bad = next(i for i in ids if type(i) is not int or not 0 <= i < m)
                raise ValueError(f"{path}: {field} holds item {bad!r}, not an integer id in the catalog [0, {m})")
        users[field] = {_user_key(path, field, u): value for u, value in section.items()}
    categories = None if doc.get("categories") is None else _category_map(path, doc["categories"], m)
    try:
        train = {u: UserSequence(user=u, items=tuple(items), max_len=max_len) for u, items in users["train"].items()}
    except ValueError as exc:  # an empty, too long or repeating sequence, or a user id below 1
        raise ValueError(f"{path}: train: {exc}") from None
    return SplitDataset(
        train=train,
        validation=users["validation"],
        test=users["test"],
        catalog=catalog,
        categories=categories,
        max_len=max_len,
    )


_CHAIN_PROB = 0.9  # chance that a synthetic walk steps to its item's cycle successor
_ZIPF_EXPONENT = 0.8  # skew of synthetic item popularity
_NUM_CATEGORIES = 6  # synthetic category labels cat0..cat5, one block of items each
_SECOND_CATEGORY_PROB = 0.2  # share of synthetic items with a second category label


def synthesize_corpus(
    num_users: int,
    num_items: int,
    seed: int = 0,
    walk_min: int = 10,
    walk_max: int = 16,
) -> tuple[InteractionLog, dict[str, tuple[str, ...]]]:
    """Generate a synthetic interaction log plus item category labels.

    Users walk a hidden random cycle over the items: with probability
    _CHAIN_PROB the next interaction is the current item's fixed successor,
    otherwise a Zipf-popular jump. Walks never revisit an item, so every
    user history is duplicate-free; the cycle structure gives the item
    transition statistics sharp modes, the Zipf term skews popularity.
    Categories are blocks of the item index space with occasional second
    labels, so cycle neighbours usually live in different categories.
    """
    if num_items < 4 or num_users < 1:
        raise ValueError("need at least 4 items and 1 user")
    walk_max = min(walk_max, num_items - 1)  # walks are duplicate-free
    walk_min = min(walk_min, walk_max)
    if walk_min < 2:
        raise ValueError("walks need at least 2 interactions")
    rng = derive_stream(seed, [TAG_DATA])
    cycle = rng.permutation(num_items)
    successor = np.empty(num_items, dtype=np.int64)
    successor[cycle] = np.roll(cycle, -1)

    weights = 1.0 / np.arange(1, num_items + 1, dtype=float) ** _ZIPF_EXPONENT
    weights /= weights.sum()

    def zipf_draw(exclude: set[int]) -> int:
        for _ in range(4 * num_items):
            x = int(rng.choice(num_items, p=weights))
            if x not in exclude:
                return x
        return next(i for i in range(num_items) if i not in exclude)

    rows: list[tuple[int, str, int]] = []
    for user in range(1, num_users + 1):
        length = int(rng.integers(walk_min, walk_max + 1))
        cur = zipf_draw(set())
        visited = {cur}
        walk = [cur]
        while len(walk) < length:
            if rng.random() < _CHAIN_PROB:
                nxt = int(successor[cur])
            else:
                nxt = zipf_draw(visited)
            if nxt in visited:
                nxt = zipf_draw(visited)
            visited.add(nxt)
            walk.append(nxt)
            cur = nxt
        rows.extend((user, str(item), step) for step, item in enumerate(walk))

    block = -(-num_items // _NUM_CATEGORIES)  # ceil division
    categories: dict[str, tuple[str, ...]] = {}
    for item in range(num_items):
        labels = [f"cat{item // block}"]
        if rng.random() < _SECOND_CATEGORY_PROB:
            extra = int(rng.integers(_NUM_CATEGORIES))
            if f"cat{extra}" not in labels:
                labels.append(f"cat{extra}")
        categories[str(item)] = tuple(labels)
    return InteractionLog(rows=rows), categories


def write_interactions(logdata: InteractionLog, path) -> None:
    with atomic_write(path) as fh:
        for u, i, ts in logdata.rows:
            fh.write(f"{u}\t{i}\t{ts}\n")


def write_categories(categories: dict[str, tuple[str, ...]], path) -> None:
    with atomic_write(path) as fh:
        for ext in _sorted_external_ids(categories):
            fh.write(f"{ext}\t{'|'.join(categories[ext])}\n")


def sample_users(split: SplitDataset, count: int, stream: np.random.Generator) -> list[int]:
    """Deterministic user sample without replacement (all users if count is 0)."""
    if count < 0:
        raise ValueError(f"cannot sample {count} users; give a count >= 0 (0 means every user)")
    users = split.users
    if count == 0 or count >= len(users):
        return users
    picked = stream.choice(len(users), size=count, replace=False)
    return sorted(users[i] for i in picked)


TARGET_STRATA = ("popular", "standard", "unpopular")


def sample_target_item(
    split: SplitDataset, stratum: str, stream: np.random.Generator
) -> int:
    """Draw a target item from a popularity stratum of the training split.

    popular: top decile by training frequency; standard: middle two
    quartiles; unpopular: bottom decile.
    """
    if stratum not in TARGET_STRATA:
        raise ValueError(f"unknown stratum {stratum!r}")
    freq = count_items(split.train.values(), split.catalog.num_items)
    order = np.lexsort((np.arange(len(freq)), -freq))  # most popular first
    m = len(order)
    decile = max(1, m // 10)
    if stratum == "popular":
        pool = order[:decile]
    elif stratum == "unpopular":
        pool = order[-decile:]
    else:
        pool = order[m // 4 : max(m // 4 + 1, 3 * m // 4)]
    return int(pool[int(stream.integers(len(pool)))])
