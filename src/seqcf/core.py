"""Shared domain types and deterministic randomness plumbing."""

from __future__ import annotations

import contextlib
import hashlib
import os
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

DEFAULT_MAX_LEN = 50

# Stream purpose tags. Fixed integers: they are part of every derived
# stream's key, so renumbering them changes all downstream randomness.
TAG_MUTATE = 1
TAG_CROSSOVER = 2
TAG_SAMPLE = 4
TAG_BASELINE = 5
TAG_DATA = 6
TAG_TARGET = 7


def derive_stream(seed: int, tags: Sequence[int]) -> np.random.Generator:
    """Return a pseudo-random stream fully determined by (seed, *tags).

    The key is hashed with SHA-256, so equal inputs yield bit-identical
    streams on every platform and in any evaluation order. Python's salted
    ``hash()`` must never be used for this.
    """
    if len(tags) == 0:
        raise ValueError("tags must be non-empty")
    key = "|".join(str(int(t)) for t in (seed, *tags)).encode("ascii")
    entropy = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
    return np.random.default_rng(entropy)


def read_text(path) -> str:
    """The content of a UTF-8 text file, newlines as `open` gives them; other bytes fail naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


@contextlib.contextmanager
def atomic_write(path, newline: str | None = None) -> Iterator[IO[str]]:
    """Open a UTF-8 text file that replaces `path` only when the block completes.

    Writes go to a temporary file beside `path` that `os.replace` moves into
    place; if the block raises, the temporary file is removed and `path`
    keeps its earlier content. An OS error on the temporary file is raised
    naming `path`, since the temporary name is random.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


@dataclass(frozen=True)
class Catalog:
    """Dense 0-based item universe with optional external-id labels."""

    num_items: int
    item_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_items < 2:
            raise ValueError("a catalog needs at least 2 items")
        if self.item_labels is not None and len(self.item_labels) != self.num_items:
            raise ValueError("item_labels length must equal num_items")


@dataclass(frozen=True)
class CategoryMap:
    """Category-id sets per item over a fixed category universe."""

    categories_of: tuple[frozenset[int], ...]
    num_categories: int
    category_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        for item, cats in enumerate(self.categories_of):
            for c in cats:
                if not 0 <= c < self.num_categories:
                    raise ValueError(f"item {item} has out-of-range category {c}")
        if self.category_labels is not None and len(self.category_labels) != self.num_categories:
            raise ValueError("category_labels length must equal num_categories")

    def of(self, item: int) -> frozenset[int]:
        return self.categories_of[item]

    @cached_property
    def membership(self) -> np.ndarray:
        """(items, categories) bool matrix; [i, c] is True when item i carries c."""
        out = np.zeros((len(self.categories_of), self.num_categories), dtype=bool)
        for item, cats in enumerate(self.categories_of):
            out[item, list(cats)] = True
        return out

    def category_id(self, name_or_id: str | int) -> int:
        """Resolve a category label or numeric id string to its dense id."""
        if isinstance(name_or_id, int):
            cid = name_or_id
        elif self.category_labels is not None and name_or_id in self.category_labels:
            cid = self.category_labels.index(name_or_id)
        else:
            try:
                cid = int(name_or_id)
            except ValueError:
                raise ValueError(f"unknown category {name_or_id!r}") from None
        if not 0 <= cid < self.num_categories:
            raise ValueError(f"category id {cid} out of range")
        return cid


@dataclass(frozen=True)
class UserSequence:
    """A temporally ordered, duplicate-free item sequence for one user."""

    user: int
    items: tuple[int, ...]
    max_len: int = DEFAULT_MAX_LEN

    def __post_init__(self) -> None:
        if self.user < 1:
            raise ValueError("user ids are positive integers")
        if not 1 <= len(self.items) <= self.max_len:
            raise ValueError(
                f"sequence length {len(self.items)} outside [1, {self.max_len}]"
            )
        if len(set(self.items)) != len(self.items):
            raise ValueError("sequence contains duplicate items")
        if any(i < 0 for i in self.items):
            raise ValueError("item ids are non-negative integers")

    def __len__(self) -> int:
        return len(self.items)


# what a field of a JSON object may hold, by the phrase that names it;
# booleans are not numbers here, as in the other loaders
_FIELD_KINDS = {
    "an integer": lambda v: type(v) is int,
    "a number": lambda v: type(v) in (int, float),
    "a string": lambda v: type(v) is str,
    "a list of integers": lambda v: type(v) is list and all(type(i) is int for i in v),
    "a list of non-negative integers": lambda v: type(v) is list and all(type(i) is int and i >= 0 for i in v),
    "an object": lambda v: type(v) is dict,
}


def typed_field(doc: dict, name: str, kind: str, nullable: bool = False, prefix: str = ""):
    """Field `name` of a JSON object when it holds `kind` (a `_FIELD_KINDS` phrase), a list as a tuple.

    Anything else fails naming the field as `prefix + name`.
    """
    value = doc[name]
    if value is None and nullable:
        return None
    if _FIELD_KINDS[kind](value):
        return tuple(value) if type(value) is list else value
    raise ValueError(f"field {prefix + name!r} is {value!r}, not {kind}" + (" or null" if nullable else ""))


def as_items(seq: "UserSequence | Iterable[int]") -> tuple[int, ...]:
    """Accept a UserSequence or any iterable of item ids; return a tuple."""
    if isinstance(seq, UserSequence):
        return seq.items
    return tuple(seq)


def user_of(seq: "UserSequence | Iterable[int]") -> int:
    """The user id of a UserSequence; 0 for a bare item sequence."""
    return seq.user if isinstance(seq, UserSequence) else 0
