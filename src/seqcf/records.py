"""Explanation records and .jsonl serialization with a provenance header.

Every method (the genetic search, the baselines, the oracle) turns its
outcome into a record through `explanation_record`. A record holds what
the method found and derives its two edit distances, which need no model;
validity at each evaluation k is derived from the model by `seqcf
evaluate` (`metrics.aggregate_report`), never stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import as_items, atomic_write, checked_items, read_text, typed_field, user_of
from .metrics import hamming, levenshtein
from .objective import SettingSpec

RECORDS_FORMAT = "seqcf-explanations.v1"
NORMALIZATION_NOTE = "softmax"  # normalization rule behind every reported score


@dataclass
class ExplanationRecord:
    """One user's counterfactual search outcome (absence is an outcome too) and its derived distances."""

    user: int
    method: str
    setting: SettingSpec
    source: tuple[int, ...]
    counterfactual: tuple[int, ...] | None
    hamming: int | None = field(init=False)
    levenshtein: int | None = field(init=False)
    generation_found: int | None
    seed: int

    def __post_init__(self) -> None:
        source, cand = checked_items(self.source, "source"), self.counterfactual
        if cand is not None and checked_items(cand, "counterfactual") == source:
            raise ValueError("counterfactual equals its source")
        self.hamming = None if cand is None else hamming(source, cand)
        self.levenshtein = None if cand is None else levenshtein(source, cand)

    def to_dict(self) -> dict:
        return {
            "record_type": "explanation",
            "user": self.user,
            "method": self.method,
            "setting": self.setting.to_dict(),
            "source": list(self.source),
            "counterfactual": None if self.counterfactual is None else list(self.counterfactual),
            "hamming": self.hamming,
            "levenshtein": self.levenshtein,
            "generation_found": self.generation_found,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExplanationRecord":
        """Inverse of `to_dict`; a field of the wrong type, or stored distances not the record's own, fail."""
        rec = cls(
            user=typed_field(doc, "user", "an integer"),
            method=typed_field(doc, "method", "a string"),
            setting=SettingSpec.from_dict(typed_field(doc, "setting", "an object")),
            source=typed_field(doc, "source", "a list of non-negative integers"),
            counterfactual=typed_field(doc, "counterfactual", "a list of non-negative integers", nullable=True),
            generation_found=typed_field(doc, "generation_found", "an integer", nullable=True),
            seed=typed_field(doc, "seed", "an integer"),
        )
        ham, lev = (typed_field(doc, name, "an integer", nullable=True) for name in ("hamming", "levenshtein"))
        own = (rec.hamming, rec.levenshtein)
        if (ham, lev) != own:
            held = "no counterfactual" if rec.counterfactual is None else "a counterfactual at {} and {}".format(*own)
            raise ValueError(f"user {rec.user} stores hamming {ham} and levenshtein {lev} for {held}")
        return rec


def explanation_record(
    source,
    method: str,
    setting: SettingSpec,
    counterfactual: tuple[int, ...] | None,
    generation_found: int | None,
    seed: int,
) -> ExplanationRecord:
    """The record of one search outcome; `counterfactual` None records its absence."""
    return ExplanationRecord(
        user=user_of(source), method=method, setting=setting, source=as_items(source),
        counterfactual=counterfactual, generation_found=generation_found, seed=seed,
    )


def write_records(path, records, config: dict | None = None) -> None:
    """One JSON object per line; the first line is a provenance header.

    The file is replaced atomically: a failure part-way leaves any earlier
    file at `path` as it was.
    """
    header = {
        "record_type": "header",
        "format": RECORDS_FORMAT,
        "normalization": NORMALIZATION_NOTE,
        "config": config or {},
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True, separators=(",", ":")) + "\n")


def read_records(path) -> tuple[dict, list[ExplanationRecord]]:
    """The header and records of a .jsonl file; a malformed line fails naming the file and line number."""
    lines = [(number, ln) for number, ln in enumerate(read_text(path).splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError(f"empty records file {path}")
    header = _parse_line(path, *lines[0], dict)
    if header.get("record_type") != "header" or header.get("format") != RECORDS_FORMAT:
        raise ValueError(f"missing or unknown records header in {path}")
    if len(lines) == 1:
        raise ValueError(f"no explanation records in {path}")
    return header, [_parse_line(path, number, line, ExplanationRecord.from_dict) for number, line in lines[1:]]


def _parse_line(path, number: int, line: str, build):
    """`build` of the line's JSON value; any failure is one error naming the file and line."""
    try:
        return build(json.loads(line))
    except KeyError as exc:
        raise ValueError(f"{path}:{number}: record lacks field {exc}") from None
    except (TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ValueError(f"{path}:{number}: {exc}") from None
