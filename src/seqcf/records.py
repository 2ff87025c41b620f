"""Explanation records and .jsonl serialization with a provenance header.

Every method (the genetic search, the baselines, the oracle) turns its
outcome into a record through `explanation_record`, so validity at each
evaluation k and both distances are computed the same way for all of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import CategoryMap, as_items, atomic_write, typed_field, user_of
from .metrics import hamming, levenshtein
from .models import ScoreVector
from .objective import SettingSpec, is_valid

RECORDS_FORMAT = "seqcf-explanations.v1"
NORMALIZATION_NOTE = "softmax"  # normalization rule behind every reported score


@dataclass
class ExplanationRecord:
    """One user's counterfactual search outcome (absence is an outcome too)."""

    user: int
    method: str
    setting: SettingSpec
    source: tuple[int, ...]
    counterfactual: tuple[int, ...] | None
    valid_at_k: dict[int, bool]
    hamming: int | None
    levenshtein: int | None
    generation_found: int | None
    seed: int

    def __post_init__(self) -> None:
        if self.counterfactual is not None and (self.levenshtein or 0) < 1:
            raise ValueError("a present counterfactual implies edit distance >= 1")

    def to_dict(self) -> dict:
        return {
            "record_type": "explanation",
            "user": self.user,
            "method": self.method,
            "setting": self.setting.to_dict(),
            "source": list(self.source),
            "counterfactual": None if self.counterfactual is None else list(self.counterfactual),
            "valid_at_k": {str(k): v for k, v in self.valid_at_k.items()},
            "hamming": self.hamming,
            "levenshtein": self.levenshtein,
            "generation_found": self.generation_found,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExplanationRecord":
        """Inverse of `to_dict`; a field of the wrong type fails naming the field."""
        valid_at_k = typed_field(doc, "valid_at_k", "an object of booleans")
        return cls(
            user=typed_field(doc, "user", "an integer"),
            method=typed_field(doc, "method", "a string"),
            setting=SettingSpec.from_dict(typed_field(doc, "setting", "an object")),
            source=typed_field(doc, "source", "a list of non-negative integers"),
            counterfactual=typed_field(doc, "counterfactual", "a list of non-negative integers", nullable=True),
            valid_at_k={int(k): v for k, v in valid_at_k.items()},
            hamming=typed_field(doc, "hamming", "an integer", nullable=True),
            levenshtein=typed_field(doc, "levenshtein", "an integer", nullable=True),
            generation_found=typed_field(doc, "generation_found", "an integer", nullable=True),
            seed=typed_field(doc, "seed", "an integer"),
        )


def explanation_record(
    source,
    method: str,
    setting: SettingSpec,
    model,
    counterfactual: tuple[int, ...] | None,
    generation_found: int | None,
    seed: int,
    categories: CategoryMap | None = None,
    source_scores: ScoreVector | None = None,
    cf_scores: ScoreVector | None = None,
) -> ExplanationRecord:
    """The record of one search outcome; `counterfactual` None records its absence.

    `valid_at_k` checks the counterfactual at each of the setting's k_eval
    that fits the catalog; the model is only asked for scores when a
    counterfactual exists, and only for those the caller did not pass.
    """
    source_items = as_items(source)
    ks = [k for k in setting.k_eval if k <= model.num_items]
    valid_at_k = dict.fromkeys(ks, False)
    ham = lev = None
    if counterfactual is not None:
        if source_scores is None:
            source_scores = model.score(source_items)
        if cf_scores is None:
            cf_scores = model.score(counterfactual)
        valid_at_k = {k: is_valid(setting, source_scores, cf_scores, k, categories) for k in ks}
        ham, lev = hamming(source_items, counterfactual), levenshtein(source_items, counterfactual)
    return ExplanationRecord(
        user=user_of(source),
        method=method,
        setting=setting,
        source=source_items,
        counterfactual=counterfactual,
        valid_at_k=valid_at_k,
        hamming=ham,
        levenshtein=lev,
        generation_found=generation_found,
        seed=seed,
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
    with open(path, encoding="utf-8") as fh:
        lines = [(number, ln) for number, ln in enumerate(fh.read().splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError(f"empty records file {path}")
    header = _parse_line(path, *lines[0], dict)
    if header.get("record_type") != "header" or header.get("format") != RECORDS_FORMAT:
        raise ValueError(f"missing or unknown records header in {path}")
    return header, [_parse_line(path, number, line, ExplanationRecord.from_dict) for number, line in lines[1:]]


def _parse_line(path, number: int, line: str, build):
    """`build` of the line's JSON value; any failure is one error naming the file and line."""
    try:
        return build(json.loads(line))
    except KeyError as exc:
        raise ValueError(f"{path}:{number}: record lacks field {exc}") from None
    except (TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ValueError(f"{path}:{number}: {exc}") from None
