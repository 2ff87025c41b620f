"""Explanation records and .jsonl serialization with a provenance header.

Every method (the genetic search, the baselines, the oracle) turns its
outcome into a record through `explanation_record`, so validity at each
evaluation k and both distances are computed the same way for all of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import CategoryMap, UserSequence, as_items, atomic_write
from .metrics import hamming, levenshtein
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
        return cls(
            user=doc["user"],
            method=doc["method"],
            setting=SettingSpec.from_dict(doc["setting"]),
            source=tuple(doc["source"]),
            counterfactual=None if doc["counterfactual"] is None else tuple(doc["counterfactual"]),
            valid_at_k={int(k): v for k, v in doc["valid_at_k"].items()},
            hamming=doc["hamming"],
            levenshtein=doc["levenshtein"],
            generation_found=doc["generation_found"],
            seed=doc["seed"],
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
) -> ExplanationRecord:
    """The record of one search outcome; `counterfactual` None records its absence.

    `valid_at_k` checks the counterfactual at each of the setting's k_eval
    that fits the catalog; the model is only asked for scores when a
    counterfactual exists.
    """
    source_items = as_items(source)
    ks = [k for k in setting.k_eval if k <= model.num_items]
    valid_at_k = dict.fromkeys(ks, False)
    ham = lev = None
    if counterfactual is not None:
        src_scores, cf_scores = model.score(source_items), model.score(counterfactual)
        valid_at_k = {k: is_valid(setting, src_scores, cf_scores, k, categories) for k in ks}
        ham, lev = hamming(source_items, counterfactual), levenshtein(source_items, counterfactual)
    return ExplanationRecord(
        user=source.user if isinstance(source, UserSequence) else 0,
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
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"empty records file {path}")
    header = json.loads(lines[0])
    if header.get("record_type") != "header" or header.get("format") != RECORDS_FORMAT:
        raise ValueError(f"missing or unknown records header in {path}")
    records = [ExplanationRecord.from_dict(json.loads(ln)) for ln in lines[1:]]
    return header, records
