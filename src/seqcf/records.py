"""Explanation records and .jsonl serialization with a provenance header."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import atomic_write
from .objective import SettingSpec

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
