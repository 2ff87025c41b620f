"""Sequence distances, fidelity, and aggregate explanation reports.

Fidelity at k is the fraction of the top-k scores that clear the validity
threshold t:

    fidelity@k = (1/k) * sum_i 1(s_i >= t)   over the k largest scores s_i.

Hamming distance counts differing positions of equal-length sequences.
When lengths differ the shorter sequence is right-aligned and front-padded
with a reserved null item; padded positions count as differing.
"""

from __future__ import annotations

import csv
import json
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .core import CategoryMap, as_items, atomic_write

if TYPE_CHECKING:  # pragma: no cover
    from .models import ScoreVector
    from .records import ExplanationRecord

NULL_ITEM = -1  # padding marker; never a real item id

REPORT_COLUMNS = (
    "method",
    "setting",
    "dataset",
    "model",
    "seed",
    "k",
    "fidelity",
    "mean_hamming",
    "mean_levenshtein",
    "valid_fraction",
    "n_users",
)


def hamming(a, b) -> int:
    """Positions at which the two sequences differ, after null padding.

    The shorter sequence is right-aligned against the longer one and
    front-padded with NULL_ITEM, which never matches a real item.
    """
    xa, xb = as_items(a), as_items(b)
    if len(xa) < len(xb):
        xa = (NULL_ITEM,) * (len(xb) - len(xa)) + xa
    elif len(xb) < len(xa):
        xb = (NULL_ITEM,) * (len(xa) - len(xb)) + xb
    return sum(1 for x, y in zip(xa, xb) if x != y)


def levenshtein(a, b) -> int:
    """Unit-cost insert/delete/substitute edit distance."""
    xa, xb = as_items(a), as_items(b)
    if xa == xb:
        return 0
    prev = list(range(len(xb) + 1))
    for i, x in enumerate(xa, start=1):
        cur = [i] + [0] * len(xb)
        for j, y in enumerate(xb, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[-1]


def levenshtein_batch(
    source: Sequence[int], rows: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Edit distance from `source` to each padded row.

    `rows` is (B, W) int, padded with NULL_ITEM beyond each row's length;
    padding never equals a real item so it cannot disturb earlier columns.
    The in-row insertion recurrence is resolved with a min-plus prefix scan
    so the whole batch advances one source position per numpy step.
    """
    src = np.asarray(as_items(source), dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n_rows, width = rows.shape
    dist = np.tile(np.arange(width + 1, dtype=np.int64), (n_rows, 1))
    offsets = np.arange(1, width + 1, dtype=np.int64)
    for i, s in enumerate(src, start=1):
        step = np.minimum(dist[:, :-1] + (rows != s), dist[:, 1:] + 1)
        scan = np.empty_like(dist)
        scan[:, 0] = i
        scan[:, 1:] = step - offsets
        np.minimum.accumulate(scan, axis=1, out=scan)
        dist = scan
        dist[:, 1:] += offsets
    return dist[np.arange(n_rows), lengths]


def fidelity_at_k(scores, k: int, t: float) -> float:
    """Fraction of the k largest scores that are >= t.

    `scores` is either a ScoreVector (its normalized values are used) or a
    plain sequence of per-item scores already on the normalized [0, 1] scale.
    """
    values = _score_values(scores)
    if not 0.0 < t < 1.0:
        raise ValueError("threshold t must lie in (0, 1)")
    if not 1 <= k <= len(values):
        raise ValueError(f"k={k} outside [1, {len(values)}]")
    top = np.sort(values)[::-1][:k]
    return float(np.mean(top >= t))


def _score_values(scores) -> np.ndarray:
    normalized = getattr(scores, "normalized", None)
    if normalized is not None:
        return np.asarray(normalized, dtype=float)
    return np.asarray(scores, dtype=float)


def _mean_distance(records: "Sequence[ExplanationRecord]", field: str) -> float:
    if not records:
        raise ValueError("no records")
    found = [getattr(r, field) for r in records if r.counterfactual is not None]
    if not found:
        raise ValueError("every record lacks a counterfactual")
    return float(np.mean(found))


def mean_hamming(records: "Sequence[ExplanationRecord]") -> float:
    """Mean Hamming distance over records that carry a counterfactual.

    Records without a counterfactual are excluded; callers that need the
    excluded count should consult `aggregate_report`.
    """
    return _mean_distance(records, "hamming")


def mean_levenshtein(records: "Sequence[ExplanationRecord]") -> float:
    """Mean edit distance over records that carry a counterfactual (see `mean_hamming`)."""
    return _mean_distance(records, "levenshtein")


def aggregate_report(
    records: "Sequence[ExplanationRecord]",
    model,
    k_list: Sequence[int],
    t: float,
    categories: CategoryMap | None = None,
    meta: Mapping[str, object] | None = None,
) -> list[dict]:
    """Per-method, per-k summary rows for a batch of explanation records.

    Fidelity is computed on each user's counterfactual score vector and
    averaged over users; users without a counterfactual contribute 0, so
    the column doubles as a success-weighted score. Validity at each k is
    re-derived from the model rather than trusted from the records.
    All records must share one setting.
    """
    from .objective import SettingSpec, is_valid

    if not records:
        raise ValueError("no records to aggregate")
    settings = {json.dumps(r.setting.to_dict(), sort_keys=True) for r in records}
    if len(settings) != 1:
        raise ValueError("records mix different settings")
    setting = SettingSpec.from_dict(json.loads(next(iter(settings))))

    meta = dict(meta or {})
    by_method: dict[str, list] = {}
    for r in records:
        by_method.setdefault(r.method, []).append(r)

    rows = []
    for method in sorted(by_method):
        recs = by_method[method]
        cf_scores = {
            id(r): model.score(r.counterfactual)
            for r in recs
            if r.counterfactual is not None
        }
        found = [r for r in recs if r.counterfactual is not None]
        for k in k_list:
            fid = np.mean(
                [
                    fidelity_at_k(cf_scores[id(r)], k, t)
                    if r.counterfactual is not None
                    else 0.0
                    for r in recs
                ]
            )
            valid = np.mean(
                [
                    is_valid(setting, model.score(r.source), cf_scores[id(r)], k, categories)
                    if r.counterfactual is not None
                    else False
                    for r in recs
                ]
            )
            rows.append(
                {
                    "method": method,
                    "setting": setting.name,
                    "dataset": meta.get("dataset", ""),
                    "model": meta.get("model", ""),
                    "seed": meta.get("seed", ""),
                    "k": k,
                    "fidelity": float(fid),
                    "mean_hamming": mean_hamming(found) if found else float("nan"),
                    "mean_levenshtein": mean_levenshtein(found) if found else float("nan"),
                    "valid_fraction": float(valid),
                    "n_users": len(recs),
                }
            )
    return rows


def write_report_csv(path, rows: Iterable[dict], config: Mapping | None = None) -> None:
    """Write report rows as CSV; the resolved run config rides in '#' comments."""
    rows = list(rows)
    columns = list(rows[0].keys()) if rows else list(REPORT_COLUMNS)
    with atomic_write(path, newline="") as fh:
        if config is not None:
            fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def read_report_csv(path) -> tuple[dict, list[dict]]:
    config: dict = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# config: "):
            config = json.loads(line[len("# config: "):])
        elif line:
            body.append(line)
    rows = list(csv.DictReader(body))
    return config, rows


def write_report_json(path, rows: Iterable[dict], config: Mapping | None = None) -> None:
    doc = {"config": dict(config) if config else {}, "rows": list(rows)}
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def merge_seed_reports(reports: Sequence[Sequence[dict]]) -> list[dict]:
    """Merge per-seed report rows into wide rows with per-seed and mean columns.

    Rows are matched on (method, setting, dataset, model, k); each metric
    gains one column per seed plus a mean column.
    """
    metrics = ("fidelity", "mean_hamming", "mean_levenshtein", "valid_fraction")
    merged: dict[tuple, dict] = {}
    for rows in reports:
        for row in rows:
            key = (row["method"], row["setting"], row["dataset"], row["model"], str(row["k"]))
            slot = merged.setdefault(
                key,
                {
                    "method": row["method"],
                    "setting": row["setting"],
                    "dataset": row["dataset"],
                    "model": row["model"],
                    "k": row["k"],
                    "n_users": row["n_users"],
                    "_seeds": {},
                },
            )
            slot["_seeds"][str(row["seed"])] = row
    out = []
    for key in sorted(merged):
        slot = merged[key]
        seeds = slot.pop("_seeds")
        for metric in metrics:
            values = []
            for seed in sorted(seeds):
                value = float(seeds[seed][metric])
                slot[f"{metric}_seed{seed}"] = value
                values.append(value)
            slot[f"{metric}_mean"] = float(np.mean(values))
        out.append(slot)
    return out
