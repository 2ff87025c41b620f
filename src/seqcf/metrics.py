"""Sequence distances, fidelity, and aggregate explanation reports.

Fidelity at k is the fraction of the top-k scores that clear the validity
threshold t:

    fidelity@k = (1/k) * sum_i 1(s_i >= t)   over the k largest scores s_i.

Hamming distance counts differing positions of equal-length sequences.
When lengths differ the shorter sequence is right-aligned and front-padded
with a reserved null item; padded positions count as differing.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .core import CategoryMap, as_items, atomic_write, read_text

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
METRIC_COLUMNS = ("fidelity", "mean_hamming", "mean_levenshtein", "valid_fraction")  # merged by `report`


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
    """Edit distance from `source` to each padded row; `levenshtein` is the reference.

    `rows` is (B, W) int, padded with NULL_ITEM beyond each row's length,
    and each row's distance is read at its own length. Bit-parallel, after
    Myers (J. ACM 46(3), 1999) in Hyyro's edit-distance form: one DP column
    over the source positions is held as bit-vectors of its vertical +1/-1
    steps, one uint64 word per 64 source items with carries passed from
    word to word, and the whole batch advances one row column per step.
    A cell's bitmask of the source positions holding its item is looked up
    through a table over the range of the source's item ids.
    """
    src = np.asarray(as_items(source), dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n = len(src)
    if n == 0:
        return lengths.copy()
    n_rows, width = rows.shape
    n_words = -(-n // 64)
    one = np.uint64(1)

    # peq[w, u]: word w of the bitmask of source positions holding the u-th
    # distinct source item; column U, all zero, serves every other item
    items, inverse = np.unique(src, return_inverse=True)
    pos = np.arange(n)
    peq = np.zeros((n_words, len(items) + 1), dtype=np.uint64)
    np.bitwise_or.at(peq, (pos // 64, inverse), one << (pos % 64).astype(np.uint64))
    # u of each cell through a table over the source's id range [lo, hi];
    # ids outside it (padding too) clip to its ends, which map to U
    lo, span = items[0], items[-1] - items[0]
    table = np.full(span + 2, len(items))
    table[items - lo] = np.arange(len(items))
    eqs = peq[:, table[np.clip(rows.T - lo, -1, span + 1)]]  # (words, W, B)

    last_bit = np.full(n_words, 63, dtype=np.uint64)
    last_bit[-1] = (n - 1) % 64
    pv = np.full((n_words, n_rows), ~np.uint64(0))  # D[i][0] = i: every vertical step +1
    mv = np.zeros((n_words, n_rows), dtype=np.uint64)
    # steps[j + 1]: D[n][j + 1] - D[n][j], the horizontal step out of the last word
    steps = np.zeros((width + 1, n_rows), dtype=np.int64)
    for j in range(width):
        # the first DP row is D[0][j] = j, so word 0 takes a +1 step in at bit 0
        h_pos, h_neg = one, np.uint64(0)
        for w in range(n_words):
            p, m = pv[w], mv[w]
            eq = eqs[w, j]
            xv = eq | m
            eq = eq | h_neg  # a -1 step coming in acts as a match at bit 0
            xh = (((eq & p) + p) ^ p) | eq
            ph = m | ~(xh | p)
            mh = p & xh
            out_pos, out_neg = (ph >> last_bit[w]) & one, (mh >> last_bit[w]) & one
            ph = (ph << one) | h_pos
            mh = (mh << one) | h_neg
            pv[w] = mh | ~(xv | ph)
            mv[w] = ph & xv
            h_pos, h_neg = out_pos, out_neg  # carried into the next word
        np.subtract(h_pos, h_neg, out=steps[j + 1], casting="unsafe")
    # D[n][0] = n; each row reads its distance at its own length
    return n + np.cumsum(steps, axis=0)[lengths, np.arange(n_rows)]


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
    derived here from the model; records do not hold it.
    All records must share one setting.
    """
    from .objective import is_valid

    if not records:
        raise ValueError("no records to aggregate")
    settings = {r.setting for r in records}
    if len(settings) != 1:
        raise ValueError("records mix different settings")
    (setting,) = settings

    meta = dict(meta or {})
    by_method: dict[str, list] = {}
    for r in records:
        by_method.setdefault(r.method, []).append(r)

    rows = []
    for method in sorted(by_method):
        recs = by_method[method]
        # (source, counterfactual) scores per record, None without a counterfactual; scored once for every k
        scored = [
            None if r.counterfactual is None else (model.score(r.source), model.score(r.counterfactual))
            for r in recs
        ]
        found = [r for r in recs if r.counterfactual is not None]
        mean_ham = mean_hamming(found) if found else float("nan")
        mean_lev = mean_levenshtein(found) if found else float("nan")
        for k in k_list:
            fid = np.mean([0.0 if s is None else fidelity_at_k(s[1], k, t) for s in scored])
            valid = np.mean([s is not None and is_valid(setting, *s, k, categories) for s in scored])
            rows.append(
                {
                    "method": method,
                    "setting": setting.name,
                    "dataset": meta.get("dataset", ""),
                    "model": meta.get("model", ""),
                    "seed": meta.get("seed", ""),
                    "k": k,
                    "fidelity": float(fid),
                    "mean_hamming": mean_ham,
                    "mean_levenshtein": mean_lev,
                    "valid_fraction": float(valid),
                    "n_users": len(recs),
                }
            )
    return rows


def write_report_csv(path, rows: Iterable[dict], config: Mapping | None = None) -> None:
    """Write report rows as CSV; the resolved run config rides in '#' comments."""
    import csv  # only reports need it, so the search's start-up does not pay for it

    rows = list(rows)
    columns = list(rows[0].keys()) if rows else list(REPORT_COLUMNS)
    with atomic_write(path, newline="") as fh:
        if config is not None:
            fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def read_report_csv(path, required: Sequence[str] = ()) -> tuple[dict, list[dict]]:
    """The config and rows of a CSV report; malformed input fails naming the file.

    Malformed: a config comment that is not a JSON object, a header without
    a `required` column, a row whose cell count is not the header's, or a
    metric cell that is not a number (all but the header name their line).
    """
    import csv

    config: dict = {}
    numbers, body = [], []
    for number, line in enumerate(read_text(path).splitlines(), 1):
        if line.startswith("# config: "):
            try:
                config = json.loads(line[len("# config: "):])
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: config comment is not JSON: {exc.msg}") from None
            if not isinstance(config, dict):
                raise ValueError(f"{path}:{number}: config comment is not a JSON object")
        elif line:
            numbers.append(number)
            body.append(line)
    reader = csv.reader(body)
    columns = next(reader, [])
    missing = next((c for c in required if c not in columns), None)
    if missing is not None:
        raise ValueError(f"{path}: no column {missing!r}; report merges CSV reports of seqcf evaluate")
    rows = []
    for number, cells in zip(numbers[1:], reader):  # numbers[0] is the header line
        if len(cells) != len(columns):
            raise ValueError(f"{path}:{number}: {len(cells)} cells, but the header names {len(columns)} columns")
        row = dict(zip(columns, cells))
        for column in METRIC_COLUMNS:
            if column in row:
                try:
                    float(row[column])
                except ValueError:
                    raise ValueError(f"{path}:{number}: column {column!r} holds {row[column]!r}, not a number") from None
        rows.append(row)
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
        for metric in METRIC_COLUMNS:
            values = []
            for seed in sorted(seeds):
                value = float(seeds[seed][metric])
                slot[f"{metric}_seed{seed}"] = value
                values.append(value)
            slot[f"{metric}_mean"] = float(np.mean(values))
        out.append(slot)
    return out
