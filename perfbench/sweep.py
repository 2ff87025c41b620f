#!/usr/bin/env python3
"""Catalog sweep: the batch layers of one search generation versus catalog size.

    PYTHONPATH=src python3 perfbench/sweep.py --out sweep.json

Times `score_batch_logits`, `softmax`, `levenshtein_batch` and the
`_Evaluator.evaluate` boundary (at k=1 and k=10) on one fixed batch of
BATCH_ROWS candidates for each m in CATALOGS, and reports the median of
REPEATS runs in milliseconds. The scorer is the popularity scorer: its
state is one vector, so m=5000 fits in memory, while its batch output is
the same (rows x m) float matrix the Markov scorer produces.
`matrix_mb_computed` is rows x m x 8 bytes, computed rather than measured.
A layer the program no longer has is reported in `absent`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from time import perf_counter

import numpy as np

from seqcf import metrics, models, search
from seqcf.objective import SettingSpec

CATALOGS = (100, 1000, 5000)
BATCH_ROWS = 1000
ROW_LEN = 12
REPEATS = 3


def _median_ms(fn, prepare=lambda: None) -> float:
    times = []
    for _ in range(REPEATS):
        state = prepare()
        t0 = perf_counter()
        fn(state)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1000.0


def _batch(m: int, rng: np.random.Generator):
    rows = np.stack([rng.choice(m, size=ROW_LEN, replace=False) for _ in range(BATCH_ROWS)])
    lengths = np.full(BATCH_ROWS, ROW_LEN, dtype=np.int64)
    source = tuple(int(x) for x in rng.choice(m, size=ROW_LEN - 1, replace=False))
    return rows.astype(np.int64), lengths, source


def sweep_catalog(m: int, absent: set[str]) -> dict[str, float]:
    rng = np.random.default_rng(m)
    # Zipf counts in shuffled item order: sorted scores would flatter the sorts
    freq = rng.permutation(np.floor(1000.0 / np.arange(1, m + 1) ** 0.8).astype(np.int64))
    model = models.PopularityScorer(frequency=freq)
    rows, lengths, source = _batch(m, rng)
    out = {"matrix_mb_computed": BATCH_ROWS * m * 8 / 2**20}

    def timed(key, layer, fn, prepare=lambda: None):
        try:
            out[key] = _median_ms(fn, prepare)
        except AttributeError:  # the layer was renamed or removed
            absent.add(layer)
            out[key] = 0.0

    timed("score_batch_logits_ms", "models.score_batch_logits",
          lambda _: models.score_batch_logits(model, rows, lengths))
    timed("levenshtein_batch_ms", "metrics.levenshtein_batch",
          lambda _: metrics.levenshtein_batch(source, rows, lengths))
    logits = model.score_batch(rows, lengths)
    timed("softmax_ms", "models.softmax", lambda _: models.softmax(logits))
    config = search.GaConfig(population_size=1024)
    setting = SettingSpec.from_name("un_un")
    for k in (1, 10):

        def prepare(k=k):
            evaluator = search._Evaluator(model, setting, source, k, config, None, 1)
            cands = [search.Candidate(items=tuple(int(x) for x in row), born=0) for row in rows]
            return evaluator, cands

        timed(f"evaluate_k{k}_ms", "search._Evaluator.evaluate",
              lambda state: state[0].evaluate(state[1]), prepare)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    absent: set[str] = set()
    result = {f"m{m}": sweep_catalog(m, absent) for m in CATALOGS}
    result["absent"] = sorted(absent)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
