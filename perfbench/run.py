#!/usr/bin/env python3
"""End-to-end benchmark of the seqcf pipeline on one named workload.

    python3 perfbench/run.py --workload ref-unun --seed 0 --seconds 30 --trace 0

Runs the pipeline the way a researcher does: `seqcf synth` makes a corpus
from --seed, `preprocess` + `train` prepare it (timed SETUP_REPEATS times
as `setup_s`), `explain` runs back to back as separate child processes
(one chunk of users each, until --seconds is used) and `evaluate`
aggregates each records file. Every child runs alone with one BLAS thread,
so its wall time, CPU time and peak RSS come from its own rusage. The
benchmark and its children are pinned to one CPU, and every timing is
rescaled to a reference speed of that core (speed.py).

Every record is checked (checks.py). The first two explain processes
explain the same user sample and their records files must be
byte-identical, so every run tests determinism within itself; digests are
also compared with earlier runs of the same inputs in this checkout.
A failure prints `"correct": false` and exits 1.

--trace 0 reports the end-to-end metrics. --trace 1 explains sample 0
plain and under the span tracer (tracer.py), plus TRACE_SAMPLES - 1 more
samples plain for the quality figures, and prints the per-layer split,
the tracing overhead, and the catalog sweep (sweep.py).
`--workload all` runs the three workloads in turn.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
SRC = ROOT / "src"

SETUP_REPEATS = 3
MIN_EXPLAINS = 2  # chunks 0 and 1 explain the same users, for the determinism gate
TRACE_SAMPLES = 4  # user samples a traced run explains (only the first under the tracer)
CHILD_TIMEOUT_S = 150
GA_ARGS = ["--generations", "30", "--population", "1024", "--threads", "1"]
BUDGET = 10
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    users: int  # synth --users
    items: int  # synth --items
    method: str
    setting: str
    k: int
    chunk_users: int  # users per explain process; 0 explains every user

    @property
    def chunked(self) -> bool:
        return self.chunk_users > 0


WORKLOADS = {
    "ref-unun": Workload(200, 100, "gece", "un_un", 1, chunk_users=4),
    "wide-targcat": Workload(2000, 1000, "gece", "targ_cat", 10, chunk_users=1),
    "baseline-scan": Workload(2000, 1000, "random", "targ_cat", 10, chunk_users=0),
}

END_TO_END_UNITS = {"users_per_s": "users/s", "cpu_s_per_user": "s/user", "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int
    stderr: str
    scale: float  # reference core speed / this core's speed while the child ran

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.scale


def run_child(argv: list[str], log_path: Path, probe: speed.SpeedProbe) -> Child:
    """Run one command alone; wall clock is process start to exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **ONE_THREAD)
    with open(log_path, "w", encoding="utf-8") as log:
        first = probe.open()
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            t1 = perf_counter()
            scale = probe.close(first)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=t1 - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        rc=proc.returncode,
        stderr=log_path.read_text(encoding="utf-8")[-2000:],
        scale=scale,
    )


def seqcf(*args) -> list[str]:
    return [sys.executable, "-m", "seqcf.cli", *map(str, args)]


def rel(path: Path) -> str:
    """Paths handed to the program are relative to the checkout, so record headers are too."""
    return path.relative_to(ROOT).as_posix()


def seed_choice(seed: int, purpose: str, options):
    digest = hashlib.sha256(f"{seed}|{purpose}".encode()).digest()
    return options[int.from_bytes(digest[:8], "big") % len(options)]


class SetupError(RuntimeError):
    pass


def must(child: Child, what: str) -> Child:
    if child.rc != 0:
        raise SetupError(f"{what} exited {child.rc}: {child.stderr.strip()}")
    return child


class Run:
    """One workload at one seed: its files, its inputs and its checks."""

    def __init__(self, name: str, seed: int, probe: speed.SpeedProbe):
        self.name, self.wl, self.seed, self.probe = name, WORKLOADS[name], seed, probe
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.log, self.cats = self.dir / "log.tsv", self.dir / "categories.tsv"
        self.split_path, self.model_path = self.dir / "split.json", self.dir / "model.json"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.quality: dict[int, dict] = {}  # per user sample
        self.digests: dict[str, str] = {}  # records digest per explain input key, this run
        self.compared = 0  # records files checked against an earlier one of this run

    # -- pipeline steps ------------------------------------------------------
    def synth(self) -> None:
        must(self.child(seqcf("synth", "--users", self.wl.users, "--items", self.wl.items,
                              "--seed", self.seed, "--out", rel(self.log),
                              "--categories-out", rel(self.cats)), "synth"), "synth")

    def preprocess_argv(self) -> list[str]:
        return ["preprocess", "--input", rel(self.log), "--categories", rel(self.cats),
                "--k-core", "5", "--out", rel(self.split_path)]

    def train_argv(self) -> list[str]:
        return ["train", "--split", rel(self.split_path), "--scorer", "markov", "--out", rel(self.model_path)]

    def load_inputs(self) -> None:
        import checks
        from seqcf import dataset, models

        self.split = dataset.load_split(self.split_path)
        self.model = models.load_model(self.model_path)
        self.target = None
        if self.wl.setting == "targ_cat":
            self.target = seed_choice(self.seed, "target-category", self.split.categories.category_labels)
        self.setting = checks.expected_setting(self.wl.setting, self.target, self.split.categories)
        self.hashes = checks.HashStore(WORK / "hashes.json", SRC)

    def sample_of(self, chunk: int) -> int:
        """User sample of the chunk-th explain process: chunks 0 and 1 repeat sample 0, later
        chunks draw new samples; unchunked, every process explains every user."""
        return max(chunk - 1, 0) if self.wl.chunked else 0

    def explain_seed(self, sample: int) -> int:
        return self.seed * 1000 + sample

    def chunk_users(self) -> int:
        return self.wl.chunk_users if self.wl.chunked else len(self.split.train)

    def explain_argv(self, sample: int, out: Path) -> list[str]:
        argv = ["explain", "--model", rel(self.model_path), "--split", rel(self.split_path),
                "--method", self.wl.method, "--setting", self.wl.setting, "--k", str(self.wl.k),
                "--seed", str(self.explain_seed(sample)), "--sample-users", str(self.wl.chunk_users),
                "--budget", str(BUDGET), *GA_ARGS]
        if self.target is not None:
            argv += ["--target-category", self.target]
        return argv + ["--out", rel(out)]

    def evaluate_argv(self, records: Path, report: Path) -> list[str]:
        return ["evaluate", "--records", rel(records), "--model", rel(self.model_path),
                "--split", rel(self.split_path), "--format", "json", "--out", rel(report)]

    def child(self, argv: list[str], tag: str) -> Child:
        return run_child(argv, self.dir / f"{tag}.log", self.probe)

    # -- checks --------------------------------------------------------------
    def check_explain(self, sample: int, child: Child, records: Path, tag: str) -> list:
        """Output check plus determinism gate for one explain process."""
        import checks

        users = checks.expected_users(self.split, self.wl.chunk_users, self.explain_seed(sample))
        self.attempted += len(users)
        if child.rc != 0:
            self.failed += len(users)
            self.problems.append(f"explain {tag} exited {child.rc}: {child.stderr.strip()}")
            return []
        failed, problems, recs = checks.check_records(records, self.split, self.model, self.wl.k,
                                                      self.setting, users)
        self.failed += failed
        self.problems += [f"{tag}: {p}" for p in problems]
        inputs = [checks.sha256_file(f)[:16] for f in (self.split_path, self.model_path)]
        key = " ".join([*inputs, *self.explain_argv(sample, records)[:-2]])
        digest = checks.sha256_file(records)
        if key not in self.digests:
            self.digests[key] = digest
        else:
            self.compared += 1
            if self.digests[key] != digest:
                self.problems.append(f"{tag}: records differ from an earlier explain of the same inputs "
                                     f"in this run: {self.digests[key][:12]} != {digest[:12]}")
        mismatch = self.hashes.check(key, digest)
        if mismatch:
            self.problems.append(mismatch)
        return recs

    def evaluate(self, sample: int, records: Path, recs: list, tag: str, runner=None) -> None:
        """Run `seqcf evaluate` and cross-check its report against the records."""
        report = self.dir / f"{tag}.report.json"
        runner = runner or (lambda args, tag: self.child(seqcf(*args), tag))
        child = runner(self.evaluate_argv(records, report), tag)
        if child.rc != 0:
            self.problems.append(f"evaluate exited {child.rc}: {child.stderr.strip()}")
            return
        rows = json.loads(report.read_text())["rows"]
        row = next(r for r in rows if int(r["k"]) == self.wl.k)
        found = [r.levenshtein for r in recs if r.counterfactual is not None]
        if recs and abs(row["valid_fraction"] - len(found) / len(recs)) > 1e-9:
            self.problems.append(f"evaluate valid_fraction {row['valid_fraction']} disagrees with the records")
        if found and abs(row["mean_levenshtein"] - statistics.fmean(found)) > 1e-9:
            self.problems.append(f"evaluate mean_levenshtein {row['mean_levenshtein']} disagrees with the records")
        self.quality[sample] = {
            "users": len(recs),
            "valid": row["valid_fraction"] * len(recs),
            "found": len(found),
            "distance": row["mean_levenshtein"] * len(found) if found else 0.0,
            "gens": [r.generation_found for r in recs if r.generation_found is not None],
        }

    def pooled_quality(self) -> dict:
        """evaluate's figures pooled over every user sample of the run; undefined means are 0."""
        parts = self.quality.values()
        users, found = sum(p["users"] for p in parts), sum(p["found"] for p in parts)
        gens = [g for p in parts for g in p["gens"]]
        return {
            "users": users,
            "valid_fraction": sum(p["valid"] for p in parts) / users if users else 0.0,
            "mean_levenshtein": sum(p["distance"] for p in parts) / found if found else 0.0,
            "gen_found_mean": statistics.fmean(gens) if gens else 0.0,
        }

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.problems, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def measure(run: Run, seconds: float) -> dict:
    """Untraced run: setup_s, then explain processes until `seconds` is used.

    Every metric is a median over its repeats (explain processes or
    set-ups), so one process slowed by a busy machine does not move it.
    """
    run.synth()
    setups = []
    for i in range(SETUP_REPEATS):
        pre = must(run.child(seqcf(*run.preprocess_argv()), f"preprocess{i}"), "preprocess")
        train = must(run.child(seqcf(*run.train_argv()), f"train{i}"), "train")
        setups.append(pre.ref_wall_s + train.ref_wall_s)
    run.load_inputs()

    explains: list[tuple[int, Child, Path]] = []
    t0 = perf_counter()
    while True:
        chunk = len(explains)
        sample, out = run.sample_of(chunk), run.dir / f"explain{chunk}.jsonl"
        explains.append((sample, run.child(seqcf(*run.explain_argv(sample, out)), f"explain{chunk}"), out))
        typical = statistics.median(c.wall_s for _, c, _ in explains)
        if len(explains) >= MIN_EXPLAINS and perf_counter() - t0 + typical / 2 > seconds:
            break

    for chunk, (sample, child, out) in enumerate(explains):
        recs = run.check_explain(sample, child, out, f"chunk {chunk}")
        # a repeated sample's records are byte-identical (checked above), so one evaluate covers it
        if child.rc == 0 and sample not in run.quality:
            run.evaluate(sample, out, recs, f"evaluate{chunk}")
    ok = [c for _, c, _ in explains if c.rc == 0] or [c for _, c, _ in explains]
    users = run.chunk_users()
    values = {
        "users_per_s": users / statistics.median(c.ref_wall_s for c in ok),
        "cpu_s_per_user": statistics.median(c.ref_cpu_s for c in ok) / users,
        "peak_rss_mb": statistics.median(c.rss_mb for c in ok),
        "setup_s": statistics.median(setups),
    }
    quality = run.pooled_quality()
    print(f"# {run.name} seed={run.seed}: {len(explains)} explain processes x {run.chunk_users()} users "
          f"(wall s: {', '.join(f'{c.wall_s:.3f}' for _, c, _ in explains)}; core speed "
          f"/ reference: {', '.join(f'{c.scale:.3f}' for _, c, _ in explains)}; "
          f"setup s: {', '.join(f'{s:.3f}' for s in setups)}); {run.compared} records files "
          f"compared within the run; over {quality['users']} distinct users valid_fraction "
          f"{quality['valid_fraction']:.4f}, mean_levenshtein {quality['mean_levenshtein']:.4f}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


# -- traced run ---------------------------------------------------------------
def tracer_child(run: Run, plan: list[list[str]], tag: str) -> Child:
    spans = run.dir / f"{tag}.npz"
    argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", rel(spans), "--plan", json.dumps(plan)]
    return run.child(argv, tag)


def load_spans(path: Path) -> dict:
    with np.load(path) as doc:
        spans = {k: doc[k] for k in ("start", "end", "name", "parent", "units")}
        meta = json.loads(str(doc["meta"]))
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return {
        "ids": {name: i for i, name in enumerate(meta["names"])},
        "name": spans["name"],
        "parent_name": np.where(has_parent, spans["name"][parent], -1),
        "dur": dur,
        "self": dur - child_time,
        "units": spans["units"],
        "absent": meta["absent"],
    }


class SpanTable:
    """Sums over spans from several tracer processes, by span name."""

    def __init__(self, files):
        self.parts = [load_spans(f) for f in files]
        self.absent = sorted({a for p in self.parts for a in p["absent"]})

    @staticmethod
    def _mask(part, names, parent):
        ids = [part["ids"][n] for n in names if n in part["ids"]]
        mask = np.isin(part["name"], ids)
        if parent is not None:
            mask &= part["parent_name"] == part["ids"].get(parent, -2)
        return mask

    def sum(self, field: str, *names: str, parent: str | None = None) -> float:
        return float(sum(p[field][self._mask(p, names, parent)].sum() for p in self.parts))

    def calls(self, *names: str, parent: str | None = None) -> int:
        return int(sum(self._mask(p, names, parent).sum() for p in self.parts))


VARIATION = ("search.mutate_replace", "search.mutate_add", "search.mutate_delete",
             "search.crossover", "search._pick_kind")
MUTATE = VARIATION[:3]
TOTALS = (
    "models.score_batch_logits", "models.softmax", "models.score", "models.top_k", "models.load_model",
    "models.train_markov", "models.save_model", "metrics.levenshtein_batch", "metrics.aggregate_report",
    "objective.valid_from_topk", "objective.is_valid", "objective.loss_weights", "baselines.baseline_random",
    "records.write_records", "records.read_records", "dataset.load_interactions", "dataset.k_core_filter",
    "dataset.leave_one_out_split", "dataset.save_split", "dataset.load_split", "core.derive_stream",
    "cli.preprocess", "cli.train", "cli.explain", "cli.evaluate",
)
CALLS = ("models.score", "models.top_k", "objective.valid_from_topk", "objective.is_valid",
         "baselines.baseline_random", "core.derive_stream")
SWEEP_KEYS = {"score_batch_logits_ms": "ms", "softmax_ms": "ms", "levenshtein_batch_ms": "ms",
              "evaluate_k1_ms": "ms", "evaluate_k10_ms": "ms", "matrix_mb_computed": "MiB"}


def layer_metrics(table: SpanTable) -> tuple[dict, list[str]]:
    """Per-layer values by metric name, plus the names whose spans never ran."""
    out: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def put(metric, value, unit, *spans, parent=None):
        if spans and table.calls(*spans, parent=parent) == 0:
            absent.append(metric)
        out[metric] = (value, unit)

    put("search.genetic.self_s", table.sum("self", "search.genetic"), "s", "search.genetic")
    put("search.evaluate.self_s", table.sum("self", "search.evaluate"), "s", "search.evaluate")
    put("search.variation_s", table.sum("dur", *VARIATION, parent="search.genetic"), "s",
        *VARIATION, parent="search.genetic")
    put("search.mutate.calls", table.calls(*MUTATE, parent="search.genetic"), "count",
        *MUTATE, parent="search.genetic")
    put("search.crossover.calls", table.calls("search.crossover", parent="search.genetic"), "count",
        "search.crossover", parent="search.genetic")
    candidates = table.sum("units", "search.evaluate")
    scored = table.sum("units", "models.score_batch_logits", parent="search.evaluate")
    put("search.evaluate.candidates", candidates, "count", "search.evaluate")
    put("search.cache_hit_ratio", 1.0 - scored / candidates if candidates else 0.0, "ratio", "search.evaluate")
    for span in TOTALS:
        put(f"{span}_s", table.sum("dur", span), "s", span)
    for span in CALLS:
        put(f"{span}.calls", table.calls(span), "count", span)
    for span in ("models.score_batch_logits", "metrics.levenshtein_batch"):
        put(f"{span}.rows", table.sum("units", span), "count", span)
    put("records.bytes", table.sum("units", "records.write_records"), "bytes", "records.write_records")
    put("cli.explain.self_s", table.sum("self", "cli.explain"), "s", "cli.explain")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}, absent


def trace(run: Run) -> dict:
    """Traced run: per-layer split of sample 0, its overhead, quality, and the catalog sweep."""
    run.synth()
    setup = tracer_child(run, [run.preprocess_argv(), run.train_argv()], "setup.traced")
    must(setup, "traced setup")
    run.load_inputs()

    plain_out, traced_out = run.dir / "explain0.jsonl", run.dir / "explain0.traced.jsonl"
    plain = run.child(seqcf(*run.explain_argv(0, plain_out)), "explain0")
    traced = tracer_child(run, [run.explain_argv(0, traced_out)], "explain0.traced")
    run.check_explain(0, plain, plain_out, "sample 0")
    recs = run.check_explain(0, traced, traced_out, "traced sample 0")
    if traced.rc == 0:
        run.evaluate(0, traced_out, recs, "evaluate0.traced",
                     runner=lambda args, tag: tracer_child(run, [args], tag))
    for sample in range(1, TRACE_SAMPLES if run.wl.chunked else 1):
        out = run.dir / f"explain{sample}.jsonl"
        child = run.child(seqcf(*run.explain_argv(sample, out)), f"explain{sample}")
        recs = run.check_explain(sample, child, out, f"sample {sample}")
        if child.rc == 0:
            run.evaluate(sample, out, recs, f"evaluate{sample}")

    sweep_out = run.dir / "sweep.json"
    must(run.child([sys.executable, str(BENCH / "sweep.py"), "--out", rel(sweep_out)], "sweep"), "sweep")
    sweep = json.loads(sweep_out.read_text())

    table = SpanTable(sorted(run.dir.glob("*.traced.npz")))
    metrics, absent = layer_metrics(table)
    users = run.chunk_users()
    quality = run.pooled_quality()
    extra = {
        "search.gen_found_mean": (quality["gen_found_mean"], "generations"),
        "quality.valid_fraction": (quality["valid_fraction"], "ratio"),
        "quality.mean_levenshtein": (quality["mean_levenshtein"], "edits"),
        "quality.failed_frac": (run.failed / run.attempted if run.attempted else 1.0, "ratio"),
        "trace.users_per_s": (users / traced.ref_wall_s, "users/s"),
        "trace.untraced_users_per_s": (users / plain.ref_wall_s, "users/s"),
        "trace.overhead_ratio": (traced.ref_wall_s / plain.ref_wall_s - 1.0, "ratio"),
    }
    for m_key in sorted(k for k in sweep if k.startswith("m")):
        for key, unit in SWEEP_KEYS.items():
            extra[f"sweep.{m_key}.{key}"] = (sweep[m_key][key], unit)
    metrics.update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    absent_all = sorted(set(absent) | set(table.absent) | set(sweep["absent"]))
    if absent_all:
        print(f"# absent (reported as 0): {', '.join(absent_all)}")
    print(f"# tracing overhead: traced {users / traced.ref_wall_s:.4f} vs untraced "
          f"{users / plain.ref_wall_s:.4f} users/s on {users} users; quality over "
          f"{quality['users']} distinct users; {run.compared} records files compared within the run")
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool, probe: speed.SpeedProbe) -> dict:
    run = Run(name, seed, probe)
    metrics = trace(run) if traced else measure(run, seconds)
    for problem in run.problems:
        print(f"# FAIL {name}: {problem}")
    for key, m in metrics.items():
        print(f"{name}  {key:36s} {m['value']:.6g} {m['unit']}")
    return run.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seqcf" / "cli.py").is_file():
        print(f"error: no seqcf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    speed.pin_to_one_cpu()
    try:
        with speed.SpeedProbe() as probe:
            results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), probe) for n in names}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
