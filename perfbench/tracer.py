#!/usr/bin/env python3
"""Run seqcf CLI commands in one process with a span around each layer call.

    PYTHONPATH=src python3 perfbench/tracer.py --spans out.npz \
        --plan '[["preprocess", "--input", ...], ["train", ...]]'

Every function in TARGETS is replaced by a timing wrapper under each name
it is looked up by: a module that did `from .models import softmax` holds
its own reference, so every seqcf module namespace is scanned for the
original object. A span is (name, start, end, parent span, user); the
spans stay in memory as flat arrays and are written once, at exit, to an
.npz file that `run.py` turns into per-layer self times and counters.

A target that no longer exists is listed under `absent` instead of
failing, so the tracer keeps working when the program is refactored.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from array import array
from time import perf_counter

import numpy as np


def _rows(args, kwargs, result):
    return args[1].shape[0]


def _candidates(args, kwargs, result):
    return len(args[1])


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _user_of(args):
    return getattr(args[0], "user", 0)


# (module, attribute, span name, per-call work count, does the call start a user)
TARGETS = (
    ("cli", "cmd_preprocess", "cli.preprocess", None, False),
    ("cli", "cmd_train", "cli.train", None, False),
    ("cli", "cmd_explain", "cli.explain", None, False),
    ("cli", "cmd_evaluate", "cli.evaluate", None, False),
    ("dataset", "load_interactions", "dataset.load_interactions", None, False),
    ("dataset", "k_core_filter", "dataset.k_core_filter", None, False),
    ("dataset", "leave_one_out_split", "dataset.leave_one_out_split", None, False),
    ("dataset", "save_split", "dataset.save_split", None, False),
    ("dataset", "load_split", "dataset.load_split", None, False),
    ("models", "train_markov", "models.train_markov", None, False),
    ("models", "save_model", "models.save_model", None, False),
    ("models", "load_model", "models.load_model", None, False),
    ("models", "score_batch_logits", "models.score_batch_logits", _rows, False),
    ("models", "softmax", "models.softmax", None, False),
    ("models", "top_k", "models.top_k", None, False),
    ("models", "MarkovScorer.score", "models.score", None, False),
    ("models", "PopularityScorer.score", "models.score", None, False),
    ("metrics", "levenshtein_batch", "metrics.levenshtein_batch", _rows, False),
    ("metrics", "aggregate_report", "metrics.aggregate_report", None, False),
    ("objective", "valid_from_topk", "objective.valid_from_topk", None, False),
    ("objective", "is_valid", "objective.is_valid", None, False),
    ("objective", "loss_weights", "objective.loss_weights", None, False),
    ("search", "explain", "search.explain", None, True),
    ("search", "genetic", "search.genetic", None, False),
    ("search", "_Evaluator.evaluate", "search.evaluate", _candidates, False),
    ("search", "mutate_replace", "search.mutate_replace", None, False),
    ("search", "mutate_add", "search.mutate_add", None, False),
    ("search", "mutate_delete", "search.mutate_delete", None, False),
    ("search", "crossover", "search.crossover", None, False),
    ("search", "_pick_kind", "search._pick_kind", None, False),
    ("baselines", "baseline_random", "baselines.baseline_random", None, True),
    ("records", "write_records", "records.write_records", _file_bytes, False),
    ("records", "read_records", "records.read_records", None, False),
    ("core", "derive_stream", "core.derive_stream", None, False),
)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.user = array("i")
        self.units = array("d")
        self.stack: list[int] = []
        self.current_user = 0
        self.absent: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name, count=None, starts_user=False):
        nid = self._name_id(name)
        stack, start, end = self.stack, self.start, self.end

        def traced(*args, **kwargs):
            if starts_user:
                self.current_user = _user_of(args)
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.user.append(self.current_user)
            self.units.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                self.units[idx] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every target under every name a seqcf module holds it by."""
        importlib.import_module("seqcf.cli")
        modules = [m for n, m in list(sys.modules.items()) if n == "seqcf" or n.startswith("seqcf.")]
        for mod_name, attr, span, count, starts_user in TARGETS:
            mod = sys.modules.get(f"seqcf.{mod_name}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = owner.__dict__.get(member) if owner is not None else None
            if original is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapper = self.wrap(original, span, count, starts_user)
            if owner_name:  # a method: patch the class attribute
                setattr(owner, member, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def save(self, path, commands) -> None:
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            user=np.frombuffer(self.user, dtype=np.int32),
            units=np.frombuffer(self.units, dtype=np.float64),
            meta=np.array(json.dumps({"names": self.names, "absent": self.absent, "commands": commands})),
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="output .npz of spans")
    parser.add_argument("--plan", required=True, help="JSON list of seqcf CLI argument lists")
    args = parser.parse_args(argv)
    plan = json.loads(args.plan)

    tracer = Tracer()
    tracer.install()
    from seqcf import cli

    commands = []
    for cmd in plan:
        t0 = perf_counter()
        rc = cli.main(cmd)
        commands.append({"argv": cmd, "wall_s": perf_counter() - t0, "rc": rc})
        if rc != 0:
            break
    tracer.save(args.spans, commands)
    return max(c["rc"] for c in commands)


if __name__ == "__main__":
    sys.exit(main())
