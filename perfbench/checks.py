"""Output checks the benchmark applies to every explain run.

`check_records` re-derives each record from the split, the model and the
setting the benchmark requested, with seqcf's scalar reference functions.
`HashStore` remembers the SHA-256 of every records file per input key, so
any two runs of the same inputs against the same source tree must agree
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from seqcf import dataset, metrics, objective, records
from seqcf.core import TAG_SAMPLE, derive_stream

DEFAULT_THRESHOLD = 0.5  # `seqcf explain` without --threshold


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def source_fingerprint(src_dir) -> str:
    """Digest of the program's sources; keys the hash store."""
    digest = hashlib.sha256()
    for path in sorted(Path(src_dir).rglob("*.py")):
        digest.update(path.relative_to(src_dir).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def expected_users(split, sample: int, explain_seed: int) -> list[int]:
    """The user sample `seqcf explain --sample-users` draws for this seed."""
    return dataset.sample_users(split, sample, derive_stream(explain_seed, [TAG_SAMPLE]))


def expected_setting(name: str, target_category: str | None, categories) -> objective.SettingSpec:
    """The setting the benchmark asked explain to search, built without the CLI."""
    target = categories.category_id(target_category) if target_category is not None else None
    return objective.SettingSpec.from_name(name, target_category=target, threshold=DEFAULT_THRESHOLD)


def _setting_key(setting) -> dict:
    """The fields of a setting that decide validity at the searched k."""
    doc = setting.to_dict()
    doc.pop("k_eval")
    return doc


def _record_problem(rec, split, model, k: int, setting) -> str | None:
    if _setting_key(rec.setting) != _setting_key(setting):
        return f"recorded setting {_setting_key(rec.setting)} != requested {_setting_key(setting)}"
    source = split.train[rec.user].items
    if tuple(rec.source) != source:
        return "source differs from the split"
    cf = rec.counterfactual
    if cf is None:
        return None  # no counterfactual found is a legitimate outcome
    m = model.num_items
    if any(not 0 <= i < m for i in cf):
        return "counterfactual has ids outside the catalog"
    if len(set(cf)) != len(cf):
        return "counterfactual repeats an item"
    if not 1 <= len(cf) <= split.max_len:
        return f"counterfactual length {len(cf)} outside [1, {split.max_len}]"
    lev = metrics.levenshtein(source, cf)
    if rec.levenshtein != lev:
        return f"recorded levenshtein {rec.levenshtein} != {lev}"
    if rec.hamming != metrics.hamming(source, cf):
        return "recorded hamming differs"
    if not objective.is_valid(setting, model.score(source), model.score(cf), k, split.categories):
        return f"counterfactual is not valid at k={k}"
    if not objective.verify_eps_vcs(model, source, cf, lev):
        return "verify_eps_vcs rejects the counterfactual"
    return None


def check_records(path, split, model, k: int, setting, users: list[int]) -> tuple[int, list[str], list]:
    """Count users whose record is missing or wrong; return (failed, problems, records).

    Validity is judged under `setting`, the one the benchmark requested, so a
    record that searched another regime, target or threshold fails.
    """
    _, recs = records.read_records(path)
    expected = set(users)
    problems = []
    bad: set[int] = set()
    seen: set[int] = set()
    for rec in recs:
        if rec.user not in expected or rec.user in seen:
            problems.append(f"user {rec.user}: unexpected or repeated record")
            continue
        seen.add(rec.user)
        problem = _record_problem(rec, split, model, k, setting)
        if problem is not None:
            bad.add(rec.user)
            problems.append(f"user {rec.user}: {problem}")
    missing = expected - seen
    if missing:
        problems.append(f"{len(missing)} sampled users have no record")
    return len(bad | missing), problems, recs


class HashStore:
    """Records digests per input key, persisted across runs in one checkout.

    Keys are prefixed with a digest of the program's sources, so a change
    to the program starts a fresh history instead of reporting a mismatch.
    """

    def __init__(self, path, src_dir):
        self.path = Path(path)
        self.fingerprint = source_fingerprint(src_dir)[:16]
        self.known = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, key: str, digest: str) -> str | None:
        """Remember `digest` for `key`; return a message if it contradicts a past run."""
        previous = self.known.setdefault(f"{self.fingerprint} {key}", digest)
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        if previous != digest:
            return f"records for {key} changed between runs: {previous[:12]} != {digest[:12]}"
        return None
