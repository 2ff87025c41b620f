"""The file-boundary rules each have one owner in `seqcf.core`.

- `checked_items`, the item-sequence rule: one table of malformed
  sequences is fed to every boundary that takes a sequence. Each boundary
  refuses a case in one line, naming the file and the line or user where
  it reads a file, or accepts it where the rule's part does not apply
  there (no catalog is known, or no length limit).
- `write_json`, the JSON document writer: the split, model and report
  files are byte-identical to the streaming `json.dump` writers kept in
  `tests/reference.py`.
"""

import json

import pytest

import reference
from seqcf import baselines, oracle, search
from seqcf.cli import main
from seqcf.core import Catalog, UserSequence
from seqcf.dataset import (
    SplitDataset,
    k_core_filter,
    leave_one_out_split,
    load_categories,
    load_split,
    save_split,
    synthesize_corpus,
    write_categories,
)
from seqcf.metrics import aggregate_report, hamming, levenshtein, write_report_json
from seqcf.models import save_model, train_markov, train_popularity
from seqcf.objective import SettingSpec
from seqcf.records import ExplanationRecord, read_records, write_records

M, MAX_LEN = 10, 5
CASES = {
    "empty": (),
    "repeat": (3, 1, 3),
    "negative": (3, -1, 2),
    "outside": (3, M),
    "long": tuple(range(M)),  # over MAX_LEN, and over the M - 1 items a masking scorer can score
}
SETTING = SettingSpec.from_name("un_un")
NEGATIVE = f"holds item -1, not an integer id in the catalog [0, {M})"
OUTSIDE = f"holds item {M}, not an integer id in the catalog [0, {M})"
EVALUATE = "of model {model}; evaluate with the model the records were explained with"

# the one error line of each boundary for each case, None where it accepts the case;
# "new" marks a case the boundary accepted, or failed on without naming the file, before the shared rule
EXPECTED = {
    "UserSequence": {
        "empty": "sequence is empty",
        "repeat": "sequence repeats an item",
        "negative": "sequence holds item -1, not a non-negative item id",
        "outside": None,  # a user's history knows no catalog
        "long": f"sequence length {M} exceeds limit {MAX_LEN}",
    },
    "explain": {
        "empty": "source is empty",
        "repeat": "source repeats an item",
        "negative": f"source {NEGATIVE}",
        "outside": f"source {OUTSIDE}",
        "long": f"source length {M} exceeds limit {MAX_LEN}",
    },
    **{
        boundary: {  # a substitution keeps the length, so the limit is M - 1
            "empty": "source is empty",
            "repeat": "source repeats an item",
            "negative": f"source {NEGATIVE}",
            "outside": f"source {OUTSIDE}",
            "long": f"source length {M} exceeds limit {M - 1}",
        }
        for boundary in ("baseline_records", "oracle_optimal")
    },
    **{
        boundary: {
            "empty": "sequence is empty",
            "repeat": "sequence repeats an item",  # new
            "negative": f"sequence {NEGATIVE}",
            "outside": f"sequence {OUTSIDE}",
            "long": None,  # a scorer sets no limit
        }
        for boundary in ("MarkovScorer.score", "PopularityScorer.score")
    },
    "read_records source": {
        "empty": "{path}:2: source is empty",
        "repeat": "{path}:2: source repeats an item",
        "negative": "{path}:2: field 'source' is [3, -1, 2], not a list of non-negative integers",
        "outside": None,  # a records file knows no catalog; evaluate checks it against the model
        "long": None,
    },
    "read_records counterfactual": {
        "empty": "{path}:2: counterfactual is empty",  # new
        "repeat": "{path}:2: counterfactual repeats an item",
        "negative": "{path}:2: field 'counterfactual' is [3, -1, 2], not a list of non-negative integers or null",
        "outside": None,
        "long": None,
    },
    "load_split": {
        "empty": "{path}: train user 1: sequence is empty",
        "repeat": "{path}: train user 1: sequence repeats an item",
        "negative": f"{{path}}: train user 1: sequence {NEGATIVE}",
        "outside": f"{{path}}: train user 1: sequence {OUTSIDE}",
        "long": f"{{path}}: train user 1: sequence length {M} exceeds limit {MAX_LEN}",
    },
    "evaluate source": {
        "empty": "error: {path}:2: source is empty",
        "repeat": "error: {path}:2: source repeats an item",
        "negative": "error: {path}:2: field 'source' is [3, -1, 2], not a list of non-negative integers",
        "outside": f"error: {{path}}: user 1 source {OUTSIDE} {EVALUATE}",
        "long": f"error: {{path}}: user 1 source length {M} exceeds limit {M - 1} {EVALUATE}",  # new
    },
    "evaluate counterfactual": {
        "empty": "error: {path}:2: counterfactual is empty",  # new
        "repeat": "error: {path}:2: counterfactual repeats an item",
        "negative": "error: {path}:2: field 'counterfactual' is [3, -1, 2], not a list of non-negative integers "
                    "or null",
        "outside": f"error: {{path}}: user 1 counterfactual {OUTSIDE} {EVALUATE}",
        "long": f"error: {{path}}: user 1 counterfactual length {M} exceeds limit {M - 1} {EVALUATE}",  # new
    },
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A Markov and a popularity scorer over M items, the Markov one also as a file."""
    root = tmp_path_factory.mktemp("rule")
    train = {u: UserSequence(u, tuple((u + j) % M for j in range(4)), MAX_LEN) for u in range(1, 2 * M + 1)}
    markov = train_markov(train, M)
    save_model(markov, root / "model.json")
    return {"markov": markov, "popularity": train_popularity(train, M), "model": root / "model.json"}


def _records_file(path, field: str, items) -> None:
    """A records file whose one record holds `items` as its `field`; the other field is (0, 1, 2) or null."""
    write_records(path, [ExplanationRecord(user=1, method="random", setting=SETTING, source=(0, 1, 2),
                                           counterfactual=None, generation_found=None, seed=0)])
    header, line = path.read_text().splitlines()
    doc = json.loads(line)
    doc[field] = list(items)
    if doc["counterfactual"] is not None:  # the distances the record would derive, so only the items are wrong
        doc.update(hamming=hamming(doc["source"], doc["counterfactual"]),
                   levenshtein=levenshtein(doc["source"], doc["counterfactual"]))
    path.write_text(f"{header}\n{json.dumps(doc)}\n")


def _split_file(path, items) -> None:
    """A split of M items and max_len MAX_LEN whose user 1 has trained on `items`."""
    train = {u: UserSequence(u, (u, u + 1), MAX_LEN) for u in (1, 2)}
    save_split(SplitDataset(train=train, validation={1: 5, 2: 6}, test={1: 7, 2: 8}, catalog=Catalog(M),
                            max_len=MAX_LEN), path)
    doc = json.loads(path.read_text())
    doc["train"]["1"] = list(items)
    path.write_text(json.dumps(doc))


def _refusal(boundary: str, items, files, tmp_path, capsys) -> str | None:
    """The one error line with which `boundary` refuses `items`, or None when it accepts them."""
    path = tmp_path / "input"
    calls = {
        "UserSequence": lambda: UserSequence(user=1, items=items, max_len=MAX_LEN),
        "explain": lambda: search.explain(items, SETTING, files["markov"], 1,
                                          search.GaConfig(generations=1, population_size=4, max_len=MAX_LEN)),
        "baseline_records": lambda: baselines.baseline_records("random", [items], SETTING, files["markov"], 1,
                                                               budget=2, seed=0, categories=None),
        "oracle_optimal": lambda: oracle.oracle_optimal(items, SETTING, files["markov"], 1, 1),
        "MarkovScorer.score": lambda: files["markov"].score(items),
        "PopularityScorer.score": lambda: files["popularity"].score(items),
        "read_records source": lambda: (_records_file(path, "source", items), read_records(path)),
        "read_records counterfactual": lambda: (_records_file(path, "counterfactual", items), read_records(path)),
        "load_split": lambda: (_split_file(path, items), load_split(path)),
    }
    if boundary.startswith("evaluate"):
        _records_file(path, boundary.split()[1], items)
        capsys.readouterr()
        code = main(["evaluate", "--records", str(path), "--model", str(files["model"]),
                     "--out", str(tmp_path / "report.csv")])
        err = capsys.readouterr().err
        assert (code == 0) == (err == "")
        return err.rstrip("\n") or None
    try:
        calls[boundary]()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("boundary", sorted(EXPECTED))
def test_every_boundary_applies_the_one_sequence_rule(boundary, case, files, tmp_path, capsys):
    message = _refusal(boundary, CASES[case], files, tmp_path, capsys)
    expected = EXPECTED[boundary][case]
    if expected is None:
        assert message is None
    else:
        assert message == expected.format(path=tmp_path / "input", model=files["model"])
        assert "\n" not in message


@pytest.fixture(scope="module", params=[(200, 100), (2000, 1000)], ids=["200x100", "2000x1000"])
def corpus(request, tmp_path_factory):
    """The split (with categories), both scorers and a report of a synth-seed-0 corpus."""
    users, items = request.param
    root = tmp_path_factory.mktemp("corpus")
    log, labels = synthesize_corpus(users, items, seed=0)
    write_categories(labels, root / "cats.tsv")
    split = leave_one_out_split(k_core_filter(log, 5), max_len=50)
    split = split.with_categories(load_categories(root / "cats.tsv", split.catalog))
    m = split.catalog.num_items
    markov, popularity = train_markov(split.train, m), train_popularity(split.train, m)
    sources = [split.train[u] for u in split.users[:50]]
    found = baselines.baseline_records("random", sources, SETTING, markov, 1, budget=10, seed=0, categories=None)
    none = [ExplanationRecord(user=r.user, method="none", setting=SETTING, source=r.source, counterfactual=None,
                              generation_found=None, seed=0) for r in found]  # undefined means: NaN, written null
    rows = aggregate_report(found + none, markov, [1, 5, 10], SETTING.threshold, None,
                            {"dataset": "synth", "model": "markov", "seed": 0})
    return {"root": root, "split": split, "markov": markov, "popularity": popularity, "rows": rows}


WRITES = {
    "split": lambda w, c, path: w["save_split"](c["split"], path),
    "markov": lambda w, c, path: w["save_model"](c["markov"], path),
    "popularity": lambda w, c, path: w["save_model"](c["popularity"], path),
    "report": lambda w, c, path: w["write_report_json"](path, c["rows"], {"command": "evaluate", "k_list": [1]}),
}
OURS = {"save_split": save_split, "save_model": save_model, "write_report_json": write_report_json}
STREAMED = {name: getattr(reference, name) for name in OURS}


@pytest.mark.parametrize("name", sorted(WRITES))
def test_json_documents_match_the_streaming_writer(corpus, name):
    ours, streamed = corpus["root"] / f"{name}.json", corpus["root"] / f"{name}.streamed.json"
    WRITES[name](OURS, corpus, ours)
    WRITES[name](STREAMED, corpus, streamed)
    assert ours.read_bytes() == streamed.read_bytes()
    assert ours.read_bytes().endswith(b"}\n")
