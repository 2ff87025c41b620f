import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SumScorer, seqs
from seqcf.cli import main
from seqcf.core import UserSequence
from seqcf.metrics import hamming, levenshtein, levenshtein_batch
from seqcf.models import save_model, train_markov
from seqcf.objective import SettingSpec, is_valid
from seqcf.records import ExplanationRecord, explanation_record, read_records, write_records


def make_record(user=1, cf=(1, 2, 9)):
    return ExplanationRecord(
        user=user,
        method="gece",
        setting=SettingSpec.from_name("targ_un", target_item=9),
        source=(1, 2, 3),
        counterfactual=cf,
        generation_found=4 if cf else None,
        seed=7,
    )


def test_present_counterfactual_requires_positive_distance():
    with pytest.raises(ValueError, match="^counterfactual equals its source$"):
        make_record(cf=(1, 2, 3))


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "out.jsonl"
    records = [make_record(user=u) for u in (1, 2)] + [
        ExplanationRecord(
            user=3,
            method="random",
            setting=SettingSpec.from_name("targ_un", target_item=9),
            source=(4, 5),
            counterfactual=None,
            generation_found=None,
            seed=7,
        )
    ]
    write_records(path, records, config={"setting": "targ_un", "seed": 7})
    header, loaded = read_records(path)
    assert header["config"]["seed"] == 7
    assert header["normalization"] == "softmax"
    assert loaded == records


@pytest.mark.parametrize(
    "source, cf, message",
    [
        ((), None, "source is empty"),
        ((), (1, 2), "source is empty"),
        ((4, 5, 4), None, "source repeats an item"),
        ((3, 3, 3), (1, 2, 3), "source repeats an item"),
        ((1, 2, 3), (1, 2, 1), "counterfactual repeats an item"),
        ((1, 2, 3), (5, 5), "counterfactual repeats an item"),
        ((1, 2, 3), (), "counterfactual is empty"),
    ],
)
def test_record_refuses_empty_or_repeated_items(source, cf, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExplanationRecord(user=1, method="gece", setting=SettingSpec.from_name("un_un"), source=source,
                          counterfactual=cf, generation_found=None, seed=0)


def test_record_takes_no_distances():
    with pytest.raises(TypeError, match="hamming"):
        ExplanationRecord(user=1, method="gece", setting=SettingSpec.from_name("un_un"), source=(1, 2),
                          counterfactual=(1, 3), hamming=1, generation_found=None, seed=0)


unique_items = st.lists(st.integers(0, 150), min_size=1, max_size=100, unique=True).map(tuple)


# sources past 64 items span several words of the bit-parallel `levenshtein_batch`
@given(source=unique_items, cf=st.none() | unique_items)
@example(source=tuple(range(70)), cf=tuple(range(1, 71)))
@example(source=tuple(range(130)), cf=tuple(range(129, -1, -1)))
@example(source=(5,), cf=tuple(range(66)))
@settings(max_examples=150, deadline=None)
def test_record_distances_are_the_scalar_and_batch_ones(source, cf):
    if cf == source:
        cf = None
    rec = ExplanationRecord(user=2, method="random", setting=SettingSpec.from_name("un_un"), source=source,
                            counterfactual=cf, generation_found=None if cf is None else 1, seed=0)
    if cf is None:
        assert (rec.hamming, rec.levenshtein) == (None, None)
    else:
        batch = levenshtein_batch(source, np.array([cf]), np.array([len(cf)]))
        assert rec.hamming == hamming(source, cf)
        assert rec.levenshtein == levenshtein(source, cf) == int(batch[0]) >= 1
    assert ExplanationRecord.from_dict(rec.to_dict()) == rec


@pytest.mark.parametrize(
    "cf, stored, held",
    [
        ((1, 2, 9), {"hamming": 2}, "a counterfactual at 1 and 1"),
        ((1, 2, 9), {"levenshtein": 0}, "a counterfactual at 1 and 1"),
        ((2, 3, 9), {"levenshtein": 3}, "a counterfactual at 3 and 2"),
        ((2, 3, 9), {"hamming": 2}, "a counterfactual at 3 and 2"),
        ((2, 3, 9), {"hamming": None}, "a counterfactual at 3 and 2"),
        (None, {"hamming": 1}, "no counterfactual"),
        (None, {"levenshtein": 1}, "no counterfactual"),
    ],
)
def test_stored_distances_not_the_records_own_name_file_line_and_user(tmp_path, cf, stored, held):
    path = tmp_path / "out.jsonl"
    write_records(path, [make_record(user=1), make_record(user=5, cf=cf), make_record(user=2)])
    lines = path.read_text().splitlines()
    doc = json.loads(lines[2])
    assert (doc["hamming"], doc["levenshtein"]) == ((None, None) if cf is None else (hamming((1, 2, 3), cf),
                                                                                    levenshtein((1, 2, 3), cf)))
    doc.update(stored)
    lines[2] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read_records(path)
    assert str(exc.value) == (f"{path}:3: user 5 stores hamming {doc['hamming']} and levenshtein "
                              f"{doc['levenshtein']} for {held}")


def test_empty_counterfactual_names_file_and_line(tmp_path):
    # a line no explainer writes: the counterfactual [] with the distances it would have
    path = tmp_path / "out.jsonl"
    write_records(path, [make_record(user=1), make_record(user=5)])
    lines = path.read_text().splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), "counterfactual": [], "hamming": 3, "levenshtein": 3})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read_records(path)
    assert str(exc.value) == f"{path}:3: counterfactual is empty"


def test_header_without_records_is_refused(tmp_path):
    path = tmp_path / "out.jsonl"
    write_records(path, [], config={"x": 1})
    with pytest.raises(ValueError, match=f"^no explanation records in {re.escape(str(path))}$"):
        read_records(path)


def test_header_is_mandatory(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"record_type": "explanation"}\n')
    with pytest.raises(ValueError, match="header"):
        read_records(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("user", "7", "field 'user' is '7', not an integer"),
        ("user", True, "field 'user' is True, not an integer"),  # a boolean is not an integer
        ("seed", 1.5, "field 'seed' is 1.5, not an integer"),
        ("seed", None, "field 'seed' is None, not an integer"),
        ("hamming", "x", "field 'hamming' is 'x', not an integer or null"),
        ("levenshtein", 1.0, "field 'levenshtein' is 1.0, not an integer or null"),
        ("generation_found", False, "field 'generation_found' is False, not an integer or null"),
        ("source", [1.5, 2], "field 'source' is [1.5, 2], not a list of non-negative integers"),
        ("source", [-1, 2], "field 'source' is [-1, 2], not a list of non-negative integers"),
        ("source", None, "field 'source' is None, not a list of non-negative integers"),
        ("counterfactual", [1, True], "field 'counterfactual' is [1, True], not a list of non-negative integers or null"),
        ("counterfactual", "1 2", "field 'counterfactual' is '1 2', not a list of non-negative integers or null"),
        ("method", 5, "field 'method' is 5, not a string"),
        ("method", None, "field 'method' is None, not a string"),
        ("setting", "targ_un", "field 'setting' is 'targ_un', not an object"),
        ("setting.setting", None, "field 'setting.setting' is None, not a string"),
        ("setting.target_item", "2", "field 'setting.target_item' is '2', not an integer or null"),
        ("setting.target_item", 2.5, "field 'setting.target_item' is 2.5, not an integer or null"),
        ("setting.target_item", True, "field 'setting.target_item' is True, not an integer or null"),
        ("setting.target_category", 1.0, "field 'setting.target_category' is 1.0, not an integer or null"),
        ("setting.threshold", "0.5", "field 'setting.threshold' is '0.5', not a number"),
        ("setting.threshold", True, "field 'setting.threshold' is True, not a number"),
        ("setting.k_eval", 5, "field 'setting.k_eval' is 5, not a list of integers"),
        ("setting.untargeted_rank_rule", 0, "field 'setting.untargeted_rank_rule' is 0, not a string"),
        ("setting.k_eval", [1.5], "field 'setting.k_eval' is [1.5], not a list of integers"),
        ("setting.k_eval", [True, 5], "field 'setting.k_eval' is [True, 5], not a list of integers"),
    ],
)
def test_mistyped_field_names_file_line_and_field(tmp_path, field, value, message):
    path = tmp_path / "out.jsonl"
    write_records(path, [make_record(user=1), make_record(user=2)])
    lines = path.read_text().splitlines()
    doc = json.loads(lines[2])
    *nested, key = field.split(".")  # 'setting.k_eval' is a field of the record's setting
    (doc[nested[0]] if nested else doc)[key] = value
    lines[2] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read_records(path)
    assert str(exc.value) == f"{path}:3: {message}"


def test_write_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    records = [make_record(user=u) for u in (1, 2, 3)]
    write_records(a, records, config={"x": 1})
    write_records(b, records, config={"x": 1})
    assert a.read_bytes() == b.read_bytes()


class Unwritable:
    def to_dict(self):
        raise RuntimeError("record cannot be serialized")


def test_failed_write_keeps_earlier_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.jsonl"
    write_records(path, [make_record(user=1)], config={"x": 1})
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="serialized"):
        write_records(path, [make_record(user=2), Unwritable()], config={"x": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_record_keys_are_pinned():
    assert set(make_record().to_dict()) == {
        "record_type", "user", "method", "setting", "source", "counterfactual",
        "hamming", "levenshtein", "generation_found", "seed",
    }


def test_explanation_record_takes_no_model():
    # validity is derived by `evaluate`, so building a record needs no scores
    assert list(inspect.signature(explanation_record).parameters) == [
        "source", "method", "setting", "counterfactual", "generation_found", "seed",
    ]


@pytest.mark.parametrize("cf", [None, (1, 2, 4, 5), (2, 3)])
def test_explanation_record_matches_scalar_references(cf):
    setting = SettingSpec.from_name("un_un", threshold=0.4, k_eval=(1, 7, 10))
    source = UserSequence(5, (1, 2, 3))
    rec = explanation_record(source, "random", setting, cf, None if cf is None else 3, 11)
    assert (rec.user, rec.method, rec.source, rec.counterfactual, rec.seed) == (5, "random", (1, 2, 3), cf, 11)
    if cf is None:
        assert (rec.hamming, rec.levenshtein, rec.generation_found) == (None, None, None)
    else:
        model = SumScorer(8)
        src, cand = model.score(source), model.score(rec.counterfactual)
        assert is_valid(setting, src, cand, 1)
        assert not is_valid(setting, src, cand, 7)  # the source's top-1 is back in the top 7
        assert rec.hamming == hamming(source, cf) and rec.levenshtein == levenshtein(source, cf)
        assert rec.generation_found == 3


def test_explanation_record_of_a_plain_tuple_has_user_zero():
    setting = SettingSpec.from_name("un_un")
    rec = explanation_record((1, 2, 3), "oracle", setting, (1, 2, 4), None, 0)
    assert rec.user == 0
    model = SumScorer(8)
    assert is_valid(setting, model.score(rec.source), model.score(rec.counterfactual), 1)


# records written before validity moved to `evaluate`: each line carries a
# `valid_at_k` map, here as written for the model `_chain_model` builds
EARLIER_RECORDS = """\
{"config":{"seed":3},"format":"seqcf-explanations.v1","normalization":"softmax","record_type":"header"}
{"counterfactual":[0,1],"generation_found":2,"hamming":3,"levenshtein":1,"method":"gece","record_type":"explanation","seed":3,"setting":{"k_eval":[1,5],"setting":"un_un","target_category":null,"target_item":null,"threshold":0.5,"untargeted_rank_rule":"topk_absence"},"source":[0,1,2],"user":1,"valid_at_k":{"1":true,"5":false}}
{"counterfactual":null,"generation_found":null,"hamming":null,"levenshtein":null,"method":"random","record_type":"explanation","seed":3,"setting":{"k_eval":[1,5],"setting":"un_un","target_category":null,"target_item":null,"threshold":0.5,"untargeted_rank_rule":"topk_absence"},"source":[5,4,3],"user":2,"valid_at_k":{"1":false,"5":false}}
{"counterfactual":[2,3,5],"generation_found":1,"hamming":1,"levenshtein":1,"method":"random","record_type":"explanation","seed":3,"setting":{"k_eval":[1,5],"setting":"un_un","target_category":null,"target_item":null,"threshold":0.5,"untargeted_rank_rule":"topk_absence"},"source":[2,3,4],"user":3,"valid_at_k":{"1":true,"5":true}}
"""


def _chain_model():
    chains = {u: (0, 1, 2, 3, 4, 5) if u % 2 else (5, 4, 3, 2, 1, 0) for u in range(1, 11)}
    return train_markov(seqs(chains), 8)


def test_records_with_valid_at_k_load_and_evaluate_unchanged(tmp_path):
    earlier, current = tmp_path / "earlier.jsonl", tmp_path / "current.jsonl"
    earlier.write_text(EARLIER_RECORDS)
    lines = EARLIER_RECORDS.splitlines()
    stored = [json.loads(line) for line in lines[1:]]
    docs = [{key: value for key, value in doc.items() if key != "valid_at_k"} for doc in stored]
    current.write_text("\n".join([lines[0], *(json.dumps(doc) for doc in docs)]) + "\n")
    assert read_records(earlier) == read_records(current)
    assert [rec.to_dict() for rec in read_records(earlier)[1]] == docs

    model = tmp_path / "m.json"
    save_model(_chain_model(), model)
    reports = {}
    for path in (earlier, current):
        out = tmp_path / f"{path.stem}.report.json"
        assert main(["evaluate", "--records", str(path), "--model", str(model), "--format", "json", "--out", str(out)]) == 0
        reports[path] = json.loads(out.read_text())["rows"]
    assert reports[earlier] == reports[current]
    # the derived validity agrees with what the earlier records stored
    for row in reports[earlier]:
        marks = [doc["valid_at_k"][str(row["k"])] for doc in stored if doc["method"] == row["method"]]
        assert row["valid_fraction"] == sum(marks) / len(marks)
    assert [(r["method"], r["k"], r["valid_fraction"]) for r in reports[earlier]] == [
        ("gece", 1, 1.0), ("gece", 5, 0.0), ("random", 1, 0.5), ("random", 5, 0.5),
    ]
