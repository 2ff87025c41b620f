import pytest

from conftest import SumScorer
from seqcf.core import UserSequence
from seqcf.metrics import hamming, levenshtein
from seqcf.objective import SettingSpec, is_valid
from seqcf.records import ExplanationRecord, explanation_record, read_records, write_records


def make_record(user=1, cf=(1, 2, 9), lev=1):
    return ExplanationRecord(
        user=user,
        method="gece",
        setting=SettingSpec.from_name("targ_un", target_item=9),
        source=(1, 2, 3),
        counterfactual=cf,
        valid_at_k={1: True, 5: True},
        hamming=1 if cf else None,
        levenshtein=lev,
        generation_found=4 if cf else None,
        seed=7,
    )


def test_present_counterfactual_requires_positive_distance():
    with pytest.raises(ValueError, match="edit distance"):
        make_record(lev=0)


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "out.jsonl"
    records = [make_record(user=u) for u in (1, 2)] + [
        ExplanationRecord(
            user=3,
            method="random",
            setting=SettingSpec.from_name("targ_un", target_item=9),
            source=(4, 5),
            counterfactual=None,
            valid_at_k={1: False, 5: False},
            hamming=None,
            levenshtein=None,
            generation_found=None,
            seed=7,
        )
    ]
    write_records(path, records, config={"setting": "targ_un", "seed": 7})
    header, loaded = read_records(path)
    assert header["config"]["seed"] == 7
    assert header["normalization"] == "softmax"
    assert loaded == records


def test_header_is_mandatory(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"record_type": "explanation"}\n')
    with pytest.raises(ValueError, match="header"):
        read_records(path)


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


class CountingScorer(SumScorer):
    def __init__(self, num_items):
        super().__init__(num_items)
        self.calls = 0

    def score(self, seq):
        self.calls += 1
        return super().score(seq)


@pytest.mark.parametrize("cf", [None, (1, 2, 4, 5), (2, 3)])
def test_explanation_record_matches_scalar_references(cf):
    model = CountingScorer(8)  # k_eval entry 10 exceeds the catalog and is dropped
    setting = SettingSpec.from_name("un_un", threshold=0.4, k_eval=(1, 7, 10))
    source = UserSequence(5, (1, 2, 3))
    rec = explanation_record(source, "random", setting, model, cf, None if cf is None else 3, 11)
    assert (rec.user, rec.method, rec.source, rec.counterfactual, rec.seed) == (5, "random", (1, 2, 3), cf, 11)
    assert list(rec.valid_at_k) == [1, 7]
    if cf is None:
        assert model.calls == 0  # an absent counterfactual needs no scores
        assert rec.valid_at_k == {1: False, 7: False}
        assert (rec.hamming, rec.levenshtein, rec.generation_found) == (None, None, None)
    else:
        src, cand = model.score(source), model.score(cf)
        assert rec.valid_at_k == {1: True, 7: False}  # the source's top-1 is back in the top 7
        assert rec.valid_at_k == {k: is_valid(setting, src, cand, k) for k in (1, 7)}
        assert rec.hamming == hamming(source, cf) and rec.levenshtein == levenshtein(source, cf)
        assert rec.generation_found == 3


def test_explanation_record_of_a_plain_tuple_has_user_zero():
    rec = explanation_record((1, 2, 3), "oracle", SettingSpec.from_name("un_un"), SumScorer(8), (1, 2, 4), None, 0)
    assert rec.user == 0
    assert rec.valid_at_k[1] is True
