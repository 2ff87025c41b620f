import json

import numpy as np
import pytest

from seqcf import (
    InteractionLog,
    k_core_filter,
    leave_one_out_split,
    load_categories,
    load_interactions,
    load_split,
    save_split,
    synthesize_corpus,
)
from seqcf.core import derive_stream
from seqcf.dataset import sample_target_item, sample_users, write_categories, write_interactions


def rows_of(*triples):
    return InteractionLog(rows=[(u, i, t) for u, i, t in triples])


class TestLoadInteractions:
    def test_well_formed_tsv(self, tmp_path):
        p = tmp_path / "log.tsv"
        p.write_text("1\ta\t10\n2\tb\t11\n1\tc\t12\n")
        log = load_interactions(p)
        assert log.rows == [(1, "a", 10), (2, "b", 11), (1, "c", 12)]

    def test_comma_delimited_and_header(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("user,item,timestamp\n1,a,10\n2,b,11\n")
        assert len(load_interactions(p)) == 2

    def test_malformed_rows_skipped_with_warning(self, tmp_path, caplog):
        p = tmp_path / "log.tsv"
        p.write_text("1\ta\t10\n2\tb\n3\tc\t12\n4\td\t13\n")
        with caplog.at_level("WARNING"):
            log = load_interactions(p)
        assert len(log) == 3
        assert "1 malformed" in caplog.text

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "log.tsv"
        p.write_text("")
        with pytest.raises(ValueError, match="zero valid rows"):
            load_interactions(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_interactions(tmp_path / "nope.tsv")


def dense_log():
    # 5 users x 5 items, every pair once: all counts exactly 5
    rows = []
    t = 0
    for u in range(1, 6):
        for item in "ABCDE":
            rows.append((u, item, t))
            t += 1
    return InteractionLog(rows=rows)


class TestKCore:
    def test_dense_log_is_fixed_point(self):
        log = dense_log()
        assert k_core_filter(log, 5).rows == log.rows

    def test_everything_filtered_is_error(self):
        log = rows_of((1, "a", 0), (1, "b", 1), (1, "c", 2))
        with pytest.raises(ValueError, match="removed every"):
            k_core_filter(log, 5)

    def test_cascade_reaches_documented_fixed_point(self):
        # Hand-simulated: users 1..5 each hit items A..E once (all counts 5).
        # User 6 hits A,B,C,D,F. Item F has 1 interaction -> dropped; user 6
        # falls to 4 -> dropped; counts return to 5 everywhere. Fixed point
        # is exactly the dense sub-log of users 1..5.
        log = dense_log()
        extra = [(6, i, 100 + n) for n, i in enumerate("ABCDF")]
        full = InteractionLog(rows=log.rows + extra)
        result = k_core_filter(full, 5)
        assert result.rows == dense_log().rows
        assert {u for u, _, _ in result.rows} == {1, 2, 3, 4, 5}
        assert {i for _, i, _ in result.rows} == set("ABCDE")

    def test_idempotent(self):
        log = dense_log()
        extra = [(6, i, 100 + n) for n, i in enumerate("ABCDF")]
        once = k_core_filter(InteractionLog(rows=log.rows + extra), 5)
        twice = k_core_filter(once, 5)
        assert once.rows == twice.rows

    def test_order_independent(self):
        base = dense_log().rows + [(6, i, 100 + n) for n, i in enumerate("ABCDF")]
        rng = np.random.default_rng(0)
        reference = set(k_core_filter(InteractionLog(rows=list(base)), 5).rows)
        for _ in range(100):
            shuffled = list(base)
            rng.shuffle(shuffled)
            got = set(k_core_filter(InteractionLog(rows=shuffled), 5).rows)
            assert got == reference


class TestLeaveOneOut:
    def test_basic_split(self):
        log = rows_of(*[(1, x, t) for t, x in enumerate("abcde")])
        split = leave_one_out_split(log)
        label = split.catalog.item_labels
        assert [label[i] for i in split.train[1].items] == ["a", "b", "c"]
        assert label[split.validation[1]] == "d"
        assert label[split.test[1]] == "e"

    def test_minimal_history(self):
        log = rows_of(*[(1, x, t) for t, x in enumerate("abc")])
        split = leave_one_out_split(log)
        assert len(split.train[1].items) == 1
        assert split.catalog.item_labels[split.test[1]] == "c"

    def test_sixty_item_history_truncates_to_recent_fifty(self):
        log = rows_of(*[(1, f"i{n:02d}", n) for n in range(60)])
        split = leave_one_out_split(log, max_len=50)
        label = split.catalog.item_labels
        train = [label[i] for i in split.train[1].items]
        assert len(train) == 50
        assert train[0] == "i08"  # items 0..57 keep the most recent 50
        assert train[-1] == "i57"
        assert label[split.validation[1]] == "i58"
        assert label[split.test[1]] == "i59"

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_max_len_below_one_rejected(self, max_len):
        log = rows_of(*[(1, x, t) for t, x in enumerate("abcde")])
        with pytest.raises(ValueError, match=r"^max_len must be >= 1$"):
            leave_one_out_split(log, max_len=max_len)

    def test_too_short_history_rejected(self):
        log = rows_of((1, "a", 0), (1, "b", 1))
        with pytest.raises(ValueError, match="fewer than 3"):
            leave_one_out_split(log)

    def test_duplicates_keep_most_recent(self):
        log = rows_of((1, "a", 0), (1, "b", 1), (1, "a", 2), (1, "c", 3), (1, "d", 4))
        split = leave_one_out_split(log)
        label = split.catalog.item_labels
        # chronological dedup: b, a, c, d
        assert [label[i] for i in split.train[1].items] == ["b", "a"]
        assert label[split.validation[1]] == "c"
        assert label[split.test[1]] == "d"

    def test_reconstruction_invariant_on_synthetic_logs(self):
        logdata, _ = synthesize_corpus(num_users=30, num_items=40, seed=5)
        split = leave_one_out_split(logdata)
        per_user = {}
        for u, i, t in logdata.rows:
            per_user.setdefault(u, []).append(i)
        label = split.catalog.item_labels
        for u, seq in split.train.items():
            rebuilt = [label[i] for i in seq.items]
            rebuilt.append(label[split.validation[u]])
            rebuilt.append(label[split.test[u]])
            assert rebuilt == per_user[u]


class TestCategories:
    def test_parse_and_union(self, tmp_path):
        log = rows_of(*[(1, x, t) for t, x in enumerate("abc")])
        split = leave_one_out_split(log)
        p = tmp_path / "cats.tsv"
        p.write_text("a\tAction|Drama\nb\tDrama\na\tComedy\nzz\tIgnored\n")
        cm = load_categories(p, split.catalog)
        labels = cm.category_labels
        a_idx = split.catalog.item_labels.index("a")
        b_idx = split.catalog.item_labels.index("b")
        c_idx = split.catalog.item_labels.index("c")
        assert {labels[c] for c in cm.of(a_idx)} == {"Action", "Drama", "Comedy"}
        assert {labels[c] for c in cm.of(b_idx)} == {"Drama"}
        assert cm.of(c_idx) == frozenset()


class TestSplitRoundTrip:
    def test_json_round_trip(self, tmp_path):
        logdata, cats = synthesize_corpus(num_users=20, num_items=30, seed=2)
        split = leave_one_out_split(logdata)
        path = tmp_path / "split.json"
        save_split(split, path)
        loaded = load_split(path)
        assert loaded.train == split.train
        assert loaded.validation == split.validation
        assert loaded.test == split.test
        assert loaded.catalog == split.catalog
        doc = json.loads(path.read_text())
        assert set(doc) >= {"catalog", "categories", "train", "validation", "test"}

    def _saved_doc(self, tmp_path):
        logdata, cats = synthesize_corpus(num_users=20, num_items=30, seed=2)
        split = leave_one_out_split(logdata)
        path = tmp_path / "cats.tsv"
        write_categories(cats, path)
        path = tmp_path / "split.json"
        save_split(split.with_categories(load_categories(tmp_path / "cats.tsv", split.catalog)), path)
        return path, json.loads(path.read_text())

    @staticmethod
    def _set_item(field, bad):
        def edit(doc):
            user = next(iter(doc[field]))
            if field == "train":
                doc[field][user][-1] = bad
            else:
                doc[field][user] = bad

        return edit

    @staticmethod
    def _rename_user(doc):
        doc["train"]["u1"] = doc["train"].pop(next(iter(doc["train"])))

    @pytest.mark.parametrize(
        "edit, message",
        [
            # 30 is the first id past the 30-item catalog
            (_set_item("train", 99999), r"train holds item 99999, not an integer id in the catalog \[0, 30\)"),
            (_set_item("validation", 30), r"validation holds item 30, not an integer id in the catalog \[0, 30\)"),
            (_set_item("test", -1), r"test holds item -1, not an integer id in the catalog \[0, 30\)"),
            (_set_item("train", True), "train holds item True, not an integer id"),
            (_set_item("train", 2.5), "train holds item 2.5, not an integer id"),
            (_set_item("validation", "x"), "validation holds item 'x', not an integer id"),
            (_rename_user, "train has user key 'u1', not an integer"),
            (lambda doc: doc.pop("max_len"), "missing field max_len"),
            (lambda doc: doc.update(max_len="50"), "max_len is '50', not an integer"),
            (lambda doc: doc["catalog"].update(num_items="30"), "catalog.num_items is '30', not an integer"),
            (lambda doc: doc["train"].update({"1": 5}), "train user 1 holds 5, not a list of item ids"),
            (lambda doc: doc.update(train=[[0, 1]]), "train is a list, not an object keyed by user id"),
            (lambda doc: doc["categories"].update(items=30), "categories.items is a int, not a list"),
            (lambda doc: doc["categories"].update(num_categories="6"), "categories.num_categories is '6', not a count"),
            (lambda doc: doc["categories"]["items"][2].append("x"), r"categories.items\[2\] is \[.*'x'\], not a list"),
            (lambda doc: doc.update(categories=[[0]] * 30), "categories is a list, not an object"),
            (lambda doc: doc["catalog"].pop("item_labels"), "missing field catalog.item_labels"),
            (lambda doc: doc["catalog"].update(item_labels=7), "catalog.item_labels is not null or a list of 30 strings"),
            (lambda doc: doc.update(max_len=0), "max_len is 0, not an integer >= 1"),
            # an edit that returns text replaces the whole file
            (lambda doc: "{not json", "not a JSON split file: Expecting property name"),
        ],
        ids=["train", "validation", "test", "bool-item", "fraction-item", "string-item", "user-key", "no-max_len",
             "string-max_len", "string-num_items", "int-sequence", "list-train", "int-category-items",
             "string-num_categories", "string-category", "list-categories", "no-item_labels", "int-item_labels",
             "zero-max_len", "not-json"],
    )
    def test_item_outside_catalog_rejected(self, tmp_path, edit, message):
        path, doc = self._saved_doc(tmp_path)
        text = edit(doc)
        path.write_text(text if isinstance(text, str) else json.dumps(doc))
        with pytest.raises(ValueError, match=message) as exc:
            load_split(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_category_map_length_mismatch_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["categories"]["items"] = doc["categories"]["items"][:-5]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="categories.items covers 25 items, catalog.num_items is 30"):
            load_split(path)


class TestSynthetic:
    def test_walks_are_duplicate_free_and_in_range(self):
        logdata, cats = synthesize_corpus(num_users=50, num_items=60, seed=1)
        per_user = {}
        for u, i, t in logdata.rows:
            per_user.setdefault(u, []).append(int(i))
        assert len(per_user) == 50
        for items in per_user.values():
            assert len(set(items)) == len(items)
            assert all(0 <= x < 60 for x in items)
        assert set(cats) == {str(i) for i in range(60)}

    def test_reference_corpus_survives_five_core_intact(self):
        logdata, _ = synthesize_corpus(num_users=200, num_items=100, seed=0)
        filtered = k_core_filter(logdata, 5)
        assert len(filtered) == len(logdata)
        split = leave_one_out_split(filtered)
        assert split.catalog.num_items == 100
        assert len(split.train) == 200

    def test_deterministic(self):
        a, _ = synthesize_corpus(num_users=10, num_items=20, seed=3)
        b, _ = synthesize_corpus(num_users=10, num_items=20, seed=3)
        assert a.rows == b.rows


class TestSampling:
    def test_sample_users_deterministic_subset(self):
        logdata, _ = synthesize_corpus(num_users=25, num_items=30, seed=4)
        split = leave_one_out_split(logdata)
        a = sample_users(split, 10, derive_stream(7, [4]))
        b = sample_users(split, 10, derive_stream(7, [4]))
        assert a == b and len(a) == 10
        assert sample_users(split, 0, derive_stream(7, [4])) == split.users

    def test_target_strata_disjoint_extremes(self):
        logdata, _ = synthesize_corpus(num_users=80, num_items=50, seed=6)
        split = leave_one_out_split(logdata)
        freq = np.zeros(50, dtype=int)
        for seq in split.train.values():
            for item in seq.items:
                freq[item] += 1
        pop = {sample_target_item(split, "popular", derive_stream(s, [1])) for s in range(30)}
        unpop = {sample_target_item(split, "unpopular", derive_stream(s, [1])) for s in range(30)}
        assert pop.isdisjoint(unpop)
        assert min(freq[list(pop)]) >= max(freq[list(unpop)])

    def test_write_round_trip(self, tmp_path):
        logdata, _ = synthesize_corpus(num_users=5, num_items=10, seed=9)
        path = tmp_path / "log.tsv"
        write_interactions(logdata, path)
        assert load_interactions(path).rows == logdata.rows
