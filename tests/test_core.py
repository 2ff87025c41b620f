import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcf import InteractionLog, UserSequence, derive_stream, leave_one_out_split, save_split
from seqcf.core import Catalog, CategoryMap
from seqcf.metrics import write_report_csv
from seqcf.models import save_model, train_popularity
from seqcf.objective import SettingSpec
from seqcf.records import explanation_record, write_records


class TestUserSequence:
    def test_accepts_duplicate_free(self):
        seq = UserSequence(user=1, items=(3, 1, 2), max_len=5)
        assert len(seq) == 3

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            UserSequence(user=1, items=(1, 2, 1))

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=20))
    def test_duplicate_insertion_always_rejected(self, items):
        # appending an item already present must always fail construction
        augmented = tuple(items) + (items[0],)
        with pytest.raises(ValueError):
            UserSequence(user=1, items=augmented, max_len=50)

    @pytest.mark.parametrize("items", [(), tuple(range(51))])
    def test_length_bounds(self, items):
        with pytest.raises(ValueError, match="length"):
            UserSequence(user=1, items=items, max_len=50)

    def test_user_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            UserSequence(user=0, items=(1,))


class TestDeriveStream:
    def test_same_inputs_same_draws(self):
        a = derive_stream(7, [1, 2]).random(100)
        b = derive_stream(7, [1, 2]).random(100)
        assert np.array_equal(a, b)

    def test_different_tags_diverge(self):
        a = derive_stream(7, [1, 2]).random(100)
        b = derive_stream(7, [1, 3]).random(100)
        assert not np.array_equal(a, b)

    def test_different_seed_diverges(self):
        a = derive_stream(7, [1, 2]).random(100)
        b = derive_stream(8, [1, 2]).random(100)
        assert not np.array_equal(a, b)

    def test_empty_tags_rejected(self):
        with pytest.raises(ValueError):
            derive_stream(1, [])

    @settings(max_examples=50)
    @given(
        st.integers(min_value=0, max_value=2**63 - 1),
        st.lists(st.integers(0, 10_000), min_size=1, max_size=4),
    )
    def test_pure_function_of_inputs(self, seed, tags):
        assert np.array_equal(
            derive_stream(seed, tags).random(8), derive_stream(seed, tags).random(8)
        )


class TestCatalogAndCategories:
    def test_catalog_needs_two_items(self):
        with pytest.raises(ValueError):
            Catalog(num_items=1)

    def test_category_map_bounds(self):
        with pytest.raises(ValueError, match="out-of-range"):
            CategoryMap(categories_of=(frozenset({2}),), num_categories=2)

    def test_category_resolution(self):
        cm = CategoryMap(
            categories_of=(frozenset({0}), frozenset({0, 1}), frozenset()),
            num_categories=2,
            category_labels=("Action", "Drama"),
        )
        assert cm.category_id("Drama") == 1
        assert cm.category_id("0") == 0
        with pytest.raises(ValueError):
            cm.category_id("Comedy")


# one writer of each output file, all through `core.atomic_write`
WRITERS = {
    "records": lambda path: write_records(
        path, [explanation_record((1, 2), "random", SettingSpec.from_name("un_un"), None, None, 0)]
    ),
    "split": lambda path: save_split(
        leave_one_out_split(InteractionLog(rows=[(1, "a", 0), (1, "b", 1), (1, "c", 2)])), path
    ),
    "model": lambda path: save_model(train_popularity({1: UserSequence(1, (0, 1))}, 3), path),
    "report": lambda path: write_report_csv(path, [{"method": "random", "k": 1}]),
}


class TestFailedWrite:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_missing_directory_is_named_as_the_destination(self, tmp_path, writer):
        path = tmp_path / "missing" / "out"
        with pytest.raises(FileNotFoundError) as exc:
            WRITERS[writer](path)
        assert str(exc.value) == f"[Errno 2] No such file or directory: '{path}'"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_directory_destination_is_named_and_leaves_no_temp(self, tmp_path, writer):
        path = tmp_path / "out"
        path.mkdir()  # the temporary file is written beside it, then cannot replace it
        with pytest.raises(IsADirectoryError) as exc:
            WRITERS[writer](path)
        assert str(exc.value) == f"[Errno 21] Is a directory: '{path}'"
        assert list(tmp_path.iterdir()) == [path] and list(path.iterdir()) == []
