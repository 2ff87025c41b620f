import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcf import UserSequence, derive_stream
from seqcf.core import Catalog, CategoryMap


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

    def test_members_and_resolution(self):
        cm = CategoryMap(
            categories_of=(frozenset({0}), frozenset({0, 1}), frozenset()),
            num_categories=2,
            category_labels=("Action", "Drama"),
        )
        assert cm.members(0) == (0, 1)
        assert cm.members(1) == (1,)
        assert cm.category_id("Drama") == 1
        assert cm.category_id("0") == 0
        with pytest.raises(ValueError):
            cm.category_id("Comedy")
