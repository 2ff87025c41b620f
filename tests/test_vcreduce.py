from itertools import combinations

import pytest

from seqcf import Graph, brute_force_vc, check_equivalence, levenshtein, reduce
from seqcf.models import top_k

from reference import cover_sequence


K3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
PATH3 = Graph(3, ((0, 1), (1, 2)))


def all_graphs(n):
    slots = list(combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        yield Graph(n, tuple(e for bit, e in enumerate(slots) if mask >> bit & 1))


class TestGraph:
    def test_parse_one_indexed(self):
        g = Graph.parse("3\n1 2\n2 3\n")
        assert g.num_vertices == 3
        assert g.edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x\n1 2\n", "line 1: expected the vertex count n, got 'x'"),
            ("3\n1 2\n\n1 2 3\n", "line 4: expected one edge `u v`, got '1 2 3'"),
            ("3\n--1 2\n", "line 2: expected one edge `u v`, got '--1 2'"),
            ("3\n1\n", "line 2: expected one edge `u v`, got '1'"),
            # vertices are named 1-indexed, as in the file
            ("3\n1 5\n", "line 2: edge (1, 5) out of range"),
            ("3\n0 2\n", "line 2: edge (0, 2) out of range"),
            ("3\n1 1\n", "line 2: self-loop at vertex 1"),
            ("3\n1 2\n\n2 1\n", "line 4: duplicate edge (1, 2)"),
        ],
        ids=["count", "three-numbers", "double-minus", "one-number", "out-of-range", "zero", "self-loop", "duplicate"],
    )
    def test_malformed_line_names_its_number(self, text, message):
        with pytest.raises(ValueError) as exc:
            Graph.parse(text)
        assert str(exc.value) == message

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, ((0, 0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1), (1, 0)))


class TestReduce:
    def test_triangle_universe(self):
        model, sbar = reduce(K3)
        assert model.num_items == 8
        assert sbar == (3, 4, 5)

    def test_single_edge_accepting_sequence(self):
        g = Graph(2, ((0, 1),))
        model, _ = reduce(g)
        # positive 0, negative 1: vertex {0} covers the edge
        assert model.output((0, 3)) == model.accept
        assert top_k(model.score((0, 3)), 1) == [model.accept]

    def test_edgeless_start_sequence_accepts(self):
        g = Graph(3, ())
        model, sbar = reduce(g)
        assert model.output(sbar) == model.accept  # empty cover suffices

    def test_non_literal_shapes_reject(self):
        model, sbar = reduce(K3)
        assert model.output((0, 1)) == model.reject  # wrong length
        assert model.output((1, 0, 2)) == model.reject  # literals out of slot
        assert model.output((6, 7, 6)) == model.reject  # sentinels as input


class TestBruteForce:
    @pytest.mark.parametrize("k,expected", [(1, False), (2, True)])
    def test_triangle(self, k, expected):
        assert brute_force_vc(K3, k) is expected

    def test_path_center_vertex(self):
        assert brute_force_vc(PATH3, 1) is True

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_vc(Graph(25, ()), 1)


class TestEquivalence:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_triangle(self, k):
        assert check_equivalence(K3, k)

    def test_path(self):
        for k in range(4):
            assert check_equivalence(PATH3, k)

    def test_all_graphs_up_to_four_vertices(self):
        for n in (1, 2, 3, 4):
            for g in all_graphs(n):
                for k in range(n + 1):
                    assert check_equivalence(g, k), (g, k)

    def test_cover_distance_equals_cover_size(self):
        for g in all_graphs(4):
            _, sbar = reduce(g)
            for size in range(5):
                for cover in combinations(range(4), size):
                    assert levenshtein(cover_sequence(g, cover), sbar) == size
