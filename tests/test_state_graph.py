import random
from collections import Counter

import pytest

from almax.diagram import State, mirror, parse_pd, resolve
from almax.state_graph import (
    GraphError,
    StateGraph,
    build_state_graph,
    cyclomatic_number,
    graph_from_json_dict,
    graph_to_json_dict,
    is_a_adequate,
    is_b_adequate,
    is_bipartite,
    simple_reduction,
)

TRIANGLE = StateGraph(vertices=("a", "b", "c"), edges=(("a", "b"), ("b", "c"), ("a", "c")))
TWO_VERTEX_TRIPLE = StateGraph(vertices=("a", "b"), edges=(("a", "b"),) * 3)
PATH = StateGraph(vertices=("a", "b", "c"), edges=(("a", "b"), ("b", "c")))


class TestBuildStateGraph:
    def test_left_trefoil_triangle(self, left_trefoil):
        g = build_state_graph(left_trefoil, State.all_a(3))
        assert len(g.vertices) == 3
        assert len(g.edges) == 3
        assert not g.loop_edges()
        # each vertex pair connected exactly once
        assert len({frozenset(e) for e in g.edges}) == 3

    def test_mirror_trefoil_parallel_edges(self, left_trefoil):
        g = build_state_graph(mirror(left_trefoil), State.all_a(3))
        assert len(g.vertices) == 2
        assert len(g.edges) == 3
        assert len({frozenset(e) for e in g.edges}) == 1

    def test_unknot(self, unknot):
        g = build_state_graph(unknot, State(()))
        assert len(g.vertices) == 1
        assert g.edges == ()

    def test_edge_order_is_crossing_order(self, left_trefoil):
        g = build_state_graph(left_trefoil, State.all_a(3))
        res = resolve(left_trefoil, State.all_a(3))
        assert g.edges == tuple((res.end_circle[(x, 0)], res.end_circle[(x, 2)]) for x in range(3))


class TestAdequacy:
    def test_left_trefoil_adequate_both_ways(self, left_trefoil):
        assert is_a_adequate(left_trefoil)
        assert is_b_adequate(left_trefoil)

    def test_unknot_adequate(self, unknot):
        assert is_a_adequate(unknot)

    def test_self_chord_kink_breaks_a_adequacy(self):
        # quadruple (a', b, a'', b): the all-A smoothing closes a chord onto one circle
        d = parse_pd("X(1,4,2,5);X(3,6,4,1);X(5,7,6,3);X(2,8,7,8)")
        g = build_state_graph(d, State.all_a(4))
        assert g.loop_edges() == (3,)
        assert not is_a_adequate(d)

    def test_b_only_fixture(self):
        d = parse_pd("X(1,2,2,1)")
        assert not is_a_adequate(d)
        assert is_b_adequate(d)

    def test_adequacy_swaps_under_mirror(self, corpus):
        for d in corpus.values():
            assert is_a_adequate(d) == is_b_adequate(mirror(d))

    def test_positive_kink_adds_a_leaf(self, left_trefoil, figure_eight):
        from collections import Counter

        from almax.diagram import add_positive_kink

        for d in (left_trefoil, figure_eight):
            c = d.crossing_count
            g = build_state_graph(d, State.all_a(c))
            kinked = add_positive_kink(d, d.arc_ids()[0])
            gk = build_state_graph(kinked, State.all_a(c + 1))
            assert len(gk.vertices) == len(g.vertices) + 1
            assert len(gk.edges) == len(g.edges) + 1
            degrees = Counter()
            for u, v in gk.edges:
                degrees[u] += 1
                degrees[v] += 1
            new_vertex = (set(gk.vertices) - set(g.vertices)).pop()
            assert degrees[new_vertex] == 1

    def test_a_adequate_flip_merges_two_circles(self, corpus):
        # flipping one crossing of the all-A state must merge, never split
        for d in corpus.values():
            if not is_a_adequate(d):
                continue
            base = resolve(d, State.all_a(d.crossing_count)).circle_count
            for x in range(d.crossing_count):
                flipped = resolve(d, State.all_a(d.crossing_count).flip(x))
                assert flipped.circle_count == base - 1


class TestSimpleReduction:
    def test_parallel_edges_collapse(self):
        h = simple_reduction(TWO_VERTEX_TRIPLE)
        assert len(h.edges) == 1

    def test_triangle_already_simple(self):
        assert simple_reduction(TRIANGLE).edges == TRIANGLE.edges

    def test_figure_eight_graph(self, figure_eight):
        g = build_state_graph(figure_eight, State.all_a(4))
        h = simple_reduction(g)
        assert len(g.edges) == 4
        assert len(h.edges) == 3
        # the survivor of the parallel class is its least crossing index
        pair_counts = Counter(frozenset(e) for e in g.edges)
        parallel = next(p for p, n in pair_counts.items() if n == 2)
        first_index = min(i for i, e in enumerate(g.edges) if frozenset(e) == parallel)
        kept_indices = [g.edges.index(e) for e in h.edges]
        assert first_index in kept_indices

    def test_rejects_loops(self):
        g = StateGraph(vertices=("a",), edges=(("a", "a"),))
        with pytest.raises(GraphError):
            simple_reduction(g)


class TestCyclomatic:
    def test_tree(self):
        assert cyclomatic_number(PATH) == 0

    def test_triangle(self):
        assert cyclomatic_number(TRIANGLE) == 1

    def test_disconnected_rejected(self):
        g = StateGraph(vertices=("a", "b"), edges=())
        with pytest.raises(GraphError):
            cyclomatic_number(g)

    def test_invariant_under_edge_permutation(self):
        rng = random.Random(1)
        edges = list(DOUBLED_TRIANGLE.edges)
        for _ in range(5):
            rng.shuffle(edges)
            g = StateGraph(vertices=DOUBLED_TRIANGLE.vertices, edges=tuple(edges))
            assert cyclomatic_number(simple_reduction(g)) == 1


# triangle with one doubled edge, for shuffling
DOUBLED_TRIANGLE = StateGraph(
    vertices=("a", "b", "c"),
    edges=(("a", "b"), ("b", "c"), ("a", "c"), ("a", "c")),
)


class TestBipartite:
    def test_single_vertex(self):
        assert is_bipartite(StateGraph(vertices=("a",), edges=()))

    def test_triangle_not_bipartite(self):
        assert not is_bipartite(TRIANGLE)

    def test_parallel_edges_bipartite(self):
        assert is_bipartite(TWO_VERTEX_TRIPLE)

    def test_loop_forces_false(self):
        assert not is_bipartite(StateGraph(vertices=("a",), edges=(("a", "a"),)))

    def test_matches_simple_reduction(self, corpus):
        for d in corpus.values():
            g = build_state_graph(d, State.all_a(d.crossing_count))
            if g.loop_edges():
                continue
            assert is_bipartite(g) == is_bipartite(simple_reduction(g))


class TestGraphJson:
    def test_round_trip(self):
        doc = graph_to_json_dict(TRIANGLE)
        assert graph_from_json_dict(doc) == TRIANGLE

    def test_diagram_vertices_format(self, left_trefoil):
        g = build_state_graph(left_trefoil, State.all_a(3))
        doc = graph_to_json_dict(g)
        assert all(isinstance(v, str) and v.startswith("c") for v in doc["vertices"])
