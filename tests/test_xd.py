import pytest

import random

from almax.diagram import State, mirror, parse_pd
from almax.homology import AbelianGroup, homology, nonzero_groups
import almax.presimplicial
import almax.xd
from almax.presimplicial import chain_complex, pps_to_json, pps_to_json_dict, validate_pps
from almax.state_graph import GraphError, StateGraph, build_state_graph, is_a_adequate
from almax.xd import build_xd, khovanov_degree
from helpers import connected_multigraphs, torus_two_strand, xd_oracle

from conftest import CORPUS

TRIANGLE = StateGraph(
    vertices=("T0", "T1", "T2"),
    edges=(("T0", "T1"), ("T1", "T2"), ("T0", "T2")),
)

# three vertices, four edges with the last two parallel
FIGURE_EIGHT_GRAPH = StateGraph(
    vertices=("T0", "T1", "T2"),
    edges=(("T0", "T2"), ("T0", "T1"), ("T1", "T2"), ("T1", "T2")),
)


def named_faces(pps, k):
    """Faces of dimension k by name, as the JSON form writes them."""
    return pps_to_json_dict(pps)["faces"].get(str(k))


def reduced_homology(pps):
    return nonzero_groups(homology(chain_complex(pps, reduced=True)))


def graph_from_edges(vertex_count, edges):
    return StateGraph(
        vertices=tuple(range(vertex_count)),
        edges=tuple(tuple(e) for e in edges),
    )


class TestTriangle:
    def test_cells(self):
        pps = build_xd(TRIANGLE)
        assert pps.top_dim == 2
        assert pps.cells[2] == ("T0", "T1", "T2")
        assert pps.cells[1] == ("(v0,v1)", "(v0,v2)", "(v1,v2)")
        assert pps.cells[0] == ()

    def test_face_maps_match_projective_plane_data(self):
        # with r0 = (v0,v1), r1 = (v0,v2), r2 = (v1,v2): d_0 T0 = r2, d_2 T0 = r0,
        # d_0 T1 = r2, d_1 T1 = r1, d_1 T2 = r1, d_2 T2 = r0, nothing else
        pps = build_xd(TRIANGLE)
        assert named_faces(pps, 2) == {
            "T0": {"0": "(v1,v2)", "2": "(v0,v1)"},
            "T1": {"0": "(v1,v2)", "1": "(v0,v2)"},
            "T2": {"1": "(v0,v2)", "2": "(v0,v1)"},
        }
        assert named_faces(pps, 1) is None  # edge cells keep all faces undefined

    def test_homology_is_projective_plane(self):
        assert reduced_homology(build_xd(TRIANGLE)) == {1: AbelianGroup(0, (2,))}


class TestFigureEightGraph:
    def test_cells_match_worked_example(self):
        pps = build_xd(FIGURE_EIGHT_GRAPH)
        assert pps.top_dim == 3
        assert pps.cells[3] == ("T0", "T1", "T2")
        assert pps.cells[2] == (
            "(v0,v1,v2)",
            "(v0,v1,v3)",
            "(v0,v2,v3)",
            "(v1,v2,v3)",
        )
        assert pps.cells[1] == ("(v0,v1)",)
        assert pps.cells[0] == ()

    def test_the_ten_face_assignments(self):
        pps = build_xd(FIGURE_EIGHT_GRAPH)
        assert named_faces(pps, 3) == {
            "T0": {"0": "(v1,v2,v3)", "1": "(v0,v2,v3)"},
            "T1": {"1": "(v0,v2,v3)", "2": "(v0,v1,v3)", "3": "(v0,v1,v2)"},
            "T2": {"0": "(v1,v2,v3)", "2": "(v0,v1,v3)", "3": "(v0,v1,v2)"},
        }
        assert named_faces(pps, 2) == {
            "(v0,v1,v2)": {"2": "(v0,v1)"},
            "(v0,v1,v3)": {"2": "(v0,v1)"},
        }
        defined = [t for fmaps in pps.faces.values() for fmap in fmaps for t in fmap]
        assert sum(t is not None for t in defined) == 10

    def test_homology_is_suspended_projective_plane(self):
        assert reduced_homology(build_xd(FIGURE_EIGHT_GRAPH)) == {2: AbelianGroup(0, (2,))}


class TestParallelDipole:
    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5])
    def test_every_tuple_present_and_every_face_defined(self, c):
        g = StateGraph(vertices=("u", "w"), edges=(("u", "w"),) * c)
        pps = build_xd(g)
        assert pps.top_dim == c - 1
        assert len(pps.cells[c - 1]) == 2
        from math import comb

        for k in range(c - 1):
            assert len(pps.cells[k]) == comb(c, k + 1)
        assert not pps.is_proper()

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5])
    def test_homology_is_a_sphere(self, c):
        g = StateGraph(vertices=("u", "w"), edges=(("u", "w"),) * c)
        assert reduced_homology(build_xd(g)) == {c - 1: AbelianGroup(1)}


class TestDegenerateAndErrors:
    def test_zero_edges_gives_empty_set(self):
        pps = build_xd(StateGraph(vertices=("o",), edges=()))
        assert pps.top_dim == -1
        assert reduced_homology(pps) == {-1: AbelianGroup(1)}

    def test_loops_rejected(self):
        g = StateGraph(vertices=("a",), edges=(("a", "a"),))
        with pytest.raises(GraphError):
            build_xd(g)

    def test_disconnected_rejected(self):
        g = StateGraph(vertices=("a", "b", "c"), edges=(("a", "b"),))
        with pytest.raises(GraphError):
            build_xd(g)


class TestKhovanovDegree:
    def test_top_cells_carry_degree_c(self):
        for c in range(1, 8):
            assert khovanov_degree(c - 1, c) == c

    def test_codimension_one(self):
        for c in range(2, 8):
            assert khovanov_degree(c - 2, c) == c - 2

    def test_unknot_slot(self):
        assert khovanov_degree(-1, 0) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            khovanov_degree(3, 3)
        with pytest.raises(ValueError):
            khovanov_degree(-2, 3)


class TestStructuralCounts:
    def test_cell_counts_match_column_ranks(self, left_trefoil, figure_eight):
        for d in (left_trefoil, figure_eight):
            c = d.crossing_count
            g = build_state_graph(d, State.all_a(c))
            pps = build_xd(g)
            assert len(pps.cells[c - 1]) == len(g.vertices)
            assert len(pps.cells[c - 2]) == c

    def test_validate_passes_exhaustively_up_to_four_edges(self):
        count = 0
        for v, edges in connected_multigraphs(4):
            pps = build_xd(graph_from_edges(v, edges))
            assert validate_pps(pps) is None
            count += 1
        assert count > 20

    def test_graph_json_feeds_the_builder(self):
        # graph-level experiments: a JSON graph goes straight into the construction
        from almax.state_graph import graph_from_json_dict

        doc = {
            "vertices": ["T0", "T1", "T2"],
            "edges": [["T0", "T1"], ["T1", "T2"], ["T0", "T2"]],
        }
        pps = build_xd(graph_from_json_dict(doc))
        assert reduced_homology(pps) == {1: AbelianGroup(0, (2,))}


class TestSuspensionProperty:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_leaf_multiedge_suspends_homology(self, q):
        for base in (TRIANGLE, FIGURE_EIGHT_GRAPH):
            before = reduced_homology(build_xd(base))
            augmented = StateGraph(
                vertices=base.vertices + ("leaf",),
                edges=base.edges + ((base.vertices[0], "leaf"),) * q,
            )
            after = reduced_homology(build_xd(augmented))
            assert after == {k + q: g for k, g in before.items()}


def random_multigraph(rng):
    """A loopless connected multigraph: a random tree plus parallel and extra edges, shuffled."""
    v = rng.randint(1, 5)
    edges = [(rng.randrange(w), w) for w in range(1, v)]
    if v > 1:
        for _ in range(rng.randint(0, 9 - len(edges))):
            if rng.random() < 0.5:
                edges.append(rng.choice(edges))  # parallel to an existing edge
            else:
                edges.append(tuple(rng.sample(range(v), 2)))
    rng.shuffle(edges)
    return graph_from_edges(v, edges)


def assert_matches_oracle(graph):
    built, expected = build_xd(graph), xd_oracle(graph)
    assert built == expected
    for k in expected.cells:
        assert built.cells[k] == expected.cells[k]  # same order, not only same set
    assert pps_to_json(built) == pps_to_json(expected)


class TestAgainstSubsetFilterOracle:
    def test_corpus_graphs(self):
        for name, pd in CORPUS.items():
            d = parse_pd(pd)
            target = d if is_a_adequate(d) else mirror(d)
            assert_matches_oracle(build_state_graph(target, State.all_a(d.crossing_count)))

    def test_random_multigraphs(self):
        rng = random.Random(2018)
        for _ in range(60):
            assert_matches_oracle(random_multigraph(rng))

    def test_dipoles_skip_removing_every_edge(self):
        for c in range(1, 7):
            assert_matches_oracle(StateGraph(vertices=("u", "w"), edges=(("u", "w"),) * c))

    def test_exhaustive_up_to_four_edges(self):
        for v, edges in connected_multigraphs(4):
            assert_matches_oracle(graph_from_edges(v, edges))


class TestIntegerFaces:
    def test_ids_formatted_once_per_cell_and_validated_in_chain_complex(self, monkeypatch):
        calls = {"tuple_cell_id": 0, "validate_pps": 0}

        def counting(module, name):
            real = getattr(module, name)

            def spy(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, spy)

        counting(almax.xd, "tuple_cell_id")
        counting(almax.presimplicial, "validate_pps")
        c = 10
        pps = build_xd(build_state_graph(torus_two_strand(c), State.all_a(c)))
        below_top = sum(len(pps.cells[k]) for k in range(c - 1))
        assert below_top == 2**c - 2
        assert calls["tuple_cell_id"] == below_top
        assert reduced_homology(pps) == {c - 1: AbelianGroup(1)}
        assert calls["validate_pps"] == 1
