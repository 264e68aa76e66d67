import pytest

from almax.homology import AbelianGroup, homology, nonzero_groups
from almax.homotopy import HomotopyType, homotopy_type
from almax.presimplicial import chain_complex
from almax.report import analyze_diagram
from almax.state_graph import GraphError, StateGraph
from almax.xd import build_xd

TRIANGLE = StateGraph(
    vertices=("T0", "T1", "T2"),
    edges=(("T0", "T1"), ("T1", "T2"), ("T0", "T2")),
)
DIPOLE3 = StateGraph(vertices=("u", "w"), edges=(("u", "w"),) * 3)
FIGURE_EIGHT_GRAPH = StateGraph(
    vertices=("T0", "T1", "T2"),
    edges=(("T0", "T2"), ("T0", "T1"), ("T1", "T2"), ("T1", "T2")),
)
SINGLE_VERTEX = StateGraph(vertices=("o",), edges=())


class TestHomotopyType:
    def test_triangle_is_projective_plane(self):
        t = homotopy_type(TRIANGLE)
        assert t == HomotopyType(spheres=(), rp2_suspensions=0)
        assert t.render() == "RP^2"

    def test_three_parallel_edges_give_a_two_sphere(self):
        t = homotopy_type(DIPOLE3)
        assert t == HomotopyType(spheres=(2,))
        assert t.render() == "S^2"

    def test_figure_eight_graph_gives_suspended_projective_plane(self):
        t = homotopy_type(FIGURE_EIGHT_GRAPH)
        assert t == HomotopyType(spheres=(), rp2_suspensions=1)
        assert t.render() == "susp^1(RP^2)"

    def test_unknot_graph_gives_minus_one_sphere(self):
        assert homotopy_type(SINGLE_VERTEX) == HomotopyType(spheres=(-1,))

    def test_trees_give_spheres(self):
        path = StateGraph(vertices=("a", "b", "c"), edges=(("a", "b"), ("b", "c")))
        assert homotopy_type(path) == HomotopyType(spheres=(1,))

    def test_bipartite_with_cycles(self):
        square = StateGraph(
            vertices=("a", "b", "c", "d"),
            edges=(("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")),
        )
        assert homotopy_type(square) == HomotopyType(spheres=(2, 3))

    def test_loops_rejected(self):
        with pytest.raises(GraphError):
            homotopy_type(StateGraph(vertices=("a",), edges=(("a", "a"),)))

    def test_render_multiplicities(self):
        t = HomotopyType(spheres=(2, 2, 3), rp2_suspensions=1)
        assert t.render() == "vee(2 x S^2) ∨ S^3 ∨ susp^1(RP^2)"
        assert HomotopyType().render() == "pt"


class TestReducedHomology:
    def test_projective_plane(self):
        assert HomotopyType(rp2_suspensions=0).reduced_homology() == {
            1: AbelianGroup(0, (2,))
        }

    def test_wedge_shares_degrees(self):
        t = HomotopyType(spheres=(2, 2), rp2_suspensions=1)
        assert t.reduced_homology() == {2: AbelianGroup(2, (2,))}

    def test_minus_one_sphere(self):
        assert HomotopyType(spheres=(-1,)).reduced_homology() == {-1: AbelianGroup(1)}


class TestPredictedHomology:
    """The formula's groups by realization degree, and where the report places them.

    Each graph is the all-A state graph of the diagram named in the test.
    """

    def test_left_trefoil_prediction(self, left_trefoil):
        assert homotopy_type(TRIANGLE).reduced_homology() == {1: AbelianGroup(0, (2,))}
        table = analyze_diagram(left_trefoil).tables["formula"]
        assert table == {(1, 5): AbelianGroup(0, (2,))}

    def test_right_trefoil_prediction(self, right_trefoil):
        assert homotopy_type(DIPOLE3).reduced_homology() == {2: AbelianGroup(1)}
        table = analyze_diagram(right_trefoil).tables["formula"]
        assert table == {(3, 3): AbelianGroup(1)}

    def test_figure_eight_prediction(self, figure_eight):
        assert homotopy_type(FIGURE_EIGHT_GRAPH).reduced_homology() == {2: AbelianGroup(0, (2,))}
        table = analyze_diagram(figure_eight).tables["formula"]
        assert table == {(2, 6): AbelianGroup(0, (2,))}

    def test_free_rank_and_torsion_budget(self):
        # bipartite: total free rank p1 + 1 and no torsion;
        # odd cycle: free rank p1 - 1 and exactly one Z/2
        from almax.state_graph import cyclomatic_number, is_bipartite, simple_reduction

        for graph in (TRIANGLE, DIPOLE3, FIGURE_EIGHT_GRAPH, SINGLE_VERTEX):
            t = homotopy_type(graph)
            groups = t.reduced_homology().values()
            free = sum(g.free_rank for g in groups)
            torsion = [f for g in groups for f in g.torsion]
            p1 = cyclomatic_number(simple_reduction(graph))
            if is_bipartite(graph):
                assert free == p1 + 1 and torsion == []
            else:
                assert free == p1 - 1 and torsion == [2]


class TestSuspend:
    def test_leaf_multiedge_matches_suspension(self):
        # q-fold suspension raises every sphere and the RP^2 suspension count by q
        for base in (TRIANGLE, DIPOLE3, FIGURE_EIGHT_GRAPH):
            t = homotopy_type(base)
            for q in (1, 2, 3):
                augmented = StateGraph(
                    vertices=base.vertices + ("leaf",),
                    edges=base.edges + ((base.vertices[0], "leaf"),) * q,
                )
                suspended = HomotopyType(
                    spheres=tuple(d + q for d in t.spheres),
                    rp2_suspensions=None if t.rp2_suspensions is None else t.rp2_suspensions + q,
                )
                assert homotopy_type(augmented) == suspended


class TestAgainstCellular:
    def test_formula_matches_chain_level_on_fixtures(self):
        for graph in (TRIANGLE, DIPOLE3, FIGURE_EIGHT_GRAPH, SINGLE_VERTEX):
            cellular = nonzero_groups(homology(chain_complex(build_xd(graph), reduced=True)))
            assert homotopy_type(graph).reduced_homology() == cellular
