"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic is exact, so every comparison is equality.  Run with
``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the PASS lines).
"""

import random

import pytest

from almax.diagram import State, add_positive_kink, parse_pd, reorder_crossings
from almax.homology import AbelianGroup, homology, nonzero_groups
from almax.homotopy import homotopy_type
from almax.khovanov import (
    build_column,
    column_homology,
    euler_polynomial,
    full_homology_table,
    generator_rank_table,
    kauffman_bracket,
    shift_table,
)
from almax.presimplicial import chain_complex, validate_pps
from almax.report import ROUTES, analyze_diagram
from almax.state_graph import StateGraph, build_state_graph, is_a_adequate, is_b_adequate
from almax.xd import build_xd

from conftest import B_ADEQUATE_ONLY
from helpers import connected_multigraphs, j_extremes

Z = AbelianGroup(1)
Z2 = AbelianGroup(0, (2,))
Z3_Z2 = AbelianGroup(3, (2,))


def three_routes(diagram):
    """The formula, cellular and direct tables of one ``analyze_diagram`` run."""
    tables = analyze_diagram(diagram).tables
    return tuple(tables[route] for route in ROUTES)


def test_criterion_1_reference_group_values(corpus):
    expected = {
        "right_trefoil": {(3, 3): Z},
        "left_trefoil": {(1, 5): Z2},
        "8_20": {(6, 12): Z2},
        "10_44": {(8, 20): Z3_Z2},
    }
    for name, groups in expected.items():
        for route in three_routes(corpus[name]):
            assert route == groups, (name, route)
    # the nonzero-only tables make every other (i, j_almax) slot zero, H_{3,5} included
    assert (3, 5) not in column_homology(corpus["left_trefoil"], 5)
    print("ACCEPTANCE 1 reference group values: PASS")


def test_criterion_2_three_route_cross_check_corpus(corpus):
    diagrams = dict(corpus)
    for name, d in corpus.items():
        arcs = d.arc_ids()
        if not arcs:
            continue
        diagrams[f"{name}+kink_first"] = add_positive_kink(d, arcs[0])
        diagrams[f"{name}+kink_last"] = add_positive_kink(d, arcs[-1])
    for name, d in diagrams.items():
        report = analyze_diagram(d)
        assert report.agreement, name
    print(f"ACCEPTANCE 2 three-route cross-check on {len(diagrams)} diagrams: PASS")


def test_criterion_3_exhaustive_graphs_up_to_five_edges():
    checked = 0
    for vertex_count, edges in connected_multigraphs(5):
        graph = StateGraph(vertices=tuple(range(vertex_count)), edges=edges)
        pps = build_xd(graph)
        assert validate_pps(pps) is None
        cellular = nonzero_groups(homology(chain_complex(pps, reduced=True)))
        assert cellular == homotopy_type(graph).reduced_homology(), (vertex_count, edges)
        checked += 1
    assert checked == 54
    print(f"ACCEPTANCE 3 exhaustive graph check ({checked} graphs): PASS")


def test_criterion_4_homotopy_type_fixtures():
    triangle = StateGraph(
        vertices=("T0", "T1", "T2"),
        edges=(("T0", "T1"), ("T1", "T2"), ("T0", "T2")),
    )
    dipole3 = StateGraph(vertices=("u", "w"), edges=(("u", "w"),) * 3)
    figure_eight = StateGraph(
        vertices=("T0", "T1", "T2"),
        edges=(("T0", "T2"), ("T0", "T1"), ("T1", "T2"), ("T1", "T2")),
    )
    assert homotopy_type(triangle).render() == "RP^2"
    assert homotopy_type(dipole3).render() == "S^2"
    assert homotopy_type(figure_eight).render() == "susp^1(RP^2)"
    print("ACCEPTANCE 4 homotopy-type fixtures: PASS")


def test_criterion_5_extreme_column(corpus):
    for name, d in corpus.items():
        if not is_a_adequate(d):
            continue
        j_max, _ = j_extremes(d)
        assert column_homology(d, j_max) == {(d.crossing_count, j_max): Z}, name
    print("ACCEPTANCE 5 extreme column: PASS")


def test_criterion_6_reidemeister_one_shift(corpus, full_tables):
    rng = random.Random(2468)
    for name, d in corpus.items():
        arcs = d.arc_ids()
        if not arcs:
            continue
        shifted = shift_table(full_tables[name], 1, 3)
        for arc in rng.sample(arcs, k=min(3, len(arcs))):
            kinked = add_positive_kink(d, arc)
            assert full_homology_table(kinked)[0] == shifted, (name, arc)
    print("ACCEPTANCE 6 Reidemeister-I shift: PASS")


def test_criterion_7_suspension(corpus):
    for name, d in corpus.items():
        if not is_a_adequate(d):
            continue
        graph = build_state_graph(d, State.all_a(d.crossing_count))
        base = nonzero_groups(homology(chain_complex(build_xd(graph), reduced=True)))
        for q in (1, 2, 3):
            augmented = StateGraph(
                vertices=graph.vertices + ("leaf",),
                edges=graph.edges + ((graph.vertices[0], "leaf"),) * q,
            )
            lifted = nonzero_groups(
                homology(chain_complex(build_xd(augmented), reduced=True))
            )
            assert lifted == {k + q: g for k, g in base.items()}, (name, q)
    print("ACCEPTANCE 7 suspension of the cell structure: PASS")


def test_criterion_8_structural_properties(corpus, full_tables):
    rng = random.Random(1357)
    for name, d in corpus.items():
        c = d.crossing_count
        graph = build_state_graph(d, State.all_a(c))
        pps = build_xd(graph)
        assert validate_pps(pps) is None, name
        chain_complex(pps, reduced=True).check_composition()
        _, j_almax = j_extremes(d)
        build_column(d, j_almax).complex().check_composition()
        bracket = kauffman_bracket(d)
        assert euler_polynomial(generator_rank_table(d)) == bracket, name
        assert euler_polynomial(full_tables[name]) == bracket, name
        for seed in range(5):
            order = list(range(c))
            random.Random(seed * 31 + c).shuffle(order)
            assert full_homology_table(reorder_crossings(d, order))[0] == full_tables[name], (
                name,
                seed,
            )
    print("ACCEPTANCE 8 structural properties: PASS")


def test_criterion_9_degenerate_inputs(unknot):
    report = analyze_diagram(unknot)
    assert report.agreement
    assert report.tables["direct"] == {(0, -2): Z}
    assert report.homotopy.render() == "S^-1"

    b_only = parse_pd(B_ADEQUATE_ONLY)
    assert not is_a_adequate(b_only) and is_b_adequate(b_only)
    from almax.diagram import InadequateDiagramError

    with pytest.raises(InadequateDiagramError):
        analyze_diagram(b_only)
    mirrored = analyze_diagram(b_only, auto_mirror=True)
    assert mirrored.mirrored and mirrored.agreement
    assert mirrored.tables["direct"] == {(1, 1): Z}
    print("ACCEPTANCE 9 degenerate inputs: PASS")
