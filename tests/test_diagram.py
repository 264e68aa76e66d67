import itertools
import json
import random

import pytest

from almax import diagram as diagram_module
from almax.diagram import (
    ArcOccurrenceError,
    Diagram,
    DiagramError,
    DisconnectedDiagramError,
    NonPlanarDiagramError,
    PDSyntaxError,
    State,
    add_positive_kink,
    check_planar,
    diagram_from_json_dict,
    diagram_to_json_dict,
    mirror,
    parse_pd,
    resolve,
    to_pd_text,
)
from almax.state_graph import build_state_graph
from helpers import face_count, random_pd_codes, trace_circle_count

from conftest import CORPUS, LEFT_TREFOIL


def all_states(c):
    for labels in itertools.product("AB", repeat=c):
        yield State(tuple(labels))


class TestParse:
    def test_unknot(self):
        d = parse_pd("UNKNOT")
        assert d.crossing_count == 0
        assert d.free_loops == 1

    def test_left_trefoil(self, left_trefoil):
        assert left_trefoil.crossing_count == 3
        assert left_trefoil.arc_ids() == (1, 2, 3, 4, 5, 6)

    def test_whitespace_tolerated(self):
        d = parse_pd("  X( 1 ,4, 2,5) ; X(3,6,4,1);X(5,2,6,3) ")
        assert d == parse_pd(LEFT_TREFOIL)

    def test_malformed_token(self):
        with pytest.raises(PDSyntaxError):
            parse_pd("X(1,4,2)")
        with pytest.raises(PDSyntaxError):
            parse_pd("Y(1,4,2,5)")
        with pytest.raises(PDSyntaxError):
            parse_pd("")

    def test_arc_occurring_once_rejected(self):
        with pytest.raises(ArcOccurrenceError):
            parse_pd("X(1,2,3,4);X(4,3,2,5)")

    def test_arc_occurring_thrice_rejected(self):
        with pytest.raises(ArcOccurrenceError):
            parse_pd("X(1,1,1,2);X(2,3,3,4)")

    def test_repeated_quadruple_is_a_valid_two_crossing_diagram(self):
        # every arc occurs once per crossing, so the occurrence count passes,
        # and the two crossings share arcs, so connectivity passes
        d = parse_pd("X(1,2,3,4);X(1,2,3,4)")
        assert d.crossing_count == 2
        res = resolve(d, State.all_a(2))
        assert res.circle_count == 2

    def test_disconnected_rejected(self):
        # two disjoint kinks
        with pytest.raises(DisconnectedDiagramError):
            parse_pd("X(1,1,2,2);X(3,3,4,4)")

    def test_free_loop_rules(self):
        with pytest.raises(DiagramError):
            Diagram((), free_loops=0)
        with pytest.raises(DiagramError):
            Diagram(((1, 1, 2, 2),), free_loops=1)


class TestSerialization:
    def test_pd_text_round_trip(self, corpus):
        for d in corpus.values():
            assert parse_pd(to_pd_text(d)) == d
        assert to_pd_text(parse_pd("UNKNOT")) == "UNKNOT"

    def test_json_round_trip(self, corpus):
        for d in corpus.values():
            doc = diagram_to_json_dict(d)
            assert diagram_from_json_dict(doc) == d
            assert json.dumps(diagram_to_json_dict(diagram_from_json_dict(doc))) == json.dumps(doc)

    def test_json_unknot(self):
        doc = {"crossings": [], "free_loops": 1}
        assert diagram_from_json_dict(doc).crossing_count == 0


class TestResolve:
    def test_left_trefoil_all_a_has_three_circles(self, left_trefoil):
        assert resolve(left_trefoil, State.all_a(3)).circle_count == 3

    def test_left_trefoil_all_b_has_two_circles(self, left_trefoil):
        assert resolve(left_trefoil, State.all_b(3)).circle_count == 2

    def test_unknot(self, unknot):
        res = resolve(unknot, State(()))
        assert res.circle_count == 1
        assert res.end_circle == {}  # no crossing, so no chord

    def test_chord_count_and_circle_bounds(self, corpus):
        for d in corpus.values():
            c = d.crossing_count
            for _ in range(10):
                s = State(tuple(random.Random(c).choice("AB") for _ in range(c)))
                res = resolve(d, s)
                assert len(build_state_graph(d, s).edges) == c
                assert 1 <= res.circle_count <= c + 1

    def test_against_permutation_cycle_oracle(self, corpus):
        for d in corpus.values():
            c = d.crossing_count
            states = list(all_states(c)) if c <= 6 else [
                State(tuple(random.Random(seed).choice("AB") for _ in range(c)))
                for seed in range(40)
            ]
            for s in states:
                assert resolve(d, s).circle_count == trace_circle_count(d, s)

    def test_single_flip_changes_circle_count_by_one(self, corpus):
        for d in corpus.values():
            c = d.crossing_count
            if c == 0:
                continue
            rng = random.Random(7)
            for _ in range(12):
                s = State(tuple(rng.choice("AB") for _ in range(c)))
                n = resolve(d, s).circle_count
                x = rng.randrange(c)
                assert abs(resolve(d, s.flip(x)).circle_count - n) == 1

    def test_state_size_mismatch(self, left_trefoil):
        with pytest.raises(DiagramError):
            resolve(left_trefoil, State.all_a(2))

    def test_canonical_circle_names_are_least_ends(self, left_trefoil):
        res = resolve(left_trefoil, State.all_a(3))
        for name in res.circles:
            members = [e for e, circ in res.end_circle.items() if circ == name]
            assert min(members) == name


class TestPlanarity:
    def test_every_corpus_entry_is_planar(self):
        for name, pd in CORPUS.items():
            d = parse_pd(pd)
            assert face_count(d) == d.crossing_count + 2, name

    def test_face_count_flags_a_virtual_hopf_code(self):
        # this two-crossing code closes up on a torus: two faces, not four
        assert face_count(parse_pd("X(1,3,2,4);X(2,4,1,3)")) == 2

    def test_mirror_and_kinks_stay_planar(self, left_trefoil):
        kinked = add_positive_kink(add_positive_kink(left_trefoil, 1), 4)
        for d in (mirror(left_trefoil), kinked, mirror(kinked)):
            assert face_count(d) == d.crossing_count + 2

    def test_library_check_matches_face_count_oracle(self, corpus, unknot):
        codes = list(corpus.values()) + [unknot] + random_pd_codes(200, seed=5)
        non_planar = 0
        for d in codes:
            faces = face_count(d)
            assert diagram_module._face_count(d) == faces, to_pd_text(d)
            if faces == d.crossing_count + 2:
                check_planar(d)
            else:
                non_planar += 1
                with pytest.raises(NonPlanarDiagramError) as err:
                    check_planar(d)
                assert f"{faces} faces" in str(err.value)
        assert non_planar == 139


class TestMirror:
    def test_double_mirror_restores_resolutions(self, corpus):
        for d in corpus.values():
            c = d.crossing_count
            dd = mirror(mirror(d))
            for s in itertools.islice(all_states(c), 16):
                assert resolve(dd, s).circle_count == resolve(d, s).circle_count

    def test_mirror_swaps_states(self, corpus):
        for d in corpus.values():
            c = d.crossing_count
            m = mirror(d)
            for s in itertools.islice(all_states(c), 16):
                assert resolve(m, s).circle_count == resolve(d, s.swapped()).circle_count

    def test_mirror_trefoil_all_a(self, left_trefoil):
        assert resolve(mirror(left_trefoil), State.all_a(3)).circle_count == 2

    def test_mirror_unknot(self, unknot):
        assert mirror(unknot) == unknot


class TestPositiveKink:
    def test_adds_one_circle_for_every_arc(self, left_trefoil):
        base = resolve(left_trefoil, State.all_a(3)).circle_count
        for arc in left_trefoil.arc_ids():
            kinked = add_positive_kink(left_trefoil, arc)
            assert kinked.crossing_count == 4
            assert resolve(kinked, State.all_a(4)).circle_count == base + 1

    def test_unknown_arc(self, left_trefoil):
        with pytest.raises(DiagramError):
            add_positive_kink(left_trefoil, 99)

    def test_kink_crossing_shape(self, left_trefoil):
        kinked = add_positive_kink(left_trefoil, 1)
        last = kinked.crossings[-1]
        assert last[2] == last[3]  # the fresh loop arc fills slots 2 and 3
