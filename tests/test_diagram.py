import itertools
import json
import random
import re

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
from helpers import arc_partner, face_count, random_pd_codes, trace_circle_count

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

    @pytest.mark.parametrize("zero", [0x0660, 0xFF10])
    def test_non_ascii_digits_rejected(self, zero):
        # Arabic-Indic and full-width digits: int() reads them, the PD grammar does not
        code = LEFT_TREFOIL.translate({ord("0") + i: zero + i for i in range(10)})
        assert code != LEFT_TREFOIL
        with pytest.raises(PDSyntaxError):
            parse_pd(code)

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
        circles, _ = resolve(d, State.all_a(2))
        assert len(circles) == 2

    def test_disconnected_rejected(self):
        # two disjoint kinks
        with pytest.raises(DisconnectedDiagramError):
            parse_pd("X(1,1,2,2);X(3,3,4,4)")

    def test_free_loop_rules(self):
        with pytest.raises(DiagramError):
            Diagram((), free_loops=0)
        with pytest.raises(DiagramError):
            Diagram(((1, 1, 2, 2),), free_loops=1)

    @pytest.mark.parametrize(
        "crossings, free_loops, value",
        [
            (((1.7, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)), 0, "1.7"),
            (((True, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)), 0, "True"),
            ((("1", 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)), 0, "'1'"),
            (((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)), False, "False"),
            ((), True, "True"),
            ((), 1.0, "1.0"),
            ((), "1", "'1'"),
        ],
    )
    def test_arc_ids_and_free_loops_must_be_integers(self, crossings, free_loops, value):
        # int() would truncate 1.7 to the left trefoil's arc 1 and read True as 1
        with pytest.raises(DiagramError, match=r"must be an integer, got " + re.escape(value)):
            Diagram(crossings, free_loops=free_loops)

    def test_errors_name_the_first_offender(self):
        with pytest.raises(ArcOccurrenceError, match=r"^arc 1 occurs 1 time\(s\); every arc"):
            parse_pd("X(1,2,3,4);X(4,3,2,5)")
        with pytest.raises(DisconnectedDiagramError) as err:
            parse_pd("X(1,1,2,2);X(3,4,4,3);X(5,5,6,6)")
        assert str(err.value) == (
            "diagram is disconnected (crossings [1, 2] unreachable from crossing 0)"
        )

    def test_arc_pairing_is_stored_once_and_kept_private(self, corpus):
        for d in corpus.values():
            oracle = arc_partner(d)
            assert [divmod(e, 4) for e in d._partner] == [
                oracle[divmod(e, 4)] for e in range(4 * d.crossing_count)
            ]
            twin = Diagram(d.crossings)
            assert twin == d and hash(twin) == hash(d)
            assert "_partner" not in repr(d)


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

    def test_json_unknown_key_rejected(self):
        # a misspelt "free_loops" must not silently fall back to the default
        with pytest.raises(PDSyntaxError, match=r"unknown keys in diagram JSON: \['free_loop'\]"):
            diagram_from_json_dict({"crossings": [], "free_loop": 2})


class TestResolve:
    def test_left_trefoil_all_a_has_three_circles(self, left_trefoil):
        assert len(resolve(left_trefoil, State.all_a(3))[0]) == 3

    def test_left_trefoil_all_b_has_two_circles(self, left_trefoil):
        assert len(resolve(left_trefoil, State(("B",) * 3))[0]) == 2

    def test_unknot(self, unknot):
        circles, end_circle = resolve(unknot, State(()))
        assert circles == (0,)  # the unknot's one circle is named 0
        assert end_circle == []  # no crossing, so no arc end

    def test_chord_count_and_circle_bounds(self, corpus):
        for d in corpus.values():
            c = d.crossing_count
            for _ in range(10):
                s = State(tuple(random.Random(c).choice("AB") for _ in range(c)))
                circles, _ = resolve(d, s)
                assert len(build_state_graph(d, s).edges) == c
                assert 1 <= len(circles) <= c + 1

    def test_against_permutation_cycle_oracle(self, corpus):
        for d in corpus.values():
            c = d.crossing_count
            states = list(all_states(c)) if c <= 6 else [
                State(tuple(random.Random(seed).choice("AB") for _ in range(c)))
                for seed in range(40)
            ]
            for s in states:
                assert len(resolve(d, s)[0]) == trace_circle_count(d, s)

    def test_single_flip_changes_circle_count_by_one(self, corpus):
        for d in corpus.values():
            c = d.crossing_count
            if c == 0:
                continue
            rng = random.Random(7)
            for _ in range(12):
                s = State(tuple(rng.choice("AB") for _ in range(c)))
                n = len(resolve(d, s)[0])
                x = rng.randrange(c)
                flipped = s.labels[:x] + ("B" if s.labels[x] == "A" else "A",) + s.labels[x + 1:]
                assert abs(len(resolve(d, State(flipped))[0]) - n) == 1

    def test_state_size_mismatch(self, left_trefoil):
        with pytest.raises(DiagramError):
            resolve(left_trefoil, State.all_a(2))

    def test_canonical_circle_names_are_least_ends(self, left_trefoil):
        circles, end_circle = resolve(left_trefoil, State.all_a(3))
        for name in circles:
            members = [e for e, circ in enumerate(end_circle) if circ == name]
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
                assert len(resolve(dd, s)[0]) == len(resolve(d, s)[0])

    def test_mirror_swaps_states(self, corpus):
        for d in corpus.values():
            c = d.crossing_count
            m = mirror(d)
            for s in itertools.islice(all_states(c), 16):
                swapped = State(tuple("B" if label == "A" else "A" for label in s.labels))
                assert len(resolve(m, s)[0]) == len(resolve(d, swapped)[0])

    def test_mirror_trefoil_all_a(self, left_trefoil):
        assert len(resolve(mirror(left_trefoil), State.all_a(3))[0]) == 2

    def test_mirror_unknot(self, unknot):
        assert mirror(unknot) == unknot


class TestPositiveKink:
    def test_adds_one_circle_for_every_arc(self, left_trefoil):
        base = len(resolve(left_trefoil, State.all_a(3))[0])
        for arc in left_trefoil.arc_ids():
            kinked = add_positive_kink(left_trefoil, arc)
            assert kinked.crossing_count == 4
            assert len(resolve(kinked, State.all_a(4))[0]) == base + 1

    def test_unknown_arc(self, left_trefoil):
        with pytest.raises(DiagramError):
            add_positive_kink(left_trefoil, 99)

    def test_kink_crossing_shape(self, left_trefoil):
        kinked = add_positive_kink(left_trefoil, 1)
        last = kinked.crossings[-1]
        assert last[2] == last[3]  # the fresh loop arc fills slots 2 and 3
