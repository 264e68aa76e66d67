import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from almax import diagram as diagram_module
from almax import cli as cli_module
from almax import khovanov, presimplicial, report as report_module, state_graph
from almax.cli import main
from almax.diagram import (
    Diagram,
    InadequateDiagramError,
    NonPlanarDiagramError,
    add_positive_kink,
    mirror,
    parse_pd,
    to_pd_text,
)
from almax.homology import AbelianGroup
from almax.presimplicial import pps_from_json
from almax.report import analyze_diagram, format_homology_table, render_polynomial

from conftest import (
    B_ADEQUATE_ONLY,
    CORPUS,
    FIGURE_EIGHT,
    KINK_ARCS_C40,
    KNOT_8_20,
    KNOT_10_44,
    LEFT_TREFOIL,
    RIGHT_TREFOIL,
)
from helpers import (
    MALFORMED_PPS,
    face_count,
    random_pd_codes,
    seeded_kinks,
    torus_two_strand,
    unsigned_flips,
)

DATA = Path(__file__).parent / "data"


def kinked(pd: str, arcs) -> Diagram:
    """The diagram of ``pd`` with a positive kink added on each arc of ``arcs`` in turn."""
    d = parse_pd(pd)
    for arc in arcs:
        d = add_positive_kink(d, arc)
    return d


def long_inline_code() -> str:
    """10_44 with 12 kinks (c = 22): a PD code too long to be a file name."""
    code = to_pd_text(kinked(KNOT_10_44, range(3, 15)))
    assert len(code) > 255
    return code


# label -> the analyze arguments before --format; each output is pinned in
# tests/data/analyze/<label>.txt and .json, graph names, p1, j values and
# the three tables included
PINNED_ANALYZE = {
    "unknot": ["UNKNOT"],
    "left_trefoil": [LEFT_TREFOIL],
    "10_44_kink": [to_pd_text(add_positive_kink(parse_pd(KNOT_10_44), 3))],
    "b_only_mirrored": [B_ADEQUATE_ONLY, "--auto-mirror"],
    # c = 40: the cut walk and the axiom check at scale, about 10 ms a run
    "10_44_30_kinks": [to_pd_text(kinked(KNOT_10_44, KINK_ARCS_C40))],
}


class TestAnalyzeDiagram:
    def test_left_trefoil(self, left_trefoil):
        report = analyze_diagram(left_trefoil)
        assert report.agreement
        assert report.tables["direct"] == {(1, 5): AbelianGroup(0, (2,))}
        assert report.homotopy.render() == "RP^2"
        assert not report.mirrored

    def test_right_trefoil(self, right_trefoil):
        report = analyze_diagram(right_trefoil)
        assert report.agreement
        assert report.tables["direct"] == {(3, 3): AbelianGroup(1)}
        assert report.homotopy.render() == "S^2"

    def test_unknot(self, unknot):
        report = analyze_diagram(unknot)
        assert report.agreement
        assert report.tables["direct"] == {(0, -2): AbelianGroup(1)}
        assert report.homotopy.render() == "S^-1"

    def test_one_op_resolves_two_states_and_builds_one_mirror(self, monkeypatch):
        # per op: the all-A states of the diagram and of its one mirror, and
        # one arc-occurrence map for each of those two diagrams (parsing
        # included); the direct route traces its mask 0 over its own step table
        calls = Counter()

        def counting(name, real):
            def spy(*args):
                calls[name] += 1
                return real(*args)
            return spy

        resolve_spy = counting("resolve", diagram_module.resolve)
        mirror_spy = counting("mirror", diagram_module.mirror)
        for module in (diagram_module, state_graph):
            monkeypatch.setattr(module, "resolve", resolve_spy)
        for module in (diagram_module, report_module, state_graph):
            monkeypatch.setattr(module, "mirror", mirror_spy)
        monkeypatch.setattr(
            diagram_module, "_arc_occurrences",
            counting("occurrences", diagram_module._arc_occurrences),
        )
        cases = [(pd, False) for pd in CORPUS.values()] + [("UNKNOT", False)]
        cases += [(pd, True) for pd in CORPUS.values()] + [(B_ADEQUATE_ONLY, True)]
        mirrored = 0
        for pd, auto_mirror in cases:
            if auto_mirror and pd != B_ADEQUATE_ONLY:
                pd = to_pd_text(diagram_module.mirror(parse_pd(pd)))
            calls.clear()
            report = analyze_diagram(parse_pd(pd), auto_mirror=auto_mirror)
            assert report.agreement, pd
            assert calls == {"resolve": 2, "mirror": 1, "occurrences": 2}, pd
            mirrored += report.mirrored
        assert mirrored >= 2  # the mirrored path is counted too

    def test_direct_column_is_reduced_before_the_cells_are_built(self, monkeypatch, corpus):
        # the direct route's working set is freed before build_xd starts, so
        # analyze's peak is the larger route's, not the two stacked
        events = []

        def spy(name, real):
            def wrapped(*args):
                events.append(f"{name} starts")
                out = real(*args)
                events.append(f"{name} returns")
                return out
            return wrapped

        for name in ("column_homology", "build_xd"):
            monkeypatch.setattr(report_module, name, spy(name, getattr(report_module, name)))
        for name, d in corpus.items():
            events.clear()
            assert analyze_diagram(d).agreement, name
            assert events == [
                "column_homology starts",
                "column_homology returns",
                "build_xd starts",
                "build_xd returns",
            ], name

    def test_whole_corpus_agrees(self, corpus):
        for name, d in corpus.items():
            report = analyze_diagram(d)
            assert report.agreement, name

    def test_b_only_rejected_without_auto_mirror(self):
        d = parse_pd(B_ADEQUATE_ONLY)
        with pytest.raises(InadequateDiagramError) as err:
            analyze_diagram(d)
        assert "B-adequate" in str(err.value)
        assert "crossings [0]" in str(err.value)

    def test_b_only_handled_with_auto_mirror(self):
        d = parse_pd(B_ADEQUATE_ONLY)
        report = analyze_diagram(d, auto_mirror=True)
        assert report.mirrored
        assert report.agreement
        # the mirror is the positive kink: shifted unknot groups
        assert report.tables["direct"] == {(1, 1): AbelianGroup(1)}

    def test_a_adequate_ignores_auto_mirror(self, left_trefoil):
        report = analyze_diagram(left_trefoil, auto_mirror=True)
        assert not report.mirrored

    def test_auto_mirror_on_mirrored_8_20(self, corpus):
        flipped = mirror(corpus["8_20"])
        with pytest.raises(InadequateDiagramError):
            analyze_diagram(flipped)
        report = analyze_diagram(flipped, auto_mirror=True)
        assert report.mirrored and report.agreement
        assert report.tables["direct"] == {(6, 12): AbelianGroup(0, (2,))}

    def test_not_semiadequate_rejected(self):
        # a positive and a negative kink on one circle: inadequate on both sides
        d = parse_pd("X(1,2,3,3);X(1,4,4,2)")
        with pytest.raises(InadequateDiagramError) as err:
            analyze_diagram(d)
        assert "not semiadequate" in str(err.value)

    def test_planar_rotation_systems_always_agree(self):
        # diagrams built from genus-0 rotation systems have G_A equal to the
        # input graph; every such input must pass the three-route cross-check
        import random

        from almax.diagram import State, resolve
        from helpers import connected_multigraphs, rotation_pd

        rng = random.Random(31415)
        checked = 0
        for v, edges in connected_multigraphs(4):
            if not edges:
                continue
            for _ in range(3):
                rotation = {u: [] for u in range(v)}
                for idx, (a, b) in enumerate(edges):
                    rotation[a].append(idx)
                    rotation[b].append(idx)
                for u in rotation:
                    rng.shuffle(rotation[u])
                d = rotation_pd(rotation)
                c = d.crossing_count
                genus_zero = (
                    len(resolve(d, State.all_a(c))[0])
                    + len(resolve(d, State(("B",) * c))[0])
                    == c + 2
                )
                if not genus_zero:
                    continue
                assert analyze_diagram(d).agreement, (v, edges, rotation)
                checked += 1
        assert checked >= 20

    def test_json_document(self, left_trefoil):
        doc = analyze_diagram(left_trefoil).to_json_dict()
        assert doc["agreement"] is True
        assert doc["crossings"] == 3
        assert doc["p1"] == 1
        assert doc["bipartite"] is False
        assert doc["j_max"] == 9 and doc["j_almax"] == 5
        assert doc["homology"]["formula"] == {"1,5": "Z/2"}
        assert doc["homology"]["cellular"] == doc["homology"]["direct"]
        assert json.dumps(doc)  # serializable


def non_planar_codes():
    """The 139 non-planar codes among ``random_pd_codes(200, seed=5)``."""
    codes = [d for d in random_pd_codes(200, seed=5) if face_count(d) != d.crossing_count + 2]
    assert len(codes) == 139
    return codes


class TestNonPlanar:
    def test_library_rejects_before_any_other_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work done on a non-planar code")

        for module in (diagram_module, state_graph):
            monkeypatch.setattr(module, "resolve", forbidden)
        monkeypatch.setattr(report_module, "build_state_graph", forbidden)
        monkeypatch.setattr(report_module, "mirror", forbidden)
        monkeypatch.setattr(khovanov, "_walk", forbidden)
        for d in non_planar_codes():
            for call in (
                lambda: analyze_diagram(d),
                lambda: analyze_diagram(d, auto_mirror=True),
                lambda: khovanov.full_homology_table(d, limit=0),  # before the size bound too
                lambda: khovanov.build_column(d, 0),
            ):
                with pytest.raises(NonPlanarDiagramError):
                    call()

    def test_cli_exits_2_with_one_error_line(self, capsys):
        # at the parent of this check, table raised a KeyError traceback on
        # 100 of these codes and analyze exited 3 (cross-check failure) on 5
        for d in non_planar_codes():
            pd = to_pd_text(d)
            for argv in (
                ["analyze", pd],
                ["analyze", pd, "--auto-mirror", "--format", "json"],
                ["table", pd],
                ["table", pd, "--format", "json", "--writhe", "0"],
            ):
                assert main(argv) == 2, argv
                captured = capsys.readouterr()
                assert captured.out == "", argv
                assert captured.err.startswith("error: PD code is not planar"), argv
                assert captured.err.count("\n") == 1, argv


class TestFormatTable:
    def test_grid(self):
        table = {(1, 5): AbelianGroup(0, (2,)), (3, 9): AbelianGroup(1)}
        text = format_homology_table(table)
        assert "j\\i" in text
        assert "Z/2" in text and "Z" in text

    def test_empty(self):
        assert format_homology_table({}) == "(empty table)"


class TestRenderPolynomial:
    def test_render(self):
        assert render_polynomial({9: -1, 1: 1, -3: 1, -7: 1}) == "-A^9 + A + A^-3 + A^-7"
        assert render_polynomial({0: 2, 2: -3}) == "-3*A^2 + 2"
        assert render_polynomial({}) == "0"

    def test_constant_term(self):
        assert render_polynomial({0: 1}) == "1"
        assert render_polynomial({0: -1}) == "-1"
        assert render_polynomial({2: 1, 0: -1}) == "A^2 - 1"
        assert render_polynomial({2: 1, 0: 1}) == "A^2 + 1"

    def test_linear_term(self):
        assert render_polynomial({1: 1}) == "A"
        assert render_polynomial({1: -1}) == "-A"
        assert render_polynomial({1: 2}) == "2*A"
        assert render_polynomial({1: -2}) == "-2*A"
        assert render_polynomial({3: 1, 1: -2}) == "A^3 - 2*A"

    def test_negative_leading_term_and_exponents(self):
        assert render_polynomial({-2: -1, -6: 1}) == "-A^-2 + A^-6"
        assert render_polynomial({-1: 3, -4: -2}) == "3*A^-1 - 2*A^-4"
        assert render_polynomial({2: -1, -2: -1}) == "-A^2 - A^-2"

    def test_terms_run_from_the_highest_exponent_and_skip_zeros(self):
        assert render_polynomial({-3: 1, 5: 1, 0: 4}) == "A^5 + 4 + A^-3"
        assert render_polynomial({4: 0, 1: -1, 0: 0}) == "-A"
        assert render_polynomial({3: 0}) == "0"


class TestCliAnalyze:
    def test_text_output(self, capsys):
        code = main(["analyze", LEFT_TREFOIL])
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement: yes" in out
        assert "RP^2" in out

    def test_json_output(self, capsys):
        code = main(["analyze", RIGHT_TREFOIL, "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["homology"]["direct"] == {"3,3": "Z"}

    def test_file_input(self, tmp_path, capsys):
        pd_file = tmp_path / "trefoil.pd"
        pd_file.write_text(LEFT_TREFOIL + "\n")
        assert main(["analyze", str(pd_file)]) == 0
        json_file = tmp_path / "trefoil.json"
        json_file.write_text(json.dumps({"crossings": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]], "free_loops": 0}))
        assert main(["analyze", str(json_file)]) == 0

    def test_dump_pps_round_trips(self, tmp_path, capsys):
        target = tmp_path / "xd.json"
        assert main(["analyze", LEFT_TREFOIL, "--dump-pps", str(target)]) == 0
        pps = pps_from_json(target.read_text())
        assert pps.top_dim == 2
        assert len(pps.cells[2]) == 3

    @pytest.mark.parametrize(
        "pd, pinned",
        [
            (LEFT_TREFOIL, "left_trefoil_cells.json"),
            (FIGURE_EIGHT, "figure_eight_cells.json"),
            (KNOT_8_20, "8_20_cells.json"),
        ],
    )
    def test_dump_pps_bytes_are_pinned(self, tmp_path, capsys, pd, pinned):
        target = tmp_path / "cells.json"
        assert main(["analyze", pd, "--dump-pps", str(target)]) == 0
        assert target.read_bytes() == (DATA / pinned).read_bytes()

    @pytest.mark.parametrize(
        "pd, pinned",
        [
            # A-adequate: --auto-mirror changes nothing
            (KNOT_8_20, "8_20_cells.json"),
            # only B-adequate: the file holds the cells of the mirror, which is 8_20
            (to_pd_text(mirror(parse_pd(KNOT_8_20))), "mirror_8_20_cells.json"),
        ],
    )
    def test_auto_mirror_dump_pps_bytes_are_pinned(self, tmp_path, capsys, pd, pinned):
        target = tmp_path / "cells.json"
        assert main(["analyze", pd, "--auto-mirror", "--dump-pps", str(target)]) == 0
        assert target.read_bytes() == (DATA / pinned).read_bytes()

    def test_cells_are_built_for_the_dump_only_and_not_kept(self, monkeypatch, tmp_path, capsys):
        built = []

        def spy(graph):
            built.append(real(graph))
            return built[-1]

        real = report_module.build_xd
        monkeypatch.setattr(report_module, "build_xd", spy)
        monkeypatch.setattr(cli_module, "build_xd", spy)
        assert main(["analyze", FIGURE_EIGHT]) == 0
        assert len(built) == 1
        assert main(["analyze", FIGURE_EIGHT, "--dump-pps", str(tmp_path / "cells.json")]) == 0
        assert len(built) == 3
        built.clear()
        report = analyze_diagram(parse_pd(FIGURE_EIGHT))
        assert report.agreement and len(built) == 1
        # once analyze_diagram returns, nothing but the spy's list holds the cells
        assert gc.get_referrers(built[0]) == [built]

    def test_empty_dump_path_is_one_error_line(self, capsys):
        assert main(["analyze", LEFT_TREFOIL, "--dump-pps", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --dump-pps needs a file name, got an empty one\n"

    def test_dumped_figure_eight_cells_feed_pps_homology(self, tmp_path, capsys):
        target = tmp_path / "fig8_cells.json"
        assert main(["analyze", FIGURE_EIGHT, "--format", "json", "--dump-pps", str(target)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main(["pps", "homology", str(target), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # the suspended projective plane: one Z/2 in degree 2
        assert doc["homology"] == {"2": "Z/2"}
        # placed at (2k - c + 2, j_almax), it is the report's cellular table
        c, j = report["crossings"], report["j_almax"]
        placed = {f"{2 * int(k) - c + 2},{j}": group for k, group in doc["homology"].items()}
        assert placed == report["homology"]["cellular"]

    def test_b_only_exit_codes(self, capsys):
        assert main(["analyze", B_ADEQUATE_ONLY]) == 2
        assert "B-adequate" in capsys.readouterr().err
        assert main(["analyze", B_ADEQUATE_ONLY, "--auto-mirror"]) == 0
        doc_run = main(["analyze", B_ADEQUATE_ONLY, "--auto-mirror", "--format", "json"])
        assert doc_run == 0

    def test_mirrored_report_flags(self, capsys):
        main(["analyze", B_ADEQUATE_ONLY, "--auto-mirror", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["mirrored"] is True
        assert "input_diagram" in doc

    def test_malformed_input_is_usage_error(self, capsys):
        assert main(["analyze", "X(1,2,3)"]) == 1

    @pytest.mark.parametrize("command", ["analyze", "table"])
    def test_non_ascii_digits_are_one_error_line(self, capsys, command):
        full_width = LEFT_TREFOIL.translate({ord(d): ord(d) + 0xFEE0 for d in "0123456789"})
        assert main([command, full_width]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_long_inline_code_is_read_as_pd_text(self, capsys):
        assert main(["analyze", long_inline_code(), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["crossings"] == 22
        assert doc["agreement"] is True

    def test_other_os_errors_stay_usage_errors(self, monkeypatch, capsys):
        def denied(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(Path, "is_file", denied)
        assert main(["analyze", LEFT_TREFOIL]) == 1
        assert "Permission denied" in capsys.readouterr().err

    def test_past_64_crossings_the_routes_agree(self, capsys):
        # c = 65: the direct route's end maps no longer fit in bytes
        code = to_pd_text(seeded_kinks(parse_pd(KNOT_10_44), 55, seed=1))
        assert main(["analyze", code, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["crossings"] == 65 and doc["agreement"] is True
        routes = doc["homology"]
        assert routes["formula"] == routes["cellular"] == routes["direct"] != {}

    def test_disconnected_input_exit_code(self, capsys):
        assert main(["analyze", "X(1,1,2,2);X(3,3,4,4)"]) == 2

    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    @pytest.mark.parametrize("name", PINNED_ANALYZE)
    def test_analyze_output_bytes_are_pinned(self, capsys, name, fmt, suffix):
        argv = ["analyze", *PINNED_ANALYZE[name], "--format", fmt]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.encode() == (DATA / "analyze" / f"{name}.{suffix}").read_bytes()

    def test_cross_check_failure_exit_code(self, monkeypatch, capsys, left_trefoil):
        import almax.cli as cli_module

        real = analyze_diagram(left_trefoil)
        real.tables["direct"] = {(1, 5): AbelianGroup(1)}
        monkeypatch.setattr(cli_module, "analyze_diagram", lambda *a, **k: real)
        assert main(["analyze", LEFT_TREFOIL]) == 3
        assert "NO" in capsys.readouterr().out

    def test_disagreement_keys_are_named(self, monkeypatch, capsys, left_trefoil):
        assert "disagreements" not in analyze_diagram(left_trefoil).to_json_dict()
        real = analyze_diagram(left_trefoil)
        real.tables["cellular"] = {(1, 5): AbelianGroup(0, (2,)), (3, 5): AbelianGroup(1)}
        real.tables["direct"] = {(1, 5): AbelianGroup(1)}
        monkeypatch.setattr(cli_module, "analyze_diagram", lambda *a, **k: real)
        assert real.disagreements == [(1, 5), (3, 5)]
        assert main(["analyze", LEFT_TREFOIL]) == 3
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "agreement: NO - routes differ at (1,5), (3,5)"
        assert main(["analyze", LEFT_TREFOIL, "--format", "json"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["agreement"] is False
        assert doc["disagreements"] == ["1,5", "3,5"]


# label -> (inline diagram JSON, the value its error message must name)
NON_INTEGER_DIAGRAM_JSON = {
    "float-arc-id": ('{"crossings": [[1.7,4,2,5],[3,6,4,1],[5,2,6,3]]}', "1.7"),
    "boolean-arc-id": ('{"crossings": [[true,4,2,5],[3,6,4,1],[5,2,6,3]]}', "True"),
    "string-arc-id": ('{"crossings": [["1",4,2,5],[3,6,4,1],[5,2,6,3]]}', "'1'"),
    "float-free-loops": ('{"crossings": [], "free_loops": 1.9}', "1.9"),
}


@pytest.mark.parametrize("command", ["analyze", "table"])
@pytest.mark.parametrize("doc, value", NON_INTEGER_DIAGRAM_JSON.values(), ids=NON_INTEGER_DIAGRAM_JSON)
def test_non_integer_diagram_json_is_one_error_line(capsys, command, doc, value):
    assert main([command, doc]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and value in line


@pytest.mark.parametrize("command", ["analyze", "table"])
def test_unknown_diagram_json_key_is_one_error_line(capsys, command):
    # a misspelt "free_loops" would otherwise run the unknot
    assert main([command, '{"crossings": [], "free_loop": 2}']) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown keys in diagram JSON: ['free_loop']\n"


@pytest.mark.parametrize(
    "argv", [["table", LEFT_TREFOIL], ["analyze", FIGURE_EIGHT]], ids=["table", "analyze"]
)
def test_boundaries_that_do_not_compose_to_zero_exit_3(monkeypatch, capsys, argv):
    # dropping the incidence signs breaks d∘d = 0 in the enhanced-state complex;
    # the flip data is what both the boundaries and the table's square check read
    real = khovanov._mask_flips
    monkeypatch.setattr(khovanov, "_mask_flips", lambda *args: unsigned_flips(real(*args)))
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: boundary composition at degree ")
    assert line.endswith(" is non-zero")


# label -> PD code; the table text and JSON of each are pinned in
# tests/data/table/<label>.txt and .json
PINNED_TABLE = {"10_44": KNOT_10_44, "t_2_9": to_pd_text(torus_two_strand(9))}


class TestCliTable:
    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    @pytest.mark.parametrize("name", PINNED_TABLE)
    def test_table_output_bytes_are_pinned(self, capsys, name, fmt, suffix):
        assert main(["table", PINNED_TABLE[name], "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.encode() == (DATA / "table" / f"{name}.{suffix}").read_bytes()

    def test_text_table(self, capsys):
        assert main(["table", LEFT_TREFOIL]) == 0
        out = capsys.readouterr().out
        assert "euler identity: ok" in out
        assert "kauffman bracket: -A^9 + A + A^-3 + A^-7" in out

    def test_json_table_with_writhe(self, capsys):
        assert main(["table", LEFT_TREFOIL, "--format", "json", "--writhe", "-3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["euler_identity"] is True
        assert doc["homology"]["1,5"] == "Z/2"
        # left trefoil with writhe -3 is the usual oriented table position
        assert doc["oriented_homology"]["-2,-7"] == "Z/2"

    def test_size_bound_flag(self, capsys):
        assert main(["table", KNOT_8_20, "--max-c", "7"]) == 1
        assert main(["table", KNOT_8_20, "--max-c", "8"]) == 0

    def test_size_bound_env(self, monkeypatch, capsys):
        monkeypatch.setenv("ALMAX_MAX_C", "2")
        assert main(["table", LEFT_TREFOIL]) == 1
        monkeypatch.setenv("ALMAX_MAX_C", "3")
        assert main(["table", LEFT_TREFOIL]) == 0

    def test_negative_size_bound_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["table", "UNKNOT", "--max-c", "-1"])
        assert exit_.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "almax table: error: argument --max-c: must be a non-negative integer, got -1"
        )
        assert main(["table", "UNKNOT", "--max-c", "0"]) == 0

    def test_negative_size_bound_env_falls_back_to_the_default(self, monkeypatch, capsys):
        # with the default lowered to 3, the trefoil fits and 8_20 does not,
        # so the bound that ran is the default, not -1
        monkeypatch.setattr(cli_module, "DEFAULT_TABLE_LIMIT", 3)
        monkeypatch.setenv("ALMAX_MAX_C", "-1")
        assert main(["table", LEFT_TREFOIL]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: ignoring negative ALMAX_MAX_C='-1'\n"
        assert main(["table", KNOT_8_20]) == 1
        assert "table mode is capped at 3" in capsys.readouterr().err

    def test_bad_writhe_parity(self, capsys):
        assert main(["table", LEFT_TREFOIL, "--writhe", "2"]) == 1

    def test_bad_writhe_parity_fails_before_the_cube_walk(self, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("the cube was walked")

        monkeypatch.setattr(khovanov, "_walk", forbidden)
        t211 = to_pd_text(torus_two_strand(11))
        assert main(["table", t211, "--writhe", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: parity violation: writhe 2 and crossing count 11")
        assert captured.err.count("\n") == 1
        # the planarity check and the size bound still come first
        assert main(["table", t211, "--writhe", "2", "--max-c", "10"]) == 1
        assert "table mode is capped at 10" in capsys.readouterr().err
        d = non_planar_codes()[0]
        writhe = d.crossing_count + 1
        assert main(["table", to_pd_text(d), "--writhe", str(writhe)]) == 2
        assert capsys.readouterr().err.startswith("error: PD code is not planar")

    def test_long_inline_code_reaches_the_size_bound(self, capsys):
        assert main(["table", long_inline_code()]) == 1
        err = capsys.readouterr().err
        assert "table mode is capped at 14" in err
        assert "Errno" not in err

    def test_size_bound_names_the_true_state_counts(self, capsys):
        assert main(["table", KNOT_8_20, "--max-c", "7"]) == 1
        assert capsys.readouterr().err == (
            "error: diagram has 8 crossings, table mode is capped at 7 (it resolves all 2^c "
            "Kauffman states and reduces every enhanced state on them, 3^c + 3 for T(2,c)); "
            "raise the bound explicitly to proceed\n"
        )

    def test_malformed_pd_file_is_one_short_error_line(self, tmp_path, capsys):
        # not JSON (it does not start with "{"), so it is read as one PD token
        path = tmp_path / "brackets.pd"
        path.write_text("[" * 200_000)
        assert main(["table", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == "error: malformed PD token '" + "[" * 38 + "'... (200000 characters)"
        assert len(line) < 200

    def test_deeply_nested_json_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"crossings": ' + "[" * 200_000)
        assert main(["table", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: diagram JSON is not valid JSON")


class TestCliPps:
    @pytest.fixture
    def projective_file(self, tmp_path):
        doc = {
            "top_dim": 2,
            "cells": {"0": [], "1": ["r0", "r1", "r2"], "2": ["T0", "T1", "T2"]},
            "faces": {
                "2": {
                    "T0": {"0": "r2", "2": "r0"},
                    "T1": {"0": "r2", "1": "r1"},
                    "T2": {"1": "r1", "2": "r0"},
                }
            },
        }
        path = tmp_path / "rp2.json"
        path.write_text(json.dumps(doc))
        return path

    def test_validate_ok(self, projective_file, capsys):
        assert main(["pps", "validate", str(projective_file)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_homology(self, projective_file, capsys):
        assert main(["pps", "homology", str(projective_file)]) == 0
        assert "H_1 = Z/2" in capsys.readouterr().out

    def test_homology_json(self, projective_file, capsys):
        assert main(["pps", "homology", str(projective_file), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"reduced": True, "homology": {"1": "Z/2"}}

    def test_unreduced_flag(self, projective_file, capsys):
        # the realization has a basepoint, whose Z the unreduced homology keeps
        argv = ["pps", "homology", str(projective_file), "--unreduced"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "H_1 = Z/2\nH_0 = Z\n"
        assert main([*argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"reduced": False, "homology": {"0": "Z", "1": "Z/2"}}

    def test_axiom_violation_reported(self, tmp_path, capsys):
        doc = {
            "top_dim": 2,
            "cells": {"0": ["v0", "v1", "v2"], "1": ["e01", "e02", "e12"], "2": ["T"]},
            "faces": {
                "1": {
                    "e01": {"0": "v1", "1": "v0"},
                    "e02": {"0": "v2", "1": "v0"},
                    "e12": {"0": "v2", "1": "v1"},
                },
                "2": {"T": {"0": "e01", "1": "e02", "2": "e01"}},
            },
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["pps", "validate", str(path)]) == 2
        assert "INVALID" in capsys.readouterr().out
        assert main(["pps", "validate", str(path), "--format", "json"]) == 2
        witness = {"dimension": 2, "cell": "T", "i": 0, "j": 1, "left": "v2", "right": "v1"}
        assert capsys.readouterr().out == (
            json.dumps({"valid": False, "violation": witness}, indent=2) + "\n"
        )
        assert main(["pps", "homology", str(path)]) == 2
        assert capsys.readouterr() == (
            "",
            "INVALID: cell 'T' in dimension 2: d_0 d_1 = v2 but d_0 d_0 = v1\n",
        )

    def test_homology_checks_the_axiom_once(self, monkeypatch, capsys):
        calls = Counter()
        real_validate = presimplicial.validate_pps

        def counting_validate(pps):
            calls["validate_pps"] += 1
            return real_validate(pps)

        for module in (presimplicial, cli_module):
            monkeypatch.setattr(module, "validate_pps", counting_validate)
        assert main(["pps", "homology", str(DATA / "8_20_cells.json")]) == 0
        assert calls["validate_pps"] == 1

    def test_dangling_face_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "dangling.json"
        path.write_text(
            '{"top_dim": 1, "cells": {"0": ["v"], "1": ["e"]},'
            ' "faces": {"1": {"e": {"0": "ghost"}}}}'
        )
        assert main(["pps", "validate", str(path)]) == 1

    def test_missing_file(self, capsys):
        assert main(["pps", "validate", "/nonexistent/file.json"]) == 1

    def test_deeply_nested_json_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"top_dim": ' + "[" * 200_000)
        assert main(["pps", "validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: not valid JSON")

    @pytest.mark.parametrize("command", ["validate", "homology"])
    @pytest.mark.parametrize("doc, key", MALFORMED_PPS.values(), ids=MALFORMED_PPS)
    def test_malformed_document_is_one_error_line(self, tmp_path, capsys, command, doc, key):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert main(["pps", command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and key in line


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "almax.cli", "analyze", "UNKNOT", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["homology"]["direct"] == {"0,-2": "Z"}
        assert doc["homotopy_type"] == "S^-1"

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_1_and_prints_nothing(self, buffered):
        # the reader has gone before the command writes; a buffered stdout meets
        # the closed pipe only when it is flushed
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = ["table", to_pd_text(torus_two_strand(8)), "--format", "json"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "almax.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["table", "--help"]], ids=["almax", "table"])
    def test_help_to_a_closed_stdout_exits_1_and_prints_nothing(self, buffered, argv):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "almax.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_help_to_an_open_stdout_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: almax") and captured.err == ""

    def test_broken_pipe_in_process_leaves_a_stringio_stdout_alone(self, monkeypatch):
        def closed(args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli_module, "_cmd_table", closed)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["table", LEFT_TREFOIL]) == 1
        assert (out.getvalue(), err.getvalue()) == ("", "")
