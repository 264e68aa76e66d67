import json
import subprocess
import sys
from collections import Counter

import pytest

from almax import diagram as diagram_module
from almax import khovanov, report as report_module, state_graph
from almax.cli import main
from almax.diagram import InadequateDiagramError, parse_pd
from almax.homology import AbelianGroup
from almax.presimplicial import pps_from_json
from almax.report import analyze_diagram, format_homology_table

from conftest import B_ADEQUATE_ONLY, KNOT_8_20, LEFT_TREFOIL, RIGHT_TREFOIL


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

    def test_adequate_input_resolves_at_most_four_states(self, monkeypatch, corpus):
        # all-A graph, the mirror's all-A (B-adequacy), all-B, and the direct route's mask 0
        calls = Counter()
        real_resolve = diagram_module.resolve

        def counting_resolve(*args):
            calls["resolve"] += 1
            return real_resolve(*args)

        for module in (diagram_module, khovanov, report_module, state_graph):
            monkeypatch.setattr(module, "resolve", counting_resolve)
        for name in ("left_trefoil", "figure_eight", "8_20", "10_44"):
            calls.clear()
            report = analyze_diagram(corpus[name])
            assert report.agreement, name
            assert calls["resolve"] <= 4, name

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
        from almax.diagram import mirror

        flipped = mirror(corpus["8_20"])
        with pytest.raises(InadequateDiagramError):
            analyze_diagram(flipped)
        report = analyze_diagram(flipped, auto_mirror=True)
        assert report.mirrored and report.agreement
        assert report.tables["direct"] == {(6, 12): AbelianGroup(0, (2,))}

    def test_not_semiadequate_rejected(self):
        # a positive and a negative kink on one circle: inadequate on both sides
        d = parse_pd("X(1,2,3,3);X(2,4,1,4)")
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
                    resolve(d, State.all_a(c)).circle_count
                    + resolve(d, State.all_b(c)).circle_count
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


class TestFormatTable:
    def test_grid(self):
        table = {(1, 5): AbelianGroup(0, (2,)), (3, 9): AbelianGroup(1)}
        text = format_homology_table(table)
        assert "j\\i" in text
        assert "Z/2" in text and "Z" in text

    def test_empty(self):
        assert format_homology_table({}) == "(empty table)"


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
        assert len(pps.cells_in(2)) == 3

    def test_dumped_figure_eight_cells_feed_pps_homology(self, tmp_path, capsys):
        from conftest import FIGURE_EIGHT

        target = tmp_path / "fig8_cells.json"
        assert main(["analyze", FIGURE_EIGHT, "--dump-pps", str(target)]) == 0
        capsys.readouterr()
        assert main(["pps", "homology", str(target), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # the suspended projective plane: one Z/2 in degree 2
        assert doc["homology"] == {"2": "Z/2"}

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

    def test_disconnected_input_exit_code(self, capsys):
        assert main(["analyze", "X(1,1,2,2);X(3,3,4,4)"]) == 2

    def test_cross_check_failure_exit_code(self, monkeypatch, capsys, left_trefoil):
        import almax.cli as cli_module

        real = analyze_diagram(left_trefoil)
        real.tables["direct"] = {(1, 5): AbelianGroup(1)}
        monkeypatch.setattr(cli_module, "analyze_diagram", lambda *a, **k: real)
        assert main(["analyze", LEFT_TREFOIL]) == 3
        assert "NO" in capsys.readouterr().out


class TestCliTable:
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

    def test_bad_writhe_parity(self, capsys):
        assert main(["table", LEFT_TREFOIL, "--writhe", "2"]) == 1


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
        assert main(["pps", "homology", str(projective_file), "--unreduced"]) == 0

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
        assert main(["pps", "homology", str(path)]) == 2

    def test_dangling_face_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "dangling.json"
        path.write_text(
            '{"top_dim": 1, "cells": {"0": ["v"], "1": ["e"]},'
            ' "faces": {"1": {"e": {"0": "ghost"}}}}'
        )
        assert main(["pps", "validate", str(path)]) == 1

    def test_missing_file(self, capsys):
        assert main(["pps", "validate", "/nonexistent/file.json"]) == 1


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
