"""Three-route analysis of a diagram and the cross-check verdict.

The almost-extreme homology is computed from the closed formula, from the
cellular chain complex of the associated partial presimplicial set, and
directly from the enhanced-state complex; the routes must agree group by
group for the analysis to count as verified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram, InadequateDiagramError, State, check_planar, mirror, resolve
from .diagram import diagram_to_json_dict
from .homology import AbelianGroup, homology, nonzero_groups
from .homotopy import HomotopyType, homotopy_type, predicted_homology
from .khovanov import column_homology
from .presimplicial import PartialPresimplicialSet, chain_complex
from .state_graph import (
    StateGraph,
    build_state_graph,
    cyclomatic_number,
    graph_to_json_dict,
    is_b_adequate,
    is_bipartite,
    simple_reduction,
)
from .xd import build_xd, khovanov_degree

ROUTES = ("formula", "cellular", "direct")


@dataclass
class AnalysisReport:
    input_diagram: Diagram
    diagram: Diagram            # analyzed diagram; the mirror when mirrored is set
    mirrored: bool
    a_adequate: bool            # adequacy of the *input* diagram
    b_adequate: bool
    crossing_count: int
    circles_all_a: int
    circles_all_b: int
    graph: StateGraph
    vertex_count: int
    p1: int
    bipartite: bool
    j_max: int
    j_almax: int
    homotopy: HomotopyType
    tables: dict[str, dict[tuple[int, int], AbelianGroup]]
    xd: PartialPresimplicialSet

    @property
    def agreement(self) -> bool:
        first = self.tables[ROUTES[0]]
        return all(self.tables[route] == first for route in ROUTES[1:])

    def to_json_dict(self) -> dict:
        doc = {
            "diagram": diagram_to_json_dict(self.diagram),
            "mirrored": self.mirrored,
            "a_adequate": self.a_adequate,
            "b_adequate": self.b_adequate,
            "crossings": self.crossing_count,
            "circles_all_a": self.circles_all_a,
            "circles_all_b": self.circles_all_b,
            "graph": graph_to_json_dict(self.graph),
            "vertex_count": self.vertex_count,
            "p1": self.p1,
            "bipartite": self.bipartite,
            "j_max": self.j_max,
            "j_almax": self.j_almax,
            "homotopy_type": self.homotopy.render(),
            "homology": {route: render_table_json(self.tables[route]) for route in ROUTES},
            "agreement": self.agreement,
        }
        if self.mirrored:
            doc["input_diagram"] = diagram_to_json_dict(self.input_diagram)
        return doc

    def render_text(self) -> str:
        lines = []
        note = "  (computed on the mirror image)" if self.mirrored else ""
        lines.append(f"crossings: {self.crossing_count}{note}")
        lines.append(
            f"circles: all-A {self.circles_all_a}, all-B {self.circles_all_b}"
        )
        lines.append(
            f"adequacy of input: A {'yes' if self.a_adequate else 'no'}, "
            f"B {'yes' if self.b_adequate else 'no'}"
        )
        lines.append(
            f"state graph: {self.vertex_count} vertices, {len(self.graph.edges)} edges, "
            f"p1 = {self.p1}, {'bipartite' if self.bipartite else 'odd cycle present'}"
        )
        lines.append(f"j_max = {self.j_max}, j_almax = {self.j_almax}")
        lines.append(f"homotopy type: {self.homotopy.render()}")
        lines.append("almost-extreme homology (three routes):")
        keys = sorted({k for t in self.tables.values() for k in t})
        for route in ROUTES:
            entries = ", ".join(
                f"({i},{j}): {self.tables[route][(i, j)].render()}"
                for (i, j) in keys
                if (i, j) in self.tables[route]
            )
            lines.append(f"  {route:<9}{entries or '(all trivial)'}")
        lines.append(f"agreement: {'yes' if self.agreement else 'NO - routes differ'}")
        return "\n".join(lines)


def render_table_json(table: dict[tuple[int, int], AbelianGroup]) -> dict[str, str]:
    return {f"{i},{j}": group.render() for (i, j), group in sorted(table.items())}


def analyze_diagram(diagram: Diagram, auto_mirror: bool = False) -> AnalysisReport:
    """Run all three routes on an A-adequate diagram (mirroring if allowed).

    A diagram that is only B-adequate is rejected unless ``auto_mirror`` is
    set, in which case the mirror image is analyzed and the report carries
    the mirrored flag; framed gradings refer to the mirror.  A non-planar
    PD code is rejected with ``NonPlanarDiagramError`` before any other work.
    """
    check_planar(diagram)
    c = diagram.crossing_count
    graph = build_state_graph(diagram, State.all_a(c))
    a_ok = not graph.loop_edges()
    b_ok = is_b_adequate(diagram)
    mirrored = False
    if a_ok:
        target = diagram
    elif b_ok and auto_mirror:
        target = mirror(diagram)
        mirrored = True
        graph = build_state_graph(target, State.all_a(c))
    else:
        loops = list(graph.loop_edges())
        detail = f"chords at crossings {loops} are loops in the all-A state graph"
        if b_ok:
            raise InadequateDiagramError(
                f"diagram is not A-adequate ({detail}); it is B-adequate, "
                "so its mirror image can be analyzed instead"
            )
        raise InadequateDiagramError(f"diagram is not semiadequate ({detail})")

    circles_all_a = len(graph.vertices)
    res_b = resolve(target, State.all_b(c))
    p1 = cyclomatic_number(simple_reduction(graph))
    bipartite = is_bipartite(graph)
    j_max = c + 2 * circles_all_a
    j_almax = j_max - 4
    htype = homotopy_type(graph)

    formula = predicted_homology(htype, c, circles_all_a)

    xd = build_xd(graph)
    cellular = {}
    for k, group in nonzero_groups(homology(chain_complex(xd, reduced=True))).items():
        cellular[(khovanov_degree(k, c), j_almax)] = group

    direct = column_homology(target, j_almax)

    return AnalysisReport(
        input_diagram=diagram,
        diagram=target,
        mirrored=mirrored,
        a_adequate=a_ok,
        b_adequate=b_ok,
        crossing_count=c,
        circles_all_a=circles_all_a,
        circles_all_b=res_b.circle_count,
        graph=graph,
        vertex_count=len(graph.vertices),
        p1=p1,
        bipartite=bipartite,
        j_max=j_max,
        j_almax=j_almax,
        homotopy=htype,
        tables={"formula": formula, "cellular": cellular, "direct": direct},
        xd=xd,
    )


def format_homology_table(table: dict[tuple[int, int], AbelianGroup]) -> str:
    """Text grid of a full table: rows indexed by j (descending), columns by i."""
    if not table:
        return "(empty table)"
    is_ = sorted({i for i, _ in table})
    js = sorted({j for _, j in table}, reverse=True)
    widths = {
        i: max([len(str(i))] + [len(table[(i, j)].render()) for j in js if (i, j) in table])
        for i in is_
    }
    label = max(len(str(j)) for j in js)
    label = max(label, 3)
    header = "j\\i".rjust(label) + " |" + "".join(f" {str(i).rjust(widths[i])}" for i in is_)
    lines = [header, "-" * len(header)]
    for j in js:
        row = str(j).rjust(label) + " |"
        for i in is_:
            cell = table[(i, j)].render() if (i, j) in table else ""
            row += f" {cell.rjust(widths[i])}"
        lines.append(row)
    return "\n".join(lines)
