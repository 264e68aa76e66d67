"""Three-route analysis of a diagram and the cross-check verdict.

The almost-extreme homology is computed from the closed formula, from the
cellular chain complex of the associated partial presimplicial set, and
directly from the enhanced-state complex; the routes must agree group by
group for the analysis to count as verified.

The two topological routes give reduced homology keyed by the degree k of
the realization.  ``analyze_diagram`` places both with one map: for a
diagram with c crossings, degree k is Kh^{i, j_almax} with
i = 2k - c + 2, and j_almax = j_max - 4 where j_max = c + 2|V(G)| for the
all-A state graph G.  The direct route files its states by i on its own.
"""

from __future__ import annotations

from ._record import Record
from .diagram import Diagram, InadequateDiagramError, State, check_planar, mirror
from .diagram import diagram_to_json_dict
from .homology import AbelianGroup, homology, nonzero_groups
from .homotopy import HomotopyType, homotopy_type
from .khovanov import column_homology
from .presimplicial import PartialPresimplicialSet, chain_complex
from .state_graph import (
    StateGraph,
    build_state_graph,
    cyclomatic_number,
    graph_to_json_dict,
    is_bipartite,
    simple_reduction,
)
from .xd import build_xd

ROUTES = ("formula", "cellular", "direct")


class AnalysisReport(Record, frozen=False):
    __slots__ = (
        "input_diagram", "diagram", "mirrored", "a_adequate", "b_adequate",
        "circles_all_b", "graph", "homotopy", "tables", "xd",
    )

    def __init__(
        self,
        input_diagram: Diagram,
        diagram: Diagram,           # analyzed diagram; the mirror when mirrored is set
        mirrored: bool,
        a_adequate: bool,           # adequacy of the *input* diagram
        b_adequate: bool,
        circles_all_b: int,
        graph: StateGraph,          # all-A state graph of ``diagram``
        homotopy: HomotopyType,
        tables: dict[str, dict[tuple[int, int], AbelianGroup]],
        xd: PartialPresimplicialSet,
    ):
        self.input_diagram = input_diagram
        self.diagram = diagram
        self.mirrored = mirrored
        self.a_adequate = a_adequate
        self.b_adequate = b_adequate
        self.circles_all_b = circles_all_b
        self.graph = graph
        self.homotopy = homotopy
        self.tables = tables
        self.xd = xd

    @property
    def crossing_count(self) -> int:
        return self.diagram.crossing_count

    @property
    def circles_all_a(self) -> int:
        return len(self.graph.vertices)

    @property
    def p1(self) -> int:
        return cyclomatic_number(simple_reduction(self.graph))

    @property
    def bipartite(self) -> bool:
        return is_bipartite(self.graph)

    @property
    def j_max(self) -> int:
        return self.crossing_count + 2 * self.circles_all_a

    @property
    def j_almax(self) -> int:
        return self.j_max - 4

    @property
    def disagreements(self) -> list[tuple[int, int]]:
        """The (i, j) keys at which some two routes give different groups, sorted."""
        keys = {k for t in self.tables.values() for k in t}
        return sorted(
            k for k in keys if len({self.tables[route].get(k) for route in ROUTES}) > 1
        )

    @property
    def agreement(self) -> bool:
        return not self.disagreements

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
            "vertex_count": self.circles_all_a,  # the all-A graph has a vertex per circle
            "p1": self.p1,
            "bipartite": self.bipartite,
            "j_max": self.j_max,
            "j_almax": self.j_almax,
            "homotopy_type": self.homotopy.render(),
            "homology": {route: render_table_json(self.tables[route]) for route in ROUTES},
            "agreement": self.agreement,
        }
        if not self.agreement:
            doc["disagreements"] = [f"{i},{j}" for i, j in self.disagreements]
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
            f"state graph: {self.circles_all_a} vertices, {len(self.graph.edges)} edges, "
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
        if self.agreement:
            lines.append("agreement: yes")
        else:
            where = ", ".join(f"({i},{j})" for i, j in self.disagreements)
            lines.append(f"agreement: NO - routes differ at {where}")
        return "\n".join(lines)


def render_table_json(table: dict[tuple[int, int], AbelianGroup]) -> dict[str, str]:
    return {f"{i},{j}": group.render() for (i, j), group in sorted(table.items())}


def render_polynomial(coeffs: dict[int, int]) -> str:
    """A Laurent polynomial in A, given as {exponent: coefficient}: ``'-A^9 + A + A^-3'``.

    Terms run from the highest exponent down, zero coefficients are
    skipped, and the zero polynomial is ``'0'``.
    """
    parts = []
    for e in sorted((e for e, c in coeffs.items() if c), reverse=True):
        c = coeffs[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            head = "A" if e == 1 else f"A^{e}"
            body = head if mag == 1 else f"{mag}*{head}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def analyze_diagram(diagram: Diagram, auto_mirror: bool = False) -> AnalysisReport:
    """Run all three routes on an A-adequate diagram (mirroring if allowed).

    A diagram that is only B-adequate is rejected unless ``auto_mirror`` is
    set, in which case the mirror image is analyzed and the report carries
    the mirrored flag; framed gradings refer to the mirror.  A non-planar
    PD code is rejected with ``NonPlanarDiagramError`` before any other work.

    The direct route's column is reduced (``column_homology``) before
    ``build_xd`` and the cellular complex are built.  On T(2,n) both cover
    the whole 2^c cube, and the report keeps the cells, so this order makes
    the peak the larger of the two routes' working sets, not their sum.
    Neither route reads the other's output; only the order changes.
    """
    check_planar(diagram)
    c = diagram.crossing_count
    image = mirror(diagram)
    graph = build_state_graph(diagram, State.all_a(c))
    graph_b = build_state_graph(image, State.all_a(c))  # circles of the all-B state
    a_ok = not graph.loop_edges()
    b_ok = not graph_b.loop_edges()
    mirrored = False
    if a_ok:
        target = diagram
    elif b_ok and auto_mirror:
        target = image
        mirrored = True
        graph, graph_b = graph_b, graph
    else:
        loops = list(graph.loop_edges())
        detail = f"chords at crossings {loops} are loops in the all-A state graph"
        if b_ok:
            raise InadequateDiagramError(
                f"diagram is not A-adequate ({detail}); it is B-adequate, "
                "so its mirror image can be analyzed instead"
            )
        raise InadequateDiagramError(f"diagram is not semiadequate ({detail})")

    j_almax = c + 2 * len(graph.vertices) - 4  # report.j_almax, before the report holds the cells
    direct = column_homology(target, j_almax)
    report = AnalysisReport(
        input_diagram=diagram,
        diagram=target,
        mirrored=mirrored,
        a_adequate=a_ok,
        b_adequate=b_ok,
        circles_all_b=len(graph_b.vertices),
        graph=graph,
        homotopy=homotopy_type(graph),
        tables={},
        xd=build_xd(graph),
    )

    def place(groups: dict[int, AbelianGroup]) -> dict[tuple[int, int], AbelianGroup]:
        """Reduced homology in realization degree k is Kh^{2k - c + 2, j_almax}."""
        return {(2 * k - c + 2, j_almax): group for k, group in groups.items()}

    report.tables.update(
        formula=place(report.homotopy.reduced_homology()),
        cellular=place(nonzero_groups(homology(chain_complex(report.xd, reduced=True)))),
        direct=direct,
    )
    return report


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
