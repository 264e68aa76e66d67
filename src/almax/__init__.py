"""Almost-extreme Khovanov homology of semiadequate link diagrams.

Three independent routes to the same groups: the closed-form homotopy
type of the cell structure attached to the all-A state graph, the cellular
chain complex of that structure, and the enhanced-state complex itself.
"""

from .diagram import (
    Diagram,
    DiagramError,
    DisconnectedDiagramError,
    InadequateDiagramError,
    NonPlanarDiagramError,
    PDSyntaxError,
    Resolution,
    State,
    add_positive_kink,
    mirror,
    parse_pd,
    resolve,
    to_pd_text,
)
from .homology import AbelianGroup, IntegerChainComplex, IntMatrix, homology, smith_normal_form
from .homotopy import HomotopyType, homotopy_type, predicted_homology, suspend
from .khovanov import (
    LaurentPoly,
    build_column,
    column_homology,
    framed_to_oriented,
    full_homology_table,
    j_extremes,
    kauffman_bracket,
)
from .presimplicial import PartialPresimplicialSet, chain_complex, validate_pps
from .report import AnalysisReport, analyze_diagram
from .state_graph import (
    StateGraph,
    build_state_graph,
    cyclomatic_number,
    is_a_adequate,
    is_b_adequate,
    is_bipartite,
    simple_reduction,
)
from .xd import build_xd, khovanov_degree

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "AnalysisReport",
    "Diagram",
    "DiagramError",
    "DisconnectedDiagramError",
    "HomotopyType",
    "InadequateDiagramError",
    "IntMatrix",
    "IntegerChainComplex",
    "LaurentPoly",
    "NonPlanarDiagramError",
    "PDSyntaxError",
    "PartialPresimplicialSet",
    "Resolution",
    "State",
    "StateGraph",
    "add_positive_kink",
    "analyze_diagram",
    "build_column",
    "build_state_graph",
    "build_xd",
    "chain_complex",
    "column_homology",
    "cyclomatic_number",
    "framed_to_oriented",
    "full_homology_table",
    "homology",
    "homotopy_type",
    "is_a_adequate",
    "is_b_adequate",
    "is_bipartite",
    "j_extremes",
    "kauffman_bracket",
    "khovanov_degree",
    "mirror",
    "parse_pd",
    "predicted_homology",
    "resolve",
    "simple_reduction",
    "smith_normal_form",
    "suspend",
    "to_pd_text",
    "validate_pps",
]
