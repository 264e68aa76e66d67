"""Almost-extreme Khovanov homology of semiadequate link diagrams.

Three independent routes to the same groups: the closed-form homotopy
type of the cell structure attached to the all-A state graph, the cellular
chain complex of that structure, and the enhanced-state complex itself.

The package exports what the README documents; every other name is
imported from its module (``almax.diagram``, ``almax.khovanov``, ...).
"""

from .diagram import (
    ArcOccurrenceError,
    DiagramError,
    DisconnectedDiagramError,
    InadequateDiagramError,
    NonPlanarDiagramError,
    PDSyntaxError,
    State,
    diagram_from_json_dict,
    diagram_to_json_dict,
    parse_pd,
    to_pd_text,
)
from .homotopy import homotopy_type
from .khovanov import full_homology_table
from .presimplicial import chain_complex, pps_from_json, pps_to_json
from .report import analyze_diagram
from .state_graph import StateGraph, build_state_graph
from .xd import build_xd

__version__ = "0.1.0"

__all__ = [
    "ArcOccurrenceError",
    "DiagramError",
    "DisconnectedDiagramError",
    "InadequateDiagramError",
    "NonPlanarDiagramError",
    "PDSyntaxError",
    "State",
    "StateGraph",
    "analyze_diagram",
    "build_state_graph",
    "build_xd",
    "chain_complex",
    "diagram_from_json_dict",
    "diagram_to_json_dict",
    "full_homology_table",
    "homotopy_type",
    "parse_pd",
    "pps_from_json",
    "pps_to_json",
    "to_pd_text",
]
