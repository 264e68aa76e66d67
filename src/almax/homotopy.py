"""Closed-form homotopy type of the realization, straight from graph statistics.

For a loopless connected multigraph G with c edges, with H its simple
reduction and p1 the cyclomatic number of H: bipartite G gives a wedge of
p1 spheres S^(c-2) with one S^(c-1); a G with an odd cycle gives p1 - 1
spheres S^(c-2) wedged with the (c-3)-fold suspension of the projective
plane.  The single-vertex graph (c = 0) degenerates to S^(-1), the empty
space.  Reduced homology is keyed by the degree of the realization alone;
nothing here knows about diagrams.
"""

from __future__ import annotations

from collections import Counter

from ._record import Record
from .homology import AbelianGroup
from .state_graph import (
    StateGraph,
    GraphError,
    cyclomatic_number,
    is_bipartite,
    is_connected_graph,
    simple_reduction,
)


class HomotopyType(Record):
    """Symbolic wedge of spheres plus at most one suspended projective plane.

    ``spheres`` is a sorted multiset of dimensions (>= -1);
    ``rp2_suspensions`` is q for a summand suspension^q(RP^2), or None.
    The empty expression is a point.
    """

    __slots__ = ("spheres", "rp2_suspensions")

    def __init__(self, spheres: tuple[int, ...] = (), rp2_suspensions: int | None = None):
        spheres = tuple(sorted(spheres))
        if any(d < -1 for d in spheres):
            raise ValueError("sphere dimensions must be >= -1")
        if rp2_suspensions is not None and rp2_suspensions < 0:
            raise ValueError("suspension count must be >= 0")
        object.__setattr__(self, "spheres", spheres)
        object.__setattr__(self, "rp2_suspensions", rp2_suspensions)

    def reduced_homology(self) -> dict[int, AbelianGroup]:
        """Non-trivial reduced homology groups per degree."""
        free = Counter(self.spheres)
        degrees = set(free)
        if self.rp2_suspensions is not None:
            degrees.add(self.rp2_suspensions + 1)
        groups = {}
        for k in sorted(degrees):
            torsion = (2,) if self.rp2_suspensions is not None and k == self.rp2_suspensions + 1 else ()
            groups[k] = AbelianGroup(free_rank=free.get(k, 0), torsion=torsion)
        return {k: g for k, g in groups.items() if not g.is_trivial}

    def render(self) -> str:
        parts = []
        for dim, count in sorted(Counter(self.spheres).items()):
            parts.append(f"S^{dim}" if count == 1 else f"vee({count} x S^{dim})")
        if self.rp2_suspensions is not None:
            q = self.rp2_suspensions
            parts.append("RP^2" if q == 0 else f"susp^{q}(RP^2)")
        return " ∨ ".join(parts) if parts else "pt"

    def __str__(self) -> str:
        return self.render()


def homotopy_type(graph: StateGraph) -> HomotopyType:
    """Homotopy type of the realization built from a loopless connected graph."""
    if graph.loop_edges():
        raise GraphError(f"graph has loop edges at indices {graph.loop_edges()}")
    if not is_connected_graph(graph):
        raise GraphError("graph must be connected")
    c = graph.edge_count
    p1 = cyclomatic_number(simple_reduction(graph))
    if is_bipartite(graph):
        return HomotopyType(spheres=(c - 2,) * p1 + (c - 1,))
    if c < 3:
        raise AssertionError("an odd cycle needs at least 3 edges")
    return HomotopyType(spheres=(c - 2,) * (p1 - 1), rp2_suspensions=c - 3)
