"""State graphs of Kauffman resolutions and the statistics behind the homotopy formula.

The graph of a state has one vertex per circle and one edge per chord, in
crossing order; loops and multiedges are allowed.  Adequacy, the simple
reduction, the cyclomatic number and bipartiteness are all read off here.
"""

from __future__ import annotations

from collections.abc import Hashable

from ._record import Record
from .diagram import Diagram, State, mirror, resolve


class GraphError(ValueError):
    """Graph does not satisfy an operation's precondition."""


class StateGraph(Record):
    """Multigraph with ordered vertices and edges; edge order = crossing order."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: tuple[Hashable, ...], edges: tuple[tuple[Hashable, Hashable], ...]):
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise GraphError("duplicate vertex names")
        for e in edges:
            if e[0] not in vset or e[1] not in vset:
                raise GraphError(f"edge {e!r} touches an unknown vertex")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def loop_edges(self) -> tuple[int, ...]:
        """Indices of loop edges (both endpoints on one vertex)."""
        return tuple(i for i, (u, v) in enumerate(self.edges) if u == v)


def build_state_graph(diagram: Diagram, state: State) -> StateGraph:
    """Circles as vertices; crossing x gives the edge between the circles at its slots 0 and 2.

    A circle, named inside the package by its least arc end 4x + slot, is
    the vertex ``c<x>s<slot>``; the one circle of the unknot is ``freeloop``.
    """
    circles, end = resolve(diagram, state)
    names = {n: f"c{n >> 2}s{n & 3}" if end else "freeloop" for n in circles}
    return StateGraph(
        vertices=tuple(names.values()),
        edges=tuple(
            (names[end[4 * x]], names[end[4 * x + 2]]) for x in range(diagram.crossing_count)
        ),
    )


def is_a_adequate(diagram: Diagram) -> bool:
    """True iff the all-A state graph has no loop edge."""
    g = build_state_graph(diagram, State.all_a(diagram.crossing_count))
    return not g.loop_edges()


def is_b_adequate(diagram: Diagram) -> bool:
    return is_a_adequate(mirror(diagram))


def simple_reduction(graph: StateGraph) -> StateGraph:
    """Replace each multiedge class by a single edge.

    The representative keeps the least edge (crossing) index of its class,
    so the output edge order is inherited from the input.
    """
    if graph.loop_edges():
        raise GraphError(f"graph has loop edges at indices {graph.loop_edges()}")
    seen: set[frozenset] = set()
    kept = []
    for u, v in graph.edges:
        key = frozenset((u, v))
        if key not in seen:
            seen.add(key)
            kept.append((u, v))
    return StateGraph(vertices=graph.vertices, edges=tuple(kept))


def _adjacency(graph: StateGraph) -> dict[Hashable, list[Hashable]]:
    adj: dict[Hashable, list[Hashable]] = {v: [] for v in graph.vertices}
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_connected_graph(graph: StateGraph) -> bool:
    if not graph.vertices:
        return False
    adj = _adjacency(graph)
    seen = {graph.vertices[0]}
    stack = [graph.vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(graph.vertices)


def cyclomatic_number(graph: StateGraph) -> int:
    """|E| - |V| + 1 of a connected graph (its number of independent cycles)."""
    if not is_connected_graph(graph):
        raise GraphError("cyclomatic number is only defined here for connected graphs")
    return len(graph.edges) - len(graph.vertices) + 1


def is_bipartite(graph: StateGraph) -> bool:
    """True iff the graph has no odd cycle.  A loop edge forces False."""
    if graph.loop_edges():
        return False
    adj = _adjacency(graph)
    colour: dict[Hashable, int] = {}
    for start in graph.vertices:
        if start in colour:
            continue
        colour[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    queue.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True


def graph_to_json_dict(graph: StateGraph) -> dict:
    names = {v: str(v) for v in graph.vertices}
    if len(set(names.values())) != len(names):
        raise GraphError("vertex names collide after string formatting")
    return {
        "vertices": [names[v] for v in graph.vertices],
        "edges": [[names[u], names[v]] for u, v in graph.edges],
    }
