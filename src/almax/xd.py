"""Partial presimplicial set attached to a loopless connected multigraph.

For a graph with edges v_0 < ... < v_{n} (n = c-1, edge order = crossing
order) the top cells in dimension n are the vertices; a k-cell for k < n
is a strictly increasing (k+1)-tuple of edges whose complement is a
non-empty part of one parallel class (all remaining edges join one common
vertex pair).  Face maps drop one edge when doing so stays inside that
rule.  The construction works for any loopless graph, not only state
graphs of diagrams, and grades cells by dimension alone.

A cell below the top is named by its edge tuple, ``"(v0,v2,v3)"``; a top
cell by ``str`` of its vertex, which for a diagram's state graph is the
``c<x>s<slot>`` name that ``build_state_graph`` gives its circle.  A face
holds its target's position, never its name.
"""

from __future__ import annotations

from itertools import combinations

from .presimplicial import EMPTY_PPS, PartialPresimplicialSet
from .state_graph import StateGraph, GraphError, is_connected_graph


def tuple_cell_id(edge_indices) -> str:
    """Canonical id of the cell given by a strictly increasing edge tuple."""
    return "(" + ",".join(f"v{i}" for i in edge_indices) + ")"


def build_xd(graph: StateGraph) -> PartialPresimplicialSet:
    """Build the partial presimplicial set of a loopless connected multigraph.

    The zero-edge graph (single vertex, from the unknot) yields the empty
    set, whose pointed realization plays the role of a (-1)-sphere.  Cells
    are generated class by class, so the cost follows the cell count
    ``|V| + sum over parallel classes P of (2^|P| - 1)``, not the 2^c edge
    subsets; each level is sorted, so ids and order do not depend on it.
    """
    if graph.loop_edges():
        raise GraphError(f"graph has loop edges at indices {graph.loop_edges()}")
    if not is_connected_graph(graph):
        raise GraphError("graph must be connected")
    c = graph.edge_count
    if c == 0:
        return EMPTY_PPS
    n = c - 1
    pairs = [frozenset(e) for e in graph.edges]
    classes: dict[frozenset, list[int]] = {}
    for i, pair in enumerate(pairs):
        classes.setdefault(pair, []).append(i)

    # a k-cell (k < n) is the complement of a non-empty subset of one parallel
    # class; level k collects the cells with c - k - 1 edges removed, each
    # with the class it came from, sorted into lexicographic tuple order
    levels: dict[int, list[tuple[tuple[int, ...], frozenset]]] = {k: [] for k in range(n)}
    for pair, members in classes.items():
        for size in range(1, min(len(members), n) + 1):
            for removed in combinations(members, size):
                gone = set(removed)
                levels[n - size].append((tuple(i for i in range(c) if i not in gone), pair))
    cells: dict[int, tuple[str, ...]] = {}
    position: dict[int, dict[tuple[int, ...], int]] = {}
    for k in range(n):
        levels[k].sort(key=lambda cell: cell[0])
        cells[k] = tuple(tuple_cell_id(combo) for combo, _class in levels[k])
        position[k] = {combo: p for p, (combo, _class) in enumerate(levels[k])}
    cells[n] = tuple(str(v) for v in graph.vertices)

    # a face is defined where dropping the edge keeps the rule: at a vertex,
    # any incident edge; below the top, an edge of the removed subset's class
    faces: dict[int, tuple[tuple[int | None, ...], ...]] = {}
    for k in range(1, n):
        below = position[k - 1]
        faces[k] = tuple(
            tuple(
                below[combo[:i] + combo[i + 1:]] if pairs[edge] == common else None
                for i, edge in enumerate(combo)
            )
            for combo, common in levels[k]
        )
    if n >= 1:
        below = position[n - 1]
        everything = tuple(range(c))
        faces[n] = tuple(
            tuple(
                below[everything[:i] + everything[i + 1:]] if vertex in edge else None
                for i, edge in enumerate(graph.edges)
            )
            for vertex in graph.vertices
        )

    return PartialPresimplicialSet(top_dim=n, cells=cells, faces=faces)
