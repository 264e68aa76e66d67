"""Unoriented link diagrams given as PD codes.

A crossing is a quadruple of arc ids listed counterclockwise around the
crossing, slot 0 being the incoming under-strand.  Smoothing convention:
an A-label joins slots {0,1} and {2,3}, a B-label joins {0,3} and {1,2}.
It is written down once, in ``step_table``, and every circle of the
package is found by ``trace_circle`` walking that table.  An arc end
(x, slot) is the integer 4x + slot, and a circle is named by its least
arc end everywhere in the package; ``state_graph.build_state_graph`` is
the one place that spells a name out as text.
Each ``Diagram`` pairs its arc ends once, when it is made; the validity
checks, ``step_table`` and ``check_planar`` all read that partner list.
With this convention the standard left trefoil code
``X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)`` has an all-A resolution with three
circles and a triangular state graph, which is the calibration test for
the whole package.
"""

from __future__ import annotations

import re

from ._record import Record

_TOKEN_RE = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\Z", re.ASCII)


class DiagramError(ValueError):
    """Invalid diagram data."""


class PDSyntaxError(DiagramError):
    """Malformed PD-code text."""


class ArcOccurrenceError(DiagramError):
    """Some arc id does not occur in exactly two quadruple slots."""


class DisconnectedDiagramError(DiagramError):
    """The crossing graph of the diagram is not connected."""


class InadequateDiagramError(DiagramError):
    """Diagram fails the required adequacy condition."""


class NonPlanarDiagramError(DiagramError):
    """The PD code does not describe a planar diagram (see ``check_planar``)."""


class Diagram(Record):
    """A connected unoriented link diagram.

    ``crossings`` is an ordered tuple of arc-id quadruples; the order is
    total and fixed, and defines the chord/edge order used everywhere
    downstream.  ``free_loops`` counts crossingless circle components and
    is 1 exactly for the zero-crossing unknot.
    """

    # _partner: the other end of each arc, indexed by the arc end 4 * crossing + slot
    __slots__ = ("crossings", "free_loops", "_partner")

    def __init__(self, crossings: tuple[tuple[int, int, int, int], ...], free_loops: int = 0):
        crossings = tuple(tuple(q) for q in crossings)
        for q in crossings:
            for e in q:
                _check_int(e, "an arc id")
            if len(q) != 4 or any(e < 0 for e in q):
                raise DiagramError(f"crossing must be four non-negative arc ids, got {q!r}")
        _check_int(free_loops, "free_loops")
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "free_loops", free_loops)
        object.__setattr__(self, "_partner", _pair_arc_ends(crossings))
        if crossings:
            if free_loops != 0:
                raise DiagramError("free_loops must be 0 when the diagram has crossings")
            _check_connected(self._partner)
        elif free_loops != 1:
            raise DiagramError("a crossingless diagram must be a single free loop (the unknot)")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def arc_ids(self) -> tuple[int, ...]:
        """All arc ids, sorted."""
        return tuple(sorted({e for q in self.crossings for e in q}))


def _check_int(value, what: str) -> None:
    """Raise ``DiagramError`` unless ``value`` is an ``int`` (a ``bool`` is not)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DiagramError(f"{what} must be an integer, got {value!r}")


def _arc_occurrences(crossings) -> dict[int, list[int]]:
    """The arc ends 4 * crossing + slot of each arc id, in order of first appearance."""
    occ: dict[int, list[int]] = {}
    for ci, q in enumerate(crossings):
        for slot, arc in enumerate(q):
            occ.setdefault(arc, []).append(4 * ci + slot)
    return occ


def _pair_arc_ends(crossings) -> tuple[int, ...]:
    """The other end of each arc, indexed by arc end; every arc id must occur twice."""
    partner = [0] * (4 * len(crossings))
    for arc, ends in _arc_occurrences(crossings).items():
        if len(ends) != 2:
            raise ArcOccurrenceError(
                f"arc {arc} occurs {len(ends)} time(s); every arc id must occur exactly twice"
            )
        a, b = ends
        partner[a], partner[b] = b, a
    return tuple(partner)


def _check_connected(partner) -> None:
    """Raise unless every crossing is reached from crossing 0 along arcs."""
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for end in partner[4 * x: 4 * x + 4]:
            if end >> 2 not in seen:
                seen.add(end >> 2)
                stack.append(end >> 2)
    if len(seen) != len(partner) // 4:
        missing = sorted(set(range(len(partner) // 4)) - seen)
        raise DisconnectedDiagramError(
            f"diagram is disconnected (crossings {missing} unreachable from crossing 0)"
        )


class State(Record):
    """A Kauffman state: one label 'A' or 'B' per crossing index."""

    __slots__ = ("labels",)

    def __init__(self, labels: tuple[str, ...]):
        if any(l not in ("A", "B") for l in labels):
            raise ValueError(f"state labels must be 'A' or 'B', got {labels!r}")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def all_a(cls, crossing_count: int) -> "State":
        return cls(("A",) * crossing_count)


class Resolution(Record, frozen=False):
    """System of circles obtained by smoothing every crossing, as ``trace_state`` gives it.

    Circles partition the arc ends 4x + slot; each circle is named by its
    least arc end, and ``circles`` lists the names in sorted order.
    ``end_circle[e]`` is the circle of arc end e, so the chord of crossing
    x joins ``end_circle[4 * x]`` and ``end_circle[4 * x + 2]``.  The
    crossingless unknot has no arc ends and one circle, named 0.
    """

    __slots__ = ("circles", "end_circle")
    _unshown = ("end_circle",)

    def __init__(self, circles: tuple[int, ...], end_circle: list[int]):
        self.circles = circles
        self.end_circle = end_circle


# slot -> the slot a smoothing joins it to: A joins {0,1} and {2,3}, B joins {0,3} and {1,2}
_A_JOINS = (1, 0, 3, 2)
_B_JOINS = (3, 2, 1, 0)


def step_table(diagram: Diagram) -> list:
    """Per arc end e = 4x + slot and label (0 = A, 1 = B): (the end joined, the next end).

    From an arc end a circle crosses the smoothing to the end it joins,
    then follows that end's arc to its other end, the next end.  The
    integer encoding keeps the order of (x, slot), so the least end of a
    circle, which names it, is the same either way.
    """
    partner = diagram._partner
    steps = []
    for e in range(len(partner)):
        base = e & ~3
        a, b = base + _A_JOINS[e & 3], base + _B_JOINS[e & 3]
        steps.append(((a, partner[a]), (b, partner[b])))
    return steps


def trace_circle(steps: list, mask: int, start: int) -> list[int]:
    """Arc ends of the circle through ``start`` when bit x of ``mask`` B-labels crossing x."""
    ends = []
    end = start
    while True:
        joined, following = steps[end][mask >> (end >> 2) & 1]
        ends.append(end)
        ends.append(joined)
        end = following
        if end == start:
            return ends


def trace_state(steps: list, mask: int) -> tuple[tuple[int, ...], list[int]]:
    """(circle names in sorted order, the circle of each arc end) for the state ``mask``.

    Every circle is traced once by ``trace_circle``, from its least arc
    end, which names it.  The crossingless unknot has no arc ends; its one
    circle is named 0, here and so everywhere in the package.
    """
    if not steps:
        return (0,), []
    end_circle = [-1] * len(steps)
    circles = []
    for start in range(len(steps)):
        if end_circle[start] < 0:
            circles.append(start)
            for end in trace_circle(steps, mask, start):
                end_circle[end] = start
    return tuple(circles), end_circle


def _face_count(diagram: Diagram) -> int:
    """Faces of the PD rotation system: cycles of arc end -> arc partner -> next slot.

    The slots of a crossing are in counterclockwise order.  The unknot has
    two faces.
    """
    if diagram.crossing_count == 0:
        return 2
    partner = diagram._partner
    seen = [False] * len(partner)
    faces = 0
    for start in range(len(partner)):
        if seen[start]:
            continue
        faces += 1
        end = start
        while not seen[end]:
            seen[end] = True
            other = partner[end]
            end = (other & ~3) | ((other + 1) & 3)
    return faces


def check_planar(diagram: Diagram) -> None:
    """Raise ``NonPlanarDiagramError`` unless the PD code is a planar diagram.

    With c crossings and 2c arcs, Euler's formula V - E + F = 2 says the
    code is planar iff its rotation system, read off the diagram's arc
    pairing, has c + 2 faces.  A non-planar (virtual) code has well-defined
    circles, but a flip can then leave one circle one, which the Khovanov
    differential does not cover.
    """
    c = diagram.crossing_count
    faces = _face_count(diagram)
    if faces != c + 2:
        raise NonPlanarDiagramError(
            f"PD code is not planar: it has {faces} faces, a planar diagram with "
            f"{c} crossings has {c + 2}"
        )


def resolve(diagram: Diagram, state: State) -> Resolution:
    """Smooth every crossing of ``diagram`` according to ``state``.

    The circles come from ``trace_state`` over a fresh ``step_table`` (the
    arc pairing it reads is the diagram's own).  Callers that walk many
    states of one diagram derive them incrementally with one table and
    ``trace_circle`` instead (see ``khovanov._walk``).
    """
    c = diagram.crossing_count
    if len(state.labels) != c:
        raise DiagramError(
            f"state defined on {len(state.labels)} crossings, diagram has {c}"
        )
    mask = sum(1 << ci for ci, label in enumerate(state.labels) if label == "B")
    return Resolution(*trace_state(step_table(diagram), mask))


def mirror(diagram: Diagram) -> Diagram:
    """Mirror image: each quadruple (e0,e1,e2,e3) rotates to (e1,e2,e3,e0).

    Consequently ``resolve(mirror(D), s)`` has the circles of ``resolve(D, t)``,
    where t swaps A and B at every crossing of s, up to the relabelling of
    arc ends induced by the slot rotation.
    """
    rotated = tuple((q[1], q[2], q[3], q[0]) for q in diagram.crossings)
    return Diagram(rotated, diagram.free_loops)


def add_positive_kink(diagram: Diagram, arc: int) -> Diagram:
    """Split ``arc`` and append a positive-kink crossing riding on it.

    The new last crossing has the shape (a', a'', b, b) with fresh arc ids;
    its all-A smoothing attaches one extra circle by a single chord, so
    A-adequacy is preserved and the homology table shifts by (i+1, j+3).
    """
    occ = _arc_occurrences(diagram.crossings).get(arc)
    if occ is None:
        raise DiagramError(f"arc {arc} does not occur in the diagram")
    if diagram.crossing_count == 0:
        raise DiagramError("cannot kink a crossingless diagram (no arcs)")
    top = max(diagram.arc_ids())
    a_first, a_second, fresh = top + 1, top + 2, top + 3
    first, second = occ
    crossings = [list(q) for q in diagram.crossings]
    crossings[first >> 2][first & 3] = a_first
    crossings[second >> 2][second & 3] = a_second
    crossings.append([a_first, a_second, fresh, fresh])
    return Diagram(tuple(tuple(q) for q in crossings), 0)


def reorder_crossings(diagram: Diagram, order) -> Diagram:
    """Permute the crossing list: new crossing k is old crossing order[k]."""
    order = tuple(order)
    if sorted(order) != list(range(diagram.crossing_count)):
        raise DiagramError(f"not a permutation of 0..{diagram.crossing_count - 1}: {order!r}")
    return Diagram(tuple(diagram.crossings[o] for o in order), diagram.free_loops)


def _quote(token: str, width: int = 40) -> str:
    """``repr(token)`` if it fits in ``width`` characters.

    Otherwise the repr of the longest prefix that fits, and the token's
    length, so that an error line stays short whatever the input.
    """
    prefix = token[:width]
    while len(repr(prefix)) > width:
        prefix = prefix[:-1]
    if prefix == token:
        return repr(token)
    return f"{prefix!r}... ({len(token)} characters)"


def parse_pd(text: str) -> Diagram:
    """Parse PD-code text: 'UNKNOT' or semicolon-separated X(a,b,c,d) tokens."""
    stripped = text.strip()
    if stripped == "UNKNOT":
        return Diagram((), 1)
    if not stripped:
        raise PDSyntaxError("empty PD code")
    quads = []
    for raw in stripped.split(";"):
        token = raw.strip()
        m = _TOKEN_RE.match(token)
        if not m:
            raise PDSyntaxError(f"malformed PD token {_quote(token)}")
        quads.append(tuple(int(g) for g in m.groups()))
    return Diagram(tuple(quads))


def to_pd_text(diagram: Diagram) -> str:
    if diagram.crossing_count == 0:
        return "UNKNOT"
    return ";".join("X({},{},{},{})".format(*q) for q in diagram.crossings)


def diagram_to_json_dict(diagram: Diagram) -> dict:
    return {
        "crossings": [list(q) for q in diagram.crossings],
        "free_loops": diagram.free_loops,
    }


def diagram_from_json_dict(doc: dict) -> Diagram:
    if not isinstance(doc, dict) or "crossings" not in doc:
        raise PDSyntaxError("diagram JSON must be an object with a 'crossings' list")
    unknown = set(doc) - {"crossings", "free_loops"}
    if unknown:
        raise PDSyntaxError(f"unknown keys in diagram JSON: {sorted(unknown)}")
    crossings = doc["crossings"]
    if not isinstance(crossings, list) or any(
        not isinstance(q, list) or len(q) != 4 for q in crossings
    ):
        raise PDSyntaxError("'crossings' must be a list of 4-element lists")
    return Diagram(crossings, doc.get("free_loops", 1 if not crossings else 0))
