"""Shared test machinery: independent oracles and fixture generators.

The resolution oracle finds circles by a union-find over arc ends, where
the package traces them; the circle-count oracle counts the cycles of a
composed permutation; the SNF oracle recovers invariant factors from gcds
of k x k minors.  All are deliberately different algorithms from the ones
inside the package, and each writes down the smoothing convention on its
own.  The enhanced-state oracles resolve every state from scratch with
``resolve``, never through the package's incremental resolution store;
the reference differential resolves with the union-find and writes the
merge/split sign rules down on its own.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, combinations_with_replacement, permutations

from almax.diagram import FREE_LOOP, Diagram, DiagramError, Resolution, State, resolve
from almax.homology import AbelianGroup
from almax.khovanov import LOOP_VALUE, LaurentPoly
from almax.presimplicial import EMPTY_PPS, PartialPresimplicialSet, pps_from_json_dict
from almax.state_graph import StateGraph, format_vertex, is_a_adequate
from almax.xd import tuple_cell_id


# --- independent resolutions -------------------------------------------------

_A_MATCH = {0: 1, 1: 0, 2: 3, 3: 2}
_B_MATCH = {0: 3, 3: 0, 1: 2, 2: 1}


def arc_partner(diagram: Diagram) -> dict:
    """The other end of each arc: a perfect matching on the arc ends (crossing, slot)."""
    occ = {}
    for ci, quad in enumerate(diagram.crossings):
        for slot, arc in enumerate(quad):
            occ.setdefault(arc, []).append((ci, slot))
    partner = {}
    for first, second in occ.values():
        partner[first], partner[second] = second, first
    return partner


def union_find_resolution(diagram: Diagram, state: State) -> Resolution:
    """Circles of ``state`` by a disjoint-set union over arc ends.

    The two ends of each arc are unified, and at each crossing every slot
    with the slot its label's smoothing joins it to.  A union keeps the
    smaller root, so each circle is named by its least arc end, as in
    ``resolve``.
    """
    c = diagram.crossing_count
    if c == 0:
        return Resolution(circles=(FREE_LOOP,), end_circle={})
    parent = {(ci, slot): (ci, slot) for ci in range(c) for slot in range(4)}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = sorted((find(x), find(y)))
        parent[ry] = rx

    for first, second in arc_partner(diagram).items():
        union(first, second)
    for ci, label in enumerate(state.labels):
        match = _A_MATCH if label == "A" else _B_MATCH
        for slot in range(4):
            union((ci, slot), (ci, match[slot]))
    end_circle = {end: find(end) for end in parent}
    return Resolution(circles=tuple(sorted(set(end_circle.values()))), end_circle=end_circle)


def trace_circle_count(diagram: Diagram, state: State) -> int:
    """Count resolution circles as permutation cycles.

    The arc pairing and the smoothing pairing are two perfect matchings on
    arc ends; every circle is an alternating cycle of the two and splits
    into exactly two cycles of their composition, so the circle count is
    half the cycle count of the composed permutation.
    """
    c = diagram.crossing_count
    if c == 0:
        return 1
    partner = arc_partner(diagram)

    def smooth_partner(end):
        ci, slot = end
        match = _A_MATCH if state.labels[ci] == "A" else _B_MATCH
        return (ci, match[slot])

    seen = set()
    cycles = 0
    for start in partner:
        if start in seen:
            continue
        cycles += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = partner[smooth_partner(cur)]
    assert cycles % 2 == 0
    return cycles // 2


def face_count(diagram: Diagram) -> int:
    """Faces of the PD rotation system: cycles of dart -> arc partner -> next slot.

    A dart is an arc end (crossing, slot); the slots of a crossing are in
    counterclockwise order.  With V = c crossings and E = 2c arcs, Euler's
    formula V - E + F = 2 says the diagram is planar iff F = c + 2.
    """
    if diagram.crossing_count == 0:
        return 2
    partner = arc_partner(diagram)
    seen = set()
    faces = 0
    for start in partner:
        if start in seen:
            continue
        faces += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            ci, slot = partner[cur]
            cur = (ci, (slot + 1) % 4)
    return faces


def random_pd_codes(count: int, seed: int, max_crossings: int = 4):
    """Connected PD codes with 1..max_crossings crossings, arcs paired at random.

    The arc ends are matched uniformly, so most codes are not planar
    (``face_count`` differs from c + 2).  They are still valid input for
    ``resolve``, whose circles need no planarity.
    """
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        c = rng.randint(1, max_crossings)
        slots = [(ci, slot) for ci in range(c) for slot in range(4)]
        rng.shuffle(slots)
        quads = [[0] * 4 for _ in range(c)]
        for arc in range(2 * c):
            for ci, slot in slots[2 * arc: 2 * arc + 2]:
                quads[ci][slot] = arc + 1
        try:
            found.append(Diagram(tuple(map(tuple, quads))))
        except DiagramError:  # disconnected
            continue
    return found


def bracket_oracle(diagram: Diagram) -> LaurentPoly:
    """Kauffman bracket as the state sum of A^sigma * d^circles over ``trace_circle_count``."""
    c = diagram.crossing_count
    total = LaurentPoly.zero()
    for mask in range(1 << c):
        circles = trace_circle_count(diagram, mask_state(c, mask))
        total = total + LaurentPoly.monomial(1, c - 2 * mask.bit_count()) * LOOP_VALUE**circles
    return total


# --- enhanced-state oracles ---------------------------------------------------
#
# A generator here is (mask, negatives): bit x of mask set means a B-label at
# crossing x, negatives the frozenset of the names of the negative circles.
# The package keeps negbits, an integer with bit 4x + slot set for the
# negative circle named (x, slot); ``decode_generator`` turns one into the
# other.


def mask_state(c: int, mask: int) -> State:
    return State.from_b_indices(c, [x for x in range(c) if mask >> x & 1])


def sign_map(diagram: Diagram, generator) -> dict:
    """Circle name -> sign of that circle, for every circle of the generator's state."""
    mask, negatives = generator
    res = resolve(diagram, mask_state(diagram.crossing_count, mask))
    stray = negatives - set(res.circles)
    if stray:
        raise ValueError(f"signs refer to unknown circles: {sorted(stray)}")
    return {name: -1 if name in negatives else 1 for name in res.circles}


def gradings(diagram: Diagram, generator) -> tuple[int, int]:
    """(i, j) of a generator: i = #A - #B, j = i + 2 * (sum of signs)."""
    i = diagram.crossing_count - 2 * generator[0].bit_count()
    return i, i + 2 * sum(sign_map(diagram, generator).values())


def enhanced_census(diagram: Diagram) -> dict:
    """Every enhanced state of the diagram, grouped by (i, j)."""
    c = diagram.crossing_count
    census: dict = {}
    for mask in range(1 << c):
        circles = resolve(diagram, mask_state(c, mask)).circles
        i = c - 2 * mask.bit_count()
        for negatives in range(len(circles) + 1):
            bucket = census.setdefault((i, i + 2 * (len(circles) - 2 * negatives)), [])
            bucket.extend((mask, frozenset(combo)) for combo in combinations(circles, negatives))
    return census


def decode_name(c: int, name: int):
    """A package circle name, the arc end 4x + slot, as the pair (x, slot).

    The crossingless unknot has no arc ends; its one circle is named 0 in
    the package and ``FREE_LOOP`` in a ``Resolution``.
    """
    if c == 0:
        if name != 0:
            raise ValueError(f"the unknot has one circle, named 0, not {name}")
        return FREE_LOOP
    return divmod(name, 4)


def decode_generator(c: int, generator) -> tuple:
    """A package generator (mask, negbits) as (mask, frozenset of negative circle names)."""
    mask, negbits = generator
    names = [n for n in range(negbits.bit_length()) if negbits >> n & 1]
    return mask, frozenset(decode_name(c, n) for n in names)


# The signs a flip gives the circles it touches, from those of the circles
# it consumes: #positive - #negative rises by one, so that j is kept.
_MERGE = {(1, 1): (), (1, -1): (1,), (-1, 1): (1,), (-1, -1): (-1,)}
_SPLIT = {1: ((1, 1),), -1: ((1, -1), (-1, 1))}


def reference_differential(diagram: Diagram):
    """The differential as a function: generator (mask, negatives) -> {target: coefficient}.

    Generators carry circle names, as ``enhanced_census``.  Circles come
    from ``union_find_resolution``, one per mask, kept for the returned
    function's life.  Flipping crossing x from A to B merges the circles at
    its slots 0 and 2 or splits the one circle there; untouched circles
    keep their signs, the touched ones follow ``_MERGE`` and ``_SPLIT``,
    and the incidence is (-1)^(#B-labels after x).
    """
    c = diagram.crossing_count
    resolutions: dict = {}

    def resolution(mask):
        if mask not in resolutions:
            resolutions[mask] = union_find_resolution(diagram, mask_state(c, mask))
        return resolutions[mask]

    def differential(generator) -> dict:
        mask, negatives = generator
        source = resolution(mask)
        image: dict = {}
        for x in range(c):
            if mask >> x & 1:
                continue
            target = mask | 1 << x
            incidence = (-1) ** sum(mask >> y & 1 for y in range(x + 1, c))
            s0, s2 = source.end_circle[(x, 0)], source.end_circle[(x, 2)]
            t0, t2 = resolution(target).end_circle[(x, 0)], resolution(target).end_circle[(x, 2)]
            sign = {name: -1 if name in negatives else 1 for name in (s0, s2)}
            if s0 != s2:
                if t0 != t2:
                    raise ValueError(f"flip of crossing {x} neither merges nor splits")
                touched = [{t0: s} for s in _MERGE[(sign[s0], sign[s2])]]
            else:
                if t0 == t2:
                    raise ValueError(f"flip of crossing {x} neither merges nor splits")
                touched = [{t0: a, t2: b} for a, b in _SPLIT[sign[s0]]]
            kept = negatives - {s0, s2}
            for signs in touched:
                key = (target, kept | {name for name, s in signs.items() if s < 0})
                image[key] = image.get(key, 0) + incidence
        return {key: v for key, v in image.items() if v}

    return differential


def almost_extreme_generators(diagram: Diagram) -> dict:
    """Generators of the almost-extreme column, by the closed characterization.

    For an A-adequate diagram these are the all-A states with exactly one
    negative circle, plus, for each non-empty B-set of size r, the
    all-positive states whose resolution has |all-A circles| + r - 2
    circles.  Must coincide with the census of the column.
    """
    if not is_a_adequate(diagram):
        raise ValueError("almost-extreme characterization needs an A-adequate diagram")
    c = diagram.crossing_count
    all_a = resolve(diagram, State.all_a(c)).circles
    per_i = {c: [(0, frozenset({name})) for name in all_a]}
    for mask in range(1, 1 << c):
        r = mask.bit_count()
        if resolve(diagram, mask_state(c, mask)).circle_count == len(all_a) + r - 2:
            per_i.setdefault(c - 2 * r, []).append((mask, frozenset()))
    return per_i


# --- fixture generators ------------------------------------------------------


def braid_pd(word, strands: int) -> Diagram:
    """Trace closure of a braid word; +k is sigma_k (left strand under)."""
    counter = [0]

    def fresh():
        counter[0] += 1
        return counter[0]

    top = [fresh() for _ in range(strands)]
    cur = list(top)
    crossings = []
    for g in word:
        k = abs(g) - 1
        in_left, in_right = cur[k], cur[k + 1]
        out_left, out_right = fresh(), fresh()
        if g > 0:
            crossings.append((in_left, out_left, out_right, in_right))
        else:
            crossings.append((in_right, in_left, out_left, out_right))
        cur[k], cur[k + 1] = out_left, out_right
    ident = {cur[s]: top[s] for s in range(strands)}

    def rep(a):
        while a in ident:
            a = ident[a]
        return a

    return Diagram(tuple(tuple(rep(e) for e in q) for q in crossings))


def rotation_pd(rotation: dict) -> Diagram:
    """Alternating-style diagram from a rotation system; its all-A graph is the input graph.

    rotation maps vertex -> cyclic list of edge ids; each edge id occurs at
    exactly two positions overall.  Crossings come in sorted edge-id order.
    """
    arc_ids: dict = {}

    def arc(vertex, gap):
        return arc_ids.setdefault((vertex, gap), len(arc_ids) + 1)

    incidences: dict = {}
    for v, rot in rotation.items():
        for pos, e in enumerate(rot):
            incidences.setdefault(e, []).append((v, pos))
    quads = []
    for e in sorted(incidences):
        (u, pu), (v, pv) = incidences[e]
        du, dv = len(rotation[u]), len(rotation[v])
        quads.append(
            (arc(u, (pu - 1) % du), arc(u, pu), arc(v, (pv - 1) % dv), arc(v, pv))
        )
    return Diagram(tuple(quads))


def torus_two_strand(q: int) -> Diagram:
    """Standard diagram of the (2, q) torus link: two vertices, q parallel edges."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return rotation_pd({"u": list(range(q)), "w": list(reversed(range(q)))})


def component_count(diagram: Diagram) -> int:
    """Link components, by following strands straight through each crossing."""
    if diagram.crossing_count == 0:
        return 1
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for (a, b, c, d) in diagram.crossings:
        union(a, c)
        union(b, d)
    return len({find(a) for a in diagram.arc_ids()})


# --- exhaustive multigraph enumeration ---------------------------------------


def connected_multigraphs(max_edges: int):
    """All loopless connected multigraphs with at most max_edges edges, up to iso.

    Yields (vertex_count, edges) with vertices 0..v-1 and edges as a sorted
    tuple of sorted pairs.  Includes the single-vertex edgeless graph.
    """
    yield (1, ())
    for v in range(2, max_edges + 2):
        pairs = list(combinations(range(v), 2))
        seen = set()
        for e in range(max(1, v - 1), max_edges + 1):
            for multi in combinations_with_replacement(pairs, e):
                if not _spanning_connected(v, multi):
                    continue
                canon = _canonical_form(v, multi)
                if canon in seen:
                    continue
                seen.add(canon)
                yield (v, canon)


def _spanning_connected(v: int, edges) -> bool:
    adj = {i: set() for i in range(v)}
    touched = set()
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
        touched.update((a, b))
    if len(touched) != v:
        return False
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == v


def _canonical_form(v: int, edges) -> tuple:
    best = None
    for perm in permutations(range(v)):
        relabeled = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
        if best is None or relabeled < best:
            best = relabeled
    return best


# --- cell-structure oracle ----------------------------------------------------


def xd_oracle(graph: StateGraph) -> PartialPresimplicialSet:
    """The cell structure of a loopless connected graph, by filtering every edge subset.

    Keeps each strictly increasing (k+1)-tuple whose complement joins a
    single vertex pair, and each face that drops an edge of that pair.
    Exponential in the edge count; the reference for ``build_xd``.  The
    faces are written by name into the JSON form and parsed from there, so
    no face position is computed here.
    """
    c = graph.edge_count
    if c == 0:
        return EMPTY_PPS
    n = c - 1
    pairs = [frozenset(e) for e in graph.edges]
    cells = {str(n): [format_vertex(v) for v in graph.vertices]}
    levels = {}
    for k in range(n):
        levels[k] = [
            combo
            for combo in combinations(range(c), k + 1)
            if len({pairs[i] for i in range(c) if i not in combo}) == 1
        ]
        cells[str(k)] = [tuple_cell_id(t) for t in levels[k]]
    faces = {}
    top = {}
    for vertex in graph.vertices:
        fmap = {
            str(i): tuple_cell_id(tuple(e for e in range(c) if e != i))
            for i in range(c)
            if vertex in graph.edges[i]
        }
        if fmap and n >= 1:
            top[format_vertex(vertex)] = fmap
    if top:
        faces[str(n)] = top
    for k in range(1, n):
        per_cell = {}
        for combo in levels[k]:
            (common,) = {pairs[i] for i in range(c) if i not in combo}
            fmap = {
                str(i): tuple_cell_id(combo[:i] + combo[i + 1:])
                for i, e in enumerate(combo)
                if pairs[e] == common
            }
            if fmap:
                per_cell[tuple_cell_id(combo)] = fmap
        if per_cell:
            faces[str(k)] = per_cell
    return pps_from_json_dict({"top_dim": n, "cells": cells, "faces": faces})


# --- malformed PPS JSON -------------------------------------------------------

# label -> (document, the key its error message must name)
MALFORMED_PPS = {
    "cells-not-an-object": ({"top_dim": 0, "cells": ["v"]}, "'cells'"),
    "faces-not-an-object": ({"top_dim": 0, "cells": {"0": ["v"]}, "faces": ["x"]}, "'faces'"),
    "dimension-not-an-integer": ({"top_dim": 0, "cells": {"x": ["v"]}}, "'x'"),
    "dimension-missing": ({"top_dim": 1, "cells": {"0": ["v"]}}, "'cells'"),
    "face-index-not-an-integer": (
        {"top_dim": 1, "cells": {"0": ["v"], "1": ["e"]}, "faces": {"1": {"e": {"x": "v"}}}},
        "'x'",
    ),
    "face-target-not-a-string": (
        {"top_dim": 1, "cells": {"0": ["7"], "1": ["e"]}, "faces": {"1": {"e": {"0": 7}}}},
        "['0']",
    ),
    "top-dim-not-an-integer": ({"top_dim": 1.7, "cells": {"0": ["v"], "1": ["e"]}}, "'top_dim'"),
}


# --- SNF oracle ---------------------------------------------------------------


def _det(matrix) -> int:
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for col in range(n):
        if matrix[0][col]:
            minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
            total += (-1) ** col * matrix[0][col] * _det(minor)
    return total


def snf_minor_gcd(dense) -> tuple[int, ...]:
    """Invariant factors via gcds of k x k minors: d_1...d_k = gcd(minors_k).

    Exponential in the matrix size; use on small matrices only.
    """
    rows = len(dense)
    cols = len(dense[0]) if rows else 0
    gcds = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[dense[r][c] for c in csel] for r in rsel]
                g = math.gcd(g, _det(sub))
        if g == 0:
            break
        gcds.append(g)
    factors = []
    prev = 1
    for g in gcds:
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def homology_minor_gcd(complex_) -> dict:
    """Homology per degree from ``snf_minor_gcd`` of each boundary on its own.

    The per-degree formula with no cancellation across the complex: free
    rank = rank - rank(out) - rank(in), torsion = the incoming factors > 1.
    Exponential like its oracle; use on complexes of a few generators.
    """
    step = complex_.step

    def factors(k):
        if k not in complex_.boundaries:
            return ()
        return snf_minor_gcd(complex_.boundaries[k].to_rows())

    groups = {}
    for k, n in complex_.ranks.items():
        incoming = factors(k + step)
        free = n - len(factors(k)) - len(incoming)
        groups[k] = AbelianGroup(free, tuple(t for t in incoming if t > 1))
    return groups


def invariant_factors(orders) -> tuple[int, ...]:
    """Invariant factors t1 | t2 | ... of the direct sum of Z/t over ``orders``.

    Each order is split into prime powers; the i-th largest power of every
    prime goes into the i-th factor from the end.
    """
    exponents: dict[int, list[int]] = {}
    for t in orders:
        p = 2
        while t > 1:
            e = 0
            while t % p == 0:
                t //= p
                e += 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
    length = max((len(es) for es in exponents.values()), default=0)
    factors = [1] * length
    for p, es in exponents.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            factors[length - 1 - i] *= p**e
    return tuple(factors)
