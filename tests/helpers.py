"""Shared test machinery: independent oracles and fixture generators.

The resolution oracle finds circles by a union-find over arc ends, where
the package traces them; the circle-count oracle counts the cycles of a
composed permutation; the SNF oracles recover invariant factors from
gcds of k x k minors, and by a dense least-entry algorithm run modulo
the determinant of a non-singular rank x rank minor.  All are
deliberately different algorithms from the ones inside the package, and
each writes down the smoothing convention on its own.  The
enhanced-state oracles resolve every state from scratch with
``resolve``, never through the package's incremental resolution store;
the reference differential resolves with the union-find and writes the
merge/split sign rules down on its own.  ``compose`` multiplies two
sparse matrices entry by entry: the d∘d oracle for complexes that the
package certifies without a product, and ``unsigned_flips`` breaks d∘d
by forcing every incidence of a mask's flip data to +1.  ``push_arc_over`` is
a Reidemeister II move across a face traced as in ``face_count``, for
invariance checks of the full table.  The last sections keep earlier forms
of inner loops as oracles for the faster ones: of the table, the census
that scans every mask per column, the square check with no memo of
squares, and the unit cancellation that runs a Schur update after every
pivot; of ``analyze``, the cut walk that traces every child of a kept
mask from scratch before it judges it, and the face-axiom check over
every pair of faces.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, combinations_with_replacement, permutations

from almax.diagram import (
    Diagram,
    DiagramError,
    State,
    add_positive_kink,
    resolve,
    step_table,
    trace_state,
)
from almax.homology import AbelianGroup, ChainComplexError, IntMatrix
from almax.khovanov import _square_commutes
from almax.presimplicial import (
    EMPTY_PPS,
    AxiomViolation,
    PartialPresimplicialSet,
    pps_from_json_dict,
)
from almax.state_graph import StateGraph, is_a_adequate
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


def union_find_resolution(diagram: Diagram, state: State) -> tuple[tuple[int, ...], list[int]]:
    """(circles, end_circle) of ``state`` by a disjoint-set union over arc ends (crossing, slot).

    The two ends of each arc are unified, and at each crossing every slot
    with the slot its label's smoothing joins it to.  A union keeps the
    smaller root, so each circle is named by its least arc end, as in
    ``resolve``; the result speaks the package's names, the arc end
    (x, slot) as the integer 4x + slot and the unknot's one circle as 0.
    """
    c = diagram.crossing_count
    if c == 0:
        return (0,), []
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
    end_circle = [4 * x + slot for x, slot in (find(end) for end in sorted(parent))]
    return tuple(sorted(set(end_circle))), end_circle


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


def faces(diagram: Diagram) -> list[list]:
    """Faces of the PD rotation system: cycles of dart -> arc partner -> next slot.

    A dart is an arc end (crossing, slot); the slots of a crossing are in
    counterclockwise order.  Each face is the list of darts it leaves
    along its boundary arcs, and the walk keeps the face on its right.
    """
    partner = arc_partner(diagram)
    seen = set()
    found = []
    for start in partner:
        if start in seen:
            continue
        face = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            face.append(cur)
            ci, slot = partner[cur]
            cur = (ci, (slot + 1) % 4)
        found.append(face)
    return found


def face_count(diagram: Diagram) -> int:
    """Number of ``faces``; the unknot has two.

    With V = c crossings and E = 2c arcs, Euler's formula V - E + F = 2
    says the diagram is planar iff F = c + 2.
    """
    if diagram.crossing_count == 0:
        return 2
    return len(faces(diagram))


def push_arc_over(diagram: Diagram, over, under) -> Diagram:
    """Reidemeister II: push the arc leaving dart ``over`` across a face and over
    the arc leaving dart ``under``.

    Both darts must start boundary arcs of one face of ``faces``, with
    different arc ids.  Walking that face, the arc u -> v (``over``) and
    the arc w -> z (``under``) both have the face on their right.  A finger
    of u -> v crosses the face and passes over w -> z twice: the new
    crossing X1 sits nearer u and z, X2 nearer v and w.  u -> v becomes
    a1 X1 a2 X2 a3 and w -> z becomes b1 X2 b2 X1 b3, and the new
    crossings list their arcs counterclockwise from the under-strand.
    """
    partner = arc_partner(diagram)
    (u, v), (w, z) = (over, partner[over]), (under, partner[under])
    quads = [list(q) for q in diagram.crossings]
    a1, b1 = quads[u[0]][u[1]], quads[w[0]][w[1]]
    if a1 == b1:
        raise ValueError("an arc cannot be pushed over itself")
    top = max(diagram.arc_ids())
    a2, a3, b2, b3 = top + 1, top + 2, top + 3, top + 4
    quads[v[0]][v[1]] = a3
    quads[z[0]][z[1]] = b3
    quads.append([b2, a1, b3, a2])  # X1
    quads.append([b1, a3, b2, a2])  # X2
    return Diagram(tuple(map(tuple, quads)))


def random_reidemeister_two(diagram: Diagram, rng: random.Random) -> Diagram:
    """``push_arc_over`` on two arcs of one face, all chosen by ``rng``."""
    quads = diagram.crossings
    options = []
    for face in faces(diagram):
        for over, under in permutations(face, 2):
            if quads[over[0]][over[1]] != quads[under[0]][under[1]]:
                options.append((over, under))
    return push_arc_over(diagram, *rng.choice(options))


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


def j_extremes(diagram: Diagram) -> tuple[int, int]:
    """(j_max, j_almax): c + 2|all-A circles| and four less, the circles by ``resolve``."""
    circles, _ = resolve(diagram, State.all_a(diagram.crossing_count))
    j_max = diagram.crossing_count + 2 * len(circles)
    return j_max, j_max - 4


def shift_table(table: dict, di: int, dj: int) -> dict:
    """Re-key a (i, j)-indexed table by (i + di, j + dj)."""
    return {(i + di, j + dj): v for (i, j), v in table.items()}


def bracket_oracle(diagram: Diagram) -> dict[int, int]:
    """Kauffman bracket as the state sum of A^sigma * d^circles over ``trace_circle_count``.

    Each d^k = (-A^2 - A^-2)^k is expanded here by the binomial theorem:
    choosing -A^-2 from n of the k factors gives (-1)^k comb(k, n) A^(2k - 4n).
    """
    c = diagram.crossing_count
    coeffs: dict[int, int] = {}
    for mask in range(1 << c):
        k = trace_circle_count(diagram, mask_state(c, mask))
        sigma = c - 2 * mask.bit_count()
        for n in range(k + 1):
            e = sigma + 2 * k - 4 * n
            coeffs[e] = coeffs.get(e, 0) + (-1) ** k * math.comb(k, n)
    return {e: coeff for e, coeff in coeffs.items() if coeff}


# --- enhanced-state oracles ---------------------------------------------------
#
# A generator here is (mask, negatives): bit x of mask set means a B-label at
# crossing x, negatives the frozenset of the names of the negative circles.
# The package keeps negbits, an integer with bit n set for the negative
# circle named n; ``named_generator`` turns one into the other.


def mask_state(c: int, mask: int) -> State:
    return State(tuple("B" if mask >> x & 1 else "A" for x in range(c)))


def sign_map(diagram: Diagram, generator) -> dict:
    """Circle name -> sign of that circle, for every circle of the generator's state."""
    mask, negatives = generator
    circles, _ = resolve(diagram, mask_state(diagram.crossing_count, mask))
    stray = negatives - set(circles)
    if stray:
        raise ValueError(f"signs refer to unknown circles: {sorted(stray)}")
    return {name: -1 if name in negatives else 1 for name in circles}


def gradings(diagram: Diagram, generator) -> tuple[int, int]:
    """(i, j) of a generator: i = #A - #B, j = i + 2 * (sum of signs)."""
    i = diagram.crossing_count - 2 * generator[0].bit_count()
    return i, i + 2 * sum(sign_map(diagram, generator).values())


def enhanced_census(diagram: Diagram) -> dict:
    """Every enhanced state of the diagram, grouped by (i, j)."""
    c = diagram.crossing_count
    census: dict = {}
    for mask in range(1 << c):
        circles, _ = resolve(diagram, mask_state(c, mask))
        i = c - 2 * mask.bit_count()
        for negatives in range(len(circles) + 1):
            bucket = census.setdefault((i, i + 2 * (len(circles) - 2 * negatives)), [])
            bucket.extend((mask, frozenset(combo)) for combo in combinations(circles, negatives))
    return census


def named_generator(generator) -> tuple:
    """A package generator (mask, negbits) as (mask, frozenset of negative circle names)."""
    mask, negbits = generator
    return mask, frozenset(n for n in range(negbits.bit_length()) if negbits >> n & 1)


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
        _, source = resolution(mask)
        image: dict = {}
        for x in range(c):
            if mask >> x & 1:
                continue
            target = mask | 1 << x
            incidence = (-1) ** sum(mask >> y & 1 for y in range(x + 1, c))
            _, ends = resolution(target)
            s0, s2 = source[4 * x], source[4 * x + 2]
            t0, t2 = ends[4 * x], ends[4 * x + 2]
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
    all_a, _ = resolve(diagram, State.all_a(c))
    per_i = {c: [(0, frozenset({name})) for name in all_a]}
    for mask in range(1, 1 << c):
        r = mask.bit_count()
        if len(resolve(diagram, mask_state(c, mask))[0]) == len(all_a) + r - 2:
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


def seeded_kinks(diagram: Diagram, kinks: int, seed: int) -> Diagram:
    """``diagram`` with ``kinks`` positive kinks, each on an arc that ``random.Random(seed)`` picks."""
    rng = random.Random(seed)
    for _ in range(kinks):
        diagram = add_positive_kink(diagram, rng.choice(diagram.arc_ids()))
    return diagram


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
    cells = {str(n): [str(v) for v in graph.vertices]}
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
            top[str(vertex)] = fmap
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


# --- product oracle -----------------------------------------------------------


def compose(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The matrix product a @ b, entry by entry; zero entries are not stored."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    data = {}
    for r, row in a.data.items():
        acc: dict[int, int] = {}
        for k, v in row.items():
            for c, w in b.data.get(k, {}).items():
                acc[c] = acc.get(c, 0) + v * w
        kept = {c: v for c, v in acc.items() if v}
        if kept:
            data[r] = kept
    return IntMatrix(a.rows, b.cols, data)


def compositions_vanish(complex_) -> bool:
    """Whether every d_(k - step) d_k of an ``IntegerChainComplex`` is the zero matrix.

    A boundary the complex does not store is a zero map, so its products vanish.
    """
    boundaries, step = complex_.boundaries, complex_.step
    return all(
        not compose(boundaries[k - step], upper).data
        for k, upper in boundaries.items()
        if k - step in boundaries
    )


def unsigned_flips(out: dict) -> dict:
    """One mask's ``khovanov._mask_flips`` data with every incidence forced to +1."""
    return {x: (1, *flip[1:]) for x, flip in out.items()}


# --- SNF oracles --------------------------------------------------------------


def dense_matrix(dense: list[list[int]]) -> IntMatrix:
    """The ``IntMatrix`` of a list of rows, as wide as the first; a longer row raises IndexError."""
    cols = len(dense[0]) if dense else 0
    if any(len(row) > cols for row in dense):
        raise IndexError(f"a row is longer than the first, which has {cols} entries")
    rows = ({c: v for c, v in enumerate(row) if v} for row in dense)
    return IntMatrix(len(dense), cols, {r: row for r, row in enumerate(rows) if row})


def to_rows(matrix: IntMatrix) -> list[list[int]]:
    """The dense list-of-rows form of an ``IntMatrix``."""
    dense = [[0] * matrix.cols for _ in range(matrix.rows)]
    for r, row in matrix.data.items():
        for c, v in row.items():
            dense[r][c] = v
    return dense


def _rank_and_minor(dense: list[list[int]]) -> tuple[int, int]:
    """Rank r of an integer matrix and |det| of one of its non-singular r x r minors.

    Fraction-free (Bareiss) elimination to row echelon form: every
    intermediate entry is a minor of the input, so the division is exact
    and the numbers stay as small as the minors.
    """
    m = [row[:] for row in dense]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        p = m[r][c]
        top = m[r]
        for i in range(r + 1, nrows):
            row = m[i]
            a = row[c]
            for j in range(c + 1, ncols):
                row[j] = (p * row[j] - a * top[j]) // prev
            row[c] = 0
        prev = p
        r += 1
        if r == nrows:
            break
    return r, abs(prev)


def dense_invariant_factors(dense: list[list[int]]) -> list[int]:
    """Classical SNF on a small dense matrix, modulo D; pivot = least non-zero entry.

    Ties break row-major.  Returns the non-zero invariant factors.  D is
    the |det| of a non-singular rank x rank minor, so d1 * ... * dr
    divides D.  Reducing an entry modulo D adds a vector of the lattice
    D * Z^rows to the column span, whose factors are then gcd(d_i, D) = d_i
    followed by D; every entry stays below D, so the numbers cannot blow up.
    """
    rank, det = _rank_and_minor(dense)
    if det == 1:
        return [1] * rank
    m = [[v % det for v in row] for row in dense]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    factors: list[int] = []
    s = 0
    while s < min(nrows, ncols):
        pivot = None
        best = None
        for r in range(s, nrows):
            for c in range(s, ncols):
                v = m[r][c]
                if v and (best is None or v < best):
                    best, pivot = v, (r, c)
                    if v == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pr, pc = pivot
        m[s], m[pr] = m[pr], m[s]
        for row in m:
            row[s], row[pc] = row[pc], row[s]
        while True:
            p = m[s][s]
            dirty = False
            for r in range(s + 1, nrows):
                if m[r][s]:
                    q = m[r][s] // p
                    if q:
                        for c in range(s, ncols):
                            m[r][c] = (m[r][c] - q * m[s][c]) % det
                    if m[r][s]:  # remainder becomes the new, smaller pivot
                        m[s], m[r] = m[r], m[s]
                        dirty = True
                        break
            if dirty:
                continue
            for c in range(s + 1, ncols):
                if m[s][c]:
                    q = m[s][c] // p
                    if q:
                        for r in range(s, nrows):
                            m[r][c] = (m[r][c] - q * m[r][s]) % det
                    if m[s][c]:
                        for r in range(s, nrows):
                            m[r][s], m[r][c] = m[r][c], m[r][s]
                        dirty = True
                        break
            if not dirty:
                break
        p = m[s][s]
        # enforce divisibility: fold any non-divisible entry into the pivot row
        offender = None
        for r in range(s + 1, nrows):
            for c in range(s + 1, ncols):
                if m[r][c] % p:
                    offender = r
                    break
            if offender is not None:
                break
        if offender is not None:
            for c in range(s, ncols):
                m[s][c] = (m[s][c] + m[offender][c]) % det
            continue
        factors.append(p)
        s += 1
    # the factors of the lattice spanned by the columns and D * Z^rows
    lattice = sorted(math.gcd(f, det) for f in factors) + [det] * (nrows - len(factors))
    return lattice[:rank]


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
        return snf_minor_gcd(to_rows(complex_.boundaries[k]))

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


# --- earlier forms of the table's inner loops ---------------------------------


def scan_census(kept: dict, c: int, j: int) -> dict[int, list]:
    """The generators of column j by i, by a scan of every kept mask for its n.

    A mask holds states of j only for n = (i + 2k - j) / 4 negative circles
    of its k, and only if that is an integer in 0..k; its states are filed
    in walk order.  This is the per-column census that filing the masks by
    j in one pass replaced.
    """
    per_i: dict[int, list] = {}
    for mask, (circles, _) in kept.items():
        i = c - 2 * mask.bit_count()
        k = len(circles)
        negatives, rest = divmod(i + 2 * k - j, 4)
        if not rest and 0 <= negatives <= k:
            bits = [1 << name for name in circles]
            per_i.setdefault(i, []).extend((mask, sum(combo)) for combo in combinations(bits, negatives))
    return per_i


def unmemoised_check_squares(flips: dict) -> None:
    """``khovanov._check_squares`` without its memo of squares by their flip entries.

    Every square is reduced to its configuration (the product of its four
    incidences and which of its 16 circle bits are equal), and each
    configuration is checked once with ``khovanov._square_commutes``.
    """
    verdicts: dict[tuple, bool] = {}
    for mask, out in flips.items():
        pairs = list(out.items())
        for n, (x, fx) in enumerate(pairs):
            above_x = flips[mask | 1 << x]
            for y, fy in pairs[n + 1 :]:
                fxy = above_x[y]
                fyx = flips[mask | 1 << y][x]
                sign = fx[0] * fxy[0] * fy[0] * fyx[0]
                bits = fx[1:] + fxy[1:] + fy[1:] + fyx[1:]
                key = (sign, *map(bits.index, bits))
                verdict = verdicts.get(key)
                if verdict is None:
                    verdict = verdicts[key] = _square_commutes(
                        sign, bits[:4], bits[4:8], bits[8:12], bits[12:]
                    )
                if not verdict:
                    degree = len(out) - mask.bit_count()
                    raise ChainComplexError(f"boundary composition at degree {degree} is non-zero")


def schur_cancel_units(rows: dict, col_rows: dict) -> tuple[list[int], list[int]]:
    """``homology._cancel_units`` with a Schur update after every pivot, singleton rows included.

    Rows are scanned from the last to the first and pivot on the unit whose
    column holds the fewest rows (ties to the lower column); rows where an
    update writes a new unit are scanned again.  Works in place, as the
    package does, and returns (pivot rows, pivot columns).
    """
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    pending = sorted(rows, reverse=True)
    while pending:
        touched: set[int] = set()
        for r0 in pending:
            pivot_row = rows.get(r0)
            if pivot_row is None:
                continue
            units = [(len(col_rows[c]), c) for c, v in pivot_row.items() if v in (1, -1)]
            if not units:
                continue
            c0 = min(units)[1]
            del rows[r0]
            p = pivot_row.pop(c0)
            for c in pivot_row:
                col_rows[c].discard(r0)
            others = col_rows.pop(c0)
            others.discard(r0)
            for r in others:
                row = rows[r]
                factor = row.pop(c0) * p
                for c, beta in pivot_row.items():
                    new = row.get(c, 0) - factor * beta
                    if new:
                        if c not in row:
                            col_rows[c].add(r)
                        row[c] = new
                        if new in (1, -1):
                            touched.add(r)
                    else:
                        del row[c]
                        col_rows[c].discard(r)
                if not row:
                    del rows[r]
            pivot_rows.append(r0)
            pivot_cols.append(c0)
        pending = sorted((r for r in touched if r in rows), reverse=True)
    return pivot_rows, pivot_cols


# --- earlier forms of analyze's inner loops -----------------------------------


def traced_cut_walk(diagram: Diagram, j: int) -> dict:
    """``khovanov._walk(diagram, j)`` with every child traced from scratch before it is judged.

    The same depth-first order from all-A, each mask extended by the bits
    above its highest one, and a mask kept iff 2 * deficit <= j_max - j,
    with deficit = |all-A circles| + |mask| - #circles.  Each mask popped
    is traced whole with ``trace_state``, so no incremental resolution and
    no judgement of a child from its parent is involved; the deficit never
    drops from a mask to a superset, so this is the full walk restricted to
    the masks within the cut.
    """
    steps = step_table(diagram)
    c = diagram.crossing_count
    circles_a = len(trace_state(steps, 0)[0])
    slack = c + 2 * circles_a - j
    kept: dict = {}
    stack = [0]
    while stack:
        mask = stack.pop()
        res = trace_state(steps, mask)
        if 2 * (circles_a + mask.bit_count() - len(res[0])) > slack:
            continue
        kept[mask] = res
        stack.extend(mask | (1 << x) for x in range(mask.bit_length(), c))
    return kept


def all_pairs_validate(pps: PartialPresimplicialSet) -> AxiomViolation | None:
    """``presimplicial.validate_pps`` comparing every pair i < j of every cell's faces.

    The first violation in cell order, then (i, j) in lexicographic order,
    or None.
    """
    for k in range(2, pps.top_dim + 1):
        below = pps.faces[k - 1]
        for cell, fmap in enumerate(pps.faces[k]):
            for i in range(k):
                di = fmap[i]
                for j in range(i + 1, k + 1):
                    dj = fmap[j]
                    left = below[dj][i] if dj is not None else None
                    right = below[di][j - 1] if di is not None else None
                    if left != right:
                        name = lambda t: pps.cells[k - 2][t] if t is not None else None
                        return AxiomViolation(k, pps.cells[k][cell], i, j, name(left), name(right))
    return None
