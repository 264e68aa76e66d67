"""Framed Khovanov complex of an unoriented diagram, one quantum column at a time.

Generators are enhanced states: a Kauffman state plus a sign on each circle
of its resolution, kept as the plain pair (mask, negatives).  Bit x of mask
set means a B-label at crossing x; negatives is the frozenset of the names
of the negatively signed circles.  Generators stay in the order the cube
walk meets them, since homology does not depend on the order of a basis.
The differential flips a single crossing from A to B, keeps signs on
untouched circles, and follows the merge/split sign rules that preserve j;
its incidence sign is (-1)^k with k the number of B-labels after the
flipped crossing.  Homological degree i drops by 2.

``build_column``, ``full_homology_table``, ``kauffman_bracket`` and
``generator_rank_table`` each build a ``_Ctx`` of their own and walk the
cube at most once; nothing is cached between calls.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .diagram import ArcEnd, Diagram, Resolution, State, arc_partners, resolve
from .homology import (
    AbelianGroup,
    IntegerChainComplex,
    IntMatrix,
    homology,
    nonzero_groups,
)

#: Full-table mode refuses larger diagrams unless told otherwise.
DEFAULT_TABLE_LIMIT = 14


class TableSizeError(ValueError):
    """Diagram exceeds the configured full-table size bound."""


class LaurentPoly:
    """Laurent polynomial in one variable A with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    @classmethod
    def monomial(cls, coefficient: int, exponent: int) -> "LaurentPoly":
        return cls({exponent: coefficient})

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("only non-negative powers")
        result = LaurentPoly({0: 1})
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def coefficient(self, exponent: int) -> int:
        return self.coeffs.get(exponent, 0)

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
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
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"


#: The unknot value of the bracket state sum: d = -A^2 - A^-2.
LOOP_VALUE = LaurentPoly({2: -1, -2: -1})


def j_extremes(diagram: Diagram) -> tuple[int, int]:
    """(j_max, j_almax): c + 2|all-A circles| and four less."""
    res = resolve(diagram, State.all_a(diagram.crossing_count))
    j_max = diagram.crossing_count + 2 * res.circle_count
    return j_max, j_max - 4


def framed_to_oriented(i: int, j: int, writhe: int) -> tuple[int, int]:
    """Convert framed gradings to oriented ones for a diagram of given writhe."""
    if (writhe - i) % 2 or (3 * writhe - j) % 2:
        raise ValueError(
            f"parity violation: (i, j, writhe) = ({i}, {j}, {writhe}) "
            "needs writhe = i (mod 2) and 3*writhe = j (mod 2)"
        )
    return (writhe - i) // 2, (3 * writhe - j) // 2


# -- internal enhanced-state machinery ---------------------------------------


# slot -> the slot an A- or a B-smoothing joins it to (A: {0,1},{2,3}; B: {0,3},{1,2})
_A_SLOT = (1, 0, 3, 2)
_B_SLOT = (3, 2, 1, 0)


class _Ctx:
    """Resolutions of one diagram indexed by B-label bitmask, each derived from its parent.

    The all-A mask 0 is resolved by ``resolve``.  Any other mask is its
    parent, the mask minus its highest bit, with that one crossing flipped
    from A to B.  Only the circles through the flipped crossing change (two
    merge, or one splits, or on non-planar data one stays one), so only
    they are retraced, alternately along smoothings and arcs.  The arc
    pairing is computed once, here.
    """

    def __init__(self, diagram: Diagram):
        self.diagram = diagram
        self.c = diagram.crossing_count
        arc = arc_partners(diagram)
        # per label (A, B): arc end -> (end its smoothing joins it to, next end along the arc)
        self._via = tuple(
            {end: ((end[0], slots[end[1]]), arc[(end[0], slots[end[1]])]) for end in arc}
            for slots in (_A_SLOT, _B_SLOT)
        )
        self._res: dict[int, Resolution] = {0: resolve(diagram, State.all_a(self.c))}

    def res(self, mask: int) -> Resolution:
        r = self._res.get(mask)
        if r is None:
            top = mask.bit_length() - 1
            r = self._flip(self.res(mask ^ (1 << top)), mask, top)
            self._res[mask] = r
        return r

    def _trace(self, mask: int, start: ArcEnd) -> list[ArcEnd]:
        """Arc ends of the circle through ``start`` in the resolution of ``mask``."""
        via_a, via_b = self._via
        ends = []
        end = start
        while True:
            joined, end_after = (via_b if mask >> end[0] & 1 else via_a)[end]
            ends.append(end)
            ends.append(joined)
            end = end_after
            if end == start:
                return ends

    def _flip(self, parent: Resolution, mask: int, x: int) -> Resolution:
        """Resolution of ``mask`` from that of ``parent``, where crossing x was A."""
        end_circle = dict(parent.end_circle)
        circles = set(parent.circles)
        circles.discard(end_circle[(x, 0)])
        circles.discard(end_circle[(x, 2)])
        loops = [self._trace(mask, (x, 0))]
        if (x, 1) not in loops[0]:  # the circle through x split in two
            loops.append(self._trace(mask, (x, 1)))
        for ends in loops:
            name = min(ends)  # circles are named by their least arc end
            circles.add(name)
            for end in ends:
                end_circle[end] = name
        chords = tuple(
            (end_circle[(ci, 0)], end_circle[(ci, 2)], "B" if mask >> ci & 1 else "A")
            for ci in range(self.c)
        )
        return Resolution(circles=tuple(sorted(circles)), chords=chords, end_circle=end_circle)


def _census_column(ctx: _Ctx, j: int) -> dict[int, list]:
    """Enhanced states with the given j, grouped by i, via the tau constraint.

    The masks are walked depth-first from all-A, each extended only by bits
    above its highest one, so every mask is reached once, through its
    parent.  A mask with deficit ``|all-A circles| + |mask| - #circles``
    carries no j above ``j_max - 2 * deficit``.  One flip adds at most one
    circle, so the deficit never drops from a mask to a superset, and a
    mask whose deficit already rules out j is cut together with everything
    above it.  The walk thus costs the column times c, not 2^c.
    """
    per_i: dict[int, list] = {}
    c = ctx.c
    circles_a = ctx.res(0).circle_count
    slack = c + 2 * circles_a - j  # j_max - j
    stack = [0]
    while stack:
        mask = stack.pop()
        res = ctx.res(mask)
        r = mask.bit_count()
        if 2 * (circles_a + r - res.circle_count) > slack:
            continue
        stack.extend(mask | (1 << x) for x in range(mask.bit_length(), c))
        sigma = c - 2 * r
        if (j - sigma) % 2:
            continue
        tau = (j - sigma) // 2
        doubled = res.circle_count - tau
        if doubled % 2 or not 0 <= doubled <= 2 * res.circle_count:
            continue
        neg_count = doubled // 2
        bucket = per_i.setdefault(sigma, [])
        for combo in combinations(res.circles, neg_count):
            bucket.append((mask, frozenset(combo)))
    return per_i


def _boundary(ctx: _Ctx, sources: list, targets: list) -> IntMatrix:
    """Matrix of the differential from the ``sources`` block to ``targets``."""
    target_index = {gen: r for r, gen in enumerate(targets)}
    mat = IntMatrix(len(targets), len(sources))
    c = ctx.c
    for col, (mask, negs) in enumerate(sources):
        res_s = ctx.res(mask)
        for x in range(c):
            if mask >> x & 1:
                continue
            incidence = -1 if (mask >> (x + 1)).bit_count() & 1 else 1
            tmask = mask | (1 << x)
            cs0 = res_s.end_circle[(x, 0)]
            cs2 = res_s.end_circle[(x, 2)]
            if cs0 != cs2:
                # two circles merge; a (+,+) pair admits no j-preserving sign
                n0, n2 = cs0 in negs, cs2 in negs
                if not n0 and not n2:
                    continue
                common = negs - {cs0, cs2}
                if n0 and n2:
                    common = common | {ctx.res(tmask).end_circle[(x, 0)]}
                images = (common,)
            else:
                # one circle splits; a negative circle splits two ways
                res_t = ctx.res(tmask)
                ct0 = res_t.end_circle[(x, 0)]
                ct2 = res_t.end_circle[(x, 2)]
                common = negs - {cs0}
                if cs0 in negs:
                    images = (common | {ct0}, common | {ct2})
                else:
                    images = (common,)
            for image in images:
                mat.add(target_index[(tmask, image)], col, incidence)
    return mat


@dataclass
class GradedComplexColumn:
    """One quantum grading j of the complex: generators and differentials by i."""

    j: int
    generators: dict[int, list[tuple[int, frozenset]]]
    boundaries: dict[int, IntMatrix]

    def complex(self) -> IntegerChainComplex:
        ranks = {i: len(gens) for i, gens in self.generators.items()}
        return IntegerChainComplex(ranks=ranks, boundaries=dict(self.boundaries), step=2)


def build_column(diagram: Diagram, j: int) -> GradedComplexColumn:
    """Assemble the degree-(-2) complex of all enhanced states with quantum grading j.

    The generators are found by a pruned walk of the cube
    (``_census_column``), so the cost follows the size of the column, not
    2^c.  They stay (mask, negatives) pairs in the order the walk meets
    them; the resolutions come from a ``_Ctx`` of this call's own.
    """
    ctx = _Ctx(diagram)
    per_i = _census_column(ctx, j)
    generators = {}
    boundaries = {}
    for i in sorted(per_i, reverse=True):
        generators[i] = per_i[i]
        if per_i.get(i - 2):
            boundaries[i] = _boundary(ctx, per_i[i], per_i[i - 2])
        elif per_i[i]:
            boundaries[i] = IntMatrix(0, len(per_i[i]))
    return GradedComplexColumn(j=j, generators=generators, boundaries=boundaries)


def _histogram(ctx: _Ctx) -> Counter:
    """Number of masks per (sigma, circles): all that ranks and the bracket need."""
    c = ctx.c
    return Counter(
        (c - 2 * mask.bit_count(), ctx.res(mask).circle_count) for mask in range(1 << c)
    )


def _bracket(histogram: Counter) -> LaurentPoly:
    """Sum of masks * A^sigma * d^circles over a ``_histogram``."""
    total = LaurentPoly.zero()
    for (sigma, circles), masks in histogram.items():
        total = total + LaurentPoly.monomial(masks, sigma) * LOOP_VALUE**circles
    return total


def kauffman_bracket(diagram: Diagram) -> LaurentPoly:
    """State sum over all Kauffman states: sum of A^sigma * d^circles.

    Normalization: the bracket of the unknot diagram is d = -A^2 - A^-2,
    so this equals d times the usual bracket and matches the generator
    count identity sum (-1)^((j-i)/2) rank C_{i,j} A^j.
    """
    return _bracket(_histogram(_Ctx(diagram)))


def generator_rank_table(diagram: Diagram, limit: int | None = DEFAULT_TABLE_LIMIT) -> dict:
    """Number of enhanced states per (i, j), counted per state without building them.

    A state with ``circles`` circles and B-count r has comb(circles, n)
    enhancements with n negative circles, all at i = c - 2r and
    j = i + 2 * (circles - 2n).
    """
    _check_limit(diagram, limit)
    table: dict[tuple[int, int], int] = {}
    for (sigma, circles), masks in _histogram(_Ctx(diagram)).items():
        for negatives in range(circles + 1):
            key = (sigma, sigma + 2 * (circles - 2 * negatives))
            table[key] = table.get(key, 0) + masks * math.comb(circles, negatives)
    return table


def euler_polynomial(table: dict) -> LaurentPoly:
    """sum (-1)^((j-i)/2) * rank * A^j over a table of ranks or groups."""
    total = LaurentPoly.zero()
    for (i, j), value in table.items():
        r = value.free_rank if isinstance(value, AbelianGroup) else int(value)
        sign = -1 if ((j - i) // 2) % 2 else 1
        total = total + LaurentPoly.monomial(sign * r, j)
    return total


def column_homology(diagram: Diagram, j: int) -> dict[tuple[int, int], AbelianGroup]:
    """Non-trivial homology groups of one quantum column, keyed by (i, j)."""
    column = build_column(diagram, j)
    groups = homology(column.complex())
    return {(i, j): g for i, g in nonzero_groups(groups).items()}


def full_homology_table(
    diagram: Diagram, limit: int | None = DEFAULT_TABLE_LIMIT
) -> tuple[dict[tuple[int, int], AbelianGroup], LaurentPoly]:
    """Every non-trivial framed homology group, keyed by (i, j), and the bracket.

    One walk of the cube resolves each mask once and files every enhanced
    state under its (j, i) in enumeration order; the same walk counts the
    masks per (sigma, circles), from which the Kauffman bracket follows.
    """
    _check_limit(diagram, limit)
    ctx = _Ctx(diagram)
    c = ctx.c
    columns: dict[int, dict[int, list]] = {}
    histogram: Counter = Counter()
    for mask in range(1 << c):
        res = ctx.res(mask)
        sigma = c - 2 * mask.bit_count()
        count = res.circle_count
        histogram[sigma, count] += 1
        for negatives in range(count + 1):
            j = sigma + 2 * (count - 2 * negatives)
            bucket = columns.setdefault(j, {}).setdefault(sigma, [])
            for combo in combinations(res.circles, negatives):
                bucket.append((mask, frozenset(combo)))
    table: dict[tuple[int, int], AbelianGroup] = {}
    for j in sorted(columns):
        per_i = columns[j]
        ranks = {i: len(g) for i, g in per_i.items()}
        boundaries = {
            i: _boundary(ctx, per_i[i], per_i[i - 2]) for i in per_i if per_i.get(i - 2)
        }
        groups = homology(IntegerChainComplex(ranks=ranks, boundaries=boundaries, step=2))
        for i, g in nonzero_groups(groups).items():
            table[(i, j)] = g
    return table, _bracket(histogram)


def shift_table(table: dict, di: int, dj: int) -> dict:
    """Re-key a (i, j)-indexed table by (i + di, j + dj)."""
    return {(i + di, j + dj): v for (i, j), v in table.items()}


def _check_limit(diagram: Diagram, limit: int | None) -> None:
    if limit is not None and diagram.crossing_count > limit:
        raise TableSizeError(
            f"diagram has {diagram.crossing_count} crossings, table mode is capped at "
            f"{limit} (the state count grows as 2^c); raise the bound explicitly to proceed"
        )
