"""Framed Khovanov complex of an unoriented diagram, one quantum column at a time.

Generators are enhanced states: a Kauffman state plus a sign on each circle
of its resolution.  The differential flips a single crossing from A to B,
keeps signs on untouched circles, and follows the merge/split sign rules
that preserve j; its incidence sign is (-1)^k with k the number of
B-labels after the flipped crossing.  Homological degree i drops by 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .diagram import ArcEnd, Diagram, Resolution, State, arc_partners, resolve
from .homology import (
    AbelianGroup,
    IntegerChainComplex,
    IntMatrix,
    homology,
    nonzero_groups,
)
from .state_graph import is_a_adequate

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


@dataclass(frozen=True)
class EnhancedState:
    """A Kauffman state plus the set of its negatively signed circles."""

    state: State
    negative_circles: frozenset

    def sign_map(self, diagram: Diagram) -> dict[ArcEnd, int]:
        res = resolve(diagram, self.state)
        return {name: -1 if name in self.negative_circles else 1 for name in res.circles}


def gradings(diagram: Diagram, enhanced: EnhancedState) -> tuple[int, int]:
    """(i, j) of an enhanced state: i = #A - #B, j = i + 2 * (sum of signs)."""
    res = resolve(diagram, enhanced.state)
    stray = enhanced.negative_circles - set(res.circles)
    if stray:
        raise ValueError(f"signs refer to unknown circles: {sorted(stray)}")
    i = enhanced.state.sigma()
    tau = res.circle_count - 2 * len(enhanced.negative_circles)
    return i, i + 2 * tau


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
#
# A generator is (mask, negatives): bit x of mask set means a B-label at
# crossing x; negatives is the frozenset of negatively signed circle names.


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


@lru_cache(maxsize=1)
def _context(diagram: Diagram) -> _Ctx:
    """The ``_Ctx`` of the last diagram asked for, so the cube walks of one command share it."""
    return _Ctx(diagram)


def _gen_sort_key(ctx: _Ctx, gen):
    mask, negs = gen
    res = ctx.res(mask)
    bits = tuple(x for x in range(ctx.c) if mask >> x & 1)
    signs = tuple(-1 if name in negs else 1 for name in res.circles)
    return (bits, signs)


def _census_all(ctx: _Ctx) -> dict[tuple[int, int], list]:
    """Every enhanced state, grouped by (i, j), canonically ordered."""
    table: dict[tuple[int, int], list] = {}
    c = ctx.c
    for mask in range(1 << c):
        res = ctx.res(mask)
        sigma = c - 2 * mask.bit_count()
        count = res.circle_count
        for neg_count in range(count + 1):
            j = sigma + 2 * (count - 2 * neg_count)
            bucket = table.setdefault((sigma, j), [])
            for combo in combinations(res.circles, neg_count):
                bucket.append((mask, frozenset(combo)))
    for key in table:
        table[key].sort(key=lambda g: _gen_sort_key(ctx, g))
    return table


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
    for i in per_i:
        per_i[i].sort(key=lambda g: _gen_sort_key(ctx, g))
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


def _materialize(ctx: _Ctx, gen) -> EnhancedState:
    mask, negs = gen
    bits = [x for x in range(ctx.c) if mask >> x & 1]
    return EnhancedState(State.from_b_indices(ctx.c, bits), negs)


@dataclass
class GradedComplexColumn:
    """One quantum grading j of the complex: generators and differentials by i."""

    j: int
    generators: dict[int, tuple[EnhancedState, ...]]
    boundaries: dict[int, IntMatrix]

    def complex(self) -> IntegerChainComplex:
        ranks = {i: len(gens) for i, gens in self.generators.items()}
        return IntegerChainComplex(ranks=ranks, boundaries=dict(self.boundaries), step=2)


def build_column(diagram: Diagram, j: int, brute_force: bool = False) -> GradedComplexColumn:
    """Assemble the degree-(-2) complex of all enhanced states with quantum grading j.

    The states are found by a pruned walk of the cube (``_census_column``),
    so the cost follows the size of the column, not 2^c; resolutions come
    from the diagram's shared ``_Ctx``.  ``brute_force`` enumerates every
    enhanced state of the diagram and filters, instead of walking and
    solving the tau constraint per state; it exists as the oracle for the
    constrained enumeration and must agree with it.
    """
    ctx = _context(diagram)
    if brute_force:
        per_i = {ik[0]: gens for ik, gens in _census_all(ctx).items() if ik[1] == j}
    else:
        per_i = _census_column(ctx, j)
    generators = {}
    boundaries = {}
    for i in sorted(per_i, reverse=True):
        generators[i] = tuple(_materialize(ctx, g) for g in per_i[i])
        if per_i.get(i - 2):
            boundaries[i] = _boundary(ctx, per_i[i], per_i[i - 2])
        elif per_i[i]:
            boundaries[i] = IntMatrix(0, len(per_i[i]))
    return GradedComplexColumn(j=j, generators=generators, boundaries=boundaries)


def almost_extreme_generators(diagram: Diagram) -> dict[int, tuple[EnhancedState, ...]]:
    """Generators of the almost-extreme column, by the closed characterization.

    For an A-adequate diagram these are the all-A states with exactly one
    negative circle, plus, for each non-empty B-set of size r, the
    all-positive states whose resolution has |all-A circles| + r - 2
    circles.  Must coincide with the brute-force census of the column.
    """
    if not is_a_adequate(diagram):
        raise ValueError("almost-extreme characterization needs an A-adequate diagram")
    ctx = _context(diagram)
    c = ctx.c
    circles_a = ctx.res(0).circle_count
    per_i: dict[int, list] = {}
    per_i[c] = [(0, frozenset({name})) for name in ctx.res(0).circles]
    for mask in range(1, 1 << c):
        r = mask.bit_count()
        if ctx.res(mask).circle_count == circles_a + r - 2:
            per_i.setdefault(c - 2 * r, []).append((mask, frozenset()))
    out = {}
    for i in sorted(per_i, reverse=True):
        gens = sorted(per_i[i], key=lambda g: _gen_sort_key(ctx, g))
        out[i] = tuple(_materialize(ctx, g) for g in gens)
    return out


def kauffman_bracket(diagram: Diagram) -> LaurentPoly:
    """State sum over all Kauffman states: sum of A^sigma * d^circles.

    Normalization: the bracket of the unknot diagram is d = -A^2 - A^-2,
    so this equals d times the usual bracket and matches the generator
    count identity sum (-1)^((j-i)/2) rank C_{i,j} A^j.
    """
    ctx = _context(diagram)
    c = ctx.c
    powers: dict[int, LaurentPoly] = {0: LaurentPoly({0: 1})}

    def loop_power(n: int) -> LaurentPoly:
        if n not in powers:
            powers[n] = loop_power(n - 1) * LOOP_VALUE
        return powers[n]

    total = LaurentPoly.zero()
    for mask in range(1 << c):
        sigma = c - 2 * mask.bit_count()
        total = total + LaurentPoly.monomial(1, sigma) * loop_power(ctx.res(mask).circle_count)
    return total


def generator_rank_table(diagram: Diagram, limit: int | None = DEFAULT_TABLE_LIMIT) -> dict:
    """Number of enhanced states per (i, j), counted per state without building them.

    A state with ``circles`` circles and B-count r has comb(circles, n)
    enhancements with n negative circles, all at i = c - 2r and
    j = i + 2 * (circles - 2n).
    """
    _check_limit(diagram, limit)
    ctx = _context(diagram)
    c = ctx.c
    table: dict[tuple[int, int], int] = {}
    for mask in range(1 << c):
        sigma = c - 2 * mask.bit_count()
        circles = ctx.res(mask).circle_count
        for negatives in range(circles + 1):
            key = (sigma, sigma + 2 * (circles - 2 * negatives))
            table[key] = table.get(key, 0) + math.comb(circles, negatives)
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
) -> dict[tuple[int, int], AbelianGroup]:
    """Every non-trivial framed homology group of the diagram, keyed by (i, j)."""
    _check_limit(diagram, limit)
    ctx = _context(diagram)
    census = _census_all(ctx)
    js = sorted({j for (_i, j) in census})
    table: dict[tuple[int, int], AbelianGroup] = {}
    for j in js:
        per_i = {i: gens for (i, jj), gens in census.items() if jj == j}
        ranks = {i: len(g) for i, g in per_i.items()}
        boundaries = {
            i: _boundary(ctx, per_i[i], per_i[i - 2]) for i in per_i if per_i.get(i - 2)
        }
        groups = homology(IntegerChainComplex(ranks=ranks, boundaries=boundaries, step=2))
        for i, g in nonzero_groups(groups).items():
            table[(i, j)] = g
    return table


def shift_table(table: dict, di: int, dj: int) -> dict:
    """Re-key a (i, j)-indexed table by (i + di, j + dj)."""
    return {(i + di, j + dj): v for (i, j), v in table.items()}


def _check_limit(diagram: Diagram, limit: int | None) -> None:
    if limit is not None and diagram.crossing_count > limit:
        raise TableSizeError(
            f"diagram has {diagram.crossing_count} crossings, table mode is capped at "
            f"{limit} (the state count grows as 2^c); raise the bound explicitly to proceed"
        )
