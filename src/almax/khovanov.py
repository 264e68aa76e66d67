"""Framed Khovanov complex of an unoriented diagram, one quantum column at a time.

Generators are enhanced states: a Kauffman state plus a sign on each circle
of its resolution, kept as the plain integer pair (mask, negbits).  Bit x of
mask set means a B-label at crossing x.  A circle is named by its least arc
end, the integer 4 * crossing + slot (see ``diagram.step_table``), and bit
``name`` of negbits set means that circle is negative, so merges and splits
are bit operations.  Generators stay in the order the cube walk meets them,
since homology does not depend on the order of a basis.
The differential flips a single crossing from A to B, keeps signs on
untouched circles, and follows the merge/split sign rules that preserve j;
its incidence sign is (-1)^k with k the number of B-labels after the
flipped crossing.  Homological degree i drops by 2.

There is one walk of the cube, ``_walk``: depth-first from all-A, each
mask met once and derived from its parent, and it returns the resolutions
of the masks it keeps as a plain dict by mask.  ``build_column`` runs it
with the deficit cut for one j; ``full_homology_table``,
``kauffman_bracket`` and ``generator_rank_table`` run it whole.  ``_census``
files the enhanced states of a walk by (j, i), and ``_histogram`` counts
its masks.  Each call walks once; nothing is cached between calls.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .diagram import (
    Diagram,
    check_planar,
    step_table,
    trace_circle,
    trace_state,
)
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


def framed_to_oriented(i: int, j: int, writhe: int) -> tuple[int, int]:
    """Convert framed gradings to oriented ones for a diagram of given writhe."""
    if (writhe - i) % 2 or (3 * writhe - j) % 2:
        raise ValueError(
            f"parity violation: (i, j, writhe) = ({i}, {j}, {writhe}) "
            "needs writhe = i (mod 2) and 3*writhe = j (mod 2)"
        )
    return (writhe - i) // 2, (3 * writhe - j) // 2


# -- internal enhanced-state machinery ---------------------------------------

#: A resolution inside the direct route: (sorted circle names, circle of each arc end).
_Res = tuple[tuple[int, ...], list[int]]


def _flip(steps: list, parent: _Res, mask: int, x: int) -> _Res:
    """Resolution of ``mask`` from that of ``parent``, the same mask with crossing x A.

    Only the circles through x change (two merge, or one splits, or on
    non-planar data one stays one), so only they are retraced with
    ``trace_circle`` over the step table ``steps``.
    """
    circles, end = parent
    end = end[:]
    gone = (end[4 * x], end[4 * x + 2])
    circles = [name for name in circles if name not in gone]
    loops = [trace_circle(steps, mask, 4 * x)]
    if 4 * x + 1 not in loops[0]:  # the circle through x split in two
        loops.append(trace_circle(steps, mask, 4 * x + 1))
    for ends in loops:
        name = min(ends)  # circles are named by their least arc end
        circles.append(name)
        for e in ends:
            end[e] = name
    circles.sort()
    return tuple(circles), end


def _walk(diagram: Diagram, j: int | None = None) -> dict[int, _Res]:
    """The resolution of each mask the walk keeps, by B-label bitmask, in walk order.

    A resolution is the pair (circles, end) that ``trace_state`` returns:
    the two fields of a ``diagram.Resolution``, kept bare so that no object
    is built per mask.  The one step table is built here and mask 0 is
    traced over it whole.  The walk is depth-first from all-A, and each
    mask is extended only by bits above its highest one, so every mask is
    reached once, from its parent (the mask minus its highest bit), which
    ``_flip`` turns into it.
    With ``j`` given, the walk is cut: a mask with deficit
    ``|all-A circles| + |mask| - #circles`` carries no j above
    ``j_max - 2 * deficit``.  One flip adds at most one circle, so the
    deficit never drops from a mask to a superset, and a mask whose deficit
    already rules out j is dropped together with everything above it.  The
    cut walk thus costs the column times c, not 2^c; without ``j`` it keeps
    all 2^c masks.
    """
    steps = step_table(diagram)
    c = diagram.crossing_count
    root = trace_state(steps, 0)
    circles_a = len(root[0])
    slack = None if j is None else c + 2 * circles_a - j  # j_max - j
    kept: dict[int, _Res] = {}
    stack = [0]
    while stack:
        mask = stack.pop()
        top = mask.bit_length() - 1
        res = _flip(steps, kept[mask ^ (1 << top)], mask, top) if mask else root
        if slack is not None and 2 * (circles_a + mask.bit_count() - len(res[0])) > slack:
            continue
        kept[mask] = res
        stack.extend(mask | (1 << x) for x in range(top + 1, c))
    return kept


def _enhancements(mask: int, circles, negatives: int) -> list[tuple[int, int]]:
    """The generators (mask, negbits) on ``mask`` with ``negatives`` negative circles."""
    bits = [1 << name for name in circles]
    return [(mask, sum(combo)) for combo in combinations(bits, negatives)]


def _census(kept: dict[int, _Res], c: int, j: int | None = None) -> dict[int, dict[int, list]]:
    """Every enhanced state on the ``kept`` masks, filed by j and then by i, in walk order.

    A state with B-count r and n of its k circles negative sits at
    i = c - 2r and j = i + 2(k - 2n).  With ``j`` given, only that column
    is filed.
    """
    columns: dict[int, dict[int, list]] = {}
    for mask, (circles, _) in kept.items():
        i = c - 2 * mask.bit_count()
        k = len(circles)
        for negatives in range(k + 1):
            at = i + 2 * (k - 2 * negatives)
            if j is None or at == j:
                columns.setdefault(at, {}).setdefault(i, []).extend(
                    _enhancements(mask, circles, negatives)
                )
    return columns


def _histogram(kept: dict[int, _Res], c: int) -> Counter:
    """Number of masks per (sigma, circles): all that ranks and the bracket need."""
    return Counter((c - 2 * mask.bit_count(), len(circles)) for mask, (circles, _) in kept.items())


def _flips(kept: dict[int, _Res], mask: int, target_index: dict) -> list[tuple]:
    """Per crossing x that is A in ``mask``: (incidence, targets, b0, b2, t0, t2).

    The incidence is (-1)^k, with k the number of B-labels after x, and
    ``targets`` maps the negbits of each target generator on the flipped
    mask to its row.  b0 and b2 are the bits of the circles at slots 0 and
    2 of x before the flip, t0 and t2 after it; b0 == b2 means a split, and
    t0 == t2 a merge.  Only a split needs the flipped mask's resolution,
    and ``kept`` always holds it.  Each split has an image at the same j,
    and the flipped mask has the deficit of ``mask`` (one more B-label, one
    more circle): that deficit is within the walk's cut, and so is the
    deficit of each mask below it, through which the walk reaches it.
    """
    end = kept[mask][1]
    flips = []
    after = 0
    for x in range(len(end) // 4 - 1, -1, -1):
        bit = 1 << x
        if mask & bit:
            after += 1
            continue
        tmask = mask | bit
        s0, s2 = end[4 * x], end[4 * x + 2]
        if s0 != s2:
            # a merge keeps every arc end of both circles, so the lesser name
            t0 = t2 = min(s0, s2)
        else:
            tend = kept[tmask][1]
            t0, t2 = tend[4 * x], tend[4 * x + 2]
        incidence = -1 if after & 1 else 1
        flips.append((incidence, target_index.get(tmask, {}), 1 << s0, 1 << s2, 1 << t0, 1 << t2))
    return flips


def _boundary(kept: dict[int, _Res], sources: list, targets: list) -> IntMatrix:
    """Matrix of the differential from the ``sources`` block to ``targets``.

    Each (row, column) is met once: the flipped crossing fixes the target
    state, and a split's two images differ in which new circle is negative.
    So every entry is written straight into the rows.
    """
    target_index: dict[int, dict[int, int]] = {}
    for r, (mask, negs) in enumerate(targets):
        target_index.setdefault(mask, {})[negs] = r
    mat = IntMatrix(len(targets), len(sources))
    rows = mat.data
    last = None
    for col, (mask, negs) in enumerate(sources):
        if mask != last:  # a mask's generators are contiguous: one _flips per mask
            last = mask
            flips = _flips(kept, mask, target_index)
        for incidence, targets_of, b0, b2, t0, t2 in flips:
            if b0 != b2:
                # two circles merge; a (+,+) pair admits no j-preserving sign
                if negs & b0:
                    images = (negs ^ b0 ^ b2 | t0,) if negs & b2 else (negs ^ b0,)
                elif negs & b2:
                    images = (negs ^ b2,)
                else:
                    continue
            elif negs & b0:
                # a negative circle splits two ways
                images = (negs ^ b0 | t0, negs ^ b0 | t2)
            else:
                # a positive circle splits into two positive ones
                images = (negs,)
            for image in images:
                r = targets_of[image]
                row = rows.get(r)
                if row is None:
                    rows[r] = {col: incidence}
                else:
                    row[col] = incidence
    return mat


@dataclass
class GradedComplexColumn:
    """One quantum grading j of the complex: generators and differentials by i."""

    j: int
    generators: dict[int, list[tuple[int, int]]]  # (mask, negbits) per i
    boundaries: dict[int, IntMatrix]

    def complex(self) -> IntegerChainComplex:
        ranks = {i: len(gens) for i, gens in self.generators.items()}
        return IntegerChainComplex(ranks=ranks, boundaries=dict(self.boundaries), step=2)


def _column(kept: dict[int, _Res], j: int, per_i: dict[int, list]) -> GradedComplexColumn:
    """The column of quantum grading j on the generators ``per_i``, keyed by i."""
    generators = {}
    boundaries = {}
    for i in sorted(per_i, reverse=True):
        generators[i] = per_i[i]
        if per_i.get(i - 2):
            boundaries[i] = _boundary(kept, per_i[i], per_i[i - 2])
        elif per_i[i]:
            boundaries[i] = IntMatrix(0, len(per_i[i]))
    return GradedComplexColumn(j=j, generators=generators, boundaries=boundaries)


def build_column(diagram: Diagram, j: int) -> GradedComplexColumn:
    """Assemble the degree-(-2) complex of all enhanced states with quantum grading j.

    The generators are found by the walk cut at j (``_walk``), so the cost
    follows the size of the column, not 2^c.  They stay (mask, negbits)
    pairs in the order the walk meets them.  Non-planar PD codes are
    rejected with ``NonPlanarDiagramError``.
    """
    check_planar(diagram)
    kept = _walk(diagram, j)
    return _column(kept, j, _census(kept, diagram.crossing_count, j).get(j, {}))


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
    return _bracket(_histogram(_walk(diagram), diagram.crossing_count))


def generator_rank_table(diagram: Diagram, limit: int | None = DEFAULT_TABLE_LIMIT) -> dict:
    """Number of enhanced states per (i, j), counted per state without building them.

    A state with ``circles`` circles and B-count r has comb(circles, n)
    enhancements with n negative circles, all at i = c - 2r and
    j = i + 2 * (circles - 2n).
    """
    _check_limit(diagram, limit)
    table: dict[tuple[int, int], int] = {}
    for (sigma, circles), masks in _histogram(_walk(diagram), diagram.crossing_count).items():
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

    One walk of the cube resolves each mask once; every enhanced state is
    filed under its (j, i) in the order the walk met its mask, and the
    masks counted per (sigma, circles) give the Kauffman bracket.
    Non-planar PD codes are rejected with ``NonPlanarDiagramError`` before
    any other work.
    """
    check_planar(diagram)
    _check_limit(diagram, limit)
    c = diagram.crossing_count
    kept = _walk(diagram)
    columns = _census(kept, c)
    table: dict[tuple[int, int], AbelianGroup] = {}
    for j in sorted(columns):
        groups = homology(_column(kept, j, columns[j]).complex())
        for i, g in nonzero_groups(groups).items():
            table[(i, j)] = g
    return table, _bracket(_histogram(kept, c))


def _check_limit(diagram: Diagram, limit: int | None) -> None:
    if limit is not None and diagram.crossing_count > limit:
        raise TableSizeError(
            f"diagram has {diagram.crossing_count} crossings, table mode is capped at "
            f"{limit} (the state count grows as 2^c); raise the bound explicitly to proceed"
        )
