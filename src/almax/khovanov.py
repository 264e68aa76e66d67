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
``kauffman_bracket`` and ``generator_rank_table`` run it whole.
``_file_by_j`` files a walk's masks under the js asked for, in one pass,
and ``_census`` builds the enhanced states of one j by i, visiting only
the masks filed under it; the table (every j) and ``build_column`` (one)
both go this way.  Each call walks once; nothing is cached between calls.  There is
one count of enhanced states, ``_ranks``, which counts a walk's masks per
(sigma, circles) and expands those counts by binomial coefficients,
without building a state; the Kauffman bracket is its
``euler_polynomial``, because d^k = (-1)^k sum_n comb(k, n) A^(2k-4n).

``_mask_flips`` works out a kept mask's flip data: per A-crossing, the
incidence and the circle bits before and after the flip.  ``_images`` is
the merge/split rule on that data.  ``_boundary``, the one writer of
differential entries, images the sources it is given and writes their
rows, and on request the rows of each column, in one pass.  There is one
column type, ``KhovanovColumn``: it stores generators and a way to get
flip data, no boundary, and has two reads.  ``homology`` reads it through
``restrict``, asking for d_i once it has cancelled d_(i+2), so
``_boundary`` images only the generators of degree i that survived; this
is how the table reduces its columns, one j at a time: it files a
column's generators, reduces them and drops them before it files the
next, so it holds one column's generators at a time.  It works out every
mask's flip data once per walk (``_flips``), storing equal flips as one
object, and shares it among its columns and ``_check_squares``, which
certifies d∘d = 0 for the whole table from the same data and rule, one
square of the cube at a time, instead of multiplying matrices; a square
met before, by its four flip entries, is not checked again.  ``complex``
writes every boundary whole into an ``IntMatrix``: ``column_homology``
multiplies that with ``IntegerChainComplex.check_composition`` before
``homology``.  Its column (``build_column``) needs each mask's flip data
once, so it keeps none.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, MutableSequence
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
    ChainComplexError,
    IntegerChainComplex,
    IntMatrix,
    homology,
    nonzero_groups,
)

#: Full-table mode refuses larger diagrams unless told otherwise.
DEFAULT_TABLE_LIMIT = 14


class TableSizeError(ValueError):
    """Diagram exceeds the configured full-table size bound."""


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
#: The end map is a ``bytearray``, or past 64 crossings an ``array.array`` (``_end_map``).
_Res = tuple[tuple[int, ...], MutableSequence[int]]


def _end_map(c: int, end: list[int]) -> MutableSequence[int]:
    """``end`` stored in the narrowest unsigned type that holds every arc end 0 .. 4c - 1.

    Up to c = 64 that is a byte, kept in a ``bytearray``, which needs no
    import.  Wider maps are an ``array.array`` of the smallest typecode
    that fits; loading that extension module adds about 0.15 MiB to a
    process, so it is loaded only for diagrams that need it.
    """
    if 4 * c <= 256:
        return bytearray(end)
    from array import array

    return array(next(code for code in "HILQ" if 4 * c <= 1 << 8 * array(code).itemsize), end)


def _flip(steps: list, parent: _Res, mask: int, x: int) -> _Res:
    """Resolution of ``mask`` from that of ``parent``, the same mask with crossing x A.

    Only the circles through x change (two merge, or one splits, or on
    non-planar data one stays one), so only they are retraced with
    ``trace_circle`` over the step table ``steps``.  The parent's end map
    is packed (``_end_map``), so the copy made here is 4c machine
    integers, bytes up to c = 64, not 4c pointers.
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

    A resolution is the pair (circles, end) that ``trace_state`` and
    ``diagram.resolve`` return, so that no object is built per mask, but
    ``end`` is packed in the narrowest unsigned type that holds 4c - 1
    (``_end_map``: a ``bytearray`` up to c = 64), not a list.  A kept
    mask's end map then takes 4c bytes, not 4c pointers, and ``_flip``
    copies bytes; the table, which keeps the whole cube, saves the same.
    The one step table is built here and mask 0 is traced over it whole.  The
    walk is depth-first from all-A, and each mask is extended only by bits
    above its highest one, so every mask is reached once, from its parent
    (the mask minus its highest bit), which ``_flip`` turns into it.
    With ``j`` given, the walk is cut: a mask with deficit
    ``|all-A circles| + |mask| - #circles`` carries no j above
    ``j_max - 2 * deficit``.  One flip adds at most one circle, so the
    deficit never drops from a mask to a superset, and a mask whose deficit
    already rules out j is dropped together with everything above it.
    A child's deficit is known from its parent before it is traced: a flip
    at x that merges (slots 0 and 2 of x on two circles) adds 2, a split
    adds 0.  So once a merge would cross the cut, only the split children
    are pushed, and on a planar diagram every mask pushed is kept (the
    check on pop is then never true; it stays for a flip that keeps one
    circle, which adds 1, on non-planar data).  The cut walk thus traces
    each kept mask once and judges its children from the same trace, so
    it costs O(c) per kept mask, not 2^c; without ``j`` it keeps all 2^c
    masks.  What it returns holds one resolution per mask and no enhanced
    state: ``_ranks`` counts the states from it, ``_file_by_j`` files its
    masks by j, and ``_census`` builds the states of one j.
    """
    steps = step_table(diagram)
    c = diagram.crossing_count
    circles, end = trace_state(steps, 0)
    root = circles, _end_map(c, end)
    circles_a = len(circles)
    slack = None if j is None else c + 2 * circles_a - j  # j_max - j
    kept: dict[int, _Res] = {}
    stack = [0]
    while stack:
        mask = stack.pop()
        top = mask.bit_length() - 1
        res = _flip(steps, kept[mask ^ (1 << top)], mask, top) if mask else root
        if slack is not None:
            deficit = circles_a + mask.bit_count() - len(res[0])
            if 2 * deficit > slack:
                continue
            if 2 * deficit + 4 > slack:  # a merge child would be cut: push the splits only
                kept[mask] = res
                end = res[1]
                for x in range(top + 1, c):
                    if end[4 * x] == end[4 * x + 2]:
                        stack.append(mask | (1 << x))
                continue
        kept[mask] = res
        stack.extend(mask | (1 << x) for x in range(top + 1, c))
    return kept


def _enhancements(mask: int, circles, negatives: int) -> list[tuple[int, int]]:
    """The generators (mask, negbits) on ``mask`` with ``negatives`` negative circles."""
    bits = [1 << name for name in circles]
    return [(mask, sum(combo)) for combo in combinations(bits, negatives)]


def _file_by_j(kept: dict[int, _Res], c: int, js) -> dict[int, list[int]]:
    """The ``kept`` masks filed under each quantum grading of ``js`` they hold, in walk order.

    A state with B-count r and n of its k circles negative sits at
    i = c - 2r and j = i + 2(k - 2n), so a mask holds states of the k + 1
    gradings i + 2k - 4n, n = 0..k, and is filed under those asked for in
    one pass.  Which lists those are depends only on (i, k), so they are
    looked up once per pair.
    """
    by_j: dict[int, list[int]] = {j: [] for j in js}
    lists_of: dict[tuple[int, int], list[list[int]]] = {}
    for mask, (circles, _) in kept.items():
        key = (c - 2 * mask.bit_count(), len(circles))
        lists = lists_of.get(key)
        if lists is None:
            i, k = key
            held = range(i + 2 * k, i - 2 * k - 1, -4)
            lists = lists_of[key] = [by_j[j] for j in held if j in by_j]
        for masks in lists:
            masks.append(mask)
    return by_j


def _census(kept: dict[int, _Res], c: int, j: int, masks: list[int]) -> dict[int, list]:
    """The enhanced states of quantum grading j on ``masks``, by i, in the order given.

    ``masks`` are those ``_file_by_j`` files under j, so each holds states
    of j: those with n = (i + 2k - j) / 4 of its k circles negative.  Only
    the column's own masks are visited.
    """
    per_i: dict[int, list] = {}
    for mask in masks:
        circles = kept[mask][0]
        i = c - 2 * mask.bit_count()
        negatives = (i + 2 * len(circles) - j) // 4
        per_i.setdefault(i, []).extend(_enhancements(mask, circles, negatives))
    return per_i


def _mask_flips(kept: dict[int, _Res], mask: int) -> dict[int, tuple[int, int, int, int, int]]:
    """The flip data of one kept mask: x -> (incidence, b0, b2, t0, t2).

    One entry per crossing x that is A in the mask, in descending x.  The
    incidence is (-1)^k, with k the number of B-labels after x.  b0 and b2
    are the bits of the circles at slots 0 and 2 of x before the flip, t0
    and t2 after it; b0 == b2 means a split, and t0 == t2 a merge.  Only a
    split needs the flipped mask's resolution, and ``kept`` always holds
    it: the flipped mask has the deficit of the mask (one more B-label, one
    more circle), so it is within the walk's cut, and so is the deficit of
    each mask below it, through which the walk reaches it.
    """
    end = kept[mask][1]
    out = {}
    after = 0
    for x in range(len(end) // 4 - 1, -1, -1):
        bit = 1 << x
        if mask & bit:
            after += 1
            continue
        s0, s2 = end[4 * x], end[4 * x + 2]
        if s0 != s2:
            # a merge keeps every arc end of both circles, so the lesser name
            t0 = t2 = min(s0, s2)
        else:
            tend = kept[mask | bit][1]
            t0, t2 = tend[4 * x], tend[4 * x + 2]
        out[x] = (-1 if after & 1 else 1, 1 << s0, 1 << s2, 1 << t0, 1 << t2)
    return out


def _flips(kept: dict[int, _Res]) -> dict[int, dict[int, tuple[int, int, int, int, int]]]:
    """The flip data of every kept mask, by mask (``_mask_flips``), equal flips shared.

    Equal flip tuples are stored as one object: the cube has few distinct
    ones (88 among the 5,120 of 10_44), so the table keeps little flip
    data, and ``_check_squares`` meets equal squares made of the same
    objects, which compare by identity.
    """
    shared: dict[tuple, tuple] = {}
    return {
        mask: {x: shared.setdefault(flip, flip) for x, flip in _mask_flips(kept, mask).items()}
        for mask in kept
    }


def _images(negs: int, b0: int, b2: int, t0: int, t2: int) -> tuple[int, ...]:
    """The negbits of each image of the generator ``negs`` under one flip.

    This is the merge/split rule of the differential, on the flip data
    (b0, b2, t0, t2) of ``_mask_flips``.  It reads and writes only those bits;
    every other circle keeps its sign.
    """
    if b0 != b2:
        # two circles merge; a (+,+) pair admits no j-preserving sign
        if negs & b0:
            return (negs ^ b0 ^ b2 | t0,) if negs & b2 else (negs ^ b0,)
        return (negs ^ b2,) if negs & b2 else ()
    if negs & b0:
        # a negative circle splits two ways
        return (negs ^ b0 | t0, negs ^ b0 | t2)
    # a positive circle splits into two positive ones
    return (negs,)


def _boundary(
    flips_of: Callable[[int], dict],
    sources: list,
    targets: list,
    positions,
    col_rows: dict[int, set[int]] | None = None,
) -> dict[int, dict[int, int]]:
    """The rows of the differential from the ``sources`` at ``positions`` to ``targets``.

    ``flips_of`` gives a mask's flip data (``_mask_flips``).  The rows map
    a target position to {source position: entry}; no other source is
    imaged.  Given ``col_rows``, the same pass records in it the rows of
    each column, so that the two inputs of ``homology._cancel_units`` are
    written together; without it (``KhovanovColumn.complex``) no per-column
    set is built.  Which of the two loops runs is chosen once per call, so
    neither pays a branch per entry.  Each (row, column) is met once: the
    flipped crossing fixes the target state, and a split's two images
    differ in which new circle is negative.  So every entry is written
    straight into the rows.
    """
    target_index: dict[int, dict[int, int]] = {}
    for r, (mask, negs) in enumerate(targets):
        target_index.setdefault(mask, {})[negs] = r
    rows: dict[int, dict[int, int]] = {}
    last = None
    if col_rows is None:
        for col in positions:
            mask, negs = sources[col]
            if mask != last:  # a mask's generators are contiguous
                last = mask
                flips = flips_of(mask)
            for x, (incidence, b0, b2, t0, t2) in flips.items():
                images = _images(negs, b0, b2, t0, t2)
                if images:
                    targets_of = target_index[mask | 1 << x]
                    for image in images:
                        r = targets_of[image]
                        row = rows.get(r)
                        if row is None:
                            rows[r] = {col: incidence}
                        else:
                            row[col] = incidence
        return rows
    for col in positions:
        mask, negs = sources[col]
        if mask != last:
            last = mask
            flips = flips_of(mask)
        holders = set()
        for x, (incidence, b0, b2, t0, t2) in flips.items():
            images = _images(negs, b0, b2, t0, t2)
            if images:
                targets_of = target_index[mask | 1 << x]
                for image in images:
                    r = targets_of[image]
                    holders.add(r)
                    row = rows.get(r)
                    if row is None:
                        rows[r] = {col: incidence}
                    else:
                        row[col] = incidence
        if holders:
            col_rows[col] = holders
    return rows


def _square_commutes(sign: int, x: tuple, xy: tuple, y: tuple, yx: tuple) -> bool:
    """Whether one square of the cube composes to zero on every sign of its circles.

    ``x`` and ``y`` are the bits (b0, b2, t0, t2) of the two flips out of
    the mask, ``xy`` and ``yx`` those of the flips that close the square,
    and ``sign`` is the product of the four incidences.  Both composites
    read only the circles of the mask through the two crossings, so it is
    enough that each sign pattern of those (at most 16) meets every image
    as often along one path as along the other, counted with ``sign``.
    """
    patterns = [0]
    for bit in {x[0], x[1], y[0], y[1]}:
        patterns += [p | bit for p in patterns]
    for pattern in patterns:
        count: dict[int, int] = {}
        for mid in _images(pattern, *x):
            for image in _images(mid, *xy):
                count[image] = count.get(image, 0) + 1
        for mid in _images(pattern, *y):
            for image in _images(mid, *yx):
                count[image] = count.get(image, 0) + sign
        if any(count.values()):
            return False
    return True


def _check_squares(flips: dict) -> None:
    """Certify d∘d = 0 on the whole cube from its flip data, one square at a time.

    A square is a mask and two of its A-crossings x and y.  A generator on
    the mask reaches the mask with both flipped along two paths, x first or
    y first, and along no other two-step path; so d∘d vanishes exactly when
    every square composes to zero (``_square_commutes``).  A square is
    looked up first by its four flip entries (fx, fxy, fy, fyx): the cube
    repeats few of them (1,677 distinct among the 11,520 squares of 10_44),
    and with ``_flips`` sharing equal entries a repeat compares by identity.
    Only a new one is reduced to its configuration: the product of the four
    incidences and which of its 16 circle bits are equal, on which alone
    the verdict depends, so that is worked out once per configuration.
    This checks the rule ``_images`` on the flip data that ``_boundary``
    reads, not each entry ``_boundary`` writes.  The squares are visited
    mask by mask, and the first failing one raises ``ChainComplexError``
    with the degree of its mask.
    """
    commuting: set[tuple] = set()  # configurations
    passed: set[tuple] = set()  # squares, by their flip entries
    for mask, out in flips.items():
        pairs = [(x, fx, flips[mask | 1 << x]) for x, fx in out.items()]
        for n, (x, fx, above_x) in enumerate(pairs):
            for y, fy, above_y in pairs[n + 1 :]:
                fxy, fyx = above_x[y], above_y[x]
                square = (fx, fxy, fy, fyx)
                if square in passed:
                    continue
                sign = fx[0] * fxy[0] * fy[0] * fyx[0]
                bits = fx[1:] + fxy[1:] + fy[1:] + fyx[1:]
                key = (sign, *map(bits.index, bits))  # each bit labelled by its first place
                if key not in commuting:
                    if not _square_commutes(sign, bits[:4], bits[4:8], bits[8:12], bits[12:]):
                        degree = len(out) - mask.bit_count()  # c - 2|mask|
                        raise ChainComplexError(
                            f"boundary composition at degree {degree} is non-zero"
                        )
                    commuting.add(key)
                passed.add(square)


class KhovanovColumn:
    """One quantum grading j of the complex: generators by i, and two reads of d.

    ``generators`` maps i to its (mask, negbits) pairs and ``flips_of``
    gives a mask's flip data (``_mask_flips``).  No boundary is stored.
    ``restrict`` is how ``homology`` reads a complex: it writes d_i when
    ``homology`` reaches degree i, and only on the generators of degree i
    that survived the cancellation of d_(i+2).  ``complex`` writes every
    boundary whole into an ``IntMatrix``, for the d∘d product.
    """

    step = 2

    def __init__(self, flips_of: Callable[[int], dict], generators: dict[int, list]):
        self.flips_of = flips_of
        self.generators = generators
        self.ranks = {i: len(gens) for i, gens in generators.items()}

    def restrict(self, i: int, cols) -> tuple[dict, dict[int, set[int]]]:
        targets = self.generators.get(i - 2)
        col_rows: dict[int, set[int]] = {}
        rows = {}
        if targets:
            rows = _boundary(self.flips_of, self.generators[i], targets, sorted(cols), col_rows)
        return rows, col_rows

    def complex(self) -> IntegerChainComplex:
        boundaries = {}
        for i in sorted(self.generators, reverse=True):
            sources = self.generators[i]
            targets = self.generators.get(i - 2, [])
            rows = {}
            if targets:
                rows = _boundary(self.flips_of, sources, targets, range(len(sources)))
            boundaries[i] = IntMatrix(len(targets), len(sources), rows)
        return IntegerChainComplex(ranks=self.ranks, boundaries=boundaries, step=2)


def build_column(diagram: Diagram, j: int) -> KhovanovColumn:
    """The column of all enhanced states with quantum grading j, unassembled.

    The generators are found by the walk cut at j (``_walk``), so the cost
    follows the size of the column, not 2^c.  They stay (mask, negbits)
    pairs in the order the walk meets them.  Non-planar PD codes are
    rejected with ``NonPlanarDiagramError``.
    """
    check_planar(diagram)
    kept = _walk(diagram, j)
    c = diagram.crossing_count
    per_i = _census(kept, c, j, _file_by_j(kept, c, (j,))[j])
    # each mask is a source of one boundary only, so its flip data is not kept
    return KhovanovColumn(lambda mask: _mask_flips(kept, mask), per_i)


def _ranks(kept: dict[int, _Res], c: int) -> dict[tuple[int, int], int]:
    """Number of enhanced states per (i, j) on the ``kept`` masks, without building them.

    The masks are counted per (sigma, circles).  A mask with ``circles``
    circles and B-count r has comb(circles, n) enhancements with n negative
    circles, all at i = sigma = c - 2r and j = i + 2 * (circles - 2n).
    """
    histogram = Counter((c - 2 * mask.bit_count(), len(res[0])) for mask, res in kept.items())
    table: dict[tuple[int, int], int] = {}
    for (sigma, circles), masks in histogram.items():
        for negatives in range(circles + 1):
            key = (sigma, sigma + 2 * (circles - 2 * negatives))
            table[key] = table.get(key, 0) + masks * math.comb(circles, negatives)
    return table


def kauffman_bracket(diagram: Diagram) -> dict[int, int]:
    """State sum over all Kauffman states: sum of A^sigma * d^circles, as {exponent: coefficient}.

    Normalization: the bracket of the unknot diagram is d = -A^2 - A^-2,
    so this equals d times the usual bracket.  Since
    d^k = (-1)^k * sum_n comb(k, n) * A^(2k - 4n), it is the generator
    count identity sum (-1)^((j-i)/2) rank C_{i,j} A^j, and is worked out
    as exactly that: ``euler_polynomial`` of the ranks.
    """
    return euler_polynomial(_ranks(_walk(diagram), diagram.crossing_count))


def generator_rank_table(diagram: Diagram, limit: int | None = DEFAULT_TABLE_LIMIT) -> dict:
    """Number of enhanced states per (i, j), counted per state without building them."""
    _check_limit(diagram, limit)
    return _ranks(_walk(diagram), diagram.crossing_count)


def euler_polynomial(table: dict) -> dict[int, int]:
    """sum (-1)^((j-i)/2) * rank * A^j over a table of ranks or groups, as {j: non-zero coefficient}."""
    coeffs: dict[int, int] = {}
    for (i, j), value in table.items():
        r = value.free_rank if isinstance(value, AbelianGroup) else int(value)
        sign = -1 if ((j - i) // 2) % 2 else 1
        coeffs[j] = coeffs.get(j, 0) + sign * r
    return {j: coeff for j, coeff in coeffs.items() if coeff}


def column_homology(diagram: Diagram, j: int) -> dict[tuple[int, int], AbelianGroup]:
    """Non-trivial homology groups of one quantum column, keyed by (i, j).

    The column is written whole (``KhovanovColumn.complex``) and its
    boundaries are multiplied once (``check_composition``) before
    ``homology``, which assumes that they compose to zero; a column costs
    what its generators do, so the product does too.
    """
    complex_ = build_column(diagram, j).complex()
    complex_.check_composition()
    groups = homology(complex_)
    return {(i, j): g for i, g in nonzero_groups(groups).items()}


def full_homology_table(
    diagram: Diagram, limit: int | None = DEFAULT_TABLE_LIMIT, writhe: int | None = None
) -> tuple[dict[tuple[int, int], AbelianGroup], dict[int, int]]:
    """Every non-trivial framed homology group, keyed by (i, j), and the bracket.

    One walk of the cube resolves each mask once.  The flip data of each
    mask is worked out once, and ``_check_squares`` certifies d∘d = 0 on
    it for every column before any is reduced.  ``_ranks`` counts the
    enhanced states per (i, j) once: its js are the columns, and its
    ``euler_polynomial`` is the Kauffman bracket.  The columns are then
    reduced one at a time, in ascending j: ``_file_by_j`` files the masks
    under their js once, ``_census`` builds a column's generators from its
    own masks in the order the walk met them, its boundaries are
    written as ``homology`` reaches them, on the generators still alive
    (``KhovanovColumn.restrict``), and the column is dropped before the
    next is filed, so the peak follows the largest column, not the cube.
    Non-planar PD codes are rejected with ``NonPlanarDiagramError`` before
    any other work, then diagrams above ``limit`` with ``TableSizeError``.
    A ``writhe`` given for ``framed_to_oriented`` is checked next, before
    the walk: every state sits at i = j = c (mod 2), so one of the other
    parity than c fits no group and raises ``ValueError``.
    """
    check_planar(diagram)
    _check_limit(diagram, limit)
    c = diagram.crossing_count
    if writhe is not None and (writhe - c) % 2:
        raise ValueError(
            f"parity violation: writhe {writhe} and crossing count {c} differ mod 2, "
            "but oriented gradings need writhe = i = j = crossing count (mod 2)"
        )
    kept = _walk(diagram)
    flips = _flips(kept)
    _check_squares(flips)
    ranks = _ranks(kept, c)
    table: dict[tuple[int, int], AbelianGroup] = {}
    js = sorted({j for _, j in ranks})
    by_j = _file_by_j(kept, c, js)
    for j in js:
        groups = homology(KhovanovColumn(flips.__getitem__, _census(kept, c, j, by_j[j])))
        for i, g in nonzero_groups(groups).items():
            table[(i, j)] = g
    return table, euler_polynomial(ranks)


def _check_limit(diagram: Diagram, limit: int | None) -> None:
    if limit is not None and diagram.crossing_count > limit:
        raise TableSizeError(
            f"diagram has {diagram.crossing_count} crossings, table mode is capped at "
            f"{limit} (it resolves all 2^c Kauffman states and reduces every enhanced state "
            "on them, 3^c + 3 for T(2,c)); raise the bound explicitly to proceed"
        )
