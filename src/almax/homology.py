"""Exact integer homology of bounded chain complexes via Smith normal form.

All arithmetic uses Python integers, so it is exact and overflow-free.
There is one reduction path.  ``homology`` first cancels +-1 pairs across
the whole complex (Bar-Natan's Gaussian elimination, "Fast Khovanov
homology computations"): each cancelled pair removes one generator from
two neighbouring degrees, Schur-updates the boundary that held the pivot
and only deletes a row or column from the boundaries next to it, so every
generator is eliminated at most once.  The cost of a boundary is set by
its fill-in, the entries the Schur updates write.  ``_cancel_units``
keeps it low by walking the rows and pivoting, in each, on the unit whose
column is shortest: over the Khovanov complex of T(2,9), every quantum
grading included, this writes 3,868 new entries, where scanning the
columns in order and pivoting on the shortest unit row writes 75,100.
``smith_normal_form`` cancels the +-1 entries of one matrix the same way.
Whatever is left has no unit entries and is finished off, on the same
dict-of-rows, by the classical least-entry pivot algorithm.

``homology`` reads a complex through ``ranks``, ``step`` and
``restrict(k, cols)``: the rows of d_k on the generators ``cols`` of
degree k that survived the cancellation of the boundary above, together
with the rows of each column.  By the elimination lemma that is all of
d_k that the cancellation still needs.  An ``IntegerChainComplex`` stores
its matrices and copies the restriction out of them (``_index``, which
``smith_normal_form`` uses too); a ``khovanov.KhovanovColumn`` stores
none and writes the restriction when asked, so a generator cancelled
against the degree above is never imaged.

``homology`` assumes that the boundaries compose to zero and does not
multiply them to check it: each builder certifies its own complex once.
The Khovanov table checks d∘d square by square on the cube of resolutions
(``khovanov._check_squares``); the direct route's single column calls
``IntegerChainComplex.check_composition``, which multiplies neighbouring
boundaries row by row and stops at the first non-zero row; and the
cellular complex of a partial presimplicial set satisfies it by the
face-map axiom that ``presimplicial.chain_complex`` validates.  A failed
check raises ``ChainComplexError``, and so does a negative free rank in
``homology``.
"""

from __future__ import annotations

import math

from ._record import Record


class AbelianGroup(Record):
    """Finitely generated abelian group in canonical form.

    ``torsion`` lists the invariant factors t1 | t2 | ... , each > 1.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        if any(t <= 1 for t in torsion):
            raise ValueError("torsion coefficients must exceed 1")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {torsion} violates the divisibility chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def render(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.render()


class ChainComplexError(ValueError):
    """The boundary maps given as a chain complex do not compose to zero."""


class IntMatrix(Record, frozen=False):
    """Sparse integer matrix, sized rows x cols, with the dict-of-rows ``data``.

    ``data`` maps a row to {column: non-zero entry} and holds no empty row;
    it is taken as given, neither copied nor checked.  Two matrices are
    equal when their shapes and entries are; the repr shows the shape and
    the number of entries only.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: dict[int, dict[int, int]] | None = None):
        self.rows = rows
        self.cols = cols
        self.data = {} if data is None else data

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self.data.values())

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _index(data: dict[int, dict[int, int]], cols) -> tuple[dict, dict[int, set[int]]]:
    """Copies of the rows of ``data`` restricted to ``cols``, and the rows of each column.

    One pass builds both inputs of ``_cancel_units``; rows left empty by
    the restriction are dropped.
    """
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for r, row in data.items():
        kept = {c: v for c, v in row.items() if c in cols}
        if kept:
            rows[r] = kept
            for c in kept:
                holders = col_rows.get(c)
                if holders is None:
                    col_rows[c] = {r}
                else:
                    holders.add(r)
    return rows, col_rows


def _cancel_units(
    rows: dict[int, dict[int, int]], col_rows: dict[int, set[int]]
) -> tuple[list[int], list[int]]:
    """Pivot away every +-1 entry of a dict-of-rows matrix, in place.

    ``col_rows`` maps each column to the set of rows holding it and is kept
    up to date.  Rows are scanned from the last to the first; in each, the
    pivot is the +-1 entry whose column holds the fewest rows (ties go to
    the lower column), so the Schur update that eliminates the pivot row
    and column touches as few other rows as it can and writes little
    fill-in.  A pivot alone in its row (most of them in a Khovanov table:
    8,845 of 9,834 on T(2,9)) has nothing to add to the other rows of its
    column, so its update only deletes the column from them.  Rows where an
    update writes a new +-1 are scanned again until none is left.  Returns
    (pivot rows, pivot columns); each pivot is an invariant factor 1, and
    what stays in ``rows`` is the leftover matrix, free of unit entries.
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
            best = None
            for c, v in pivot_row.items():
                if v == 1 or v == -1:
                    key = (len(col_rows[c]), c)
                    if best is None or key < best:
                        best = key
            if best is None:
                continue
            c0 = best[1]
            del rows[r0]
            p = pivot_row.pop(c0)
            others = col_rows.pop(c0)
            others.discard(r0)
            if not pivot_row:  # the pivot is alone in its row: the update only deletes c0
                for r in others:
                    row = rows[r]
                    del row[c0]
                    if not row:
                        del rows[r]
            else:
                for c in pivot_row:
                    col_rows[c].discard(r0)
                for r in others:
                    row = rows[r]
                    factor = row.pop(c0) * p  # p in {1,-1}: alpha/p == alpha*p
                    for c, beta in pivot_row.items():
                        new = row.get(c, 0) - factor * beta
                        if new:
                            if c not in row:
                                col_rows[c].add(r)
                            row[c] = new
                            if new == 1 or new == -1:
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


def _compact(rows: dict[int, dict[int, int]]) -> IntMatrix:
    """The non-zero rows and columns of a dict-of-rows matrix, renumbered from 0."""
    live_cols = sorted({c for row in rows.values() for c in row})
    col_index = {c: i for i, c in enumerate(live_cols)}
    data = {i: {col_index[c]: v for c, v in rows[r].items()} for i, r in enumerate(sorted(rows))}
    return IntMatrix(len(rows), len(live_cols), data)


def _finish(rows: dict[int, dict[int, int]]) -> list[int]:
    """Invariant factors of a dict-of-rows matrix by least-entry pivoting; empties ``rows``.

    The pivot p is an entry of least absolute value.  Row operations reduce
    every other entry of its column modulo p; if a remainder is left, it is
    smaller than p and the next round starts from it.  Reducing the whole
    column first leaves all of it below |p|, so the next pivot needs only
    small multipliers; moving on at the first remainder lets the entries
    blow up (to a million bits on a 24 x 29 leftover).  Once the column is
    clear, column operations reduce the pivot row modulo p and touch no
    other row; a row holding only its pivot adds |p| to the diagonal, and
    any other entry it keeps is smaller than p.  Each round thus removes a
    row or lowers the least |entry|, so the loop ends.  diag(a, b) ~
    diag(gcd, lcm) turns the diagonal into the chain d1 | d2 | ....
    """
    diagonal: list[int] = []
    while rows:
        _, r0, c0 = min((abs(v), r, c) for r, row in rows.items() for c, v in row.items())
        pivot_row = rows[r0]
        p = pivot_row[c0]
        clear = True
        for r in [r for r, row in rows.items() if c0 in row and r != r0]:
            row = rows[r]
            q = row[c0] // p
            for c, v in pivot_row.items():
                new = row.get(c, 0) - q * v
                if new:
                    row[c] = new
                else:
                    del row[c]
            if not row:
                del rows[r]
            elif c0 in row:
                clear = False
        if clear:
            rest = {c: v % p for c, v in pivot_row.items() if v % p}
            if rest:
                rows[r0] = {c0: p, **rest}
            else:
                diagonal.append(abs(p))
                del rows[r0]
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            g = math.gcd(a, b)
            diagonal[i], diagonal[j] = g, a // g * b
    return diagonal


def smith_normal_form(matrix: IntMatrix) -> tuple[int, ...]:
    """Non-zero diagonal of the Smith normal form of an ``IntMatrix``.

    The result is the chain of invariant factors d1 | d2 | ...; its length
    is the rank.  An empty or zero matrix yields an empty diagonal.  Every
    matrix takes the same path: +-1 pivots are cancelled first (each an
    invariant factor 1), and ``_finish`` pivots on least entries of the
    leftover.
    """
    rows, col_rows = _index(matrix.data, range(matrix.cols))
    pivots, _ = _cancel_units(rows, col_rows)
    return (1,) * len(pivots) + tuple(_finish(rows))


class IntegerChainComplex(Record, frozen=False):
    """Graded free abelian groups with boundary maps dropping ``step`` degrees.

    ``boundaries[k]`` maps degree k to degree k - step and must have shape
    ranks[k - step] x ranks[k]; missing entries mean zero maps.
    """

    __slots__ = ("ranks", "boundaries", "step")

    def __init__(self, ranks: dict[int, int], boundaries: dict[int, IntMatrix], step: int = 1):
        for k, mat in boundaries.items():
            want = (ranks.get(k - step, 0), ranks.get(k, 0))
            if (mat.rows, mat.cols) != want:
                raise ValueError(
                    f"boundary at degree {k} has shape {mat.rows}x{mat.cols}, expected {want}"
                )
        self.ranks = ranks
        self.boundaries = boundaries
        self.step = step

    def restrict(self, k: int, cols) -> tuple[dict, dict[int, set[int]]]:
        """The rows of d_k restricted to ``cols``, and the rows of each column (``_index``)."""
        mat = self.boundaries.get(k)
        return _index(mat.data, cols) if mat is not None else ({}, {})

    def check_composition(self) -> None:
        """Raise ``ChainComplexError`` unless every d_k d_{k+step} is zero.

        The product is formed one row of d_k at a time, and the first row
        that is not zero raises; no product matrix is built.
        """
        for k, lower in self.boundaries.items():
            upper = self.boundaries.get(k + self.step)
            if upper is None:
                continue
            upper_rows = upper.data
            for row in lower.data.values():
                acc: dict[int, int] = {}
                for mid, v in row.items():
                    for c, w in upper_rows.get(mid, {}).items():
                        acc[c] = acc.get(c, 0) + v * w
                if any(acc.values()):
                    raise ChainComplexError(
                        f"boundary composition at degree {k + self.step} is non-zero"
                    )


def homology(complex_: IntegerChainComplex) -> dict[int, AbelianGroup]:
    """Homology group per degree: ker(out) / im(in), as canonical abelian groups.

    Precondition: the boundaries compose to zero.  ``homology`` does not
    check it; the builder of a complex certifies its own (see the module
    docstring), and ``IntegerChainComplex.check_composition`` checks any
    other.  Unit pairs are cancelled across the whole complex (Gaussian
    elimination): the degrees are walked from the top down, and each
    boundary is asked (``restrict``) only for its columns on the
    generators that survived the map above it, as rows plus the rows of
    each column, the inputs of ``_cancel_units``.  A +-1 entry of ``d_k``
    at (r, c) makes the complex homotopy equivalent to one without
    generator c of degree k and generator r of degree k - step, where
    ``d_k`` is Schur-updated and its neighbours only lose that row and
    column; that equivalence needs d∘d = 0.  Each generator is thus
    eliminated at most once, and the boundary below is never needed on
    the generators it removed.  The leftover complex has no unit
    entries and is finished by ``smith_normal_form`` on its small
    matrices.  A degree whose free rank comes out negative, which only a
    complex that breaks the precondition can give, raises
    ``ChainComplexError``.
    """
    step = complex_.step
    alive = {k: set(range(n)) for k, n in complex_.ranks.items()}
    leftover: dict[int, dict[int, dict[int, int]]] = {}
    for k in sorted(alive, reverse=True):
        cols = alive[k]
        rows, col_rows = complex_.restrict(k, cols)
        pivot_rows, pivot_cols = _cancel_units(rows, col_rows)
        cols.difference_update(pivot_cols)
        alive.get(k - step, set()).difference_update(pivot_rows)
        leftover[k] = rows

    factors: dict[int, tuple[int, ...]] = {}
    for k, rows in leftover.items():
        below = alive.get(k - step, set())
        kept = {r: row for r, row in rows.items() if r in below}
        if kept:
            factors[k] = smith_normal_form(_compact(kept))

    groups: dict[int, AbelianGroup] = {}
    for k in complex_.ranks:
        incoming = factors.get(k + step, ())
        free = len(alive[k]) - len(factors.get(k, ())) - len(incoming)
        if free < 0:
            raise ChainComplexError(f"negative free rank at degree {k}: not a chain complex")
        torsion = tuple(t for t in incoming if t > 1)
        groups[k] = AbelianGroup(free_rank=free, torsion=torsion)
    return groups


def nonzero_groups(groups: dict) -> dict:
    return {k: g for k, g in groups.items() if not g.is_trivial}
