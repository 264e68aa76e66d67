"""Exact integer homology of bounded chain complexes via Smith normal form.

All arithmetic uses Python integers, so it is exact and overflow-free.
There is one reduction path.  ``homology`` first cancels +-1 pairs across
the whole complex (Bar-Natan's Gaussian elimination): each cancelled pair
removes one generator from two neighbouring degrees, Schur-updates the
boundary that held the pivot and only deletes a row or column from the
boundaries next to it, so every generator is eliminated at most once.
``smith_normal_form`` cancels the +-1 entries of one matrix the same way.
Whatever is left has no unit entries and is finished off by the classical
least-entry pivot algorithm, run modulo the determinant of a non-singular
rank x rank minor so that its entries stay bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in canonical form.

    ``torsion`` lists the invariant factors t1 | t2 | ... , each > 1.
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} violates the divisibility chain")
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion coefficients must exceed 1")

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


TRIVIAL_GROUP = AbelianGroup()


class IntMatrix:
    """Sparse integer matrix (dict-of-rows), sized rows x cols."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        self.rows = rows
        self.cols = cols
        self.data: dict[int, dict[int, int]] = {}
        if entries:
            for (r, c), v in entries.items():
                if v:
                    self.add(r, c, v)

    @classmethod
    def from_rows(cls, dense) -> "IntMatrix":
        dense = [list(row) for row in dense]
        m = cls(len(dense), len(dense[0]) if dense else 0)
        for r, row in enumerate(dense):
            for c, v in enumerate(row):
                if v:
                    m.add(r, c, v)
        return m

    def add(self, r: int, c: int, v: int) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        row = self.data.setdefault(r, {})
        new = row.get(c, 0) + v
        if new:
            row[c] = new
        else:
            row.pop(c, None)
            if not row:
                del self.data[r]

    def to_rows(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for r, row in self.data.items():
            for c, v in row.items():
                dense[r][c] = v
        return dense

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self.data.values())

    def is_zero(self) -> bool:
        return not self.data

    def compose(self, other: "IntMatrix") -> "IntMatrix":
        """Matrix product self @ other."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = IntMatrix(self.rows, other.cols)
        for r, row in self.data.items():
            acc: dict[int, int] = {}
            for k, v in row.items():
                k_row = other.data.get(k)
                if k_row:
                    for c, w in k_row.items():
                        acc[c] = acc.get(c, 0) + v * w
            for c, v in acc.items():
                if v:
                    out.data.setdefault(r, {})[c] = v
        return out

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _as_matrix(matrix) -> IntMatrix:
    return matrix if isinstance(matrix, IntMatrix) else IntMatrix.from_rows(matrix)


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


def _dense_invariant_factors(dense: list[list[int]]) -> list[int]:
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


def _cancel_units(rows: dict[int, dict[int, int]]) -> tuple[list[int], list[int]]:
    """Pivot away every +-1 entry of a dict-of-rows matrix, in place.

    Columns are scanned in order; in each, the pivot is the +-1 entry whose
    row is shortest, and the pivot row and column are eliminated by a Schur
    update of the rest.  Columns where an update writes a new +-1 are
    scanned again until none is left.  Returns (pivot rows, pivot columns);
    each pivot is an invariant factor 1, and what stays in ``rows`` is the
    leftover matrix, free of unit entries.
    """
    col_rows: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    pending = sorted(col_rows)
    while pending:
        touched: set[int] = set()
        for c0 in pending:
            units = [(len(rows[r]), r) for r in col_rows.get(c0, ()) if rows[r][c0] in (1, -1)]
            if not units:
                continue
            _, r0 = min(units)
            pivot_row = rows.pop(r0)
            p = pivot_row.pop(c0)
            for c in pivot_row:
                col_rows[c].discard(r0)
            others = col_rows.pop(c0)
            others.discard(r0)
            for r in others:
                row = rows[r]
                factor = row.pop(c0) * p  # p in {1,-1}: alpha/p == alpha*p
                for c, beta in pivot_row.items():
                    new = row.get(c, 0) - factor * beta
                    if new:
                        if c not in row:
                            col_rows[c].add(r)
                        row[c] = new
                        if new in (1, -1):
                            touched.add(c)
                    else:
                        del row[c]
                        col_rows[c].discard(r)
                if not row:
                    del rows[r]
            pivot_rows.append(r0)
            pivot_cols.append(c0)
        pending = sorted(c for c in touched if col_rows.get(c))
    return pivot_rows, pivot_cols


def _compact(rows: dict[int, dict[int, int]]) -> IntMatrix:
    """The non-zero rows and columns of a dict-of-rows matrix, renumbered from 0."""
    live_cols = sorted({c for row in rows.values() for c in row})
    col_index = {c: i for i, c in enumerate(live_cols)}
    m = IntMatrix(len(rows), len(live_cols))
    for i, r in enumerate(sorted(rows)):
        m.data[i] = {col_index[c]: v for c, v in rows[r].items()}
    return m


def smith_normal_form(matrix) -> tuple[int, ...]:
    """Non-zero diagonal of the Smith normal form of an integer matrix.

    Accepts an ``IntMatrix`` or any list-of-rows.  The result is the chain
    of invariant factors d1 | d2 | ...; its length is the rank.  An empty
    or zero matrix yields an empty diagonal.  Every matrix takes the same
    path: +-1 pivots are cancelled first (each an invariant factor 1), and
    the classical dense algorithm finishes the leftover.
    """
    m = _as_matrix(matrix)
    rows = {r: dict(row) for r, row in m.data.items()}
    pivots, _ = _cancel_units(rows)
    tail = _dense_invariant_factors(_compact(rows).to_rows()) if rows else []
    return (1,) * len(pivots) + tuple(tail)


@dataclass
class IntegerChainComplex:
    """Graded free abelian groups with boundary maps dropping ``step`` degrees.

    ``boundaries[k]`` maps degree k to degree k - step and must have shape
    ranks[k - step] x ranks[k]; missing entries mean zero maps.
    """

    ranks: dict[int, int]
    boundaries: dict[int, IntMatrix]
    step: int = 1

    def __post_init__(self):
        for k, mat in self.boundaries.items():
            want = (self.ranks.get(k - self.step, 0), self.ranks.get(k, 0))
            if (mat.rows, mat.cols) != want:
                raise ValueError(
                    f"boundary at degree {k} has shape {mat.rows}x{mat.cols}, expected {want}"
                )

    def boundary(self, k: int) -> IntMatrix:
        mat = self.boundaries.get(k)
        if mat is None:
            mat = IntMatrix(self.ranks.get(k - self.step, 0), self.ranks.get(k, 0))
        return mat

    def check_composition(self) -> None:
        for k in self.boundaries:
            upper = self.boundaries.get(k + self.step)
            if upper is not None and not self.boundary(k).compose(upper).is_zero():
                raise ValueError(f"boundary composition at degree {k + self.step} is non-zero")


def homology(complex_: IntegerChainComplex) -> dict[int, AbelianGroup]:
    """Homology group per degree: ker(out) / im(in), as canonical abelian groups.

    After the exact d∘d check, unit pairs are cancelled across the whole
    complex (Gaussian elimination): the degrees are walked from the top
    down, each boundary restricted to the generators that survived the
    map above it.  A +-1 entry of ``d_k`` at (r, c) makes the complex
    homotopy equivalent to one without generator c of degree k and
    generator r of degree k - step, where ``d_k`` is Schur-updated and its
    neighbours only lose that row and column.  Each generator is thus
    eliminated at most once.  The leftover complex has no unit entries and
    is finished by ``smith_normal_form`` on its small matrices.
    """
    complex_.check_composition()
    step = complex_.step
    alive = {k: set(range(n)) for k, n in complex_.ranks.items()}
    leftover: dict[int, dict[int, dict[int, int]]] = {}
    for k in sorted(complex_.boundaries, reverse=True):
        cols = alive.get(k, set())
        rows = {}
        for r, row in complex_.boundaries[k].data.items():
            kept = {c: v for c, v in row.items() if c in cols}
            if kept:
                rows[r] = kept
        pivot_rows, pivot_cols = _cancel_units(rows)
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
            raise ValueError(f"negative free rank at degree {k}: not a chain complex")
        torsion = tuple(t for t in incoming if t > 1)
        groups[k] = AbelianGroup(free_rank=free, torsion=torsion)
    return groups


def nonzero_groups(groups: dict) -> dict:
    return {k: g for k, g in groups.items() if not g.is_trivial}
