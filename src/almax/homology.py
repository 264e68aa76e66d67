"""Exact integer homology of bounded chain complexes via Smith normal form.

All arithmetic uses Python integers, so it is exact and overflow-free.
Large sparse boundary matrices are first reduced by pivoting on +-1
entries (which never changes the invariant factors beyond prepending 1s);
whatever is left is finished off by the classical least-absolute-value
pivot algorithm.
"""

from __future__ import annotations

import heapq
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

    def entry(self, r: int, c: int) -> int:
        return self.data.get(r, {}).get(c, 0)

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


def _dense_invariant_factors(dense: list[list[int]]) -> list[int]:
    """Classical SNF on a small dense matrix; pivot = least non-zero |entry|.

    Ties break row-major.  Returns the non-zero invariant factors.
    """
    m = [row[:] for row in dense]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    factors: list[int] = []
    s = 0
    while s < min(nrows, ncols):
        pivot = None
        best = None
        for r in range(s, nrows):
            for c in range(s, ncols):
                v = abs(m[r][c])
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
                            m[r][c] -= q * m[s][c]
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
                            m[r][c] -= q * m[r][s]
                    if m[s][c]:
                        for r in range(s, nrows):
                            m[r][s], m[r][c] = m[r][c], m[r][s]
                        dirty = True
                        break
            if not dirty:
                break
        p = abs(m[s][s])
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
                m[s][c] += m[offender][c]
            continue
        factors.append(p)
        s += 1
    return factors


def _sparse_unit_reduction(matrix: IntMatrix) -> tuple[int, list[list[int]]]:
    """Pivot away +-1 entries, Schur-updating the rest.

    Returns (number of unit pivots, leftover dense matrix).  Each unit
    pivot contributes an invariant factor 1; the leftover carries all the
    remaining rank and torsion.  Pivots are chosen by Markowitz fill cost
    through a lazily revalidated heap, so the scan cost stays near the
    number of updates actually performed.
    """
    rows = {r: dict(row) for r, row in matrix.data.items()}
    col_rows: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)

    def cost(r: int, c: int) -> int:
        return (len(rows[r]) - 1) * (len(col_rows[c]) - 1)

    heap: list[tuple[int, int, int]] = []
    for r, row in rows.items():
        for c, v in row.items():
            if v in (1, -1):
                heap.append((cost(r, c), r, c))
    heapq.heapify(heap)

    units = 0
    while heap:
        est, r0, c0 = heapq.heappop(heap)
        row0 = rows.get(r0)
        if row0 is None or row0.get(c0) not in (1, -1):
            continue  # stale candidate
        current = cost(r0, c0)
        if current > est:
            heapq.heappush(heap, (current, r0, c0))
            continue
        pivot_row = rows.pop(r0)
        p = pivot_row.pop(c0)
        col_rows[c0].discard(r0)
        for c in pivot_row:
            col_rows[c].discard(r0)
        for r in list(col_rows.get(c0, ())):
            row = rows[r]
            alpha = row.pop(c0)
            factor = alpha * p  # p in {1,-1}: alpha/p == alpha*p
            for c, beta in pivot_row.items():
                new = row.get(c, 0) - factor * beta
                if new:
                    if c not in row:
                        col_rows.setdefault(c, set()).add(r)
                    row[c] = new
                    if new in (1, -1):
                        heapq.heappush(heap, (0, r, c))
                else:
                    if c in row:
                        del row[c]
                        col_rows[c].discard(r)
            if not row:
                del rows[r]
        col_rows.pop(c0, None)
        units += 1
    live_rows = sorted(rows)
    live_cols = sorted({c for row in rows.values() for c in row})
    col_index = {c: i for i, c in enumerate(live_cols)}
    dense = [[0] * len(live_cols) for _ in live_rows]
    for i, r in enumerate(live_rows):
        for c, v in rows[r].items():
            dense[i][col_index[c]] = v
    return units, dense


def smith_normal_form(matrix) -> tuple[int, ...]:
    """Non-zero diagonal of the Smith normal form of an integer matrix.

    Accepts an ``IntMatrix`` or any list-of-rows.  The result is the chain
    of invariant factors d1 | d2 | ...; its length is the rank.  An empty
    or zero matrix yields an empty diagonal.
    """
    m = _as_matrix(matrix)
    if m.is_zero():
        return ()
    if m.rows * m.cols <= 4096:
        return tuple(_dense_invariant_factors(m.to_rows()))
    units, leftover = _sparse_unit_reduction(m)
    tail = _dense_invariant_factors(leftover) if leftover else []
    return (1,) * units + tuple(tail)


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
    """Homology group per degree: ker(out) / im(in), as canonical abelian groups."""
    complex_.check_composition()
    snf: dict[int, tuple[int, ...]] = {}

    def factors(k: int) -> tuple[int, ...]:
        if k not in snf:
            snf[k] = smith_normal_form(complex_.boundary(k)) if k in complex_.boundaries else ()
        return snf[k]

    groups: dict[int, AbelianGroup] = {}
    for k, n in complex_.ranks.items():
        out_rank = len(factors(k))
        incoming = factors(k + complex_.step)
        free = n - out_rank - len(incoming)
        if free < 0:
            raise ValueError(f"negative free rank at degree {k}: not a chain complex")
        torsion = tuple(t for t in incoming if t > 1)
        groups[k] = AbelianGroup(free_rank=free, torsion=torsion)
    return groups


def nonzero_groups(groups: dict) -> dict:
    return {k: g for k, g in groups.items() if not g.is_trivial}
