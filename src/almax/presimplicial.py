"""Partial presimplicial sets: graded cell sets with partially defined face maps.

Face maps obey d_i d_j = d_{j-1} d_i (i < j) under zero-extension, where an
undefined face counts as 0 and every face of 0 is 0.  The chain complex of
the pointed geometric realization is produced at chain level only: no
topological data structure is built.

A face is stored as its target's position one dimension down.  Cell ids
are opaque names: ``pps_from_json_dict`` turns them into positions,
``pps_to_json_dict`` turns positions back into names, and ``validate_pps``
names cells only to report a violation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .homology import IntegerChainComplex, IntMatrix


class PPSError(ValueError):
    """Structurally invalid partial presimplicial set data."""


@dataclass(frozen=True)
class AxiomViolation:
    """Witness of a failed face-map identity d_i d_j = d_{j-1} d_i."""

    dimension: int
    cell: str
    i: int
    j: int
    left: str | None   # d_i(d_j(cell)), None meaning 0
    right: str | None  # d_{j-1}(d_i(cell))

    def describe(self) -> str:
        fmt = lambda x: x if x is not None else "0"
        return (
            f"cell {self.cell!r} in dimension {self.dimension}: "
            f"d_{self.i} d_{self.j} = {fmt(self.left)} but "
            f"d_{self.j - 1} d_{self.i} = {fmt(self.right)}"
        )


class AxiomViolationError(PPSError):
    """The face maps break the axiom; ``violation`` is the first witness."""

    def __init__(self, violation: AxiomViolation):
        super().__init__(f"face-map axiom fails: {violation.describe()}")
        self.violation = violation


@dataclass(frozen=True)
class PartialPresimplicialSet:
    """Cells per dimension 0..top_dim with partial face maps.

    ``cells[k]`` is the ordered tuple of cell ids in dimension k, for every
    k in 0..top_dim; the ids are names only.  ``faces[k]``, for every k in
    1..top_dim, is aligned with ``cells[k]``: each entry is a (k+1)-tuple
    whose i-th item is the position of d_i(cell) in ``cells[k-1]``, or None
    when that face is undefined.  ``top_dim`` is -1 for the empty set.
    """

    top_dim: int
    cells: dict[int, tuple[str, ...]] = field(default_factory=dict)
    faces: dict[int, tuple[tuple[int | None, ...], ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.top_dim < -1:
            raise PPSError(f"top_dim must be >= -1, got {self.top_dim}")
        if sorted(self.cells) != list(range(self.top_dim + 1)):
            raise PPSError(f"cell dimensions {sorted(self.cells)} are not 0..{self.top_dim}")
        if sorted(self.faces) != list(range(1, self.top_dim + 1)):
            raise PPSError(f"face dimensions {sorted(self.faces)} are not 1..{self.top_dim}")
        for k, names in self.cells.items():
            if len(set(names)) != len(names):
                raise PPSError(f"duplicate cell ids in dimension {k}")
        for k, fmaps in self.faces.items():
            if len(fmaps) != len(self.cells[k]) or any(len(fmap) != k + 1 for fmap in fmaps):
                raise PPSError(f"faces[{k}] must hold one {k + 1}-tuple per cell of dimension {k}")
            below = len(self.cells[k - 1])
            if any(t is not None and not 0 <= t < below for fmap in fmaps for t in fmap):
                raise PPSError(f"a face of dimension {k} points outside the {below} cells below")

    def is_proper(self) -> bool:
        """True iff some face in the valid index range is undefined."""
        return any(None in fmap for fmaps in self.faces.values() for fmap in fmaps)


EMPTY_PPS = PartialPresimplicialSet(top_dim=-1)


def validate_pps(pps: PartialPresimplicialSet) -> AxiomViolation | None:
    """Check d_i d_j = d_{j-1} d_i (0 <= i < j <= k) under zero-extension.

    Returns the first violation found (cells in listed order, then (i, j)
    lexicographically), or None when the face maps are consistent.
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


def chain_complex(pps: PartialPresimplicialSet, reduced: bool = True) -> IntegerChainComplex:
    """Cellular chain complex of the realization, boundary = sum (-1)^i d_i.

    Undefined faces contribute 0.  With ``reduced`` set the complex
    computes the reduced homology of the pointed realization: when some
    face is undefined the collapsed basepoint absorbs the augmentation and
    the plain zero-extension complex already computes reduced homology
    (degree -1 carries nothing); when every face is defined no basepoint
    is added and the usual augmentation (an extra generator in degree -1
    hit once by every 0-cell) reduces degree 0.  The empty set comes out
    with a single Z in degree -1.  Face maps that break the axiom raise
    ``AxiomViolationError``.

    The axiom check is what certifies d∘d = 0, so ``homology`` needs no
    other.  With each undefined face read as 0,
    d d = sum_{i<j} (-1)^(i+j) d_i d_j + sum_{j<=i} (-1)^(i+j) d_i d_j,
    and d_i d_j = d_{j-1} d_i turns the term (i, j) of the first sum into
    minus the term (j - 1, i) of the second; (i, j) -> (j - 1, i) is a
    bijection between the two ranges of pairs, so the sums cancel.  The
    augmentation is added only when every face is defined, and then it
    sends the boundary d_0 e - d_1 e of each 1-cell e to 1 - 1 = 0.
    """
    violation = validate_pps(pps)
    if violation is not None:
        raise AxiomViolationError(violation)

    ranks = {k: len(pps.cells[k]) for k in range(pps.top_dim + 1)}
    boundaries: dict[int, IntMatrix] = {}
    for k in range(1, pps.top_dim + 1):
        # the face targets are range-checked by PartialPresimplicialSet, so the
        # rows are written directly; faces that coincide add up, and may cancel
        rows: dict[int, dict[int, int]] = {}
        for col, fmap in enumerate(pps.faces[k]):
            for i, target in enumerate(fmap):
                if target is None:
                    continue
                row = rows.get(target)
                if row is None:
                    rows[target] = row = {}
                new = row.get(col, 0) + (-1 if i % 2 else 1)
                if new:
                    row[col] = new
                else:
                    del row[col]
                    if not row:
                        del rows[target]
        boundaries[k] = IntMatrix(ranks[k - 1], ranks[k], rows)

    if reduced and not pps.is_proper():
        ranks[-1] = 1
        points = ranks.get(0, 0)
        ones = {0: dict.fromkeys(range(points), 1)} if points else {}
        boundaries[0] = IntMatrix(1, points, ones)
    elif reduced:
        ranks[-1] = 0
    return IntegerChainComplex(ranks=ranks, boundaries=boundaries, step=1)


def pps_to_json_dict(pps: PartialPresimplicialSet) -> dict:
    """The JSON form, naming each face target by its cell id."""
    cells = {str(k): list(pps.cells[k]) for k in range(pps.top_dim + 1)}
    faces: dict[str, dict] = {}
    for k in range(1, pps.top_dim + 1):
        below = pps.cells[k - 1]
        per_cell = {}
        for cell, fmap in zip(pps.cells[k], pps.faces[k]):
            named = {str(i): below[t] for i, t in enumerate(fmap) if t is not None}
            if named:
                per_cell[cell] = named
        if per_cell:
            faces[str(k)] = per_cell
    return {"top_dim": pps.top_dim, "cells": cells, "faces": faces}


def _key(key: str, low: int, high: int, where: str) -> int:
    """The integer in low..high that a JSON object key spells."""
    value = int(key) if key.removeprefix("-").isdecimal() else None
    if value is None or str(value) != key or not low <= value <= high:
        raise PPSError(f"{where}: key {key!r} is not an integer in {low}..{high}")
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise PPSError(f"{where} must be an object")
    return value


def pps_from_json_dict(doc: dict) -> PartialPresimplicialSet:
    """Parse the JSON form, turning each face target's cell id into its position.

    ``cells`` must list every dimension 0..top_dim, so that what the parse
    allocates is bounded by the document; a missing face is undefined.
    """
    _object(doc, "PPS JSON")
    unknown = set(doc) - {"top_dim", "cells", "faces"}
    if unknown:
        raise PPSError(f"unknown keys in PPS JSON: {sorted(unknown)}")
    top_dim = doc.get("top_dim")
    if not isinstance(top_dim, int) or isinstance(top_dim, bool):
        raise PPSError("'top_dim' must be an integer")
    cells: dict[int, tuple[str, ...]] = {}
    for key, names in _object(doc.get("cells", {}), "'cells'").items():
        k = _key(key, 0, top_dim, "cells")
        if not isinstance(names, list) or any(not isinstance(n, str) for n in names):
            raise PPSError(f"cells[{key!r}] must be a list of string ids")
        cells[k] = tuple(names)
    if len(cells) != top_dim + 1:
        raise PPSError(f"'cells' must list every dimension 0..{top_dim}")
    position = {k: {name: p for p, name in enumerate(names)} for k, names in cells.items()}
    rows = {k: [[None] * (k + 1) for _ in cells[k]] for k in range(1, top_dim + 1)}
    for key, per_cell in _object(doc.get("faces", {}), "'faces'").items():
        k = _key(key, 1, top_dim, "faces")
        for cell, fmap in _object(per_cell, f"faces[{key!r}]").items():
            if cell not in position[k]:
                raise PPSError(f"faces listed for unknown cell {cell!r} in dimension {k}")
            row = rows[k][position[k][cell]]
            for index, target in _object(fmap, f"faces[{key!r}][{cell!r}]").items():
                i = _key(index, 0, k, f"faces[{key!r}][{cell!r}]")
                if not isinstance(target, str):
                    raise PPSError(f"faces[{key!r}][{cell!r}][{index!r}] must be a string id")
                if target not in position[k - 1]:
                    raise PPSError(
                        f"dangling face target: d_{i}({cell!r}) = {target!r} "
                        f"is not a cell of dimension {k - 1}"
                    )
                row[i] = position[k - 1][target]
    faces = {k: tuple(map(tuple, per_dim)) for k, per_dim in rows.items()}
    return PartialPresimplicialSet(top_dim=top_dim, cells=cells, faces=faces)


def pps_to_json(pps: PartialPresimplicialSet) -> str:
    return json.dumps(pps_to_json_dict(pps), indent=2)


def pps_from_json(text: str) -> PartialPresimplicialSet:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting is malformed
        raise PPSError(f"not valid JSON: {exc}") from None
    return pps_from_json_dict(doc)
