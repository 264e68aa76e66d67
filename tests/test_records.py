"""The package's record classes: field-wise equality, hashing, repr and read-only fields,
and the start-up cost they must not bring back (no ``dataclasses`` on ``import almax.cli``)."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from almax import analyze_diagram, parse_pd
from almax.diagram import Diagram, State
from almax.homology import AbelianGroup, IntegerChainComplex, IntMatrix
from almax.homotopy import HomotopyType
from almax.presimplicial import AxiomViolation, PartialPresimplicialSet
from almax.state_graph import StateGraph
from conftest import LEFT_TREFOIL

SRC = Path(__file__).resolve().parent.parent / "src"
TREFOIL = ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3))


def frozen_pairs():
    """Two equal, separately built instances of each frozen record, with its fields."""
    return [
        (lambda: Diagram(TREFOIL), ("crossings", "free_loops")),
        (lambda: State(("A", "B")), ("labels",)),
        (lambda: AbelianGroup(1, (2,)), ("free_rank", "torsion")),
        (lambda: HomotopyType((2, 1), 0), ("spheres", "rp2_suspensions")),
        (lambda: AxiomViolation(2, "x", 0, 1, "a", None), ("dimension", "cell", "i", "j", "left", "right")),
        (lambda: StateGraph(("u", "v"), (("u", "v"),)), ("vertices", "edges")),
        (lambda: PartialPresimplicialSet(0, {0: ("p",)}), ("top_dim", "cells", "faces")),
    ]


def mutable_pairs():
    """Two equal, separately built instances of each mutable record, with its fields."""
    return [
        (lambda: IntMatrix(2, 3, {0: {1: 2}, 1: {0: -1, 2: 1}}), ("rows", "cols", "data")),
        (lambda: IntegerChainComplex({0: 1, 1: 1}, {1: IntMatrix(1, 1, {0: {0: 2}})}, 1),
         ("ranks", "boundaries", "step")),
        (lambda: analyze_diagram(parse_pd(LEFT_TREFOIL)),
         ("input_diagram", "diagram", "mirrored", "a_adequate", "b_adequate",
          "circles_all_b", "graph", "homotopy", "tables")),
    ]


ALL_PAIRS = frozen_pairs() + mutable_pairs()


def expected_repr(obj, names) -> str:
    return f"{type(obj).__name__}({', '.join(f'{n}={getattr(obj, n)!r}' for n in names)})"


@pytest.mark.parametrize("make, fields", ALL_PAIRS)
def test_equal_by_fields_and_not_equal_to_other_types(make, fields):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != tuple(getattr(a, n) for n in fields)
    assert a != AbelianGroup(3)


@pytest.mark.parametrize("make, fields", frozen_pairs())
def test_frozen_records_hash_by_their_fields(make, fields):
    a, b = make(), make()
    values = tuple(getattr(a, n) for n in fields)
    if any(isinstance(v, dict) for v in values):
        with pytest.raises(TypeError):  # a frozen record of dicts is unhashable, as its fields are
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)
        assert len({a, b}) == 1


@pytest.mark.parametrize("make, fields", mutable_pairs())
def test_mutable_records_are_unhashable(make, fields):
    with pytest.raises(TypeError):
        hash(make())


def test_records_differ_when_one_field_does():
    assert AbelianGroup(1, (2,)) != AbelianGroup(1, (4,))
    assert AbelianGroup(1) != AbelianGroup(2)
    assert Diagram(TREFOIL) != Diagram(TREFOIL[1:] + TREFOIL[:1])
    assert IntMatrix(1, 2, {0: {0: 1}}) != IntMatrix(1, 2, {0: {1: 1}})
    assert IntMatrix(1, 2, {0: {0: 1}}) != IntMatrix(2, 1, {0: {0: 1}})
    assert IntegerChainComplex({0: 1, 1: 1}, {1: IntMatrix(1, 1, {0: {0: 2}})}) != (
        IntegerChainComplex({0: 1, 1: 1}, {1: IntMatrix(1, 1, {0: {0: 3}})})
    )
    assert HomotopyType((1,)) != HomotopyType((1,), 0)


@pytest.mark.parametrize("make, fields", frozen_pairs())
def test_frozen_fields_are_read_only(make, fields):
    obj = make()
    for name in fields:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_mutable_records_take_assignment():
    matrix = IntMatrix(1, 1)
    matrix.data = {0: {0: 2}}
    assert matrix == IntMatrix(1, 1, {0: {0: 2}})


@pytest.mark.parametrize("make, fields", ALL_PAIRS)
def test_repr_lists_the_fields_in_order(make, fields):
    obj = make()
    if isinstance(obj, IntMatrix):  # a matrix shows its shape and its number of entries
        assert repr(obj) == f"IntMatrix({obj.rows}x{obj.cols}, nnz={obj.nnz})"
    else:
        assert repr(obj) == expected_repr(obj, fields)


def test_repr_text():
    assert repr(AbelianGroup(free_rank=1, torsion=(2,))) == "AbelianGroup(free_rank=1, torsion=(2,))"
    assert repr(AbelianGroup()) == "AbelianGroup(free_rank=0, torsion=())"
    # the arc-end pairing is derived, so it is neither shown nor compared
    assert repr(Diagram(TREFOIL)) == (
        "Diagram(crossings=((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)), free_loops=0)"
    )
    assert repr(Diagram((), 1)) == "Diagram(crossings=(), free_loops=1)"
    assert repr(State(("A", "B"))) == "State(labels=('A', 'B'))"
    assert repr(IntMatrix(3, 4, {0: {0: 1, 3: 2}, 2: {1: 1, 2: 5, 3: -1}})) == "IntMatrix(3x4, nnz=5)"
    assert repr(HomotopyType((2, 1), None)) == "HomotopyType(spheres=(1, 2), rp2_suspensions=None)"
    assert repr(AxiomViolation(2, "x", 0, 1, "a", None)) == (
        "AxiomViolation(dimension=2, cell='x', i=0, j=1, left='a', right=None)"
    )
    assert repr(StateGraph(("u",), (("u", "u"),))) == "StateGraph(vertices=('u',), edges=(('u', 'u'),))"
    assert repr(PartialPresimplicialSet(top_dim=-1)) == (
        "PartialPresimplicialSet(top_dim=-1, cells={}, faces={})"
    )
    assert repr(IntegerChainComplex({0: 1}, {})) == (
        "IntegerChainComplex(ranks={0: 1}, boundaries={}, step=1)"
    )


def test_constructor_signatures_and_defaults():
    assert AbelianGroup() == AbelianGroup(0, ()) == AbelianGroup(free_rank=0, torsion=())
    assert HomotopyType() == HomotopyType((), None) == HomotopyType(spheres=(), rp2_suspensions=None)
    assert Diagram(TREFOIL) == Diagram(crossings=TREFOIL, free_loops=0)
    assert IntegerChainComplex({}, {}).step == 1
    assert IntegerChainComplex(ranks={}, boundaries={}, step=2).step == 2
    assert IntMatrix(2, 3).data == {}
    assert IntMatrix(rows=2, cols=3, data={0: {0: 1}}).nnz == 1
    assert State(labels=("A",)).labels == ("A",)
    assert StateGraph(vertices=(), edges=()).edge_count == 0
    v = AxiomViolation(dimension=1, cell="e", i=0, j=1, left=None, right="p")
    assert (v.dimension, v.cell, v.i, v.j, v.left, v.right) == (1, "e", 0, 1, None, "p")
    with pytest.raises(TypeError):
        AbelianGroup(1, (), 3)
    with pytest.raises(TypeError):
        IntMatrix(1)


def test_checks_run_at_construction():
    # each record still normalizes and validates its fields when it is built
    assert Diagram([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]).crossings == TREFOIL
    assert HomotopyType((3, 1, 2)).spheres == (1, 2, 3)
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        State(("A", "C"))
    with pytest.raises(ValueError):
        StateGraph(("u", "u"), ())
    with pytest.raises(ValueError):
        IntegerChainComplex({0: 1}, {1: IntMatrix(2, 1)})
    with pytest.raises(ValueError):
        PartialPresimplicialSet(top_dim=0)


@pytest.mark.parametrize("make, fields", ALL_PAIRS)
def test_records_copy_and_pickle(make, fields):
    obj = make()
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj)
        assert repr(twin) == repr(obj)
        assert twin == obj


def test_records_match_by_position():
    match AbelianGroup(1, (2,)):
        case AbelianGroup(rank, (order,)):
            assert (rank, order) == (1, 2)
        case _:
            pytest.fail("AbelianGroup does not match its fields in order")


def test_each_empty_pps_gets_its_own_dicts():
    a, b = PartialPresimplicialSet(top_dim=-1), PartialPresimplicialSet(top_dim=-1)
    assert a == b
    assert a.cells is not b.cells and a.faces is not b.faces


def test_import_loads_no_dataclasses_or_inspect():
    # record boilerplate once cost about a third of the CLI's start-up
    code = (
        "import almax.cli, sys; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_src_imports_no_annotation_or_boilerplate_modules():
    banned = {"dataclasses", "typing"}
    found = []
    for path in sorted((SRC / "almax").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n.partition(".")[0] in banned]
    assert not found
