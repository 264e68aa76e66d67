import json
import random
from pathlib import Path

import pytest

from almax.homology import AbelianGroup, homology, nonzero_groups
from almax.presimplicial import (
    EMPTY_PPS,
    PartialPresimplicialSet,
    PPSError,
    chain_complex,
    pps_from_json,
    pps_from_json_dict,
    pps_to_json,
    pps_to_json_dict,
    validate_pps,
)
from helpers import MALFORMED_PPS

DATA = Path(__file__).parent / "data"

# three triangles with all their 1-faces collapsed except the listed ones;
# the realization is the projective plane
PROJECTIVE_PLANE_DOC = {
    "top_dim": 2,
    "cells": {"0": [], "1": ["r0", "r1", "r2"], "2": ["T0", "T1", "T2"]},
    "faces": {
        "2": {
            "T0": {"0": "r2", "2": "r0"},
            "T1": {"0": "r2", "1": "r1"},
            "T2": {"1": "r1", "2": "r0"},
        }
    },
}
PROJECTIVE_PLANE = pps_from_json_dict(PROJECTIVE_PLANE_DOC)

FULL_TWO_SIMPLEX_DOC = {
    "top_dim": 2,
    "cells": {"0": ["v0", "v1", "v2"], "1": ["e01", "e02", "e12"], "2": ["T"]},
    "faces": {
        "1": {
            "e01": {"0": "v1", "1": "v0"},
            "e02": {"0": "v2", "1": "v0"},
            "e12": {"0": "v2", "1": "v1"},
        },
        "2": {"T": {"0": "e12", "1": "e02", "2": "e01"}},
    },
}


def full_two_simplex():
    return pps_from_json_dict(FULL_TWO_SIMPLEX_DOC)


def with_faces(doc, k, per_cell):
    """A copy of the JSON form ``doc`` with the faces of dimension k replaced."""
    return {**doc, "faces": {**doc["faces"], str(k): per_cell}}


def reduced_homology(pps):
    return nonzero_groups(homology(chain_complex(pps, reduced=True)))


class TestValidate:
    def test_projective_plane_data_valid(self):
        assert validate_pps(PROJECTIVE_PLANE) is None

    def test_full_simplex_valid(self):
        assert validate_pps(full_two_simplex()) is None

    def test_redirected_top_face_is_caught(self):
        broken = pps_from_json_dict(
            with_faces(FULL_TWO_SIMPLEX_DOC, 2, {"T": {"0": "e01", "1": "e02", "2": "e01"}})
        )
        violation = validate_pps(broken)
        assert violation is not None
        assert (violation.cell, violation.i, violation.j) == ("T", 0, 1)
        assert violation.left == "v2" and violation.right == "v1"

    def test_collapsed_edges_absorb_any_top_assignment(self):
        # with every face of the 1-cells undefined, both composites are 0, so
        # redirecting d_0(T0) onto r0 still satisfies the zero-extension axiom
        redirected = pps_from_json_dict(
            with_faces(
                PROJECTIVE_PLANE_DOC,
                2,
                {
                    "T0": {"0": "r0", "2": "r0"},
                    "T1": {"0": "r2", "1": "r1"},
                    "T2": {"1": "r1", "2": "r0"},
                },
            )
        )
        assert validate_pps(redirected) is None

    def test_dangling_face_rejected_structurally(self):
        with pytest.raises(PPSError):
            pps_from_json_dict(
                {
                    "top_dim": 1,
                    "cells": {"0": ["v"], "1": ["e"]},
                    "faces": {"1": {"e": {"0": "missing"}}},
                }
            )

    def test_face_position_outside_the_cells_below_rejected(self):
        with pytest.raises(PPSError, match="outside"):
            PartialPresimplicialSet(
                top_dim=1, cells={0: ("v",), 1: ("e",)}, faces={1: ((1, None),)}
            )

    def test_faces_must_align_with_cells(self):
        with pytest.raises(PPSError, match="one 2-tuple per cell"):
            PartialPresimplicialSet(top_dim=1, cells={0: ("v",), 1: ("e",)}, faces={1: ((0,),)})
        with pytest.raises(PPSError, match="one 2-tuple per cell"):
            PartialPresimplicialSet(top_dim=1, cells={0: ("v",), 1: ("e",)}, faces={1: ()})

    def test_chain_complex_refuses_invalid(self):
        broken = pps_from_json_dict(
            with_faces(FULL_TWO_SIMPLEX_DOC, 2, {"T": {"0": "e01", "1": "e02", "2": "e01"}})
        )
        with pytest.raises(PPSError):
            chain_complex(broken)


class TestChainComplex:
    def test_projective_plane_homology(self):
        groups = reduced_homology(PROJECTIVE_PLANE)
        assert groups == {1: AbelianGroup(0, (2,))}

    def test_boundary_composition_is_zero(self):
        for pps in (PROJECTIVE_PLANE, full_two_simplex()):
            cx = chain_complex(pps, reduced=True)
            cx.check_composition()

    def test_full_simplex_is_contractible(self):
        assert reduced_homology(full_two_simplex()) == {}

    def test_unreduced_full_simplex_sees_the_point(self):
        groups = nonzero_groups(homology(chain_complex(full_two_simplex(), reduced=False)))
        assert groups == {0: AbelianGroup(1)}

    def test_two_glued_one_simplices_make_a_circle(self):
        circle = pps_from_json_dict(
            {
                "top_dim": 1,
                "cells": {"0": ["v0", "v1"], "1": ["a", "b"]},
                "faces": {"1": {"a": {"0": "v1", "1": "v0"}, "b": {"0": "v1", "1": "v0"}}},
            }
        )
        assert reduced_homology(circle) == {1: AbelianGroup(1)}

    def test_empty_set_is_a_minus_one_sphere(self):
        assert reduced_homology(EMPTY_PPS) == {-1: AbelianGroup(1)}

    def test_proper_set_has_no_degree_minus_one(self):
        groups = homology(chain_complex(PROJECTIVE_PLANE, reduced=True))
        assert groups[-1].is_trivial

    def test_discrete_points(self):
        pts = pps_from_json_dict({"top_dim": 0, "cells": {"0": ["p", "q", "r"]}})
        assert reduced_homology(pts) == {0: AbelianGroup(2)}

    def test_homology_invariant_under_renaming(self):
        rng = random.Random(5)
        reference = reduced_homology(PROJECTIVE_PLANE)
        names = ["r0", "r1", "r2", "T0", "T1", "T2"]
        for _ in range(5):
            mapping = {n: f"cell{rng.randrange(10**6)}_{i}" for i, n in enumerate(names)}
            renamed = pps_from_json_dict(
                {
                    "top_dim": 2,
                    "cells": {
                        str(k): [mapping.get(n, n) for n in PROJECTIVE_PLANE.cells[k]]
                        for k in range(3)
                    },
                    "faces": {
                        "2": {
                            mapping[cell]: {i: mapping[t] for i, t in fmap.items()}
                            for cell, fmap in PROJECTIVE_PLANE_DOC["faces"]["2"].items()
                        }
                    },
                }
            )
            assert reduced_homology(renamed) == reference


class TestJson:
    def test_round_trip_is_bit_exact(self):
        dumped = [pps_from_json(path.read_text()) for path in sorted(DATA.glob("*.json"))]
        assert len(dumped) == 3
        for pps in (PROJECTIVE_PLANE, full_two_simplex(), EMPTY_PPS, *dumped):
            text = pps_to_json(pps)
            again = pps_from_json(text)
            assert again == pps
            assert pps_to_json(again) == text

    def test_example_document_shape(self):
        doc = json.loads(pps_to_json(PROJECTIVE_PLANE))
        assert doc["top_dim"] == 2
        assert doc["cells"]["1"] == ["r0", "r1", "r2"]
        assert doc["faces"]["2"]["T0"] == {"0": "r2", "2": "r0"}

    def test_schema_errors(self):
        with pytest.raises(PPSError):
            pps_from_json("not json")
        with pytest.raises(PPSError):
            pps_from_json('{"cells": {}}')
        with pytest.raises(PPSError):
            pps_from_json('{"top_dim": 1, "cells": {"0": "v"}, "faces": {}}')
        with pytest.raises(PPSError):
            pps_from_json(
                '{"top_dim": 1, "cells": {"0": ["v"], "1": ["e"]},'
                ' "faces": {"1": {"e": {"0": "ghost"}}}}'
            )

    @pytest.mark.parametrize(
        "doc",
        [
            {"top_dim": 0, "cells": {"0": ["p", "p"]}},
            {"top_dim": 1, "cells": {"0": ["v"], "1": ["e"]}, "faces": {"1": {"e": {"2": "v"}}}},
            {"top_dim": 1, "cells": {"0": ["v"], "1": ["e"]}, "faces": {"1": {"f": {"0": "v"}}}},
            {"top_dim": 1, "cells": {"0": ["v"], "1": ["e"]}, "faces": {"0": {"v": {"0": "v"}}}},
            {"top_dim": 1, "cells": {"0": ["v"], "2": ["t"]}},
            {"top_dim": -2, "cells": {}},
        ],
        ids=[
            "duplicate-ids",
            "face-index-above-k",
            "faces-of-unknown-cell",
            "faces-in-dimension-0",
            "cell-dimension-above-top",
            "top-dim-below-minus-one",
        ],
    )
    def test_structural_rejections(self, doc):
        with pytest.raises(PPSError):
            pps_from_json(json.dumps(doc))

    @pytest.mark.parametrize("doc, key", MALFORMED_PPS.values(), ids=MALFORMED_PPS)
    def test_malformed_input_names_the_key(self, doc, key):
        with pytest.raises(PPSError) as caught:
            pps_from_json(json.dumps(doc))
        assert key in str(caught.value)
