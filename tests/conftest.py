import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from almax import full_homology_table, mirror, parse_pd

# Calibration diagram: all-A resolution has 3 circles and a triangular graph.
LEFT_TREFOIL = "X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"
RIGHT_TREFOIL = "X(4,2,5,1);X(6,4,1,3);X(2,6,3,5)"
FIGURE_EIGHT = "X(4,2,5,1);X(8,6,1,5);X(6,3,7,4);X(2,7,3,8)"
# planar Hopf codes: four bigon faces (F = c + 2), each the mirror of the other
POSITIVE_HOPF = "X(4,1,3,2);X(2,3,1,4)"
NEGATIVE_HOPF = "X(1,3,2,4);X(3,1,4,2)"
POSITIVE_KINK = "X(1,1,2,2)"  # the (2,1) torus diagram
B_ADEQUATE_ONLY = "X(1,2,2,1)"  # mirror of the positive kink

# Closure of the braid word s1^3 s2^-1 s1^-3 s2^-1 (standard diagram of 8_20):
# 8 crossings, a knot, A-adequate only, 4 all-A circles, one 3-cycle (p1 = 1).
KNOT_8_20 = (
    "X(1,4,5,2);X(4,6,7,5);X(6,8,9,7);X(3,9,10,11);"
    "X(10,8,12,13);X(13,12,14,15);X(15,14,1,17);X(11,17,2,3)"
)

# Alternating 10-crossing diagram whose checkerboard graph is a hexagon with
# four consecutive spokes: 7 all-A circles, 5 all-B circles, simple graph with
# p1 = 4 and odd cycles (the stated shape of the standard 10_44 diagram).
KNOT_10_44 = (
    "X(1,2,3,4);X(4,5,6,7);X(7,8,9,10);X(10,11,12,13);X(13,12,14,15);"
    "X(16,1,15,14);X(17,18,2,16);X(18,19,5,3);X(19,20,8,6);X(20,17,11,9)"
)

TORUS_2_3 = "X(1,2,3,4);X(2,5,6,3);X(5,1,4,6)"
TORUS_2_4 = "X(1,2,3,4);X(2,5,6,3);X(5,7,8,6);X(7,1,4,8)"
TORUS_2_5 = "X(1,2,3,4);X(2,5,6,3);X(5,7,8,6);X(7,9,10,8);X(9,1,4,10)"
TORUS_2_6 = "X(1,2,3,4);X(2,5,6,3);X(5,7,8,6);X(7,9,10,8);X(9,11,12,10);X(11,1,4,12)"

CORPUS = {
    "left_trefoil": LEFT_TREFOIL,
    "right_trefoil": RIGHT_TREFOIL,
    "figure_eight": FIGURE_EIGHT,
    "positive_hopf": POSITIVE_HOPF,
    "negative_hopf": NEGATIVE_HOPF,
    "torus_2_1": POSITIVE_KINK,
    "torus_2_2": "X(1,2,3,4);X(2,1,4,3)",
    "torus_2_3": TORUS_2_3,
    "torus_2_4": TORUS_2_4,
    "torus_2_5": TORUS_2_5,
    "torus_2_6": TORUS_2_6,
    "8_20": KNOT_8_20,
    "10_44": KNOT_10_44,
}


@pytest.fixture(scope="session")
def corpus():
    return {name: parse_pd(pd) for name, pd in CORPUS.items()}


@pytest.fixture(scope="session")
def full_tables(corpus):
    """Full framed homology tables of the corpus, computed once per session."""
    return {name: full_homology_table(d)[0] for name, d in corpus.items()}


@pytest.fixture
def left_trefoil():
    return parse_pd(LEFT_TREFOIL)


@pytest.fixture
def right_trefoil():
    return parse_pd(RIGHT_TREFOIL)


@pytest.fixture
def figure_eight():
    return parse_pd(FIGURE_EIGHT)


@pytest.fixture
def unknot():
    return parse_pd("UNKNOT")
