import random

import pytest

from almax.homology import (
    AbelianGroup,
    IntegerChainComplex,
    IntMatrix,
    _cancel_units,
    _dense_invariant_factors,
    homology,
    nonzero_groups,
    smith_normal_form,
)
from helpers import homology_minor_gcd, invariant_factors, snf_minor_gcd

# boundary of the projective-plane cell structure: T0 -> r0+r2, T1 -> -r1+r2, T2 -> r0-r1
RP2_BOUNDARY = [
    [1, 0, 1],
    [0, -1, -1],
    [1, 1, 0],
]


class TestAbelianGroup:
    def test_render(self):
        assert AbelianGroup().render() == "0"
        assert AbelianGroup(1).render() == "Z"
        assert AbelianGroup(3, (2,)).render() == "Z^3 + Z/2"
        assert AbelianGroup(0, (2, 4)).render() == "Z/2 + Z/4"

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))

    def test_canonical_equality(self):
        assert AbelianGroup(1, (2,)) == AbelianGroup(1, (2,))
        assert AbelianGroup(1) != AbelianGroup(0, (2,))


class TestSmithNormalForm:
    def test_single_entry(self):
        assert smith_normal_form([[2]]) == (2,)

    def test_identity(self):
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)

    def test_rp2_boundary(self):
        assert smith_normal_form(RP2_BOUNDARY) == (1, 1, 2)

    def test_empty_and_zero(self):
        assert smith_normal_form([]) == ()
        assert smith_normal_form([[0, 0], [0, 0]]) == ()
        assert smith_normal_form(IntMatrix(0, 5)) == ()

    def test_divisibility_chain_and_sign(self):
        factors = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert all(f > 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    def test_matches_minor_gcd_oracle_on_random_matrices(self):
        rng = random.Random(20240811)
        for trial in range(120):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            dense = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            assert smith_normal_form(dense) == snf_minor_gcd(dense), dense

    def test_sparse_path_agrees_with_dense(self):
        # unit cancellation followed by the dense tail, against the dense algorithm alone
        rng = random.Random(7)
        size = 80
        entries = {}
        for _ in range(400):
            entries[(rng.randrange(size), rng.randrange(size))] = rng.choice([-1, 1, 1, 2])
        big = IntMatrix(size, size, entries)
        assert smith_normal_form(big) == tuple(_dense_invariant_factors(big.to_rows()))

    def test_large_matrix_with_non_unit_entries_agrees_with_dense(self):
        # 70 x 75 = 5250 cells; many entries are not units, so a dense tail is left
        rng = random.Random(29)
        rows, cols = 70, 75
        entries = {}
        for _ in range(330):
            entries[(rng.randrange(rows), rng.randrange(cols))] = rng.choice([-1, 1, -2, 2, 3])
        big = IntMatrix(rows, cols, entries)
        assert rows * cols > 4096
        assert smith_normal_form(big) == tuple(_dense_invariant_factors(big.to_rows()))

    def test_unit_created_in_a_scanned_column_is_cancelled(self):
        # column 0 has no unit when scanned; pivoting on (0, 1) turns 3 into 3 - 2 = 1 there
        rows = {0: {0: 2, 1: 1}, 1: {0: 3, 1: 1}}
        assert _cancel_units(rows) == ([0, 1], [1, 0])
        assert rows == {}

    def test_unit_cancellation_leaves_no_unit_entry(self):
        rng = random.Random(41)
        for _ in range(30):
            rows, cols = rng.randint(5, 40), rng.randint(5, 40)
            entries = {}
            for _ in range(rng.randint(10, 3 * (rows + cols))):
                entries[(rng.randrange(rows), rng.randrange(cols))] = rng.choice([-1, 1, 2, -3])
            m = IntMatrix(rows, cols, entries)
            left = {r: dict(row) for r, row in m.data.items()}
            pivot_rows, pivot_cols = _cancel_units(left)
            assert all(v not in (1, -1) for row in left.values() for v in row.values())
            assert not set(pivot_rows) & set(left)
            assert not {c for row in left.values() for c in row} & set(pivot_cols)
            assert smith_normal_form(m) == tuple(_dense_invariant_factors(m.to_rows()))


class TestIntMatrix:
    def test_compose(self):
        a = IntMatrix.from_rows([[1, 2], [0, 1]])
        b = IntMatrix.from_rows([[1, 0], [3, 1]])
        assert a.compose(b).to_rows() == [[7, 2], [3, 1]]

    def test_entries_accumulate(self):
        m = IntMatrix(2, 2)
        m.add(0, 0, 1)
        m.add(0, 0, -1)
        assert m.is_zero()

    def test_shape_checked(self):
        m = IntMatrix(2, 2)
        with pytest.raises(IndexError):
            m.add(2, 0, 1)


def make_complex(ranks, dense_boundaries, step=1):
    boundaries = {k: IntMatrix.from_rows(rows) for k, rows in dense_boundaries.items()}
    return IntegerChainComplex(ranks=ranks, boundaries=boundaries, step=step)


class TestHomology:
    def test_rp2_complex(self):
        # 0 -> Z^3 -> Z^3 -> 0 with the determinant +-2 boundary
        cx = make_complex({2: 3, 1: 3, 0: 0}, {2: RP2_BOUNDARY})
        groups = homology(cx)
        assert groups[2] == AbelianGroup()
        assert groups[1] == AbelianGroup(0, (2,))
        assert groups[0] == AbelianGroup()

    def test_zero_complex(self):
        cx = make_complex({1: 0, 0: 0}, {})
        assert all(g.is_trivial for g in homology(cx).values())

    def test_composition_checked(self):
        bad = make_complex({2: 1, 1: 1, 0: 1}, {2: [[1]], 1: [[1]]})
        with pytest.raises(ValueError):
            homology(bad)

    def test_step_two(self):
        cx = make_complex({3: 1, 1: 1}, {3: [[2]]}, step=2)
        groups = homology(cx)
        assert groups[3] == AbelianGroup()
        assert groups[1] == AbelianGroup(0, (2,))

    def test_euler_characteristic(self):
        rng = random.Random(3)
        # random valid complex: C_1 --M--> C_0, no relation to check beyond ranks
        m = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        cx = make_complex({1: 4, 0: 3}, {1: m})
        groups = homology(cx)
        euler_chain = 4 - 3
        euler_homology = groups[1].free_rank - groups[0].free_rank
        assert euler_chain == euler_homology

    def test_invariance_under_basis_permutation_and_signs(self):
        rng = random.Random(11)
        base = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
        reference = homology(make_complex({1: 5, 0: 4}, {1: base}))
        for seed in range(5):
            r = random.Random(seed)
            rows = list(range(4))
            cols = list(range(5))
            r.shuffle(rows)
            r.shuffle(cols)
            signs_r = [r.choice((1, -1)) for _ in rows]
            signs_c = [r.choice((1, -1)) for _ in cols]
            shuffled = [
                [signs_r[i] * signs_c[j] * base[rows[i]][cols[j]] for j in range(5)]
                for i in range(4)
            ]
            assert homology(make_complex({1: 5, 0: 4}, {1: shuffled})) == reference

    def test_nonzero_groups_filter(self):
        groups = {0: AbelianGroup(), 1: AbelianGroup(2)}
        assert nonzero_groups(groups) == {1: AbelianGroup(2)}


TORSION_ORDERS = (1, 2, 3, 4, 6)


def matmul(a, b, cols):
    """Dense product of a (n x m) and b (m x cols), for any of n, m, cols zero."""
    return [[sum(x * b[m][j] for m, x in enumerate(row)) for j in range(cols)] for row in a]


def random_unimodular(rng, n):
    """(U, U^-1) with U a product of random elementary row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(3 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:  # negate row i: its own inverse, so negate column i of U^-1
            u[i] = [-x for x in u[i]]
            for row in u_inv:
                row[i] = -row[i]
        else:  # row i += a * row j; the inverse takes column j -= a * column i
            a = rng.choice((1, -1, 2, -2))
            u[i] = [x + a * y for x, y in zip(u[i], u[j])]
            for row in u_inv:
                row[j] -= a * row[i]
    return u, u_inv


def split_complex(rng, step):
    """A seeded direct sum of pieces Z and Z --t--> Z, in random unimodular bases.

    Returns the complex and its homology, known by construction: a piece Z
    is a free summand, and a piece Z --t--> Z with t > 1 is a Z/t in its
    lower degree.  Each degree holds at most four generators, so the
    minor-gcd oracle stays cheap.
    """
    degrees = [step * i for i in range(rng.randint(2, 5))]
    ranks = dict.fromkeys(degrees, 0)
    free = dict.fromkeys(degrees, 0)
    orders = {k: [] for k in degrees}
    arrows = []  # (degree, source generator, target generator, t)
    for _ in range(rng.randint(1, 10)):
        k = rng.choice(degrees)
        if rng.random() < 0.3:
            if ranks[k] < 4:
                ranks[k] += 1
                free[k] += 1
        elif k - step in ranks and ranks[k] < 4 and ranks[k - step] < 4:
            t = rng.choice(TORSION_ORDERS)
            arrows.append((k, ranks[k], ranks[k - step], t))
            ranks[k] += 1
            ranks[k - step] += 1
            if t > 1:
                orders[k - step].append(t)
    dense = {k: [[0] * ranks[k] for _ in range(ranks[k - step])] for k in degrees[1:]}
    for k, col, row, t in arrows:
        dense[k][row][col] = t
    bases = {k: random_unimodular(rng, n) for k, n in ranks.items()}
    for k, (u, u_inv) in bases.items():
        n = ranks[k]
        assert matmul(u, u_inv, n) == [[int(i == j) for j in range(n)] for i in range(n)]
    boundaries = {}
    for k, block in dense.items():
        conj = matmul(matmul(bases[k - step][0], block, ranks[k]), bases[k][1], ranks[k])
        entries = {(r, c): v for r, row in enumerate(conj) for c, v in enumerate(row) if v}
        boundaries[k] = IntMatrix(ranks[k - step], ranks[k], entries)
    expected = {k: AbelianGroup(free[k], invariant_factors(orders[k])) for k in degrees}
    return IntegerChainComplex(ranks=ranks, boundaries=boundaries, step=step), expected


class TestCancellationKnownAnswers:
    def test_invariant_factors_helper(self):
        assert invariant_factors([]) == ()
        assert invariant_factors([2, 3]) == (6,)
        assert invariant_factors([4, 6]) == (2, 12)
        assert invariant_factors([2, 2, 4, 3]) == (2, 2, 12)

    @pytest.mark.parametrize("step", [1, 2])
    def test_split_complexes_in_mixed_bases(self, step):
        rng = random.Random(4100 + step)
        mixed = 0
        for trial in range(80):
            cx, expected = split_complex(rng, step)
            assert homology_minor_gcd(cx) == expected, trial
            assert homology(cx) == expected, trial
            mixed += any(
                len(row) > 1 for m in cx.boundaries.values() for row in m.data.values()
            )
        # the bases mix pieces, so cancelling takes Schur updates, not just deletions
        assert mixed >= 40
