import importlib
import random

import pytest

from almax.diagram import parse_pd
from almax.homology import (
    AbelianGroup,
    ChainComplexError,
    IntegerChainComplex,
    IntMatrix,
    _cancel_units,
    _index,
    homology,
    nonzero_groups,
    smith_normal_form,
)
from almax.khovanov import build_column, full_homology_table, generator_rank_table
from conftest import KNOT_10_44
from helpers import (
    compose,
    compositions_vanish,
    dense_invariant_factors,
    homology_minor_gcd,
    invariant_factors,
    schur_cancel_units,
    snf_minor_gcd,
    to_rows,
    torus_two_strand,
)

# ``almax.homology`` the module; the package exports the function of that name
homology_module = importlib.import_module("almax.homology")

# boundary of the projective-plane cell structure: T0 -> r0+r2, T1 -> -r1+r2, T2 -> r0-r1
RP2_BOUNDARY = [
    [1, 0, 1],
    [0, -1, -1],
    [1, 1, 0],
]


def entries_matrix(rows: int, cols: int, entries: dict) -> IntMatrix:
    """The rows x cols matrix with the non-zero values of ``{(r, c): v}``."""
    data: dict[int, dict[int, int]] = {}
    for (r, c), v in entries.items():
        if v:
            data.setdefault(r, {})[c] = v
    return IntMatrix(rows, cols, data)


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

    def test_zero_or_negative_coefficient_is_value_error(self):
        # the range check runs before the divisibility check, whose b % a
        # would divide by a zero coefficient
        for torsion in ((0, 2), (0,), (2, 0), (-2, 4)):
            with pytest.raises(ValueError, match="must exceed 1"):
                AbelianGroup(0, torsion)

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
        # unit cancellation followed by the finisher, against the dense algorithm alone
        rng = random.Random(7)
        size = 80
        entries = {}
        for _ in range(400):
            entries[(rng.randrange(size), rng.randrange(size))] = rng.choice([-1, 1, 1, 2])
        big = entries_matrix(size, size, entries)
        assert smith_normal_form(big) == tuple(dense_invariant_factors(to_rows(big)))

    def test_large_matrix_with_non_unit_entries_agrees_with_dense(self):
        # 70 x 75 = 5250 cells; many entries are not units, so a unit-free leftover remains
        rng = random.Random(29)
        rows, cols = 70, 75
        entries = {}
        for _ in range(330):
            entries[(rng.randrange(rows), rng.randrange(cols))] = rng.choice([-1, 1, -2, 2, 3])
        big = entries_matrix(rows, cols, entries)
        assert rows * cols > 4096
        assert smith_normal_form(big) == tuple(dense_invariant_factors(to_rows(big)))

    @pytest.mark.parametrize(
        "dense, factors",
        [
            ([[2, 0], [0, 3]], (1, 6)),  # diag(2, 3) ~ diag(gcd, lcm)
            ([[4, 0], [0, 6]], (2, 12)),
            ([[4, 6], [6, 9]], (1,)),  # 6 - 4 leaves a remainder 2 in the pivot column
            ([[-2, 3], [4, 5]], (1, 22)),  # the least entry is negative
            ([[-6, 0], [0, -4]], (2, 12)),
        ],
    )
    def test_unit_free_finisher_known_answers(self, dense, factors):
        assert smith_normal_form(dense) == factors
        assert snf_minor_gcd(dense) == factors

    def test_unit_free_finisher_agrees_with_oracles(self):
        # no entry is +-1, so no unit is cancelled and the finisher does all the work
        rng = random.Random(1406)
        values = [sign * v for v in (2, 3, 4, 6, 9, 10) for sign in (1, -1)]
        for trial in range(150):
            rows, cols = rng.randint(1, 12), rng.randint(1, 12)
            density = rng.choice((0.2, 0.5, 1.0))
            dense = [
                [rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            got = smith_normal_form(dense)
            assert got == tuple(dense_invariant_factors(dense)), dense
            if rows <= 4 and cols <= 4:
                assert got == snf_minor_gcd(dense), dense

    def test_unit_created_in_a_scanned_row_is_cancelled(self):
        # rows are scanned from the last: row 1 has no unit then; the pivot at (0, 0)
        # (both columns hold two rows, so the lower column wins) turns its 3 into
        # 3 - 2 = 1, and the rescan pivots there
        class ScannedRow(dict):
            scans = 0

            def items(self):
                self.scans += 1
                return super().items()

        row_1 = ScannedRow({0: 2, 1: 3})
        rows = {0: {0: 1, 1: 1}, 1: row_1}
        assert _cancel_units(rows, {0: {0, 1}, 1: {0, 1}}) == ([0, 1], [0, 1])
        assert rows == {}
        assert row_1.scans == 2

    def test_pivot_column_is_the_shortest(self):
        # row 1 is scanned first; its units sit in column 0 (two rows) and
        # column 1 (one row), so it pivots on column 1 and row 0 is not updated
        rows, col_rows = _index({0: {0: 2}, 1: {0: 1, 1: 1}}, range(2))
        assert _cancel_units(rows, col_rows) == ([1], [1])
        assert rows == {0: {0: 2}}

    def test_singleton_pivot_rows_match_the_schur_loop(self):
        # a pivot alone in its row only deletes its column from the other rows;
        # pivots, leftover and column index equal those of a Schur update
        rng = random.Random(43)
        singletons = 0
        for _ in range(80):
            nrows, ncols = rng.randint(3, 30), rng.randint(3, 30)
            data = {}
            for r in range(nrows):
                width = 1 if rng.random() < 0.4 else rng.randint(2, 5)
                data[r] = {c: rng.choice((1, -1)) for c in rng.sample(range(ncols), min(width, ncols))}
                singletons += len(data[r]) == 1
            rows, col_rows = _index(data, range(ncols))
            want_rows, want_col_rows = _index(data, range(ncols))
            assert _cancel_units(rows, col_rows) == schur_cancel_units(want_rows, want_col_rows)
            assert (rows, col_rows) == (want_rows, want_col_rows)
        assert singletons > 300

    def test_unit_cancellation_leaves_no_unit_entry(self):
        rng = random.Random(41)
        for _ in range(30):
            rows, cols = rng.randint(5, 40), rng.randint(5, 40)
            entries = {}
            for _ in range(rng.randint(10, 3 * (rows + cols))):
                entries[(rng.randrange(rows), rng.randrange(cols))] = rng.choice([-1, 1, 2, -3])
            m = entries_matrix(rows, cols, entries)
            left, col_rows = _index(m.data, range(cols))
            pivot_rows, pivot_cols = _cancel_units(left, col_rows)
            assert all(v not in (1, -1) for row in left.values() for v in row.values())
            assert {c: rs for c, rs in col_rows.items() if rs} == _index(left, range(cols))[1]
            assert not set(pivot_rows) & set(left)
            assert not {c for row in left.values() for c in row} & set(pivot_cols)
            assert smith_normal_form(m) == tuple(dense_invariant_factors(to_rows(m)))


class TestIntMatrix:
    def test_compose(self):
        a = IntMatrix.from_rows([[1, 2], [0, 1]])
        b = IntMatrix.from_rows([[1, 0], [3, 1]])
        assert to_rows(compose(a, b)) == [[7, 2], [3, 1]]

    def test_from_rows_rejects_a_long_row(self):
        with pytest.raises(IndexError):
            IntMatrix.from_rows([[1, 0], [0, 1, 2]])


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
        with pytest.raises(ChainComplexError, match="degree 2 is non-zero"):
            bad.check_composition()

    def test_composition_check_agrees_with_the_product(self):
        rng = random.Random(16)
        failing = 0
        for _ in range(200):
            ranks = {k: rng.randint(0, 3) for k in range(4)}
            boundaries = {
                k: entries_matrix(ranks[k - 1], ranks[k], {
                    (r, c): rng.choice((0, 0, 0, 1, -1, 2))
                    for r in range(ranks[k - 1])
                    for c in range(ranks[k])
                })
                for k in range(1, 4)
            }
            cx = IntegerChainComplex(ranks=ranks, boundaries=boundaries)
            if compositions_vanish(cx):
                cx.check_composition()
            else:
                failing += 1
                with pytest.raises(ChainComplexError, match="is non-zero"):
                    cx.check_composition()
        assert 20 < failing < 180

    def test_composition_check_stops_at_the_first_non_zero_row(self, monkeypatch):
        class Unread(dict):
            def items(self):
                raise AssertionError("a row after the first non-zero one was read")

        bad = make_complex({2: 1, 1: 1, 0: 2}, {2: [[1]], 1: [[1], [1]]})
        bad.boundaries[1].data[1] = Unread(bad.boundaries[1].data[1])

        def no_matrix(*args, **kwargs):
            raise AssertionError("an IntMatrix was built")

        monkeypatch.setattr(IntMatrix, "__init__", no_matrix)
        with pytest.raises(ChainComplexError, match="degree 2 is non-zero"):
            bad.check_composition()

    def test_homology_does_not_multiply(self, monkeypatch):
        def refuse(self):
            raise AssertionError("homology ran the d∘d product")

        monkeypatch.setattr(IntegerChainComplex, "check_composition", refuse)
        groups = homology(make_complex({2: 3, 1: 3, 0: 0}, {2: RP2_BOUNDARY}))
        assert groups[1] == AbelianGroup(0, (2,))

    def test_negative_free_rank_raises(self):
        # d_1 d_2 = [[4]]: each boundary has rank 1 on a rank-1 middle group
        bad = make_complex({2: 1, 1: 1, 0: 1}, {2: [[2]], 1: [[2]]})
        with pytest.raises(ChainComplexError, match="negative free rank at degree 1"):
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
        boundaries[k] = entries_matrix(ranks[k - step], ranks[k], entries)
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


def shuffled_generators(cx: IntegerChainComplex, rng: random.Random) -> IntegerChainComplex:
    """``cx`` with the generators of each degree put in a random order."""
    where = {k: rng.sample(range(n), n) for k, n in cx.ranks.items()}  # old -> new position
    boundaries = {}
    for k, m in cx.boundaries.items():
        rows, cols = where.get(k - cx.step, []), where[k]
        entries = {(rows[r], cols[c]): v for r, row in m.data.items() for c, v in row.items()}
        boundaries[k] = entries_matrix(m.rows, m.cols, entries)
    return IntegerChainComplex(ranks=cx.ranks, boundaries=boundaries, step=cx.step)


class TestKhovanovComplexes:
    @pytest.mark.parametrize(
        "diagram", [parse_pd(KNOT_10_44), torus_two_strand(8)], ids=["10_44", "T(2,8)"]
    )
    def test_generator_order_does_not_change_the_groups(self, diagram):
        # the pivot rule scans rows in order, so each order takes its own pivots
        rng = random.Random(1044)
        js = sorted({j for _, j in generator_rank_table(diagram)})
        torsion = 0
        for j in js:
            cx = build_column(diagram, j).complex()
            reference = homology(cx)
            torsion += sum(len(g.torsion) for g in reference.values())
            for _ in range(3):
                assert homology(shuffled_generators(cx, rng)) == reference, j
        assert torsion > 0

    def test_fill_in_on_the_t29_table(self, monkeypatch):
        # new keys written into the rows by Schur updates; taking columns in
        # order with the shortest unit row wrote 75,100 here
        written = 0

        class CountingRow(dict):
            def __setitem__(self, c, v):
                nonlocal written
                written += c not in self
                super().__setitem__(c, v)

        real = homology_module._cancel_units

        def counting(rows, col_rows):
            for r in rows:
                rows[r] = CountingRow(rows[r])
            return real(rows, col_rows)

        monkeypatch.setattr(homology_module, "_cancel_units", counting)
        full_homology_table(torus_two_strand(9))
        assert 0 < written <= 8000
