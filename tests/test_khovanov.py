import random
from collections import Counter

import pytest

from almax import diagram as diagram_module
from almax import khovanov
from almax.diagram import (
    DiagramError,
    State,
    add_positive_kink,
    mirror,
    parse_pd,
    reorder_crossings,
    resolve,
    step_table,
)
from almax.homology import AbelianGroup
from almax.khovanov import (
    LaurentPoly,
    LOOP_VALUE,
    TableSizeError,
    build_column,
    column_homology,
    euler_polynomial,
    framed_to_oriented,
    full_homology_table,
    generator_rank_table,
    j_extremes,
    kauffman_bracket,
    shift_table,
)
from almax.state_graph import build_state_graph, is_a_adequate, is_b_adequate
from helpers import (
    almost_extreme_generators,
    bracket_oracle,
    braid_pd,
    decode_generator,
    decode_name,
    enhanced_census,
    face_count,
    gradings,
    mask_state,
    random_pd_codes,
    reference_differential,
    sign_map,
    torus_two_strand,
    union_find_resolution,
)

from conftest import KNOT_10_44


def enhanced(diagram, mask, negatives=()):
    """The generator on ``mask`` with the circles at the given positions negative."""
    res = resolve(diagram, mask_state(diagram.crossing_count, mask))
    return (mask, frozenset(res.circles[i] for i in negatives))


def random_braid_closures(count, seed):
    """Connected closures of random braid words with 3..8 crossings on 2..4 strands."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        strands = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(3, 8))]
        try:
            found.append(braid_pd(word, strands))
        except DiagramError:  # split closure
            continue
    return found


def images(matrix, sources, targets):
    """A boundary as {source generator: {target generator: entry}}, free of basis order."""
    out = {}
    for row, cols in matrix.data.items():
        for col, v in cols.items():
            out.setdefault(sources[col], {})[targets[row]] = v
    return out


def all_js(d):
    """Every quantum grading of the diagram, the gaps and one odd j beyond."""
    js = [j for (_i, j) in generator_rank_table(d)]
    return list(range(min(js) - 2, max(js) + 3, 2)) + [max(js) + 1]


def same_columns(d, js):
    """``build_column`` against the full census and the reference differential, at each j.

    The census is enumerated once for the diagram, with ``resolve`` on
    every mask; the reference differential applies the merge/split sign
    rules to union-find circles.  Neither shares code with the pruned walk
    or ``_boundary``, and the two sides meet as maps between decoded
    generators, so the order of either basis does not matter.
    """
    census = enhanced_census(d)
    differential = reference_differential(d)
    c = d.crossing_count
    for j in js:
        fast = build_column(d, j)
        gens = {i: [decode_generator(c, g) for g in gs] for i, gs in fast.generators.items()}
        per_i = {i: gs for (i, jj), gs in census.items() if jj == j}
        assert {i: Counter(g) for i, g in gens.items()} == {
            i: Counter(g) for i, g in per_i.items()
        }, j
        assert set(fast.boundaries) == set(gens), j
        for i, matrix in fast.boundaries.items():
            assert (matrix.rows, matrix.cols) == (len(gens.get(i - 2, [])), len(gens[i])), (j, i)
            want = {g: image for g in gens[i] if (image := differential(g))}
            assert images(matrix, gens[i], gens.get(i - 2, [])) == want, (j, i)


class TestGradings:
    def test_all_positive_all_a_trefoil(self, left_trefoil):
        assert gradings(left_trefoil, enhanced(left_trefoil, 0)) == (3, 9)

    def test_one_negative_all_a_trefoil(self, left_trefoil):
        assert gradings(left_trefoil, enhanced(left_trefoil, 0, negatives=(0,))) == (3, 5)

    def test_all_negative_all_b(self, corpus):
        for d in corpus.values():
            c = d.crossing_count
            res = resolve(d, State.all_b(c))
            generator = ((1 << c) - 1, frozenset(res.circles))
            assert gradings(d, generator) == (-c, -c - 2 * res.circle_count)

    def test_unknown_circle_rejected(self, left_trefoil):
        with pytest.raises(ValueError):
            gradings(left_trefoil, (0, frozenset({("bogus", 0)})))

    def test_sign_map_covers_every_circle(self, left_trefoil):
        signs = sign_map(left_trefoil, enhanced(left_trefoil, 0, negatives=(1,)))
        res = resolve(left_trefoil, State.all_a(3))
        assert set(signs) == set(res.circles)
        assert sorted(signs.values()) == [-1, 1, 1]


class TestJExtremes:
    def test_left_trefoil(self, left_trefoil):
        assert j_extremes(left_trefoil) == (9, 5)

    def test_figure_eight(self, figure_eight):
        assert j_extremes(figure_eight) == (10, 6)

    def test_8_20(self, corpus):
        assert j_extremes(corpus["8_20"]) == (16, 12)

    def test_unknot(self, unknot):
        assert j_extremes(unknot) == (2, -2)


class TestBuildColumn:
    def test_unknot_almost_extreme_column(self, unknot):
        col = build_column(unknot, -2)
        assert set(col.generators) == {0}
        assert len(col.generators[0]) == 1
        assert col.boundaries[0].is_zero()

    def test_positive_hopf_ranks(self, corpus):
        hopf = corpus["positive_hopf"]
        _, j_almax = j_extremes(hopf)
        assert j_almax == 2
        col = build_column(hopf, j_almax)
        assert {i: len(g) for i, g in col.generators.items()} == {2: 2, 0: 2, -2: 1}

    def test_brute_force_oracle_agrees(self, corpus):
        for d in corpus.values():
            same_columns(d, all_js(d))

    def test_column_complexes_compose_to_zero(self, corpus):
        rng = random.Random(99)
        for d in corpus.values():
            j_max, _ = j_extremes(d)
            js = {j_max - 4, j_max - 8, rng.randrange(-j_max, j_max)}
            for j in js:
                build_column(d, j).complex().check_composition()

    def test_empty_column_allowed(self, left_trefoil):
        col = build_column(left_trefoil, 100)
        assert col.generators == {}

    def test_generator_gradings_are_consistent(self, figure_eight):
        _, j_almax = j_extremes(figure_eight)
        col = build_column(figure_eight, j_almax)
        for i, gens in col.generators.items():
            for generator in gens:
                assert gradings(figure_eight, decode_generator(figure_eight.crossing_count, generator)) == (i, j_almax)


class TestPrunedColumnWalk:
    def test_every_j_of_random_braid_closures(self):
        kinds = Counter()
        for d in random_braid_closures(40, seed=3):
            a_ok, b_ok = is_a_adequate(d), is_b_adequate(d)
            kinds["A" if a_ok else "B only" if b_ok else "inadequate"] += 1
            same_columns(d, all_js(d))
        # the walk never relies on adequacy: every kind of input is covered
        assert min(kinds[k] for k in ("A", "B only", "inadequate")) >= 3, kinds

    def test_every_j_of_the_unknot(self, unknot):
        same_columns(unknot, range(-4, 5))

    def test_column_walk_does_not_visit_the_cube(self, monkeypatch):
        d = parse_pd(KNOT_10_44)
        for arc in (3, 12, 17):
            d = add_positive_kink(d, arc)
        c = d.crossing_count
        assert c == 13
        graph = build_state_graph(d, State.all_a(c))
        classes = Counter(frozenset(edge) for edge in graph.edges)
        column_size = len(graph.vertices) + sum(2**size - 1 for size in classes.values())

        calls = Counter()
        requested, flipped = set(), []
        real_res, real_flip, real_table = khovanov._Ctx.res, khovanov._Ctx._flip, step_table

        def counting_res(ctx, mask):
            calls["res"] += 1
            requested.add(mask)
            return real_res(ctx, mask)

        def counting_flip(ctx, parent, mask, x):
            flipped.append(mask)
            return real_flip(ctx, parent, mask, x)

        def counting_table(*args):
            calls["step_table"] += 1
            return real_table(*args)

        monkeypatch.setattr(khovanov._Ctx, "res", counting_res)
        monkeypatch.setattr(khovanov._Ctx, "_flip", counting_flip)
        monkeypatch.setattr(khovanov, "step_table", counting_table)
        monkeypatch.setattr(diagram_module, "step_table", counting_table)
        _, j_almax = j_extremes(d)
        calls.clear()
        column = build_column(d, j_almax)
        assert sum(len(g) for g in column.generators.values()) == column_size == 23
        assert calls["step_table"] == 1  # one table, and mask 0 traced over it
        assert sorted(flipped) == sorted(requested - {0})  # every other mask derived once
        assert calls["res"] < 600 < 2**c


class TestResolutionStore:
    @staticmethod
    def diagrams(corpus):
        for d in corpus.values():
            yield d
            yield mirror(d)
        kinked = add_positive_kink(add_positive_kink(corpus["figure_eight"], 2), 5)
        yield kinked
        yield mirror(kinked)
        yield add_positive_kink(corpus["torus_2_5"], 1)

    @staticmethod
    def assert_match_union_find(d, rng):
        """``resolve`` and ``_Ctx.res`` against the union-find oracle on every mask."""
        c = d.crossing_count
        ctx = khovanov._Ctx(d)
        masks = list(range(1 << c))
        rng.shuffle(masks)  # parents are not always resolved first
        for mask in masks:
            want = union_find_resolution(d, mask_state(c, mask))
            got = resolve(d, mask_state(c, mask))
            assert got.circles == want.circles
            assert got.end_circle == want.end_circle  # and so the chords
            circles, end = ctx.res(mask)
            assert tuple(decode_name(c, name) for name in circles) == want.circles
            assert {divmod(e, 4): divmod(name, 4) for e, name in enumerate(end)} == want.end_circle
        return ctx

    def test_derived_resolutions_match_union_find(self, corpus, unknot):
        rng = random.Random(5)
        for d in list(self.diagrams(corpus)) + [unknot]:
            self.assert_match_union_find(d, rng)

    def test_non_planar_codes_match_union_find(self):
        rng = random.Random(7)
        codes = [
            d for d in random_pd_codes(360, seed=11) if face_count(d) != d.crossing_count + 2
        ]
        stays_one = 0
        for d in codes:
            ctx = self.assert_match_union_find(d, rng)
            for mask in range(1, 1 << d.crossing_count):
                parent = mask ^ (1 << (mask.bit_length() - 1))
                stays_one += len(ctx.res(mask)[0]) == len(ctx.res(parent)[0])
        # a flip on non-planar data can keep one circle one: that branch of _flip runs
        assert len(codes) >= 250 and stays_one >= 800, (len(codes), stays_one)


class TestAlmostExtremeGenerators:
    def test_requires_a_adequate(self):
        d = parse_pd("X(1,2,2,1)")
        with pytest.raises(ValueError):
            almost_extreme_generators(d)

    def test_top_two_ranks(self, corpus):
        for d in corpus.values():
            if not is_a_adequate(d) or d.crossing_count == 0:
                continue
            c = d.crossing_count
            circles = resolve(d, State.all_a(c)).circle_count
            gens = almost_extreme_generators(d)
            assert len(gens[c]) == circles
            assert len(gens[c - 2]) == c

    def test_left_trefoil_census(self, left_trefoil):
        gens = almost_extreme_generators(left_trefoil)
        assert {i: len(g) for i, g in gens.items()} == {3: 3, 1: 3}

    def test_figure_eight_census(self, figure_eight):
        gens = almost_extreme_generators(figure_eight)
        assert {i: len(g) for i, g in gens.items()} == {4: 3, 2: 4, 0: 1}

    def test_matches_brute_force_column(self, corpus):
        for name in ("left_trefoil", "figure_eight", "positive_hopf", "8_20"):
            d = corpus[name]
            _, j_almax = j_extremes(d)
            census = {i: Counter(g) for (i, j), g in enhanced_census(d).items() if j == j_almax}
            assert {i: Counter(g) for i, g in almost_extreme_generators(d).items()} == census


class TestKauffmanBracket:
    def test_unknot_value(self, unknot):
        assert kauffman_bracket(unknot) == LOOP_VALUE

    def test_left_trefoil_state_sum(self, left_trefoil):
        # eight-state sum: A^3 d^3 + 3 A d^2 + 3 A^-1 d + A^-3 d^2
        d_poly = LOOP_VALUE
        expected = (
            LaurentPoly.monomial(1, 3) * d_poly ** 3
            + LaurentPoly.monomial(3, 1) * d_poly ** 2
            + LaurentPoly.monomial(3, -1) * d_poly
            + LaurentPoly.monomial(1, -3) * d_poly ** 2
        )
        value = kauffman_bracket(left_trefoil)
        assert value == expected
        assert value == LaurentPoly({9: -1, 1: 1, -3: 1, -7: 1})

    def test_top_coefficient_sign(self, corpus):
        # only the all-positive all-A state reaches j_max on A-adequate diagrams
        for d in corpus.values():
            if not is_a_adequate(d):
                continue
            circles = resolve(d, State.all_a(d.crossing_count)).circle_count
            j_max, _ = j_extremes(d)
            assert kauffman_bracket(d).coefficient(j_max) == (-1) ** circles


    def test_state_sum_oracle(self, corpus, unknot):
        # the oracle counts circles as permutation cycles, outside the cube walk
        for d in list(TestResolutionStore.diagrams(corpus)) + [unknot]:
            want = bracket_oracle(d)
            assert kauffman_bracket(d) == want
            assert full_homology_table(d)[1] == want


class TestFramedToOriented:
    def test_zero_point(self):
        for w in (-3, 0, 4):
            assert framed_to_oriented(w, 3 * w, w) == (0, 0)

    def test_trefoil_symmetric_point(self):
        assert framed_to_oriented(3, 9, 3) == (0, 0)

    def test_almost_extreme_conversion(self):
        # a diagram with c crossings, n negative, has writhe c - 2n; the
        # almost-extreme corner (c-2, c + 2|sA| - 4) moves to (-n+1, c - 3n - |sA| + 2)
        for c, circles, n in ((3, 3, 3), (8, 4, 5), (10, 7, 4)):
            w = c - 2 * n
            j_almax = c + 2 * circles - 4
            assert framed_to_oriented(c - 2, j_almax, w) == (-n + 1, c - 3 * n - circles + 2)

    def test_parity_violations(self):
        with pytest.raises(ValueError):
            framed_to_oriented(0, 1, 1)
        with pytest.raises(ValueError):
            framed_to_oriented(1, 3, 2)


class TestTables:
    def test_unknot_table(self, unknot):
        assert full_homology_table(unknot) == (
            {(0, 2): AbelianGroup(1), (0, -2): AbelianGroup(1)},
            LOOP_VALUE,
        )

    def test_kinked_unknot_table_is_shifted(self, unknot):
        kink = parse_pd("X(1,1,2,2)")
        assert full_homology_table(kink)[0] == shift_table(full_homology_table(unknot)[0], 1, 3)

    def test_left_trefoil_rows(self, full_tables):
        table = full_tables["left_trefoil"]
        assert table[(3, 9)] == AbelianGroup(1)
        assert {key for key in table if key[1] == 5} == {(1, 5)}
        assert table[(1, 5)] == AbelianGroup(0, (2,))

    def test_euler_identity_on_corpus(self, corpus, full_tables):
        for name, d in corpus.items():
            bracket = kauffman_bracket(d)
            assert euler_polynomial(generator_rank_table(d)) == bracket
            assert euler_polynomial(full_tables[name]) == bracket

    def test_rank_table_counts_the_census(self, corpus, unknot):
        for d in list(TestResolutionStore.diagrams(corpus)) + [unknot]:
            census = enhanced_census(d)
            assert generator_rank_table(d) == {key: len(gens) for key, gens in census.items()}

    def test_size_guard(self, corpus):
        d = corpus["10_44"]
        with pytest.raises(TableSizeError):
            full_homology_table(d, limit=9)
        with pytest.raises(TableSizeError):
            generator_rank_table(d, limit=9)

    def test_almost_extreme_column_shortcut_matches_table(self, corpus, full_tables):
        for name, d in corpus.items():
            _, j_almax = j_extremes(d)
            from_table = {
                key: g for key, g in full_tables[name].items() if key[1] == j_almax
            }
            assert column_homology(d, j_almax) == from_table

    def test_reordering_crossings_keeps_homology(self, left_trefoil, figure_eight):
        for d in (left_trefoil, figure_eight):
            reference = full_homology_table(d)
            rng = random.Random(13)
            for _ in range(5):
                order = list(range(d.crossing_count))
                rng.shuffle(order)
                assert full_homology_table(reorder_crossings(d, order)) == reference

    def test_mirror_duality(self, corpus, full_tables):
        # swapping A and B reverses the cube, so the mirror's complex is the
        # dual one: over Z, ranks reflect through (0, 0) and torsion also
        # moves down one step of i; this sees incidence signs and torsion
        tables = [(full_tables[name], d) for name, d in corpus.items()]
        t25 = torus_two_strand(5)  # T(2,5) from a rotation system, another code
        tables.append((full_homology_table(t25)[0], t25))
        torsion_groups = 0
        for table, d in tables:
            dual, _ = full_homology_table(mirror(d))
            assert {(i, j): g.free_rank for (i, j), g in table.items() if g.free_rank} == {
                (-i, -j): g.free_rank for (i, j), g in dual.items() if g.free_rank
            }, d
            torsion = {(i, j): g.torsion for (i, j), g in table.items() if g.torsion}
            assert torsion == {
                (-i - 2, -j): g.torsion for (i, j), g in dual.items() if g.torsion
            }, d
            torsion_groups += len(torsion)
        assert torsion_groups == 26

    def test_ri_shift_small(self, left_trefoil):
        reference, _ = full_homology_table(left_trefoil)
        kinked = add_positive_kink(left_trefoil, 2)
        assert full_homology_table(kinked)[0] == shift_table(reference, 1, 3)


class TestLaurentPoly:
    def test_render(self):
        assert LaurentPoly({9: -1, 1: 1, -3: 1, -7: 1}).render() == "-A^9 + A + A^-3 + A^-7"
        assert LaurentPoly({0: 2, 2: -3}).render() == "-3*A^2 + 2"
        assert LaurentPoly.zero().render() == "0"

    def test_arithmetic(self):
        p = LaurentPoly({1: 1, -1: 1})
        assert p * p == LaurentPoly({2: 1, 0: 2, -2: 1})
        assert p - p == LaurentPoly.zero()
        assert p ** 0 == LaurentPoly({0: 1})
