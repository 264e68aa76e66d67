import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import almax.homology as homology_module
from almax import diagram as diagram_module
from almax import khovanov
from almax.diagram import (
    Diagram,
    DiagramError,
    State,
    add_positive_kink,
    check_planar,
    mirror,
    parse_pd,
    reorder_crossings,
    resolve,
    step_table,
    to_pd_text,
    trace_state,
)
from almax.homology import (
    AbelianGroup,
    ChainComplexError,
    IntegerChainComplex,
    homology,
    nonzero_groups,
)
from almax.khovanov import (
    KhovanovColumn,
    TableSizeError,
    build_column,
    column_homology,
    euler_polynomial,
    framed_to_oriented,
    full_homology_table,
    generator_rank_table,
    kauffman_bracket,
)
from almax.report import analyze_diagram
from almax.state_graph import build_state_graph, is_a_adequate, is_b_adequate
from helpers import (
    almost_extreme_generators,
    bracket_oracle,
    braid_pd,
    compositions_vanish,
    enhanced_census,
    face_count,
    gradings,
    j_extremes,
    mask_state,
    named_generator,
    random_pd_codes,
    random_reidemeister_two,
    reference_differential,
    scan_census,
    seeded_kinks,
    shift_table,
    sign_map,
    torus_two_strand,
    traced_cut_walk,
    union_find_resolution,
    unmemoised_check_squares,
    unsigned_flips,
)

from conftest import KNOT_8_20, KNOT_10_44

def enhanced(diagram, mask, negatives=()):
    """The generator on ``mask`` with the circles at the given positions negative."""
    circles, _ = resolve(diagram, mask_state(diagram.crossing_count, mask))
    return (mask, frozenset(circles[i] for i in negatives))


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
    or ``_boundary``, and the two sides meet as maps between named
    generators, so the order of either basis does not matter.
    """
    census = enhanced_census(d)
    differential = reference_differential(d)
    for j in js:
        fast = build_column(d, j)
        gens = {i: [named_generator(g) for g in gs] for i, gs in fast.generators.items()}
        per_i = {i: gs for (i, jj), gs in census.items() if jj == j}
        assert {i: Counter(g) for i, g in gens.items()} == {
            i: Counter(g) for i, g in per_i.items()
        }, j
        boundaries = fast.complex().boundaries
        assert set(boundaries) == set(gens), j
        for i, matrix in boundaries.items():
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
            circles, _ = resolve(d, State(("B",) * c))
            generator = ((1 << c) - 1, frozenset(circles))
            assert gradings(d, generator) == (-c, -c - 2 * len(circles))

    def test_unknown_circle_rejected(self, left_trefoil):
        with pytest.raises(ValueError):
            gradings(left_trefoil, (0, frozenset({("bogus", 0)})))

    def test_sign_map_covers_every_circle(self, left_trefoil):
        signs = sign_map(left_trefoil, enhanced(left_trefoil, 0, negatives=(1,)))
        circles, _ = resolve(left_trefoil, State.all_a(3))
        assert set(signs) == set(circles)
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

    def test_report_places_the_same_j(self, corpus, unknot):
        for name, d in {**corpus, "unknot": unknot}.items():
            if is_a_adequate(d):
                report = analyze_diagram(d)
                assert (report.j_max, report.j_almax) == j_extremes(d), name


class TestBuildColumn:
    def test_unknot_almost_extreme_column(self, unknot):
        col = build_column(unknot, -2)
        assert set(col.generators) == {0}
        assert len(col.generators[0]) == 1
        assert not col.complex().boundaries[0].data

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
                assert gradings(figure_eight, named_generator(generator)) == (i, j_almax)


def scrambled(diagram: Diagram, seed: int) -> Diagram:
    """The same diagram with its crossings reordered and its arcs renamed."""
    rng = random.Random(seed)
    order = list(range(diagram.crossing_count))
    rng.shuffle(order)
    arcs = sorted(diagram.arc_ids())
    renamed = dict(zip(arcs, rng.sample(arcs, len(arcs))))
    shuffled = reorder_crossings(diagram, order)
    return Diagram(tuple(tuple(renamed[e] for e in q) for q in shuffled.crossings))


def table_js(kept: dict, c: int) -> list[int]:
    """The quantum gradings of a walk's states in ascending order, as the table takes them."""
    return sorted({j for _, j in khovanov._ranks(kept, c)})


def table_censuses(kept: dict, c: int) -> dict[int, dict[int, list]]:
    """The generators of every j column by i, filed as ``full_homology_table`` files them."""
    js = table_js(kept, c)
    by_j = khovanov._file_by_j(kept, c, js)
    assert list(by_j) == js and all(by_j.values())
    return {j: khovanov._census(kept, c, j, by_j[j]) for j in js}


def table_columns(diagram: Diagram) -> dict[int, IntegerChainComplex]:
    """The complex of every j column, built as ``full_homology_table`` builds it."""
    kept = khovanov._walk(diagram)
    flips = khovanov._flips(kept)
    c = diagram.crossing_count
    return {
        j: KhovanovColumn(flips.__getitem__, per_i).complex()
        for j, per_i in table_censuses(kept, c).items()
    }


# the rule and the flip data as built, for the mutants below to fall back on
REAL_IMAGES = khovanov._images
REAL_MASK_FLIPS = khovanov._mask_flips


def positive_split_with_a_negative_image(negs, b0, b2, t0, t2):
    if b0 == b2 and not negs & b0:
        return (negs | t0,)
    return REAL_IMAGES(negs, b0, b2, t0, t2)


def negative_merge_dropped(negs, b0, b2, t0, t2):
    if b0 != b2 and negs & b0 and negs & b2:
        return ()
    return REAL_IMAGES(negs, b0, b2, t0, t2)


def incidence_plus_one(kept, mask):
    return unsigned_flips(REAL_MASK_FLIPS(kept, mask))


class TestSquareCheck:
    def test_image_rule_is_local(self):
        # the rule reads and writes only b0, b2, t0 and t2: other bits pass through
        d = parse_pd(KNOT_10_44)
        rng = random.Random(16)
        kinds = Counter()
        for out in khovanov._flips(khovanov._walk(d)).values():
            for _, b0, b2, t0, t2 in out.values():
                touched = b0 | b2 | t0 | t2
                for local in {0, b0, b2, b0 | b2}:
                    images = khovanov._images(local, b0, b2, t0, t2)
                    assert all(not image & ~touched for image in images)
                    extra = rng.getrandbits(4 * d.crossing_count) & ~touched
                    moved = khovanov._images(local | extra, b0, b2, t0, t2)
                    assert moved == tuple(image | extra for image in images)
                    kinds[b0 == b2, len(images)] += 1
        # merges with no image and with one, splits with one image and with two
        assert set(kinds) == {(False, 0), (False, 1), (True, 1), (True, 2)}

    @pytest.mark.parametrize("name, pd", [("8_20", KNOT_8_20), ("10_44", KNOT_10_44)])
    @pytest.mark.parametrize(
        "target, mutant",
        [
            ("_mask_flips", incidence_plus_one),
            ("_images", positive_split_with_a_negative_image),
            ("_images", negative_merge_dropped),
        ],
        ids=["incidence-plus-one", "positive-split-negative-image", "negative-merge-dropped"],
    )
    def test_mutations_fail_the_square_check(self, monkeypatch, name, pd, target, mutant):
        monkeypatch.setattr(khovanov, target, mutant)
        message = r"^boundary composition at degree -?\d+ is non-zero$"
        with pytest.raises(ChainComplexError, match=message):
            full_homology_table(parse_pd(pd))

    def test_table_columns_pass_the_product_oracle(self, corpus):
        # the entries _boundary writes follow the rule the squares certify, and
        # the table, whose boundaries are written lazily on the surviving
        # generators, equals the homology of these eagerly built columns
        diagrams = dict(corpus)
        for name, d in [
            ("8_20", corpus["8_20"]),
            ("10_44", corpus["10_44"]),
            ("T(2,8)", torus_two_strand(8)),
            ("T(2,9)", torus_two_strand(9)),
        ]:
            for seed in (1, 2):
                diagrams[f"{name} scrambled {seed}"] = scrambled(d, seed)
        for name, d in diagrams.items():
            khovanov._check_squares(khovanov._flips(khovanov._walk(d)))
            eager = {}
            for j, cx in table_columns(d).items():
                assert compositions_vanish(cx), (name, j)
                eager.update({(i, j): g for i, g in nonzero_groups(homology(cx)).items()})
            assert full_homology_table(d)[0] == eager, name

    def test_table_runs_no_product(self, monkeypatch, corpus):
        def refuse(self):
            raise AssertionError("the table ran the d∘d product")

        monkeypatch.setattr(IntegerChainComplex, "check_composition", refuse)
        table, _ = full_homology_table(corpus["8_20"])
        assert table


def check_outcome(check, flips) -> str | None:
    """The message a square check raises on ``flips``, or None if it passes."""
    try:
        check(flips)
    except ChainComplexError as exc:
        return str(exc)
    return None


# single-entry corruptions of flip data (incidence, b0, b2, t0, t2), and the
# flips each applies to
CORRUPTIONS = {
    "negated incidence": (lambda f: True, lambda f: (-f[0], *f[1:])),
    "split t0 <-> t2": (lambda f: f[1] == f[2], lambda f: (*f[:3], f[4], f[3])),
    "merge b0 <-> b2": (lambda f: f[1] != f[2], lambda f: (f[0], f[2], f[1], *f[3:])),
}


class TestSquareMemo:
    @pytest.mark.parametrize(
        "diagram", [parse_pd(KNOT_10_44), torus_two_strand(8)], ids=["10_44", "T(2,8)"]
    )
    def test_memo_raises_exactly_when_the_unmemoised_check_does(self, diagram):
        # one flip entry is corrupted early, in the middle or late in the walk;
        # the memoised check must raise on the same square as the oracle
        flips = khovanov._flips(khovanov._walk(diagram))
        assert check_outcome(khovanov._check_squares, flips) is None
        assert check_outcome(unmemoised_check_squares, flips) is None
        masks = list(flips)
        outcomes = Counter()
        for start in (1, len(masks) // 2, len(masks) - 2):
            for kind, (applies, corrupt) in CORRUPTIONS.items():
                mask, x = next(
                    (mask, x)
                    for mask in masks[start:] + masks[:start]
                    for x, flip in flips[mask].items()
                    if applies(flip)
                )
                corrupted = {m: dict(out) for m, out in flips.items()}
                corrupted[mask][x] = corrupt(flips[mask][x])
                want = check_outcome(unmemoised_check_squares, corrupted)
                assert check_outcome(khovanov._check_squares, corrupted) == want, (kind, mask, x)
                outcomes[kind, want is not None] += 1
        assert outcomes["negated incidence", True] == 3, outcomes

    @pytest.mark.parametrize(
        "diagram", [parse_pd(KNOT_10_44), torus_two_strand(11)], ids=["10_44", "T(2,11)"]
    )
    def test_equal_flips_are_one_object(self, diagram):
        flips = khovanov._flips(khovanov._walk(diagram))
        entries = [flip for out in flips.values() for flip in out.values()]
        assert len({id(flip) for flip in entries}) == len(set(entries)) < len(entries) // 40


class TestLazyBoundaries:
    @pytest.mark.parametrize(
        "diagram",
        [parse_pd(KNOT_10_44), scrambled(torus_two_strand(8), 2)],
        ids=["10_44", "T(2,8) scrambled 2"],
    )
    def test_lazy_rows_equal_the_restriction(self, diagram):
        # what restrict writes for a subset of the sources is what _index
        # copies out of the whole boundary
        rng = random.Random(17)
        kept = khovanov._walk(diagram)
        flips = khovanov._flips(kept)
        c = diagram.crossing_count
        boundaries = 0
        for j, per_i in table_censuses(kept, c).items():
            column = KhovanovColumn(flips.__getitem__, per_i)
            for i, full in column.complex().boundaries.items():
                if not full.rows:
                    continue
                boundaries += 1
                n = full.cols
                subsets = [set(), set(range(n))]
                subsets += [set(rng.sample(range(n), rng.randint(1, n))) for _ in range(4)]
                for subset in subsets:
                    got = column.restrict(i, subset)
                    assert got == homology_module._index(full.data, subset), (j, i)
        assert boundaries > 20

    def test_both_reads_of_a_cut_walk_column_agree(self, corpus):
        # restrict on every generator writes what complex() writes, and the
        # lazy reduction gives the groups of the written complex
        diagrams = dict(corpus)
        for seed in (1, 2):
            diagrams[f"T(2,8) scrambled {seed}"] = scrambled(torus_two_strand(8), seed)
        columns = 0
        for name, d in diagrams.items():
            for j in sorted({j for _, j in generator_rank_table(d)}):
                col = build_column(d, j)
                assert col.generators, (name, j)
                cx = col.complex()
                assert homology(col) == homology(cx), (name, j)
                for i, n in col.ranks.items():
                    rows, _ = col.restrict(i, range(n))
                    assert rows == cx.boundaries[i].data, (name, j, i)
                columns += 1
        assert columns == 98

    def test_table_images_fewer_generators_than_the_eager_build(self, monkeypatch):
        # cancelled generators are never imaged: 34,567 calls against 59,151
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return REAL_IMAGES(*args)

        monkeypatch.setattr(khovanov, "_images", counting)
        d = torus_two_strand(9)
        full_homology_table(d)
        lazy, calls = calls, 0
        khovanov._check_squares(khovanov._flips(khovanov._walk(d)))
        table_columns(d)
        assert 0 < lazy < calls
        assert lazy <= 35_000

    def test_table_builds_no_khovanov_matrix(self, monkeypatch, corpus):
        # only smith_normal_form, on the leftovers, copies rows with _index
        def refuse(*args, **kwargs):
            raise AssertionError("the table built or read a stored Khovanov boundary")

        monkeypatch.setattr(khovanov, "IntMatrix", refuse)
        monkeypatch.setattr(IntegerChainComplex, "restrict", refuse)
        counts = Counter()

        def counted(name):
            real = getattr(homology_module, name)

            def wrapper(*args):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(homology_module, name, wrapper)

        counted("_index")
        counted("smith_normal_form")
        table, _ = full_homology_table(corpus["10_44"])
        assert table
        assert counts["_index"] == counts["smith_normal_form"] > 0


class TrackedList(list):
    """A list that a weak reference can follow."""


class TestCensus:
    def test_columns_file_every_state_once(self, corpus):
        # the union over j of the one-column censuses is the brute-force census
        # as a multiset, so each state is filed once, in lists as long as
        # _ranks counts; a j with no states, the odd one included, files nothing
        diagrams = dict(corpus)
        for seed in (1, 2):
            diagrams[f"T(2,8) scrambled {seed}"] = scrambled(torus_two_strand(8), seed)
        for name, d in diagrams.items():
            kept = khovanov._walk(d)
            c = d.crossing_count
            ranks = khovanov._ranks(kept, c)
            by_j = khovanov._file_by_j(kept, c, all_js(d))
            filed = {}
            for j in all_js(d):
                for i, gens in khovanov._census(kept, c, j, by_j[j]).items():
                    assert len(gens) == ranks[(i, j)], (name, i, j)
                    filed[(i, j)] = [named_generator(g) for g in gens]
            census = enhanced_census(d)
            assert {key: Counter(gens) for key, gens in filed.items()} == {
                key: Counter(gens) for key, gens in census.items()
            }, name

    def test_one_pass_filing_matches_the_per_column_scan(self, corpus):
        # each column's census lists the states of the per-column scan, in
        # the same order, on whole walks and on the cut walks of build_column
        diagrams = dict(corpus)
        for seed in (1, 2, 3):
            diagrams[f"T(2,8) scrambled {seed}"] = scrambled(torus_two_strand(8), seed)
        d = parse_pd(KNOT_10_44)
        for kinks, arc in enumerate((3, 12), 1):
            d = add_positive_kink(d, arc)
            diagrams[f"10_44 + {kinks} kinks"] = d
        columns = 0
        for name, d in diagrams.items():
            c = d.crossing_count
            kept = khovanov._walk(d)
            js = all_js(d)
            by_j = khovanov._file_by_j(kept, c, js)
            for j in js:
                want = scan_census(kept, c, j)
                got = khovanov._census(kept, c, j, by_j[j])
                assert list(got.items()) == list(want.items()), (name, j)
                columns += bool(want)
                cut = build_column(d, j).generators
                want = scan_census(khovanov._walk(d, j), c, j)
                assert list(cut.items()) == list(want.items()), (name, j, "cut walk")
        assert columns == 135

    @pytest.mark.parametrize(
        "diagram",
        [parse_pd(KNOT_10_44), torus_two_strand(8)],
        ids=["10_44", "T(2,8)"],
    )
    def test_table_holds_one_column_at_a_time(self, monkeypatch, diagram):
        # the generators of a column are garbage before the next one is filed
        real = khovanov._census
        previous: list = []
        js = []

        def tracked(kept, c, j, masks):
            nonlocal previous
            assert all(ref() is None for ref in previous), (js[-1], "alive at", j)
            per_i = {i: TrackedList(gens) for i, gens in real(kept, c, j, masks).items()}
            previous = [weakref.ref(gens) for gens in per_i.values()]
            js.append(j)
            return per_i

        monkeypatch.setattr(khovanov, "_census", tracked)
        table, _ = full_homology_table(diagram)
        assert table
        assert js == sorted({j for _, j in generator_rank_table(diagram)})
        assert len(js) > 5
        assert all(ref() is None for ref in previous)


def listed(kept: dict) -> list:
    """A walk's (mask, (circles, end)) in walk order, each end map as a list."""
    return [(mask, (circles, list(end))) for mask, (circles, end) in kept.items()]


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
        flipped = []
        real_flip, real_table = khovanov._flip, step_table

        def counting_flip(steps, parent, mask, x):
            flipped.append(mask)
            return real_flip(steps, parent, mask, x)

        def counting_table(*args):
            calls["step_table"] += 1
            return real_table(*args)

        monkeypatch.setattr(khovanov, "_flip", counting_flip)
        monkeypatch.setattr(khovanov, "step_table", counting_table)
        monkeypatch.setattr(diagram_module, "step_table", counting_table)
        _, j_almax = j_extremes(d)
        calls.clear()
        column = build_column(d, j_almax)
        assert sum(len(g) for g in column.generators.values()) == column_size == 23
        assert calls["step_table"] == 1  # one table, and mask 0 traced over it
        assert 0 not in flipped and len(flipped) == len(set(flipped))  # each mask derived once
        # only the masks the walk keeps are traced: no child is traced to be dropped
        traced = len(flipped)
        assert traced == len(khovanov._walk(d, j_almax)) - 1 == 13

    def test_cut_walk_is_the_full_walk_within_the_cut(self, corpus, monkeypatch):
        # keys, order and resolutions as the walk that traces every child from
        # scratch and judges it after; below c = 14 also as the whole cube's
        # walk restricted to the cut.  Each kept mask but 0 is derived once,
        # and no other mask is traced.
        diagrams = dict(corpus)
        for seed in (1, 2, 3):
            diagrams[f"T(2,8) scrambled {seed}"] = scrambled(torus_two_strand(8), seed)
        kinked = (("10_44", KNOT_10_44, (1, 3, 10, 30)), ("8_20", KNOT_8_20, (4, 10, 20)))
        for name, pd, counts in kinked:
            for kinks in counts:
                diagrams[f"{name} + {kinks} kinks"] = seeded_kinks(parse_pd(pd), kinks, seed=kinks)
        assert max(d.crossing_count for d in diagrams.values()) == 40
        flipped = []
        real_flip = khovanov._flip

        def counting_flip(steps, parent, mask, x):
            flipped.append(mask)
            return real_flip(steps, parent, mask, x)

        monkeypatch.setattr(khovanov, "_flip", counting_flip)
        for name, d in diagrams.items():
            c = d.crossing_count
            j_max, j_almax = j_extremes(d)
            full = None
            if c < 14:
                flipped.clear()
                full = khovanov._walk(d)
                assert len(flipped) == 2**c - 1, name
            for j in (j_almax, j_almax - 2, j_almax - 4):  # the column at j_almax - 2 is empty, its walk not
                flipped.clear()
                kept = khovanov._walk(d, j)
                assert len(flipped) == len(kept) - 1, (name, j)
                assert listed(kept) == listed(traced_cut_walk(d, j)), (name, j)
                if full is not None:
                    circles_a = len(full[0][0])
                    within = {
                        mask: res
                        for mask, res in full.items()
                        if 2 * (circles_a + mask.bit_count() - len(res[0])) <= j_max - j
                    }
                    assert list(kept.items()) == list(within.items()), (name, j)

    def test_cut_walk_of_non_planar_codes(self):
        # a flip that keeps one circle adds 1 to the deficit, so a child pushed
        # as a split may still be cut on pop; the walk agrees with the oracle
        codes = [
            d for d in random_pd_codes(120, seed=11) if face_count(d) != d.crossing_count + 2
        ]
        assert len(codes) >= 80
        for d in codes:
            j_max, _ = j_extremes(d)
            for j in range(j_max, j_max - 4 * d.crossing_count - 1, -2):
                assert listed(khovanov._walk(d, j)) == listed(traced_cut_walk(d, j))

    def test_end_maps_wider_than_bytes_past_64_crossings(self):
        # 4c - 1 > 255 from c = 65 on, so the walk's end maps are two bytes wide
        assert type(khovanov._end_map(0, [])) is type(khovanov._end_map(64, [255])) is bytearray
        assert khovanov._end_map(65, [256]).typecode == "H"
        assert khovanov._end_map(16384, [65535]).typecode == "H"
        assert khovanov._end_map(16385, [65536]).itemsize == 4
        d = seeded_kinks(parse_pd(KNOT_10_44), 55, seed=1)
        c = d.crossing_count
        assert c == 65
        j_max, j_almax = j_extremes(d)
        for j in (j_max, j_almax, j_almax - 4):
            kept = khovanov._walk(d, j)
            for mask, (circles, end) in kept.items():
                assert end.typecode == "H"
                assert (circles, list(end)) == resolve(d, mask_state(c, mask)), (j, mask)

    def test_byte_end_maps_load_no_extension_module(self):
        # loading ``array`` adds about 0.15 MiB to every process; below c = 65 nothing needs it
        code = (
            "import sys; from almax.cli import main; "
            f"main(['table', {KNOT_10_44!r}]); main(['analyze', {KNOT_10_44!r}]); "
            "print('array' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env={**os.environ, "PYTHONPATH": str(Path(khovanov.__file__).parents[1])},
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.splitlines()[-1] == "False"


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
    def assert_match_union_find(d):
        """``resolve``, ``trace_state`` and ``_walk`` against the union-find oracle on every mask."""
        c = d.crossing_count
        kept = khovanov._walk(d)
        assert len(kept) == 2**c
        steps = step_table(d)
        for mask in range(1 << c):
            want = union_find_resolution(d, mask_state(c, mask))
            # the circles, and the circle of each arc end, so the chords
            assert resolve(d, mask_state(c, mask)) == want
            assert trace_state(steps, mask) == want
            circles, end = kept[mask]
            assert (circles, list(end)) == want
        return kept

    def test_derived_resolutions_match_union_find(self, corpus, unknot):
        for d in list(self.diagrams(corpus)) + [unknot]:
            self.assert_match_union_find(d)

    def test_non_planar_codes_match_union_find(self):
        codes = [
            d for d in random_pd_codes(360, seed=11) if face_count(d) != d.crossing_count + 2
        ]
        stays_one = 0
        for d in codes:
            kept = self.assert_match_union_find(d)
            for mask in range(1, 1 << d.crossing_count):
                parent = mask ^ (1 << (mask.bit_length() - 1))
                stays_one += len(kept[mask][0]) == len(kept[parent][0])
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
            circles = len(resolve(d, State.all_a(c))[0])
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
        # d = -A^2 - A^-2
        assert kauffman_bracket(unknot) == {2: -1, -2: -1}

    def test_left_trefoil_state_sum(self, left_trefoil):
        # eight-state sum A^3 d^3 + 3 A d^2 + 3 A^-1 d + A^-3 d^2, term by term:
        # (-A^9 - 3A^5 - 3A - A^-3) + (3A^5 + 6A + 3A^-3) + (-3A - 3A^-3) + (A + 2A^-3 + A^-7)
        assert kauffman_bracket(left_trefoil) == {9: -1, 1: 1, -3: 1, -7: 1}

    def test_top_coefficient_sign(self, corpus):
        # only the all-positive all-A state reaches j_max on A-adequate diagrams
        for d in corpus.values():
            if not is_a_adequate(d):
                continue
            circles = len(resolve(d, State.all_a(d.crossing_count))[0])
            j_max, _ = j_extremes(d)
            assert kauffman_bracket(d).get(j_max, 0) == (-1) ** circles


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
            {2: -1, -2: -1},
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

    def test_euler_polynomial_drops_cancelled_coefficients(self):
        # Z at (0, 0) counts +A^0 and Z at (2, 0) counts -A^0, so no term is left
        assert euler_polynomial({(0, 0): 1, (2, 0): 1}) == {}
        assert euler_polynomial({(0, 0): AbelianGroup(1), (2, 0): AbelianGroup(1, (2,))}) == {}

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

    def test_reidemeister_two_keeps_the_table(self, corpus):
        # a finger of one arc pushed over another across a face adds a
        # bigon; the framed table, torsion included, does not move
        diagrams = [d for d in corpus.values() if d.crossing_count <= 7]
        diagrams += [d for d in random_braid_closures(12, seed=8) if d.crossing_count <= 6]
        assert len(diagrams) >= 15
        rng = random.Random(11)
        for d in diagrams:
            reference, _ = full_homology_table(d)
            for _ in range(2):
                moved = random_reidemeister_two(d, rng)
                check_planar(moved)
                assert full_homology_table(moved)[0] == reference, to_pd_text(moved)

    def test_reidemeister_two_hand_check(self):
        # two circles, one pushed over the other: the two-component unlink
        table, _ = full_homology_table(parse_pd("X(1,2,3,4);X(1,4,3,2)"))
        assert table == {
            (0, -4): AbelianGroup(1),
            (0, 0): AbelianGroup(2),
            (0, 4): AbelianGroup(1),
        }
