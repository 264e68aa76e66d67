"""Seeded inputs of the benchmark workloads.

Every workload is a list of ``Op``: one ``almax analyze`` or ``almax table``
command line plus what the checks need to know about its input.  The same
workload name and seed always give the same ops.  Generation runs in the
benchmark's own process, never in a timed pass process, so the program's
resolution caches stay cold for the passes.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from almax.diagram import (
    Diagram,
    DiagramError,
    State,
    add_positive_kink,
    mirror,
    parse_pd,
    reorder_crossings,
    to_pd_text,
)
from almax.state_graph import build_state_graph, is_a_adequate, is_b_adequate

# Closure of s1^3 s2^-1 s1^-3 s2^-1: 8 crossings, A-adequate only.
KNOT_8_20 = (
    "X(1,4,5,2);X(4,6,7,5);X(6,8,9,7);X(3,9,10,11);"
    "X(10,8,12,13);X(13,12,14,15);X(15,14,1,17);X(11,17,2,3)"
)
# Alternating 10-crossing diagram; all-A graph is a hexagon with four spokes.
KNOT_10_44 = (
    "X(1,2,3,4);X(4,5,6,7);X(7,8,9,10);X(10,11,12,13);X(13,12,14,15);"
    "X(16,1,15,14);X(17,18,2,16);X(18,19,5,3);X(19,20,8,6);X(20,17,11,9)"
)

# Every op of a workload runs once per pass, and a run reports each op's
# median over its passes; a pass of about 3 s leaves room for seven or more
# passes in a run, which is what keeps the median steady on a shared host.
# That caps the inputs at c = 13 for analyze, T(2,12) for the torus and
# T(2,9) for the table.
#
# Kink counts per base knot.  10_44 + 3 kinks (c = 13) is the largest input:
# its almost-extreme column has 23 generators against a cube of 8192 states.
KINKS = (("10_44", KNOT_10_44, (0, 1, 3)), ("8_20", KNOT_8_20, (0, 4)))
TORUS_N = (10, 11, 12)
TABLE_INPUTS = ("8_20", "10_44", "T(2,8)", "T(2,9)")
# batch-small: distinct inputs per crossing number, 210 in all, so that p95 has
# 10 samples beyond it.  As many ops lie below c = 5 as above it, so the median
# op sits in the middle of the c = 5 inputs, and p95 sits in the middle of the
# c = 9 ones: neither falls in the gap in cost between two crossing numbers.
BATCH_COUNTS = {3: 15, 4: 60, 5: 60, 6: 22, 7: 18, 8: 15, 9: 20}


@dataclass
class Op:
    """One CLI invocation of a workload and the facts its checks use."""

    label: str             # names the reference output; seed-independent except in batch-small
    diagram: Diagram       # the diagram passed on the command line
    argv: list[str]
    mirrored: bool = False  # only B-adequate, so analyzed through --auto-mirror
    largest: bool = False   # counted in largest_s

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def crossings(self) -> int:
        return self.diagram.crossing_count

    def column_size(self) -> int:
        """Generators of the almost-extreme column: |V| + sum over parallel classes P of 2^|P| - 1.

        Read off the all-A state graph of the analyzed diagram (the mirror when
        mirrored); for an A-adequate diagram this is the size of the column
        the direct route enumerates.
        """
        target = mirror(self.diagram) if self.mirrored else self.diagram
        graph = build_state_graph(target, State.all_a(target.crossing_count))
        classes = Counter(frozenset(edge) for edge in graph.edges)
        return len(graph.vertices) + sum(2**size - 1 for size in classes.values())


def braid_closure(word, strands: int) -> Diagram:
    """Closure of a braid word; +k is sigma_k with the left strand passing under."""
    if {abs(g) for g in word} != set(range(1, strands)):
        raise DiagramError("a generator is missing from the word: the closure is split")
    arcs = iter(range(1, 2 * len(word) + strands + 1))
    top = [next(arcs) for _ in range(strands)]
    cur = list(top)
    crossings = []
    for g in word:
        k = abs(g) - 1
        in_left, in_right = cur[k], cur[k + 1]
        out_left, out_right = next(arcs), next(arcs)
        if g > 0:
            crossings.append((in_left, out_left, out_right, in_right))
        else:
            crossings.append((in_right, in_left, out_left, out_right))
        cur[k], cur[k + 1] = out_left, out_right
    closing = {cur[s]: top[s] for s in range(strands)}

    def arc(a):
        while a in closing:
            a = closing[a]
        return a

    quads = tuple(tuple(arc(e) for e in q) for q in crossings)
    # renumber 1..2c in order of first appearance
    ids: dict[int, int] = {}
    for q in quads:
        for e in q:
            ids.setdefault(e, len(ids) + 1)
    return Diagram(tuple(tuple(ids[e] for e in q) for q in quads))


def torus(n: int) -> Diagram:
    """T(2, n) as the closure of sigma_1^n: all-A graph is 2 vertices and n parallel edges."""
    return braid_closure([1] * n, 2)


def named(name: str) -> Diagram:
    if name == "8_20":
        return parse_pd(KNOT_8_20)
    if name == "10_44":
        return parse_pd(KNOT_10_44)
    if name.startswith("T(2,"):
        return torus(int(name[4:-1]))
    raise ValueError(f"unknown diagram {name!r}")


def scramble(diagram: Diagram, rng: random.Random) -> Diagram:
    """Same diagram with crossings reordered and arcs renamed; its homology is unchanged."""
    order = list(range(diagram.crossing_count))
    rng.shuffle(order)
    arcs = list(diagram.arc_ids())
    renamed = dict(zip(arcs, rng.sample(arcs, len(arcs))))
    shuffled = reorder_crossings(diagram, order)
    return Diagram(tuple(tuple(renamed[e] for e in q) for q in shuffled.crossings))


def _analyze_op(label: str, diagram: Diagram, mirrored: bool = False) -> Op:
    argv = ["analyze", to_pd_text(diagram), "--format", "json"]
    if mirrored:
        argv.append("--auto-mirror")
    return Op(label, diagram, argv, mirrored=mirrored)


def analyze_kinked(rng: random.Random) -> list[Op]:
    ops = []
    for name, pd, counts in KINKS:
        for kinks in counts:
            d = parse_pd(pd)
            for _ in range(kinks):
                d = add_positive_kink(d, rng.choice(d.arc_ids()))
            ops.append(_analyze_op(f"{name}+{kinks}k", d))
    max(ops, key=lambda op: op.crossings).largest = True
    return ops


def analyze_torus(rng: random.Random) -> list[Op]:
    ops = [_analyze_op(f"T(2,{n})", scramble(torus(n), rng)) for n in TORUS_N]
    ops[-1].largest = True
    return ops


def table(rng: random.Random) -> list[Op]:
    ops = []
    for name in TABLE_INPUTS:
        d = scramble(named(name), rng)
        ops.append(Op(name, d, ["table", to_pd_text(d), "--format", "json"]))
    ops[-1].largest = True
    return ops


def batch_small(rng: random.Random) -> list[Op]:
    """BATCH_COUNTS distinct connected semiadequate braid closures per crossing number.

    Distinct means no two inputs share PD text, and no input is the mirror of
    another, whose resolutions the program would then already hold.
    """
    ops = []
    seen: set[str] = set()
    for c, wanted in BATCH_COUNTS.items():
        found = 0
        for _attempt in range(200 * wanted):
            if found == wanted:
                break
            strands = rng.randint(2, min(4, c))
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(c)]
            try:
                d = braid_closure(word, strands)
            except DiagramError:  # split or disconnected closure
                continue
            text = to_pd_text(d)
            if text in seen:
                continue
            a_ok = is_a_adequate(d)
            if not a_ok and not is_b_adequate(d):
                continue
            seen.add(text)
            seen.add(to_pd_text(mirror(d)))
            ops.append(_analyze_op(text, d, mirrored=not a_ok))
            found += 1
        if found < wanted:
            raise RuntimeError(f"only {found} distinct inputs with c = {c}")
    for op in ops:
        op.largest = op.crossings == max(BATCH_COUNTS)
    return ops


WORKLOADS = {
    "analyze-kinked": analyze_kinked,
    "analyze-torus": analyze_torus,
    "table": table,
    "batch-small": batch_small,
}


def build(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
