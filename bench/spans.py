"""Spans around the public functions of each almax module, for the traced run.

``install`` replaces every target function by a wrapper that records a span
(layer, start, end, parent).  A function is patched under every name that
an almax module binds it to, so that ``almax.report.build_xd`` is traced as
well as ``almax.xd.build_xd``.  A target that no longer exists is reported
absent instead of failing.  Spans stay in memory until ``Tracer.summary``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# layer -> targets, each "module:attribute" or "module:Class.method";
# "module:*" means every public function the module defines.
LAYERS = {
    "cli": ["almax.cli:main"],
    "diagram.parse": ["almax.diagram:parse_pd", "almax.diagram:diagram_from_json_dict"],
    "diagram.resolve": ["almax.diagram:resolve"],
    "state_graph": ["almax.state_graph:*"],
    "homotopy": ["almax.homotopy:*"],
    "report.analyze": ["almax.report:analyze_diagram"],
    "xd.build": ["almax.xd:build_xd"],
    "presimplicial.validate": ["almax.presimplicial:validate_pps"],
    "presimplicial.chain_complex": ["almax.presimplicial:chain_complex"],
    "khovanov.column": ["almax.khovanov:build_column"],
    "khovanov.table": ["almax.khovanov:full_homology_table"],
    "khovanov.ranks": ["almax.khovanov:generator_rank_table"],
    "khovanov.bracket": ["almax.khovanov:kauffman_bracket"],
    "homology.snf": ["almax.homology:smith_normal_form"],
    "homology.homology": ["almax.homology:homology"],
    "homology.dd_check": ["almax.homology:IntegerChainComplex.check_composition"],
}

# The layers whose calls each walk the whole 2^c state cube of a table op.
CUBE_WALKS = ("khovanov.table", "khovanov.ranks", "khovanov.bracket")

# metric -> (unit, layers it is computed from); the order is the report order.
METRICS = {
    "diagram.resolve.calls": ("count", ["diagram.resolve"]),
    "diagram.resolve.self_s": ("s", ["diagram.resolve"]),
    "khovanov.column.self_s": ("s", ["khovanov.column"]),
    "khovanov.column.generators": ("count", ["khovanov.column"]),
    "khovanov.column.useful_ratio": ("ratio", ["khovanov.column", "diagram.resolve"]),
    "xd.build.self_s": ("s", ["xd.build"]),
    "xd.cells": ("count", ["xd.build"]),
    "xd.cells_per_subset": ("ratio", ["xd.build"]),
    "presimplicial.validate.self_s": ("s", ["presimplicial.validate"]),
    "presimplicial.chain_complex.self_s": ("s", ["presimplicial.chain_complex"]),
    "homology.snf.calls": ("count", ["homology.snf"]),
    "homology.snf.self_s": ("s", ["homology.snf"]),
    "homology.snf.nnz": ("count", ["homology.snf"]),
    "homology.snf.max_dim": ("count", ["homology.snf"]),
    "homology.snf.large_calls": ("count", ["homology.snf"]),
    "homology.homology.self_s": ("s", ["homology.homology"]),
    "homology.dd_check.self_s": ("s", ["homology.dd_check"]),
    "khovanov.table.self_s": ("s", ["khovanov.table"]),
    "khovanov.ranks.self_s": ("s", ["khovanov.ranks"]),
    "khovanov.bracket.self_s": ("s", ["khovanov.bracket"]),
    "khovanov.cube_walks": ("count", list(CUBE_WALKS)),
    "diagram.parse.self_s": ("s", ["diagram.parse"]),
    "state_graph.self_s": ("s", ["state_graph"]),
    "homotopy.self_s": ("s", ["homotopy"]),
    "report.analyze.self_s": ("s", ["report.analyze"]),
    "cli.self_s": ("s", ["cli"]),
}

# smith_normal_form picks its dense path at or below this many entries.
SNF_LARGE = 4096


def _count_snf(counters: dict, args, _result) -> None:
    matrix = args[0]
    rows, cols = matrix.rows, matrix.cols
    counters["homology.snf.nnz"] += matrix.nnz
    counters["homology.snf.max_dim"] = max(counters["homology.snf.max_dim"], rows, cols)
    counters["homology.snf.large_calls"] += rows * cols > SNF_LARGE


def _count_xd(counters: dict, args, result) -> None:
    counters["xd.cells"] += sum(len(names) for names in result.cells.values())
    counters["xd.subsets"] += 2 ** args[0].edge_count - 1


def _count_column(counters: dict, _args, result) -> None:
    counters["khovanov.column.generators"] += sum(len(g) for g in result.generators.values())


# layer -> (counter read at each call, the metrics it feeds)
COUNTERS = {
    "homology.snf": (
        _count_snf, ("homology.snf.nnz", "homology.snf.max_dim", "homology.snf.large_calls")
    ),
    "xd.build": (_count_xd, ("xd.cells", "xd.cells_per_subset")),
    "khovanov.column": (
        _count_column, ("khovanov.column.generators", "khovanov.column.useful_ratio")
    ),
}


def _targets(spec: str):
    """(owner, attribute, function) for each function a target spec names."""
    module_name, _, attr = spec.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        return []
    if attr == "*":
        return [
            (module, name, fn)
            for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module_name and not name.startswith("_")
        ]
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, name, None)
    return [(owner, name, fn)] if callable(fn) else []


class Tracer:
    def __init__(self):
        self.names: list[str] = list(LAYERS)
        self.spans: list[tuple[int, float, float, int]] = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.broken: set[str] = set()  # layers whose counter could not read a call
        self.counters = {
            "homology.snf.nnz": 0,
            "homology.snf.max_dim": 0,
            "homology.snf.large_calls": 0,
            "xd.cells": 0,
            "xd.subsets": 0,
            "khovanov.column.generators": 0,
        }

    def _wrap(self, layer: str, fn):
        layer_id = self.names.index(layer)
        spans, stack, counters, broken = self.spans, self.stack, self.counters, self.broken
        count = COUNTERS[layer][0] if layer in COUNTERS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer_id, start, end, parent)
            if count is not None and layer not in broken:
                try:
                    count(counters, args, result)
                except Exception:  # the program changed shape: report the counter absent
                    broken.add(layer)
            return result

        return traced

    def install(self) -> None:
        """Patch every target under every almax module name bound to it."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "almax"]
        for layer, specs in LAYERS.items():
            found = False
            for spec in specs:
                for owner, name, fn in _targets(spec):
                    found = True
                    wrapper = self._wrap(layer, fn)
                    if inspect.isclass(owner):
                        setattr(owner, name, wrapper)
                        continue
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is fn:
                                setattr(module, attr, wrapper)
            if not found:
                self.absent.append(layer)

    def summary(self, table_ops: int) -> dict:
        """Per-layer metrics of everything traced so far; absent ones are None."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)
        for _layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        of = {layer: i for i, layer in enumerate(self.names)}
        resolve, column = of["diagram.resolve"], of["khovanov.column"]
        in_column = [False] * len(self.spans)
        resolve_in_column = 0
        for i, (layer, start, end, parent) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += end - start - child[i]
            in_column[i] = layer == column or (parent >= 0 and in_column[parent])
            resolve_in_column += layer == resolve and in_column[i]

        c = self.counters
        values = {
            "diagram.resolve.calls": calls[resolve],
            "khovanov.column.generators": c["khovanov.column.generators"],
            "khovanov.column.useful_ratio": (
                c["khovanov.column.generators"] / resolve_in_column if resolve_in_column else 0.0
            ),
            "xd.cells": c["xd.cells"],
            "xd.cells_per_subset": c["xd.cells"] / c["xd.subsets"] if c["xd.subsets"] else 0.0,
            "homology.snf.calls": calls[of["homology.snf"]],
            "homology.snf.nnz": c["homology.snf.nnz"],
            "homology.snf.max_dim": c["homology.snf.max_dim"],
            "homology.snf.large_calls": c["homology.snf.large_calls"],
            "khovanov.cube_walks": (
                sum(calls[of[layer]] for layer in CUBE_WALKS) / table_ops if table_ops else 0.0
            ),
        }
        for metric in METRICS:
            if metric.endswith(".self_s"):
                values[metric] = self_s[of[metric[: -len(".self_s")]]]
        for metric, (_unit, layers) in METRICS.items():
            if any(layer in self.absent for layer in layers):
                values[metric] = None
        for layer in self.broken:
            for metric in COUNTERS[layer][1]:
                values[metric] = None
        return values

    def dump(self, path) -> None:
        """Write the spans as JSON lines: [layer, start, end, parent index]."""
        with open(path, "w") as out:
            for layer, start, end, parent in self.spans:
                out.write(f'["{self.names[layer]}",{start!r},{end!r},{parent}]\n')
