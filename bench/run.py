"""almax benchmark: seeded workloads run through the CLI in cold processes.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``.  Each
pass is a fresh interpreter (``bench/worker.py``) that imports ``almax.cli``
and calls ``almax.cli.main(argv)`` once per op, back to back: one closed-loop
client, one process.  Passes repeat while another one fits in ``--seconds``.
Outputs are checked after the passes, outside the timed region, against
the references in ``bench/references.json`` among other things.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (op executions, a failed check counts as a failed op) and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run alternates untraced and traced passes and reports the
per-layer metrics of ``bench/spans.py`` plus ``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references.json"
DEFAULT_SEED = 1
REFERENCE_SEED = 1  # the seed whose batch-small inputs references.json holds
SETUP_PROBES = 5  # extra import-only processes per run, for a steady setup_s
# A pass still running this long after --seconds is killed, so that a run of
# --seconds 30 always ends within three minutes.
GRACE_S = 120
# Keys of an op's JSON output that must match the recorded reference.
CHECKED_KEYS = ("homology", "mirrored", "kauffman_bracket", "euler_identity")

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p95_s": "s",
    "largest_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class PassError(RuntimeError):
    """A pass process crashed, timed out or printed no result."""


def worker_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        PYTHONHASHSEED="0",
    )


def run_pass(argvs, trace: bool, deadline: float, spans_path=None) -> dict:
    spec = {"ops": argvs, "trace": trace, "spans": str(spans_path) if spans_path else None}
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=worker_env(),
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"pass exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise PassError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        raise PassError(f"pass printed no result: {proc.stdout[-200:]!r}") from None


def reference_view(doc: dict) -> dict:
    return {key: doc[key] for key in CHECKED_KEYS if key in doc}


def load_references(workload: str, seed: int) -> dict | None:
    """Recorded outputs by op label, or None where no reference applies.

    The labels of the other workloads do not depend on the seed, so their
    references hold for every seed; batch-small labels are the inputs of
    ``REFERENCE_SEED``.  A missing file yields no references, so every op
    that needs one fails its check.
    """
    if workload == "batch-small" and seed != REFERENCE_SEED:
        return None
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text())["workloads"].get(workload, {})


def j_almax_columns(ops) -> dict:
    """For each A-adequate table op: (j_almax, direct-route column) from ``almax analyze``.

    Runs in this process, after the timed passes.
    """
    import contextlib
    import io

    import almax.cli
    from almax.state_graph import is_a_adequate

    columns = {}
    for index, op in enumerate(ops):
        if op.command != "table" or not is_a_adequate(op.diagram):
            continue
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = almax.cli.main(["analyze", op.argv[1], "--format", "json"])
            doc = json.loads(out.getvalue()) if code == 0 else {}
        except Exception:  # a crash fails the check instead of the run
            doc = {}
        columns[index] = (doc.get("j_almax"), doc.get("homology", {}).get("direct"))
    return columns


def check(op, result, references, column) -> str | None:
    """Why one op execution is wrong, or None when its output is right."""
    _latency, code, stdout, stderr = result
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-200:]}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if op.command == "analyze":
        if doc.get("agreement") is not True:
            return "routes disagree"
        if doc.get("mirrored") != op.mirrored:
            return f"mirrored is {doc.get('mirrored')}, expected {op.mirrored}"
    elif doc.get("euler_identity") is not True:
        return "Euler identity fails"
    if references is not None:
        if op.label not in references:
            return "no recorded reference"
        if reference_view(doc) != references[op.label]:
            return "output differs from the recorded reference"
    if column is not None:
        j_almax, direct = column
        table = doc.get("homology", {})
        in_table = {k: g for k, g in table.items() if k.split(",")[1] == str(j_almax)}
        if in_table != direct:
            return f"table column j = {j_almax} differs from analyze: {in_table} != {direct}"
    return None


def nearest_rank(values, q: float):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def describe_inputs(workload: str, seed: int, ops) -> None:
    hist = Counter(op.crossings for op in ops)
    ratios = [op.column_size() / 2**op.crossings for op in ops]
    mirrored = sum(op.mirrored for op in ops)
    print(f"workload {workload}, seed {seed}: {len(ops)} ops "
          f"({', '.join(sorted(Counter(op.command for op in ops)))})")
    print("  crossings histogram: " + ", ".join(f"c={c}: {n}" for c, n in sorted(hist.items())))
    print(f"  column size / 2^c: min {min(ratios):.4g}, median {statistics.median(ratios):.4g}, "
          f"max {max(ratios):.4g}")
    print(f"  mirrored (--auto-mirror): {mirrored}/{len(ops)} = {mirrored / len(ops):.1%}")
    largest = [op for op in ops if op.largest]
    print(f"  largest_s inputs: {len(largest)} with c = {sorted({op.crossings for op in largest})}"
          + (f" ({largest[0].label})" if len(largest) == 1 else ""))


def measure(args, ops):
    """Run timed passes until another would not fit in ``args.seconds``."""
    argvs = [op.argv for op in ops]
    deadline = time.monotonic() + args.seconds + GRACE_S
    spans_path = None
    if args.trace:
        spans_path = ROOT / ".bench_build" / f"spans_{args.workload}_{args.seed}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
    run_pass([], False, deadline)  # compiles bytecode; runs no op and is not timed
    setups = [run_pass([], False, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced, errors = [], [], []
    start = time.monotonic()
    while True:
        try:
            plain.append(run_pass(argvs, False, deadline))
            if args.trace:
                traced.append(run_pass(argvs, True, deadline, spans_path))
        except PassError as exc:
            errors.append(str(exc))
            break
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(plain) > args.seconds:
            break
    return setups, plain, traced, errors


def pass_wall(p) -> float:
    return sum(op[0] for op in p["ops"])


def op_latencies(passes) -> list[float]:
    """Each op's latency: the median of its cold runs over the passes.

    On a shared host, other tenants slow every process by up to 40% for
    stretches of a fraction of a second to minutes.  The best pass of an op
    that lasts a second or more depends on whether the run happened to get a
    long fast stretch; the median follows the mix of fast and slow stretches
    over the whole run, and varies less from run to run (see README.md).
    A pass then costs the sum of its ops' latencies.
    """
    return [statistics.median(run[0] for run in runs) for runs in zip(*(p["ops"] for p in passes))]


def end_to_end(ops, setups, plain) -> dict:
    latency = op_latencies(plain)
    largest = [latency[i] for i, op in enumerate(ops) if op.largest]
    return {
        "wall_s": sum(latency),
        "op_p50_s": statistics.median(latency),
        "op_p95_s": nearest_rank(latency, 0.95),
        "largest_s": statistics.median(largest),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in plain]),
    }


def per_layer(plain, traced) -> dict:
    from spans import METRICS

    values = {}
    for metric, (unit, _layers) in METRICS.items():
        samples = [p["layers"][metric] for p in traced]
        values[metric] = (None if None in samples else statistics.median(samples), unit)
    # Each traced pass runs right after an untraced one, so the difference of
    # a pair sees nearly the same host load; the median pair estimates the
    # tracer's cost, and min and max show how far host noise moves it.
    diffs = [pass_wall(t) - pass_wall(p) for p, t in zip(plain, traced)]
    overhead = statistics.median(diffs)
    print(f"trace.overhead_s over {len(diffs)} back-to-back pairs: median {overhead:.4g} s, "
          f"min {min(diffs):.4g} s, max {max(diffs):.4g} s, "
          f"untraced wall_s median {statistics.median(map(pass_wall, plain)):.4g} s")
    values["trace.overhead_s"] = (overhead, "s")
    return values


def run(args) -> dict:
    import workloads

    ops = workloads.build(args.workload, args.seed)
    describe_inputs(args.workload, args.seed, ops)
    setups, plain, traced, errors = measure(args, ops)
    references = load_references(args.workload, args.seed)
    columns = j_almax_columns(ops)
    attempted = failed = 0
    reasons = Counter()
    for p in plain + traced:
        for i, op in enumerate(ops):
            attempted += 1
            reason = check(op, p["ops"][i], references, columns.get(i))
            if reason is not None:
                failed += 1
                reasons[f"{op.label}: {reason}"] += 1
    for error in errors:  # the ops of a pass that never finished all count as failed
        attempted += len(ops)
        failed += len(ops)
        reasons[error] += 1
    for reason, n in reasons.most_common(10):
        print(f"  FAILED x{n}: {reason}")

    print(f"passes: {len(plain)} untraced" + (f", {len(traced)} traced" if args.trace else "")
          + f", each a fresh interpreter; set-up probes: {SETUP_PROBES}")
    print(f"fail_ratio = {failed}/{attempted} = {failed / max(attempted, 1):.4g} "
          "(failed op executions / attempted)")
    metrics = {}
    if plain and (traced or not args.trace):
        if args.trace:
            metrics = per_layer(plain, traced)
        else:
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(ops, setups, plain).items()}
            tail = len(ops) - math.ceil(0.95 * len(ops))
            print(f"op latency samples: {len(ops)} ops (each the median of {len(plain)} passes), "
                  f"{tail} beyond p95")
    for name, (value, unit) in metrics.items():
        print(f"{name} = " + ("absent" if value is None else f"{value:.6g} {unit}"))
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} if value is not None
            else {"value": 0, "unit": unit, "absent": True}
            for name, (value, unit) in metrics.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("analyze-kinked", "analyze-torus", "table", "batch-small"),
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "almax" / "cli.py").is_file():
        print(f"error: no almax sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
