"""One timed pass: a fresh interpreter runs every op of a workload through the CLI.

Reads a JSON spec on stdin: {"ops": [argv, ...], "trace": bool, "spans": path or null}.
Writes one JSON object on stdout: the import time of ``almax.cli``, per-op
[latency, exit code, captured stdout, captured stderr], the peak RSS and,
when traced, the per-layer summary.  Nothing runs before
the ops, so the program's in-process caches are cold for the first op.
"""

import sys
import time

start = time.perf_counter()
import almax.cli  # noqa: E402  (the timed import is the pass's set-up)

setup_s = time.perf_counter() - start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def run_op(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = almax.cli.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code
        except Exception as exc:  # an op that crashes is a failed op, not a failed pass
            code = f"{type(exc).__name__}: {exc}"
    return [time.perf_counter() - start, code, out.getvalue(), err.getvalue()]


def main() -> None:
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ops = [run_op(argv) for argv in spec["ops"]]
    result = {
        "setup_s": setup_s,
        "ops": ops,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        table_ops = sum(1 for argv in spec["ops"] if argv[0] == "table")
        result["layers"] = tracer.summary(table_ops)
        if spec.get("spans"):
            tracer.dump(spec["spans"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
