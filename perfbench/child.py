"""One benchmark pass in a fresh interpreter.

    python3 child.py SRC FIELDS PLAN

SRC is the directory holding the crossflats package, FIELDS the
workload's fields as "p^k,p^k,...", PLAN a JSON file with the CLI argument
lists to run and the mode.  Set-up (importing crossflats and building the
fields) is timed before anything else is imported.  Each op calls
crossflats.cli.main in this process with its output captured.  The report
goes to stdout as one JSON object.
"""

import sys
import time


def main() -> int:
    start = time.perf_counter()
    src, fields, plan_path = sys.argv[1:4]
    sys.path.insert(0, src)
    import crossflats
    from crossflats.cli import main as cli_main

    for spec in fields.split(","):
        p, k = spec.split("^")
        crossflats.make_field(int(p), int(k))
    setup_s = time.perf_counter() - start

    import contextlib
    import io
    import json
    import resource

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    mode = plan["mode"]
    report = {"setup_s": setup_s}
    if mode == "probe":
        import probes
        report["probes"] = probes.run(crossflats, plan["seed"])
    elif mode in ("plain", "traced"):
        tracer = None
        if mode == "traced":
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
            cli_main = tracer.timed("cli.main", "cli", cli_main)
        ops = []
        for argv in plan["ops"]:
            out, err = io.StringIO(), io.StringIO()
            verifies = tracer.calls("families.verify_cross_intersecting") if tracer else 0
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli_main(argv)
                except Exception as exc:  # a traceback is a failed op, not a crash
                    rc = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            op = {"rc": rc, "stdout": out.getvalue(), "seconds": seconds}
            if tracer:
                op["verify_calls"] = tracer.calls("families.verify_cross_intersecting") - verifies
            ops.append(op)
        report["ops"] = ops
        if tracer:
            report["trace"] = tracer.report()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
