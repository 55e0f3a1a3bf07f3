"""One workload process: time the import of shishkinfem.cli, then call
cli.main once, optionally under the tracer, and write a JSON result.

    python3 perfbench/child.py RESULT.json TRACE [CLI ARGS...]

TRACE is 0 (no wrappers), 1 (tracer installed) or "setup" (import
only).  The parent sets PYTHONPATH, the thread caps and the output
directory; this process measures and reports, it does not check outputs.
"""

import json
import os
import resource
import sys
import time


def main():
    result_path, trace, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    from shishkinfem import cli
    result = {"setup_s": time.perf_counter() - t0, "cli_file": cli.__file__}
    if trace != "setup":
        tracer = None
        if trace == "1":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(cli)
        t1 = time.perf_counter()
        if tracer is None:
            rc = cli.main(argv)
        else:
            _, rc = tracer.call("cli.main", cli.main, argv)
        result["wall_s"] = time.perf_counter() - t1
        result["rc"] = rc
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["failed_solves"] = tracer.failed_solves()
            result["solves"] = tracer.solves
            result["spans"] = tracer.span_records()
    tmp = result_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)


if __name__ == "__main__":
    main()
