"""shishkinfem benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload errors_table --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  Each repetition is a fresh Python process that calls
`shishkinfem.cli.main` (see child.py).  One process runs at a time, so the
load is a closed loop with a single client.  Repetitions continue while
the next one is expected to end within --seconds of measurement (there is
always at least one).

--trace 0 prints the end-to-end metrics: medians of wall_s and
peak_rss_mb over repetitions, and of setup_s over the imports of every
process of the run: the repetitions, then import-only processes that fill
what is left of --seconds (at least SETUP_FILL_MIN of them).
--trace 1 runs one untraced repetition, then traced ones, and prints
per-layer metrics (medians over the traced repetitions) plus the tracing
overhead.  It also checks each solve's residual independently, that
traced and untraced outputs are byte-identical, and that counts repeat
exactly between traced repetitions.

Every output record is checked (workloads.check_output).  Checking runs
after the timed repetitions, once per distinct output file: repetitions
must write byte-identical files, so one check covers all of them, and the
measured time holds only workload processes.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  A
fuller record, with samples, machine info and, when traced, each solve's
n, nnz, iterations, residual and method next to its time, goes to
perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from tracer import SELF_TIME
from workloads import WORKLOADS, check_output, record_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_FILL_MIN = 3         # import-only processes per untraced run, at least
COUNT_UNITS = ("count", "bytes")   # per-layer metrics that must repeat exactly
RUN_LIMIT_S = 150.0        # start no repetition that could end past this
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(nproc):
    env = dict(os.environ)
    # The variable overrides -o; outputs must land in the temporary directory.
    env.pop("SHISHKINFEM_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for cap in THREAD_CAPS:
        env[cap] = str(nproc)
    return env


def run_child(mode, argv, env, work, timeout):
    """Run child.py; returns its result dict, or None if it failed."""
    result = work / "child-result.json"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(result), mode, *argv],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: child timed out after {timeout:.0f} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"perfbench: child exited {proc.returncode}: "
              f"{proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    out = json.loads(result.read_text())
    if Path(out["cli_file"]).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: imported {out['cli_file']}, not the checkout's "
              "src/", file=sys.stderr)
        return None
    return out


def repetition(wl, seed, mode, env, deadline, kept):
    """One workload process.  The first output file with a given content is
    moved to kept/<sha256> for check_outputs; later copies are deleted."""
    work = Path(tempfile.mkdtemp(prefix="rep-", dir=OUT))
    try:
        timeout = max(1.0, deadline - time.perf_counter())
        res = run_child(mode, wl.argv(seed) + ["-o", str(work)], env, work,
                        timeout)
        path = work / wl.output
        if res is None or res["rc"] != 0 or not path.exists():
            n = record_count(wl)
            return {"ok": False, "attempted": n, "failed": n}
        res["ok"] = True
        res["output_bytes"] = path.stat().st_size
        res["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        if not (kept / res["sha256"]).exists():
            path.rename(kept / res["sha256"])
        return res
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_outputs(wl, seed, runs, kept):
    """Fill in attempted/failed of every successful repetition, checking
    each distinct output file once."""
    verdicts = {}
    for r in runs:
        if r["ok"]:
            if r["sha256"] not in verdicts:
                verdicts[r["sha256"]] = check_output(wl, seed,
                                                     kept / r["sha256"])
            r["attempted"], r["failed"] = verdicts[r["sha256"]]


def machine_info(nproc):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": nproc, "cpu": cpu, "ram_gb": round(ram / 2**30, 2),
            "system": " ".join(os.uname()[::2]),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "thread_caps": {cap: str(nproc) for cap in THREAD_CAPS}}


def median(values):
    return statistics.median(values) if values else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "shishkinfem" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'shishkinfem'} not found; run inside a "
              "checkout of the repository", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[layer]}
    counts = {k for k, unit in units.items() if unit in COUNT_UNITS}

    wl = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    # Warm-up import: byte-compiles src/ once, so setup_s is what every
    # later CLI start pays.
    run_child("setup", [], env, OUT, deadline - time.perf_counter())

    untraced = []
    traced = []
    kept = Path(tempfile.mkdtemp(prefix="outputs-", dir=OUT))
    try:
        end = time.perf_counter() + args.seconds
        if args.trace:
            untraced.append(repetition(wl, args.seed, "0", env, deadline,
                                       kept))
        reps = traced if args.trace else untraced
        mode = "1" if args.trace else "0"
        reps_end = min(end, deadline)
        while True:
            t_rep = time.perf_counter()
            reps.append(repetition(wl, args.seed, mode, env, deadline, kept))
            now = time.perf_counter()
            if not reps[-1]["ok"] or now + (now - t_rep) > reps_end:
                break
        setups = [] if args.trace else [r["setup_s"] for r in reps if r["ok"]]
        fills = 0
        while not args.trace and time.perf_counter() < deadline:
            t_setup = time.perf_counter()
            res = run_child("setup", [], env, OUT, deadline - t_setup)
            if res is None:
                break
            setups.append(res["setup_s"])
            fills += 1
            now = time.perf_counter()
            if fills >= SETUP_FILL_MIN and now + (now - t_setup) > end:
                break
        runs = untraced + traced
        check_outputs(wl, args.seed, runs, kept)
    finally:
        shutil.rmtree(kept, ignore_errors=True)

    ok = [r for r in runs if r["ok"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    identical = len({r["sha256"] for r in ok}) <= 1
    correct = len(ok) == len(runs) and failed == 0 and identical
    record = {"workload": wl.name, "seed": args.seed, "argv": wl.argv(args.seed),
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_info(nproc),
              "outputs_identical": identical}

    if args.trace:
        solves = sum(len(r.get("solves", ())) for r in traced)
        bad_solves = sum(r.get("failed_solves", 0) for r in traced)
        attempted += solves
        failed += bad_solves
        correct = correct and bad_solves == 0
        layers = [dict(r["layers"], **{"cli.output_bytes": r["output_bytes"]})
                  for r in traced if r["ok"]]
        metrics = {}
        unsteady = []
        for k in (layers[0] if layers else ()):
            vals = [m[k] for m in layers]
            if k in counts:
                unsteady += [k] if len(set(vals)) > 1 else []
                metrics[k] = vals[0]
            else:
                metrics[k] = median(vals)
        if unsteady:
            print(f"perfbench: counts {unsteady} differ between traced "
                  "repetitions", file=sys.stderr)
            correct = False
        record["unsteady_counts"] = unsteady
        walls = [r["wall_s"] for r in traced if r["ok"]]
        metrics["trace.wall_s"] = median(walls)
        metrics["trace.overhead_s"] = median(walls) - median(
            [r["wall_s"] for r in untraced if r["ok"]])
        metrics["trace.other_s"] = median(
            [r["wall_s"] - sum(r["layers"][k] for k in set(SELF_TIME.values()))
             for r in traced if r["ok"]])
        record["untraced_wall_s"] = [r["wall_s"] for r in untraced if r["ok"]]
        record["traced"] = [{k: r.get(k) for k in ("wall_s", "layers", "solves",
                                                   "spans")} for r in traced]
    else:
        correct = correct and fills >= SETUP_FILL_MIN
        metrics = {"wall_s": median([r["wall_s"] for r in ok]),
                   "setup_s": median(setups),
                   "peak_rss_mb": median([r["peak_rss_mb"] for r in ok])}
        record["samples"] = {"wall_s": [r["wall_s"] for r in ok],
                             "setup_s": setups,
                             "peak_rss_mb": [r["peak_rss_mb"] for r in ok]}

    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} differ "
              "from BENCHMARK.json", file=sys.stderr)
        correct = False
    record.update(correct=correct, attempted=attempted, failed=failed,
                  metrics=metrics)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(f"{wl.name} seed={args.seed} eps={','.join(wl.eps_args(args.seed))} "
          f"reps={len(reps)} fail_frac={failed / max(attempted, 1):.4g} "
          f"outputs_identical={identical} record=perfbench/out/{name}")
    if not args.trace:
        for k, v in record["samples"].items():
            print(f"  {k}: n={len(v)} " + " ".join(f"{x:.4f}" for x in v))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units.get(k, "")}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
