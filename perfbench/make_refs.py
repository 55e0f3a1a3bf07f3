"""Regenerate perfbench/refs/<workload>.json from the current src/.

    python3 perfbench/make_refs.py

It rewrites the references of every workload for seeds 0-20.  The stored
references were made with the code at the commit that added the
benchmark.  Regenerate them only when a change is meant to alter
results, and say so in that change.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

from pathlib import Path

from run import OUT, ROOT, child_env
from workloads import REFS, WORKLOADS, field_summary, read_csv_records, read_field

SEEDS = range(21)


def reference(wl, seed, env):
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="ref-", dir=OUT))
    try:
        subprocess.run([sys.executable, "-m", "shishkinfem.cli",
                        *wl.argv(seed), "-o", str(work)],
                       env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        path = work / wl.output
        if wl.mode == "field":
            _, ny, data = read_field(path)
            summary = field_summary(data[:, 2], ny)
            return {k: [float(f"{v:.12g}") for v in vals]
                    for k, vals in summary.items()}
        return {"records": read_csv_records(path)[0]}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    env = child_env(len(os.sched_getaffinity(0)))
    REFS.mkdir(exist_ok=True)
    for name, wl in sorted(WORKLOADS.items()):
        seeds = {}
        for seed in SEEDS:
            seeds[str(seed)] = {"argv": wl.argv(seed),
                                **reference(wl, seed, env)}
            print(name, seed, flush=True)
        lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                            for k, v in seeds.items())
        (REFS / f"{name}.json").write_text(
            f'{{"workload": "{name}", "seeds": {{\n{lines}\n}}}}\n')


if __name__ == "__main__":
    main()
