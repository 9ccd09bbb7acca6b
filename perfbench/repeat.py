"""Repeat benchmark runs over several seeds and summarise their spread.

Run from the repository root, for example:

    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/baselines/BENCH_1.json

Each (workload, seed) pair is one fresh ``perfbench/run.py`` process with
``run_seconds`` from BENCHMARK.json.  For every end-to-end metric it
prints the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread (q3 - q1) / median next to the metric's bound,
runs one traced run per workload at the first seed.  With ``--out`` it
writes all of it as a BENCH_<n>.json baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    rows, traced = [], {}
    for workload in args.workloads.split(","):
        runs = [run_once(spec, workload, s, 0) for s in seeds]
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows.append({
                "workload": workload, "name": m["name"], "unit": m["unit"],
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"],
                "values": values,
            })
            print(f"{workload:13s} {m['name']:13s} median {med:12.5g} {m['unit']:3s} "
                  f"spread {rows[-1]['spread']:.3f} (bound {m['bound']})", flush=True)
        traced[workload] = run_once(spec, workload, seeds[0], 1)
    if args.out:
        import numpy

        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "rows": rows,
            "per_layer": traced,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
