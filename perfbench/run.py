"""bi-lab benchmark: one workload per run, timed end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload verify-bi --seed 1 --seconds 30 --trace 0

Workloads, sizes and the loop model are in ``perfbench/config.json``.
``--trace 0`` repeats closed-loop passes over the seeded items while the
next pass fits in ``--seconds`` and reports the end-to-end metrics.  Their
times are wall times scaled to a reference host speed: a fixed stdlib
Fraction loop is timed before and after every timed region, and the
region's wall time is multiplied by REFERENCE_S over the loop's mean time.
On a shared 2-core VM the host's speed drifted by up to 2x over minutes;
scaled, the same work read the same to within a few percent.
``--trace 1`` runs a fixed subset of the items once untraced and once
traced, so call counts repeat exactly, and reports the per-layer metrics;
its spans are written to ``perfbench/out/``.  Every item's output is
checked.  The last stdout line is the JSON result; the exit code is 1 when
any check fails and 2 when the program's sources are missing.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported here or in a child process.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CONFIG = json.loads((HERE / "config.json").read_text())

# What reference() takes at the host speed all end-to-end times are scaled to.
REFERENCE_S = 0.01

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def prepare(args):
    """Import the program from source and build the items: the set-up."""
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads, workloads.build_items(args.workload, args.seed, CONFIG)


def reference() -> float:
    """Wall time of a fixed stdlib Fraction loop: a probe of the host's
    momentary speed that no change to bi_lab can alter."""
    t0 = time.perf_counter()
    acc, x = Fraction(0), Fraction(3, 7)
    for i in range(1, 1500):
        acc = acc * x + Fraction(1, i)
        if acc.denominator > 10**40:
            acc = Fraction(acc.numerator % 997, acc.denominator % 991 + 1)
    return time.perf_counter() - t0


def scaled(wall: float, ref_before: float, ref_after: float) -> float:
    """Wall time scaled to the reference speed (reference() == REFERENCE_S)."""
    return wall * REFERENCE_S / ((ref_before + ref_after) / 2)


def measure_setup(args) -> list[float]:
    """Set-up time of fresh processes, from spawn until the inputs are ready.

    The first probe compiles bytecode and is discarded.  perf_counter is
    CLOCK_MONOTONIC, so the child's timestamp is comparable with ours.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--probe"]
    samples = []
    ref = reference()
    for i in range(CONFIG["setup_probes"] + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        wall = float(proc.stdout.split()[-1]) - t0
        ref_after = reference()
        if i:
            samples.append(scaled(wall, ref, ref_after))
        ref = ref_after
    return samples


def one_pass(wl, items, tracer=None, calibrate=False):
    """Run every item once, one after another; exceptions count as failures.

    Returns the pass's wall time, the item times and the raw results.  With
    ``calibrate`` each item time is scaled to the reference speed by the
    reference loops run just before and just after it.
    """
    times, raws = [], []
    ref = reference() if calibrate else None
    start = time.perf_counter()
    for i, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            raw = tracer.item(i, wl.call, item) if tracer else wl.call(item)
        except Exception:  # an item that raises is a failed item, not a crash
            raw = traceback.format_exc()
        dt = time.perf_counter() - t0
        if calibrate:
            ref_after = reference()
            dt, ref = scaled(dt, ref, ref_after), ref_after
        times.append(dt)
        raws.append(raw)
    return time.perf_counter() - start, times, raws


def verify_pass(wl, items, raws, tracer=None):
    """Check each output; returns (failed count, outcomes, per-item digests)."""
    failed, outs, digests = 0, [], []
    for i, (item, raw) in enumerate(zip(items, raws)):
        if isinstance(raw, str):
            reason, out = "raised:\n" + raw, None
        else:
            out = wl.outcome(raw)
            try:
                reason = wl.check(item, out)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
        digests.append(wl.digest(item, out) if out and not reason else None)
        if tracer is not None and out is not None and not out.reports:
            tracer.counts["cli.json_bytes"] += len(out.text.encode())
        if reason:
            failed += 1
            print(f"item {i} ({item.kind} {item.args}) failed: {reason}", file=sys.stderr)
        outs.append(out)
    return failed, outs, digests


def check_digests(args, wl, items, digests) -> int:
    """Compare with the digests shipped for this seed, or print them."""

    if not any(digests):
        return 0
    wl_digests = CONFIG["digests"].get(args.workload, {})
    shipped = wl_digests.get(str(args.seed))
    if shipped is None:
        print(f"digests {args.workload} seed={args.seed}: pass "
              f"{wl.pass_digest(digests)} items {json.dumps(digests)}")
        return 0
    bad = [i for i, (got, want) in enumerate(zip(digests, shipped)) if got != want]
    bad += list(range(len(shipped), len(digests)))
    for i in bad:
        print(f"item {i} ({items[i].kind}) digest {digests[i]} != shipped {shipped[i] if i < len(shipped) else None}",
              file=sys.stderr)
    print(f"digests {args.workload} seed={args.seed}: "
          f"{'match' if not bad else f'{len(bad)} MISMATCH'}")
    return len(bad)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that
    percentile; below 20 samples, the slowest sample (percentile 100)."""
    s = sorted(samples)
    if len(s) < 20:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def run_timed(args, wl, items, setup):
    """Closed-loop passes for --seconds; the end-to-end metrics.

    An item's time is the median of its runs, so the percentiles are taken
    over a fixed number of items however many passes fit.
    """
    pass_times, walls = [], []
    runs: list[list[float]] = [[] for _ in items]
    failed = attempted = 0
    first_digests = None
    start = time.perf_counter()
    while True:
        wall, times, raws = one_pass(wl, items, calibrate=True)
        walls.append(wall)
        pass_times.append(sum(times))
        for r, t in zip(runs, times):
            r.append(t)
        attempted += len(items)
        n_failed, _, digests = verify_pass(wl, items, raws)
        failed += n_failed
        if first_digests is None:
            first_digests = digests
            failed += check_digests(args, wl, items, digests)
        elif digests != first_digests:
            print("outputs differ between passes", file=sys.stderr)
            failed += sum(a != b for a, b in zip(digests, first_digests))
        if time.perf_counter() - start + wall > args.seconds:
            break
    item_times = [statistics.median(r) for r in runs]
    tail_ms, tail_pct = tail(item_times)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(pass_times),
        "item_ms_p50": 1000 * statistics.median(item_times),
        "item_ms_tail": 1000 * tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{args.workload} seed={args.seed}: {len(walls)} passes of {len(items)} "
          f"items, unscaled wall time per pass {statistics.median(walls):.3f} s; "
          f"setup_s is the median of {len(setup)} fresh processes; item_ms_tail "
          f"is p{tail_pct:.1f} of {len(items)} items; "
          f"fail_ratio {failed / attempted:.4g} ({failed}/{attempted})")
    return metrics, E2E_UNITS, attempted, failed


def run_traced(args, wl, items):
    """The trace subset untraced then traced; the per-layer metrics."""
    from tracer import Tracer, metric_unit

    spec = CONFIG["workloads"][args.workload]
    subset = items[:spec.get("trace_items", len(items))]
    # Reference loops run only between passes: inside the traced pass the
    # tracer would count their Fraction operators.
    refs = [reference()]
    plain_s, _, plain_raws = one_pass(wl, subset)
    refs.append(reference())
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, _, traced_raws = one_pass(wl, subset, tracer)
    finally:
        tracer.uninstall()
    refs.append(reference())
    failed_plain, plain_outs, digests = verify_pass(wl, subset, plain_raws)
    failed_traced, traced_outs, _ = verify_pass(wl, subset, traced_raws, tracer)
    failed = failed_plain + failed_traced
    for i, (a, b) in enumerate(zip(plain_outs, traced_outs)):
        if a is not None and b is not None and a.text != b.text:
            print(f"item {i}: traced output differs from untraced", file=sys.stderr)
            failed += 1
    if len(subset) == len(items):
        failed += check_digests(args, wl, items, digests)
    metrics = tracer.metrics(scaled(traced_s, refs[1], refs[2])
                             - scaled(plain_s, refs[0], refs[1]))
    tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.npz")
    units = {name: metric_unit(name) for name in metrics}
    print(f"{args.workload} seed={args.seed}: traced {len(subset)} items, "
          f"{len(tracer.span_name)} spans; unscaled wall time untraced {plain_s:.3f} s, "
          f"traced {traced_s:.3f} s")
    return metrics, units, 2 * len(subset), failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bi_lab" / "__init__.py").is_file():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        prepare(args)
        print(repr(time.perf_counter()))
        return 0
    setup = [] if args.trace else measure_setup(args)
    wl, items = prepare(args)
    if args.trace:
        metrics, units, attempted, failed = run_traced(args, wl, items)
    else:
        metrics, units, attempted, failed = run_timed(args, wl, items, setup)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
