"""Self-test of the benchmark itself (not of bi_lab).

Run from the repository root:

    python3 perfbench/selftest/selftest.py

It checks the self-time arithmetic on a synthetic nested call with a fake
clock, that the tracer's wrappers reach names imported into other modules
and are removed again, that traced and untraced passes give byte-identical
report JSON and CLI output on small items of every workload, that call
counts repeat exactly, that each workload touches only its layers, and
that BENCHMARK.json names exactly the metrics the benchmark prints.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402  (pins BLAS threads before numpy is imported)
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, metric_names, metric_unit  # noqa: E402

SMALL = {"workloads": {
    "verify-bi": {"pass_items": 2, "sizes": {"tuples": 1, "maxdeg": 4, "nmax": 4}},
    "verify-dirac": {"pass_items": 1, "sizes": {"tuples": 1, "maxdeg": 2}},
    "tables": {"items": {
        "poly": {"count": 1, "nmax": 8},
        "racah": {"count": 1, "N": 4},
        "weights": {"count": 1, "N": 4},
        "verify-racah": {"count": 1, "tuples": 2},
        "verify-sl1": {"count": 1, "tuples": 2},
        "tensor_oracle": {"count": 1, "N": 2},
        "central_extension_check": {"count": 1, "N": 2},
    }},
}}


class SelfTestFailure(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SelfTestFailure(msg)


def check_self_time() -> None:
    """outer [0,10] holds mid [1,7], which holds leaf [2,5]; a second leaf
    [8,9] sits directly in outer.  Self time subtracts direct children only."""
    ticks = iter([0.0, 1.0, 2.0, 5.0, 7.0, 8.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer._wrap(lambda: None, 1)
    mid = tracer._wrap(lambda: leaf(), 2)
    outer = tracer._wrap(lambda: (mid(), leaf()), 3)
    outer()
    agg = tracer.aggregate()
    got = {i: agg[tracer.names[i]] for i in (1, 2, 3)}
    want = {1: (2, 4.0, 4.0), 2: (1, 6.0, 3.0), 3: (1, 10.0, 3.0)}
    for i, (calls, total, own) in want.items():
        row = got[i]
        expect((row["calls"], row["total_s"], row["self_s"]) == (calls, total, own),
               f"span {i}: got {row}, want calls={calls} total={total} self={own}")
    parents = list(tracer.span_parent)
    expect(parents == [-1, 0, 1, 0], f"parent links {parents}")


def check_install_reaches_imported_names() -> None:
    from bi_lab import bi_operator, bi_poly, suites

    originals = (bi_operator.k1_apply, suites.check_bi_relations,
                 suites.SCOPES["bi"], Fraction.__mul__, Fraction.__rtruediv__)
    tracer = Tracer()
    tracer.install()
    try:
        expect(bi_poly.k1_apply is bi_operator.k1_apply
               and bi_poly.k1_apply is not originals[0],
               "k1_apply imported into bi_poly is not wrapped")
        expect(suites.check_bi_relations is not originals[1],
               "check_bi_relations imported into suites is not wrapped")
        expect(suites.SCOPES["bi"][0] is suites.suite_bi,
               "suites.SCOPES still holds the unwrapped suite_bi")
        suites.run_scope("bi", seed=1, tuples=1, maxdeg=2)
        agg = tracer.aggregate()
        expect(agg["suites.suite_bi"]["calls"] == 1, "run_scope bypassed suite_bi")
        expect(agg["bi_operator.check_bi_relations"]["calls"] == 1,
               "suite_bi bypassed check_bi_relations")
        expect(agg["bi_operator.k1_apply"]["calls"] > 0, "k1_apply not traced")
        expect(tracer.counts["exact.rat_mul"] > 0, "Fraction multiply not counted")
    finally:
        tracer.uninstall()
    restored = (bi_operator.k1_apply, suites.check_bi_relations,
                suites.SCOPES["bi"], Fraction.__mul__, Fraction.__rtruediv__)
    expect(all(a is b for a, b in zip(originals, restored)),
           "uninstall left a wrapper in place")


def _traced_pass(items):
    tracer = Tracer()
    tracer.install()
    try:
        _, _, raws = run.one_pass(workloads, items, tracer)
    finally:
        tracer.uninstall()
    failed, outs, _ = run.verify_pass(workloads, items, raws, tracer)
    return failed, outs, tracer.metrics(0.0)


def check_workloads() -> None:
    """Traced output equals untraced output; counts repeat; layers isolate."""
    counts = {}
    for wl in ("verify-bi", "verify-dirac", "tables"):
        items = workloads.build_items(wl, 7, SMALL)
        expect(items == workloads.build_items(wl, 7, SMALL),
               f"{wl}: the same seed gave different inputs")
        _, _, raws = run.one_pass(workloads, items)
        failed, plain, _ = run.verify_pass(workloads, items, raws)
        expect(failed == 0, f"{wl}: untraced pass failed")
        failed, traced, metrics = _traced_pass(items)
        expect(failed == 0, f"{wl}: traced pass failed")
        for a, b in zip(plain, traced):
            expect(a.text.encode() == b.text.encode(),
                   f"{wl}: traced output differs from untraced")
        _, _, again = _traced_pass(items)
        calls = {k: v for k, v in metrics.items()
                 if k.endswith(".calls") or k == "cli.json_bytes"}
        expect(calls == {k: again[k] for k in calls},
               f"{wl}: call counts differ between two traced passes")
        counts[wl] = calls
    for wl in ("verify-bi", "tables"):
        dirac = [k for k, v in counts[wl].items()
                 if k.startswith("dunkl_dirac.") and v]
        expect(not dirac, f"{wl} calls dunkl_dirac: {dirac}")
    for name in ("bi_operator.k1_apply.calls", "poly.Poly.__mul__.calls"):
        expect(counts["verify-dirac"][name] == 0, f"verify-dirac calls {name}")
    expect(counts["tables"]["racah.mat_mul.calls"] > 0, "tables never calls mat_mul")
    for wl in ("verify-bi", "verify-dirac"):
        expect(counts[wl]["racah.mat_mul.calls"] == 0, f"{wl} calls mat_mul")


def check_failures_are_caught() -> None:
    """Zero checks, a failed report and a non-zero exit all fail an item."""
    item = workloads.Item("dirac", {})
    for out in (workloads.Outcome(0, "", [(True, 0)]),
                workloads.Outcome(0, "", [(False, 3)]),
                workloads.Outcome(2, "", [])):
        expect(workloads.check(item, out) is not None, f"{out} passed the check")
    item = workloads.Item("verify-sl1", {"tuples": 4})
    text = json.dumps({"pass": True, "checked": 1,
                       "entries": [{"check": "sl_(-1)(2) suite (10 tuples)"}]})
    expect(workloads.check(item, workloads.Outcome(0, text, [])) is not None,
           "a suite that ran another tuple count passed the check")


def check_tail() -> None:
    expect(run.tail([float(i) for i in range(30)]) == (19.0, 100 * 20 / 30),
           "tail of 30 samples is not the 20th value")
    expect(run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0), "tail below 20 samples")


def check_benchmark_json() -> None:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(e2e == run.E2E_UNITS, f"end_to_end metrics {e2e} != {run.E2E_UNITS}")
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expect(layers == [(n, metric_unit(n)) for n in metric_names()],
           "per_layer metrics or units differ from the tracer's")
    expect({w["name"] for w in spec["workloads"]} == set(run.CONFIG["workloads"]),
           "workload names differ from config.json")
    expect(len(TARGETS) == len({(m, q) for m, q, _ in TARGETS}), "duplicate target")


CHECKS = [check_self_time, check_install_reaches_imported_names, check_workloads,
          check_failures_are_caught, check_tail, check_benchmark_json]


def main() -> int:
    for fn in CHECKS:
        try:
            fn()
        except SelfTestFailure as exc:
            print(f"FAIL {fn.__name__}: {exc}")
            return 1
        print(f"ok   {fn.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
