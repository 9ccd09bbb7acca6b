"""Span tracer that wraps public bi_lab functions from outside the package.

Every traced boundary records a span (name, start, end, parent span, item
id) in flat in-memory arrays; nothing is aggregated while the program runs.
Self time is computed afterwards as a span's duration minus the time its
direct child spans cover.  Fraction operators and report records are
counted only: a span per call would cost more than the work it measures.

Wrappers are installed wherever callers look a name up: the defining
module, every bi_lab module that imported the name (``suites`` imports
``check_bi_relations``, ``bi_poly`` imports ``k1_apply``), and module-level
dicts of tuples such as ``suites.SCOPES``.  ``uninstall`` restores every
binding, so traced and untraced passes run in one process.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np

# (module, qualified name, leaf).  A leaf calls no other traced function,
# so its total equals its self time and only calls and self_s are reported.
TARGETS = [
    ("exact", "GRat.__mul__", True),
    ("exact", "GRat.scale", True),
    ("exact", "GRat.__add__", True),
    ("poly", "Poly.__mul__", True),
    ("poly", "Poly.__add__", True),
    ("poly", "Poly.__sub__", True),
    ("poly", "poly_reflect", True),
    ("poly", "poly_shift_reflect", False),
    ("poly", "poly_divide_exact", True),
    ("bi_operator", "k1_apply", False),
    ("bi_operator", "check_bi_relations", False),
    ("bi_operator", "casimir_scalar", False),
    ("bi_poly", "bi_recurrence", False),
    ("bi_poly", "bi_hypergeometric", False),
    ("bi_poly", "bi_from_operator", False),
    ("bi_poly", "discrete_weights", True),
    ("bi_poly", "discrete_weights_exact", False),
    ("sl1", "module_bilinear_check", True),
    ("sl1", "osp_casimir_check", True),
    ("sl1", "dunkl_commutator_check", False),
    ("racah", "build_tridiag_rep", False),
    ("racah", "mat_mul", True),
    ("racah", "racah_overlaps", False),
    ("racah", "tensor_slice", True),
    ("racah", "tensor_oracle", False),
    ("racah", "central_extension_check", False),
    ("dunkl_dirac", "dunkl_partial", False),
    ("dunkl_dirac", "angular_momentum", False),
    ("dunkl_dirac", "reflect", True),
    ("dunkl_dirac", "gamma_apply", False),
    ("dunkl_dirac", "Poly3.__add__", False),
    ("dunkl_dirac", "Poly3.scale", False),
    ("dunkl_dirac", "jj_commutator_check", False),
    ("dunkl_dirac", "gamma_square_identity", False),
    ("dunkl_dirac", "symmetry_check", False),
    ("suites", "suite_bi", False),
    ("suites", "suite_polynomials", False),
    ("suites", "suite_sl1", False),
    ("suites", "suite_racah", False),
    ("suites", "suite_dirac", False),
    ("suites", "random_bi_params_regular", False),
    ("cli", "cmd_poly", False),
    ("cli", "cmd_racah", False),
    ("cli", "cmd_weights", False),
]

# Counter name -> Fraction operators it counts (reflected ones included).
FRACTION_OPS = {
    "exact.rat_mul": ("__mul__", "__rmul__"),
    "exact.rat_add": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "exact.rat_div": ("__truediv__", "__rtruediv__"),
}
RECORD_COUNTER = "report.VerificationReport.record"
ITEM_SPAN = "bench.item"


def metric_names() -> list[str]:
    """Every per-layer metric the tracer reports, in a fixed order."""
    names = [f"{c}.calls" for c in FRACTION_OPS]
    for mod, qual, leaf in TARGETS:
        base = f"{mod}.{qual}"
        names += [f"{base}.calls", f"{base}.self_s"] if leaf else \
            [f"{base}.calls", f"{base}.total_s", f"{base}.self_s"]
    names += ["cli.json_bytes", f"{RECORD_COUNTER}.calls", "trace.overhead_s"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    return "bytes" if name == "cli.json_bytes" else "s"


def _resolve(owner, qual: str):
    """(object holding the last attribute, attribute name) for a dotted name."""
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans for TARGETS and counts Fraction ops and report records.

    ``clock`` is injectable so the self-time arithmetic can be checked
    against a synthetic clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = [ITEM_SPAN] + [f"{m}.{q}" for m, q, _ in TARGETS]
        self.span_name = array("i")
        self.span_item = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = {name: 0 for name in FRACTION_OPS}
        self.counts[RECORD_COUNTER] = 0
        self.counts["cli.json_bytes"] = 0
        self._stack = [-1]
        self._item = [0]
        self._undo: list[tuple[object, object, object, bool]] = []

    # -- span recording --------------------------------------------------

    def _wrap(self, fn, name_id: int):
        clock = self.clock
        stack, item = self._stack, self._item
        names, items, parents = self.span_name, self.span_item, self.span_parent
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            items.append(item[0])
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        # __wrapped__ keeps inspect.signature (used by suites._accepted)
        # seeing the original parameters.
        return functools.update_wrapper(traced, fn)

    def item(self, item_id: int, fn, *args):
        """Run one benchmark item under a root span tagged with its id."""
        self._item[0] = item_id
        return self._wrap(fn, 0)(*args)

    def _counter(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------

    def _set(self, owner, key, value, is_item: bool) -> None:
        old = owner[key] if is_item else getattr(owner, key)
        self._undo.append((owner, key, old, is_item))
        if is_item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def _rebind(self, orig, wrapped) -> None:
        """Point every bi_lab binding of ``orig`` at ``wrapped``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bi_lab" or mod_name.startswith("bi_lab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapped, False)
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        if isinstance(dval, tuple) and any(v is orig for v in dval):
                            self._set(value, dkey, tuple(
                                wrapped if v is orig else v for v in dval
                            ), True)

    def install(self) -> None:
        for i, (mod_name, qual, _) in enumerate(TARGETS, start=1):
            mod = importlib.import_module(f"bi_lab.{mod_name}")
            owner, attr = _resolve(mod, qual)
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, i)
            if "." in qual:
                self._set(owner, attr, wrapped, False)
            else:
                self._rebind(orig, wrapped)
        report = importlib.import_module("bi_lab.report")
        self._set(report.VerificationReport, "record", self._counter(
            report.VerificationReport.record, RECORD_COUNTER), False)
        for key, ops in FRACTION_OPS.items():
            for op in ops:
                self._set(Fraction, op, self._counter(getattr(Fraction, op), key), False)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old, is_item = self._undo.pop()
            if is_item:
                owner[key] = old
            else:
                setattr(owner, key, old)

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "item": np.frombuffer(self.span_item, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-name calls, total time and self time from the recorded spans."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        calls = np.bincount(a["name"], minlength=n_names)
        total = np.bincount(a["name"], weights=dur, minlength=n_names)
        own = np.bincount(a["name"], weights=self_time, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def metrics(self, overhead_s: float) -> dict[str, float]:
        agg = self.aggregate()
        out: dict[str, float] = {}
        for key in FRACTION_OPS:
            out[f"{key}.calls"] = self.counts[key]
        for mod, qual, leaf in TARGETS:
            row = agg[f"{mod}.{qual}"]
            out[f"{mod}.{qual}.calls"] = row["calls"]
            if not leaf:
                out[f"{mod}.{qual}.total_s"] = row["total_s"]
            out[f"{mod}.{qual}.self_s"] = row["self_s"]
        out["cli.json_bytes"] = self.counts["cli.json_bytes"]
        out[f"{RECORD_COUNTER}.calls"] = self.counts[RECORD_COUNTER]
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path: Path) -> None:
        """Write every span, with the name table, as one compressed .npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
