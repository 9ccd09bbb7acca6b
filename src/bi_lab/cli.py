"""Command-line frontend: tables, verification suites, JSON/CSV export.

Exit codes: 0 success, 1 verification failure, 2 invalid input.
Rational parameters are parsed only as "p/q" or integer literals; JSON
output is emitted with sorted keys and fixed separators so fixed flags
(and seed) give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .bi_operator import BIParams
from .bi_poly import (
    bi_recurrence,
    discrete_weights_exact,
    eigenvalue,
    grid_point,
    recurrence_coeffs,
    recurrence_steps,
)
from .errors import BILabError
from .exact import rat_parse, rat_str
from .racah import (
    RacahParams,
    build_tridiag_rep,
    k1_spectrum_check,
    racah_overlaps,
    representation_check,
    spectrum_value,
)
from .dunkl_dirac import DiracParams, dirac_checks
from .report import VerificationReport
from .suites import DEFAULT_SEED, SCOPES, run_scope

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _emit_csv(rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _emit_pretty(rows: list[dict]) -> None:
    cols = list(rows[0])
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))


def _emit(rows: list[dict], fmt: str) -> None:
    {"json": _emit_json, "csv": _emit_csv, "pretty": _emit_pretty}[fmt](rows)


# Flags that take a p/q value; "-1/2" after one of them is its value.
RATIONAL_FLAGS = ("--rho1", "--rho2", "--r1", "--r2", "--mu")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite "--rho1 -1/2" as "--rho1=-1/2": argparse takes a token that
    starts with "-" and is not a plain number for an option, not a value."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in RATIONAL_FLAGS and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parse_mu_list(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise BILabError(f"--mu expects three comma-separated rationals, got {text!r}")
    return [rat_parse(p) for p in parts]


def _require_at_least(flag: str, value: int | None, low: int) -> None:
    """Reject a size flag below ``low``: it would run zero checks or rows."""
    if value is not None and value < low:
        raise BILabError(f"{flag} must be at least {low}, got {value}")


def _add_format(parser: argparse.ArgumentParser,
                choices=("json", "csv", "pretty")) -> None:
    parser.add_argument("--format", choices=choices, default="pretty")


def cmd_poly(args) -> int:
    _require_at_least("--nmax", args.nmax, 0)
    P = BIParams(
        rat_parse(args.rho1), rat_parse(args.rho2),
        rat_parse(args.r1), rat_parse(args.r2),
    )
    coeffs = [recurrence_coeffs(P, n) for n in range(args.nmax + 1)]
    polys = bi_recurrence(recurrence_steps(P, coeffs[:-1]))
    rows = [
        {"n": n, "lambda": rat_str(eigenvalue(P, n)), "A": rat_str(rc.A),
         "C": rat_str(rc.C), "coeffs": " ".join(bn.to_json())}
        for n, (rc, bn) in enumerate(zip(coeffs, polys))
    ]
    _emit(rows, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    _require_at_least("--tuples", args.tuples, 1)
    _require_at_least("--maxdeg", args.maxdeg, 0)
    report = run_scope(
        args.scope, seed=args.seed, tuples=args.tuples, maxdeg=args.maxdeg
    )
    if args.format == "json":
        _emit_json(report.to_json())
    else:
        for entry in report.entries:
            status = "pass" if entry.ok else "FAIL"
            print(f"[{status}] {entry.check}" +
                  (f" -- {entry.detail}" if entry.detail else ""))
        # The entries above carry every failure's detail; the last line
        # gives the verdict only.
        print(report.verdict)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_racah(args) -> int:
    RP = RacahParams.make(*_parse_mu_list(args.mu), args.N)
    rep = build_tridiag_rep(RP)
    relations = representation_check(rep)
    P = RP.identifications()
    coeffs = [recurrence_coeffs(P, k) for k in range(RP.N + 1)]
    spectra = k1_spectrum_check(rep, recurrence_steps(P, coeffs))
    if args.format == "json":
        weights = discrete_weights_exact(P, coeffs)  # pairs (x_s, w_s)
        c = RP.mu2 + RP.mu3
        _emit_json({
            "params": {
                "mu": [rat_str(m) for m in (RP.mu1, RP.mu2, RP.mu3)],
                "N": RP.N,
                "mu4": rat_str(RP.mu4),
            },
            "identifications": P.to_json(),
            "representation": rep.to_json(),
            "k1_spectrum": [rat_str(spectrum_value(s, c)) for s in range(RP.N + 1)],
            "k3_diagonal": [rat_str(rep.K3[k][k]) for k in range(RP.N + 1)],
            "grid": [rat_str(x) for x, _ in weights],
            "overlaps": [[rat_str(x) for x in row] for row in racah_overlaps(rep)],
            "weights": [
                {"s": s, "x": rat_str(x), "w": rat_str(w)}
                for s, (x, w) in enumerate(weights)
            ],
            "spectra_check": spectra.passed,
        })
    else:
        rows = [
            {"k": k, "V_k": rat_str(rep.K1[k][k]),
             "K3_kk": rat_str(rep.K3[k][k]),
             "x_k": rat_str(grid_point(P, k))}
            for k in range(RP.N + 1)
        ]
        _emit(rows, args.format)
    return EXIT_OK if relations.passed and spectra.passed else EXIT_VERIFY_FAILED


def cmd_dirac(args) -> int:
    _require_at_least("--maxdeg", args.maxdeg, 0)
    DP = DiracParams.make(*_parse_mu_list(args.mu))
    merged = VerificationReport(f"dirac (mu={args.mu}, maxdeg={args.maxdeg})")
    for sub in dirac_checks(DP, args.maxdeg):
        merged.merge(sub)
    if args.format == "json":
        _emit_json(merged.to_json())
    else:
        for entry in merged.entries:
            status = "pass" if entry.ok else "FAIL"
            print(f"[{status}] {entry.check} @ degree {entry.index}")
        print(merged.summary())
    return EXIT_OK if merged.passed else EXIT_VERIFY_FAILED


def cmd_weights(args) -> int:
    RP = RacahParams.make(*_parse_mu_list(args.mu), args.N)
    P = RP.identifications()
    coeffs = [recurrence_coeffs(P, k) for k in range(RP.N + 1)]
    rows = [
        {"s": s, "x_s": rat_str(x), "weight": rat_str(w)}
        for s, (x, w) in enumerate(discrete_weights_exact(P, coeffs))
    ]
    _emit(rows, args.format)
    return EXIT_OK


@functools.cache  # built once per process, on the first call of main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bi-lab",
        description="Exact Bannai-Ito algebra toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="Bannai-Ito polynomial tables")
    for flag in RATIONAL_FLAGS[:4]:
        p.add_argument(flag, required=True)
    p.add_argument("--nmax", type=int, default=6)
    _add_format(p)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument("--scope", choices=[*SCOPES, "all"], default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--maxdeg", type=int, default=None)
    p.add_argument("--tuples", type=int, default=None)
    _add_format(p, ("json", "pretty"))  # a report has no csv form

    p = sub.add_parser("racah", help="exact Racah representation and overlaps")
    p.add_argument("--mu", required=True, help="mu1,mu2,mu3 as p/q")
    p.add_argument("--N", type=int, required=True)
    _add_format(p)

    p = sub.add_parser("dirac", help="Dunkl-Dirac exact identity report")
    p.add_argument("--mu", required=True, help="mu1,mu2,mu3 as p/q")
    p.add_argument("--maxdeg", type=int, default=4)
    _add_format(p, ("json", "pretty"))

    p = sub.add_parser("weights", help="exact finite orthogonality weights on the grid x_s")
    p.add_argument("--mu", required=True, help="mu1,mu2,mu3 as p/q")
    p.add_argument("--N", type=int, required=True)
    _add_format(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv))
    # The handler is looked up by name on each call, not stored in the
    # cached parser, so a rebound cmd_* (as a tracer installs) is called.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except BILabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
