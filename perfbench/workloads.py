"""Seeded inputs, one program call per item, and the checks on its output.

Every size comes from ``config.json`` and is passed straight to the suite
function or CLI flag.  Program functions are looked up through their
module at call time (``suites.suite_bi``, ``racah.tensor_oracle``) so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from bi_lab import cli, racah, suites
from bi_lab.bi_operator import BIParams
from bi_lab.bi_poly import recurrence_coeffs
from bi_lab.errors import BILabError
from bi_lab.exact import rat_str

# Fields of `racah --format json` that are exact; the float overlaps and
# weights are left out of the digest.
RACAH_EXACT_FIELDS = ("identifications", "representation", "k1_spectrum",
                      "k3_diagonal", "grid")


@dataclass(frozen=True)
class Item:
    kind: str
    args: dict


@dataclass
class Outcome:
    """What an item produced: exit code, text output and report verdicts."""

    code: int
    text: str
    reports: list[tuple[bool, int]]


# ---------------------------------------------------------------------------
# inputs

def _seeds(rng: random.Random, n: int) -> list[int]:
    return [rng.randrange(2**31) for _ in range(n)]


def _draw_bi(rng: random.Random, nmax: int) -> dict:
    """BI parameters that pass the recurrence guards of ``poly`` up to nmax."""
    while True:
        p = [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(4)]
        P = BIParams(*p)
        try:
            for n in range(nmax + 1):
                recurrence_coeffs(P, n)
        except BILabError:
            continue
        return dict(zip(("rho1", "rho2", "r1", "r2"), map(rat_str, p)))


def _draw_racah(rng: random.Random, N: int) -> dict:
    """Positive mu_i (unitary representation) that pass the truncation and
    positivity guards of ``build_tridiag_rep`` and ``discrete_weights``."""
    while True:
        mu = [Fraction(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(3)]
        try:
            RP = racah.RacahParams.make(*mu, N)
            B = [racah.bk_dk(RP, k)[0] for k in range(N + 1)]
            D = [racah.bk_dk(RP, k)[1] for k in range(N + 1)]
            rc = [recurrence_coeffs(RP.identifications(), k) for k in range(N + 1)]
        except BILabError:
            continue
        if B[N] == 0 and rc[N].A == 0 and all(
            B[k - 1] * D[k] > 0 and rc[k - 1].A * rc[k].C > 0
            for k in range(1, N + 1)
        ):
            return {"mu": ",".join(map(rat_str, mu)), "N": N}


def build_items(workload: str, seed: int, config: dict) -> list[Item]:
    """The items of one pass, derived from the seed alone."""
    spec = config["workloads"][workload]
    rng = random.Random(seed)
    if workload == "verify-bi":
        return [Item("bi", {"seed": s, **spec["sizes"]})
                for s in _seeds(rng, spec["pass_items"])]
    if workload == "verify-dirac":
        return [Item("dirac", {"seed": s, **spec["sizes"]})
                for s in _seeds(rng, spec["pass_items"])]
    if workload == "tables":
        items = []
        for kind, sizes in spec["items"].items():
            for _ in range(sizes["count"]):
                if kind == "poly":
                    args = {**_draw_bi(rng, sizes["nmax"]), "nmax": sizes["nmax"]}
                elif kind in ("racah", "weights", "tensor_oracle",
                              "central_extension_check"):
                    args = _draw_racah(rng, sizes["N"])
                else:
                    args = {"seed": rng.randrange(2**31), "tuples": sizes["tuples"]}
                items.append(Item(kind, args))
        return items
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# execution

def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _racah_params(a: dict) -> "racah.RacahParams":
    mu = [Fraction(m) for m in a["mu"].split(",")]
    return racah.RacahParams.make(*mu, a["N"])


def call(item: Item):
    """Run one item; the raw result is turned into an Outcome by ``outcome``."""
    a = item.args
    if item.kind == "bi":
        return [suites.suite_bi(seed=a["seed"], tuples=a["tuples"], maxdeg=a["maxdeg"]),
                suites.suite_polynomials(seed=a["seed"], tuples=a["tuples"],
                                         nmax=a["nmax"])]
    if item.kind == "dirac":
        return [suites.suite_dirac(seed=a["seed"], tuples=a["tuples"],
                                   maxdeg=a["maxdeg"])]
    if item.kind == "poly":
        return _cli(["poly", f"--rho1={a['rho1']}", f"--rho2={a['rho2']}",
                     f"--r1={a['r1']}", f"--r2={a['r2']}",
                     "--nmax", str(a["nmax"]), "--format", "json"])
    if item.kind in ("racah", "weights"):
        return _cli([item.kind, "--mu", a["mu"], "--N", str(a["N"]),
                     "--format", "json"])
    if item.kind in ("verify-racah", "verify-sl1"):
        return _cli(["verify", "--scope", item.kind.split("-")[1],
                     "--seed", str(a["seed"]), "--tuples", str(a["tuples"]),
                     "--format", "json"])
    if item.kind == "tensor_oracle":
        RP = _racah_params(a)
        return [racah.tensor_oracle(RP, RP.N)]
    if item.kind == "central_extension_check":
        RP = _racah_params(a)
        return [racah.central_extension_check(RP, RP.N)]
    raise ValueError(f"unknown item kind {item.kind!r}")


def outcome(raw) -> Outcome:
    if isinstance(raw, tuple):
        code, text = raw
        return Outcome(code, text, [])
    return Outcome(0, "\n".join(json.dumps(r.to_json(), sort_keys=True) for r in raw),
                   [(r.passed, r.checked) for r in raw])


# ---------------------------------------------------------------------------
# checks

def check(item: Item, out: Outcome) -> str | None:
    """Reason the item failed, or None.  Zero recorded checks is a failure."""
    if out.code != 0:
        return f"exit code {out.code}"
    for passed, checked in out.reports:
        if checked == 0:
            return "report recorded zero checks"
        if not passed:
            return "report did not pass"
    if out.reports:
        return None
    payload = json.loads(out.text)
    a = item.args
    if item.kind == "poly":
        if len(payload) != a["nmax"] + 1:
            return f"{len(payload)} rows for nmax {a['nmax']}"
    elif item.kind == "weights":
        if len(payload) != a["N"] + 1:
            return f"{len(payload)} rows for N {a['N']}"
    elif item.kind == "racah":
        if not payload["spectra_check"] or len(payload["grid"]) != a["N"] + 1:
            return "racah spectra check failed or wrong size"
    else:  # verify-racah / verify-sl1
        if not payload["pass"] or payload["checked"] == 0:
            return "verify report failed or recorded zero checks"
        size = f"({a['tuples']} tuples"
        if not all(size in e["check"] for e in payload["entries"]):
            return f"suite did not run the requested {size}"
    return None


def digest(item: Item, out: Outcome) -> str | None:
    """Short hash of the exact fields of a table, or None if it has none."""
    if item.kind == "poly":
        exact = json.loads(out.text)
    elif item.kind == "racah":
        payload = json.loads(out.text)
        exact = {k: payload[k] for k in RACAH_EXACT_FIELDS}
    else:
        return None
    blob = json.dumps(exact, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def pass_digest(digests: list[str | None]) -> str:
    return hashlib.sha256(
        "\n".join(d or "-" for d in digests).encode()
    ).hexdigest()[:16]
