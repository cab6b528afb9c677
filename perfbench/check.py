"""Output check behind ``failed``: canonical records, reference comparison
and reference-free invariants.

Every operation's output becomes a flat *record*: dotted keys mapping to
scalars, plus one digest per per-node process. A digest holds the node
count, a checksum of the node ids, the exact sum, a node-weighted sum and
the largest magnitude, so a single value moved by more than about 1e-9
changes it beyond tolerance while the reference stays small.

Two checks run on every operation:

* on every seed, invariants that need no reference (exit code as expected,
  no traceback, ``duality_gap <= 1e-6`` where the pricing family is
  discovered, ``ftap_consistent``, parity bounds ``ok``, American value at
  least the European value, W* classified ``G_martingale``). The American
  upper bound (European value plus asset bubble) is not an invariant: the
  program reports it, and rare geometries violate it (see the acceptance
  suite's criterion 7); the reference still pins what it reports;
* where a reference was recorded for the seed (``reference/<workload>.json``),
  the record must match it: exit code, verdicts and diagnostics exactly or
  within 1e-9, process digests within 1e-9.

Hedge holdings and slacks, the dominance gain gap and the arbitrage witness
and its gain are left out of records: the LP optimum behind them is not
unique. The invariants still require a positive witness gain whenever an
arbitrage is reported.
"""
from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass
from typing import Any, Mapping

TOL = 1e-9
GAP_TOL = 1e-6
# The file path is the checkout's; the LP optimum behind the rest is not
# unique, and which optimal vertex HiGHS returns for the arbitrage search
# depends on what the process solved before.
EXCLUDED = {"inputs.file", "processes.hedge_pi", "processes.hedge_slack", "processes.gain_gap",
            "diagnostics.arbitrage_witness", "diagnostics.arbitrage_gain"}
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def _crc(words) -> int:
    return zlib.crc32("\n".join(words).encode())


def _weight(key: str) -> float:
    return 1.0 + (zlib.crc32(key.encode()) % 997) / 997.0


def digest(values: Mapping[str, float]) -> dict:
    keys = sorted(values)
    vals = [float(values[k]) for k in keys]
    return {
        "n": len(keys),
        "keys": _crc(keys),
        "sum": math.fsum(vals),
        "wsum": math.fsum(_weight(k) * v for k, v in zip(keys, vals)),
        "max": max((abs(v) for v in vals), default=0.0),
    }


def is_digest(val) -> bool:
    return isinstance(val, dict) and "wsum" in val


def flatten(prefix: str, obj: Any, out: dict) -> dict:
    """Nested maps become dotted keys; scalars and digests stay as values;
    lists of node ids become a count and a checksum."""
    if prefix in EXCLUDED:
        return out
    if is_digest(obj):
        out[prefix] = obj
    elif isinstance(obj, Mapping):
        for k, v in obj.items():
            flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else list(obj)
        if all(isinstance(v, str) for v in items):
            out[prefix] = {"n": len(items), "keys": _crc(items)}
        else:
            for i, v in enumerate(items):
                flatten(f"{prefix}.{i}", v, out)
    else:
        out[prefix] = obj
    return out


@dataclass
class CliResult:
    exit: int
    stdout: str
    stderr: str


def cli_record(res: CliResult) -> dict:
    """Exit code, traceback flag and the machine report; each per-node
    process becomes a digest."""
    rec = {"exit": res.exit, "traceback": "Traceback" in res.stderr}
    if res.stdout:
        doc = json.loads(res.stdout)
        if "arbitrage_gain" in doc["diagnostics"]:
            rec["arbitrage_gain_positive"] = doc["diagnostics"]["arbitrage_gain"] > 0.0
        doc["processes"] = {k: digest(v) for k, v in doc["processes"].items()}
        flatten("", doc, rec)
    return rec


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _same(got, ref) -> bool:
    if is_digest(ref):
        if not is_digest(got) or got["n"] != ref["n"] or got["keys"] != ref["keys"]:
            return False
        tol = TOL * max(1.0, ref["max"])
        return all(abs(got[k] - ref[k]) <= tol for k in ("sum", "wsum", "max"))
    if isinstance(ref, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and isinstance(ref, (int, float))
                and not isinstance(got, bool) and not isinstance(ref, bool)
                and _close(float(got), float(ref)))
    return got == ref


def compare(record: dict, ref: dict) -> list[str]:
    problems = []
    for key in sorted(set(record) | set(ref)):
        if key not in record:
            problems.append(f"missing {key}")
        elif key not in ref:
            problems.append(f"unexpected {key}")
        elif not _same(record[key], ref[key]):
            problems.append(f"{key}: {record[key]!r} != reference {ref[key]!r}")
    return problems


def load_reference(workload: str, seed: int) -> dict | None:
    """Reference records for this workload and seed, or None. A reference
    marked ``any_seed`` applies to every seed (its inputs ignore the seed)."""
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("any_seed") or doc.get("seed") == seed:
        return doc["records"]
    return None


class Checker:
    """Checks each operation as it completes and keeps the failure count."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[tuple[str, list[str]]] = []
        self._arbitrage: dict[str, bool] = {}

    def check(self, op, record: dict | None, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            problems = [f"raised: {error}"]
        else:
            problems = self.invariants(op, record)
            if self.reference is not None:
                ref = self.reference.get(op.label)
                problems += ["no reference record"] if ref is None else compare(record, ref)
        if problems:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append((op.label, problems))
        return not problems

    def invariants(self, op, rec: dict) -> list[str]:
        out = []
        meta = op.meta
        if meta.get("cli"):
            if rec["traceback"]:
                out.append("traceback on stderr")
            code = rec["exit"]
            cmd = op.kind
            if meta["style"] != "free":
                expected = {0}
            elif cmd == "analyze":
                expected = {0, 2}
                self._arbitrage[meta["file"]] = code == 2
            elif self._arbitrage.get(meta["file"]):
                expected = {2, 3} if cmd == "hedge" else {2}
            else:
                expected = {0}
            if code not in expected:
                out.append(f"exit {code}, expected one of {sorted(expected)}")
            if rec.get("verdicts.arbitrage") == "FOUND" and rec.get("arbitrage_gain_positive") is not True:
                out.append("arbitrage reported without a positive witness gain")
            if "verdicts.ftap_consistent" in rec and rec["verdicts.ftap_consistent"] is not True:
                out.append("ftap_consistent is not true")
            if cmd == "analyze" and code == 0 and "verdicts.ftap_consistent" not in rec:
                out.append("analyze report lacks ftap_consistent")
            # duality holds against the full supermartingale family, which the
            # CLI discovers only when the file gives no pricing family
            if (cmd == "hedge" and code == 0 and not meta["pricing_given"]
                    and not rec.get("verdicts.duality_gap", 1.0) <= GAP_TOL):
                out.append(f"duality_gap {rec.get('verdicts.duality_gap')} > {GAP_TOL}")
            if (cmd == "classify" and code == 0 and meta.get("process") == "Wstar"
                    and rec.get("verdicts.class") != "G_martingale"):
                out.append(f"W* classified {rec.get('verdicts.class')}, not G_martingale")
        elif op.kind == "parity" and rec.get("ok") is not True:
            out.append("parity bounds not ok")
        elif op.kind == "amer_bounds" and rec.get("lower_ok") is not True:
            out.append("American value below the European value")
        return out
