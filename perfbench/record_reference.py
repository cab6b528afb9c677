"""Record the reference outputs the benchmark's output check compares with.

    python3 perfbench/record_reference.py [workload ...]

Runs two passes of each workload at the default seed, requires both passes
to agree and every invariant to hold, and writes
``perfbench/reference/<workload>.json``. Re-record only when a change is
meant to alter outputs, and say why in the change.
"""
from __future__ import annotations

import json
import os
import sys

import run


def record(workload: str) -> dict:
    import workloads
    from check import Checker, compare

    wl = workloads.build(workload, run.DEFAULT_SEED, run.workdir(workload))
    passes = []
    for _ in range(2):
        records = {}
        checker = Checker(None)
        for op in wl.ops:
            rec = op.record(op.run())
            if not checker.check(op, rec, None):
                raise SystemExit(f"{op.label}: invariant failed: {checker.problems[-1][1]}")
            records[op.label] = rec
        passes.append(records)
    for label, rec in passes[0].items():
        diff = compare(passes[1][label], rec)
        if diff:
            raise SystemExit(f"{label}: output differs between passes: {diff[:3]}")
    env = run.environment(run.DEFAULT_SEED)
    return {"workload": workload, "seed": run.DEFAULT_SEED,
            "any_seed": workload == "fiat-cli",  # fiat(6) does not depend on the seed
            "commit": env["commit"], "src_sha256": env["src_sha256"],
            "records": passes[0]}


def main(argv: list[str]) -> int:
    run.pin_hash_seed()
    os.chdir(run.ROOT)
    sys.path.insert(0, run.SRC)
    import workloads

    os.makedirs(os.path.join(run.HERE, "reference"), exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        doc = record(workload)
        path = os.path.join(run.HERE, "reference", f"{workload}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{path}: {len(doc['records'])} records")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
