"""Self-test of the benchmark's output check: it must bite.

    python3 perfbench/selftest.py

Runs a few operations of each workload at the default seed, checks that they
pass, then replays the same outputs with one of them altered and requires
the failure count (and so ``failed_frac``) to rise:

* one process value in a CLI report moved by 1e-6;
* one diagnostic number in a CLI report moved by 1e-6;
* one CLI exit code flipped, with and without a reference (the exit-code
  invariant needs none);
* one node value of a library call's result moved by 1e-6.

Exits 0 when every case behaves, 1 otherwise. Takes about 10 s.
"""
from __future__ import annotations

import json
import os
import sys

import run

DELTA = 1e-6


def failures(ops, outs, reference) -> int:
    from check import Checker

    checker = Checker(reference)
    for op, out in zip(ops, outs):
        checker.check(op, op.record(out), None)
    return checker.failed


def bump_report(out, section: str):
    """Copy of a CLI result with the first number under ``section`` moved."""
    from check import CliResult

    doc = json.loads(out.stdout)
    block = doc[section]
    for key, val in block.items():
        if isinstance(val, dict):  # a process: move one node's value
            node = next(iter(val))
            val[node] += DELTA
            break
        if isinstance(val, float):
            block[key] = val + DELTA
            break
    else:
        raise AssertionError(f"no number under {section}")
    return CliResult(out.exit, json.dumps(doc), out.stderr)


def flip_exit(out):
    from check import CliResult

    return CliResult(2 if out.exit == 0 else 0, out.stdout, out.stderr)


def bump_process(out):
    from bubbletree.lattice import AdaptedProcess

    values = dict(out.values)
    node = next(iter(values))
    values[node] += DELTA
    return AdaptedProcess(values)


def main() -> int:
    run.pin_hash_seed()
    os.chdir(run.ROOT)
    sys.path.insert(0, run.SRC)
    import workloads
    from check import load_reference

    cases = []
    picks = {
        "fiat-cli": lambda op: op.kind == "analyze",
        "rand-cli": lambda op: op.meta["file"].startswith(("r01-", "r04-")),
        "desk-session": lambda op: op.label.startswith("desk0."),
    }
    for name, pick in picks.items():
        wl = workloads.build(name, run.DEFAULT_SEED, run.workdir(name))
        ops = [op for op in wl.ops if pick(op)]
        outs = [op.run() for op in ops]
        ref = load_reference(name, run.DEFAULT_SEED)
        if ref is None:
            print(f"FAIL {name}: no reference for seed {run.DEFAULT_SEED}")
            return 1
        cases.append((f"{name}: unaltered outputs pass", failures(ops, outs, ref) == 0))

        def altered(i, new, reference=ref):
            return failures(ops, outs[:i] + [new] + outs[i + 1:], reference)

        if name == "desk-session":
            i = next(i for i, op in enumerate(ops) if op.kind == "euro")
            cases.append((f"{name}: euro value +1e-6 fails", altered(i, bump_process(outs[i])) == 1))
            continue
        i = next(i for i, op in enumerate(ops) if op.kind == "analyze" and outs[i].exit == 0)
        cases.append((f"{name}: process value +1e-6 fails",
                      altered(i, bump_report(outs[i], "processes")) == 1))
        cases.append((f"{name}: diagnostic number +1e-6 fails",
                      altered(i, bump_report(outs[i], "diagnostics")) == 1))
        cases.append((f"{name}: flipped exit code fails", altered(i, flip_exit(outs[i])) == 1))
        cases.append((f"{name}: flipped exit code fails without reference",
                      altered(i, flip_exit(outs[i]), None) == 1))
    for label, ok in cases:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
