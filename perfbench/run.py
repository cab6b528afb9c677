"""bubbletree benchmark: one process, one client, closed loop.

    python3 perfbench/run.py --workload fiat-cli|rand-cli|desk-session \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. The workload's market files are generated from ``--seed`` under
``perfbench/.work/``. Whole passes over the workload's operation list run
until another pass would end after ``--seconds`` of calibrated operation
time (at most 1.5x that in wall time; at least 3 passes and 11 operations,
so that ``op_tail_s`` has ten samples beyond it). Every operation's output is
checked (see check.py). Reported times are calibrated to the machine's
speed of the moment (see ``Speed``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (see
spans.py). The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit. A run record goes to
``perfbench/.work/runs/`` and traced spans to ``perfbench/.work/spans/``.
"""
from __future__ import annotations

import os

# one BLAS/OpenMP thread: set before numpy is imported, inherited by children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join("perfbench", ".work")
DEFAULT_SEED = 1  # the seed reference/*.json was recorded at
SETUP_REPEATS = 5
CAL_NOMINAL_S = 0.003  # Speed kernel time between operations on the unloaded reference VM
WALL_CAP = 1.5  # a run stops by WALL_CAP * --seconds of wall time even on a slow machine
MIN_OPS = 11
MIN_PASSES = 3  # fiat-cli's 6-op passes: 18 samples put op_p50_s and op_tail_s on steadier ranks
TAIL_BEYOND = 10

# name, unit; every workload reports all of them
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)
# per-kind medians, printed and recorded beside the metrics; kind -> name
KIND_MEDIANS = {
    "analyze": "analyze_s", "price": "price_s", "hedge": "hedge_s",
    "classify": "classify_s", "dominance": "dominance_s",
    "euro": "euro_s", "amer": "amer_s", "parse": "parse_s",
}

# metric name, span name, field, unit. Counts are per pass over the
# workload's operations; times are medians over traced passes.
LAYER = (
    ("noarb.verify_ftap.calls", "noarb.verify_ftap", "calls", "count"),
    ("noarb.verify_ftap.self_s", "noarb.verify_ftap", "self_s", "s"),
    ("noarb.verify_ftap.per_op", "noarb.verify_ftap", "per_op", "calls/op"),
    ("ambiguity.classify_process.explicit.calls", "ambiguity.classify_process.explicit", "calls", "count"),
    ("ambiguity.classify_process.explicit.self_s", "ambiguity.classify_process.explicit", "self_s", "s"),
    ("noarb.lp.calls", "noarb.lp", "calls", "count"),
    ("noarb.lp.s", "noarb.lp", "total_s", "s"),
    ("noarb.lp.nit", "noarb.lp", "nit", "count"),
    ("noarb.lp.failed", "noarb.lp", "failed", "count"),
    ("noarb.lp.vars_max", "noarb.lp", "vars_max", "count"),
    ("noarb.lp.rows_max", "noarb.lp", "rows_max", "count"),
    ("noarb.lp.dense_mb_max", "noarb.lp", "dense_mb_max", "MB-computed"),
    ("noarb.find_arbitrage.calls", "noarb.find_arbitrage", "calls", "count"),
    ("noarb.find_arbitrage.self_s", "noarb.find_arbitrage", "self_s", "s"),
    ("lattice.gains_process.calls", "lattice.gains_process", "calls", "count"),
    ("noarb.supermartingale_family.self_s", "noarb.supermartingale_family", "self_s", "s"),
    ("noarb.superhedge.calls", "noarb.superhedge", "calls", "count"),
    ("noarb.superhedge.self_s", "noarb.superhedge", "self_s", "s"),
    ("bubble.find_dominating_strategy.self_s", "bubble.find_dominating_strategy", "self_s", "s"),
    ("bubble.analyze_bubble.calls", "bubble.analyze_bubble", "calls", "count"),
    ("bubble.analyze_bubble.per_op", "bubble.analyze_bubble", "per_op", "calls/op"),
    ("bubble.check_bubble_properties.self_s", "bubble.check_bubble_properties", "self_s", "s"),
    ("lattice.validate_market.calls", "lattice.validate_market", "calls", "count"),
    ("lattice.validate_market.self_s", "lattice.validate_market", "self_s", "s"),
    ("lattice.validate_market.per_op", "lattice.validate_market", "per_op", "calls/op"),
    ("lattice.derived.calls", "lattice.derived", "calls", "count"),
    ("lattice.derived.self_s", "lattice.derived", "self_s", "s"),
    ("claims.validate_claim.calls", "claims.validate_claim", "calls", "count"),
    ("claims.validate_claim.self_s", "claims.validate_claim", "self_s", "s"),
    ("ambiguity.node_charged.calls", "ambiguity.node_charged", "calls", "count"),
    ("ambiguity.expectation_sweep.calls", "ambiguity.expectation_sweep", "calls", "count"),
    ("ambiguity.expectation_sweep.self_s", "ambiguity.expectation_sweep", "self_s", "s"),
    ("ambiguity.expectation_sweep.nodes", "ambiguity.expectation_sweep", "nodes", "count"),
    ("ambiguity.expectation_sweep.us_per_node", "ambiguity.expectation_sweep", "us_per_node", "us/node"),
    ("claims.fundamental_claim_price.self_s", "claims.fundamental_claim_price", "self_s", "s"),
    ("claims.american_fundamental_price.calls", "claims.american_fundamental_price", "calls", "count"),
    ("claims.american_fundamental_price.self_s", "claims.american_fundamental_price", "self_s", "s"),
    ("ambiguity.cond_expectation.calls", "ambiguity.cond_expectation", "calls", "count"),
    ("ambiguity.cond_expectation.self_s", "ambiguity.cond_expectation", "self_s", "s"),
    ("claims.parity_bounds.self_s", "claims.parity_bounds", "self_s", "s"),
    ("claims.american_bounds.self_s", "claims.american_bounds", "self_s", "s"),
    ("ambiguity.classify_process.rect.calls", "ambiguity.classify_process.rect", "calls", "count"),
    ("ambiguity.classify_process.rect.self_s", "ambiguity.classify_process.rect", "self_s", "s"),
    ("bubble.classify_bubble.self_s", "bubble.classify_bubble", "self_s", "s"),
    ("bubble.fundamental_price.self_s", "bubble.fundamental_price", "self_s", "s"),
    ("bubble.bubble_process.self_s", "bubble.bubble_process", "self_s", "s"),
    ("cli.parse_market_file.calls", "cli.parse_market_file", "calls", "count"),
    ("cli.parse_market_file.self_s", "cli.parse_market_file", "self_s", "s"),
    ("cli.emit_report.self_s", "cli.emit_report", "self_s", "s"),
    ("cli.emit_report.bytes", "cli.emit_report", "bytes", "bytes"),
    ("cli.run_analysis.self_s", "cli.run_analysis", "self_s", "s"),
)
SETUP_LAYER = (("fixtures.generate.self_s", "fixtures.generate", "self_s", "s"),)
TRACE_OWN = (("trace.overhead_frac", "frac"), ("trace.covered_frac", "frac"))


def pin_hash_seed() -> None:
    """Re-run this script under PYTHONHASHSEED=0. fixtures.rand_market draws
    payoffs while iterating a frozenset of node ids, so with randomised string
    hashing the same seed gives different markets in different processes."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="generate the workload's files and exit (one setup_s sample)")
    return p.parse_args(argv)


def workdir(workload: str) -> str:
    return os.path.join(WORK, workload)


def setup_samples(args, speed: Speed) -> tuple[list[float], list[float]]:
    """Set-up time, from process start until the first operation could be
    timed: a fresh interpreter imports bubbletree and writes the workload's
    files. Timed SETUP_REPEATS times in child processes; returns calibrated
    and raw seconds."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    calibrated, raw = [], []
    for _ in range(SETUP_REPEATS):
        speed.measure(SETUP_REPEATS)  # few, long intervals: steadier kernel readings
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        raw.append(time.perf_counter() - t0)
        calibrated.append(speed.calibrate(raw[-1], SETUP_REPEATS))
    return calibrated, raw


class Speed:
    """Machine-speed calibration. On a shared host the speed of this process
    swings by up to 1.8x from one minute to the next as neighbours load the
    physical cores, which swamps any change in the program. A fixed kernel
    shaped like the program's work (a backward sweep over a 3000-node dict
    tree, then sorting string keys) is timed right before and after every
    timed interval, and the interval is rescaled to the speed at which the
    kernel takes CAL_NOMINAL_S: ``calibrated = raw * CAL_NOMINAL_S /
    mean(kernel before, kernel after)``. The kernel does not touch the
    program, so a change in the program moves calibrated times as it moves
    raw ones. Raw times are kept in the run record."""

    def __init__(self):
        rng = random.Random(0)
        n = 3000
        self.kids: dict[int, list[int]] = {i: [] for i in range(n)}
        for i in range(1, n):
            self.kids[rng.randrange(max(0, i - 40), i)].append(i)
        self.vals = {i: rng.random() for i in range(n)}
        self.order = list(range(n - 1, -1, -1))
        self.samples: list[float] = []
        self.last = self.measure()

    def kernel(self) -> float:
        # with the collector off, the program's garbage cannot slow the kernel
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            out: dict[int, float] = {}
            for node in self.order:
                kids = self.kids[node]
                if kids:
                    xs = [out[c] for c in kids]
                    out[node] = 0.5 * max(xs) + 0.5 * min(xs) + self.vals[node]
                else:
                    out[node] = self.vals[node]
            sorted(str(k) for k in out)
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        return dt

    def measure(self, repeats: int = 1) -> float:
        """Kernel time now: the median of ``repeats`` runs. The first run
        follows the timed interval directly, so it also feels the cache
        pressure the interval felt."""
        self.last = statistics.median(self.kernel() for _ in range(repeats))
        self.samples.append(self.last)
        return self.last

    def calibrate(self, raw: float, repeats: int = 1) -> float:
        """Rescale a raw interval that just ended; ``measure`` ran right
        before it with the same ``repeats``."""
        before = self.last
        return raw * CAL_NOMINAL_S / (0.5 * (before + self.measure(repeats)))


class Runner:
    """Runs passes over the ops, timing each op and checking its output."""

    def __init__(self, ops, checker, speed: Speed):
        self.ops = ops
        self.checker = checker
        self.speed = speed
        self.samples: list[tuple[str, float]] = []  # (kind, calibrated seconds) per op run
        self.by_label: dict[str, list[float]] = {op.label: [] for op in ops}  # raw seconds

    def warm_up(self) -> None:
        """Run the first op once, untimed and unchecked, so that lazy imports
        and first-call set-up inside the program are not charged to a pass."""
        try:
            self.ops[0].run()
        except (Exception, SystemExit):
            pass  # the timed passes run and check it again
        self.speed.measure()

    def run_pass(self, tracer=None, first_op_id: int = 0) -> tuple[float, float]:
        """One pass; returns its calibrated and raw busy seconds."""
        busy = busy_raw = 0.0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = first_op_id + i
            error = out = None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except (Exception, SystemExit):
                error = traceback.format_exc(limit=3)
            raw = time.perf_counter() - t0
            if tracer is not None:
                tracer.op_id = None
            dt = self.speed.calibrate(raw)
            busy += dt
            busy_raw += raw
            self.samples.append((op.kind, dt))
            self.by_label[op.label].append(raw)
            record = None
            if error is None:
                try:
                    record = op.record(out)
                except Exception:
                    error = "output not readable: " + traceback.format_exc(limit=2)
            self.checker.check(op, record, error)
        return busy, busy_raw


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / n, n


def environment(seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bubbletree")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    import numpy
    import scipy

    return {"seed": seed, "commit": commit, "src_sha256": h.hexdigest()[:16],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure_end_to_end(args, wl, checker, speed: Speed, setup_times, setup_raw):
    runner = Runner(wl.ops, checker, speed)
    runner.warm_up()
    t_start = time.perf_counter()
    busy, passes = 0.0, 0
    while True:
        busy += runner.run_pass()[0]
        passes += 1
        # --seconds counts calibrated operation time, so that the number of
        # passes, and with it op_tail_s's percentile, does not follow the
        # machine's speed
        wall = time.perf_counter() - t_start
        if passes >= MIN_PASSES and len(runner.samples) >= MIN_OPS and (
                busy + busy / passes > args.seconds or wall + wall / passes > WALL_CAP * args.seconds):
            break
    lat = [dt for _, dt in runner.samples]
    raw = [dt for dts in runner.by_label.values() for dt in dts]
    tail_s, tail_pct, n = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / busy,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    kinds = {}
    for kind, name in KIND_MEDIANS.items():
        xs = [dt for k, dt in runner.samples if k == kind]
        if xs:
            kinds[name] = statistics.median(xs)
    info = {"passes": passes, "ops": len(lat), "op_tail_pct": tail_pct, "op_tail_samples": n,
            "latencies_s": runner.by_label,
            "op_tail_beyond": TAIL_BEYOND, "setup_samples_s": setup_times,
            "setup_raw_s": setup_raw, "op_p50_raw_s": statistics.median(raw), "kind_medians_s": kinds,
            "kernel_median_s": statistics.median(speed.samples)}
    return metrics, info


def measure_traced(args, wl, checker, speed: Speed, tracer):
    from spans import aggregate, covered_time

    runner = Runner(wl.ops, checker, speed)
    runner.warm_up()
    t_start = time.perf_counter()
    plain, traced, traced_raw, traced_ops = [], [], [], []
    next_id = 0
    while True:
        if len(plain) <= len(traced):
            plain.append(runner.run_pass()[0])
        else:
            ids = set(range(next_id, next_id + len(wl.ops)))
            tracer.install()
            try:
                cal, raw = runner.run_pass(tracer, next_id)
                traced.append(cal)
                traced_raw.append(raw)
            finally:
                tracer.uninstall()
            traced_ops.append(ids)
            next_id += len(wl.ops)
        elapsed = time.perf_counter() - t_start
        est = elapsed / (len(plain) + len(traced))
        if plain and traced and elapsed + est > args.seconds:
            break

    per_pass = [aggregate(tracer, ids) for ids in traced_ops]
    n_ops = len(wl.ops)
    metrics = {}
    for name, span, fld, _unit in LAYER:
        vals = []
        for agg in per_pass:
            a = agg.get(span, {})
            if fld == "per_op":
                vals.append(a.get("calls", 0) / n_ops)
            elif fld == "us_per_node":
                vals.append(1e6 * a["self_s"] / a["nodes"] if a.get("nodes") else 0.0)
            else:
                vals.append(a.get(fld, 0))
        metrics[name] = statistics.median(vals)
    setup = aggregate(tracer, {None})
    metrics["fixtures.generate.self_s"] = setup.get("fixtures.generate", {}).get("self_s", 0.0)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    covered = sum(covered_time(tracer, ids) for ids in traced_ops)
    metrics["trace.covered_frac"] = covered / sum(traced_raw)

    calls = [{k: v["calls"] for k, v in agg.items()} for agg in per_pass]
    stable = all(c == calls[0] for c in calls)
    by_op = []
    first = traced_ops[0]
    for i, op in enumerate(wl.ops):
        agg = aggregate(tracer, {min(first) + i})
        by_op.append({"label": op.label,
                      "verify_ftap": agg.get("noarb.verify_ftap", {}).get("calls", 0),
                      "lp": agg.get("noarb.lp", {}).get("calls", 0),
                      "validate_market": agg.get("lattice.validate_market", {}).get("calls", 0)})
    info = {"plain_passes_s": plain, "traced_passes_s": traced, "calls_stable": stable,
            "calls_per_op": by_op, "bound": tracer.bound}
    return metrics, info


def emit(metrics: dict, units: dict, checker, wl, env, info, args) -> dict:
    total_nodes = sum(f["nodes"] for f in wl.files)
    total_leaves = sum(f["leaves"] for f in wl.files)
    print(f"# bubbletree benchmark: workload={wl.name} seed={args.seed} trace={args.trace} "
          f"commit={env['commit']} src={env['src_sha256']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    print(f"# inputs: files={len(wl.files)} nodes={total_nodes} leaves={total_leaves} "
          f"ops_per_pass={len(wl.ops)} ops={checker.attempted}")
    for name, val in metrics.items():
        print(f"{name:46s} {val:.6g} {units[name]}")
    frac = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"{'failed_frac':46s} {frac:.6g} 1 ({checker.failed}/{checker.attempted})")
    if args.trace == 0:
        print(f"# op_tail_s is p{info['op_tail_pct']:.1f} of {info['op_tail_samples']} samples "
              f"({info['op_tail_beyond']} beyond); passes={info['passes']}")
        print(f"# times are calibrated to a Speed kernel time of {CAL_NOMINAL_S:g} s; its median "
              f"here was {info['kernel_median_s']:.4g} s; raw op_p50 {info['op_p50_raw_s']:.6g} s, "
              f"raw setup median {statistics.median(info['setup_raw_s']):.6g} s")
        for name, val in info["kind_medians_s"].items():
            print(f"{name:46s} {val:.6g} s")
    else:
        kinds: dict[str, list] = {}
        for row, op in zip(info["calls_per_op"], wl.ops):
            kinds.setdefault(op.kind, []).append(row)
        for kind, rows in kinds.items():
            vf = statistics.mean(r["verify_ftap"] for r in rows)
            lp = statistics.mean(r["lp"] for r in rows)
            print(f"# per {kind} op: verify_ftap={vf:g} lp={lp:g} (mean over {len(rows)} ops)")
        if not info["calls_stable"]:
            print("# warning: call counts differ between traced passes")
    for label, problems in checker.problems[:10]:
        print(f"# FAILED {label}: {'; '.join(problems[:3])}")
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env,
              "files": [{k: v for k, v in f.items() if k != "path"} for f in wl.files],
              "nodes": total_nodes, "leaves": total_leaves, "ops_per_pass": len(wl.ops),
              "attempted": checker.attempted, "failed": checker.failed,
              "metrics": metrics, "info": info, "problems": checker.problems}
    os.makedirs(os.path.join(WORK, "runs"), exist_ok=True)
    with open(os.path.join(WORK, "runs", f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    pin_hash_seed()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bubbletree", "__init__.py")):
        sys.stderr.write(f"error: no bubbletree sources under {SRC}; run from a source checkout\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}\n")
        return 2
    if args.setup_only:
        workloads.build(args.workload, args.seed, workdir(args.workload))
        return 0

    from check import Checker, load_reference

    env = environment(args.seed)
    checker = Checker(load_reference(args.workload, args.seed))
    speed = Speed()
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            wl = workloads.build(args.workload, args.seed, workdir(args.workload))
        finally:
            tracer.uninstall()
        metrics, info = measure_traced(args, wl, checker, speed, tracer)
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        tracer.dump(os.path.join(WORK, "spans", f"{wl.name}-seed{args.seed}.jsonl"))
        units = {name: unit for name, _s, _f, unit in LAYER + SETUP_LAYER}
        units.update(TRACE_OWN)
    else:
        setup_times, setup_raw = setup_samples(args, speed)
        wl = workloads.build(args.workload, args.seed, workdir(args.workload))
        metrics, info = measure_end_to_end(args, wl, checker, speed, setup_times, setup_raw)
        units = dict(END_TO_END)
    result = emit(metrics, units, checker, wl, env, info, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
