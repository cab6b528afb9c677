"""The benchmark's workloads: market files generated from the seed, and the
operations run on them. See WORKLOADS.md for why each exists.

An operation is one in-process ``bubbletree.cli.main([... "--format",
"machine" ...])`` call with its output captured, or one public library call.
Functions are looked up on their modules at call time, so a traced run sees
the wrapped bindings.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from bubbletree import bubble, claims, cli, fixtures
from bubbletree.claims import Claim

from check import CliResult, cli_record, digest, flatten

WORKLOADS = ("fiat-cli", "rand-cli", "desk-session")

FIAT_PERIODS = 6
FIAT_COMMANDS = (
    ("analyze", ()),
    ("price", ("--claim", "ecall", "--strike", "1")),
    ("price", ("--claim", "aput", "--strike", "1")),
    ("hedge", ("--claim", "ecall", "--strike", "0.9")),
    ("classify", ("--process", "beta")),
    ("dominance", ()),
)

# rand-cli size classes: (depth, max branching, leaf count). Fixture seeds
# are drawn until the tree has exactly that many leaves, so that the work per
# pass, and with it every metric, varies little between workload seeds.
RAND_SIZES = ((4, 3, 20), (5, 2, 10))
RAND_STYLES = ("neutral", "bumped", "free")

DESK_FILES = 2
# Fixture seeds whose rand_claim_market(s, depth=8, branching=4) tree has
# 4500-4700 nodes; the workload seed picks DESK_FILES of them. Scanning for
# such seeds at set-up would cost ~1 s of generation per file.
DESK_FIXTURE_SEEDS = (
    0, 32, 33, 53, 96, 152, 174, 206, 287, 307, 314, 319, 323, 347, 350, 501,
    576, 588, 638, 640, 657, 693, 709, 767, 829, 839, 855, 884, 888, 893, 935, 997,
    1064, 1093, 1096, 1106, 1129, 1137, 1155, 1190, 1195, 1211, 1272, 1316, 1348,
    1380, 1426, 1481,
)
EURO_STRIKES = (0.8, 0.95, 1.05, 1.2)  # multiples of the root price
AMER_STRIKES = (0.9, 1.1)


@dataclass
class Op:
    label: str  # unique within a pass; keys the reference record
    kind: str  # CLI command or library call, for the per-kind medians
    run: Callable[[], Any]
    record: Callable[[Any], dict]
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    files: list[dict]
    ops: list[Op]


def market_doc(spec, family, with_pricing: bool) -> dict:
    tree = spec.tree
    transitions = {}
    for n in tree.non_leaves():
        ts = family.transitions[n]
        if ts.is_box:
            transitions[n] = {"lower": list(ts.lower), "upper": list(ts.upper)}
        else:
            transitions[n] = {"vertices": [list(v) for v in ts.vertices]}
    fam = {"type": "rectangular", "transitions": transitions}
    doc = {
        "horizon": tree.horizon,
        "nodes": [{"id": n, "parent": tree.parent(n), "time": tree.time(n)} for n in tree.preorder()],
        "rates": dict(spec.rates),
        "prices": dict(spec.price),
        "dividends": dict(spec.dividend),
        "tau": {"nodes": sorted(spec.tau.tau_nodes), "kind": spec.tau_kind},
        "payoffs": dict(spec.payoff),
        "actual": fam,
    }
    if with_pricing:
        doc["pricing"] = fam
    return doc


def _write(workdir: str, name: str, fx, with_pricing: bool, **info) -> dict:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(market_doc(fx.spec, fx.family, with_pricing), fh, separators=(",", ":"))
    tree = fx.spec.tree
    return {"name": name, "path": path, "nodes": len(tree.preorder()),
            "leaves": len(tree.leaves), "s0": fx.spec.price[tree.root],
            "pricing_given": with_pricing, **info}


def _draw(rng: random.Random, make, fits) -> tuple[int, Any]:
    for _ in range(2000):
        fseed = rng.randrange(2**31)
        fx = make(fseed)
        if fits(fx.spec.tree):
            return fseed, fx
    raise RuntimeError("no fixture seed in 2000 draws fits the size class")


def _cli_op(file: dict, cmd: str, opts: tuple[str, ...]) -> Op:
    argv = ["--format", "machine", cmd, *opts, file["path"]]

    def run() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return CliResult(code, out.getvalue(), err.getvalue())

    meta = {"cli": True, "file": file["name"], "style": file["style"],
            "pricing_given": file["pricing_given"]}
    if cmd == "classify":
        meta["process"] = opts[1]
    return Op(" ".join([file["name"], cmd, *opts]), cmd, run, cli_record, meta)


def _fiat(seed: int, workdir: str) -> Workload:
    # fiat(6) has no randomness: the seed is recorded but changes nothing
    fx = fixtures.fiat(FIAT_PERIODS)
    f = _write(workdir, f"fiat{FIAT_PERIODS}.market", fx, False, style="fiat")
    return Workload("fiat-cli", [f], [_cli_op(f, cmd, opts) for cmd, opts in FIAT_COMMANDS])


def _rand(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    files, ops = [], []
    for depth, branching, leaves in RAND_SIZES:
        for style in RAND_STYLES:
            for gen in ("rand_market", "rand_claim_market"):
                make = getattr(fixtures, gen)
                fseed, fx = _draw(
                    rng,
                    lambda s: make(s, depth=depth, branching=branching, style=style),
                    lambda tree: len(tree.leaves) == leaves,
                )
                name = f"r{len(files):02d}-{style}-{'claim' if gen == 'rand_claim_market' else 'div'}.market"
                f = _write(workdir, name, fx, style != "free", style=style, generator=gen,
                           depth=depth, branching=branching, fixture_seed=fseed)
                files.append(f)
                cmds = [("analyze", ())]
                if gen == "rand_claim_market":  # price on a dividend market exits 1
                    cmds += [("price", ("--claim", "ecall", "--strike", "1")),
                             ("price", ("--claim", "aput", "--strike", "1"))]
                cmds += [("hedge", ("--claim", "ecall", "--strike", "0.9")),
                         ("classify", ("--process", "beta")),
                         ("classify", ("--process", "Wstar")),
                         ("dominance", ())]
                ops += [_cli_op(f, cmd, opts) for cmd, opts in cmds]
    return Workload("rand-cli", files, ops)


def _desk_ops(file: dict) -> list[Op]:
    """parse_market_file once, then the strike ladder on the parsed market."""
    state: dict[str, Any] = {}
    s0 = file["s0"]
    name = file["name"]

    def parse():
        state["m"] = cli.parse_market_file(file["path"])
        return state["m"]

    def parse_record(m) -> dict:
        return flatten("", {"nodes": len(m.spec.tree.preorder()), "leaves": len(m.spec.tree.leaves),
                            "horizon": m.spec.tree.horizon, "tau_kind": m.spec.tau_kind,
                            "pricing": type(m.pricing).__name__, "prices": digest(m.spec.price)}, {})

    def process_record(proc) -> dict:
        m = state["m"]
        return {"root": proc[m.spec.tree.root], "value": digest(proc.values)}

    def euro(kind, k):
        m = state["m"]
        return claims.fundamental_claim_price(
            m.spec, m.pricing, Claim(kind, m.spec.tree.horizon, k), m.actual)

    def amer(kind, k):
        m = state["m"]
        return claims.american_fundamental_price(
            m.spec, m.pricing, Claim(kind, m.spec.tree.horizon, k), m.actual)

    def amer_record(res) -> dict:
        return {**process_record(res.process), **flatten("exercise", res.exercise, {})}

    def parity():
        m = state["m"]
        return claims.parity_bounds(m.spec, m.pricing, s0, m.spec.tree.horizon, actual=m.actual)

    def parity_record(r) -> dict:
        root = r.root
        return {"ok": r.ok, "lower": root.lower, "spread": root.spread, "upper": root.upper}

    def amer_bounds():
        m = state["m"]
        return claims.american_bounds(m.spec, m.pricing, s0, m.spec.tree.horizon, actual=m.actual)

    def amer_bounds_record(r) -> dict:
        parts = {key: digest({n: t[i] for n, t in r.per_node.items()})
                 for i, key in enumerate(("euro", "amer", "bubble"))}
        lower_ok = all(ca >= ce - 1e-9 for ce, ca, _ in r.per_node.values())
        return flatten("", {"fundamental_ok": r.fundamental_ok, "lower_ok": lower_ok,
                            "fundamental_worst": r.fundamental_worst, **parts}, {})

    def fundamental():
        m = state["m"]
        return bubble.fundamental_price(m.spec, m.pricing)

    def beta():
        m = state["m"]
        state["beta"] = bubble.bubble_process(m.spec, m.pricing)
        return state["beta"]

    def classify():
        m = state["m"]
        return bubble.classify_bubble(m.spec, m.pricing, state["beta"], m.actual)

    def classify_record(c) -> dict:
        out = {"exists": c.exists}
        for key, cls in (("bubble", c.bubble_class), ("price", c.price_class)):
            out.update({f"{key}.class": cls.strongest, f"{key}.martingale_gap": cls.martingale_gap,
                        f"{key}.supermartingale_slack": cls.supermartingale_slack,
                        f"{key}.infi_slack": cls.infi_slack})
        return flatten("consistency", c.consistency, out)

    ops = [Op(f"{name} parse", "parse", parse, parse_record)]
    for kind in ("euro_call", "euro_put"):
        for mult in EURO_STRIKES:
            k = round(s0 * mult, 9)
            ops.append(Op(f"{name} {kind} x{mult}", "euro",
                          lambda kind=kind, k=k: euro(kind, k), process_record))
    for kind in ("amer_call", "amer_put"):
        for mult in AMER_STRIKES:
            k = round(s0 * mult, 9)
            ops.append(Op(f"{name} {kind} x{mult}", "amer",
                          lambda kind=kind, k=k: amer(kind, k), amer_record))
    ops += [
        Op(f"{name} parity_bounds", "parity", parity, parity_record),
        Op(f"{name} american_bounds", "amer_bounds", amer_bounds, amer_bounds_record),
        Op(f"{name} fundamental_price", "fundamental", fundamental, process_record),
        Op(f"{name} bubble_process", "bubble", beta, process_record),
        Op(f"{name} classify_bubble", "classify_bubble", classify, classify_record),
    ]
    return ops


def _desk(seed: int, workdir: str) -> Workload:
    files, ops = [], []
    for i, fseed in enumerate(random.Random(seed).sample(DESK_FIXTURE_SEEDS, DESK_FILES)):
        fx = fixtures.rand_claim_market(fseed, depth=8, branching=4, style="bumped")
        f = _write(workdir, f"desk{i}.market", fx, True, style="bumped",
                   generator="rand_claim_market", depth=8, branching=4, fixture_seed=fseed)
        files.append(f)
        ops += _desk_ops(f)
    return Workload("desk-session", files, ops)


BY_NAME = {"fiat-cli": _fiat, "rand-cli": _rand, "desk-session": _desk}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate the workload's market files under ``workdir`` and return its
    operations, in the order one pass runs them."""
    os.makedirs(workdir, exist_ok=True)
    return BY_NAME[name](seed, workdir)
