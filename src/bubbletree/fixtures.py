"""Canonical example markets and the seeded random market generator."""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ambiguity import MeasureFamily, RectangularFamily, TransitionSet
from .lattice import EventTree, MarketSpec, StoppingTime


class Fixture(NamedTuple):
    spec: MarketSpec
    family: MeasureFamily


def _const(tree: EventTree, value: float, domain=None) -> dict[str, float]:
    nodes = tree.preorder() if domain is None else domain
    return {n: value for n in nodes}


def ex1(theta=(0.2, 0.4), tau_kind: str = "unbounded_finite") -> Fixture:
    """Two-period market: the price branches to 1.5 / 0.5, then a unit payoff
    is delivered at time 2 on every path. Ambiguity is an interval on the
    probability of the up branch."""
    tree = EventTree.uniform([2, 1])
    price = {"r": 1.0, "r0": 1.5, "r1": 0.5, "r00": 0.0, "r10": 0.0}
    spec = MarketSpec(
        tree=tree,
        rates=_const(tree, 0.0, tree.non_leaves()),
        price=price,
        dividend=_const(tree, 0.0),
        payoff={"r00": 1.0, "r10": 1.0},
        tau=StoppingTime(frozenset({"r00", "r10"})),
        tau_kind=tau_kind,
    )
    lo, hi = theta
    transitions = {
        "r": TransitionSet.box([lo, 1.0 - hi], [hi, 1.0 - lo]),
        "r0": TransitionSet.point([1.0]),
        "r1": TransitionSet.point([1.0]),
    }
    return Fixture(spec, RectangularFamily(tree, transitions))


def ex2() -> Fixture:
    return ex1(theta=(0.5, 0.7))


def ex3(theta=(0.2, 0.4)) -> Fixture:
    return ex1(theta=theta, tau_kind="bounded")


def ex1_one_period(s0: float = 1.0, s1=(1.5, 0.5), theta=(0.2, 0.4)) -> Fixture:
    """One-period slice of the branching example: no cash flows, the leaves
    carry residual prices."""
    tree = EventTree.uniform([2])
    spec = MarketSpec(
        tree=tree,
        rates={"r": 0.0},
        price={"r": s0, "r0": s1[0], "r1": s1[1]},
        dividend=_const(tree, 0.0),
        payoff={},
        tau=StoppingTime(frozenset()),
        tau_kind="possibly_infinite",
    )
    lo, hi = theta
    transitions = {"r": TransitionSet.box([lo, 1.0 - hi], [hi, 1.0 - lo])}
    return Fixture(spec, RectangularFamily(tree, transitions))


def fiat(periods: int = 10, y_low: float = 0.98, y_high: float = 1.03) -> Fixture:
    """Fiat money: price is the reciprocal of a multiplicative price index
    whose one-step factor is either deflationary or inflationary, with the
    branch probability completely unconstrained. No dividends, never matures,
    so the whole price is bubble."""
    tree = EventTree.uniform([2] * periods)
    index = {"r": 1.0}
    for n in tree.preorder():
        for c, y in zip(tree.children(n), (y_low, y_high)):
            index[c] = index[n] * y
    spec = MarketSpec(
        tree=tree,
        rates=_const(tree, 0.0, tree.non_leaves()),
        price={n: 1.0 / index[n] for n in tree.preorder()},
        dividend=_const(tree, 0.0),
        payoff={},
        tau=StoppingTime(frozenset()),
        tau_kind="possibly_infinite",
    )
    transitions = {
        n: TransitionSet.box([0.0, 0.0], [1.0, 1.0]) for n in tree.non_leaves()
    }
    return Fixture(spec, RectangularFamily(tree, transitions))


def _random_tree(rng: np.random.Generator, depth: int, branching: int) -> EventTree:
    parents: dict[str, str | None] = {"r": None}
    frontier = ["r"]
    for t in range(depth):
        nxt = []
        for nid in frontier:
            k = int(rng.integers(2, branching + 1)) if t == 0 and branching >= 2 else int(
                rng.integers(1, branching + 1)
            )
            for j in range(k):
                cid = f"{nid}{j}"
                parents[cid] = nid
                nxt.append(cid)
        frontier = nxt
    return EventTree(parents)


def _random_boxes(
    rng: np.random.Generator, tree: EventTree, singleton: bool, width=(0.05, 0.3)
) -> dict[str, TransitionSet]:
    """Strictly interior boxes: every transition vector charges every child.
    Zero lower bounds would let suprema drop whole branches, which creates
    exact price ties that the structural bubble properties do not survive."""
    transitions = {}
    for n in tree.non_leaves():
        k = len(tree.children(n))
        center = rng.dirichlet(np.ones(k)) * 0.9 + 0.1 / k
        if singleton or k == 1:
            transitions[n] = TransitionSet.point(center.tolist())
            continue
        w = rng.uniform(*width)
        lo = np.maximum(center - w, 0.2 * center)
        hi = np.minimum(center + w, 1.0)
        transitions[n] = TransitionSet.box(lo.tolist(), hi.tolist())
    return transitions


def _random_tau(
    rng: np.random.Generator, tree: EventTree, mode: str
) -> tuple[StoppingTime, str]:
    if mode == "none":
        return StoppingTime(frozenset()), "possibly_infinite"
    tau_nodes: set[str] = set()
    uncovered = 0

    def cover(n: str):
        nonlocal uncovered
        t = tree.time(n)
        if tree.is_leaf(n):
            if mode == "bounded" or rng.random() < 0.8:
                tau_nodes.add(n)
            else:
                uncovered += 1
            return
        if t >= 1 and rng.random() < 0.25:
            tau_nodes.add(n)
            return
        for c in tree.children(n):
            cover(c)

    cover(tree.root)
    if mode == "bounded":
        return StoppingTime(frozenset(tau_nodes)), "bounded"
    kind = "possibly_infinite" if uncovered else "unbounded_finite"
    return StoppingTime(frozenset(tau_nodes)), kind


def rand_market(
    seed: int,
    depth: int = 3,
    branching: int = 3,
    style: str = "neutral",
    dividends: bool = True,
    tau_mode: str = "bounded",
    singleton: bool = False,
) -> Fixture:
    """Seeded random market for property runs.

    Styles: ``neutral`` builds wealth as the exact one-step upper expectation
    under the generated family (a risk-neutral market, no arbitrage and no
    bubble beyond unmatured residuals); ``bumped`` adds nonnegative drift
    gaps, producing no-arbitrage markets with bubbles; ``free`` draws prices
    unconstrained, which usually admits arbitrage.
    """
    rng = np.random.default_rng(seed)
    tree = _random_tree(rng, depth, branching)
    tau, kind = _random_tau(rng, tree, tau_mode)
    transitions = _random_boxes(rng, tree, singleton)
    family = RectangularFamily(tree, transitions)

    rates = {
        n: (0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.08)))
        for n in tree.non_leaves()
    }
    dividend = {}
    for n in tree.preorder():
        alive = tau.tau_nodes.isdisjoint(tree.path(n)[:-1])  # not yet liquidated
        if dividends and alive and n != tree.root and rng.random() < 0.5:
            dividend[n] = float(rng.uniform(0.0, 0.3))
        else:
            dividend[n] = 0.0
    payoff = {a: float(rng.uniform(0.2, 2.0)) for a in tau.tau_nodes}

    spec = MarketSpec(tree, rates, {n: 0.0 for n in tree.preorder()}, dividend, payoff, tau, kind)
    B, cum, taumap = spec.derived.B, spec.derived.cum, spec.derived.taumap

    if style == "free":
        price = {
            n: float(rng.uniform(0.1, 2.0)) if taumap[n] is None else 0.0
            for n in tree.preorder()
        }
        spec = MarketSpec(tree, rates, price, dividend, payoff, tau, kind)
        return Fixture(spec, family)

    # wealth built backward so the family prices the market (possibly with bumps)
    W: dict[str, float] = {}
    for t in range(tree.horizon, -1, -1):
        for n in tree.level(t):
            tau_at = taumap[n]
            if tau_at is not None:
                W[n] = cum[n] + payoff[tau_at] / B[tau_at]
            elif tree.is_leaf(n):
                residual = float(rng.uniform(0.0, 1.5)) if rng.random() < 0.7 else 0.0
                W[n] = cum[n] + residual
            else:
                up, _ = transitions[n].maximize([W[c] for c in tree.children(n)])
                bump = 0.0
                if style == "bumped" and rng.random() < 0.4:
                    bump = float(rng.uniform(0.0, 0.3))
                W[n] = up * (1.0 + bump)
    price = {}
    for n in tree.preorder():
        if taumap[n] is None:
            price[n] = max(W[n] - cum[n], 0.0) * B[n]
        else:
            price[n] = 0.0
    spec = MarketSpec(tree, rates, price, dividend, payoff, tau, kind)
    return Fixture(spec, family)


def rand_claim_market(
    seed: int,
    depth: int = 3,
    branching: int = 3,
    style: str = "neutral",
    singleton: bool = False,
) -> Fixture:
    """Random market suitable for claim pricing: no dividends, never matures
    within the horizon, leaves carry the terminal price."""
    return rand_market(
        seed,
        depth=depth,
        branching=branching,
        style=style,
        dividends=False,
        tau_mode="none",
        singleton=singleton,
    )
