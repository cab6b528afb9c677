"""Fundamental prices, bubble processes, their classification, and dominance.

The fundamental value of the asset at a node is the upper conditional
expectation of its remaining discounted cash flows: dividends strictly after
the node, plus the liquidation payoff when the path matures inside the
horizon. Cash flows on paths that never mature are not realizable and
contribute nothing. The bubble is the discounted price minus this value; it
is zero from the maturity node on.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .ambiguity import (
    CLASSIFY_TOL,
    Classification,
    MeasureFamily,
    _backward,
    _require_charged,
    _runs,
    classify_process,
)
from .lattice import (
    _DIVIDEND_TOL,
    AdaptedProcess,
    MarketSpec,
    NodeValues,
    _collected,
    _level_values,
    cash_flow_payoff,
    require_valid,
)
from .noarb import HedgeSolution, _pass, superhedge

_IDENTITY_TOL = 1e-12  # the largest deviation of the bubble from the identity beta = W - W*
_MARTINGALE_TOL = 1e-9  # the largest martingale gap ``fundamental_wealth`` accepts


def _conditional_value_process(spec: MarketSpec, pricing: MeasureFamily) -> np.ndarray:
    """Upper conditional expectation, per node, of total discounted cash flows
    (exactly the fundamental wealth W*), as a whole-tree level-order array.
    Raises ``PolarNodeError`` at the first node in preorder the family leaves polar."""
    tree, x = spec.tree, np.zeros(len(spec.tree))
    _require_charged(pricing, tree.preorder_index)
    runs = _runs(tree, tree.root, tree.horizon)
    x[runs[-1][0] :] = _collected(spec)[runs[-1][0] :]
    return _backward(pricing, x, runs)


def fundamental_price(spec: MarketSpec, pricing: MeasureFamily) -> AdaptedProcess:
    """Fundamental price on the pre-maturity domain {t < tau}: superhedging
    value of the remaining cash flows, equal to their upper conditional
    expectation. Computed by backward recursion for rectangular families."""
    return AdaptedProcess(_price_from_value(spec, _conditional_value_process(spec, pricing)))


def _price_from_value(spec: MarketSpec, val: np.ndarray) -> NodeValues:
    """S* from the value process W* (level-order array): W* minus collected
    dividends, before maturity."""
    p = spec.processes
    return NodeValues(spec.tree, val - p.cum, p.tau < 0)


def fundamental_wealth(spec: MarketSpec, pricing: MeasureFamily) -> tuple[AdaptedProcess, bool]:
    """Fundamental wealth and whether it classifies as a G-martingale (it
    must, for rectangular families: the recursion is the tower property)."""
    val = _conditional_value_process(spec, pricing)
    cls = classify_process(pricing, val, tol=_MARTINGALE_TOL)
    return AdaptedProcess(NodeValues(spec.tree, val)), cls.strongest == "G_martingale"


def stopped_price_process(spec: MarketSpec) -> AdaptedProcess:
    """Discounted market price while the asset lives, frozen at the
    discounted liquidation value from the maturity node on. This is the
    price-level process the necessary conditions classify."""
    return AdaptedProcess(NodeValues(spec.tree, spec.processes.stopped))


def bubble_process(spec: MarketSpec, pricing: MeasureFamily) -> AdaptedProcess:
    """Bubble = discounted price minus fundamental price before maturity and
    zero afterwards. Verifies the wealth identity bubble = W - W*."""
    beta = _bubble_from_value(spec, _conditional_value_process(spec, pricing))
    return AdaptedProcess(NodeValues(spec.tree, beta))


def _bubble_from_value(spec: MarketSpec, val: np.ndarray) -> np.ndarray:
    """The bubble from the value process W* (see ``bubble_process``), both level-order
    arrays; an error at the first node in preorder that breaks the identity by more
    than ``_IDENTITY_TOL``."""
    p, tree = spec.processes, spec.tree
    beta = np.where(p.tau < 0, p.S - (val - p.cum), 0.0)
    dev = np.abs(beta - (p.W - val))[tree.preorder_index]
    bad = np.flatnonzero(dev > _IDENTITY_TOL)
    if len(bad):
        raise AssertionError(
            f"bubble identity beta = W - W* violated at {tree.preorder()[bad[0]]!r}"
            f" by {dev[bad[0]].item():.3g}"
        )
    return beta


def bubble_exists(
    beta: AdaptedProcess | Mapping[str, float],
    actual: MeasureFamily,
    tol: float = CLASSIFY_TOL,
) -> bool:
    """A bubble exists when some node the actual family charges carries a
    positive bubble."""
    x, have = _level_values(actual.tree, beta.values if isinstance(beta, AdaptedProcess) else beta)
    return bool((have & (x > tol) & actual.charged_mask).any())


def _no_dividends(spec: MarketSpec) -> bool:
    """No node of the tree pays a dividend (NaN counts as one), as ``cash_events`` reads them."""
    return bool((np.abs(spec.arrays.dividend) <= _DIVIDEND_TOL).all())


@dataclass(frozen=True)
class BubbleClassification:
    bubble_class: Classification
    price_class: Classification
    exists: bool
    consistency: dict


def classify_bubble(
    spec: MarketSpec,
    pricing: MeasureFamily,
    beta: AdaptedProcess | None = None,
    actual: MeasureFamily | None = None,
    tol: float = CLASSIFY_TOL,
) -> BubbleClassification:
    """Classify the bubble and the (stopped) price process, and evaluate the
    consistency of the outcome with the maturity structure:

    * bounded maturity and a bubble: bubble and price should classify as
      G-supermartingales;
    * unbounded maturity and a bubble: at least infi-supermartingales;
    * no dividends, price a G-supermartingale but not a G-martingale: a
      bubble should exist (sufficiency).

    Violations are reported, not raised; these are structural claims whose
    hypotheses the caller may not have granted.
    """
    if beta is None:
        beta = bubble_process(spec, pricing)
    # classify over the bubble's own domain: up to the last pre-maturity time
    horizon = spec.alive_horizon
    bubble_class = classify_process(pricing, beta, T=horizon, tol=tol)
    price_class = classify_process(pricing, spec.processes.stopped, T=horizon, tol=tol)
    exists = bubble_exists(beta, actual if actual is not None else pricing, tol=tol)

    consistency: dict = {"tau_kind": spec.tau_kind, "bubble_exists": exists}
    if exists:
        if spec.tau_kind == "bounded":
            consistency["expected_bubble_class"] = "G_supermartingale"
            consistency["expected_price_class"] = "G_supermartingale"
        else:
            consistency["expected_bubble_class"] = "infi_supermartingale"
            consistency["expected_price_class"] = "infi_supermartingale"
        consistency["bubble_class_ok"] = bubble_class.satisfies(
            consistency["expected_bubble_class"]
        )
        consistency["price_class_ok"] = price_class.satisfies(
            consistency["expected_price_class"]
        )
    no_dividends = _no_dividends(spec)
    sufficiency: dict = {"applicable": no_dividends}
    if no_dividends:
        premise = price_class.satisfies("G_supermartingale") and not price_class.satisfies(
            "G_martingale"
        )
        sufficiency["premise"] = premise
        if premise:
            sufficiency["ok"] = exists
    consistency["sufficiency"] = sufficiency
    return BubbleClassification(bubble_class, price_class, exists, consistency)


@dataclass(frozen=True)
class BubblePropertyReport:
    nonneg_under_noarb: dict
    vanishes_at_tau: dict
    persistence: dict

    @property
    def ok(self) -> bool:
        return all(
            d.get("status") in ("holds", "skipped", "recorded")
            for d in (self.nonneg_under_noarb, self.vanishes_at_tau, self.persistence)
        )


def check_bubble_properties(
    spec: MarketSpec,
    pricing: MeasureFamily,
    actual: MeasureFamily | None = None,
    beta: AdaptedProcess | None = None,
    tol: float = CLASSIFY_TOL,
) -> BubblePropertyReport:
    """Structural bubble properties:

    (i) under no arbitrage the bubble is nonnegative on charged nodes
    (skipped, with a note, when the market admits arbitrage: the one-step
    test of ``noarb``, read from the spec's memo);
    (ii) the bubble vanishes at maturity nodes;
    (iii) with bounded maturity and no dividends, a dead bubble stays dead
    down the subtree; for unbounded maturities counterexamples are recorded
    without failing.
    """
    require_valid(spec)
    tree, pre = spec.tree, spec.tree.preorder_index
    if beta is None:
        beta = bubble_process(spec, pricing)
    values = beta.values if isinstance(beta, AdaptedProcess) else beta
    x, have = (v[pre] for v in _level_values(tree, values))  # in preorder

    def at(nodes: np.ndarray) -> np.ndarray:  # the bubble at a preorder mask; a KeyError where none
        if len(miss := np.flatnonzero(nodes & ~have)):
            raise KeyError(tree.preorder()[miss[0]])
        return x[nodes]

    on, arbitrage, _, _ = _pass(spec, actual)
    if not arbitrage.any():
        on = on[pre]
        worst = min(at(on).tolist(), default=0.0)
        bad = list(itertools.compress(tree.preorder(), (on & (x < -tol)).tolist()))
        nonneg = {
            "status": "holds" if not bad else "violated",
            "worst": worst,
            "nodes": tuple(bad),
        }
    else:
        nonneg = {"status": "skipped", "note": "market fails no-arbitrage"}

    tau_dev = max(
        (abs(beta[a]) for a in spec.tau.tau_nodes if a in beta), default=0.0
    )
    vanishes = {
        "status": "holds" if tau_dev <= 1e-12 else "violated",
        "worst": tau_dev,
    }

    no_dividends = _no_dividends(spec)
    if not no_dividends:
        persistence = {"status": "skipped", "note": "market pays dividends"}
    else:
        # each zero-bubble node (NaN counts) with the first positive one in its preorder run
        b, ids = at(np.ones(len(tree), bool)), tree.preorder()
        dead, live = np.flatnonzero(~(np.abs(b) > tol)), np.flatnonzero(b > tol)
        first = np.append(live, len(b))[np.searchsorted(live, dead)]
        hit = first < dead + tree.subtree_size[pre][dead]
        dead, first = dead[hit].tolist(), first[hit]
        counterexamples = tuple(zip(map(ids.__getitem__, dead), map(ids.__getitem__, first.tolist()),
                                    b[first].tolist()))
        if spec.tau_kind == "bounded":
            status = "holds" if not counterexamples else "violated"
        else:
            status = "holds" if not counterexamples else "recorded"
        persistence = {"status": status, "counterexamples": counterexamples}

    return BubblePropertyReport(nonneg, vanishes, persistence)


@dataclass(frozen=True)
class DominancePair:
    """A cheap superhedge of the asset's cash flows, paired against buying
    and holding the asset at its market price. The hedge's gains dominate
    the buy-and-hold gains by at least the root price premium on every
    charged leaf."""

    hedge: HedgeSolution
    hedge_cost: float
    asset_cost: float
    fundamental_root: float
    gain_gap: Mapping[str, float]

    @property
    def min_gap(self) -> float:
        return min(self.gain_gap.values())


def find_dominating_strategy(
    spec: MarketSpec,
    pricing: MeasureFamily,
    actual: MeasureFamily | None = None,
    tol: float = CLASSIFY_TOL,
    *,
    fundamental_root: float | None = None,
) -> DominancePair | None:
    """When the root price exceeds the fundamental value, superhedging the
    asset's cash flows for less than the asset costs dominates holding the
    asset. Returns None when there is no root bubble, or when the hedge cost
    does not undercut the price (possible when the supplied family is a
    strict subset of the supermartingale measures; the gap is then a pricing
    duality gap, not a dominance opportunity). ``fundamental_root`` is the
    root of ``fundamental_price(spec, pricing)`` when the caller has it
    already (``BubbleReport.S_star``); otherwise it is computed here."""
    tree = spec.tree
    s0_hat, cum0 = spec.processes.S[0].item(), spec.processes.cum[0].item()
    s_star0 = fundamental_root
    if s_star0 is None:
        s_star0 = fundamental_price(spec, pricing)[tree.root]
    if s0_hat - s_star0 <= tol:
        return None
    # cash flows accruing to a time-0 buyer: everything after the root dividend
    cf = {leaf: v - cum0 for leaf, v in cash_flow_payoff(spec).items()}
    hedge = superhedge(spec, cf, actual)
    if s0_hat - hedge.price <= tol:
        return None
    # hedge gains dominate cf - x'; buy-and-hold gains are cf - price
    gap = NodeValues(tree, hedge.slack.array + (s0_hat - hedge.price), hedge.slack.mask)
    return DominancePair(
        hedge=hedge,
        hedge_cost=hedge.price,
        asset_cost=s0_hat,
        fundamental_root=s_star0,
        gain_gap=gap,
    )


@dataclass(frozen=True)
class BubbleReport:
    """Bundle of the bubble analysis used by the command-line entry point."""

    S_star: AdaptedProcess
    W_star: AdaptedProcess
    beta: AdaptedProcess
    exists: bool
    classification: BubbleClassification
    properties: BubblePropertyReport
    tau_kind: str


def bubble_processes(
    spec: MarketSpec, pricing: MeasureFamily
) -> tuple[AdaptedProcess, AdaptedProcess, AdaptedProcess]:
    """S*, W* and the bubble, from the one cash-flow sweep (W*)."""
    val, tree = _conditional_value_process(spec, pricing), spec.tree
    beta = NodeValues(tree, _bubble_from_value(spec, val))
    return tuple(map(AdaptedProcess, (_price_from_value(spec, val), NodeValues(tree, val), beta)))


def analyze_bubble(
    spec: MarketSpec,
    pricing: MeasureFamily,
    actual: MeasureFamily | None = None,
    tol: float = CLASSIFY_TOL,
) -> BubbleReport:
    """``bubble_processes``, classified and checked."""
    s_star, w_star, beta = bubble_processes(spec, pricing)
    classification = classify_bubble(spec, pricing, beta, actual, tol=tol)
    properties = check_bubble_properties(spec, pricing, actual, beta, tol=tol)
    return BubbleReport(
        S_star=s_star,
        W_star=w_star,
        beta=beta,
        exists=classification.exists,
        classification=classification,
        properties=properties,
        tau_kind=spec.tau_kind,
    )
