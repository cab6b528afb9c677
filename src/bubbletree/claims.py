"""Forward, European, and American claim pricing with bubble relations.

Claims live on a horizon [0, T] over which the asset pays no dividends and
does not mature on any charged path, so the asset's fundamental value at a
node is just the upper conditional expectation of its discounted time-T
price. Strikes are monetary: a strike K exercised at a node is worth K over
the account value there, which collapses to plain K when rates are zero.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .ambiguity import (
    MeasureFamily,
    _backward,
    _runs,
    _valued,
    node_charged,
)
from .lattice import AdaptedProcess, MarketSpec, NodeValues, discount_factors, require_valid

CLAIM_KINDS = ("forward", "euro_call", "euro_put", "amer_call", "amer_put", "custom_terminal")
_CHECK_TOL = 1e-9  # the slack of every parity, claim-bubble and American-bounds check


class AssumptionViolationError(ValueError):
    """The claim-pricing assumptions (no dividends before T, no maturity on a
    charged path by T) do not hold."""


@dataclass(frozen=True)
class Claim:
    kind: str
    maturity: int
    strike: float = 0.0
    payoff: Mapping[str, float] | None = None  # custom_terminal only

    def __post_init__(self):
        if self.kind not in CLAIM_KINDS:
            raise ValueError(f"unknown claim kind {self.kind!r}")
        if self.strike < 0:
            raise ValueError("strike must be nonnegative")
        if self.kind == "custom_terminal" and self.payoff is None:
            raise ValueError("custom_terminal claims need a payoff map")


def _check_maturity(claim: Claim, horizon: int) -> None:
    """Raise ``AssumptionViolationError`` unless the claim matures in [1, horizon]."""
    if not 1 <= claim.maturity <= horizon:
        raise AssumptionViolationError(f"maturity {claim.maturity} outside [1, {horizon}]")


def validate_claim(
    spec: MarketSpec, claim: Claim, actual: MeasureFamily | None = None
) -> None:
    """Raise ``AssumptionViolationError`` at the first node in preorder, up
    to maturity and charged by ``actual`` (every node when it is None), where
    the asset has matured or pays a dividend. Those nodes are the spec's
    cached ``cash_events``, so a call costs one scan of them."""
    require_valid(spec)
    tree, T = spec.tree, claim.maturity
    _check_maturity(claim, tree.horizon)
    for n, tau_at in spec.cash_events:
        if tree.time(n) > T:
            continue
        if actual is not None and not node_charged(actual, n):
            continue
        if tau_at is not None:
            raise AssumptionViolationError(
                f"asset matures at {tau_at!r} on a charged path before T={T}"
            )
        raise AssumptionViolationError(f"dividend paid at {n!r} inside [0, T]")


def _intrinsic(spec: MarketSpec, claim: Claim, t: int) -> np.ndarray:
    """Discounted exercise value of the claim at the time-t nodes, in
    ``tree.level(t)`` order (``_exercise``); a custom terminal claim's
    payoff there."""
    if claim.kind == "custom_terminal":
        nodes = spec.tree.level(t)
        missing = [n for n in nodes if n not in claim.payoff]
        if missing:
            raise ValueError(f"custom payoff missing at {missing}")
        return np.array([float(claim.payoff[n]) for n in nodes], dtype=float)
    p, (a, b) = spec.processes, spec.tree.level_starts[t : t + 2]
    return _exercise(claim, p.S[a:b], p.B[a:b])


def _exercise(claim: Claim, s: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Discounted exercise value at nodes with discounted prices ``s`` and
    account values ``B``, with the float operations of ``max(x, 0.0)``."""
    k = claim.strike / B
    if claim.kind == "forward":
        return s - k
    x = s - k if claim.kind in ("euro_call", "amer_call") else k - s
    return np.where(0.0 > x, 0.0, x)


def terminal_payoff(spec: MarketSpec, claim: Claim) -> dict[str, float]:
    """Discounted payoff of the claim at its maturity nodes."""
    _check_maturity(claim, spec.tree.horizon)
    T = claim.maturity
    return dict(zip(spec.tree.level(T), _intrinsic(spec, claim, T).tolist()))


def _claim_values(
    spec: MarketSpec, pricing: MeasureFamily, claim: Claim, actual: MeasureFamily | None,
    t0: int = 0, negate: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Upper conditional expectation of the claim's terminal payoff (of its
    negation with ``negate``) at the nodes of times ``t0..T`` where it is
    defined, after ``validate_claim``: a whole-tree level-order array, and
    the mask of those nodes (``_valued``)."""
    validate_claim(spec, claim, actual)
    tree, T = spec.tree, claim.maturity
    runs = _runs(tree, tree.root, T)[t0:]  # whole levels, times t0..T
    (lo, hi), x, payoff = runs[-1], np.zeros(len(tree)), _intrinsic(spec, claim, T)
    x[lo:hi] = -payoff if negate else payoff
    return _backward(pricing, x, runs), _valued(pricing, runs)


def fundamental_claim_price(
    spec: MarketSpec, pricing: MeasureFamily, claim: Claim, actual: MeasureFamily | None = None
) -> AdaptedProcess:
    """Upper conditional expectation of the terminal payoff at every node up
    to maturity (European-style claims, forwards, custom terminal payoffs)."""
    if claim.kind in ("amer_call", "amer_put"):
        raise ValueError("American claims are priced by american_fundamental_price")
    return AdaptedProcess(NodeValues(spec.tree, *_claim_values(spec, pricing, claim, actual)))


def asset_fundamental(
    spec: MarketSpec, pricing: MeasureFamily, maturity: int, actual: MeasureFamily | None = None
) -> AdaptedProcess:
    """Claim-horizon fundamental value of the asset itself: the upper
    conditional expectation of the discounted time-T price."""
    return fundamental_claim_price(
        spec, pricing, Claim("forward", maturity, 0.0), actual
    )


def asset_bubble(
    spec: MarketSpec, pricing: MeasureFamily, maturity: int, actual: MeasureFamily | None = None
) -> AdaptedProcess:
    """Discounted price minus the claim-horizon fundamental value, at the
    nodes where that is defined."""
    x, mask = _claim_values(spec, pricing, Claim("forward", maturity, 0.0), actual)
    return AdaptedProcess(NodeValues(spec.tree, spec.processes.S - x, mask))


@dataclass(frozen=True)
class ParityTriple:
    lower: float
    spread: float
    upper: float

    def ok(self) -> bool:
        return self.lower - _CHECK_TOL <= self.spread <= self.upper + _CHECK_TOL


@dataclass(frozen=True)
class ParityReport:
    strike: float
    maturity: int
    t: int
    per_node: dict[str, ParityTriple]
    ok: bool

    @property
    def root(self) -> ParityTriple:
        if len(self.per_node) != 1:
            raise ValueError("root triple only defined when t indexes a single node")
        return next(iter(self.per_node.values()))


def parity_bounds(
    spec: MarketSpec,
    pricing: MeasureFamily,
    strike: float,
    maturity: int,
    t: int = 0,
    actual: MeasureFamily | None = None,
) -> ParityReport:
    """Sandwich of the call-put spread between the lower and upper
    expectations of the forward payoff, per node at time t."""
    fwd = Claim("forward", maturity, strike)
    call, mask = _claim_values(spec, pricing, Claim("euro_call", maturity, strike), actual)
    put, _ = _claim_values(spec, pricing, Claim("euro_put", maturity, strike), actual)
    starts = spec.tree.level_starts
    per_node = {}
    if 0 <= t <= maturity:  # the nodes of time t that hold a value
        idx = starts[t] + np.flatnonzero(mask[starts[t] : starts[t + 1]])
        ids = map(spec.tree.level_order.__getitem__, idx.tolist())
        lower = -_claim_values(spec, pricing, fwd, actual, t, negate=True)[0][idx]
        upper = _claim_values(spec, pricing, fwd, actual, t)[0][idx]
        triples = map(ParityTriple, lower.tolist(), (call[idx] - put[idx]).tolist(), upper.tolist())
        per_node = dict(zip(ids, triples))
    all_ok = all(triple.ok() for triple in per_node.values())
    return ParityReport(strike, maturity, t, per_node, all_ok)


@dataclass(frozen=True)
class MarketParityReport:
    deviations: dict[str, float]
    enforced: bool
    ok: bool | None
    failing_nodes: tuple[str, ...]


def _strike_discount(spec: MarketSpec, maturity: int) -> float | None:
    """1/B at maturity when the account value there is path-independent."""
    B = spec.processes.B[slice(*spec.tree.level_starts[maturity : maturity + 2])]
    lo, hi = B.min().item(), B.max().item()
    return None if hi - lo > 1e-12 else 1.0 / lo


def market_parity(
    spec: MarketSpec,
    market_prices: Mapping[str, Mapping[str, float]],
    strike: float,
    maturity: int,
    no_dominance: bool,
) -> MarketParityReport:
    """Check call minus put against asset minus (discounted) strike on the
    supplied market prices. With the no-dominance flag the identity is
    enforced; otherwise deviations are only reported."""
    require_valid(spec)
    if "euro_call" not in market_prices or "euro_put" not in market_prices:
        raise ValueError("market parity needs euro_call and euro_put prices")
    call = market_prices["euro_call"]
    put = market_prices["euro_put"]
    B = discount_factors(spec).values
    disc = _strike_discount(spec, maturity)
    forward = market_prices.get("forward")
    if forward is None and disc is None:
        raise ValueError(
            "market parity needs a forward price when the strike discount is path-dependent"
        )
    deviations = {}
    for n in call:
        if n not in put:
            continue
        if forward is not None and n in forward:
            target = forward[n]
        else:
            asset = market_prices.get("asset", {}).get(n, spec.price[n] / B[n])
            target = asset - strike * disc
        deviations[n] = (call[n] - put[n]) - target
    failing = tuple(n for n, d in deviations.items() if abs(d) > _CHECK_TOL)
    return MarketParityReport(
        deviations=deviations,
        enforced=no_dominance,
        ok=(not failing) if no_dominance else None,
        failing_nodes=failing,
    )


@dataclass(frozen=True)
class ClaimBubbleReport:
    deltas: dict[str, dict[str, float]]
    forward_equals_asset: bool
    spread_dominates: bool

    @property
    def ok(self) -> bool:
        return self.forward_equals_asset and self.spread_dominates


def claim_bubbles(
    spec: MarketSpec,
    pricing: MeasureFamily,
    market_prices: Mapping[str, Mapping[str, float]],
    strike: float,
    maturity: int,
    actual: MeasureFamily | None = None,
) -> ClaimBubbleReport:
    """Bubbles of the asset, forward, call, and put (market minus
    fundamental), with the relations: the forward bubble equals the asset
    bubble, and it cannot exceed the call-put bubble spread."""
    B = discount_factors(spec).values
    disc = _strike_discount(spec, maturity)
    kinds = (("asset", "forward", 0.0), ("forward", "forward", strike),
             ("euro_call", "euro_call", strike), ("euro_put", "euro_put", strike))
    star = {key: fundamental_claim_price(spec, pricing, Claim(kind, maturity, k), actual)
            for key, kind, k in kinds}
    market: dict[str, Mapping[str, float]] = dict(market_prices)
    if "asset" not in market:
        market["asset"] = {n: spec.price[n] / B[n] for n in star["asset"].values}
    if "forward" not in market:
        if disc is None:
            raise ValueError("need a forward price or path-independent strike discount")
        market["forward"] = {n: market["asset"][n] - strike * disc for n in market["asset"]}
    deltas: dict[str, dict[str, float]] = {}
    for key in ("asset", "forward", "euro_call", "euro_put"):
        if key not in market:
            raise ValueError(f"missing market prices for {key}")
        deltas[key] = {n: market[key][n] - star[key][n] for n in market[key] if n in star[key]}
    common = set(deltas["asset"]) & set(deltas["forward"])
    feq = all(abs(deltas["forward"][n] - deltas["asset"][n]) <= _CHECK_TOL for n in common)
    common2 = set(deltas["asset"]) & set(deltas["euro_call"]) & set(deltas["euro_put"])
    dom = all(deltas["asset"][n] <= deltas["euro_call"][n] - deltas["euro_put"][n] + _CHECK_TOL
              for n in common2)
    return ClaimBubbleReport(deltas=deltas, forward_equals_asset=feq, spread_dominates=dom)


@dataclass(frozen=True)
class AmericanResult:
    process: AdaptedProcess
    exercise: frozenset[str]


def american_fundamental_price(
    spec: MarketSpec, pricing: MeasureFamily, claim: Claim, actual: MeasureFamily | None = None
) -> AmericanResult:
    """Backward dynamic program for the American fundamental price: at each
    node the larger of immediate (discounted-strike) exercise and the upper
    expectation of continuing (``_backward``; no value at polar nodes). Ties
    exercise, so the exercise region is closed and deterministic."""
    x, mask, stop = _american_values(spec, pricing, claim, actual)
    return AmericanResult(AdaptedProcess(NodeValues(spec.tree, x, mask)),
                          frozenset(itertools.compress(spec.tree.level_order, stop.tolist())))


def _american_values(
    spec: MarketSpec, pricing: MeasureFamily, claim: Claim, actual: MeasureFamily | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The American DP as a whole-tree array, its result mask and its exercise mask."""
    if claim.kind not in ("amer_call", "amer_put"):
        raise ValueError("american_fundamental_price prices amer_call / amer_put")
    validate_claim(spec, claim, actual)
    tree, T = spec.tree, claim.maturity
    p, end = spec.processes, tree.level_starts[T + 1]
    floor = _exercise(claim, p.S[:end], p.B[:end])  # times 0..T, as ``_intrinsic`` per level
    runs = _runs(tree, tree.root, T)
    x, stop = np.zeros(len(tree)), np.zeros(len(tree), bool)
    lo, hi = runs[-1]
    x[lo:hi], stop[lo:hi] = floor[lo:hi], True
    return _backward(pricing, x, runs, floor=floor, stop=stop), _valued(pricing, runs), stop


@dataclass(frozen=True)
class AmericanBoundsReport:
    fundamental_ok: bool
    fundamental_worst: float
    market_ok: bool | None
    market_worst: float | None
    per_node: dict[str, tuple[float, float, float]]  # CE*, CA*, asset bubble


def american_bounds(
    spec: MarketSpec,
    pricing: MeasureFamily,
    strike: float,
    maturity: int,
    market_prices: Mapping[str, Mapping[str, float]] | None = None,
    actual: MeasureFamily | None = None,
) -> AmericanBoundsReport:
    """American call bounds: the European value from below, the European
    value plus the asset bubble from above; and the same squeeze shifted by
    claim bubbles for market prices when those are supplied."""
    euro, mask = _claim_values(spec, pricing, Claim("euro_call", maturity, strike), actual)
    amer = _american_values(spec, pricing, Claim("amer_call", maturity, strike), actual)[0]
    fwd = _claim_values(spec, pricing, Claim("forward", maturity, 0.0), actual)[0]
    idx = spec.tree.preorder_index[mask[spec.tree.preorder_index]]  # valued nodes, in preorder
    ids = map(spec.tree.level_order.__getitem__, idx.tolist())
    ce, ca = euro[idx], amer[idx]
    d = spec.processes.S[idx] - fwd[idx]  # the asset bubble
    lower_slack, upper_slack = ca - ce, ce + d - ca
    # the builtin min of 0.0 and every slack, as a left fold: NaN skipped, 0.0 kept over -0.0
    worst = min(0.0, np.fmin.reduce(np.concatenate((lower_slack, upper_slack))).item())
    ok = not ((lower_slack < -_CHECK_TOL) | (upper_slack < -_CHECK_TOL)).any()
    per_node = dict(zip(ids, zip(ce.tolist(), ca.tolist(), d.tolist())))

    market_ok = market_worst = None
    if market_prices is not None:
        missing = [k for k in ("euro_call", "euro_put", "amer_call") if k not in market_prices]
        if missing:
            raise ValueError(f"missing market prices for {missing}")
        ca_m, ce_m, ep_m = (market_prices[k] for k in ("amer_call", "euro_call", "euro_put"))
        euro_put = fundamental_claim_price(spec, pricing, Claim("euro_put", maturity, strike), actual)
        market_ok, market_worst = True, 0.0
        for n in filter(per_node.__contains__, ca_m):
            if n in ce_m and n in ep_m:
                ce, ca = per_node[n][:2]
                d_ac, d_ec, d_ep = ca_m[n] - ca, ce_m[n] - ce, ep_m[n] - euro_put[n]
                lower_slack = ca_m[n] - (ce_m[n] + d_ac - d_ec)
                upper_slack = (ce_m[n] + d_ac - d_ep) - ca_m[n]
                market_worst = min(market_worst, lower_slack, upper_slack)
                market_ok = market_ok and not (lower_slack < -_CHECK_TOL or upper_slack < -_CHECK_TOL)
    return AmericanBoundsReport(ok, worst, market_ok, market_worst, per_node)
