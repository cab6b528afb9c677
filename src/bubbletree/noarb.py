"""Arbitrage detection, the arbitrage / risk-neutral-family equivalence
check, and the superhedging primal/dual pair.

Everything here reduces to small linear programs over the tree. The dual
object of the superhedge is the set of measures under which discounted wealth
is a supermartingale; on a tree that set factorizes into per-node transition
sets (a simplex cut by one halfspace each), so it is returned as a
``RectangularFamily`` and the sup-expectation side of the duality can be
evaluated by the ordinary backward recursion.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linprog

from .ambiguity import (
    CHARGE_TOL,
    ExplicitFamily,
    MeasureFamily,
    RectangularFamily,
    TransitionSet,
    _push_mass,
    charged_leaves,
    classify_process,
    cond_expectation,
)
from .lattice import (
    MarketSpec,
    Strategy,
    gains_process,
    require_valid,
    wealth_process,
)


_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-8,
    "dual_feasibility_tolerance": 1e-8,
}


class NotRiskNeutralError(ValueError):
    """The supplied pricing family does not make wealth a G-supermartingale."""


class UnboundedHedgeError(RuntimeError):
    """The superhedge cost is unbounded below (a strong arbitrage exists)."""


@dataclass(frozen=True)
class ArbitrageCertificate:
    """A nonnegative-holdings strategy whose terminal gains are nonnegative on
    every charged leaf and strictly positive on the witness leaf."""

    strategy: Strategy
    witness: str
    witness_gain: float
    total_gain: float
    gains: dict[str, float]

    def revalidate(self, spec: MarketSpec, leaves: Sequence[str], tol: float = 1e-9) -> bool:
        """Re-check the certificate by direct evaluation, not solver output."""
        if any(p < 0 for p in self.strategy.pi.values()):
            return False
        result = gains_process(spec, self.strategy)
        g = result.gains.values
        if any(g[leaf] < -tol for leaf in leaves):
            return False
        return g[self.witness] > 1e-6


@dataclass(frozen=True)
class HedgeSolution:
    price: float
    strategy: Strategy
    slack: dict[str, float]


@dataclass(frozen=True)
class FtapReport:
    """Outcome of the no-arbitrage / risk-neutral-family equivalence check.

    Exactly one of ``arbitrage`` and ``family_found`` should obtain; the
    ``consistent`` flag records that the dichotomy held, and
    ``search_agreement`` that the maximal-support LP charged every charged
    leaf exactly when the structural family exists. ``witness_family`` holds
    the one measure of the maximal-support LP, plus a structural product
    measure for each leaf that LP left uncharged; ``pricing_family`` is the
    full supermartingale set in per-node vertex form (its convex hull is
    maximal, so superhedging duality is exact against it).
    """

    arbitrage: ArbitrageCertificate | None
    family_found: bool
    witness_family: ExplicitFamily | None
    pricing_family: RectangularFamily | None
    consistent: bool
    search_agreement: bool

    @property
    def no_arbitrage(self) -> bool:
        return self.arbitrage is None


@dataclass(frozen=True)
class RobustPriceResult:
    value: float
    duality_gap: float
    hedge: HedgeSolution


def _gain_rows(spec: MarketSpec, leaves: Sequence[str]):
    """Per charged leaf, the terminal-gain coefficients of each node holding."""
    tree = spec.tree
    W = wealth_process(spec).values
    cols = tree.non_leaves()
    col_index = {n: j for j, n in enumerate(cols)}
    rows = np.zeros((len(leaves), len(cols)))
    for i, leaf in enumerate(leaves):
        path = tree.path(leaf)
        for a, b in zip(path, path[1:]):
            rows[i, col_index[a]] += W[b] - W[a]
    return cols, rows, W


def find_arbitrage(
    spec: MarketSpec, actual: MeasureFamily | None = None, gain_tol: float = 1e-6
) -> ArbitrageCertificate | None:
    """Search for an arbitrage: maximize total terminal gain over nonnegative
    holdings boxed to [0, 1], subject to nonnegative gains on every charged
    leaf. Any positive optimum scales to an arbitrage."""
    require_valid(spec)
    leaves = charged_leaves(actual, spec.tree)
    cols, rows, _ = _gain_rows(spec, leaves)
    if not cols or not leaves:
        return None
    c = -rows.sum(axis=0)
    res = linprog(
        c,
        A_ub=-rows,
        b_ub=np.zeros(len(leaves)),
        bounds=[(0.0, 1.0)] * len(cols),
        method="highs",
        options=_LP_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"arbitrage LP failed: {res.message}")
    if -res.fun <= gain_tol:
        return None
    pi = {n: float(max(x, 0.0)) for n, x in zip(cols, res.x)}
    strategy = Strategy(pi)
    gains = gains_process(spec, strategy).gains.values
    leaf_gains = {leaf: gains[leaf] for leaf in leaves}
    witness = max(leaf_gains, key=lambda k: leaf_gains[k])
    cert = ArbitrageCertificate(
        strategy=strategy,
        witness=witness,
        witness_gain=leaf_gains[witness],
        total_gain=sum(leaf_gains.values()),
        gains=leaf_gains,
    )
    if not cert.revalidate(spec, leaves):
        raise RuntimeError("arbitrage certificate failed direct re-validation")
    return cert


def supermartingale_family(
    spec: MarketSpec, actual: MeasureFamily | None = None
) -> RectangularFamily | None:
    """The set of all measures under which discounted wealth is a
    supermartingale, as per-node vertex lists over the charged children.

    Per node the set is {p in simplex : sum p_c W(c) <= W(n)}; its vertices
    sit on simplex edges, so they are unit vectors at children not above
    W(n) plus the binding mixtures of one child above with one below.
    Returns None when some charged node admits no such transition or some
    charged leaf cannot receive mass (then an arbitrage exists instead).
    """
    tree = spec.tree
    W = wealth_process(spec).values
    charged = frozenset(tree.preorder()) if actual is None else actual.charged

    transitions: dict[str, TransitionSet] = {}
    for n in tree.non_leaves():
        kids = tree.children(n)
        if n not in charged:
            w = [0.0] * len(kids)
            w[0] = 1.0
            transitions[n] = TransitionSet.vertex_set([w])
            continue
        idx = [i for i, c in enumerate(kids) if c in charged]
        wn = W[n]
        vertices: list[list[float]] = []
        for i in idx:
            if W[kids[i]] <= wn + 1e-12:
                v = [0.0] * len(kids)
                v[i] = 1.0
                vertices.append(v)
        for i in idx:
            wi = W[kids[i]]
            if wi <= wn + 1e-12:
                continue
            for j in idx:
                wj = W[kids[j]]
                if wj >= wn - 1e-12:
                    continue
                lam = (wn - wj) / (wi - wj)
                v = [0.0] * len(kids)
                v[i] = lam
                v[j] = 1.0 - lam
                vertices.append(v)
        if not vertices:
            return None
        reachable = [any(v[i] > CHARGE_TOL for v in vertices) for i in range(len(kids))]
        if any(c in charged and not reachable[i] for i, c in enumerate(kids)):
            return None
        transitions[n] = TransitionSet.vertex_set(vertices)
    return RectangularFamily(tree, transitions, role="pricing")


def _structural_leaf_measure(
    family: RectangularFamily, leaf: str
) -> dict[str, float]:
    """Product measure pushing maximal mass toward one leaf."""
    tree = family.tree
    path = set(tree.path(leaf))
    pick = {}
    for n in tree.non_leaves():
        vertices = family.transitions[n].vertex_list()
        if n in path:
            (target,) = [i for i, c in enumerate(tree.children(n)) if c in path]
            pick[n] = max(vertices, key=lambda v: v[target])
        else:
            pick[n] = vertices[0]
    return _push_mass(tree, pick)


def _maximal_support(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LP for a supermartingale measure of maximal support.

    ``rows`` holds one leaf-gain row per charged leaf, so A = rows.T gives
    the cone {q >= 0 : A q <= 0} of unnormalized supermartingale measures
    over those leaves. Maximizing sum(y) subject to y <= q and 0 <= y <= 1
    puts y = 1 on every leaf some measure of the cone charges (the cone is
    closed under addition, so one q charges all of them at once) and y = 0
    elsewhere. Returns q and the mask of charged leaves."""
    n = rows.shape[0]
    eye = np.eye(n)
    A_ub = np.block([[rows.T, np.zeros_like(rows.T)], [-eye, eye]])
    res = linprog(
        np.concatenate([np.zeros(n), -np.ones(n)]),
        A_ub=A_ub,
        b_ub=np.zeros(A_ub.shape[0]),
        bounds=[(0.0, None)] * n + [(0.0, 1.0)] * n,
        method="highs",
        options=_LP_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"maximal-support LP failed: {res.message}")
    return np.maximum(res.x[:n], 0.0), res.x[n:] > 0.5


def verify_ftap(spec: MarketSpec, actual: MeasureFamily | None = None) -> FtapReport:
    """Run both sides of the equivalence: the arbitrage search and the
    maximal-support LP over the same leaf-gain matrix. The witness family is
    that LP's measure, normalized, plus the structural product witness for
    each leaf the LP leaves uncharged while the structural family reaches
    it. The full supermartingale set is assembled structurally as a
    rectangular family and is authoritative for existence (the reachable
    mass of a leaf can be legitimately tiny)."""
    tree = spec.tree
    cert = find_arbitrage(spec, actual)
    leaves = charged_leaves(actual, tree)
    _, rows, _ = _gain_rows(spec, leaves)
    q, charged = _maximal_support(rows)
    structural = supermartingale_family(spec, actual)
    found_all = structural is not None

    witness = None
    if found_all:
        measures: list[dict[str, float]] = []
        if charged.any():
            mass = dict(zip(leaves, (q / q.sum()).tolist()))
            measures.append({l: mass.get(l, 0.0) for l in tree.leaves})
        measures.extend(
            _structural_leaf_measure(structural, leaf)
            for leaf, hit in zip(leaves, charged)
            if not hit
        )
        witness = ExplicitFamily(tree, tuple(measures), role="pricing")
    return FtapReport(
        arbitrage=cert,
        family_found=found_all,
        witness_family=witness,
        pricing_family=structural,
        consistent=(cert is None) == found_all,
        search_agreement=bool(charged.all()) == found_all,
    )


def superhedge(
    spec: MarketSpec,
    payoff: Mapping[str, float],
    actual: MeasureFamily | None = None,
) -> HedgeSolution:
    """Least initial capital whose gains under some nonnegative adapted
    holding dominate the payoff on every charged leaf."""
    require_valid(spec)
    tree = spec.tree
    leaves = charged_leaves(actual, tree)
    missing = [l for l in leaves if l not in payoff]
    if missing:
        raise ValueError(f"payoff missing at leaves {missing}")
    cols, rows, _ = _gain_rows(spec, leaves)
    n_pi = len(cols)
    # variables: x, pi...; constraints -x - gains <= -payoff
    A_ub = np.hstack([-np.ones((len(leaves), 1)), -rows]) if n_pi else -np.ones((len(leaves), 1))
    b_ub = np.array([-float(payoff[l]) for l in leaves])
    c = np.zeros(1 + n_pi)
    c[0] = 1.0
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(None, None)] + [(0.0, None)] * n_pi,
        method="highs",
        options=_LP_OPTIONS,
    )
    if res.status == 3:
        raise UnboundedHedgeError(
            "superhedge cost is unbounded below; the market admits a strong arbitrage"
        )
    if res.status != 0:
        raise RuntimeError(f"superhedge LP failed: {res.message}")
    x = float(res.x[0])
    pi = {n: float(max(v, 0.0)) for n, v in zip(cols, res.x[1:])}
    gains = rows @ res.x[1:] if n_pi else np.zeros(len(leaves))
    slack = {l: float(x + g - payoff[l]) for l, g in zip(leaves, gains)}
    return HedgeSolution(price=x, strategy=Strategy(pi), slack=slack)


def robust_price(
    spec: MarketSpec,
    pricing: MeasureFamily,
    payoff: Mapping[str, float],
    actual: MeasureFamily | None = None,
    tol: float = 1e-9,
) -> RobustPriceResult:
    """Upper expectation of the payoff under the pricing family, plus the gap
    to the superhedge cost. The family must price the market: wealth has to
    be a G-supermartingale under it."""
    W = wealth_process(spec)
    classification = classify_process(pricing, W, tol=tol)
    if not classification.satisfies("G_supermartingale"):
        raise NotRiskNeutralError(
            "wealth is not a G-supermartingale under the supplied pricing family "
            f"(classified {classification.strongest}, "
            f"slack {classification.supermartingale_slack:.3g})"
        )
    value = cond_expectation(pricing, dict(payoff), spec.tree.root, "upper")
    hedge = superhedge(spec, payoff, actual)
    return RobustPriceResult(
        value=float(value),
        duality_gap=abs(hedge.price - value),
        hedge=hedge,
    )
