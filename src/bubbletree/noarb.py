"""Arbitrage detection, the arbitrage / risk-neutral-family equivalence
check, and the superhedging primal/dual pair.

With nonnegative holdings on a finite tree every question here is local. A
market admits an arbitrage iff some charged node admits a one-step one:
holding the asset over that step gains on some charged child and loses on
none. Otherwise every charged node has supermartingale transitions reaching
all its charged children. Their per-node vertex lists form the set of all
measures under which discounted wealth is a supermartingale, returned as a
``RectangularFamily``, and the average vertex at each node gives one product
measure that charges every charged leaf. The superhedging price follows the
one-step recursion ``V_n = min_{pi >= 0} max_c [V_c - pi (W_c - W_n)]``; it
equals the upper expectation under that family, which the ordinary backward
recursion evaluates, so the duality is exact.

The global linear programs over the leaf-gain matrix (``_find_arbitrage_lp``,
``_maximal_support``, ``_superhedge_lp``) are kept as reference
implementations; the tests check the local passes against them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

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


# a one-step wealth change at most this large counts as zero
_STEP_TOL = 1e-12


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
        """Re-check the certificate by direct evaluation of its gains."""
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

    Exactly one of ``arbitrage`` and ``family_found`` obtains: both come from
    the same one-step test at each charged node, and ``consistent`` records
    that the dichotomy held. ``search_agreement`` records that the product
    witness measure charged every charged leaf exactly when the family
    exists. ``witness_family`` holds that product measure (the average
    vertex at each node), plus a structural product measure for each leaf it
    leaves uncharged; ``pricing_family`` is the full supermartingale set in
    per-node vertex form (its convex hull is maximal, so superhedging
    duality is exact against it).
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


def _charged_children(
    spec: MarketSpec, actual: MeasureFamily | None
) -> Iterator[tuple[str, Sequence[int] | None]]:
    """Per non-leaf, in preorder: the node and the indices of the children
    ``actual`` charges; None when it does not charge the node or charges
    none of its children. Without ``actual`` every node is charged."""
    tree = spec.tree
    charged = None if actual is None else actual.charged
    for n in tree.non_leaves():
        kids = tree.children(n)
        if charged is None:
            yield n, range(len(kids))
        elif n in charged:
            yield n, [i for i, c in enumerate(kids) if c in charged] or None
        else:
            yield n, None


def _one_step_arbitrage(wn: float, wk: Sequence[float]) -> bool:
    """Whether holding the asset over one step from wealth ``wn`` gains on
    some of the children's wealths ``wk`` and loses on none."""
    return any(w > wn + _STEP_TOL for w in wk) and all(w >= wn - _STEP_TOL for w in wk)


def _certificate(
    spec: MarketSpec, leaves: Sequence[str], strategy: Strategy
) -> ArbitrageCertificate:
    """The strategy's gains on the charged ``leaves`` as a certificate,
    re-validated by direct evaluation."""
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


def find_arbitrage(
    spec: MarketSpec, actual: MeasureFamily | None = None, gain_tol: float = 1e-6
) -> ArbitrageCertificate | None:
    """Search for an arbitrage: the first charged node, in preorder, where
    holding the asset over one step gains on some charged child and loses on
    none. The certificate holds the asset at that node only, one unit or
    more if needed for the witness gain to clear ``gain_tol``. When no node
    qualifies, ``supermartingale_family`` finds a pricing family instead."""
    require_valid(spec)
    tree = spec.tree
    W = wealth_process(spec).values
    for n, idx in _charged_children(spec, actual):
        if idx is None:
            continue
        kids = tree.children(n)
        wk = [W[kids[i]] for i in idx]
        if _one_step_arbitrage(W[n], wk):
            top = max(wk) - W[n]
            units = 1.0 if top > gain_tol else 2.0 * gain_tol / top
            return _certificate(spec, charged_leaves(actual, tree), Strategy({n: units}))
    return None


def supermartingale_family(
    spec: MarketSpec, actual: MeasureFamily | None = None
) -> RectangularFamily | None:
    """The set of all measures under which discounted wealth is a
    supermartingale, as per-node vertex lists over the charged children.

    Per node the set is {p in simplex : sum p_c W(c) <= W(n)}; its vertices
    sit on simplex edges, so they are unit vectors at children not above
    W(n) plus the binding mixtures of one child above with one below.
    Returns None when some charged node admits a one-step arbitrage (the
    test ``find_arbitrage`` uses); otherwise each charged child has a vertex
    giving it positive weight.
    """
    tree = spec.tree
    W = wealth_process(spec).values

    transitions: dict[str, TransitionSet] = {}
    for n, idx in _charged_children(spec, actual):
        kids = tree.children(n)
        if idx is None:
            w = [0.0] * len(kids)
            w[0] = 1.0
            transitions[n] = TransitionSet.vertex_set([w])
            continue
        wn = W[n]
        if _one_step_arbitrage(wn, [W[kids[i]] for i in idx]):
            return None
        vertices: list[list[float]] = []
        for i in idx:
            if W[kids[i]] <= wn + _STEP_TOL:
                v = [0.0] * len(kids)
                v[i] = 1.0
                vertices.append(v)
        for i in idx:
            wi = W[kids[i]]
            if wi <= wn + _STEP_TOL:
                continue
            for j in idx:
                wj = W[kids[j]]
                if wj >= wn - _STEP_TOL:
                    continue
                lam = (wn - wj) / (wi - wj)
                v = [0.0] * len(kids)
                v[i] = lam
                v[j] = 1.0 - lam
                vertices.append(v)
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


def _product_witness(family: RectangularFamily) -> dict[str, float]:
    """Product measure of each node's average vertex, per leaf in tree
    order. It gives every child some vertex reaches positive weight, so it
    charges every leaf the family charges (up to ``CHARGE_TOL``)."""
    tree = family.tree
    pick = {}
    for n in tree.non_leaves():
        vertices = family.transitions[n].vertex_list()
        pick[n] = [sum(col) / len(vertices) for col in zip(*vertices)]
    q = _push_mass(tree, pick)
    return {leaf: q[leaf] for leaf in tree.leaves}


def verify_ftap(spec: MarketSpec, actual: MeasureFamily | None = None) -> FtapReport:
    """Run both sides of the equivalence: the arbitrage search and the
    supermartingale family, from the same one-step test. The witness family
    is the family's product witness measure, plus the structural product
    witness for each charged leaf that measure leaves uncharged. The
    rectangular family is authoritative for existence (the reachable mass
    of a leaf can be legitimately tiny)."""
    tree = spec.tree
    cert = find_arbitrage(spec, actual)
    structural = supermartingale_family(spec, actual)
    found_all = structural is not None

    witness = None
    covered = False
    if found_all:
        leaves = charged_leaves(actual, tree)
        q = _product_witness(structural)
        missed = [leaf for leaf in leaves if q[leaf] <= CHARGE_TOL]
        covered = not missed
        measures = [q] if len(missed) < len(leaves) else []
        measures.extend(_structural_leaf_measure(structural, leaf) for leaf in missed)
        witness = ExplicitFamily(tree, tuple(measures), role="pricing")
    return FtapReport(
        arbitrage=cert,
        family_found=found_all,
        witness_family=witness,
        pricing_family=structural,
        consistent=(cert is None) == found_all,
        search_agreement=covered == found_all,
    )


def _min_max_line(lines: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """min over pi >= 0 of max_c (v_c - pi d_c), for lines (v_c, d_c) at
    least one of which has d_c <= 0, with a minimizing pi. The maximum is
    convex and piecewise linear, so the minimum sits at 0 or where two lines
    cross."""
    candidates = [0.0]
    for a, (va, da) in enumerate(lines):
        for vb, db in lines[a + 1:]:
            if da != db:
                p = (va - vb) / (da - db)
                if p > 0.0:
                    candidates.append(p)
    best_val, best_pi = math.inf, 0.0
    for p in candidates:
        val = max(v - p * d for v, d in lines)
        if val < best_val:
            best_val, best_pi = val, p
    return best_val, best_pi


def superhedge(
    spec: MarketSpec,
    payoff: Mapping[str, float],
    actual: MeasureFamily | None = None,
) -> HedgeSolution:
    """Least initial capital whose gains under some nonnegative adapted
    holding dominate the payoff on every charged leaf.

    Backward over the charged nodes, V_n = min_{pi >= 0} max_c [V_c - pi d_c]
    over the charged children c with finite V_c, where d_c = W_c - W_n and a
    step within ``_STEP_TOL`` of zero counts as zero. When every such d_c is
    positive, or no child is finite, holding more always helps and V_n is
    -inf. Forward from the root with capital V_root, each node holds the
    minimizing pi, or at a -inf node the least pi that covers every finite
    child. ``slack`` is the terminal capital minus the payoff."""
    require_valid(spec)
    tree = spec.tree
    leaves = charged_leaves(actual, tree)
    missing = [l for l in leaves if l not in payoff]
    if missing:
        raise ValueError(f"payoff missing at leaves {missing}")
    W = wealth_process(spec).values
    steps = [(n, [tree.children(n)[i] for i in idx])
             for n, idx in _charged_children(spec, actual) if idx is not None]

    # a node with no charged leaf below constrains nothing: value -inf
    V = {leaf: float(payoff[leaf]) for leaf in leaves}
    best_pi: dict[str, float] = {}
    for n, kids in reversed(steps):  # children before parents
        lines = []
        for c in kids:
            v = V.get(c, -math.inf)
            if v != -math.inf:
                d = W[c] - W[n]
                lines.append((v, 0.0 if abs(d) <= _STEP_TOL else d))
        if all(d > 0.0 for _, d in lines):
            V[n] = -math.inf
        else:
            V[n], best_pi[n] = _min_max_line(lines)
    price = V[tree.root]
    if price == -math.inf:
        raise UnboundedHedgeError(
            "superhedge cost is unbounded below; the market admits a strong arbitrage"
        )

    pi = dict.fromkeys(tree.non_leaves(), 0.0)
    X = {tree.root: price}
    for n, kids in steps:
        x, wn = X[n], W[n]
        p = best_pi.get(n)
        if p is None:  # V_n = -inf: every finite child has W_c - W_n > _STEP_TOL
            finite = [c for c in kids if V.get(c, -math.inf) != -math.inf]
            p = max([0.0] + [(V[c] - x) / (W[c] - wn) for c in finite])
        pi[n] = p
        for c in kids:
            X[c] = x + p * (W[c] - wn)
    slack = {l: float(X[l] - payoff[l]) for l in leaves}
    return HedgeSolution(price=price, strategy=Strategy(pi), slack=slack)


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


# -- global linear programs: reference implementations for the tests ----------

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-8,
    "dual_feasibility_tolerance": 1e-8,
}


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


def _find_arbitrage_lp(
    spec: MarketSpec, actual: MeasureFamily | None = None, gain_tol: float = 1e-6
) -> ArbitrageCertificate | None:
    """Maximize total terminal gain over nonnegative holdings boxed to
    [0, 1], subject to nonnegative gains on every charged leaf. Any positive
    optimum scales to an arbitrage."""
    require_valid(spec)
    leaves = charged_leaves(actual, spec.tree)
    cols, rows, _ = _gain_rows(spec, leaves)
    if not cols or not leaves:
        return None
    res = linprog(
        -rows.sum(axis=0),
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
    return _certificate(spec, leaves, Strategy(pi))


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


def _superhedge_lp(
    spec: MarketSpec,
    payoff: Mapping[str, float],
    actual: MeasureFamily | None = None,
) -> HedgeSolution:
    """``superhedge`` as one LP over the initial capital and every node's
    holding, with one dominance constraint per charged leaf."""
    require_valid(spec)
    leaves = charged_leaves(actual, spec.tree)
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
