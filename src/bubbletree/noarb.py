"""Arbitrage detection, the arbitrage / risk-neutral-family equivalence
check, and the superhedging primal/dual pair.

With nonnegative holdings on a finite tree every question here is local. A
market admits an arbitrage iff some charged node admits a one-step one:
holding the asset over that step gains on some charged child and loses on
none; one array pass over the tree tests every node. Otherwise the cut of
supermartingale transitions at each charged node reaches all its charged
children: the cuts form the set of all measures under which discounted
wealth is a supermartingale (a ``RectangularFamily``), and the average vertex
at each node gives one product measure charging every charged leaf. The
superhedging price follows the one-step recursion ``V_n = min_{pi >= 0}
max_c [V_c - pi (W_c - W_n)]``, which is the upper expectation over those
cuts, stepped like every other one: against the discovered family the
duality gap is 0 by construction; only a file-given family leaves a gap.

That test (``_cuts``) runs once per market and ``actual`` family, kept in
``MarketSpec.memo``: every entry point here, and the bubble property checks,
read that one pass.

The global linear programs over the leaf-gain matrix are the tests' reference
implementations (``tests/oracles.py``); with the per-node recursion of
``tests/per_node.py`` they are the independent checks of the hedge. They
solve with HiGHS through ``linprog``, the one solver binding here, which no
library code calls: importing bubbletree or running a command loads no solver.
"""
from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .ambiguity import (
    _STEP_TOL,
    CHARGE_TOL,
    CLASSIFY_TOL,
    CutSets,
    ExplicitFamily,
    MeasureFamily,
    RectangularFamily,
    _cut_step,
    _push_mass,
    charged_leaves,
    classify_process,
    cond_expectation,
)
from .lattice import (
    MarketSpec,
    NodeValues,
    Strategy,
    gains_process,
    require_valid,
)


_GAIN_TOL = 1e-6  # the least witness gain of an arbitrage certificate
_LOSS_TOL = 1e-9  # the largest loss a certificate may show at a charged leaf


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
    gains: dict[str, float]

    def revalidate(self, spec: MarketSpec, leaves: Sequence[str]) -> bool:
        """Re-check the certificate by direct evaluation of its gains."""
        if any(p < 0 for p in self.strategy.pi.values()):
            return False
        g = gains_process(spec, self.strategy).gains.values
        if any(g[leaf] < -_LOSS_TOL for leaf in leaves):
            return False
        return g[self.witness] > _GAIN_TOL


@dataclass(frozen=True)
class HedgeSolution:
    price: float
    strategy: Strategy
    slack: Mapping[str, float]


@dataclass(frozen=True)
class FtapReport:
    """Outcome of the no-arbitrage / risk-neutral-family equivalence check
    over the ``actual`` family.

    Exactly one of ``arbitrage`` and ``family_found`` obtains: both come from
    the same one-step test at each charged node, and ``consistent`` records
    that the dichotomy held. ``pricing_family`` is the full supermartingale
    set in per-node vertex form (its convex hull is maximal, so superhedging
    duality is exact against it). ``witness_family`` holds the family's product
    measure (the average vertex at each node), plus a structural product
    measure for each leaf it leaves uncharged; ``search_agreement`` records
    that the product measure charged every charged leaf exactly when the family
    exists. Both are computed on first access.
    """

    arbitrage: ArbitrageCertificate | None
    pricing_family: RectangularFamily | None
    actual: MeasureFamily | None = None

    @property
    def no_arbitrage(self) -> bool:
        return self.arbitrage is None

    @property
    def family_found(self) -> bool:
        return self.pricing_family is not None

    @property
    def consistent(self) -> bool:
        return self.no_arbitrage == self.family_found

    @cached_property
    def _witness(self) -> tuple[ExplicitFamily | None, bool]:
        """The witness family, and whether the product measure charges every charged leaf."""
        family = self.pricing_family
        if family is None:
            return None, False
        leaves = charged_leaves(self.actual, family.tree)
        q = _product_witness(family)
        missed = [leaf for leaf in leaves if q[leaf] <= CHARGE_TOL]
        measures = [q] if len(missed) < len(leaves) else []
        measures.extend(_structural_leaf_measure(family, leaf) for leaf in missed)
        return ExplicitFamily(family.tree, tuple(measures)), not missed

    @property
    def witness_family(self) -> ExplicitFamily | None:
        return self._witness[0]

    @property
    def search_agreement(self) -> bool:
        return self._witness[1] == self.family_found


@dataclass(frozen=True)
class RobustPriceResult:
    value: float
    duality_gap: float
    hedge: HedgeSolution


def _cuts(spec: MarketSpec, actual: MeasureFamily | None):
    """The one-step test over ``actual``: the charged nodes and those of them
    where holding the asset over one step gains on some charged child and loses
    on none, as masks; ``lost``, the inner nodes with no charged child at or
    below their wealth; and the cuts over ``actual`` as a ``CutSets`` map, where
    a lost node, with no vertex of its own, has one at its first child. A node
    counts as charged if ``actual`` charges it and some charged leaf below it."""
    tree, off, par = spec.tree, spec.tree.child_offsets, spec.tree.parent_index[1:]
    W, n = spec.processes.W, len(tree)
    charged = np.ones(n, bool) if actual is None else actual.charged_mask
    if (charged & (off[1:] > off[:-1]) & (np.bincount(par, charged[1:], n) == 0)).any():
        charged, starts = charged.copy(), tree.level_starts
        for g, h, e in reversed(list(zip(starts[:-2], starts[1:-1], starts[2:]))):
            charged[g:h] &= np.bincount(par[h - 1 : e - 1] - g, charged[h:e], h - g) > 0
    gains = np.bincount(par, charged[1:] & (W[1:] > W[par] + _STEP_TOL), minlength=n)
    losses = np.bincount(par, charged[1:] & (W[1:] < W[par] - _STEP_TOL), minlength=n)
    wc = np.where(charged, W, np.nan)  # each node's wealth in its parent's cut
    lost = (off[1:] > off[:-1]) & (np.bincount(par, wc[1:] <= W[par] + _STEP_TOL, n) == 0)
    wc[off[:-1][lost]] = 0.0
    arbitrage = charged & (gains > 0) & (losses == 0)
    return charged, arbitrage, lost, CutSets(tree, np.where(lost, 0.0, W), wc)


def _pass(spec: MarketSpec, actual: MeasureFamily | None):
    """``_cuts(spec, actual)``, run once per spec and family object. An entry
    goes when its family does (no live family takes a dead one's id)."""
    key = ("noarb._cuts", id(actual))
    if key not in spec.memo:
        spec.memo[key] = _cuts(spec, actual)
        if actual is not None:
            weakref.finalize(actual, spec.memo.pop, key, None)
    return spec.memo[key]


def _certificate(
    spec: MarketSpec, leaves: Sequence[str], strategy: Strategy
) -> ArbitrageCertificate:
    """The strategy's gains on the charged ``leaves`` as a certificate, checked
    as ``ArbitrageCertificate.revalidate`` checks it."""
    gains = gains_process(spec, strategy).gains.values
    leaf_gains = {leaf: gains[leaf] for leaf in leaves}
    witness = max(leaf_gains, key=leaf_gains.__getitem__)
    if any(g < -_LOSS_TOL for g in leaf_gains.values()) or not leaf_gains[witness] > _GAIN_TOL:
        raise RuntimeError("arbitrage certificate failed direct re-validation")
    return ArbitrageCertificate(
        strategy=strategy,
        witness=witness,
        witness_gain=leaf_gains[witness],
        gains=leaf_gains,
    )


def find_arbitrage(
    spec: MarketSpec, actual: MeasureFamily | None = None
) -> ArbitrageCertificate | None:
    """Search for an arbitrage: the first charged node, in preorder, where
    holding the asset over one step gains on some charged child and loses on
    none. The certificate holds the asset at that node only, one unit or
    more if needed for the witness gain to clear ``_GAIN_TOL``. When no node
    qualifies, ``supermartingale_family`` finds a pricing family instead."""
    require_valid(spec)
    tree, W, (charged, arbitrage, _, _) = spec.tree, spec.processes.W, _pass(spec, actual)
    for g in tree.preorder_index[arbitrage[tree.preorder_index]][:1].tolist():
        kids = slice(tree.child_offsets[g], tree.child_offsets[g + 1])
        top = max(W[kids][charged[kids]].tolist()) - W[g].item()
        units = 1.0 if top > _GAIN_TOL else 2.0 * _GAIN_TOL / top
        leaves = charged_leaves(actual, tree)
        return _certificate(spec, leaves, Strategy({tree.level_order[g]: units}))
    return None


def supermartingale_family(
    spec: MarketSpec, actual: MeasureFamily | None = None
) -> RectangularFamily | None:
    """All measures under which discounted wealth is a supermartingale, as a
    ``CutSets`` map: per node the cut {p in simplex : sum p_c W(c) <= W(n)} over
    the charged children (unit vectors at children not above W(n), mixtures
    across it). None when a charged node admits a one-step arbitrage (the test
    of ``find_arbitrage``); else each charged child has a vertex charging it."""
    _, arbitrage, _, cuts = _pass(spec, actual)
    return None if arbitrage.any() else RectangularFamily(spec.tree, cuts)


def _structural_leaf_measure(
    family: RectangularFamily, leaf: str
) -> dict[str, float]:
    """Product measure pushing maximal mass toward one leaf, over the cuts' vertices: on the
    leaf's path each node's first vertex of most weight on the next node, elsewhere its first."""
    tree, w = family.tree, np.zeros(len(family.tree))
    path = tree.indices(tree.path(leaf)).tolist()
    on = dict(zip(path, path[1:]))  # each node on the path: the next one
    for g, (i, j) in enumerate(itertools.pairwise(tree.child_offsets.tolist())):
        if i < j:
            vertices = family.transitions[tree.level_order[g]].vertices
            w[i:j] = max(vertices, key=lambda v: v[on[g] - i]) if g in on else vertices[0]
    return _push_mass(tree, w)


def _product_witness(family: RectangularFamily) -> dict[str, float]:
    """Product measure of each node's average vertex (summed in vertex order) of a
    ``supermartingale_family``, per leaf: it charges every leaf the family does."""
    tree, cuts, par = family.tree, family.cuts, family.tree.parent_index
    weights = np.bincount(
        np.stack((cuts.a, cuts.b), 1).ravel(), np.stack((cuts.wa, cuts.wb), 1).ravel(), len(par)
    ) / np.concatenate(([1], (cuts.start[1:] - cuts.start[:-1])[par[1:]]))
    return _push_mass(tree, weights)


def verify_ftap(spec: MarketSpec, actual: MeasureFamily | None = None) -> FtapReport:
    """Run both sides of the equivalence, the arbitrage search and the
    supermartingale family, from the one one-step test of ``spec`` over
    ``actual``. The rectangular family is authoritative for existence (the
    reachable mass of a leaf can be legitimately tiny)."""
    return FtapReport(find_arbitrage(spec, actual), supermartingale_family(spec, actual), actual)


def superhedge(
    spec: MarketSpec,
    payoff: Mapping[str, float],
    actual: MeasureFamily | None = None,
) -> HedgeSolution:
    """Least initial capital whose gains under some nonnegative adapted
    holding dominate the payoff on every charged leaf.

    By one-step LP duality V_n = min_{pi >= 0} max_c [V_c - pi (W_c - W_n)],
    over the charged children with a finite V_c, is the upper expectation of
    V over the cut at n: one ``_cut_step`` per level, backward. A node with
    no finite value (no such child at or below W_n + ``_STEP_TOL``) holds
    NaN, which loses to a finite vertex; a NaN root is unbounded below.
    Forward from V_root, each node holds the least pi >= 0 that covers every
    child with a finite value, optimal where V_n is finite. ``slack`` is the
    terminal capital minus the payoff."""
    require_valid(spec)
    tree = spec.tree
    order, par, off, pre = tree.level_order, tree.parent_index, tree.child_offsets, tree.preorder_index
    W, (charged, _, lost, cuts) = spec.processes.W, _pass(spec, actual)
    inner = off[1:] > off[:-1]
    at = pre[(charged & ~inner)[pre]]  # the charged leaves, in preorder
    leaves = [order[g] for g in at.tolist()]
    if missing := [l for l in leaves if l not in payoff]:
        raise ValueError(f"payoff missing at leaves {missing}")

    V = np.full(len(order), np.nan)
    V[at] = np.fromiter(map(payoff.__getitem__, leaves), float, len(leaves))
    arrays, starts = cuts.arrays, tree.level_starts
    for g, h in reversed(list(zip(starts[:-2], starts[1:-1]))):  # the inner levels
        V[g:h] = np.where(lost[g:h], np.nan, _cut_step(arrays, g, h, V))
    price = V[0].item()
    if np.isnan(price):
        raise UnboundedHedgeError(
            "superhedge cost is unbounded below; the market admits a strong arbitrage"
        )

    X, pi = np.full(len(order), price), np.zeros(len(order))
    for t in range(tree.horizon):  # level t's children are level t + 1, h:e
        g, h, e = starts[t : t + 3]
        p, d = par[h:e], W[h:e] - W[par[h:e]]
        need = (V[h:e] - X[p]) / np.where(d > _STEP_TOL, d, np.nan)
        pi[g:h] = np.fmax(np.fmax.reduceat(need, off[g:h] - h), 0.0)
        X[h:e] = X[p] + pi[p] * d
    slack = NodeValues(tree, X - V, charged & ~inner)
    return HedgeSolution(price=price, strategy=Strategy(NodeValues(tree, pi, inner)), slack=slack)


def robust_price(
    spec: MarketSpec,
    pricing: MeasureFamily,
    payoff: Mapping[str, float],
    actual: MeasureFamily | None = None,
    tol: float = CLASSIFY_TOL,
) -> RobustPriceResult:
    """Upper expectation of the payoff under the pricing family, plus the gap
    to the superhedge cost. The family must price the market: wealth has to
    be a G-supermartingale under it."""
    classification = classify_process(pricing, spec.processes.W, tol=tol)
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


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: only the
    reference LPs of the tests solve through it, and importing scipy.optimize
    costs more than most commands' own work."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)
