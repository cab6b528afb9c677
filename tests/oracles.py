"""Global linear programs over the leaf-gain matrix, kept as test oracles.

Every question ``bubbletree.noarb`` answers is local: one one-step test per
node decides between an arbitrage and the supermartingale family, and the
superhedge is one backward step per level. The functions here answer the same
questions globally, as one LP each over every node's holding and every
charged leaf, which is what ``noarb`` solved before its one-step passes:

* ``find_arbitrage_lp``: an arbitrage certificate, or None;
* ``maximal_support``: the leaves some supermartingale measure charges;
* ``superhedge_lp``: the superhedge price, holdings and slack.

They solve with HiGHS through ``noarb.linprog``, looked up at each call, so
a test that counts or replaces that binding sees every solve; scipy is
imported on the first one.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from bubbletree import noarb
from bubbletree.ambiguity import MeasureFamily, charged_leaves
from bubbletree.lattice import MarketSpec, Strategy, require_valid, wealth_process
from bubbletree.noarb import (
    _GAIN_TOL,
    ArbitrageCertificate,
    HedgeSolution,
    UnboundedHedgeError,
    _certificate,
)

LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-8,
    "dual_feasibility_tolerance": 1e-8,
}


def gain_rows(spec: MarketSpec, leaves: Sequence[str]):
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


def find_arbitrage_lp(
    spec: MarketSpec, actual: MeasureFamily | None = None
) -> ArbitrageCertificate | None:
    """Maximize total terminal gain over nonnegative holdings boxed to
    [0, 1], subject to nonnegative gains on every charged leaf. An optimum
    above the LP's tolerance is an arbitrage, scaled as ``find_arbitrage`` scales."""
    require_valid(spec)
    leaves = charged_leaves(actual, spec.tree)
    cols, rows, _ = gain_rows(spec, leaves)
    if not cols or not leaves:
        return None
    res = noarb.linprog(
        -rows.sum(axis=0),
        A_ub=-rows,
        b_ub=np.zeros(len(leaves)),
        bounds=[(0.0, 1.0)] * len(cols),
        method="highs",
        options=LP_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"arbitrage LP failed: {res.message}")
    if -res.fun <= LP_OPTIONS["primal_feasibility_tolerance"]:
        return None
    x = np.maximum(res.x, 0.0)
    top = (rows @ x).max()
    units = 1.0 if top > _GAIN_TOL else 2.0 * _GAIN_TOL / top
    pi = {n: float(v) for n, v in zip(cols, (x * units).tolist())}
    return _certificate(spec, leaves, Strategy(pi))


def maximal_support(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    res = noarb.linprog(
        np.concatenate([np.zeros(n), -np.ones(n)]),
        A_ub=A_ub,
        b_ub=np.zeros(A_ub.shape[0]),
        bounds=[(0.0, None)] * n + [(0.0, 1.0)] * n,
        method="highs",
        options=LP_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"maximal-support LP failed: {res.message}")
    return np.maximum(res.x[:n], 0.0), res.x[n:] > 0.5


def superhedge_lp(
    spec: MarketSpec,
    payoff: Mapping[str, float],
    actual: MeasureFamily | None = None,
) -> HedgeSolution:
    """``superhedge`` as one LP over the initial capital and every node's
    holding, with one dominance constraint per charged leaf."""
    require_valid(spec)
    leaves = charged_leaves(actual, spec.tree)
    cols, rows, _ = gain_rows(spec, leaves)
    n_pi = len(cols)
    # variables: x, pi...; constraints -x - gains <= -payoff
    A_ub = np.hstack([-np.ones((len(leaves), 1)), -rows]) if n_pi else -np.ones((len(leaves), 1))
    b_ub = np.array([-float(payoff[l]) for l in leaves])
    c = np.zeros(1 + n_pi)
    c[0] = 1.0
    res = noarb.linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(None, None)] + [(0.0, None)] * n_pi,
        method="highs",
        options=LP_OPTIONS,
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
