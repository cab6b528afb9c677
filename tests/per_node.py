"""The per-node passes that whole-tree arrays replaced, kept as ``==`` oracles.

Each function is what ``bubbletree`` computed one node at a time, in
preorder, before the one-step test (``noarb._cuts``), the
supermartingale family, ``RectangularFamily.charged``, the product witness
and the one-step bounds (``ambiguity._step_rows``, as a map: ``step_bounds``)
ran on ``EventTree.level_order`` arrays. The supermartingale family here is
the explicit vertex list of each node's cut. The tests hold the array passes
to these results, bit for bit.

``superhedge`` is the dict-based recursion that ``noarb.superhedge`` ran
before it stepped through the cut arrays: per node, the minimum over pi of
the maximum of lines, from pairwise crossings. It takes no float operation
from the cut kernel, so the tests hold the kernel's hedge price to it
within 1e-12 relative, not bit for bit.

``derived``, ``stopped_price``, ``alive_horizon``, ``level_prices`` and
``cash_events`` are the preorder loops of ``MarketSpec`` before it computed
the market's processes as level-order arrays (``MarketSpec.processes``);
``derived`` gives what ``lattice.tau_node_map``, ``discount_factors``,
``cumulative_dividends`` and ``wealth_process`` give now.
``strategy_eta`` is the loop of ``lattice`` that read them, and
``gains_process`` the two preorder loops of ``lattice.gains_process``
before it stepped one level at a time over ``MarketSpec.processes``.

``upper_sweep`` and ``american_values`` are the claim and cash-flow
recursions one node at a time (``TransitionSet.maximize`` per node, or the
explicit passes below), keyed in preorder as the library's ``NodeValues``
results are; ``hedge_slack`` replays a hedge's price and holdings down each
path, node by node, to its terminal capital minus the payoff.

``check_bubble_properties`` is ``bubble.check_bubble_properties`` as it
read the bubble node by node: the charged nodes' values in preorder, and for
persistence a walk down each zero-bubble node's subtree to its first
positive bubble (O(n * depth)), before it took one ``searchsorted`` over the
preorder runs of ``EventTree.subtree_size``.

The ``explicit_*`` functions are the per-node passes of explicit families
before they went through ``ambiguity._backward``: masses by a walk up each
leaf's path, a conditional expectation as each measure's sum over the
node's descendants at the target time, the claim values, W* and the
classification node by node (and horizon by horizon), and the American
price as each measure's Snell envelope on unnormalized masses, node by node.

``vertex_list`` lists a transition set's extreme points, for a box the
greedy fills over every child ordering. ``push_mass`` is the depth-first
walk that pushed a product of per-node transition vectors down to the
leaves before ``ambiguity._push_mass`` took one level at a time; the
measures built on it are ``product_witness``, ``argmax_measure`` (each
node's maximizer, node by node) and ``structural_leaf_measure`` (the
vertices ``noarb._structural_leaf_measure`` picks, picked per node).
``enumerate_extreme_measures`` lists the products of every node's vertices
as leaf measures, whose hull is a rectangular family's set of path measures.
``american_oracle`` prices an American claim by brute force: every stopping
rule (``_stopping_rules``, counted by ``_stopping_rule_count``) under every
extreme measure of the family (``enumerate_extreme_measures``).
"""
from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from bubbletree.ambiguity import (
    _STEP_TOL,
    CHARGE_TOL,
    Classification,
    ExplicitFamily,
    MeasureFamily,
    PolarNodeError,
    RectangularFamily,
    TransitionSet,
    _level_values,
    _step_rows,
    charged_leaves,
)
from bubbletree.bubble import BubblePropertyReport, _no_dividends
from bubbletree.claims import Claim, _intrinsic, terminal_payoff, validate_claim
from bubbletree.lattice import (
    AdaptedProcess,
    EventTree,
    GainsResult,
    MarketSpec,
    ShortSaleViolationError,
    Strategy,
    cash_flow_payoff,
    require_valid,
    wealth_process,
)
from bubbletree.noarb import (
    _GAIN_TOL,
    ArbitrageCertificate,
    HedgeSolution,
    UnboundedHedgeError,
    _certificate,
    _pass,
)


class CapExceededError(RuntimeError):
    """An enumeration grew past its configured cap."""


class Derived(NamedTuple):
    """Per-node processes of a valid market, keyed in preorder: the tau node on
    each path, the account value B, collected discounted dividends and wealth."""

    taumap: dict[str, str | None]
    B: dict[str, float]
    cum: dict[str, float]
    W: dict[str, float]


def subtree_leaves(tree: EventTree, node: str) -> tuple[str, ...]:
    """The leaves of ``node``'s subtree, in preorder."""
    return tuple(n for n in tree.subtree(node) if tree.is_leaf(n))


def vertex_list(ts: TransitionSet, cap: int = 4096) -> tuple[tuple[float, ...], ...]:
    """Extreme points. For a box these are the greedy fills over all child
    orderings (every vertex maximizes some linear functional)."""
    if ts.vertices is not None:
        return ts.vertices
    k = len(ts.lower)
    if math.prod(range(1, k + 1)) > cap:
        raise CapExceededError(f"vertex enumeration over {k} children exceeds cap")
    seen = set()
    out = []
    for order in itertools.permutations(range(k)):
        p = list(ts.lower)
        rem = 1.0 - sum(p)
        for i in order:
            if rem <= 0.0:
                break
            add = min(ts.upper[i] - ts.lower[i], rem)
            p[i] += add
            rem -= add
        key = tuple(round(x, 15) for x in p)
        if key not in seen:
            seen.add(key)
            out.append(tuple(p))
    return tuple(out)


def step_bounds(
    family: RectangularFamily, process: Mapping[str, float] | np.ndarray, T: int
) -> dict[str, tuple[float, float, float]]:
    """``ambiguity._step_rows`` as a map of node to (value, upper, lower), in preorder."""
    node, *rows = _step_rows(family, *_level_values(family.tree, process), T)
    ids = map(family.tree.level_order.__getitem__, node.tolist())
    return dict(zip(ids, zip(*(r.tolist() for r in rows))))


def charged(family: MeasureFamily) -> frozenset[str]:
    """Nodes on whose path every step is in its transition set's support
    (rectangular), or that some measure charges (explicit)."""
    if not isinstance(family, RectangularFamily):
        return family.charged
    tree = family.tree
    out = {tree.root}
    for n in tree.non_leaves():  # preorder: parents before children
        if n in out:
            support = family.transitions[n].support()
            out.update(c for c, s in zip(tree.children(n), support) if s)
    return frozenset(out)


def charged_children(
    spec: MarketSpec, actual: MeasureFamily | None
) -> Iterator[tuple[str, Sequence[int] | None]]:
    """Per non-leaf, in preorder: the node and the indices of the children
    ``actual`` charges; None when it does not charge the node or charges
    none of its children. Without ``actual`` every node is charged."""
    tree = spec.tree
    on = None if actual is None else charged(actual)
    for n in tree.non_leaves():
        kids = tree.children(n)
        if on is None:
            yield n, range(len(kids))
        elif n in on:
            yield n, [i for i, c in enumerate(kids) if c in on] or None
        else:
            yield n, None


def one_step_arbitrage(wn: float, wk: Sequence[float]) -> bool:
    """Whether holding the asset over one step from wealth ``wn`` gains on
    some of the children's wealths ``wk`` and loses on none."""
    return any(w > wn + _STEP_TOL for w in wk) and all(w >= wn - _STEP_TOL for w in wk)


def find_arbitrage(
    spec: MarketSpec, actual: MeasureFamily | None = None
) -> ArbitrageCertificate | None:
    """The first charged node, in preorder, that admits a one-step
    arbitrage, as a certificate holding the asset there only."""
    require_valid(spec)
    tree = spec.tree
    W = wealth_process(spec).values
    leaves = tuple(leaf for leaf in tree.leaves if actual is None or leaf in charged(actual))
    for n, idx in charged_children(spec, actual):
        if idx is None:
            continue
        kids = tree.children(n)
        wk = [W[kids[i]] for i in idx]
        if one_step_arbitrage(W[n], wk):
            top = max(wk) - W[n]
            units = 1.0 if top > _GAIN_TOL else 2.0 * _GAIN_TOL / top
            return _certificate(spec, leaves, Strategy({n: units}))
    return None


def supermartingale_family(
    spec: MarketSpec, actual: MeasureFamily | None = None
) -> RectangularFamily | None:
    """Per node the vertex list of {p in simplex : sum p_c W(c) <= W(n)}
    over the charged children: unit vectors at children not above W(n),
    then the binding mixtures of one child above with one below. None when
    some charged node admits a one-step arbitrage."""
    tree = spec.tree
    W = wealth_process(spec).values
    transitions: dict[str, TransitionSet] = {}
    for n, idx in charged_children(spec, actual):
        kids = tree.children(n)
        if idx is None:
            w = [0.0] * len(kids)
            w[0] = 1.0
            transitions[n] = TransitionSet.vertex_set([w])
            continue
        wk = [W[c] for c in kids]
        if one_step_arbitrage(W[n], [wk[i] for i in idx]):
            return None
        transitions[n] = TransitionSet.vertex_set(cut_vertices(W[n], wk, idx))
    return RectangularFamily(tree, transitions)


def cut_vertices(wn: float, wk: Sequence[float], idx: Sequence[int]) -> list[list[float]]:
    """The vertices of the cut at wealth ``wn`` over the children ``idx``
    of wealths ``wk``: a unit vector at each child not above ``wn``, then
    for each child above, its mixture with ``wn`` from each child below."""
    vertices: list[list[float]] = []
    for i in idx:
        if wk[i] <= wn + _STEP_TOL:
            v = [0.0] * len(wk)
            v[i] = 1.0
            vertices.append(v)
    for i in idx:
        wi = wk[i]
        if wi <= wn + _STEP_TOL:
            continue
        for j in idx:
            wj = wk[j]
            if wj >= wn - _STEP_TOL:
                continue
            lam = (wn - wj) / (wi - wj)
            v = [0.0] * len(wk)
            v[i] = lam
            v[j] = 1.0 - lam
            vertices.append(v)
    return vertices


def product_witness(family: RectangularFamily) -> dict[str, float]:
    """Product measure of each node's average vertex, per leaf in tree
    order. Each child's weights are added left to right in vertex order, as
    ``sum`` adds floats before Python 3.12 (from 3.12 on it compensates)."""
    tree = family.tree
    pick = {}
    for n in tree.non_leaves():
        vertices = vertex_list(family.transitions[n])
        pick[n] = [left_sum(col) / len(vertices) for col in zip(*vertices)]
    q = push_mass(tree, pick)
    return {leaf: q[leaf] for leaf in tree.leaves}


def push_mass(tree: EventTree, pick: Mapping[str, Sequence[float]]) -> dict[str, float]:
    """Leaf measure of the product of one transition vector per non-leaf, depth
    first from the root: a child's mass is its parent's times its weight."""
    q: dict[str, float] = {}
    stack = [(tree.root, 1.0)]
    while stack:
        n, mass = stack.pop()
        kids = tree.children(n)
        if not kids:
            q[n] = mass
            continue
        for w, c in zip(pick[n], kids):
            stack.append((c, mass * w))
    return q


def argmax_measure(family: RectangularFamily, payoff: Mapping[str, float]) -> dict[str, float]:
    """A measure attaining the upper expectation of a leaf payoff: each node's
    ``maximize`` of its children's values, from the leaves up, pushed down."""
    tree, value, pick = family.tree, dict(payoff), {}
    for n in reversed(tree.preorder()):
        if not tree.is_leaf(n):
            value[n], pick[n] = family.transitions[n].maximize([value[c] for c in tree.children(n)])
    return push_mass(tree, pick)


def structural_leaf_measure(family: RectangularFamily, leaf: str) -> dict[str, float]:
    """Product measure of each node's first vertex, or on ``leaf``'s path its
    first vertex of most weight on the path's next node."""
    tree = family.tree
    path = set(tree.path(leaf))
    pick = {}
    for n in tree.non_leaves():
        vertices = family.transitions[n].vertices
        if n in path:
            (target,) = [i for i, c in enumerate(tree.children(n)) if c in path]
            pick[n] = max(vertices, key=lambda v: v[target])
        else:
            pick[n] = vertices[0]
    return push_mass(tree, pick)


def left_sum(xs: Sequence[float]) -> float:
    total = 0.0
    for x in xs:
        total += x
    return total


def one_step_bounds(
    family: RectangularFamily, process: Mapping[str, float], T: int
) -> dict[str, tuple[float, float, float]]:
    """(value, upper, lower) one-step expectations, by ``maximize``, at each
    charged node before ``T`` with a transition set and all children in
    ``process``, in preorder."""
    tree, on = family.tree, charged(family)
    out = {}
    for n in tree.non_leaves():
        kids = tree.children(n)
        ts = family.transitions.get(n)
        if tree.time(n) >= T or n not in process or n not in on or ts is None:
            continue
        if all(c in process for c in kids):
            vals = [float(process[c]) for c in kids]
            up, low = ts.maximize(vals)[0], ts.maximize([-v for v in vals])[0]
            out[n] = (process[n], up, -low)
    return out


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
    charged = tree.times() if actual is None else actual.charged
    steps = [(n, kids) for n in tree.non_leaves() if n in charged  # and its charged children
             for kids in [[c for c in tree.children(n) if c in charged]] if kids]

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


def derived(self: MarketSpec) -> Derived:
    """Tau map, B, cumulative dividends and wealth in one preorder pass.
    Raises ``InvalidMarketError`` when the market fails validation."""
    require_valid(self)
    tree = self.tree
    tau_nodes = self.tau.tau_nodes
    taumap: dict[str, str | None] = {}
    B: dict[str, float] = {}
    cum: dict[str, float] = {}
    W: dict[str, float] = {}
    for n in tree.preorder():
        par = tree.parent(n)
        inherited = taumap[par] if par is not None else None
        tau_at = inherited if inherited is not None else (n if n in tau_nodes else None)
        taumap[n] = tau_at
        B[n] = 1.0 if par is None else B[par] * (1.0 + self.rates[par])
        prev = cum[par] if par is not None else 0.0
        if tau_at is not None and tau_at != n:
            cum[n] = prev  # strictly after liquidation
        else:
            cum[n] = prev + self.dividend[n] / B[n]
        if tau_at is None:
            W[n] = self.price[n] / B[n] + cum[n]
        else:
            W[n] = cum[n] + self.payoff[tau_at] / B[tau_at]
    return Derived(taumap, B, cum, W)


def stopped_price(self: MarketSpec) -> dict[str, float]:
    """In preorder: the discounted price price / B while the asset
    lives, and from the maturity node on the discounted liquidation
    value payoff / B there."""
    d = derived(self)
    order = self.tree.preorder()
    out = dict(zip(order, map(
        operator.truediv, map(self.price.__getitem__, order), map(d.B.__getitem__, order)
    )))
    matured = map(operator.is_not, d.taumap.values(), itertools.repeat(None))
    for n in itertools.compress(d.taumap, matured):
        a = d.taumap[n]
        out[n] = self.payoff[a] / d.B[a]
    return out


def alive_horizon(self: MarketSpec) -> int:
    """The last time at which some node comes before maturity (0 when
    the root itself matures)."""
    taumap = derived(self).taumap
    for t in range(self.tree.horizon, -1, -1):
        level = self.tree.level(t)
        if any(map(operator.is_, map(taumap.__getitem__, level), itertools.repeat(None))):
            return t
    return 0


def level_prices(self: MarketSpec) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per time t, in ``tree.level(t)`` order: the discounted prices
    price / B and the account values B."""
    B = derived(self).B
    out = []
    for t in range(self.tree.horizon + 1):
        nodes = self.tree.level(t)
        out.append((
            np.array([self.price[n] / B[n] for n in nodes], dtype=float),
            np.array([B[n] for n in nodes], dtype=float),
        ))
    return tuple(out)


def cash_events(self: MarketSpec) -> tuple[tuple[str, str | None], ...]:
    """In preorder, the nodes where the asset has matured (with the tau
    node on their path) or, after time 0, pays a dividend (with None)."""
    d = derived(self)
    tree = self.tree
    return tuple(
        (n, d.taumap[n])
        for n in tree.preorder()
        if d.taumap[n] is not None
        or (tree.time(n) >= 1 and abs(self.dividend[n]) > 1e-12)
    )


def strategy_eta(spec: MarketSpec, strategy: Strategy) -> AdaptedProcess:
    """Money-market leg implied by a self-financing risky position: the
    holding times collected dividends plus payoff once matured (which is
    wealth from tau on)."""
    d = derived(spec)
    return AdaptedProcess(
        {
            n: strategy.holding(n) * (d.cum[n] if tau_at is None else d.W[n])
            for n, tau_at in d.taumap.items()
        }
    )


def gains_process(
    spec: MarketSpec, strategy: Strategy, tol: float = 1e-9
) -> GainsResult:
    """Cumulative trading gains and portfolio value of a strategy, and
    whether its holding changes only at nodes where wealth is zero."""
    require_valid(spec)
    for n, p in strategy.pi.items():
        if p < 0:
            raise ShortSaleViolationError(f"negative holding {p} at node {n!r}")
    tree = spec.tree
    W = wealth_process(spec).values
    G: dict[str, float] = {}
    for n in tree.preorder():
        par = tree.parent(n)
        if par is None:
            G[n] = 0.0
        else:
            G[n] = G[par] + strategy.holding(par) * (W[n] - W[par])
    v0 = strategy.holding(tree.root) * W[tree.root]
    V = {n: v0 + g for n, g in G.items()}
    self_financing = True
    for n in tree.preorder():
        par = tree.parent(n)
        if par is None or tree.is_leaf(n):
            continue
        if abs((strategy.holding(n) - strategy.holding(par)) * W[n]) > tol:
            self_financing = False
            break
    return GainsResult(AdaptedProcess(G), AdaptedProcess(V), self_financing)


def check_bubble_properties(
    spec: MarketSpec,
    actual: MeasureFamily | None,
    beta: AdaptedProcess,
    tol: float = 1e-9,
) -> BubblePropertyReport:
    """Nonnegativity on charged nodes, vanishing at tau nodes and
    persistence, each read from ``beta`` node by node."""
    require_valid(spec)
    tree = spec.tree
    on, arbitrage, _, _ = _pass(spec, actual)
    if not arbitrage.any():
        charged = list(itertools.compress(tree.preorder(), on[tree.preorder_index].tolist()))
        bad = [n for n in charged if beta[n] < -tol]
        worst = min((beta[n] for n in charged), default=0.0)
        nonneg = {"status": "holds" if not bad else "violated", "worst": worst, "nodes": tuple(bad)}
    else:
        nonneg = {"status": "skipped", "note": "market fails no-arbitrage"}
    tau_dev = max((abs(beta[a]) for a in spec.tau.tau_nodes if a in beta), default=0.0)
    vanishes = {"status": "holds" if tau_dev <= 1e-12 else "violated", "worst": tau_dev}
    if not _no_dividends(spec):
        persistence = {"status": "skipped", "note": "market pays dividends"}
    else:
        counterexamples = []
        for n in tree.preorder():
            if abs(beta[n]) > tol:
                continue
            stack = [n]  # the subtree in preorder, walked down from n
            while stack:
                m = stack.pop()
                if beta[m] > tol:
                    counterexamples.append((n, m, beta[m]))
                    break
                stack.extend(reversed(tree.children(m)))
        failed = "violated" if spec.tau_kind == "bounded" else "recorded"
        persistence = {"status": failed if counterexamples else "holds",
                       "counterexamples": tuple(counterexamples)}
    return BubblePropertyReport(nonneg, vanishes, persistence)


# -- per-node results, one node at a time --------------------------------------

def upper_sweep(family: MeasureFamily, values: Mapping[str, float], t: int) -> dict[str, float]:
    """The upper conditional expectation of the time-``t`` slice ``values`` at
    every node at or above ``t`` that the family values, in preorder: for a
    rectangular family one ``maximize`` per node from ``t`` up, for an explicit
    one ``explicit_cond_upper`` at each charged node."""
    tree = family.tree
    if isinstance(family, ExplicitFamily):
        on, masses = explicit_charged(family), explicit_masses(family)
        return {n: explicit_cond_upper(family, values, n, t, masses)
                for n in tree.preorder() if tree.time(n) <= t and n in on}
    V = {n: float(values[n]) for n in tree.level(t)}
    for s in range(t - 1, -1, -1):
        for n in tree.level(s):
            V[n] = family.transitions[n].maximize([V[c] for c in tree.children(n)])[0]
    return {n: V[n] for n in tree.preorder() if n in V}


def american_values(
    spec: MarketSpec, family: MeasureFamily, claim: Claim
) -> tuple[dict[str, float], frozenset[str]]:
    """The American price up to maturity, in preorder, and the exercise region:
    for a rectangular family the DP one ``maximize`` per node (ties exercise),
    for an explicit one ``explicit_american``."""
    if isinstance(family, ExplicitFamily):
        return explicit_american(spec, family, claim)
    tree, T = spec.tree, claim.maturity
    Z = {}
    for t in range(T + 1):
        Z.update(zip(tree.level(t), _intrinsic(spec, claim, t).tolist()))
    V = {n: Z[n] for n in tree.level(T)}
    exercise = set(V)
    for t in range(T - 1, -1, -1):
        for n in tree.level(t):
            cont = family.transitions[n].maximize([V[c] for c in tree.children(n)])[0]
            if Z[n] >= cont:
                V[n] = Z[n]
                exercise.add(n)
            else:
                V[n] = cont
    return {n: V[n] for n in tree.preorder() if n in V}, frozenset(exercise)


def hedge_slack(
    spec: MarketSpec, hedge: HedgeSolution, payoff: Mapping[str, float], leaves: Sequence[str]
) -> dict[str, float]:
    """The terminal capital of ``hedge`` (its price at the root, then its
    holdings' gains node by node down each path) minus the payoff, at
    ``leaves``."""
    tree, W = spec.tree, wealth_process(spec).values
    X = {tree.root: hedge.price}
    for n in tree.preorder()[1:]:
        par = tree.parent(n)
        X[n] = X[par] + hedge.strategy.holding(par) * (W[n] - W[par])
    return {leaf: X[leaf] - float(payoff[leaf]) for leaf in leaves}


# -- explicit families, node by node -------------------------------------------

def explicit_masses(family: ExplicitFamily) -> tuple[dict[str, float], ...]:
    """Per measure, each node's mass: its subtree's leaf probabilities,
    summed in preorder."""
    tree = family.tree
    out = []
    for q in family.measures:
        mass = dict.fromkeys(tree.preorder(), 0)
        for leaf in tree.leaves:
            p = q.get(leaf, 0.0)
            for n in tree.path(leaf):
                mass[n] += p
        out.append(mass)
    return tuple(out)


def explicit_charged(family: ExplicitFamily) -> frozenset[str]:
    """Nodes some measure gives more than ``CHARGE_TOL`` mass."""
    masses = explicit_masses(family)
    return frozenset(n for n in family.tree.preorder() if any(m[n] > CHARGE_TOL for m in masses))


def explicit_cond_upper(
    family: ExplicitFamily, values: Mapping[str, float], node: str, target_t: int,
    masses: Sequence[Mapping[str, float]] | None = None,
) -> float:
    """The largest, over the measures charging ``node``, of the conditional
    expectation there of the time-``target_t`` values."""
    tree = family.tree
    best = None
    for mass in masses or explicit_masses(family):
        m0 = mass[node]
        if m0 <= CHARGE_TOL:
            continue
        total = 0.0
        for m in tree.descendants_at(node, target_t):
            qm = mass[m]
            if qm:
                total += qm * float(values[m])
        e = total / m0
        if best is None or e > best:
            best = e
    if best is None:
        raise PolarNodeError(f"no measure in the family charges node {node!r}")
    return best


def explicit_claim_values(spec: MarketSpec, family: ExplicitFamily, claim: Claim) -> dict:
    """A European claim's values at the charged nodes up to maturity, in preorder."""
    return upper_sweep(family, terminal_payoff(spec, claim), claim.maturity)


def explicit_value_process(spec: MarketSpec, family: ExplicitFamily) -> dict[str, float]:
    """W*: the cash flows' upper conditional expectation at every node, in
    preorder; ``PolarNodeError`` at the first polar node."""
    tree, cf, masses = spec.tree, cash_flow_payoff(spec), explicit_masses(family)
    return {n: explicit_cond_upper(family, cf, n, tree.horizon, masses) for n in tree.preorder()}


def explicit_classify(
    family: ExplicitFamily, process: Mapping[str, float], T: int | None = None, tol: float = 1e-9
) -> Classification:
    """``classify_process`` against every horizon, one (node, horizon) check
    at a time, in preorder, folded with the builtin ``max`` and ``min``."""
    tree, masses, on = family.tree, explicit_masses(family), explicit_charged(family)
    if T is None:
        T = tree.horizon
    rows = []
    for n in tree.preorder():
        t = tree.time(n)
        if t >= T or n not in process or n not in on:
            continue
        for t2 in range(t + 1, T + 1):
            level = tree.descendants_at(n, t2)
            if any(m not in process for m in level):
                continue
            slice_vals = {m: process[m] for m in level}
            up = explicit_cond_upper(family, slice_vals, n, t2, masses)
            neg = {k: -v for k, v in slice_vals.items()}
            low = -explicit_cond_upper(family, neg, n, t2, masses)
            v = process[n]
            rows.append((v, up, low))
    if not rows:
        return Classification("G_martingale", 0.0, 0.0, 0.0)
    mart_gap = max(abs(v - up) for v, up, _ in rows)
    sup_slack = min(v - up for v, up, _ in rows)
    infi_slack = min(v - low for v, _, low in rows)
    if mart_gap <= tol:
        strongest = "G_martingale"
    elif sup_slack >= -tol:
        strongest = "G_supermartingale"
    elif infi_slack >= -tol:
        strongest = "infi_supermartingale"
    else:
        strongest = "none"
    return Classification(strongest, mart_gap, sup_slack, infi_slack)


def explicit_american(
    spec: MarketSpec, family: ExplicitFamily, claim: Claim
) -> tuple[dict[str, float], frozenset[str]]:
    """The American price at each charged node up to maturity, in preorder,
    and the exercise region: each measure's Snell envelope on
    unnormalized masses, V(n) = max(m(n) Z(n), sum of V over the children),
    and at each node the largest continuation sum over its mass among the
    measures charging it, exercised where the payoff is at least that."""
    tree, T, masses = spec.tree, claim.maturity, explicit_masses(family)
    Z = {}
    for t in range(T + 1):
        Z.update(zip(tree.level(t), _intrinsic(spec, claim, t).tolist()))
    on = explicit_charged(family)
    value = {n: Z[n] for n in tree.level(T) if n in on}
    exercise = set(value)
    envelopes = [{n: mass[n] * Z[n] for n in tree.level(T)} for mass in masses]
    for t in range(T - 1, -1, -1):
        for n in tree.level(t):
            best = None
            for mass, V in zip(masses, envelopes):
                cont = 0.0
                for c in tree.children(n):
                    cont += V[c]
                V[n] = max(mass[n] * Z[n], cont)
                if mass[n] > CHARGE_TOL and (best is None or cont / mass[n] > best):
                    best = cont / mass[n]
            if best is not None:
                value[n] = Z[n] if Z[n] >= best else best
                if Z[n] >= best:
                    exercise.add(n)
    return {n: value[n] for n in tree.preorder() if n in value}, frozenset(exercise)


def enumerate_extreme_measures(
    family: MeasureFamily, cap: int = 4096
) -> tuple[dict[str, float], ...]:
    """All products of per-node transition-set vertices, as leaf measures.

    The convex hull of the result equals the induced set of path measures;
    used as an independent oracle against the backward recursion.
    """
    if isinstance(family, ExplicitFamily):
        return family.measures
    tree = family.tree
    nodes = tree.non_leaves()
    vlists = [vertex_list(family.transitions[n], cap) for n in nodes]
    count = math.prod(len(v) for v in vlists)
    if count > cap:
        raise CapExceededError(f"{count} product measures exceed cap {cap}")
    return tuple(
        push_mass(tree, dict(zip(nodes, combo))) for combo in itertools.product(*vlists)
    )


def _stopping_rule_count(tree, node: str, T: int, memo: dict) -> int:
    if node in memo:
        return memo[node]
    if tree.time(node) == T:
        memo[node] = 1
        return 1
    total = 1 + math.prod(_stopping_rule_count(tree, c, T, memo) for c in tree.children(node))
    memo[node] = total
    return total


def _stopping_rules(tree, node: str, T: int):
    if tree.time(node) == T:
        yield (node,)
        return
    yield (node,)
    child_rules = [list(_stopping_rules(tree, c, T)) for c in tree.children(node)]
    idx = [0] * len(child_rules)
    while True:
        combined: tuple[str, ...] = ()
        for rules, i in zip(child_rules, idx):
            combined = combined + rules[i]
        yield combined
        j = 0
        while j < len(idx):
            idx[j] += 1
            if idx[j] < len(child_rules[j]):
                break
            idx[j] = 0
            j += 1
        if j == len(idx):
            return


def american_oracle(
    spec: MarketSpec,
    pricing: MeasureFamily,
    claim: Claim,
    rule_cap: int = 50_000,
    measure_cap: int = 50_000,
) -> float:
    """Independent check of the dynamic program: enumerate every stopping
    rule (antichains covering all paths by maturity), evaluate the stopped
    payoff's expectation under every extreme measure, and take the largest."""
    if claim.kind not in ("amer_call", "amer_put"):
        raise ValueError("american_oracle prices amer_call / amer_put")
    validate_claim(spec, claim)
    tree = spec.tree
    T = claim.maturity
    n_rules = _stopping_rule_count(tree, tree.root, T, {})
    if n_rules > rule_cap:
        raise CapExceededError(f"{n_rules} stopping rules exceed cap {rule_cap}")
    measures = enumerate_extreme_measures(pricing, cap=measure_cap)
    intrinsic = {}
    for t in range(T + 1):
        intrinsic.update(zip(tree.level(t), _intrinsic(spec, claim, t).tolist()))
    best = None
    for rule in _stopping_rules(tree, tree.root, T):
        rule_set = set(rule)
        stop_at = {}
        for leaf in tree.leaves:
            for n in tree.path(leaf):
                if n in rule_set:
                    stop_at[leaf] = n
                    break
        for q in measures:
            val = sum(
                q.get(leaf, 0.0) * intrinsic[stop_at[leaf]] for leaf in tree.leaves
            )
            if best is None or val > best:
                best = val
    return float(best)
