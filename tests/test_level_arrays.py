"""Claim and bubble results computed on level-order arrays against the public
dict path.

``claims`` and ``bubble`` keep their recursions on whole-tree level-order
arrays until a result is returned. The references below are the dict-based
code they replaced: every value comes from ``expectation_sweep`` of a
``terminal_payoff`` (or of the cash flows) on a rectangular family, or from
``cond_expectation`` node by node on an explicit one, and is combined in
dicts. Results must match in values, signed zeros and key order (``repr``),
on box, ``BoxSets``, vertex-list, mixed, ``CutSets`` and explicit families.
"""
import dataclasses
import re

import numpy as np
import pytest

import per_node
from per_node import explicit_american

from bubbletree import fixtures
from bubbletree.ambiguity import (
    BoxSets,
    ExplicitFamily,
    PolarNodeError,
    RectangularFamily,
    TransitionSet,
    cond_expectation,
    expectation_sweep,
    node_charged,
)
from bubbletree.bubble import (
    _bubble_from_value,
    _conditional_value_process,
    bubble_process,
    bubble_processes,
    find_dominating_strategy,
    fundamental_price,
    fundamental_wealth,
    stopped_price_process,
)
from bubbletree.claims import (
    Claim,
    ParityTriple,
    _intrinsic,
    american_bounds,
    american_fundamental_price,
    asset_bubble,
    fundamental_claim_price,
    parity_bounds,
    terminal_payoff,
)
from bubbletree.lattice import NodeValues, Strategy, cash_flow_payoff, gains_process, strategy_eta
from bubbletree.noarb import UnboundedHedgeError, superhedge, supermartingale_family


# -- the dict-based references ------------------------------------------------

def ref_claim(spec, pricing, claim) -> dict:
    target = terminal_payoff(spec, claim)
    if isinstance(pricing, RectangularFamily):
        return expectation_sweep(pricing, target)
    return {n: cond_expectation(pricing, target, n, "upper") for n in spec.tree.preorder()
            if spec.tree.time(n) <= claim.maturity and node_charged(pricing, n)}


def ref_american(spec, pricing, claim) -> tuple[dict, frozenset]:
    """The DP one node at a time: each node's continuation value is its
    conditional expectation of the next level's values."""
    tree, T = spec.tree, claim.maturity
    intrinsic = {}
    for t in range(T + 1):
        intrinsic.update(zip(tree.level(t), _intrinsic(spec, claim, t).tolist()))
    V = {n: intrinsic[n] for n in tree.level(T)}
    exercise = set(tree.level(T))
    for t in range(T - 1, -1, -1):
        nxt = {c: V[c] for c in tree.level(t + 1)}
        for n in tree.level(t):
            cont = cond_expectation(pricing, nxt, n, "upper")
            if intrinsic[n] >= cont:
                V[n] = intrinsic[n]
                exercise.add(n)
            else:
                V[n] = cont
    return {n: V[n] for n in tree.preorder() if n in V}, frozenset(exercise)


def ref_asset_bubble(spec, pricing, T) -> dict:
    B = per_node.derived(spec).B
    star = ref_claim(spec, pricing, Claim("forward", T, 0.0))
    return {n: spec.price[n] / B[n] - v for n, v in star.items()}


def ref_parity(spec, pricing, K, T, t) -> dict:
    fwd = terminal_payoff(spec, Claim("forward", T, K))
    call = ref_claim(spec, pricing, Claim("euro_call", T, K))
    put = ref_claim(spec, pricing, Claim("euro_put", T, K))
    return {n: ParityTriple(cond_expectation(pricing, fwd, n, "lower"), call[n] - put[n],
                            cond_expectation(pricing, fwd, n, "upper"))
            for n in spec.tree.level(t) if n in call}


def ref_american_bounds(spec, pricing, K, T, tol=1e-9):
    euro = ref_claim(spec, pricing, Claim("euro_call", T, K))
    amer = ref_american(spec, pricing, Claim("amer_call", T, K))[0]
    bubble = ref_asset_bubble(spec, pricing, T)
    per_node, worst, ok = {}, 0.0, True
    for n in euro:
        ce, ca, d = euro[n], amer[n], bubble[n]
        per_node[n] = (ce, ca, d)
        lower_slack, upper_slack = ca - ce, ce + d - ca
        worst = min(worst, lower_slack, upper_slack)
        if lower_slack < -tol or upper_slack < -tol:
            ok = False
    return ok, worst, per_node


def ref_bubble_processes(spec, pricing) -> tuple[dict, dict, dict]:
    tree, d = spec.tree, per_node.derived(spec)
    cf = cash_flow_payoff(spec)
    if isinstance(pricing, RectangularFamily):
        val = expectation_sweep(pricing, cf)
    else:
        val = {n: cond_expectation(pricing, cf, n, "upper") for n in tree.preorder()}
    s_star = {n: val[n] - d.cum[n] for n in tree.preorder() if d.taumap[n] is None}
    beta = {n: spec.price[n] / d.B[n] - (val[n] - d.cum[n]) if d.taumap[n] is None else 0.0
            for n in tree.preorder()}
    return s_star, val, beta


# -- families -----------------------------------------------------------------

def families(fx, seed, full_support: bool):
    """The fixture's boxes as a dict, as a ``BoxSets`` map, as vertex lists
    (all and about a third), the discovered cuts when the market has no
    arbitrage, and an explicit family of random leaf measures."""
    tree, transitions = fx.family.tree, fx.family.transitions
    rng = np.random.default_rng(seed + 70_000)
    out = [("box", fx.family), ("boxsets", RectangularFamily(tree, BoxSets.read(tree, transitions)))]
    vertex = {n: TransitionSet.vertex_set(per_node.vertex_list(ts))
              for n, ts in transitions.items()}
    mixed = {n: vertex[n] if rng.random() < 0.35 else ts for n, ts in transitions.items()}
    out += [("vertex", RectangularFamily(tree, vertex)), ("mixed", RectangularFamily(tree, mixed))]
    cuts = supermartingale_family(fx.spec)
    if cuts is not None:
        out.append(("cuts", cuts))
    leaves = tree.leaves
    measures = []
    for i in range(3):
        p = rng.dirichlet(np.ones(len(leaves)))
        if not full_support and i == 0:
            p[: len(p) // 2] = 0.0  # some nodes uncharged by every measure but the others
            p /= p.sum()
        measures.append(dict(zip(leaves, p.tolist())))
    out.append(("explicit", ExplicitFamily(tree, tuple(measures))))
    return out


def _same(a, b):
    assert repr(a) == repr(b)  # values bitwise, signed zeros, NaN and key order


def test_claim_prices_and_bounds_equal_the_dict_path():
    checked = set()
    for seed in range(24):
        fx = fixtures.rand_claim_market(seed, depth=2 + seed % 3, branching=2 + seed % 3,
                                        style=("neutral", "bumped")[seed % 2])
        spec, tree = fx.spec, fx.spec.tree
        H, s0 = tree.horizon, spec.price[tree.root]
        rng = np.random.default_rng(seed)
        for name, fam in families(fx, seed, full_support=seed % 3 == 0):
            checked.add(name)
            for T in sorted({1, max(H - 1, 1), H}):
                custom = {n: float(rng.uniform(-1, 2)) for n in tree.level(T)}
                custom[tree.level(T)[0]] = -0.0
                claims = [Claim(kind, T, mult * s0) for kind in ("forward", "euro_call", "euro_put")
                          for mult in (0.0, 0.9, 1.1)]
                for claim in claims + [Claim("custom_terminal", T, payoff=custom)]:
                    _same(fundamental_claim_price(spec, fam, claim).values,
                          ref_claim(spec, fam, claim))
                _same(asset_bubble(spec, fam, T).values, ref_asset_bubble(spec, fam, T))
                for t in {0, T - 1, T, T + 1}:
                    rep = parity_bounds(spec, fam, s0, T, t)
                    ref = ref_parity(spec, fam, s0, T, t)
                    _same(rep.per_node, ref)
                    assert rep.ok == all(tr.ok() for tr in ref.values())
                if isinstance(fam, ExplicitFamily):
                    # the largest of the measures' Snell envelopes, not the one-step DP
                    res = american_fundamental_price(spec, fam, Claim("amer_put", T, s0))
                    values, exercise = explicit_american(spec, fam, Claim("amer_put", T, s0))
                    _same(res.process.values, values)
                    assert res.exercise == exercise
                    rep = american_bounds(spec, fam, s0, T)
                    euro = ref_claim(spec, fam, Claim("euro_call", T, s0))
                    amer = explicit_american(spec, fam, Claim("amer_call", T, s0))[0]
                    _same(list(rep.per_node), list(euro))
                    _same([v[:2] for v in rep.per_node.values()],
                          [(euro[n], amer[n]) for n in euro])
                    continue
                for kind in ("amer_call", "amer_put"):
                    for mult in (0.9, 1.1):
                        res = american_fundamental_price(spec, fam, Claim(kind, T, mult * s0))
                        values, exercise = ref_american(spec, fam, Claim(kind, T, mult * s0))
                        _same(res.process.values, values)
                        assert res.exercise == exercise
                for mult in (0.0, 1.0):
                    rep = american_bounds(spec, fam, mult * s0, T)
                    ok, worst, per_node = ref_american_bounds(spec, fam, mult * s0, T)
                    assert (rep.fundamental_ok, repr(rep.fundamental_worst)) == (ok, repr(worst))
                    _same(rep.per_node, per_node)
    assert checked == {"box", "boxsets", "vertex", "mixed", "cuts", "explicit"}


def test_bubble_processes_equal_the_dict_path():
    count = 0
    for seed in range(30):
        gen = (fixtures.rand_market, fixtures.rand_claim_market)[seed % 2]
        fx = gen(seed, depth=1 + seed % 4, branching=2 + seed % 3,
                 style=("neutral", "bumped", "free")[seed % 3])
        for _, fam in families(fx, seed, full_support=True):
            s_star, w_star, beta = bubble_processes(fx.spec, fam)
            ref = ref_bubble_processes(fx.spec, fam)
            for got, want in zip((s_star, w_star, beta), ref):
                _same(got.values, want)
            count += 1
    assert count >= 150


def test_bubble_identity_check_names_the_first_node_in_preorder():
    """A W* off the wealth at two matured nodes, the later one in preorder
    coming first in level order: the check names the earlier in preorder."""
    for seed in range(200):
        fx = fixtures.rand_market(seed, depth=4, branching=3, tau_mode="bounded")
        spec, tree = fx.spec, fx.spec.tree
        taumap = per_node.derived(spec).taumap
        matured = [n for n in tree.preorder() if taumap[n] is not None]
        pairs = [(a, b) for i, a in enumerate(matured) for b in matured[i + 1:]
                 if tree.index(b) < tree.index(a)]
        if pairs:
            break
    a, b = pairs[0]
    val = _conditional_value_process(spec, fx.family)
    _bubble_from_value(spec, val)  # the unmutated value process passes
    bad = val.copy()
    for n, shift in ((a, 0.5), (b, 2.0)):
        bad[tree.index(n)] = spec.processes.W[tree.index(n)] + shift
    with pytest.raises(AssertionError, match=re.escape(f"violated at {a!r} by 0.5")):
        _bubble_from_value(spec, bad)


# -- every per-node result a NodeValues, against the per-node oracle ------------

def _node_values(got, ref: dict, tree) -> None:
    """``got`` is a ``NodeValues`` over read-only arrays, keyed as ``ref`` in
    preorder, with ``ref``'s values bitwise, equal to its own dict copy both
    ways, and without the nodes off its mask."""
    assert isinstance(got, NodeValues)
    assert not got.array.flags.writeable and not got.mask.flags.writeable
    assert list(ref) == [n for n in tree.preorder() if n in ref]
    assert list(got) == list(ref) and len(got) == len(ref)
    _same(got, ref)
    copy = dict(got)
    assert got == copy and copy == got and repr(got) == repr(copy)
    for n in [n for n in tree.preorder() if n not in ref][:1] + ["no such node"]:
        with pytest.raises(KeyError):
            got[n]


def _wealth_or_polar(spec, fam):
    """The per-node W*, or None where an explicit family leaves a node polar."""
    try:
        if isinstance(fam, ExplicitFamily):
            return per_node.explicit_value_process(spec, fam)
        return per_node.upper_sweep(fam, cash_flow_payoff(spec), spec.tree.horizon)
    except PolarNodeError:
        return None


def test_per_node_results_are_node_values_equal_to_the_per_node_oracle():
    """The claims, sweeps, bubbles, hedges, gains and gain gaps on 120
    generated markets under box, vertex-list, discovered-cut and explicit
    families. The oracle's holdings may differ where the hedge's optimum is
    not unique, so a hedge's holdings are held to it by their keys and to the
    slack they imply by a per-node replay."""
    markets, names, gaps = 0, set(), 0
    for seed in range(120):
        claims = seed % 2 == 0
        gen = fixtures.rand_claim_market if claims else fixtures.rand_market
        fx = gen(seed, depth=1 + seed % 4, branching=2 + seed % 2,
                 style=("neutral", "bumped", "free")[seed // 2 % 3])
        spec, tree = fx.spec, fx.spec.tree
        d, H, rng = per_node.derived(spec), tree.horizon, np.random.default_rng(seed)
        s0 = spec.price[tree.root]
        markets += 1
        _node_values(stopped_price_process(spec).values, per_node.stopped_price(spec), tree)
        for name, fam in families(fx, seed, full_support=seed % 3 == 0):
            if name not in ("box", "vertex", "cuts", "explicit"):
                continue
            names.add(name)
            if claims:
                for T in sorted({1, H}):
                    claim = Claim("euro_call", T, s0)
                    _node_values(fundamental_claim_price(spec, fam, claim).values,
                                 per_node.upper_sweep(fam, terminal_payoff(spec, claim), T), tree)
                    star = per_node.upper_sweep(fam, terminal_payoff(spec, Claim("forward", T)), T)
                    _node_values(asset_bubble(spec, fam, T).values,
                                 {n: spec.price[n] / d.B[n] - v for n, v in star.items()}, tree)
                    res = american_fundamental_price(spec, fam, Claim("amer_put", T, s0))
                    values, exercise = per_node.american_values(spec, fam, Claim("amer_put", T, s0))
                    _node_values(res.process.values, values, tree)
                    assert res.exercise == exercise
            if not isinstance(fam, ExplicitFamily):
                t = int(rng.integers(H + 1))
                values = {n: float(rng.normal()) for n in tree.level(t)}
                _node_values(expectation_sweep(fam, values), per_node.upper_sweep(fam, values, t), tree)

            w_star = _wealth_or_polar(spec, fam)
            if w_star is None:
                with pytest.raises(PolarNodeError):
                    bubble_processes(spec, fam)
            else:
                s_star = {n: w_star[n] - d.cum[n] for n in tree.preorder() if d.taumap[n] is None}
                beta = {n: spec.price[n] / d.B[n] - (w_star[n] - d.cum[n])
                        if d.taumap[n] is None else 0.0 for n in tree.preorder()}
                for got, want in zip(bubble_processes(spec, fam), (s_star, w_star, beta)):
                    _node_values(got.values, want, tree)
                _node_values(fundamental_price(spec, fam).values, s_star, tree)
                _node_values(fundamental_wealth(spec, fam)[0].values, w_star, tree)
                _node_values(bubble_process(spec, fam).values, beta, tree)

            actual = dataclasses.replace(fam)
            payoff = {leaf: float(rng.uniform(0, 2)) for leaf in tree.leaves}
            try:
                hedge = superhedge(spec, payoff, actual)
            except UnboundedHedgeError:
                with pytest.raises(UnboundedHedgeError):
                    per_node.superhedge(spec, payoff, actual)
                continue
            ref = per_node.superhedge(spec, payoff, actual)
            _node_values(hedge.slack, per_node.hedge_slack(spec, hedge, payoff, list(ref.slack)), tree)
            pi = hedge.strategy.pi
            _node_values(pi, {n: pi[n] for n in ref.strategy.pi}, tree)
            for strategy in (hedge.strategy, Strategy(dict(pi.items()))):
                got, want = gains_process(spec, strategy), per_node.gains_process(spec, strategy)
                _node_values(got.gains.values, want.gains.values, tree)
                _node_values(got.value.values, want.value.values, tree)
                assert got.self_financing is want.self_financing
                _node_values(strategy_eta(spec, strategy).values,
                             per_node.strategy_eta(spec, strategy).values, tree)
            if w_star is None or (pair := find_dominating_strategy(spec, fam, actual)) is None:
                continue
            gaps += 1
            cf = {leaf: v - d.cum[tree.root] for leaf, v in cash_flow_payoff(spec).items()}
            leaves = list(per_node.superhedge(spec, cf, actual).slack)
            slack = per_node.hedge_slack(spec, pair.hedge, cf, leaves)
            s0_hat = spec.price[tree.root] / d.B[tree.root]
            _node_values(pair.gain_gap, {n: v + (s0_hat - pair.hedge_cost) for n, v in slack.items()},
                         tree)
    assert markets >= 100 and names == {"box", "vertex", "cuts", "explicit"} and gaps >= 100, gaps
