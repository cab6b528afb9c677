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
import re

import numpy as np
import pytest

from per_node import explicit_american

from bubbletree import fixtures
from bubbletree.ambiguity import (
    BoxSets,
    ExplicitFamily,
    RectangularFamily,
    TransitionSet,
    cond_expectation,
    expectation_sweep,
    node_charged,
)
from bubbletree.bubble import _bubble_from_value, _conditional_value_process, bubble_processes
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
from bubbletree.lattice import cash_flow_payoff
from bubbletree.noarb import supermartingale_family


# -- the dict-based references ------------------------------------------------

def ref_claim(spec, pricing, claim) -> dict:
    target = terminal_payoff(spec, claim)
    if isinstance(pricing, RectangularFamily):
        return expectation_sweep(pricing, target)
    return {n: cond_expectation(pricing, target, n, "upper")
            for t in range(claim.maturity + 1) for n in spec.tree.level(t)
            if node_charged(pricing, n)}


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
    return V, frozenset(exercise)


def ref_asset_bubble(spec, pricing, T) -> dict:
    B = spec.derived.B
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
    tree, d = spec.tree, spec.derived
    cf = cash_flow_payoff(spec)
    if isinstance(pricing, RectangularFamily):
        val = expectation_sweep(pricing, cf)
    else:  # keyed as the shared recursion keys W*: levels from the leaves up
        val = {n: cond_expectation(pricing, cf, n, "upper")
               for t in range(tree.horizon, -1, -1) for n in tree.level(t)}
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
    vertex = {n: TransitionSet.vertex_set(ts.vertex_list()) for n, ts in transitions.items()}
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
        matured = [n for n in tree.preorder() if spec.derived.taumap[n] is not None]
        pairs = [(a, b) for i, a in enumerate(matured) for b in matured[i + 1:]
                 if tree.index(b) < tree.index(a)]
        if pairs:
            break
    a, b = pairs[0]
    val, _ = _conditional_value_process(spec, fx.family)
    _bubble_from_value(spec, val)  # the unmutated value process passes
    bad = val.copy()
    for n, shift in ((a, 0.5), (b, 2.0)):
        bad[tree.index(n)] = spec.processes.W[tree.index(n)] + shift
    with pytest.raises(AssertionError, match=re.escape(f"violated at {a!r} by 0.5")):
        _bubble_from_value(spec, bad)
