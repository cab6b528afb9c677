import math

import numpy as np
import pytest

from bubbletree import fixtures
from bubbletree.lattice import (
    EventTree,
    InvalidMarketError,
    MarketSpec,
    NodeValues,
    ShortSaleViolationError,
    StoppingTime,
    Strategy,
    cash_flow_payoff,
    cumulative_dividends,
    discount_factors,
    gains_process,
    strategy_eta,
    tau_node_map,
    validate_market,
    wealth_process,
)


def one_period(s0=1.0, up=1.5, down=0.5, r=0.0):
    tree = EventTree.uniform([2])
    return MarketSpec(
        tree=tree,
        rates={"r": r},
        price={"r": s0, "r0": up, "r1": down},
        dividend={n: 0.0 for n in tree.preorder()},
        payoff={},
        tau=StoppingTime(frozenset()),
        tau_kind="possibly_infinite",
    )


# -- tree construction ------------------------------------------------------

def test_tree_rejects_unknown_parent():
    with pytest.raises(ValueError, match="unknown parent"):
        EventTree({"r": None, "a": "zzz"})


def test_tree_rejects_multiple_roots():
    with pytest.raises(ValueError, match="exactly one root"):
        EventTree({"a": None, "b": None})


def test_tree_rejects_unreachable_cycle():
    with pytest.raises(ValueError, match="unreachable"):
        EventTree({"r": None, "a": "b", "b": "a"})


def test_uniform_tree_structure():
    tree = EventTree.uniform([2, 1])
    assert tree.root == "r"
    assert tree.leaves == ("r00", "r10")
    assert tree.horizon == 2
    assert tree.children("r") == ("r0", "r1")
    assert tree.path("r00") == ("r", "r0", "r00")
    assert tree.level(1) == ("r0", "r1")


def test_uniform_tree_with_more_than_ten_children_keeps_every_node():
    """From 11 children on the ids get a separator: ``r1`` + ``0`` and ``r`` + ``10``
    would be one id, and the tree would lose nodes."""
    tree = EventTree.uniform([12, 2])
    assert len(tree) == 37
    assert {tree.time(n) for n in tree.leaves} == {2}
    assert tree.children("r")[10:] == ("r.10", "r.11") and tree.children("r.1") == ("r.1.0", "r.1.1")
    wide = EventTree.uniform([512, 3])
    assert [len(wide.level(t)) for t in range(wide.horizon + 1)] == [1, 512, 1536]
    assert EventTree.uniform([10, 3]).level_order[:3] == ("r", "r0", "r1")  # up to 10: no separator


@pytest.mark.parametrize("seed", range(20))
def test_random_tree_with_more_than_ten_children_keeps_every_node(seed):
    """``fixtures._random_tree`` names children as ``EventTree.uniform`` does: with up to
    12 children a node, every drawn node is in the tree and every leaf is at the horizon."""
    tree = fixtures._random_tree(np.random.default_rng(seed), 2, 12)
    rng = np.random.default_rng(seed)  # the same draws: the root's count, then each child's
    k = int(rng.integers(2, 13))
    assert len(tree) == 1 + k + sum(int(rng.integers(1, 13)) for _ in range(k))
    assert {tree.time(n) for n in tree.leaves} == {2}
    narrow = fixtures._random_tree(np.random.default_rng(seed), 3, 4)  # up to 10: no separator
    assert not any("." in n for n in narrow.level_order)


@pytest.mark.parametrize("wide", [False, True], ids=["lists", "numpy"])
def test_indices_read_the_listing_id_map_with_minus_one_off_the_tree(wide):
    """``indices`` gives each id's level-order index, as ``index`` does, and -1 for an id
    off the tree, on a tree built from a listing that is not in level order."""
    tree = EventTree.uniform([40, 2] if wide else [2, 2])
    pre = tree.preorder()  # the listing: preorder, as in files
    listed = EventTree([tree.parent(n) for n in pre], dict(zip(pre, range(len(pre)))))
    ids = [*reversed(pre), "nope", pre[0]]
    got = listed.indices(ids)
    assert got.dtype == np.intp
    assert got.tolist() == [*(tree.level_order.index(n) for n in reversed(pre)), -1, 0]
    assert [listed.index(n) for n in pre] == [tree.level_order.index(n) for n in pre]
    assert listed.indices([]).tolist() == []


# -- validation -------------------------------------------------------------

def test_ex1_validates():
    assert validate_market(fixtures.ex1().spec).ok


def test_negative_price_fails():
    spec = fixtures.ex1().spec
    bad = MarketSpec(
        spec.tree,
        spec.rates,
        {**spec.price, "r0": -1.0},
        spec.dividend,
        spec.payoff,
        spec.tau,
        spec.tau_kind,
    )
    report = validate_market(bad)
    assert not report.ok
    assert any("negative price" in m for m in report.messages())
    assert any("r0" in f.nodes for f in report.failures)


def test_non_uniform_depth_fails():
    tree = EventTree({"r": None, "a": "r", "b": "r", "b0": "b"})
    spec = MarketSpec(
        tree,
        {n: 0.0 for n in tree.non_leaves()},
        {n: 1.0 for n in tree.preorder()},
        {n: 0.0 for n in tree.preorder()},
        {},
        StoppingTime(frozenset()),
        "possibly_infinite",
    )
    report = validate_market(spec)
    assert not report.ok
    assert any("non-uniform depth" in m for m in report.messages())


def test_tau_antichain_and_positivity():
    tree = EventTree.uniform([2, 1])
    st = StoppingTime(frozenset({"r0", "r00"}))
    assert any("antichain" in p for p in st.problems(tree))
    assert any("tau must be > 0" in p for p in StoppingTime(frozenset({"r"})).problems(tree))


def test_tau_kind_consistency():
    fx = fixtures.ex1()
    spec = fx.spec
    bad = MarketSpec(
        spec.tree, spec.rates, spec.price, spec.dividend,
        {"r00": 1.0}, StoppingTime(frozenset({"r00"})), "bounded",
    )
    report = validate_market(bad)
    assert any("bounded" in m for m in report.messages())


def test_payoff_domain_mismatch():
    spec = fixtures.ex1().spec
    bad = MarketSpec(
        spec.tree, spec.rates, spec.price, spec.dividend,
        {**spec.payoff, "r0": 2.0}, spec.tau, spec.tau_kind,
    )
    report = validate_market(bad)
    assert any("off tau nodes" in m for m in report.messages())


def test_unknown_tau_node_is_reported_not_raised():
    spec = fixtures.ex1().spec
    bad = MarketSpec(
        spec.tree, spec.rates, spec.price, spec.dividend, spec.payoff,
        StoppingTime(frozenset({"r00", "zz"})), spec.tau_kind,
    )
    report = validate_market(bad)
    assert not report.ok
    assert "tau node 'zz' not in tree" in report.messages()


def test_validation_and_derived_processes_are_computed_once(monkeypatch):
    import bubbletree.lattice as lattice

    spec = fixtures.rand_market(4, tau_mode="unbounded").spec
    calls = []
    original = lattice.validate_market
    monkeypatch.setattr(
        lattice, "validate_market", lambda spec: calls.append(spec) or original(spec)
    )
    taumap, processes = tau_node_map(spec), spec.processes
    for _ in range(3):  # views of the cached arrays
        assert discount_factors(spec).values.array.base is processes.B
        assert cumulative_dividends(spec).values.array.base is processes.cum
        assert wealth_process(spec).values.array.base is processes.W
        assert tau_node_map(spec) == taumap  # read off the cached ``processes.tau``
        cash_flow_payoff(spec)
    assert spec.processes is processes
    assert len(calls) == 1 and calls[0] is spec

    bad = MarketSpec(
        spec.tree, spec.rates, {**spec.price, spec.tree.root: -1.0}, spec.dividend,
        spec.payoff, spec.tau, spec.tau_kind,
    )
    for _ in range(2):
        with pytest.raises(InvalidMarketError, match="negative price"):
            wealth_process(bad)
    assert len(calls) == 2 and calls[1] is bad


# -- discounting ------------------------------------------------------------

def test_zero_rates_give_unit_account():
    B = discount_factors(fixtures.ex1().spec)
    assert all(v == 1.0 for v in B.values.values())


def test_constant_rate_compounds():
    spec = one_period()
    tree = EventTree.uniform([1, 1])
    spec = MarketSpec(
        tree,
        {"r": 0.1, "r0": 0.1},
        {n: 1.0 for n in tree.preorder()},
        {n: 0.0 for n in tree.preorder()},
        {},
        StoppingTime(frozenset()),
        "possibly_infinite",
    )
    B = discount_factors(spec)
    assert B["r00"] == pytest.approx(1.21, abs=1e-15)


def test_path_rates_product():
    # oracle: direct product of (1 + r) along the path
    rates = (0.0, 0.05)
    expected = 1.0
    for r in rates:
        expected *= 1.0 + r
    tree = EventTree.uniform([1, 1])
    spec = MarketSpec(
        tree,
        {"r": rates[0], "r0": rates[1]},
        {n: 1.0 for n in tree.preorder()},
        {n: 0.0 for n in tree.preorder()},
        {},
        StoppingTime(frozenset()),
        "possibly_infinite",
    )
    B = discount_factors(spec)
    assert B["r00"] == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(1.05, abs=1e-15)


def test_account_positive_nondecreasing():
    for seed in range(8):
        fx = fixtures.rand_market(seed, depth=3)
        B = discount_factors(fx.spec)
        tree = fx.spec.tree
        for n in tree.preorder():
            assert B[n] > 0
            par = tree.parent(n)
            if par is not None:
                assert B[n] >= B[par]


# -- wealth -----------------------------------------------------------------

def test_ex1_wealth_values():
    fx = fixtures.ex1()
    W = wealth_process(fx.spec)
    assert W["r"] == 1.0
    assert W["r0"] == 1.5
    assert W["r10"] == 1.0  # matured, unit payoff, zero rates


def test_post_tau_wealth_zero_without_cashflows():
    tree = EventTree.uniform([1, 1])
    spec = MarketSpec(
        tree,
        {n: 0.0 for n in tree.non_leaves()},
        {n: 1.0 if n == "r" else 0.0 for n in tree.preorder()},
        {n: 0.0 for n in tree.preorder()},
        {"r0": 0.0},
        StoppingTime(frozenset({"r0"})),
        "bounded",
    )
    W = wealth_process(spec)
    assert W["r00"] == 0.0


def test_wealth_nonnegative_on_random_markets():
    for seed in range(12):
        fx = fixtures.rand_market(seed, depth=3, style=["neutral", "bumped", "free"][seed % 3])
        W = wealth_process(fx.spec)
        assert all(v >= 0 for v in W.values.values())


def test_cash_flow_payoff_ex1():
    cf = cash_flow_payoff(fixtures.ex1().spec)
    assert cf == {"r00": 1.0, "r10": 1.0}


# -- gains and self-financing ----------------------------------------------

def test_null_strategy():
    fx = fixtures.ex1()
    res = gains_process(fx.spec, Strategy({}))
    assert all(v == 0.0 for v in res.gains.values.values())
    assert all(v == 0.0 for v in res.value.values.values())
    assert res.self_financing


def test_buy_and_hold_gain_on_up_path():
    fx = fixtures.ex1()
    res = gains_process(fx.spec, Strategy({n: 1.0 for n in fx.spec.tree.non_leaves()}))
    assert res.gains["r0"] == pytest.approx(0.5, abs=1e-15)


def test_strategy_jump_at_funded_node_not_self_financing():
    fx = fixtures.ex1()
    res = gains_process(fx.spec, Strategy({"r": 0.0, "r0": 1.0, "r1": 0.0}))
    assert not res.self_financing


def test_negative_holding_rejected():
    fx = fixtures.ex1()
    with pytest.raises(ShortSaleViolationError):
        gains_process(fx.spec, Strategy({"r": -0.5}))


def _self_financing_strategy(spec, seed):
    """pi may only move where wealth vanishes."""
    import numpy as np

    rng = np.random.default_rng(seed)
    W = wealth_process(spec).values
    tree = spec.tree
    pi = {}
    for n in tree.non_leaves():
        par = tree.parent(n)
        if par is None or W[n] <= 0:
            pi[n] = float(rng.uniform(0, 2))
        else:
            pi[n] = pi.get(par, 0.0) if par in pi else 0.0
    return Strategy(pi)


def test_self_financing_value_identity():
    for seed in range(10):
        fx = fixtures.rand_market(seed, depth=3)
        strat = _self_financing_strategy(fx.spec, seed)
        res = gains_process(fx.spec, strat)
        assert res.self_financing
        W = wealth_process(fx.spec).values
        worst = max(
            abs(strat.holding(n) * W[n] - res.value[n])
            for n in fx.spec.tree.preorder()
            if not fx.spec.tree.is_leaf(n)
        )
        assert worst <= 1e-9


def test_eta_reconstructs_value():
    fx = fixtures.ex1()
    strat = Strategy({n: 1.0 for n in fx.spec.tree.non_leaves()})
    eta = strategy_eta(fx.spec, strat)
    B = discount_factors(fx.spec).values
    taumap = tau_node_map(fx.spec)
    W = wealth_process(fx.spec).values
    for n in fx.spec.tree.preorder():
        alive = taumap[n] is None
        v = strat.holding(n) * (fx.spec.price[n] / B[n] if alive else 0.0) + eta[n]
        assert v == pytest.approx(strat.holding(n) * W[n], abs=1e-12)


def test_cumulative_dividends_freeze_after_tau():
    tree = EventTree.uniform([1, 1])
    spec = MarketSpec(
        tree,
        {n: 0.0 for n in tree.non_leaves()},
        {n: 0.0 for n in tree.preorder()},
        {"r": 0.0, "r0": 0.3, "r00": 0.9},
        {"r0": 1.0},
        StoppingTime(frozenset({"r0"})),
        "bounded",
    )
    cum = cumulative_dividends(spec)
    assert cum["r0"] == pytest.approx(0.3)
    assert cum["r00"] == pytest.approx(0.3)  # post-liquidation dividend ignored


# -- level-order processes against the per-node loops -----------------------

def _spec_markets():
    """Over 200 generated markets (every style and tau mode, with dividends and
    nonzero rates; claim markets; some with -0.0 for every zero price and
    dividend), fiat(3..7) and the data files."""
    import os

    from bubbletree.cli import parse_market_file

    for seed in range(40):
        for style in ("neutral", "bumped", "free"):
            for tau_mode in ("bounded", "unbounded", "none"):
                if (seed + len(style) + len(tau_mode)) % 2:
                    continue
                yield fixtures.rand_market(seed, depth=1 + seed % 4, branching=2 + seed % 3,
                                           style=style, tau_mode=tau_mode).spec
        yield fixtures.rand_claim_market(seed, depth=2 + seed % 3, branching=2 + seed % 3,
                                         style=("neutral", "bumped", "free")[seed % 3]).spec
    for seed in range(20):
        spec = fixtures.rand_market(seed, style=("neutral", "free")[seed % 2]).spec
        neg = {n: -0.0 for n, x in spec.price.items() if x == 0.0}
        yield MarketSpec(spec.tree, spec.rates, {**spec.price, **neg},
                         {n: -0.0 if x == 0.0 else x for n, x in spec.dividend.items()},
                         spec.payoff, spec.tau, spec.tau_kind)
    for periods in range(3, 8):
        yield fixtures.fiat(periods).spec
    data = os.path.join(os.path.dirname(__file__), "data")
    for name in sorted(os.listdir(data)):
        if name.endswith(".market"):
            yield parse_market_file(os.path.join(data, name)).spec


@pytest.mark.parametrize("width", [0, math.inf])
def test_level_processes_and_their_readers_equal_the_preorder_loops(monkeypatch, width):
    """``MarketSpec.processes`` and the readers off it, on trees built by both
    paths of ``EventTree``: numpy per level (width 0) and per node on lists
    (width infinite; by default, trees whose levels average under
    ``lattice._TREE_NUMPY_MIN_WIDTH`` nodes)."""
    import per_node

    from bubbletree import lattice

    monkeypatch.setattr(lattice, "_TREE_NUMPY_MIN_WIDTH", width)
    count = 0
    for spec in _spec_markets():
        count += 1
        ref = per_node.derived(spec)
        readers = (discount_factors, cumulative_dividends, wealth_process)
        got = (tau_node_map(spec), *(f(spec).values for f in readers))
        for a, b in zip(ref, got, strict=True):
            assert list(a) == list(b)  # key order
            assert repr(a) == repr(b)  # values bitwise, signed zeros and NaN included
        assert repr(per_node.stopped_price(spec)) == repr(NodeValues(spec.tree, spec.processes.stopped))
        assert per_node.alive_horizon(spec) == spec.alive_horizon
        assert per_node.cash_events(spec) == spec.cash_events
        p, starts = spec.processes, spec.tree.level_starts  # each time's discounted prices and B
        levels = [(p.S[a:b], p.B[a:b]) for a, b in zip(starts, starts[1:])]
        for (s0, b0), (s1, b1) in zip(per_node.level_prices(spec), levels, strict=True):
            assert s0.dtype == s1.dtype == b0.dtype == b1.dtype == float
            assert repr(s0.tolist()) == repr(s1.tolist()) and repr(b0.tolist()) == repr(b1.tolist())
        p, order = spec.processes, spec.tree.level_order
        assert repr(p.W.tolist()) == repr([ref.W[n] for n in order])
        assert p.tau.dtype == np.intp and not any(x.flags.writeable for x in p)
        rng = np.random.default_rng(count)
        for strategy in (
            Strategy({n: float(rng.choice([0.0, 1.0, rng.uniform(0, 2)])) for n in order}),
            Strategy({n: 1 for n in spec.tree.non_leaves()}),  # int holdings
        ):
            assert repr(per_node.strategy_eta(spec, strategy)) == repr(strategy_eta(spec, strategy))
    assert count >= 200


def test_gains_process_equals_the_preorder_loops():
    """The level pass of ``gains_process`` against its per-node loops, on the
    markets above: zero, buy-and-hold, random nonnegative holdings with zeros,
    and buy-and-hold that stops at one zero-wealth node. Gains and value must
    match bitwise, signed zeros and key order included (``repr``)."""
    import per_node

    count, changed, outcomes = 0, 0, set()
    for spec in _spec_markets():
        count += 1
        tree, W = spec.tree, spec.processes.W
        inner = tree.non_leaves()
        rng = np.random.default_rng(count)
        hold = {n: 1.0 for n in inner}
        broke = [n for n in inner[1:] if W[tree.index(n)] == 0.0][:1]
        changed += bool(broke)
        for strategy in (
            Strategy({}),
            Strategy(hold),
            Strategy({n: float(rng.choice([0.0, 0.0, 1.0, rng.uniform(0, 2)])) for n in inner}),
            Strategy({**hold, **dict.fromkeys(broke, 0.0)}),
        ):
            ref, got = per_node.gains_process(spec, strategy), gains_process(spec, strategy)
            assert repr(ref.gains.values) == repr(got.gains.values)
            assert repr(ref.value.values) == repr(got.value.values)
            assert ref.self_financing is got.self_financing
            outcomes.add(got.self_financing)
    assert count >= 200 and changed >= 10 and outcomes == {True, False}


def test_gains_process_reads_node_values_holdings_as_their_array(monkeypatch):
    """A superhedge's holdings on fiat(10) (a ``NodeValues`` over the tree's
    inner nodes) give the gains and value of the same holdings in a dict,
    bitwise and in the same key order, with no per-node read of the holdings."""
    from bubbletree.noarb import superhedge

    fx = fixtures.fiat(10)
    spec, tree = fx.spec, fx.spec.tree
    payoff = {leaf: max(w - 0.9, 0.0) for leaf, w in wealth_process(spec).values.items()
              if tree.is_leaf(leaf)}
    pi = superhedge(spec, payoff, fx.family).strategy.pi
    assert len(pi) == 1023 and len(set(pi.values())) > 100
    want = gains_process(spec, Strategy(dict(pi.items())))
    calls = []
    monkeypatch.setattr(NodeValues, "__getitem__", lambda self, nid: calls.append(nid))
    got = gains_process(spec, Strategy(pi))
    assert calls == []
    assert repr(got.gains.values) == repr(want.gains.values)
    assert repr(got.value.values) == repr(want.value.values)
    assert got.self_financing is want.self_financing
