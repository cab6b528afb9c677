from collections import Counter

import numpy as np
import pytest

from per_node import american_oracle

from bubbletree import claims, fixtures
from bubbletree.ambiguity import ExplicitFamily, RectangularFamily, TransitionSet, node_charged
from bubbletree.claims import (
    AssumptionViolationError,
    Claim,
    american_bounds,
    american_fundamental_price,
    asset_bubble,
    asset_fundamental,
    claim_bubbles,
    fundamental_claim_price,
    market_parity,
    parity_bounds,
    terminal_payoff,
    validate_claim,
)
from bubbletree.lattice import (
    EventTree,
    MarketSpec,
    StoppingTime,
    discount_factors,
    tau_node_map,
)


# -- claim construction and assumptions ---------------------------------------

def test_unknown_claim_kind_rejected():
    with pytest.raises(ValueError):
        Claim("swap", 1)


def test_negative_strike_rejected():
    with pytest.raises(ValueError):
        Claim("euro_call", 1, -1.0)


def test_dividend_inside_horizon_rejected():
    fx = fixtures.ex1_one_period()
    spec = fx.spec
    bad = MarketSpec(spec.tree, spec.rates, spec.price,
                     {**spec.dividend, "r0": 0.2}, spec.payoff, spec.tau, spec.tau_kind)
    with pytest.raises(AssumptionViolationError, match="dividend"):
        fundamental_claim_price(bad, fx.family, Claim("euro_call", 1, 1.0))


def test_maturity_on_charged_path_rejected():
    fx = fixtures.ex1()  # tau fires at t = 2 on every path
    with pytest.raises(AssumptionViolationError, match="matures"):
        fundamental_claim_price(fx.spec, fx.family, Claim("euro_call", 2, 1.0))


def _walk_violation(spec, claim, actual):
    """The first assumption violation by a walk over every node up to
    maturity, in preorder (the definition ``validate_claim`` must match)."""
    taumap = tau_node_map(spec)
    tree = spec.tree
    for n in tree.preorder():
        t = tree.time(n)
        if t > claim.maturity or (actual is not None and not node_charged(actual, n)):
            continue
        if taumap[n] is not None:
            return f"asset matures at {taumap[n]!r} on a charged path before T={claim.maturity}"
        if 1 <= t and abs(spec.dividend[n]) > 1e-12:
            return f"dividend paid at {n!r} inside [0, T]"
    return None


def _drop_branches(family, seed):
    """The family with one child's bounds zeroed at about half the nodes,
    so that some nodes are uncharged."""
    rng = np.random.default_rng(seed + 70_000)
    transitions = dict(family.transitions)
    for n, ts in family.transitions.items():
        k = ts.arity()
        if k >= 2 and rng.random() < 0.5:
            drop = int(rng.integers(k))
            transitions[n] = TransitionSet.box([0.0] * k, [0.0 if i == drop else 1.0 for i in range(k)])
    return RectangularFamily(family.tree, transitions)


def test_first_violation_matches_preorder_walk():
    kinds = Counter()
    for seed in range(60):
        fx = fixtures.rand_market(seed, depth=3, branching=3, dividends=seed % 3 != 0,
                                  tau_mode=("bounded", "none", "unbounded")[seed % 3])
        spec = fx.spec
        for actual in (None, fx.family, _drop_branches(fx.family, seed)):
            for T in range(1, spec.tree.horizon + 1):
                claim = Claim("euro_call", T, 1.0)
                expected = _walk_violation(spec, claim, actual)
                if expected is None:
                    validate_claim(spec, claim, actual)
                    kinds["none"] += 1
                    continue
                with pytest.raises(AssumptionViolationError) as info:
                    validate_claim(spec, claim, actual)
                assert str(info.value) == expected
                kinds[expected.split()[0]] += 1
    assert min(kinds["none"], kinds["asset"], kinds["dividend"]) >= 20, kinds


def test_ex1_claims_valid_inside_tau():
    fx = fixtures.ex1()  # tau at 2 > T = 1: fine
    proc = fundamental_claim_price(fx.spec, fx.family, Claim("euro_call", 1, 1.0))
    assert proc["r"] == pytest.approx(0.2, abs=1e-12)


# -- European fundamentals ------------------------------------------------------

def test_euro_call_price_endpoint_oracle():
    # oracle: sup over the interval endpoints of theta * (S_up - K)^+
    fx = fixtures.ex1_one_period()
    expected = max(th * 0.5 for th in (0.2, 0.4))
    got = fundamental_claim_price(fx.spec, fx.family, Claim("euro_call", 1, 1.0))
    assert got["r"] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.2, abs=1e-15)


def test_euro_put_price_endpoint_oracle():
    fx = fixtures.ex1_one_period()
    expected = max((1 - th) * 0.5 for th in (0.2, 0.4))
    got = fundamental_claim_price(fx.spec, fx.family, Claim("euro_put", 1, 1.0))
    assert got["r"] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.4, abs=1e-15)


def test_forward_at_par_under_martingale_measure():
    fx = fixtures.ex1_one_period(theta=(0.5, 0.5))
    got = fundamental_claim_price(fx.spec, fx.family, Claim("forward", 1, 1.0))
    assert got["r"] == pytest.approx(0.0, abs=1e-12)


def test_custom_terminal_payoff():
    fx = fixtures.ex1_one_period()
    claim = Claim("custom_terminal", 1, payoff={"r0": 2.0, "r1": 0.0})
    got = fundamental_claim_price(fx.spec, fx.family, claim)
    assert got["r"] == pytest.approx(0.8, abs=1e-12)


def test_strike_discounting_with_rates():
    tree = EventTree.uniform([2])
    spec = MarketSpec(
        tree, {"r": 0.25},
        {"r": 1.0, "r0": 2.0, "r1": 0.5},
        {n: 0.0 for n in tree.preorder()}, {},
        StoppingTime(frozenset()), "possibly_infinite",
    )
    payoff = terminal_payoff(spec, Claim("euro_call", 1, 1.0))
    # discounted price 2/1.25 against discounted strike 1/1.25
    assert payoff["r0"] == pytest.approx((2.0 - 1.0) / 1.25, abs=1e-12)
    assert payoff["r1"] == 0.0


def test_call_put_monotone_convex_in_strike():
    fx = fixtures.rand_claim_market(9, depth=3, branching=2, style="bumped")
    T = fx.spec.tree.horizon
    grid = [0.0, 0.4, 0.8, 1.2, 1.6]
    calls = [
        fundamental_claim_price(fx.spec, fx.family, Claim("euro_call", T, k))["r"]
        for k in grid
    ]
    puts = [
        fundamental_claim_price(fx.spec, fx.family, Claim("euro_put", T, k))["r"]
        for k in grid
    ]
    for a, b in zip(calls, calls[1:]):
        assert b <= a + 1e-9
    for a, b in zip(puts, puts[1:]):
        assert b >= a - 1e-9
    for lo, mid, hi in zip(calls, calls[1:], calls[2:]):
        assert mid <= (lo + hi) / 2 + 1e-9
    for lo, mid, hi in zip(puts, puts[1:], puts[2:]):
        assert mid <= (lo + hi) / 2 + 1e-9


# -- parity -----------------------------------------------------------------------

def test_parity_triple_ex1_geometry():
    fx = fixtures.ex1_one_period()
    rep = parity_bounds(fx.spec, fx.family, 1.0, 1)
    triple = rep.root
    assert triple.lower == pytest.approx(-0.3, abs=1e-12)
    assert triple.spread == pytest.approx(-0.2, abs=1e-12)
    assert triple.upper == pytest.approx(-0.1, abs=1e-12)
    assert rep.ok


def test_parity_collapses_for_singleton_family():
    fx = fixtures.ex1_one_period(theta=(0.3, 0.3))
    rep = parity_bounds(fx.spec, fx.family, 1.0, 1)
    triple = rep.root
    assert triple.lower == pytest.approx(triple.upper, abs=1e-12)
    assert triple.spread == pytest.approx(triple.upper, abs=1e-12)


def test_parity_zero_strike():
    fx = fixtures.ex1_one_period()
    rep = parity_bounds(fx.spec, fx.family, 0.0, 1)
    star = asset_fundamental(fx.spec, fx.family, 1)["r"]
    triple = rep.root
    assert triple.spread == pytest.approx(star, abs=1e-12)
    assert triple.upper == pytest.approx(star, abs=1e-12)
    put = fundamental_claim_price(fx.spec, fx.family, Claim("euro_put", 1, 0.0))
    assert put["r"] == 0.0


def test_market_parity_identity_passes():
    fx = fixtures.ex1_one_period()
    call = {"r": 0.3}
    put = {"r": 0.1}
    market = {"euro_call": call, "euro_put": put, "asset": {"r": 1.2}}
    rep = market_parity(fx.spec, market, 1.0, 1, no_dominance=True)
    assert rep.ok


def test_market_parity_violation_flagged():
    fx = fixtures.ex1_one_period()
    market = {"euro_call": {"r": 0.5}, "euro_put": {"r": 0.1}, "asset": {"r": 1.2}}
    rep = market_parity(fx.spec, market, 1.0, 1, no_dominance=True)
    assert rep.ok is False
    assert "r" in rep.failing_nodes


def test_market_parity_informational_without_flag():
    fx = fixtures.ex1_one_period()
    market = {"euro_call": {"r": 0.5}, "euro_put": {"r": 0.1}, "asset": {"r": 1.2}}
    rep = market_parity(fx.spec, market, 1.0, 1, no_dominance=False)
    assert rep.ok is None
    assert rep.deviations["r"] == pytest.approx(0.2, abs=1e-12)


# -- claim bubbles ------------------------------------------------------------------

def _fundamental_market_prices(fx, K, T):
    return {
        "euro_call": dict(
            fundamental_claim_price(fx.spec, fx.family, Claim("euro_call", T, K)).values
        ),
        "euro_put": dict(
            fundamental_claim_price(fx.spec, fx.family, Claim("euro_put", T, K)).values
        ),
    }


def test_claim_bubbles_zero_when_market_equals_fundamental():
    fx = fixtures.ex1_one_period()
    market = _fundamental_market_prices(fx, 1.0, 1)
    market["asset"] = {
        n: v for n, v in asset_fundamental(fx.spec, fx.family, 1).items()
    }
    market["forward"] = dict(
        fundamental_claim_price(fx.spec, fx.family, Claim("forward", 1, 1.0)).values
    )
    rep = claim_bubbles(fx.spec, fx.family, market, 1.0, 1)
    assert all(abs(v) <= 1e-12 for d in rep.deltas.values() for v in d.values())
    assert rep.ok


def test_claim_bubbles_inflated_asset():
    fx = fixtures.ex1_one_period()
    star = asset_fundamental(fx.spec, fx.family, 1)
    market = _fundamental_market_prices(fx, 1.0, 1)
    market["euro_call"] = {"r": market["euro_call"]["r"] + 0.15}
    market["asset"] = {"r": star["r"] + 0.1}
    # forward omitted: repriced from the inflated asset via parity
    rep = claim_bubbles(fx.spec, fx.family, market, 1.0, 1)
    assert rep.deltas["asset"]["r"] == pytest.approx(0.1, abs=1e-12)
    assert rep.deltas["forward"]["r"] == pytest.approx(0.1, abs=1e-12)
    assert rep.forward_equals_asset
    assert rep.spread_dominates  # 0.1 <= 0.15 - 0


@pytest.mark.parametrize("seed", range(8))
def test_claim_bubbles_hold_for_any_parity_consistent_market(seed):
    # whenever quoted prices satisfy put-call parity exactly, the bubble
    # relation follows from the fundamental parity sandwich alone
    import numpy as np

    fx = fixtures.rand_claim_market(seed + 90, depth=(seed % 3) + 1, branching=2,
                                    style=("neutral", "bumped")[seed % 2])
    spec, fam = fx.spec, fx.family
    T = spec.tree.horizon
    K = spec.price[spec.tree.root]
    rng = np.random.default_rng(seed)
    from bubbletree.lattice import discount_factors

    B = discount_factors(spec).values
    # no-dominance-consistent forward: asset price shifted by the
    # fundamental forward-vs-asset spread; puts from parity against it
    f_star = fundamental_claim_price(spec, fam, Claim("forward", T, K))
    s_star = asset_fundamental(spec, fam, T)
    calls = {}
    puts = {}
    forwards = {}
    for t in range(T + 1):
        for n in spec.tree.level(t):
            calls[n] = float(rng.uniform(0.0, 2.0))
            forwards[n] = spec.price[n] / B[n] + f_star[n] - s_star[n]
            puts[n] = calls[n] - forwards[n]
    market = {"euro_call": calls, "euro_put": puts, "forward": forwards}
    parity = market_parity(spec, market, K, T, no_dominance=True)
    assert parity.ok
    rep = claim_bubbles(spec, fam, market, K, T)
    assert rep.forward_equals_asset
    assert rep.spread_dominates


def test_claim_bubbles_inconsistent_inputs_flagged():
    fx = fixtures.ex1_one_period()
    star = asset_fundamental(fx.spec, fx.family, 1)
    market = _fundamental_market_prices(fx, 1.0, 1)
    market["asset"] = {"r": star["r"] + 0.5}
    rep = claim_bubbles(fx.spec, fx.family, market, 1.0, 1)
    assert not rep.spread_dominates
    assert not rep.ok


# -- American options -----------------------------------------------------------------

def test_american_call_equals_european_without_dividends():
    fx = fixtures.rand_claim_market(2, depth=3, branching=2, singleton=True)
    T = fx.spec.tree.horizon
    K = fx.spec.price[fx.spec.tree.root]
    amer = american_fundamental_price(fx.spec, fx.family, Claim("amer_call", T, K))
    euro = fundamental_claim_price(fx.spec, fx.family, Claim("euro_call", T, K))
    for n, v in euro.items():
        assert amer.process[n] == pytest.approx(v, abs=1e-9)


def test_deep_itm_put_exercises_at_root():
    tree = EventTree.uniform([2])
    spec = MarketSpec(
        tree, {"r": 0.0},
        {n: 0.0 for n in tree.preorder()},
        {n: 0.0 for n in tree.preorder()}, {},
        StoppingTime(frozenset()), "possibly_infinite",
    )
    fam = RectangularFamily(tree, {"r": TransitionSet.box([0.2, 0.6], [0.4, 0.8])})
    res = american_fundamental_price(spec, fam, Claim("amer_put", 1, 2.0))
    assert res.process["r"] == pytest.approx(2.0, abs=1e-12)
    assert "r" in res.exercise


def test_exercise_region_value_consistency():
    fx = fixtures.rand_claim_market(13, depth=3, branching=2, style="bumped")
    T = fx.spec.tree.horizon
    K = fx.spec.price[fx.spec.tree.root]
    claim = Claim("amer_put", T, K)
    res = american_fundamental_price(fx.spec, fx.family, claim)
    B = discount_factors(fx.spec).values
    tree = fx.spec.tree
    for t in range(T + 1):
        for n in tree.level(t):
            intrinsic = max(K / B[n] - fx.spec.price[n] / B[n], 0.0)
            if n in res.exercise:
                assert res.process[n] == pytest.approx(intrinsic, abs=1e-9)
            else:
                cont, _ = fx.family.transitions[n].maximize(
                    [res.process[c] for c in tree.children(n)]
                )
                assert res.process[n] == pytest.approx(cont, abs=1e-9)


def test_ties_exercise():
    # martingale singleton, zero strike: payoff equals continuation everywhere
    fx = fixtures.rand_claim_market(2, depth=2, branching=2, singleton=True,
                                    style="neutral")
    T = fx.spec.tree.horizon
    res = american_fundamental_price(fx.spec, fx.family, Claim("amer_call", T, 0.0))
    assert fx.spec.tree.root in res.exercise


def test_one_period_oracle_two_stopping_times():
    fx = fixtures.ex1_one_period()
    claim = Claim("amer_put", 1, 1.0)
    payoff_now = max(1.0 - 1.0, 0.0)
    cont = 0.4  # upper expectation of (1 - S_1)^+, endpoint oracle
    assert american_oracle(fx.spec, fx.family, claim) == pytest.approx(
        max(payoff_now, cont), abs=1e-12
    )


def test_singleton_snell_envelope_oracle():
    # classical backward induction under a single measure
    fx = fixtures.rand_claim_market(4, depth=3, branching=2, singleton=True)
    spec, fam = fx.spec, fx.family
    T = spec.tree.horizon
    K = spec.price[spec.tree.root] * 1.1
    claim = Claim("amer_put", T, K)
    B = discount_factors(spec).values
    tree = spec.tree
    snell = {}
    for t in range(T, -1, -1):
        for n in tree.level(t):
            intrinsic = max(K / B[n] - spec.price[n] / B[n], 0.0)
            if t == T:
                snell[n] = intrinsic
            else:
                (w,) = fam.transitions[n].vertices or (fam.transitions[n].lower,)
                cont = sum(p * snell[c] for p, c in zip(w, tree.children(n)))
                snell[n] = max(intrinsic, cont)
    dp = american_fundamental_price(spec, fam, claim)
    assert dp.process[tree.root] == pytest.approx(snell[tree.root], abs=1e-9)
    assert american_oracle(spec, fam, claim) == pytest.approx(snell[tree.root], abs=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_dp_matches_stopping_rule_oracle(seed):
    depth = (seed % 3) + 1
    branching = 2 if depth == 3 else 3
    fx = fixtures.rand_claim_market(seed + 30, depth=depth, branching=branching,
                                    style=["neutral", "bumped"][seed % 2])
    T = fx.spec.tree.horizon
    K = fx.spec.price[fx.spec.tree.root]
    for kind in ("amer_call", "amer_put"):
        claim = Claim(kind, T, K)
        dp = american_fundamental_price(fx.spec, fx.family, claim)
        orc = american_oracle(fx.spec, fx.family, claim)
        assert dp.process[fx.spec.tree.root] == pytest.approx(orc, abs=1e-9)


def test_explicit_family_american_dp_matches_the_oracles():
    # one measure: the call pays 0.5 up, nothing down, and nothing now
    fx = fixtures.ex1_one_period()
    fam = ExplicitFamily(fx.spec.tree, ({"r0": 0.3, "r1": 0.7},))
    claim = Claim("amer_call", 1, 1.0)
    res = american_fundamental_price(fx.spec, fam, claim)
    assert res.process.values == pytest.approx({"r": 0.15, "r0": 0.5, "r1": 0.0}, abs=1e-15)
    assert res.exercise == {"r0", "r1"}
    assert res.process["r"] == pytest.approx(american_oracle(fx.spec, fam, claim), abs=1e-12)


def test_american_bounds_squeeze_when_no_bubble():
    fx = fixtures.rand_claim_market(6, depth=3, branching=2, style="neutral")
    T = fx.spec.tree.horizon
    bubble = asset_bubble(fx.spec, fx.family, T)
    if any(abs(v) > 1e-9 for v in bubble.values.values()):
        pytest.skip("seed produced residual bubble")
    rep = american_bounds(fx.spec, fx.family, fx.spec.price[fx.spec.tree.root], T)
    assert rep.fundamental_ok
    for ce, ca, _ in rep.per_node.values():
        assert ca == pytest.approx(ce, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_american_fundamental_chain(seed):
    fx = fixtures.rand_claim_market(seed + 50, depth=(seed % 3) + 1, branching=2,
                                    style=["neutral", "bumped"][seed % 2])
    T = fx.spec.tree.horizon
    for K in (0.0, fx.spec.price[fx.spec.tree.root]):
        rep = american_bounds(fx.spec, fx.family, K, T)
        assert rep.fundamental_ok, rep.fundamental_worst


def test_american_chain_violation_reported_for_branch_dropping_family():
    # When transition sets allow zero mass on a child, the forward-looking
    # asset bubble can vanish at the root while early exercise still captures
    # a bubble locked inside a droppable branch; the upper bound then fails
    # and the report must say so rather than paper over it. Frozen instance;
    # the dynamic program and both enumeration oracles agree on the values.
    tree = EventTree.uniform([2, 2, 1])
    price = {
        "r": 1.297782, "r0": 1.244539, "r00": 1.6656, "r000": 1.267298,
        "r01": 0.559325, "r010": 0.520704, "r1": 1.297782, "r10": 1.829608,
        "r100": 1.829608, "r11": 1.018654, "r110": 1.018654,
    }
    trans = {
        "r": TransitionSet.box([0.0, 0.398258], [0.601742, 1.0]),
        "r0": TransitionSet.box([0.0, 0.380611], [0.619389, 1.0]),
        "r1": TransitionSet.box([0.0, 0.655804], [0.344196, 1.0]),
        "r00": TransitionSet.point([1.0]),
        "r01": TransitionSet.point([1.0]),
        "r10": TransitionSet.point([1.0]),
        "r11": TransitionSet.point([1.0]),
    }
    spec = MarketSpec(
        tree, {n: 0.0 for n in tree.non_leaves()}, price,
        {n: 0.0 for n in tree.preorder()}, {},
        StoppingTime(frozenset()), "possibly_infinite",
    )
    fam = RectangularFamily(tree, trans)
    claim = Claim("amer_call", 3, 0.9)
    dp = american_fundamental_price(spec, fam, claim)
    assert dp.process["r"] == pytest.approx(american_oracle(spec, fam, claim), abs=1e-9)
    rep = american_bounds(spec, fam, 0.9, 3)
    assert not rep.fundamental_ok
    assert rep.fundamental_worst < -0.04


def test_american_chain_violation_possible_even_with_interior_family():
    # Rare geometry (about one instance-strike pair in 1500 under the random
    # generator): early exercise captures a branch-local bubble that the
    # root-level asset bubble underweights, breaching the upper bound by
    # ~1e-3 although every transition charges every child. The dynamic
    # program still matches the stopping-rule oracle; the report flags the
    # breach. The bound is therefore checked, never assumed.
    fx = fixtures.rand_claim_market(30_007, depth=4, branching=3, style="bumped")
    K = fx.spec.price[fx.spec.tree.root]
    T = fx.spec.tree.horizon
    # stopping-rule enumeration agrees with this dynamic program value to
    # 1e-16 (too slow to rerun here; the depth<=3 suite covers the cross-check)
    dp = american_fundamental_price(fx.spec, fx.family, Claim("amer_call", T, K))
    assert dp.process[fx.spec.tree.root] == pytest.approx(0.2375083294292939, abs=1e-12)
    rep = american_bounds(fx.spec, fx.family, K, T)
    assert not rep.fundamental_ok
    assert rep.fundamental_worst == pytest.approx(-1.057e-3, abs=1e-5)


def test_american_market_chain_reduces_to_fundamental():
    fx = fixtures.rand_claim_market(8, depth=2, branching=2, style="bumped")
    T = fx.spec.tree.horizon
    K = fx.spec.price[fx.spec.tree.root]
    market = {
        "euro_call": dict(
            fundamental_claim_price(fx.spec, fx.family, Claim("euro_call", T, K)).values
        ),
        "euro_put": dict(
            fundamental_claim_price(fx.spec, fx.family, Claim("euro_put", T, K)).values
        ),
        "amer_call": dict(
            american_fundamental_price(fx.spec, fx.family, Claim("amer_call", T, K)).process.values
        ),
    }
    rep = american_bounds(fx.spec, fx.family, K, T, market_prices=market)
    assert rep.fundamental_ok
    assert rep.market_ok


@pytest.mark.parametrize("seed", range(6))
def test_american_floor_is_the_per_node_exercise_value(monkeypatch, seed):
    """The floor the American DP maximizes against, at every node of times
    0..T, is Python's ``max(S/B - K/B, 0.0)`` (puts: ``K/B - S/B``) at that
    node, bitwise: reprs tell signed zeros apart."""
    fx = fixtures.rand_claim_market(seed, depth=3, branching=3, style=["neutral", "bumped"][seed % 2])
    spec, tree = fx.spec, fx.spec.tree
    assert any(spec.rates[n] != 0.0 for n in tree.non_leaves())
    B = dict(zip(tree.level_order, spec.processes.B.tolist()))
    floors = []
    backward = claims._backward
    monkeypatch.setattr(claims, "_backward",
                        lambda *a, floor, **kw: floors.append(floor) or backward(*a, floor=floor, **kw))
    for kind in ("amer_call", "amer_put"):
        for K in (0.0, spec.price[tree.root]):
            for T in range(1, tree.horizon + 1):
                floors.clear()
                american_fundamental_price(spec, fx.family, Claim(kind, T, K))
                nodes = tree.level_order[: tree.level_starts[T + 1]]
                s = [spec.price[n] / B[n] for n in nodes]
                k = [K / B[n] for n in nodes]
                want = [max(a - b, 0.0) if kind == "amer_call" else max(b - a, 0.0)
                        for a, b in zip(s, k)]
                (floor,) = floors
                assert repr(floor.tolist()) == repr(want)
