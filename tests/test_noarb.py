import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linprog

import per_node

from bubbletree import fixtures
from bubbletree.ambiguity import (
    CHARGE_TOL,
    ExplicitFamily,
    RectangularFamily,
    TransitionSet,
    _push_mass,
    charged_leaves,
    classify_process,
    cond_expectation,
    node_charged,
)
from bubbletree.lattice import (
    EventTree,
    MarketSpec,
    StoppingTime,
    Strategy,
    gains_process,
    wealth_process,
)
from bubbletree.noarb import (
    _GAIN_TOL,
    FtapReport,
    NotRiskNeutralError,
    UnboundedHedgeError,
    _certificate,
    _find_arbitrage_lp,
    _gain_rows,
    _maximal_support,
    _product_witness,
    _superhedge_lp,
    find_arbitrage,
    robust_price,
    superhedge,
    supermartingale_family,
    verify_ftap,
)


def flat_chain(price=1.0, depth=2):
    tree = EventTree.uniform([1] * depth)
    return MarketSpec(
        tree,
        {n: 0.0 for n in tree.non_leaves()},
        {n: price for n in tree.preorder()},
        {n: 0.0 for n in tree.preorder()},
        {},
        StoppingTime(frozenset()),
        "possibly_infinite",
    )


# -- arbitrage search ---------------------------------------------------------

def test_sure_gain_market_has_arbitrage():
    # both branches gain: buy one unit at the root
    fx = fixtures.ex1_one_period(s0=1.0, s1=(1.5, 1.2))
    cert = find_arbitrage(fx.spec)
    assert cert is not None
    assert min(cert.gains.values()) >= 0.2 - 1e-9
    assert cert.revalidate(fx.spec, fx.spec.tree.leaves)


def test_ex1_one_period_no_arbitrage():
    fx = fixtures.ex1_one_period()
    assert find_arbitrage(fx.spec) is None


def test_flat_chain_no_arbitrage():
    assert find_arbitrage(flat_chain()) is None


def test_ex1_two_period_arbitrage_buy_cheap_branch():
    fx = fixtures.ex1()
    cert = find_arbitrage(fx.spec)
    assert cert is not None
    assert cert.witness_gain > 1e-6
    # the profitable trade is on the cheap branch: wealth 0.5 -> payoff 1
    assert cert.gains["r10"] == pytest.approx(0.5, abs=1e-9)


def test_rise_or_stay_flat_is_an_arbitrage_with_a_bounded_hedge():
    # one branch gains, the other neither gains nor loses: a (weak) one-step
    # arbitrage at the root, but the flat branch keeps the hedge cost finite
    fx = fixtures.ex1_one_period(s0=1.0, s1=(1.5, 1.0))
    cert = find_arbitrage(fx.spec)
    assert cert is not None and _find_arbitrage_lp(fx.spec) is not None
    assert cert.witness == "r0" and cert.gains["r1"] == 0.0
    assert cert.revalidate(fx.spec, fx.spec.tree.leaves)
    rep = verify_ftap(fx.spec)
    assert rep.pricing_family is None and rep.consistent
    payoff = {"r0": 0.0, "r1": 0.0}
    assert superhedge(fx.spec, payoff).price == 0.0
    assert _superhedge_lp(fx.spec, payoff).price == pytest.approx(0.0, abs=1e-9)


def test_certificate_revalidation_fails_on_a_short_holding_or_a_charged_loss():
    """``revalidate`` refuses a certificate whose strategy holds a negative position, and one
    whose gain is negative at a charged leaf; a leaf outside the charged ones does not count."""
    fx = fixtures.ex1_one_period(s0=1.0, s1=(1.5, 1.0))
    leaves = fx.spec.tree.leaves
    cert = find_arbitrage(fx.spec)
    assert cert.strategy.pi == {"r": 1.0} and cert.revalidate(fx.spec, leaves)
    assert not dataclasses.replace(cert, strategy=Strategy({"r": -1.0})).revalidate(fx.spec, leaves)
    falls = fixtures.ex1_one_period(s0=1.0, s1=(1.5, 0.5)).spec  # one unit loses 0.5 at r1
    assert not cert.revalidate(falls, leaves)
    assert cert.revalidate(falls, ["r0"])


def small_gain_spec() -> MarketSpec:
    """One branch rises by 5e-7, the other stays flat: one unit of the asset
    gains less than ``_GAIN_TOL``."""
    tree = EventTree.uniform([2])
    price = {"r": 1.0, "r0": 1.0 + 5e-7, "r1": 1.0}
    return MarketSpec(tree, {"r": 0.0}, price, dict.fromkeys(price, 0.0),
                      {"r0": price["r0"], "r1": 1.0}, StoppingTime(frozenset({"r0", "r1"})),
                      "bounded")


def test_small_one_step_gain_scales_the_certificate():
    # the certificate holds 4 units for a witness gain of 2e-6
    spec = small_gain_spec()
    tree = spec.tree
    cert = find_arbitrage(spec)
    assert cert.witness == "r0" and cert.strategy.pi == {"r": pytest.approx(4.0)}
    assert cert.witness_gain == pytest.approx(2e-6) and cert.witness_gain > _GAIN_TOL
    assert cert.gains["r1"] == 0.0 and cert.revalidate(spec, tree.leaves)
    # the certificate is checked on the gains it computes: one unit gains too
    # little, and holding the asset where a charged leaf loses fails
    with pytest.raises(RuntimeError, match="certificate failed direct re-validation"):
        _certificate(spec, tree.leaves, Strategy({"r": 1.0}))
    falls = fixtures.ex1_one_period(s0=1.0, s1=(1.5, 0.5)).spec
    with pytest.raises(RuntimeError, match="certificate failed direct re-validation"):
        _certificate(falls, falls.tree.leaves, Strategy({"r": 1.0}))


def _noarb_calls(spec, actual, payoff):
    """What ``verify_ftap``, ``find_arbitrage``, ``supermartingale_family`` and
    ``superhedge`` return over ``actual``, as comparable text."""
    def family(fam):
        return None if fam is None else (repr([x.tolist() for x in fam.cuts]), sorted(fam.charged))

    rep = verify_ftap(spec, actual)
    assert isinstance(rep, FtapReport) and rep.actual is actual
    hedge = _hedge_or_none(superhedge, spec, payoff, actual)
    return [repr(rep.arbitrage), family(rep.pricing_family), repr(find_arbitrage(spec, actual)),
            family(supermartingale_family(spec, actual)), repr(hedge)]


def test_one_step_pass_runs_once_per_spec_and_family(monkeypatch):
    """The entry points of ``noarb`` read one one-step pass per spec and
    ``actual`` family: called in turn on one spec over no family, a box, a
    vertex-list and an explicit family, each returns what it returns on a
    fresh spec, and each family's pass runs once."""
    from bubbletree import noarb

    runs = Counter()
    cuts = noarb._cuts

    def counted(spec, actual):
        runs[id(spec), id(actual)] += 1
        return cuts(spec, actual)

    monkeypatch.setattr(noarb, "_cuts", counted)
    differ = 0
    for seed in range(9):
        fx = fixtures.rand_market(seed, depth=3, branching=2 + seed % 2,
                                  style=("neutral", "bumped", "free")[seed % 3])
        spec, tree = fx.spec, fx.spec.tree
        runs.clear()  # ids are unique among live objects only
        rng = np.random.default_rng(seed)
        boxes = dict(fx.family.transitions)
        for n in tree.non_leaves():
            k = len(tree.children(n))
            if k >= 2 and rng.random() < 0.5:  # one child uncharged
                drop = rng.integers(k)
                boxes[n] = TransitionSet.box([0.0] * k, [float(i != drop) for i in range(k)])
        vertex = {n: TransitionSet.vertex_set(ts.vertex_list())
                  for n, ts in fx.family.transitions.items()}
        measures = []
        for _ in range(2):
            q = rng.uniform(0, 1, len(tree.leaves)) * (rng.random(len(tree.leaves)) < 0.6)
            q[0] += 0.1
            measures.append(dict(zip(tree.leaves, (q / q.sum()).tolist())))
        families = (None, RectangularFamily(tree, boxes), RectangularFamily(tree, vertex),
                    ExplicitFamily(tree, tuple(measures), role="actual"))
        payoff = {leaf: float(rng.uniform(0, 2)) for leaf in tree.leaves}
        shared = [[] for _ in families]
        for _ in range(2):
            for i, actual in enumerate(families):
                shared[i].append(_noarb_calls(spec, actual, payoff))
        for got, actual in zip(shared, families):
            fresh = _noarb_calls(dataclasses.replace(spec), actual, payoff)
            assert got == [fresh, fresh], seed
        assert [runs[id(spec), id(a)] for a in families] == [1, 1, 1, 1], seed
        differ += len({repr(got) for got in shared}) > 1
    assert differ >= 6


def test_one_step_pass_goes_with_its_family():
    """A spec keeps one pass per live ``actual`` family: fresh family objects
    leave no entry behind, and the pass over no family stays."""
    fx = fixtures.rand_market(3)
    spec = fx.spec
    verify_ftap(spec)
    for _ in range(1000):
        verify_ftap(spec, fx.family.with_role("actual"))
    assert len(spec.memo) <= 2 and ("noarb._cuts", id(None)) in spec.memo
    kept = fx.family.with_role("actual")
    rep = verify_ftap(spec, kept)
    assert verify_ftap(spec, kept).pricing_family.transitions is rep.pricing_family.transitions
    assert len(spec.memo) <= 3


# -- the pricing-equivalence report -------------------------------------------

def test_ftap_ex1_arbitrage_side():
    fx = fixtures.ex1()
    rep = verify_ftap(fx.spec, fx.family)
    assert rep.arbitrage is not None
    assert not rep.family_found
    assert rep.consistent
    assert rep.search_agreement
    # no supermartingale measure can charge the cheap branch
    assert rep.pricing_family is None


def test_ftap_martingale_binomial_family_side():
    fx = fixtures.ex1_one_period(theta=(0.5, 0.5))
    rep = verify_ftap(fx.spec, fx.family)
    assert rep.arbitrage is None
    assert rep.family_found
    assert rep.consistent
    cls = classify_process(rep.witness_family, wealth_process(fx.spec))
    assert cls.satisfies("G_supermartingale")
    # the witness family charges every leaf
    for leaf in fx.spec.tree.leaves:
        assert any(q[leaf] > 1e-9 for q in rep.witness_family.measures)


def test_ftap_flat_market_point_mass():
    spec = flat_chain()
    rep = verify_ftap(spec)
    assert rep.arbitrage is None and rep.family_found and rep.consistent


@pytest.mark.parametrize("seed", range(24))
def test_ftap_dichotomy_on_random_markets(seed):
    style = ["neutral", "bumped", "free"][seed % 3]
    fx = fixtures.rand_market(seed, depth=(seed % 3) + 2, style=style,
                              tau_mode=["bounded", "unbounded", "none"][(seed // 3) % 3])
    rep = verify_ftap(fx.spec, fx.family)
    assert rep.consistent
    assert rep.search_agreement
    if rep.arbitrage is not None:
        assert rep.arbitrage.revalidate(fx.spec, fx.spec.tree.leaves)


def _per_leaf_charged(spec, leaves):
    """Oracle: per charged leaf, maximize q_l over the supermartingale
    measures on the charged leaves (A q <= 0, sum q = 1, q >= 0), with A
    built from the tree walk; a leaf is chargeable when the optimum is
    positive."""
    tree = spec.tree
    W = wealth_process(spec).values
    index = {leaf: j for j, leaf in enumerate(leaves)}
    A = []
    for n in tree.non_leaves():
        row = np.zeros(len(leaves))
        for leaf in tree.subtree_leaves(n):
            if leaf in index:
                path = tree.path(leaf)
                row[index[leaf]] = W[path[path.index(n) + 1]] - W[n]
        A.append(row)
    A = np.array(A) if A else None
    charged = set()
    for j, leaf in enumerate(leaves):
        c = np.zeros(len(leaves))
        c[j] = -1.0
        res = linprog(
            c,
            A_ub=A,
            b_ub=None if A is None else np.zeros(A.shape[0]),
            A_eq=np.ones((1, len(leaves))),
            b_eq=[1.0],
            bounds=[(0.0, None)] * len(leaves),
            method="highs",
        )
        if res.status == 0 and -res.fun > 1e-9:
            charged.add(leaf)
    return charged


def test_maximal_support_lp_matches_per_leaf_oracle():
    n_markets = 0
    for seed in range(210):
        fx = fixtures.rand_market(
            seed + 3000,
            depth=(seed % 3) + 1,
            branching=(seed % 2) + 2,
            style=("neutral", "bumped", "free")[seed % 3],
            tau_mode=("bounded", "unbounded", "none")[(seed // 3) % 3],
        )
        n_markets += 1
        for actual in (None, fx.family):
            tree = fx.spec.tree
            leaves = charged_leaves(actual, tree)
            _, rows, _ = _gain_rows(fx.spec, leaves)
            _, hit = _maximal_support(rows)
            fast = {leaf for leaf, h in zip(leaves, hit) if h}
            assert fast == _per_leaf_charged(fx.spec, leaves), (seed, actual is None)

            rep = verify_ftap(fx.spec, actual)
            assert rep.consistent and rep.search_agreement
            if rep.family_found:
                assert fast == set(leaves)
                for leaf in tree.leaves:
                    if node_charged(rep.pricing_family, leaf):
                        assert node_charged(rep.witness_family, leaf), (seed, leaf)
    assert n_markets >= 200


# 27, 38 and 54 (default style) have one-step wealth changes of about 1e-17,
# which must count as zero; 6 ("free") has charged subtrees whose superhedge
# cost is -inf under a finite root price.
ORACLE_SEEDS = sorted(set(range(26)) | {27, 38, 54})


def _hedge_or_none(solve, spec, payoff, actual):
    try:
        return solve(spec, payoff, actual)
    except UnboundedHedgeError:
        return None


def test_local_passes_match_lp_oracles():
    n_markets = 0
    for seed in ORACLE_SEEDS:
        for gen in (fixtures.rand_market, fixtures.rand_claim_market):
            for style in ("neutral", "free"):
                fx = gen(seed, style=style)
                spec, tree = fx.spec, fx.spec.tree
                for actual in (None, fx.family):
                    n_markets += 1
                    case = (gen.__name__, seed, style, actual is None)
                    leaves = charged_leaves(actual, tree)

                    cert = find_arbitrage(spec, actual)
                    assert (cert is None) == (_find_arbitrage_lp(spec, actual) is None), case
                    if cert is not None:
                        assert cert.revalidate(spec, leaves), case

                    _, rows, _ = _gain_rows(spec, leaves)
                    _, hit = _maximal_support(rows)
                    lp_support = {leaf for leaf, h in zip(leaves, hit) if h}
                    rep = verify_ftap(spec, actual)
                    assert rep.consistent and rep.search_agreement, case
                    if rep.family_found:
                        q = _product_witness(rep.pricing_family)
                        assert {l for l in leaves if q[l] > CHARGE_TOL} == lp_support, case
                    else:
                        assert lp_support != set(leaves), case

                    rng = np.random.default_rng(seed)
                    W = wealth_process(spec).values
                    for payoff in (
                        {l: float(rng.uniform(0, 2)) for l in tree.leaves},
                        {l: W[l] for l in tree.leaves},
                    ):
                        fast = _hedge_or_none(superhedge, spec, payoff, actual)
                        lp = _hedge_or_none(_superhedge_lp, spec, payoff, actual)
                        assert (fast is None) == (lp is None), case
                        if fast is None:
                            continue
                        assert abs(fast.price - lp.price) <= 1e-9 * max(1.0, abs(lp.price)), case
                        assert min(fast.slack.values()) >= -1e-9, case
                        # the slack is the strategy's own terminal capital
                        G = gains_process(spec, fast.strategy).gains.values
                        for l in leaves:
                            direct = fast.price + G[l] - payoff[l]
                            assert fast.slack[l] == pytest.approx(direct, abs=1e-9), case
    assert n_markets >= 200
    # a gain too small for one unit: the LP scales its holding as the search does
    spec = small_gain_spec()
    cert, lp = find_arbitrage(spec), _find_arbitrage_lp(spec)
    assert cert is not None and lp is not None
    assert lp.witness == cert.witness == "r0" and lp.witness_gain > _GAIN_TOL
    assert lp.revalidate(spec, spec.tree.leaves)


def test_charged_node_without_a_charged_leaf_admits_no_false_arbitrage():
    """A box that drops the one child of a node (which ``validate_family``
    reports, and the ``noarb`` entry points do not check) leaves that node
    charged with no charged child. A one-step gain into it lands on no charged
    leaf: it is no arbitrage, and the search agrees with the LP oracle."""
    tree = EventTree({"r": None, "a": "r", "b": "r", "a0": "a", "b0": "b", "b1": "b"})
    price = {"r": 1.0, "a": 2.0, "b": 1.0, "a0": 2.0, "b0": 1.0, "b1": 1.0}
    spec = MarketSpec(tree, {"r": 0.0, "a": 0.0, "b": 0.0}, price, dict.fromkeys(price, 0.0),
                      {}, StoppingTime(frozenset()), "possibly_infinite")
    full = TransitionSet.box([0.0, 0.0], [1.0, 1.0])
    family = RectangularFamily(tree, {"r": full, "a": TransitionSet.box([0.0], [0.0]), "b": full})
    assert "a" in family.charged and "a0" not in family.charged
    assert find_arbitrage(spec, family) is None and _find_arbitrage_lp(spec, family) is None
    assert verify_ftap(spec, family).consistent

    exercised = arbitrages = 0
    for seed in range(30):
        fx = fixtures.rand_market(seed, depth=3, branching=2,
                                  style=("neutral", "bumped", "free")[seed % 3])
        tree = fx.spec.tree
        rng = np.random.default_rng(seed)
        boxes = dict(fx.family.transitions)
        for n in tree.non_leaves():
            if len(tree.children(n)) == 1 and rng.random() < 0.5:
                boxes[n] = TransitionSet.box([0.0], [0.0])
        family = RectangularFamily(tree, boxes, role="actual")
        mask = family.charged_mask
        inner = tree.child_offsets[1:] > tree.child_offsets[:-1]
        kids = np.bincount(tree.parent_index[1:], mask[1:], len(tree))
        exercised += bool((mask & inner & (kids == 0)).any())
        cert = find_arbitrage(fx.spec, family)
        assert (cert is None) == (_find_arbitrage_lp(fx.spec, family) is None), seed
        if cert is not None:
            arbitrages += 1
            assert cert.revalidate(fx.spec, charged_leaves(family, tree)), seed
        assert verify_ftap(fx.spec, family).consistent, seed
    assert exercised >= 15 and arbitrages >= 5


def test_witness_falls_back_to_structural_measures(monkeypatch):
    # a leaf the product witness leaves uncharged while the structural family
    # reaches it gets the structural product witness
    from bubbletree import noarb

    def charges_nothing(family):
        return dict.fromkeys(family.tree.leaves, 0.0)

    monkeypatch.setattr(noarb, "_product_witness", charges_nothing)
    fx = fixtures.ex1_one_period(theta=(0.5, 0.5))
    rep = verify_ftap(fx.spec, fx.family)
    assert rep.family_found and rep.consistent
    assert not rep.search_agreement
    assert len(rep.witness_family.measures) == len(fx.spec.tree.leaves)
    assert all(node_charged(rep.witness_family, leaf) for leaf in fx.spec.tree.leaves)


# -- superhedging -------------------------------------------------------------

def test_constant_payoff_costs_its_value():
    fx = fixtures.ex1_one_period()
    h = superhedge(fx.spec, {"r0": 3.0, "r1": 3.0})
    assert h.price == pytest.approx(3.0, abs=1e-9)
    assert min(h.slack.values()) >= -1e-9


def test_superhedge_price_process_equals_dual_value():
    # oracle: the dual is the sup over all supermartingale measures, here the
    # endpoint family q in [0, 0.5]; payoff S_1 prices at 1.0
    fx = fixtures.ex1_one_period()
    payoff = {"r0": 1.5, "r1": 0.5}
    dual = max(q * 1.5 + (1 - q) * 0.5 for q in (0.0, 0.5))
    h = superhedge(fx.spec, payoff)
    assert h.price == pytest.approx(dual, abs=1e-9)
    assert dual == 1.0


def test_superhedge_terminal_wealth_buy_and_hold():
    fx = fixtures.rand_market(3, depth=3, style="neutral")
    W = wealth_process(fx.spec)
    payoff = {leaf: W[leaf] for leaf in fx.spec.tree.leaves}
    h = superhedge(fx.spec, payoff)
    w0 = W[fx.spec.tree.root]
    assert h.price <= w0 + 1e-9
    # explicit feasibility of (W_0, buy-and-hold)
    gains = {leaf: W[leaf] - w0 for leaf in fx.spec.tree.leaves}
    assert all(w0 + gains[l] >= payoff[l] - 1e-12 for l in payoff)


def test_superhedge_translation_and_monotonicity():
    fx = fixtures.rand_market(7, depth=3, style="bumped")
    rng = np.random.default_rng(42)
    payoff = {l: float(rng.uniform(0, 2)) for l in fx.spec.tree.leaves}
    base = superhedge(fx.spec, payoff).price
    shifted = superhedge(fx.spec, {l: v + 0.75 for l, v in payoff.items()}).price
    assert shifted == pytest.approx(base + 0.75, abs=1e-9)
    bigger = superhedge(fx.spec, {l: v + 0.1 * (hash(l) % 3) for l, v in payoff.items()}).price
    assert bigger >= base - 1e-9


def test_unbounded_hedge_on_strong_arbitrage():
    fx = fixtures.ex1_one_period(s0=1.0, s1=(1.5, 1.2))
    with pytest.raises(UnboundedHedgeError):
        superhedge(fx.spec, {"r0": 0.0, "r1": 0.0})


def _hedge_actuals(family, rng):
    """None, the market's box family, a thinned box family (one child's
    bound zeroed at about half the nodes), its vertex lists, and two
    product measures of its vertices as an explicit family."""
    tree, transitions = family.tree, dict(family.transitions)
    for n in tree.non_leaves():
        k = len(tree.children(n))
        if k >= 2 and rng.random() < 0.5:
            drop = int(rng.integers(k))
            transitions[n] = TransitionSet.box([0.0] * k, [float(i != drop) for i in range(k)])
    vertices = {n: ts.vertex_list() for n, ts in transitions.items()}
    measures = tuple(
        _push_mass(tree, {n: vs[int(rng.integers(len(vs)))] for n, vs in vertices.items()})
        for _ in range(2)
    )
    return (
        None,
        family,
        RectangularFamily(tree, transitions, role="actual"),
        RectangularFamily(tree, {n: TransitionSet.vertex_set(vs) for n, vs in vertices.items()},
                          role="actual"),
        ExplicitFamily(tree, measures, role="actual"),
    )


def test_superhedge_matches_per_node_recursion():
    files = hedges = unbounded = 0
    for seed in range(320):
        style = ("neutral", "bumped", "free")[seed % 3]
        tau = ("bounded", "unbounded", "none", "claim")[seed // 3 % 4]
        shape = dict(depth=1 + seed % 4, branching=2 + seed // 4 % 3, style=style)
        fx = (fixtures.rand_claim_market(seed, **shape) if tau == "claim"
              else fixtures.rand_market(seed, tau_mode=tau, **shape))
        files += 1
        spec, tree = fx.spec, fx.spec.tree
        rng = np.random.default_rng(seed)
        W = wealth_process(spec).values
        for actual in _hedge_actuals(fx.family, rng):
            for payoff in ({l: float(rng.uniform(0, 2)) for l in tree.leaves},
                           {l: W[l] for l in tree.leaves}):
                case = (seed, style, tau, type(actual).__name__)
                hedges += 1
                fast = _hedge_or_none(superhedge, spec, payoff, actual)
                ref = _hedge_or_none(per_node.superhedge, spec, payoff, actual)
                assert (fast is None) == (ref is None), case
                if fast is None:
                    unbounded += 1
                    continue
                assert math.isclose(fast.price, ref.price, rel_tol=1e-12), case
                assert list(fast.slack) == list(ref.slack), case
                assert list(fast.strategy.pi) == list(ref.strategy.pi), case
                assert min(fast.strategy.pi.values()) >= 0.0, case
                assert min(fast.slack.values()) >= -1e-9, case
    assert files >= 300 and unbounded >= 100 and hedges - unbounded >= 1000, (hedges, unbounded)


# -- robust price and duality ---------------------------------------------------

def test_constant_claim_value_and_zero_gap():
    fx = fixtures.ex1_one_period()
    rep = verify_ftap(fx.spec, fx.family)
    res = robust_price(fx.spec, rep.pricing_family, {"r0": 3.0, "r1": 3.0})
    assert res.value == pytest.approx(3.0, abs=1e-9)
    assert res.duality_gap <= 1e-9


def test_singleton_binomial_call_price():
    # oracle: classical one-step binomial formula
    u, d, s0, k = 1.5, 0.5, 1.0, 1.0
    q = (1.0 - d) / (u - d)
    classical = q * max(u * s0 - k, 0.0) + (1 - q) * max(d * s0 - k, 0.0)
    fx = fixtures.ex1_one_period(theta=(q, q))
    payoff = {"r0": max(u - k, 0.0), "r1": max(d - k, 0.0)}
    res = robust_price(fx.spec, fx.family, payoff)
    assert res.value == pytest.approx(classical, abs=1e-12)
    assert classical == pytest.approx(0.25, abs=1e-15)


def test_not_risk_neutral_family_rejected():
    fx = fixtures.ex1()  # wealth rises surely on the cheap branch
    with pytest.raises(NotRiskNeutralError):
        robust_price(fx.spec, fx.family, {l: 1.0 for l in fx.spec.tree.leaves})


@pytest.mark.parametrize("seed", range(16))
def test_duality_gap_vanishes_with_supermartingale_family(seed):
    style = "neutral" if seed % 2 else "bumped"
    fx = fixtures.rand_market(seed + 100, depth=(seed % 4) + 1, style=style,
                              tau_mode=["bounded", "unbounded", "none"][seed % 3])
    rep = verify_ftap(fx.spec, fx.family)
    if not rep.family_found:
        pytest.skip("instance admits arbitrage")
    rng = np.random.default_rng(seed)
    payoff = {l: float(rng.uniform(0, 2)) for l in fx.spec.tree.leaves}
    res = robust_price(fx.spec, rep.pricing_family, payoff)
    assert res.duality_gap <= 1e-6


def test_polar_leaves_excluded_quasi_surely():
    # with the down branch null under the actual family, hedge constraints
    # and the arbitrage search only see the up branch
    from bubbletree.ambiguity import RectangularFamily, TransitionSet

    fx = fixtures.ex1_one_period(s0=1.0, s1=(0.8, 0.5))
    tree = fx.spec.tree
    polar_down = RectangularFamily(
        tree, {"r": TransitionSet.box([1.0, 0.0], [1.0, 0.0])}, role="actual"
    )
    payoff = {"r0": 0.8, "r1": 5.0}
    assert superhedge(fx.spec, payoff).price == pytest.approx(5.0, abs=1e-9)
    assert superhedge(fx.spec, payoff, polar_down).price == pytest.approx(0.8, abs=1e-9)

    # a sure gain on the only charged branch is an arbitrage even though the
    # polar branch would lose
    fx2 = fixtures.ex1_one_period(s0=1.0, s1=(1.5, 0.5))
    assert find_arbitrage(fx2.spec) is None
    cert = find_arbitrage(fx2.spec, polar_down)
    assert cert is not None
    assert cert.revalidate(fx2.spec, ["r0"])
    rep = verify_ftap(fx2.spec, polar_down)
    assert rep.consistent and rep.arbitrage is not None


def test_supermartingale_family_recursion_matches_enumeration():
    fx = fixtures.rand_market(11, depth=2, branching=2, style="bumped")
    fam = supermartingale_family(fx.spec)
    assert fam is not None
    rng = np.random.default_rng(0)
    payoff = {l: float(rng.uniform(0, 2)) for l in fx.spec.tree.leaves}
    direct = cond_expectation(fam, payoff, fx.spec.tree.root, "upper")
    oracle = max(
        sum(q.get(l, 0.0) * payoff[l] for l in payoff)
        for q in per_node.enumerate_extreme_measures(fam)
    )
    assert direct == pytest.approx(oracle, abs=1e-9)
