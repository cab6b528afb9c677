"""Supermartingale cuts and the whole-tree array passes against per-node
oracles.

A ``CutSets`` map lists each node's cut as the vertex set the per-node
enumeration (``per_node.cut_vertices``) builds. A family of cuts steps its
recursions, its one-step bounds and its charged nodes on the cut arrays; the
same sets in a plain dict step node by node through ``maximize``, and both
must agree: the same maximum and maximizer (first best vertex), support and
recursions. On random markets the array passes of ``noarb`` and
``ambiguity`` equal the per-node passes they replaced (``per_node``).
Results are compared with ``==`` and by ``repr``, which also tells signed
zeros and float types apart.
"""
import dataclasses

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import per_node

from bubbletree import fixtures
from bubbletree.ambiguity import (
    _STEP_TOL,
    CutSets,
    RectangularFamily,
    TransitionSet,
    _upper_step,
    argmax_measure,
    classify_process,
    cond_expectation,
    expectation_sweep,
)
from bubbletree.lattice import EventTree, wealth_process
from bubbletree.noarb import (
    _product_witness,
    find_arbitrage,
    supermartingale_family,
    verify_ftap,
)

PROPERTY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# one-step wealth changes: exact zeros, changes within and at +-_STEP_TOL,
# and ordinary ones
steps = st.one_of(
    st.just(0.0),
    st.integers(-12, 12).map(lambda k: k * _STEP_TOL / 10),
    st.sampled_from([_STEP_TOL, -_STEP_TOL, 2 * _STEP_TOL, -2 * _STEP_TOL]),
    st.floats(-1.5, 1.5, allow_nan=False),
)
# values to maximize: repeated ones make ties
values_of = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-4, 4))


@st.composite
def cut_sets(draw, tree: EventTree) -> CutSets:
    """A cut at every inner node of ``tree``, a fifth of the children
    uncharged (NaN wealth)."""
    wn, wc = np.full(len(tree), np.nan), np.full(len(tree), np.nan)
    off = tree.child_offsets
    for g in range(len(tree)):
        if off[g] < off[g + 1]:
            wn[g] = draw(st.floats(0.25, 3.0))
            for c in range(off[g], off[g + 1]):
                if draw(st.integers(0, 4)):
                    wc[c] = wn[g] + draw(steps)
    return CutSets(tree, wn, wc)


def enumerated(cuts: CutSets, n: str) -> tuple[tuple[float, ...], ...]:
    """Node ``n``'s cut enumerated per node."""
    g, off = cuts.tree.index(n), cuts.tree.child_offsets
    wk = cuts.wc[off[g] : off[g + 1]].tolist()
    idx = [i for i, w in enumerate(wk) if w == w]
    return tuple(map(tuple, per_node.cut_vertices(cuts.wn[g].item(), wk, idx)))


def families(cuts: CutSets) -> tuple[RectangularFamily, RectangularFamily]:
    """The cuts as a ``CutSets`` family (array steps) and as a dict of vertex
    sets (``maximize`` per node)."""
    assert all(cuts[n].vertices == enumerated(cuts, n) for n in cuts)
    assume(all(cuts[n].vertices for n in cuts))  # a cut with every child above: no set
    fam, ref = RectangularFamily(cuts.tree, cuts), RectangularFamily(cuts.tree, dict(cuts))
    assert fam.cuts is not None and ref.cuts is None
    return fam, ref


def assert_same(a, b):
    assert a == b
    assert repr(a) == repr(b)


@settings(PROPERTY, max_examples=400)
@given(st.data())
def test_cut_matches_its_vertex_set(data):
    k = data.draw(st.integers(1, 5))
    tree = EventTree.uniform([k])
    fam, ref = families(data.draw(cut_sets(tree)))
    ts = ref.transitions[tree.root]
    assert ts.problems(k) == []
    assert_same(fam.charged, ref.charged)
    assert fam.charged == per_node.charged(ref) == {tree.root} | {
        c for c, s in zip(tree.children(tree.root), ts.support()) if s
    }
    for _ in range(3):
        values = data.draw(st.lists(values_of, min_size=k, max_size=k))
        (best,) = _upper_step(fam, 0, 1, np.array([0.0, *values]))
        q = argmax_measure(fam, dict(zip(tree.children(tree.root), values)))
        assert_same((best.item(), tuple(q.values())), ts.maximize(values))


def recursions(fam: RectangularFamily, rng: np.random.Generator) -> list:
    """Sweeps, conditional expectations at inner nodes, an argmax measure
    and one-step classifications of ``fam``."""
    tree, out = fam.tree, []
    for t in range(1, tree.horizon + 1):
        values = {n: float(rng.choice([-1.0, 0.0, 0.5, rng.uniform(-2, 2)])) for n in tree.level(t)}
        for bound in ("upper", "lower"):
            out.append(expectation_sweep(fam, values, bound))
            for s in range(1, t):
                out += [cond_expectation(fam, values, n, bound) for n in tree.level(s)[:3]]
    out.append(argmax_measure(fam, {n: float(rng.uniform(-2, 2)) for n in tree.leaves}))
    process = {n: float(rng.uniform(0, 2)) for n in tree.preorder()}
    partial = {n: v for n, v in process.items() if rng.random() < 0.9}
    for proc in (process, partial):
        for T in (tree.horizon, max(tree.horizon - 1, 1)):
            c = classify_process(fam, proc, T=T)
            out.append((c.strongest, c.martingale_gap, c.supermartingale_slack, c.infi_slack))
            out.append(per_node.step_bounds(fam, proc, T))
    return out


@settings(PROPERTY, max_examples=120)
@given(st.data())
def test_cut_family_matches_vertex_family(data):
    branching = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    tree = EventTree.uniform(branching)
    fam, ref = families(data.draw(cut_sets(tree)))
    assert fam.charged == ref.charged == per_node.charged(ref)
    seed = data.draw(st.integers(0, 2**16))
    for a, b in zip(recursions(fam, np.random.default_rng(seed)),
                    recursions(ref, np.random.default_rng(seed))):
        assert_same(a, b)
    rng = np.random.default_rng(seed)
    process = {n: float(rng.uniform(-1, 1)) for n in tree.preorder()}
    partial = {n: v for n, v in process.items() if rng.random() < 0.8}
    for proc in (process, partial):
        for T in range(tree.horizon + 2):
            assert_same(per_node.step_bounds(fam, proc, T), per_node.one_step_bounds(ref, proc, T))


def _thinned(family, seed):
    """The family with one child's bounds zeroed at about half the nodes,
    so the actual family leaves some nodes and children uncharged."""
    rng = np.random.default_rng(seed + 30_000)
    transitions = dict(family.transitions)
    for n in family.tree.non_leaves():
        k = len(family.tree.children(n))
        if k >= 2 and rng.random() < 0.5:
            drop = int(rng.integers(k))
            upper = [0.0 if i == drop else 1.0 for i in range(k)]
            transitions[n] = TransitionSet.box([0.0] * k, upper)
    return RectangularFamily(family.tree, transitions)


def markets():
    """Random markets of every style, with no actual family, their own
    and a thinned one."""
    for seed in range(60):
        for gen in (fixtures.rand_market, fixtures.rand_claim_market):
            style = ("neutral", "bumped", "free")[seed % 3]
            fx = gen(seed, depth=2 + seed % 3, branching=2 + seed % 3, style=style)
            for actual in (None, fx.family, _thinned(fx.family, seed)):
                yield (gen.__name__, seed, style, actual is None), fx.spec, actual


def test_array_passes_match_per_node_oracles_on_random_markets():
    families = arbitrage = 0
    for case, spec, actual in markets():
        assert_same(find_arbitrage(spec, actual), per_node.find_arbitrage(spec, actual))
        fam = supermartingale_family(spec, actual)
        ref = per_node.supermartingale_family(spec, actual)
        assert (fam is None) == (ref is None), case
        if fam is None:
            arbitrage += 1
            continue
        families += 1
        tree = spec.tree
        assert list(fam.transitions) == list(tree.non_leaves()) == list(ref.transitions)
        for n in tree.non_leaves():
            assert_same(fam.transitions[n], ref.transitions[n])
        assert fam.transitions.get(tree.leaves[0]) is None
        assert fam.charged == per_node.charged(ref) == per_node.charged(fam), case
        assert_same(_product_witness(fam), per_node.product_witness(ref))
        W = dict(wealth_process(spec).values.items())
        partial = {n: w for i, (n, w) in enumerate(W.items()) if i % 7}
        for proc in (W, partial):
            for T in (tree.horizon, 1):
                assert_same(per_node.step_bounds(fam, proc, T),
                            per_node.one_step_bounds(ref, proc, T))
        seed = case[1]
        for a, b in zip(recursions(fam, np.random.default_rng(seed)),
                        recursions(ref, np.random.default_rng(seed))):
            assert_same(a, b)
        rep = verify_ftap(spec, actual)
        assert rep.consistent and rep.search_agreement, case
    assert families >= 150 and arbitrage >= 30, (families, arbitrage)


def test_explicit_actual_family_charges_as_its_measures():
    fx = fixtures.rand_market(3, depth=3, style="neutral")
    witness = verify_ftap(fx.spec, fx.family).witness_family
    for actual in (witness, fx.family):
        fam = supermartingale_family(fx.spec, actual)
        ref = per_node.supermartingale_family(fx.spec, actual)
        assert fam.charged == per_node.charged(ref)
        assert_same(_product_witness(fam), per_node.product_witness(ref))


def test_discovered_fiat_family_is_all_cut_levels(step_calls):
    fx = fixtures.fiat(5)
    fam = supermartingale_family(fx.spec)
    assert fam.cuts is not None
    tree = fam.tree
    expectation_sweep(fam, dict.fromkeys(tree.level(tree.horizon), 1.0))
    starts = tree.level_starts
    levels = list(zip(starts[: tree.horizon], starts[1 : tree.horizon + 1]))[::-1]
    assert [(lo, hi) for _, lo, hi in step_calls["cut"]] == levels
    assert step_calls["box"] == step_calls["maximize"] == []
    assert len(fam.transitions) == len(fx.spec.tree.non_leaves())
    assert dataclasses.replace(fam).transitions is fam.transitions
    assert fam.transitions.get("nowhere") is None
    assert fam.transitions.get(fx.spec.tree.leaves[0]) is None
    # the same cuts in a dict step node by node
    assert RectangularFamily(fam.tree, dict(fam.transitions)).cuts is None
