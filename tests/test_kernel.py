"""The one-step kernel against the per-node path.

Every rectangular recursion steps runs of level-order nodes through
``ambiguity._upper_step``: in numpy (the whole-tree box rows, on runs at
least ``ambiguity._KERNEL_MIN_WIDTH`` nodes long: each level of a sweep, the
inner nodes of a one-step check) or node by node through
``TransitionSet.maximize`` (vertex lists, shorter runs, trees too lopsided
to pad). Forcing the width threshold to 0 and to infinity runs each
computation both ways. The results must be equal, and so must their reprs,
which also tells signed zeros, float types and dict order apart. A family of
boxes given as a ``BoxSets`` map must give what the same boxes in a dict
give, and the one-step checks of box families what
``per_node.one_step_bounds`` gives. The measures built from per-node
transition vectors (``argmax_measure``, the product witness and the
structural leaf measures of ``noarb``) must equal, item for item, those of
the per-node pushes in ``per_node``.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import per_node
from per_node import american_oracle

from bubbletree import ambiguity, fixtures
from bubbletree.ambiguity import (
    BoxSets,
    RectangularFamily,
    TransitionSet,
    argmax_measure,
    classify_process,
    cond_expectation,
    expectation_sweep,
)
from bubbletree.claims import (
    Claim,
    american_fundamental_price,
    fundamental_claim_price,
    terminal_payoff,
)
from bubbletree.lattice import EventTree, wealth_process
from bubbletree.noarb import _product_witness, _structural_leaf_measure, supermartingale_family

DESK_SEEDS = (0, 32)  # rand_claim_market(s, depth=8, branching=4): ~4.6k nodes
KERNEL_MIN_WIDTH = ambiguity._KERNEL_MIN_WIDTH


def _mixed(family, seed):
    """The family with about a third of its box nodes given as the vertex
    lists of the same boxes, which step node by node."""
    rng = np.random.default_rng(seed + 40_000)
    transitions = dict(family.transitions)
    for n, ts in family.transitions.items():
        if ts.is_box and ts.arity() <= 4 and rng.random() < 0.35:
            transitions[n] = TransitionSet.vertex_set(per_node.vertex_list(ts))
    return RectangularFamily(family.tree, transitions)


def _box_sets(family) -> RectangularFamily | None:
    """The family with its boxes in a ``BoxSets`` map; None when some node
    holds a vertex list (a ``BoxSets`` map holds a box at every inner node)."""
    tree = family.tree
    boxes = BoxSets.read(tree, family.transitions)
    if boxes is None:
        assert not all(family.transitions[n].is_box for n in tree.non_leaves())
        return None
    assert list(boxes) == list(tree.non_leaves())
    assert boxes == family.transitions
    assert all(repr(boxes[n]) == repr(family.transitions[n]) for n in tree.non_leaves())
    return RectangularFamily(tree, boxes)


def _outputs(spec, family, seed, claims: bool) -> list:
    """Every rectangular recursion on one market, on a fresh copy of the
    family."""
    fam = RectangularFamily(family.tree, family.transitions)
    tree = fam.tree
    T = tree.horizon
    rng = np.random.default_rng(seed + 50_000)
    out = []
    for t in sorted({1, max(T - 1, 1), T}):
        values = {n: float(rng.uniform(-2, 2)) for n in tree.level(t)}
        values[tree.level(t)[0]] = 0.0  # a zero and its negation on both paths
        for bound in ("upper", "lower"):
            out.append(expectation_sweep(fam, values, bound))
            for s in range(1, t):
                for n in tree.level(s)[:: max(1, len(tree.level(s)) // 3)]:
                    out.append((n, t, bound, cond_expectation(fam, values, n, bound)))
    payoff = {n: float(rng.uniform(-2, 2)) for n in tree.leaves}
    out.append(argmax_measure(fam, payoff))
    process = {n: float(rng.uniform(0, 2)) for n in tree.preorder()}
    partial = {n: v for n, v in process.items() if rng.random() < 0.9}
    W = dict(wealth_process(spec).values.items())
    for proc, horizon in ((process, None), (process, max(T - 1, 1)), (partial, None), (W, None)):
        c = classify_process(fam, proc, T=horizon)
        out.append((c.strongest, c.martingale_gap, c.supermartingale_slack, c.infi_slack))
    if claims:
        K = spec.price[tree.root]
        for maturity in sorted({max(T - 1, 1), T}):
            for kind in ("amer_call", "amer_put"):
                res = american_fundamental_price(spec, fam, Claim(kind, maturity, K))
                out.append((res.process.values, sorted(res.exercise)))
            for kind in ("forward", "euro_call", "euro_put"):
                claim = Claim(kind, maturity, 0.9 * K)
                out.append(terminal_payoff(spec, claim))
                out.append(fundamental_claim_price(spec, fam, claim).values)
    return out


def _both_ways(monkeypatch, spec, family, seed, claims):
    monkeypatch.setattr(ambiguity, "_KERNEL_MIN_WIDTH", 0)
    kernel = _outputs(spec, family, seed, claims)
    monkeypatch.setattr(ambiguity, "_KERNEL_MIN_WIDTH", math.inf)
    per_node = _outputs(spec, family, seed, claims)
    return kernel, per_node


def _assert_same(kernel, per_node):
    assert len(kernel) == len(per_node)
    for i, (a, b) in enumerate(zip(kernel, per_node)):
        assert a == b, i
        assert repr(a) == repr(b), i


def test_kernel_equals_per_node_path_on_random_families(monkeypatch):
    families = 0
    for seed in range(100):
        for gen in (fixtures.rand_market, fixtures.rand_claim_market):
            fx = gen(seed, depth=2 + seed % 3, branching=2 + seed % 3,
                     style=("neutral", "bumped")[seed % 2], singleton=seed % 5 == 0)
            fams = [fx.family] + ([_mixed(fx.family, seed)] if seed % 4 == 0 else [])
            for fam in fams:
                claims = gen is fixtures.rand_claim_market
                kernel, per_node_path = _both_ways(monkeypatch, fx.spec, fam, seed, claims)
                _assert_same(kernel, per_node_path)
                if (boxes := _box_sets(fam)) is not None:
                    for out in _both_ways(monkeypatch, fx.spec, boxes, seed, claims):
                        _assert_same(out, kernel)
                    families += 1
                families += 1
    assert families >= 300


@pytest.mark.parametrize("seed", DESK_SEEDS)
def test_kernel_equals_per_node_path_on_desk_markets(monkeypatch, seed):
    fx = fixtures.rand_claim_market(seed, depth=8, branching=4, style="bumped")
    assert len(fx.spec.tree) > 4000
    _assert_same(*_both_ways(monkeypatch, fx.spec, _mixed(fx.family, seed), seed, True))
    kernel, per_node_path = _both_ways(monkeypatch, fx.spec, fx.family, seed, True)
    _assert_same(kernel, per_node_path)
    for out in _both_ways(monkeypatch, fx.spec, _box_sets(fx.family), seed, True):
        _assert_same(out, kernel)


def _inner_levels(tree: EventTree) -> list[tuple[int, int]]:
    """Each level before the horizon as its run of level-order nodes."""
    starts = tree.level_starts
    return list(zip(starts[: tree.horizon], starts[1 : tree.horizon + 1]))


def _sweep(family: RectangularFamily, calls: dict) -> dict:
    """An upper sweep from the horizon, with ``calls`` (``step_calls``) cleared first."""
    for c in calls.values():
        c.clear()
    tree = family.tree
    return expectation_sweep(family, {n: float(i % 5) for i, n in enumerate(tree.level(tree.horizon))})


def test_default_threshold_steps_desk_levels_in_numpy(step_calls):
    fx = fixtures.rand_claim_market(DESK_SEEDS[0], depth=8, branching=4, style="bumped")
    levels = _inner_levels(fx.family.tree)
    wide = [hi - lo >= ambiguity._KERNEL_MIN_WIDTH for lo, hi in levels]
    assert wide[0] is False and wide[-1] is True
    _sweep(fx.family, step_calls)
    pad = fx.family.boxes.pad
    assert step_calls["box"] == [(pad, lo, hi) for (lo, hi), w in zip(levels, wide) if w][::-1]
    assert len(step_calls["maximize"]) == sum(hi - lo for (lo, hi), w in zip(levels, wide) if not w)


@pytest.mark.parametrize("seed", range(10))
def test_kernel_dp_matches_stopping_rule_oracle(monkeypatch, seed):
    monkeypatch.setattr(ambiguity, "_KERNEL_MIN_WIDTH", 0)
    depth = (seed % 3) + 1
    branching = 2 if depth == 3 else 3
    fx = fixtures.rand_claim_market(seed + 60, depth=depth, branching=branching,
                                    style=["neutral", "bumped"][seed % 2])
    tree = fx.spec.tree
    K = fx.spec.price[tree.root]
    for kind in ("amer_call", "amer_put"):
        claim = Claim(kind, tree.horizon, K)
        dp = american_fundamental_price(fx.spec, fx.family, claim)
        assert dp.process[tree.root] == pytest.approx(
            american_oracle(fx.spec, fx.family, claim), abs=1e-9
        )


def test_levels_with_a_vertex_set_node_step_node_by_node(step_calls):
    """A family with a vertex list at some node steps every node, wide levels too,
    through ``maximize``: it has no box rows."""
    fx = fixtures.rand_claim_market(DESK_SEEDS[0], depth=8, branching=4, style="bumped")
    mixed = _mixed(fx.family, DESK_SEEDS[0])
    tree, sets = mixed.tree, mixed.transitions
    levels = _inner_levels(tree)
    _sweep(mixed, step_calls)
    assert mixed.boxes is None and step_calls["box"] == []
    assert any(hi - lo >= ambiguity._KERNEL_MIN_WIDTH for lo, hi in levels)
    per_node = [sets[n] for lo, hi in levels for n in tree.level_order[lo:hi]]
    assert any(not ts.is_box for ts in per_node) and any(ts.is_box for ts in per_node)
    assert sorted(map(id, step_calls["maximize"])) == sorted(map(id, per_node))


def _lopsided(width: int, fan: int) -> RectangularFamily:
    """A root with ``width`` children: the first has ``fan`` children, the
    rest one each, so padding the tree to its widest node would take about
    ``width * fan`` cells for ``width + fan`` children."""
    parents = {"r": None}
    for i in range(width):
        parents[f"a{i}"] = "r"
        for j in range(fan if i == 0 else 1):
            parents[f"a{i}.{j}"] = f"a{i}"
    tree = EventTree(parents)
    transitions = {"r": TransitionSet.box([0.5 / width] * width, [2.0 / width] * width)}
    for i in range(width):
        k = len(tree.children(f"a{i}"))
        transitions[f"a{i}"] = TransitionSet.box([0.5 / k] * k, [1.5 / k] * k)
    return RectangularFamily(tree, transitions)


def test_one_very_wide_node_keeps_its_level_off_the_padded_arrays(monkeypatch, step_calls):
    monkeypatch.setattr(ambiguity, "_KERNEL_MIN_WIDTH", 0)
    family = _lopsided(width=500, fan=5000)
    assert family.boxes.pad is None  # 501 x 5000 cells for 5999 children
    _sweep(family, step_calls)
    assert step_calls["box"] == [] and len(step_calls["maximize"]) == 501
    even = _lopsided(width=6, fan=3)
    pad = even.boxes.pad  # 7 x 6 cells for 14 children
    assert pad.kids.size <= ambiguity._MAX_PAD_RATIO * (pad.kids != 0).sum()
    _sweep(even, step_calls)
    assert step_calls["box"] == [(pad, 1, 7), (pad, 0, 1)] and step_calls["maximize"] == []

    def run(fam):
        fam = RectangularFamily(fam.tree, fam.transitions)
        tree = fam.tree
        values = {n: float(i % 7) - 3.0 for i, n in enumerate(tree.level(2))}
        return [expectation_sweep(fam, values, b) for b in ("upper", "lower")] + [
            cond_expectation(fam, values, n, "upper") for n in tree.level(1)[:3]
        ]

    small = _lopsided(width=40, fan=300)
    kernel = run(small)
    monkeypatch.setattr(ambiguity, "_KERNEL_MIN_WIDTH", math.inf)
    _assert_same(kernel, run(small))


def _box_rows(fam: RectangularFamily, lo: int, hi: int, x: np.ndarray) -> list:
    """``_box_step`` at the nodes ``lo:hi`` as ``maximize`` gives them: (value, maximizer) pairs,
    each maximizer cut to its node's arity."""
    out, rows = ambiguity._box_step(fam.boxes.pad, lo, hi, x)
    arity = np.diff(fam.tree.child_offsets[lo : hi + 1]).tolist()
    return [(v, tuple(r[:k])) for v, k, r in zip(out.tolist(), arity, rows.tolist())]


PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
# repeated values make ties
values_of = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-4, 4))
slack = st.sampled_from([0.0, 0.0, 0.05, 0.2, 1.0])


@st.composite
def box_at(draw, k: int) -> TransitionSet:
    """A box around a drawn probability vector: a point box (no capacity)
    a third of the time, else each bound moved out by a drawn slack, often 0.
    A zero lower bound is sometimes -0.0, which a fill that adds nothing keeps."""
    w = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    w[0] += not any(w)
    p = [x / sum(w) for x in w]
    point = draw(st.integers(0, 2)) == 0
    lower = p if point else [max(0.0, x - draw(slack)) for x in p]
    upper = p if point else [x + draw(slack) for x in p]
    lower = [-0.0 if x == 0.0 and draw(st.integers(0, 2)) == 0 else x for x in lower]
    return TransitionSet.box(lower, upper)


@settings(PROPERTY, max_examples=300)
@given(st.data())
def test_whole_tree_box_step_matches_per_node_one_step_bounds(data):
    if data.draw(st.booleans(), "lopsided"):  # wide fans leave the whole tree unpadded
        tree = _lopsided(data.draw(st.integers(2, 8)), data.draw(st.integers(1, 40))).tree
    else:
        # up to 12 children, so that rows wider than 8 go through the step; at most ~150 nodes
        branching = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
        while math.prod(branching) > 150:
            branching.pop()
        tree = EventTree.uniform(branching)
    transitions = {n: data.draw(box_at(len(tree.children(n)))) for n in tree.non_leaves()}
    fams = [RectangularFamily(tree, transitions)]
    fams.append(_box_sets(fams[0]))
    if data.draw(st.booleans(), "mixed"):  # vertex lists at some nodes: a dict only
        fams = [RectangularFamily(tree, {
            n: TransitionSet.vertex_set(per_node.vertex_list(ts))
            if ts.arity() <= 3 and i % 3 == 0 else ts
            for i, (n, ts) in enumerate(transitions.items())})]
    ref = fams[0]
    process = {n: data.draw(values_of) for n in tree.preorder()}
    partial = {n: v for n, v in process.items() if data.draw(st.integers(0, 5))}
    x, inner = np.array([process[n] for n in tree.level_order]), tree.level_starts[-2]
    maxima = [ref.transitions[n].maximize([process[c] for c in tree.children(n)])
              for n in tree.level_order[:inner]]  # values and maximizers, -0.0 bounds kept
    for fam in fams:
        if fam.boxes is not None and fam.boxes.pad is not None:
            assert repr(_box_rows(fam, 0, inner, x)) == repr(maxima)
    try:
        for width in (0, math.inf):  # whole-tree box steps, or maximize per node
            ambiguity._KERNEL_MIN_WIDTH = width
            for fam in fams:
                assert fam.charged == per_node.charged(ref)
                out = ambiguity._upper_step(fam, 0, inner, x)
                assert repr(out.tolist()) == repr([v for v, _ in maxima])
                for proc in (process, partial):
                    for T in range(tree.horizon + 2):
                        expected = per_node.one_step_bounds(ref, proc, T)
                        got = per_node.step_bounds(fam, proc, T)
                        assert got == expected
                        assert repr(got) == repr(expected)
    finally:
        ambiguity._KERNEL_MIN_WIDTH = KERNEL_MIN_WIDTH


def test_wide_fans_leave_the_whole_tree_unpadded():
    assert _lopsided(width=8, fan=40).boxes.pad is None
    assert _lopsided(width=2, fan=3).boxes.pad is not None


@pytest.mark.parametrize("root", [math.inf, -math.inf, math.nan, -0.0, 1e308])
def test_padded_rows_ignore_the_root_value(monkeypatch, root):
    """Padding cells read the root's value: a root value that is not finite must
    not reach a step's values or maximizers, and none may raise a warning."""
    monkeypatch.setattr(ambiguity, "_KERNEL_MIN_WIDTH", 0)
    for seed in range(5):
        fx = fixtures.rand_claim_market(seed, depth=3, branching=4, style="bumped")
        tree, fam = fx.spec.tree, fx.family
        assert (fam.boxes.pad.kids == 0).any()  # some row is padded
        rng = np.random.default_rng(seed)
        n = len(tree)  # ties and signed zeros about half the time
        x = np.where(rng.random(n) < 0.5, rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], n), rng.uniform(-1, 1, n))
        x[0] = root
        inner = tree.level_starts[-2]
        maxima = [fam.transitions[node].maximize(x[tree.child_offsets[g] : tree.child_offsets[g + 1]].tolist())
                  for g, node in enumerate(tree.level_order[:inner])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo, hi in (*_inner_levels(tree), (0, inner)):
                assert repr(_box_rows(fam, lo, hi, x)) == repr(maxima[lo:hi])
                out = ambiguity._upper_step(fam, lo, hi, x)
                assert repr(out.tolist()) == repr([v for v, _ in maxima[lo:hi]])


def test_box_fill_adds_left_to_right_on_every_python():
    """A box's free mass is 1 less its lower bounds added left to right from 0.0, on every
    Python: from 3.12 the builtin ``sum`` compensates and gives 0.4 here, and the fill then
    gives 2.1999999999999997 with (0.5, 0.2, 0.3)."""
    ts = TransitionSet.box([0.1, 0.2, 0.3], [0.5] * 3)
    expected = (2.1999999999999993, (0.4999999999999999, 0.2, 0.3))
    assert repr(ts.maximize([3.0, 2.0, 1.0])) == repr(expected)
    tree = EventTree.uniform([3])
    fam = RectangularFamily(tree, BoxSets.read(tree, {tree.root: ts}))
    assert repr(_box_rows(fam, 0, 1, np.array([0.0, 3.0, 2.0, 1.0]))) == repr([expected])


def _items(q: dict) -> str:
    return repr(sorted(q.items()))


@settings(PROPERTY, max_examples=100)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(2, 4),
       st.sampled_from(["neutral", "bumped", "free"]))
def test_measures_match_the_per_node_pushes(seed, depth, branching, style):
    """``argmax_measure`` on box-dict, ``BoxSets``, vertex-list and mixed families and on the
    discovered cuts, and the cuts' product witness and structural leaf measures, equal the
    per-node oracles' measures item for item."""
    fx = fixtures.rand_market(seed, depth=depth, branching=branching, style=style)
    fam, tree = fx.family, fx.family.tree
    vertex = {n: TransitionSet.vertex_set(per_node.vertex_list(ts)) for n, ts in fam.transitions.items()}
    cuts = supermartingale_family(fx.spec)
    fams = [fam, _box_sets(fam), RectangularFamily(tree, vertex), _mixed(fam, seed)]
    rng = np.random.default_rng(seed)
    payoff = {n: float(rng.choice([0.0, -0.0, 1.0, rng.uniform(-2, 2)])) for n in tree.leaves}
    for f in fams + ([cuts] if cuts is not None else []):
        assert _items(argmax_measure(f, payoff)) == _items(per_node.argmax_measure(f, payoff))
    if cuts is not None:
        assert _items(_product_witness(cuts)) == _items(per_node.product_witness(cuts))
        for leaf in tree.leaves[:: max(1, len(tree.leaves) // 4)]:
            assert (_items(_structural_leaf_measure(cuts, leaf))
                    == _items(per_node.structural_leaf_measure(cuts, leaf)))
