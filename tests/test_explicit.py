"""Explicit families through the shared level-order recursion.

Every conditional value of an ``ExplicitFamily`` comes from
``ambiguity._backward``. The per-node passes it replaced are kept in
``tests/per_node.py`` (``explicit_*``), and the results here must equal them
bit for bit (``repr``): node masses, conditional expectations at every node
and target time, claim values, S*, W* and the bubble, the classification and
the polar-node errors. The American price, the largest of the measures'
Snell envelopes, is checked against brute force over stopping rules.
"""
import itertools

import numpy as np
import pytest

import per_node
from per_node import (
    _stopping_rules,
    explicit_charged,
    explicit_claim_values,
    explicit_classify,
    explicit_cond_upper,
    explicit_masses,
    explicit_value_process,
)

from bubbletree import fixtures
from bubbletree.ambiguity import (
    ExplicitFamily,
    PolarNodeError,
    _first_min,
    classify_process,
    cond_expectation,
)
from bubbletree.bubble import bubble_processes
from bubbletree.claims import (
    Claim,
    _intrinsic,
    american_fundamental_price,
    fundamental_claim_price,
)
from bubbletree.lattice import NodeValues


def explicit_families(n_trees: int = 100):
    """(fixture, family) pairs: each of ``n_trees`` generated trees with K = 1..6
    random leaf measures, in turns with full support, with one measure on
    part of the leaves, and with every measure off a block of leaves (so
    that nodes go polar)."""
    for seed in range(n_trees):
        gen = (fixtures.rand_market, fixtures.rand_claim_market)[seed % 2]
        fx = gen(seed, depth=1 + seed % 4, branching=2 + seed % 2,
                 style=("neutral", "bumped", "free")[seed % 3])
        leaves = fx.spec.tree.leaves
        rng = np.random.default_rng(seed + 90_000)
        for k in (1 + seed % 6, 1 + (seed + 3) % 6):
            support = seed % 3
            measures = []
            for i in range(k):
                p = rng.dirichlet(np.ones(len(leaves)))
                if support == 1 and i == 0 or support == 2:
                    p[: len(p) // 2] = 0.0
                    p = p / p.sum() if p.sum() else np.eye(len(p))[-1]
                if i == k - 1 and rng.random() < 0.3:
                    p = np.floor(p * 4) / 4  # exact ties and zeros
                    p[-1] += 1.0 - p.sum()
                measures.append(dict(zip(leaves, p.tolist())))
            yield fx, ExplicitFamily(fx.spec.tree, tuple(measures))


def _same(a, b):
    assert repr(a) == repr(b)


def _outcome(fn, *args):
    """The value, or the error's type and message."""
    try:
        return fn(*args)
    except (PolarNodeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_explicit_passes_equal_the_per_node_oracle():
    count, polar, kinds = 0, 0, set()
    for fx, fam in explicit_families():
        spec, tree = fx.spec, fx.spec.tree
        count += 1
        kinds.add(len(fam.measures))
        masses = explicit_masses(fam)
        _same([{n: m[n] for n in tree.preorder()} for m in fam.masses],
              [{n: float(m[n]) for n in tree.preorder()} for m in masses])
        assert fam.charged == explicit_charged(fam)
        polar += len(tree) - len(fam.charged)

        rng = np.random.default_rng(count)
        for t in range(tree.horizon + 1):
            level = tree.level(t)
            values = dict(zip(level, rng.normal(size=len(level)).tolist()))
            values[level[0]] = -0.0
            values[level[-1 if t % 2 else 1 % len(level)]] = float("inf")  # 0 * inf is NaN
            neg = {n: -v for n, v in values.items()}
            for s in range(t + 1):
                for n in tree.level(s):
                    below = {m: values[m] for m in tree.descendants_at(n, t)}
                    _same(_outcome(cond_expectation, fam, below, n, "upper"),
                          _outcome(explicit_cond_upper, fam, values, n, t, masses))
                    got = _outcome(cond_expectation, fam, below, n, "lower")
                    want = _outcome(explicit_cond_upper, fam, neg, n, t, masses)
                    _same(got, -want if isinstance(want, float) else want)

        if spec.validation.ok and not spec.cash_events:
            for T in range(1, tree.horizon + 1):
                claim = Claim("euro_put", T, spec.price[tree.root])
                _same(fundamental_claim_price(spec, fam, claim).values,
                      explicit_claim_values(spec, fam, claim))

        processes = _outcome(bubble_processes, spec, fam)
        w_star = _outcome(explicit_value_process, spec, fam)
        if isinstance(w_star, tuple):  # a polar node: both raise, naming it
            _same(processes, w_star)
            continue
        s_star, got_w, beta = processes
        _same({n: got_w[n] for n in tree.preorder()}, w_star)
        d = per_node.derived(spec)
        _same(s_star.values,
              {n: w_star[n] - d.cum[n] for n in tree.preorder() if d.taumap[n] is None})
        stopped = NodeValues(tree, spec.processes.stopped)
        for proc in (beta.values, got_w.values, stopped, dict(spec.price)):
            for T in {None, spec.alive_horizon, tree.horizon + 1}:
                _same(classify_process(fam, proc, T), explicit_classify(fam, proc, T))
        partial = dict(itertools.islice(beta.values.items(), len(beta.values) // 2))
        _same(classify_process(fam, partial), explicit_classify(fam, partial))
    assert count >= 200 and kinds == set(range(1, 7)) and polar > 0


def _brute_force(spec, fam, claim, node):
    """The largest, over the measures charging ``node`` and the stopping rules
    of its subtree, of the stopped payoff's conditional expectation."""
    tree, T = spec.tree, claim.maturity
    Z = {}
    for t in range(T + 1):
        Z.update(zip(tree.level(t), _intrinsic(spec, claim, t).tolist()))
    leaves = per_node.subtree_leaves(tree, node)
    best = None
    for rule in _stopping_rules(tree, node, T):
        stops = set(rule)
        at = {leaf: next(n for n in tree.path(leaf) if n in stops) for leaf in leaves}
        for q in fam.measures:
            mass = sum(q.get(leaf, 0.0) for leaf in leaves)
            if mass > 1e-12:
                value = sum(q.get(leaf, 0.0) * Z[at[leaf]] for leaf in leaves) / mass
                best = value if best is None else max(best, value)
    return best


def test_explicit_american_values_equal_brute_force_over_stopping_rules():
    checked = 0
    for fx, fam in itertools.islice(explicit_families(), 0, None, 3):
        spec, tree = fx.spec, fx.spec.tree
        if tree.horizon > 3 or not spec.validation.ok or spec.cash_events:
            continue
        for kind, mult in itertools.product(("amer_call", "amer_put"), (0.8, 1.2)):
            claim = Claim(kind, tree.horizon, mult * spec.price[tree.root])
            res = american_fundamental_price(spec, fam, claim)
            assert set(res.process.values) == fam.charged
            for n, v in res.process.values.items():
                assert v == pytest.approx(_brute_force(spec, fam, claim, n), abs=1e-12)
                checked += 1
            Z = dict(zip(tree.preorder(), np.concatenate(
                [_intrinsic(spec, claim, t) for t in range(tree.horizon + 1)])[
                    tree.preorder_index].tolist()))
            assert res.exercise == {n for n, v in res.process.values.items() if Z[n] >= v}
    assert checked >= 200


@pytest.mark.parametrize("row", [
    [1.0, 2.0, 2.0, -1.0],
    [0.0, -0.0, 0.0],
    [-0.0, 0.0, -0.0],
    [float("nan"), 1.0, -1.0],
    [1.0, float("nan"), 3.0, float("nan"), -2.0],
    [float("nan"), float("nan")],
    [-0.0, float("nan"), 0.0, 0.0],
    [float("inf"), 1.0, float("-inf")],
    [5.0],
])
def test_array_folds_keep_what_the_builtins_keep(row):
    a = np.array(row)
    _same(a[_first_min(a[None])].item(), min(x for x in row))
    _same(a[_first_min(-a[None])].item(), max(x for x in row))  # the max as the min of -a
    # in rows, each one folded on its own
    rows = np.array([row, row[::-1], row])
    picked = rows[(0, 1, 2), _first_min(rows)].tolist()
    _same(picked, [min(x for x in g) for g in (row, row[::-1], row)])
