import numpy as np
import pytest

from per_node import CapExceededError, enumerate_extreme_measures, subtree_leaves

from bubbletree import fixtures
from bubbletree.ambiguity import (
    CHARGE_TOL,
    ExplicitFamily,
    PolarNodeError,
    RectangularFamily,
    TransitionSet,
    argmax_measure,
    check_absolute_continuity,
    check_full_support,
    classify_process,
    cond_expectation,
    expectation_sweep,
    node_charged,
    validate_family,
)
from bubbletree.bubble import bubble_process
from bubbletree.lattice import EventTree
from bubbletree.noarb import supermartingale_family, verify_ftap


BETA1 = {"r0": 0.5, "r1": -0.5}


def test_ex1_lower_expectation_minus_point_three():
    fx = fixtures.ex1()
    assert cond_expectation(fx.family, BETA1, "r", "lower") == pytest.approx(-0.3, abs=1e-12)


def test_ex2_lower_expectation_zero():
    fx = fixtures.ex2()
    assert cond_expectation(fx.family, BETA1, "r", "lower") == pytest.approx(0.0, abs=1e-12)
    # endpoint oracle for the matching upper diagnostic
    assert cond_expectation(fx.family, BETA1, "r", "upper") == pytest.approx(
        max(th * 0.5 - (1 - th) * 0.5 for th in (0.5, 0.7)), abs=1e-12
    )


def test_ex3_upper_expectation_minus_point_one():
    fx = fixtures.ex3()
    assert cond_expectation(fx.family, BETA1, "r", "upper") == pytest.approx(-0.1, abs=1e-12)


def test_ex3_variant_upper_expectation_zero():
    fx = fixtures.ex3(theta=(0.2, 0.5))
    assert cond_expectation(fx.family, BETA1, "r", "upper") == pytest.approx(0.0, abs=1e-12)


def test_upper_price_expectation_endpoint_oracle():
    # oracle: enumerate the interval endpoints directly
    fx = fixtures.ex1()
    s1 = {"r0": 1.5, "r1": 0.5}
    expected = max(th * 1.5 + (1 - th) * 0.5 for th in (0.2, 0.4))
    got = cond_expectation(fx.family, s1, "r", "upper")
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.9, abs=1e-12)


def test_singleton_family_collapses():
    tree = EventTree.uniform([2])
    fam = RectangularFamily(tree, {"r": TransitionSet.point([0.3, 0.7])})
    x = {"r0": 2.0, "r1": -1.0}
    up = cond_expectation(fam, x, "r", "upper")
    lo = cond_expectation(fam, x, "r", "lower")
    assert up == lo == pytest.approx(0.3 * 2.0 + 0.7 * -1.0)


def test_conditioning_at_target_time_returns_value():
    fx = fixtures.ex1()
    assert cond_expectation(fx.family, BETA1, "r0", "upper") == 0.5


def test_conditioning_preconditions():
    fx = fixtures.ex1()
    with pytest.raises(ValueError, match="later than the target"):
        cond_expectation(fx.family, {"r": 1.0}, "r0", "upper")
    with pytest.raises(ValueError, match="single time"):
        cond_expectation(fx.family, {"r": 1.0, "r0": 1.0}, "r", "upper")
    with pytest.raises(ValueError, match="missing"):
        cond_expectation(fx.family, {"r0": 1.0}, "r", "upper")


def test_explicit_polar_node_errors():
    tree = EventTree.uniform([2])
    fam = ExplicitFamily(tree, ({"r0": 1.0, "r1": 0.0},))
    with pytest.raises(PolarNodeError):
        cond_expectation(fam, {"r0": 1.0, "r1": 5.0}, "r1", "upper")


# -- extreme-measure enumeration ---------------------------------------------

def test_interval_endpoints_one_node():
    tree = EventTree.uniform([2])
    fam = RectangularFamily(tree, {"r": TransitionSet.box([0.2, 0.6], [0.4, 0.8])})
    ms = enumerate_extreme_measures(fam)
    got = sorted(tuple(round(q[l], 12) for l in tree.leaves) for q in ms)
    assert got == [(0.2, 0.8), (0.4, 0.6)]


def test_two_independent_nodes_product_count():
    tree = EventTree.uniform([2, 2])
    box = TransitionSet.box([0.2, 0.6], [0.4, 0.8])
    fam = RectangularFamily(
        tree, {"r": box, "r0": box, "r1": TransitionSet.point([0.5, 0.5])}
    )
    assert len(enumerate_extreme_measures(fam)) == 4


def test_degenerate_box_single_measure():
    tree = EventTree.uniform([2])
    fam = RectangularFamily(tree, {"r": TransitionSet.box([0.3, 0.7], [0.3, 0.7])})
    assert len(enumerate_extreme_measures(fam)) == 1


def test_enumeration_cap():
    fx = fixtures.fiat(6)
    with pytest.raises(CapExceededError):
        enumerate_extreme_measures(fx.family, cap=10)


# -- classification -----------------------------------------------------------

def test_constant_process_is_martingale():
    fx = fixtures.ex1()
    proc = {n: 2.5 for n in fx.spec.tree.preorder()}
    cls = classify_process(fx.family, proc)
    assert cls.strongest == "G_martingale"
    assert cls.martingale_gap <= 1e-12


def test_fiat_bubble_infi_supermartingale():
    fx = fixtures.fiat(5)
    beta = bubble_process(fx.spec, fx.family)
    cls = classify_process(fx.family, beta)
    assert cls.strongest == "infi_supermartingale"
    # one-step lower expectation is beta / y_high at every node
    tree = fx.spec.tree
    for n in tree.non_leaves():
        lo = cond_expectation(
            fx.family, {c: beta[c] for c in tree.children(n)}, n, "lower"
        )
        assert lo == pytest.approx(beta[n] / 1.03, abs=1e-12)


def test_explicit_family_multi_step_classification():
    tree = EventTree.uniform([2, 1])
    fam = ExplicitFamily(
        tree, ({"r00": 0.5, "r10": 0.5}, {"r00": 0.2, "r10": 0.8})
    )
    proc = {"r": 1.0, "r0": 1.5, "r1": 0.5, "r00": 1.5, "r10": 0.5}
    cls = classify_process(fam, proc)
    # direct two-step check: sup E[X_2] = 1.0 at the root, matching X_0
    assert cls.satisfies("G_supermartingale")


def test_classification_hierarchy():
    fx = fixtures.ex2()
    beta = bubble_process(fx.spec, fx.family)
    cls = classify_process(fx.family, beta, T=1)
    assert cls.strongest == "infi_supermartingale"
    assert cls.satisfies("infi_supermartingale")
    assert not cls.satisfies("G_supermartingale")


# -- support and absolute continuity -----------------------------------------

def test_ex1_full_support():
    assert check_full_support(fixtures.ex1().family)


def test_explicit_missing_leaf_not_full_support():
    tree = EventTree.uniform([2])
    fam = ExplicitFamily(tree, ({"r0": 1.0, "r1": 0.0},))
    assert not check_full_support(fam)


def test_rectangular_zero_upper_bound_blocks_branch():
    tree = EventTree.uniform([2])
    fam = RectangularFamily(tree, {"r": TransitionSet.box([1.0, 0.0], [1.0, 0.0])})
    assert not check_full_support(fam)
    assert not node_charged(fam, "r1")


def test_absolute_continuity_full_support_actual():
    fx = fixtures.ex1()
    payoffs = [{"r00": 1.0, "r10": 0.0}, {"r00": 0.0, "r10": 3.0}]
    assert check_absolute_continuity(fx.family, fx.family, payoffs)


def test_absolute_continuity_null_leaf_fails():
    tree = EventTree.uniform([2])
    pricing = RectangularFamily(tree, {"r": TransitionSet.box([0.2, 0.6], [0.4, 0.8])})
    actual = ExplicitFamily(tree, ({"r0": 1.0, "r1": 0.0},))
    assert not check_absolute_continuity(pricing, actual, [{"r0": 0.0, "r1": 1.0}])


def test_absolute_continuity_pricing_subset_of_actual():
    tree = EventTree.uniform([2])
    actual = ExplicitFamily(tree, ({"r0": 0.4, "r1": 0.6}, {"r0": 0.2, "r1": 0.8}))
    pricing = ExplicitFamily(tree, ({"r0": 0.4, "r1": 0.6},))
    assert check_absolute_continuity(pricing, actual, [{"r0": 1.0, "r1": 0.0}])


# -- family validation --------------------------------------------------------

def test_box_bounds_validation():
    tree = EventTree.uniform([2])
    fam = RectangularFamily(tree, {"r": TransitionSet.box([0.5, 0.6], [0.4, 0.8])})
    assert any("lower bound above upper" in p for p in validate_family(fam))
    fam = RectangularFamily(tree, {"r": TransitionSet.box([0.6, 0.6], [0.7, 0.8])})
    assert any("simplex" in p for p in validate_family(fam))


def test_explicit_sum_validation():
    tree = EventTree.uniform([2])
    fam = ExplicitFamily(tree, ({"r0": 0.5, "r1": 0.4},))
    assert any("sum to" in p for p in validate_family(fam))


def test_missing_transition_detected():
    tree = EventTree.uniform([2, 1])
    fam = RectangularFamily(tree, {"r": TransitionSet.box([0.2, 0.6], [0.4, 0.8])})
    assert any("no transition set" in p for p in validate_family(fam))


# -- sublinear-expectation laws (small sample; the acceptance suite runs more)

def _random_family_and_payoffs(seed):
    fx = fixtures.rand_market(seed, depth=3, branching=2)
    rng = np.random.default_rng(seed + 10_000)
    leaves = fx.spec.tree.leaves
    X = {l: float(rng.uniform(-2, 2)) for l in leaves}
    Y = {l: float(rng.uniform(-2, 2)) for l in leaves}
    return fx.family, X, Y


@pytest.mark.parametrize("seed", range(6))
def test_sublinearity_and_homogeneity(seed):
    fam, X, Y = _random_family_and_payoffs(seed)
    root = fam.tree.root
    up = lambda Z: cond_expectation(fam, Z, root, "upper")
    XY = {l: X[l] + Y[l] for l in X}
    assert up(XY) <= up(X) + up(Y) + 1e-9
    lam = 1.7
    assert up({l: lam * X[l] for l in X}) == pytest.approx(lam * up(X), abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_monotonicity_constants_conjugacy(seed):
    fam, X, _ = _random_family_and_payoffs(seed)
    root = fam.tree.root
    up = lambda Z: cond_expectation(fam, Z, root, "upper")
    Y = {l: X[l] + abs(hash(l)) % 3 * 0.25 for l in X}  # Y >= X pointwise
    assert up(X) <= up(Y) + 1e-9
    assert up({l: 4.25 for l in X}) == pytest.approx(4.25, abs=1e-12)
    lo = cond_expectation(fam, X, root, "lower")
    assert lo == -cond_expectation(fam, {l: -v for l, v in X.items()}, root, "upper")


@pytest.mark.parametrize("seed", range(6))
def test_recursion_matches_extreme_measure_oracle(seed):
    fam, X, _ = _random_family_and_payoffs(seed)
    root = fam.tree.root
    got = cond_expectation(fam, X, root, "upper")
    oracle = max(
        sum(q.get(l, 0.0) * X[l] for l in X) for q in enumerate_extreme_measures(fam)
    )
    assert got == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_dynamic_consistency(seed):
    fam, X, _ = _random_family_and_payoffs(seed)
    tree = fam.tree
    inner = {
        n: cond_expectation(fam, X, n, "upper") for n in tree.level(1)
    }
    tower = cond_expectation(fam, inner, tree.root, "upper")
    direct = cond_expectation(fam, X, tree.root, "upper")
    assert tower == pytest.approx(direct, abs=1e-9)


# -- the backward kernel against per-node evaluation -------------------------

def _kernel_cases():
    for seed in range(50):
        for fx in (
            fixtures.rand_market(seed),
            fixtures.rand_claim_market(seed, style="bumped"),
        ):
            tree = fx.spec.tree
            rng = np.random.default_rng(seed + 20_000)
            for t in (1, tree.horizon):
                yield fx.family, {n: float(rng.uniform(-2, 2)) for n in tree.level(t)}


def test_sweep_equals_per_node_cond_expectation_bitwise():
    cases = 0
    for fam, values in _kernel_cases():
        for bound in ("upper", "lower"):
            sweep = expectation_sweep(fam, values, bound)
            (t,) = {fam.tree.time(n) for n in values}
            assert set(sweep) == {n for s in range(t + 1) for n in fam.tree.level(s)}
            for n, v in sweep.items():
                assert v == cond_expectation(fam, values, n, bound), (n, bound)
        cases += 1
    assert cases == 200


def test_sweep_rejects_unknown_bound_like_cond_expectation():
    fam = fixtures.ex1().family
    with pytest.raises(ValueError, match="bound"):
        expectation_sweep(fam, BETA1, "uper")
    with pytest.raises(ValueError, match="bound"):
        cond_expectation(fam, BETA1, "r", "uper")


def test_argmax_measure_attains_root_upper_expectation():
    for fam, values in _kernel_cases():
        tree = fam.tree
        if tree.time(next(iter(values))) != tree.horizon:
            continue
        q = argmax_measure(fam, values)
        assert set(q) == set(tree.leaves)
        assert sum(q.values()) == pytest.approx(1.0, abs=1e-12)
        attained = sum(q[leaf] * values[leaf] for leaf in tree.leaves)
        assert abs(attained - cond_expectation(fam, values, tree.root, "upper")) <= 1e-12


def test_deep_path_tree_needs_no_recursion():
    depth = 1500
    tree = EventTree({"n0": None, **{f"n{i}": f"n{i - 1}" for i in range(1, depth + 1)}})
    fam = RectangularFamily(tree, {n: TransitionSet.point([1.0]) for n in tree.non_leaves()})
    values = {tree.leaves[0]: 1.0}
    assert cond_expectation(fam, values, tree.root, "upper") == 1.0
    assert cond_expectation(fam, values, tree.root, "lower") == 1.0
    assert argmax_measure(fam, values) == {tree.leaves[0]: 1.0}
    assert expectation_sweep(fam, values)[tree.root] == 1.0
    assert expectation_sweep(fam, values, "lower")[tree.root] == 1.0
    assert node_charged(fam, tree.leaves[0])


# -- cached charged-node sets against the path-walk definition -----------------

def _oracle_mass(tree, q, node):
    return sum(q.get(leaf, 0.0) for leaf in subtree_leaves(tree, node))


def _oracle_charged(family, node):
    """Charged-node test by definition: a positive-mass measure (explicit),
    or a supported step on every edge of the root path (rectangular)."""
    tree = family.tree
    if isinstance(family, ExplicitFamily):
        return any(_oracle_mass(tree, q, node) > CHARGE_TOL for q in family.measures)
    path = tree.path(node)
    for par, child in zip(path, path[1:]):
        idx = tree.children(par).index(child)
        if not family.transitions[par].support()[idx]:
            return False
    return True


def _thinned(family, seed):
    """The family with one child's bounds zeroed at about half the nodes."""
    rng = np.random.default_rng(seed + 30_000)
    tree = family.tree
    transitions = dict(family.transitions)
    for n in tree.non_leaves():
        k = len(tree.children(n))
        if k >= 2 and rng.random() < 0.5:
            drop = int(rng.integers(k))
            upper = [0.0 if i == drop else 1.0 for i in range(k)]
            transitions[n] = TransitionSet.box([0.0] * k, upper)
    return RectangularFamily(tree, transitions)


def _assert_charged_matches_oracle(family):
    tree = family.tree
    uncharged = 0
    for n in tree.preorder():
        expected = _oracle_charged(family, n)
        assert node_charged(family, n) == expected, n
        uncharged += not expected
    if isinstance(family, ExplicitFamily):
        for q, mass in zip(family.measures, family.masses):
            assert mass == {n: _oracle_mass(tree, q, n) for n in tree.preorder()}
    return uncharged


def test_charged_sets_match_path_walk_oracle():
    tree = EventTree.uniform([2])
    zero_upper = RectangularFamily(tree, {"r": TransitionSet.box([1.0, 0.0], [1.0, 0.0])})
    assert _assert_charged_matches_oracle(zero_upper) == 1
    kinds = {"rect": 0, "vertex": 0, "explicit": 0}
    uncharged = dict.fromkeys(kinds, 0)
    for seed in range(100):
        fx = fixtures.rand_market(seed)
        thin = _thinned(fx.family, seed)
        families = [("rect", fx.family), ("rect", thin)]
        vertex = supermartingale_family(fx.spec, thin)
        if vertex is not None:
            families.append(("vertex", vertex))
        if seed < 25:
            witness = verify_ftap(fx.spec, thin).witness_family
            if witness is not None:
                families.append(("explicit", witness))
        for kind, fam in families:
            kinds[kind] += 1
            uncharged[kind] += _assert_charged_matches_oracle(fam)
    assert kinds["rect"] == 200 and kinds["vertex"] >= 50 and kinds["explicit"] >= 10
    # the thinned families make every kind leave some nodes uncharged
    assert all(uncharged.values()), uncharged
