"""Measure families and sublinear conditional expectations.

Two representations of a set of probability measures on the tree's leaves:

* ``RectangularFamily`` — a transition set per non-leaf node (a probability
  box over the children, or an explicit vertex list). Its upper expectation
  is a one-step backward recursion, dynamically consistent (tower property),
  so one-step supermartingale checks are equivalent to multi-step ones.
* ``ExplicitFamily`` — K leaf-probability vectors. A conditional value is the
  largest over the measures charging the node; a node no measure charges is
  polar, and conditioning there is an error (``PolarNodeError``).

Both kinds go through ``_backward``, and only this module tells them apart.
Upper expectations are suprema over the family; lower expectations are the
conjugates ``lower[X] = -upper[-X]`` (exact, by construction).
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from math import isfinite
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .lattice import AdaptedProcess, EventTree, NodeValues, _level_values

CHARGE_TOL = 1e-12
# the default classification tolerance: ``classify_process`` and every check ``--tolerance`` sets
CLASSIFY_TOL = 1e-9
# a one-step wealth change at most this large counts as zero
_STEP_TOL = 1e-12

# Runs of at least this many level-order nodes step their box nodes in numpy;
# shorter ones call ``TransitionSet.maximize`` node by node. A box step costs
# 17-22 us on runs of 1-64 nodes, ``maximize`` 2.3-3.6 us a node (2-4 children;
# 2-vCPU machine): they break even at 7-8 nodes. 16 also spares trees whose
# runs are all short the box rows, which cost more to build than they save: at
# 8, passes over the small ``rand-cli`` benchmark files ran 1.4% slower.
_KERNEL_MIN_WIDTH = 16
# Box arrays pad every node to the widest one; a tree where that would take
# more than this many cells per child steps node by node instead, so the
# arrays stay linear in the child count.
_MAX_PAD_RATIO = 4

CLASS_ORDER = ("none", "infi_supermartingale", "G_supermartingale", "G_martingale")


class PolarNodeError(ValueError):
    """Conditioning on a node that no measure in the family charges."""


def _simplex_misses(lower, upper, rows: np.ndarray, n: int) -> np.ndarray:
    """Per row of ``n``, whether the box of the bounds ``rows`` assigns to it misses the simplex
    (lower bounds add to over 1 + 1e-12, or upper ones to under 1 - 1e-12). Each row adds left to
    right from 0.0, for a family and a ``TransitionSet`` alike: from Python 3.12 ``sum`` does not."""
    return (np.bincount(rows, lower, n) > 1.0 + 1e-12) | (np.bincount(rows, upper, n) < 1.0 - 1e-12)


def _dot(weights: Sequence[float], values: Sequence[float]) -> float:
    total = 0.0
    for w, v in zip(weights, values):
        total += w * v
    return total


@dataclass(frozen=True, slots=True)
class TransitionSet:
    """One node's set of transition probabilities over its children.

    Either a box ``lower <= p <= upper`` intersected with the simplex, or an
    explicit finite list of probability vectors. Box extrema have a closed
    form: fill mass greedily toward the best children, ties resolved in child
    order so results are deterministic.
    """

    lower: tuple[float, ...] | None = None
    upper: tuple[float, ...] | None = None
    vertices: tuple[tuple[float, ...], ...] | None = None

    @classmethod
    def box(cls, lower: Sequence[float], upper: Sequence[float]) -> "TransitionSet":
        return cls(lower=tuple(float(x) for x in lower), upper=tuple(float(x) for x in upper))

    @classmethod
    def point(cls, weights: Sequence[float]) -> "TransitionSet":
        w = tuple(float(x) for x in weights)
        return cls(lower=w, upper=w)

    @classmethod
    def vertex_set(cls, vertices: Sequence[Sequence[float]]) -> "TransitionSet":
        return cls(vertices=tuple(tuple(float(x) for x in v) for v in vertices))

    @property
    def is_box(self) -> bool:
        return self.vertices is None

    def arity(self) -> int:
        if self.vertices is not None:
            return len(self.vertices[0]) if self.vertices else 0
        return len(self.lower)

    def problems(self, k: int) -> list[str]:
        out = []
        if self.vertices is not None:
            if not self.vertices:
                out.append("empty vertex list")
            for v in self.vertices:
                if len(v) != k:
                    out.append(f"vertex arity {len(v)} != {k}")
                elif min(v) < -CHARGE_TOL or abs(reduce(operator.add, v, 0.0) - 1.0) > 1e-9:
                    out.append(f"vertex {v} not a probability vector")
            return out
        if self.lower is None or self.upper is None:
            return ["transition set needs bounds or vertices"]
        if len(self.lower) != k or len(self.upper) != k:
            return [f"bounds arity != {k}"]
        if any(l < 0 for l in self.lower):
            out.append("negative lower bound")
        if any(l > u for l, u in zip(self.lower, self.upper)):
            out.append("lower bound above upper bound")
        if _simplex_misses(self.lower, self.upper, np.zeros(k, np.intp), 1)[0]:
            out.append("box does not intersect the probability simplex")
        return out

    def maximize(self, values: Sequence[float]) -> tuple[float, tuple[float, ...]]:
        """Max of sum(p * values) over the set, with an attaining vector."""
        if self.vertices is not None:
            best_val = None
            best_w = None
            for w in self.vertices:
                s = _dot(w, values)
                if best_val is None or s > best_val:
                    best_val, best_w = s, w
            return best_val, best_w
        k = len(values)
        p = list(self.lower)
        rem = 1.0 - reduce(operator.add, p, 0.0)  # left to right: from Python 3.12 ``sum`` is not
        for i in sorted(range(k), key=lambda j: -values[j]):
            if rem <= 0.0:
                break
            add = min(self.upper[i] - self.lower[i], rem)
            p[i] += add
            rem -= add
        return _dot(p, values), tuple(p)

    def support(self) -> tuple[bool, ...]:
        """Which children can receive positive mass."""
        if self.vertices is not None:
            k = self.arity()
            return tuple(any(v[i] > CHARGE_TOL for v in self.vertices) for i in range(k))
        return tuple(u > CHARGE_TOL for u in self.upper)


class _BoxArrays(NamedTuple):
    """Every box of a ``BoxSets`` map as arrays, one row per node before the last level in
    level order and one column per child, padded to the widest node with zero-capacity columns."""

    kids: np.ndarray  # each child's level-order index (padding: 0, the root)
    lower: np.ndarray  # box lower bounds
    cap: np.ndarray  # upper - lower
    rem: np.ndarray  # 1 - sum(lower), per row
    steps: np.ndarray  # 0, k, 2k, ...: each row's first cell in the raveled rows


def _pad(boxes: BoxSets) -> _BoxArrays | None:
    """Every node before the last level of ``boxes`` as padded rows. None where one of them is a
    leaf, or where padding takes over ``_MAX_PAD_RATIO`` cells per child (memory stays linear)."""
    tree = boxes.tree
    off, h = tree.child_offsets, tree.level_starts[-2]
    kid = np.arange(1, off[h])
    row = tree.parent_index[kid]
    col = kid - off[row]
    if not h or (off[1 : h + 1] == off[:h]).any():  # none, or a leaf before the last level
        return None
    if h * (k := col.max() + 1) > _MAX_PAD_RATIO * len(kid):
        return None
    kids, lower, cap = np.zeros((h, k), np.intp), np.zeros((h, k)), np.zeros((h, k))
    kids[row, col] = kid
    lower[row, col] = boxes.lower[kid]
    cap[row, col] = boxes.upper[kid] - boxes.lower[kid]
    rem = 1.0 - lower.cumsum(axis=1)[:, -1]  # left to right, as in ``maximize``
    return _BoxArrays(kids, lower, cap, rem, np.arange(0, h * k, k))


class BoxSets(Mapping):
    """A box at every inner node, as each node's ``lower`` and ``upper`` bound in its parent's
    box, in ``tree.level_order`` (the root's: NaN). A box is made from the arrays on first access;
    ``pad``, the rows the steps read, is built once and shared by every family over the map."""

    def __init__(self, tree: EventTree, lower: Sequence[float], upper: Sequence[float]):
        self.tree, self.lower, self.upper = tree, np.asarray(lower, float), np.asarray(upper, float)
        self.made = {}  # the boxes made so far

    @classmethod
    def read(cls, tree: EventTree, transitions: Mapping[str, TransitionSet]) -> BoxSets | None:
        """A transition map's boxes, in one pass; None unless every inner node holds a box of
        its own arity."""
        off, lower, upper = tree.child_offsets.tolist(), [np.nan], [np.nan]
        for n, i, j in zip(tree.level_order, off, off[1:]):
            if i < j:
                ts = transitions.get(n)
                if ts is None or not ts.is_box or not len(ts.lower) == len(ts.upper) == j - i:
                    return None
                lower += ts.lower
                upper += ts.upper
        return cls(tree, lower, upper)

    @cached_property
    def pad(self) -> _BoxArrays | None:
        """Every node before the last level as padded rows."""
        return _pad(self)

    def __getitem__(self, n: str) -> TransitionSet:
        if n not in self.made:
            g = self.tree.index(n)  # KeyError off the tree
            i, j = self.tree.child_offsets[g : g + 2].tolist()
            if i == j:
                raise KeyError(n)
            lo, hi = self.lower[i:j].tolist(), self.upper[i:j].tolist()
            self.made[n] = TransitionSet(tuple(lo), tuple(hi))
        return self.made[n]

    def __iter__(self):
        return iter(self.tree.non_leaves())

    def __len__(self) -> int:
        return len(self.tree.non_leaves())


class _CutArrays(NamedTuple):
    """Every cut's vertices: node g's are ``start[g]:start[g + 1]``, and vertex i
    puts ``wa[i]`` on node ``a[i]``, ``wb[i]`` on node ``b[i] >= a[i]``."""

    start: np.ndarray
    a: np.ndarray
    wa: np.ndarray
    b: np.ndarray
    wb: np.ndarray


def _cut_arrays(parent: np.ndarray, wn: np.ndarray, wc: np.ndarray) -> _CutArrays:
    """Every cut's vertices at once, in the order and with the float operations of
    a per-node enumeration: a unit vector at each child not above W_n + _STEP_TOL,
    then for each child above, its mixture with W_n from each child below W_n -
    _STEP_TOL. Node g (the root: 0) has parent ``parent[g]``, W_n ``wn[g]`` (NaN:
    no cut), wealth ``wc[g]`` (NaN: no mass)."""
    n = len(wn)
    w0 = wn[parent]  # each node's parent's W_n
    w0[0] = np.nan
    unit = np.flatnonzero(wc <= w0 + _STEP_TOL)
    above = np.flatnonzero(wc > w0 + _STEP_TOL)
    below = np.flatnonzero(wc < w0 - _STEP_TOL)
    nb = np.bincount(parent[below], minlength=n)
    first, nb = (np.cumsum(nb) - nb)[parent[above]], nb[parent[above]]  # their partners in below
    i = np.repeat(above, nb)
    j = below[np.repeat(first - np.cumsum(nb) + nb, nb) + np.arange(nb.sum())]  # nb from first
    lam = (wn[parent[i]] - wc[j]) / (wc[i] - wc[j])
    order = np.argsort(np.concatenate((parent[unit], parent[i])), kind="stable")
    a, b = (np.concatenate((unit, f(i, j)))[order] for f in (np.minimum, np.maximum))
    wa, wb = (np.concatenate((np.full(len(unit), u), np.where(i < j, x, y)))[order]
              for u, x, y in ((1.0, lam, 1.0 - lam), (0.0, 1.0 - lam, lam)))
    start = np.zeros(n + 1, np.intp)
    np.cumsum(np.bincount(parent[a], minlength=n), out=start[1:])
    return _CutArrays(start, a, wa, b, wb)


class CutSets(Mapping):
    """A family of supermartingale cuts {p in simplex : sum p_c (W_c - W_n) <= 0}
    as each node's W_n (``wn``) and wealth in its parent's cut (``wc``, NaN: no
    mass), in ``tree.level_order``. ``arrays`` lists every cut's vertices; a
    node's vertex set is made from them on access."""

    def __init__(self, tree: EventTree, wn: np.ndarray, wc: np.ndarray):
        self.tree, self.wn, self.wc = tree, wn, wc

    @cached_property
    def arrays(self) -> _CutArrays:
        return _cut_arrays(self.tree.parent_index, self.wn, self.wc)

    def __getitem__(self, n: str) -> TransitionSet:
        tree, c, g = self.tree, self.arrays, self.tree.index(n)  # KeyError off the tree
        if not tree.children(n):
            raise KeyError(n)
        (s, e), (i, j) = c.start[g : g + 2].tolist(), tree.child_offsets[g : g + 2].tolist()
        rows = zip(*(x[s:e].tolist() for x in c[1:]))  # each vertex's a, wa, b, wb
        return TransitionSet.vertex_set([[{b: wb, a: wa}.get(k, 0.0) for k in range(i, j)]
                                         for a, wa, b, wb in rows])

    def __iter__(self):
        return iter(self.tree.non_leaves())

    def __len__(self) -> int:
        return len(self.tree.non_leaves())


class _Family:
    """What both kinds of family share: ``charged`` from ``charged_mask``."""

    @cached_property
    def charged(self) -> frozenset[str]:
        """``charged_mask`` as a set of nodes."""
        return frozenset(itertools.compress(self.tree.level_order, self.charged_mask.tolist()))


@dataclass(frozen=True)
class RectangularFamily(_Family):
    """Per-node transition sets; the induced set of path measures.

    Every backward recursion over the family (sweeps, conditional
    expectations, the American DP, one-step classification) is
    ``_upper_step`` over runs of level-order nodes: one numpy step over
    ``cuts`` (a ``CutSets`` map as arrays), or over the whole-tree box rows of
    ``boxes.pad`` on runs of at least ``_KERNEL_MIN_WIDTH`` nodes, and
    ``TransitionSet.maximize`` node by node elsewhere, with bitwise equal
    results. ``boxes`` and ``charged`` are computed on first use and cached,
    so treat a family, its tree and its transition map as immutable.
    """

    tree: EventTree
    transitions: Mapping[str, TransitionSet]

    @property
    def cuts(self) -> _CutArrays | None:
        """A ``CutSets`` map's vertex arrays; None for other transition maps."""
        t = self.transitions
        return t.arrays if isinstance(t, CutSets) else None

    @cached_property
    def boxes(self) -> BoxSets | None:
        """The boxes: the transition map itself, or read from it (None unless every inner node
        holds a box)."""
        t = self.transitions
        return t if isinstance(t, BoxSets) else BoxSets.read(self.tree, t)

    @cached_property
    def charged_mask(self) -> np.ndarray:
        """The nodes on whose path every step is in its transition set's support,
        in ``tree.level_order``, one level at a time."""
        tree, c, off = self.tree, self.cuts, self.tree.child_offsets
        if c is not None:  # a vertex's weight above CHARGE_TOL
            mask = np.zeros(len(tree), bool)
            mask[c.a[c.wa > CHARGE_TOL]] = mask[c.b[c.wb > CHARGE_TOL]] = True
        elif self.boxes is not None:  # a box's support is upper > CHARGE_TOL
            mask = self.boxes.upper > CHARGE_TOL
        else:  # each node's ``support()``
            mask = np.zeros(len(tree), bool)
            for g in np.flatnonzero(off[1:] > off[:-1]).tolist():
                mask[off[g] : off[g + 1]] = self.transitions[tree.level_order[g]].support()
        mask[0] = True  # children follow their parents
        for a, b in zip(tree.level_starts[1:], tree.level_starts[2:]):
            mask[a:b] &= mask[tree.parent_index[a:b]]
        return mask


@dataclass(frozen=True)
class ExplicitFamily(_Family):
    """A finite list of measures given by leaf probabilities. ``node_mass``,
    ``charged_mask`` and ``charged`` are computed on first use and cached, so
    treat a family, its tree and its measures as immutable."""

    tree: EventTree
    measures: tuple[dict[str, float], ...]

    @cached_property
    def node_mass(self) -> np.ndarray:
        """(measures, nodes): each node's mass in ``tree.level_order``, its
        subtree's leaf probabilities added left to right in preorder."""
        tree, pre, n = self.tree, self.tree.preorder_index, len(self.tree)
        p, at, leaves = np.zeros((len(self.measures), n)), np.argsort(pre), tree.leaves
        p[:, (tree.child_offsets[1:] == tree.child_offsets[:-1])[pre]] = np.reshape(
            [[q.get(leaf, 0.0) for leaf in leaves] for q in self.measures], (len(p), len(leaves)))
        # each node's subtree: the run of preorder positions from its own; 0.0 at inner nodes adds nothing
        return _left_sums(p, at, at + tree.subtree_size)

    @cached_property
    def charged_mask(self) -> np.ndarray:
        """The nodes some measure gives more than ``CHARGE_TOL`` mass."""
        return (self.node_mass > CHARGE_TOL).any(axis=0)

    @property
    def masses(self) -> tuple[dict[str, float], ...]:
        """``node_mass`` per measure, as a map in preorder."""
        order, pre = self.tree.preorder(), self.tree.preorder_index
        return tuple(dict(zip(order, m[pre].tolist())) for m in self.node_mass)


MeasureFamily = Union[RectangularFamily, ExplicitFamily]


def validate_family(family: MeasureFamily) -> list[str]:
    tree = family.tree
    problems: list[str] = []
    if isinstance(family, RectangularFamily):
        for n in tree.non_leaves():
            ts = family.transitions.get(n)
            if ts is None:
                problems.append(f"no transition set at node {n!r}")
                continue
            problems.extend(f"node {n!r}: {msg}" for msg in ts.problems(len(tree.children(n))))
        return problems
    if not family.measures:
        problems.append("empty measure family")
    for i, q in enumerate(family.measures):
        total = 0.0
        for leaf, p in q.items():
            if leaf not in tree or not tree.is_leaf(leaf):
                problems.append(f"measure {i}: key {leaf!r} is not a leaf")
            if p < -CHARGE_TOL:
                problems.append(f"measure {i}: negative probability at {leaf!r}")
            total += p
        if abs(total - 1.0) > 1e-12:
            problems.append(f"measure {i}: probabilities sum to {total!r}")
    return problems


def node_charged(family: MeasureFamily, node: str) -> bool:
    """Positive supremal probability of reaching the node under the family."""
    return node in family.charged


def charged_leaves(family: MeasureFamily | None, tree: EventTree) -> tuple[str, ...]:
    if family is None:
        return tree.leaves
    return tuple(leaf for leaf in tree.leaves if leaf in family.charged)


def check_full_support(family: MeasureFamily) -> bool:
    """True iff every leaf is charged by some measure of the family."""
    return family.charged.issuperset(family.tree.leaves)


def _box_step(box: _BoxArrays, lo: int, hi: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``TransitionSet.maximize`` for box rows ``lo:hi`` at once, on the whole-tree
    level-order values ``x``, with its float operations: a stable descending sort (ties
    in child order), the greedy fill, and the dot product from 0.0 in child order.
    Returns the values and the maximizers, one row per node.

    The fill runs over the ranks at once. The mass left before rank r is ``rem`` less
    the capacities of the better ranks, subtracted in rank order (one row at a time),
    and each rank gains the smaller of its capacity and that mass where the mass is
    above 0.0. That is bitwise the loop's fill: while each capacity is below the mass
    left, both subtract the same numbers in the same order; at the first capacity that
    reaches it, the loop adds exactly the mass left and stops, while the row goes to
    0.0 or below and stays there (capacities are not negative), so no later rank gains.
    ``np.where`` keeps the lower bound where nothing is added, so a -0.0 keeps its sign,
    and adds 0.0 where the loop adds 0.0.

    Padding reads the root's value ``x[0]`` and has zero lower bound and capacity, so
    its weight is exactly 0.0, and subtracting its 0.0 capacity leaves every real rank's
    mass bitwise unchanged, wherever the sort puts it. Its term ``0.0 * x[0]`` is +-0.0
    for a finite ``x[0]``, and adding +-0.0 never changes a total that starts as
    ``0.0 + terms[:, 0]`` (such a total is never -0.0). Only a root value that is not
    finite is replaced by 0.0 at the padding, whose term would be NaN."""
    kids = box.kids[lo:hi]
    v = x[kids]
    if not isfinite(x[0]):
        np.copyto(v, 0.0, where=kids == 0)
    n, k = v.shape
    order = np.argsort(-v, axis=1, kind="stable")
    flat = np.add(order.T, box.steps[:n], order="C")  # row r: each node's r-th best, as a cell
    low = box.lower[lo:hi].take(flat)
    cap = box.cap[lo:hi].take(flat)
    left = np.empty((k, n))  # the mass left before each rank
    left[0] = box.rem[lo:hi]
    for r in range(1, k):
        np.subtract(left[r - 1], cap[r - 1], out=left[r])
    w = np.empty(n * k)
    w[flat] = np.where(left > 0.0, low + np.minimum(cap, left), low)
    w = w.reshape(n, k)
    terms = w * v
    total = 0.0 + terms[:, 0]
    for j in range(1, k):
        total += terms[:, j]
    return total, w


def _cut_step(cuts: _CutArrays, lo: int, hi: int, x: np.ndarray) -> np.ndarray:
    """``maximize`` at nodes ``lo:hi`` (each with a vertex) of the level-order values ``x``:
    each vertex's terms summed from 0.0 in child order, the largest kept.
    A NaN vertex value loses to a finite one, so NaN values can stand for "none"."""
    start = cuts.start[lo : hi + 1]
    s, e = start[0], start[-1]
    val = (0.0 + cuts.wa[s:e] * x[cuts.a[s:e]]) + cuts.wb[s:e] * x[cuts.b[s:e]]
    return np.fmax.reduceat(val, start[:-1] - s if s else start[:-1])


def _transition(family: RectangularFamily, n: str) -> TransitionSet:
    """The family's transition set at node ``n``; a KeyError that names the node."""
    try:
        return family.transitions[n]
    except KeyError:
        raise KeyError(f"no transition set at node {n!r}") from None


def _upper_step(family: RectangularFamily, lo: int, hi: int, x: np.ndarray) -> np.ndarray:
    """Upper one-step expectation at the level-order nodes ``lo:hi`` of the whole-tree
    level-order values ``x``. One ``_cut_step`` on cuts; one ``_box_step`` over the rows of
    ``boxes.pad`` on a family of boxes when the run holds at least ``_KERNEL_MIN_WIDTH``
    nodes; else ``maximize`` node by node (vertex lists, short runs, trees without a pad).
    Results are bitwise equal."""
    if (cuts := family.cuts) is not None:
        return _cut_step(cuts, lo, hi, x)
    if hi - lo >= _KERNEL_MIN_WIDTH and family.boxes is not None and family.boxes.pad is not None:
        return _box_step(family.boxes.pad, lo, hi, x)[0]
    o = family.tree.child_offsets[lo : hi + 1].tolist()
    xs, out = x[o[0] : o[-1]].tolist(), np.empty(hi - lo)
    for i, n in enumerate(family.tree.level_order[lo:hi]):
        out[i] = _transition(family, n).maximize(xs[o[i] - o[0] : o[i + 1] - o[0]])[0]
    return out


def _runs(tree: EventTree, node: str, target_t: int) -> list[tuple[int, int]]:
    """The level-order run of ``node``'s subtree at each time from the node's to
    ``target_t`` (a subtree is a contiguous run of every level)."""
    off, g = tree.child_offsets, tree.index(node)
    runs = [(g, g + 1)]
    for _ in range(tree.time(node) if g else 0, target_t):
        runs.append((int(off[runs[-1][0]]), int(off[runs[-1][1]])))
    return runs


def _left_sums(v: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Each ``v[..., start[i]:stop[i]]`` added left to right from 0.0 as a loop adds
    (``np.add.reduceat`` adds pairwise): ``np.cumsum`` along rows padded with 0.0
    per power-of-two length class, so padding at most doubles them."""
    size = stop - start
    out, width = np.zeros(v.shape[:-1] + size.shape), np.frexp(size)[1]
    for w in np.unique(width[size > 0]).tolist():
        sel = np.flatnonzero(width == w)
        col = np.arange(size[sel].max())
        live = col < size[sel, None]
        cells = np.where(live, v[..., np.where(live, start[sel, None] + col, 0)], 0.0)
        cells[..., 0] += 0.0  # the loop's 0.0 + v: -0.0 becomes 0.0
        out[..., sel] = np.cumsum(cells, axis=-1)[..., -1]
    return out


def _first_max(num: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Per node (column), the first strict maximum of ``num / mass`` over the measures
    (rows) whose mass there is above ``CHARGE_TOL``; NaN where there are none."""
    best, have = np.full(num.shape[1:], np.nan), np.zeros(num.shape[1:], bool)
    for n, m in zip(num, mass):
        on = m > CHARGE_TOL
        e = np.divide(n, m, out=np.zeros_like(n), where=on)
        take = on & (~have | (e > best))
        best[take], have = e[take], have | on
    return best


def _explicit_backward(family: ExplicitFamily, x, runs, floor=None, stop=None) -> np.ndarray:
    """``_backward`` for an explicit family, NaN at polar nodes: the ``_first_max`` of
    the measures' sums of mass times value (a zero mass adds nothing) over the node's
    descendants on the last run. With ``floor``: as the suprema over stopping times and
    measures commute, each measure's Snell envelope on unnormalized masses, V =
    max(m floor, sum of V over the children), and a node continues at its ``_first_max``."""
    m, off, on = family.node_mass, family.tree.child_offsets, family.charged_mask
    a, b = runs[-1]
    if floor is None:
        ends, nz, below = np.arange(b - a + 1), m[:, a:b] != 0, a
        terms = np.multiply(m[:, a:b], x[a:b], out=np.zeros(nz.shape), where=nz)
        for lo, hi in runs[::-1]:  # ends: each node's descendants in terms; below: the run below
            ends, below = (ends if lo == a else ends[off[lo : hi + 1] - below]), lo
            x[lo:hi] = _first_max(_left_sums(terms, ends[:-1], ends[1:]), m[:, lo:hi])
        return x
    V, stop[a:b] = np.zeros(m.shape), stop[a:b] & on[a:b]
    V[:, a:b], x[a:b] = m[:, a:b] * x[a:b], np.where(on[a:b], x[a:b], np.nan)
    for lo, hi in runs[-2::-1]:
        i, j = off[lo], off[hi]
        cont = _left_sums(V[:, i:j], off[lo:hi] - i, off[lo + 1 : hi + 1] - i)
        f, best = floor[lo:hi], _first_max(cont, m[:, lo:hi])
        stop[lo:hi] = f >= best
        x[lo:hi], V[:, lo:hi] = np.where(stop[lo:hi], f, best), np.maximum(m[:, lo:hi] * f, cont)
    return x


def _backward(
    family: MeasureFamily,
    x: np.ndarray,
    runs: Sequence[tuple[int, int]],
    floor: np.ndarray | None = None,
    stop: np.ndarray | None = None,
) -> np.ndarray:
    """Backward recursion of the upper expectation on the whole-tree level-order
    array ``x``, one level at a time (depth is unbounded): ``runs`` holds a run
    of level-order nodes per time, from the top node's to the target time's;
    the caller fills ``x`` on the last run, and each earlier one, last to
    first, is one ``_upper_step``. Returns ``x``. ``floor`` (whole-tree
    exercise values) makes it an optimal-stopping DP: a node whose floor is at
    least its continuation value takes it, and ``stop`` (a mask) is set there.
    Explicit families take ``_explicit_backward`` (only rectangular ones are time-consistent)."""
    if isinstance(family, ExplicitFamily):
        return _explicit_backward(family, x, runs, floor, stop)
    for lo, hi in runs[-2::-1]:
        x[lo:hi] = _upper_step(family, lo, hi, x)
        if floor is not None:
            f = floor[lo:hi]
            stop[lo:hi] = f >= x[lo:hi]
            x[lo:hi] = np.where(stop[lo:hi], f, x[lo:hi])
    return x


def _valued(family: MeasureFamily, runs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Mask of the nodes of whole-level ``runs`` that ``_backward`` values (explicit: charged)."""
    mask = np.zeros(len(family.tree), bool)
    mask[runs[0][0] : runs[-1][1]] = True
    return mask & family.charged_mask if isinstance(family, ExplicitFamily) else mask


def _require_charged(family: MeasureFamily, nodes: np.ndarray) -> None:
    """``PolarNodeError`` at the first of ``nodes`` no measure of an explicit family charges."""
    if isinstance(family, ExplicitFamily) and len(polar := nodes[~family.charged_mask[nodes]]):
        node = family.tree.level_order[polar[0]]
        raise PolarNodeError(f"no measure in the family charges node {node!r}")


def _filled(tree: EventTree, values: Mapping[str, float], node: str, target_t: int):
    """``_runs`` of ``node`` to ``target_t``, and a whole-tree array holding ``values`` on the last."""
    runs = _runs(tree, node, target_t)
    (lo, hi), x = runs[-1], np.zeros(len(tree))
    x[lo:hi] = np.fromiter(map(values.__getitem__, tree.level_order[lo:hi]), float, hi - lo)
    return x, runs


def _push_mass(tree: EventTree, weights: np.ndarray) -> dict[str, float]:
    """The leaf measure, in preorder, of a product of one transition vector per inner node:
    ``weights`` holds each node's weight in its parent's vector in ``tree.level_order`` (the
    root's is not read), and each level's mass is its parents' times its weights."""
    par, off, pre = tree.parent_index, tree.child_offsets, tree.preorder_index
    mass = np.ones(len(par))
    for a, b in zip(tree.level_starts[1:], tree.level_starts[2:]):
        mass[a:b] = mass[par[a:b]] * weights[a:b]
    return dict(zip(tree.leaves, mass[pre[(off[1:] == off[:-1])[pre]]].tolist()))


def _swept(family: MeasureFamily, values: Mapping[str, float], node: str, bound: str):
    """The upper or lower conditional expectation of the single-time slice ``values``
    at ``node`` and below, as a whole-tree level-order array, and its ``_runs``."""
    tree = family.tree
    if len(times := set(map(tree.times().__getitem__, values))) != 1:
        raise ValueError("values must all sit at a single time slice")
    if (t := times.pop()) < tree.time(node):
        raise ValueError("conditioning node is later than the target time")
    below = tree.level(t) if node == tree.root else tree.descendants_at(node, t)
    if missing := [m for m in below if m not in values]:
        raise ValueError(f"values missing at nodes {missing}")
    if bound not in ("upper", "lower"):
        raise ValueError(f"bound must be 'upper' or 'lower', got {bound!r}")
    x, runs = _filled(tree, values, node, t)
    _require_charged(family, np.array(runs[0][:1]))
    return (_backward(family, x, runs) if bound == "upper" else -_backward(family, -x, runs)), runs


def cond_expectation(
    family: MeasureFamily,
    values: Mapping[str, float] | AdaptedProcess,
    node: str,
    bound: str = "upper",
) -> float:
    """Conditional sublinear expectation at ``node`` of a single-time slice.

    ``bound="upper"`` takes the supremum over the family, ``"lower"`` the
    infimum (computed as the exact conjugate of the upper bound).
    """
    if isinstance(values, AdaptedProcess):
        values = values.values
    x, runs = _swept(family, values, node, bound)
    return x[runs[0][0]].item()


def expectation_sweep(
    family: RectangularFamily,
    values: Mapping[str, float],
    bound: str = "upper",
) -> NodeValues:
    """Conditional expectation of a single-time slice at every node at or
    above it, in one backward pass. Composes the same per-node extrema as
    ``cond_expectation`` (the recursion is the tower property), so values
    agree bitwise with the per-node calls."""
    if not isinstance(family, RectangularFamily):
        raise TypeError("expectation_sweep needs a rectangular family")
    x, runs = _swept(family, values, family.tree.root, bound)
    return NodeValues(family.tree, x, _valued(family, runs))


def argmax_measure(
    family: MeasureFamily, payoff: Mapping[str, float]
) -> dict[str, float]:
    """A measure attaining the (unconditional) upper expectation of a leaf
    payoff; for rectangular families the product of each node's maximizer,
    bottom up (``maximize``: its values are bitwise the kernel's)."""
    tree = family.tree
    if isinstance(family, ExplicitFamily):  # the first measure of largest expectation
        v = [reduce(operator.add, (q.get(leaf, 0.0) * payoff[leaf] for leaf in tree.leaves), 0.0)
             for q in family.measures]
        if not v:
            raise PolarNodeError("empty family")
        return dict(family.measures[v.index(max(v))])

    x, runs = _filled(tree, payoff, tree.root, tree.horizon)
    off, w = tree.child_offsets.tolist(), np.zeros(len(tree))
    for g in range(runs[-1][0] - 1, -1, -1):  # every node before the last level, bottom up
        i, j = off[g], off[g + 1]
        x[g], w[i:j] = _transition(family, tree.level_order[g]).maximize(x[i:j].tolist())
    return _push_mass(tree, w)


@dataclass(frozen=True)
class Classification:
    """Strongest martingale-type property a process satisfies, with slacks.

    The classes are nested: every G-martingale is a G-supermartingale and
    every G-supermartingale is an infi-supermartingale.
    """

    strongest: str
    martingale_gap: float
    supermartingale_slack: float
    infi_slack: float

    def satisfies(self, cls: str) -> bool:
        return CLASS_ORDER.index(self.strongest) >= CLASS_ORDER.index(cls)


def _step_rows(family: RectangularFamily, x: np.ndarray, have: np.ndarray, T: int):
    """(node, value, upper, lower) rows at each charged node before ``T`` whose
    children all have a value, in preorder: one ``_upper_step`` per bound."""
    tree, off = family.tree, family.tree.child_offsets
    end = tree.level_starts[max(0, min(T, tree.horizon))]  # the inner nodes before T
    keep = (off[1:] > off[:-1]) & have & family.charged_mask
    keep &= np.bincount(tree.parent_index[1:], ~have[1:], minlength=len(tree)) == 0
    keep[end:] = False
    up, low = (_upper_step(family, 0, end, v) for v in (x, -x))
    sel = tree.preorder_index[keep[tree.preorder_index]]
    return sel, x[sel], up[sel], -low[sel]


def _horizon_rows(family: ExplicitFamily, x: np.ndarray, have: np.ndarray, T: int):
    """(node, value, upper, lower) rows at each charged node before ``T`` with a value,
    one per later time up to ``T`` where all its descendants have one, in preorder."""
    tree, rows = family.tree, [(np.zeros(0, np.intp), *np.zeros((3, 0)))]
    for t in range(1, T + 1):
        runs, ok = _runs(tree, tree.root, t), have.copy()  # ok: every descendant at t has a value
        for (lo, hi), (a, b) in zip(runs[-2::-1], runs[:0:-1]):
            ok[lo:hi] = np.bincount(tree.parent_index[a:b] - lo, ~ok[a:b], hi - lo) == 0
        g = np.flatnonzero((ok & have & family.charged_mask)[: runs[-1][0]])
        up, low = _backward(family, x.copy(), runs)[g], -_backward(family, -x, runs)[g]
        rows.append((g, x[g], up, low))
    g, *rows = map(np.concatenate, zip(*rows))
    order = np.argsort(np.argsort(tree.preorder_index)[g], kind="stable")  # times stay in order
    return g[order], *(r[order] for r in rows)


def _first_min(rows: np.ndarray) -> np.ndarray:
    """Per row of ``rows``, the index of what the builtin ``min`` keeps: the first least
    value, NaN skipped unless the row starts with it."""
    at = (rows == np.fmin.reduce(rows, 1)[:, None]).argmax(1)
    return np.where(np.isnan(rows[:, 0]), 0, at)


def classify_process(
    family: MeasureFamily,
    process: Mapping[str, float] | AdaptedProcess | np.ndarray,
    T: int | None = None,
    tol: float = CLASSIFY_TOL,
) -> Classification:
    """Classify a process (a mapping, or values at every node in
    ``tree.level_order``) as G-martingale / G-supermartingale /
    infi-supermartingale / none under the family.

    Rectangular families are checked one step at a time (dynamic consistency
    makes that equivalent to all horizons); explicit families are checked
    against every horizon directly. Nodes the family does not charge are
    skipped — the statements are quasi-sure.
    """
    if isinstance(process, AdaptedProcess):
        process = process.values
    tree = family.tree
    rows = _horizon_rows if isinstance(family, ExplicitFamily) else _step_rows
    _, v, up, low = rows(family, *_level_values(tree, process), tree.horizon if T is None else T)
    if not len(v):
        return Classification("G_martingale", 0.0, 0.0, 0.0)
    # the builtin min, in row order, of -|v - up|, v - up and v - low
    folds = np.stack((-np.abs(v - up), v - up, v - low))
    mart_gap, sup_slack, infi_slack = folds[(0, 1, 2), _first_min(folds)] * [-1.0, 1.0, 1.0]
    strongest = ("G_martingale" if mart_gap <= tol else "G_supermartingale" if sup_slack >= -tol
                 else "infi_supermartingale" if infi_slack >= -tol else "none")
    return Classification(strongest, mart_gap.item(), sup_slack.item(), infi_slack.item())


def check_absolute_continuity(
    pricing: MeasureFamily,
    actual: MeasureFamily,
    payoffs: Sequence[Mapping[str, float]],
) -> bool:
    """For each payoff, the measure attaining its upper pricing expectation
    must put mass only on states some actual measure charges. (The actual
    family is read as its convex hull, so a mixture may dominate.)"""
    for payoff in payoffs:
        qt = argmax_measure(pricing, payoff)
        for leaf, p in qt.items():
            if p > CHARGE_TOL and not node_charged(actual, leaf):
                return False
    return True
