"""Event-tree market model: topology, market data, discounting, wealth.

The market lives on a finite uniform-depth event tree. Interior nodes are
information states, leaves are terminal states. All cash-flow arithmetic is
done in discounted units (time-0 money): a cash amount c paid at a node whose
money-market account value is B is worth c / B.
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections.abc import ItemsView, ValuesView
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

TAU_KINDS = ("bounded", "unbounded_finite", "possibly_infinite")
# ``EventTree`` builds its levels per node on lists where they average under this many
# nodes, else on numpy per level. The two break even at 31-35 nodes a level (fiat(7), 255
# nodes: 178 us on lists, 168 us on numpy); lists take 25-40 us against 60-160 us on trees of
# 6-38 nodes, numpy 12 ms against 30 ms on fiat(14) (2-vCPU machine).
_TREE_NUMPY_MIN_WIDTH = 32
_UNIFORM_ROOT = "r"  # the root id of ``EventTree.uniform``'s trees
_REBALANCE_TOL = 1e-9  # a holding change times wealth above this is no longer self-financing
_DIVIDEND_TOL = 1e-12  # a dividend of at most this size counts as none


class InvalidMarketError(ValueError):
    """An operation was asked to run on a market that fails validation."""


class ShortSaleViolationError(ValueError):
    """A trading strategy holds a negative position in the risky asset."""


class EventTree:
    """Rooted tree with ordered children; node times derived from parent links.

    Construction only requires a coherent parent map (single root, every
    parent known, everything reachable). Uniform leaf depth and the other
    market-level invariants are checked by ``validate_market`` so that broken
    trees can be represented and reported rather than rejected outright.

    The tree is its level-order arrays (see ``__init__``); the per-node maps
    behind the accessors are built from them on first use.
    """

    def __init__(self, parents: Mapping[str, str | None] | list[str | None],
                 place: dict[str, int] | None = None):
        """``parents`` maps each id to its parent's (the root's: None); or, with ``place``
        (each id's index in a listing of the nodes), it lists the parents in that order."""
        if place is None:
            place, parents = dict(zip(parents, itertools.count())), list(parents.values())
        if not place:
            raise ValueError("empty tree")
        ids, n, pars = list(place), len(place), parents
        up = list(map(place.get, pars, itertools.repeat(-1)))  # parents' places
        tops = up.count(-1)  # the nodes with no listed parent: the root, else unknown parents first
        roots = pars.count(None) if tops > 1 else tops and int(pars[up.index(-1)] is None)
        if tops > roots:
            i = next(i for i, (u, p) in enumerate(zip(up, pars)) if u < 0 and p is not None)
            raise ValueError(f"node {ids[i]!r} has unknown parent {pars[i]!r}")
        if roots != 1:
            raise ValueError(f"expected exactly one root, found {roots}")
        g, depth = n - 1, 0  # the last listed node's depth (the horizon when it is a leaf)
        while up[g] >= 0 and depth < n:
            g, depth = up[g], depth + 1
        # levels breadth first, each node's children in turn (every level in preorder): per node
        # on lists where levels average under ``_TREE_NUMPY_MIN_WIDTH`` nodes, else numpy per level
        if n < _TREE_NUMPY_MIN_WIDTH * (depth + 1):
            kids: list[list[int]] = [[] for _ in range(n + 1)]  # the root's: kids[-1]
            for i, p in enumerate(up):
                kids[p].append(i)
            by_level = kids[-1][:]
            for i in by_level:  # the list grows as it is read: breadth first
                by_level += kids[i]
            counts = list(map(len, map(kids.__getitem__, by_level)))
            par = [-1, *itertools.chain.from_iterable(map(itertools.repeat, range(n), counts))]
            off = list(itertools.accumulate(counts, initial=1))
            starts = [0, 1]  # a level's children end where its last node's do
            while starts[-1] < len(by_level):
                starts.append(off[starts[-1]])
            rank = np.empty(n + 1, np.intp)  # rank[n]: -1, for an id off the listing
            rank[by_level], rank[n] = np.arange(len(by_level)), -1
        else:
            up = np.array(up)
            order = up.argsort(kind="stable")  # children by parent, in listing order
            counts = np.bincount(up + 1, minlength=n + 1)[1:]
            first = counts.cumsum() + 1 - counts  # node i's children: order[first[i]:][:counts[i]]
            levels = [order[:1]]
            while (c := counts[levels[-1]]).any():
                end = c.cumsum()
                levels.append(order[(first[levels[-1]] - end + c).repeat(c) + np.arange(end[-1])])
            starts = list(itertools.accumulate(map(len, levels), initial=0))
            rank, by_level = np.empty(n + 1, np.intp), np.concatenate(levels)
            rank[by_level], rank[n] = np.arange(len(by_level)), -1
            par, by_level = rank[up[by_level]], by_level.tolist()
            off = np.concatenate(([1], counts[by_level].cumsum() + 1))
            par[0] = -1
        if len(by_level) != n:
            missing = sorted(set(ids) - set(map(ids.__getitem__, by_level)))
            raise ValueError(f"nodes unreachable from root: {missing}")
        self._place, self._rank = place, rank  # each id's place in the listing the tree was built from
        self.listing_index = rank[:n]  # node i of that listing: node ``rank[i]`` of ``level_order``
        self.level_order: tuple[str, ...] = tuple(map(ids.__getitem__, by_level))
        self.root, self.horizon = self.level_order[0], len(starts) - 2  # the deepest level: leaves only
        # node g of ``level_order``: parent ``parent_index[g]`` (root: -1), children
        # ``child_offsets[g]:[g + 1]``, ``subtree_size[g]`` nodes in its subtree, preorder
        # position ``preorder_index.argsort()[g]``; level t: ``level_starts[t]:[t + 1]``
        self.level_starts = starts = tuple(starts)
        self.child_offsets = off = np.asarray(off, np.intp)
        self.parent_index = np.asarray(par, np.intp)
        # from the leaves up, each subtree's size; from the root down, each node's preorder
        # position: its parent's, plus one, plus the sizes of its earlier siblings
        if isinstance(par, list):
            size, pos, free = [1] * n, [0] * n, [1] * n  # free: the position of a node's next child
            for g in range(n - 1, 0, -1):
                size[par[g]] += size[g]
            for g, p in enumerate(par[1:], 1):
                pos[g], free[p], free[g] = free[p], free[p] + size[g], free[p] + 1
        else:
            size, pos = np.ones(n, np.intp), np.zeros(n, np.intp)
            for s, a, b in zip(starts[-3::-1], starts[-2:0:-1], starts[:0:-1]):
                size[s:a] += np.bincount(par[a:b] - s, size[a:b], a - s).astype(np.intp)
            for a, b in zip(starts[1:], starts[2:]):
                before = size[a:b].cumsum() - size[a:b]
                pos[a:b] = pos[par[a:b]] + 1 + before - before[off[par[a:b]] - a]
        self.subtree_size, self._position = np.asarray(size, np.intp), np.asarray(pos, np.intp)
        self.preorder_index = np.empty(n, np.intp)
        self.preorder_index[self._position] = np.arange(n)

    @classmethod
    def uniform(cls, branching: Iterable[int]) -> "EventTree":
        """Build a uniform-depth tree; ``branching[t]`` children at depth t. The root is
        ``"r"``; child j of node n is ``f"{n}{j}"``, or ``f"{n}.{j}"`` throughout when some
        node has more than 10 children (``r1`` + ``0`` and ``r`` + ``10`` would be one id)."""
        branching = list(branching)
        sep = "." if any(k > 10 for k in branching) else ""
        parents: dict[str, str | None] = {_UNIFORM_ROOT: None}
        frontier = [_UNIFORM_ROOT]
        for k in branching:
            nxt = []
            for nid in frontier:
                for j in range(k):
                    cid = f"{nid}{sep}{j}"
                    parents[cid] = nid
                    nxt.append(cid)
            frontier = nxt
        return cls(parents)

    # -- per-node maps, built from the arrays on first use -------------------
    _parent = cached_property(lambda self: dict(zip(self.level_order, (None, *map(
        self.level_order.__getitem__, self.parent_index[1:].tolist())))))
    _preorder = cached_property(
        lambda self: tuple(map(self.level_order.__getitem__, self.preorder_index.tolist())))
    _time = cached_property(lambda self: dict(zip(self.level_order, itertools.chain.from_iterable(map(
        itertools.repeat, itertools.count(),
        map(operator.sub, self.level_starts[1:], self.level_starts))))))
    _children = cached_property(lambda self: dict(zip(self.level_order, map(self.level_order.__getitem__,
        itertools.starmap(slice, itertools.pairwise(self.child_offsets.tolist()))))))
    _inner = cached_property(lambda self: self.child_offsets[1:] > self.child_offsets[:-1])
    leaves = cached_property(lambda self: _named(self, ~self._inner))  # in preorder
    _non_leaves = cached_property(lambda self: _named(self, self._inner))

    # -- accessors ---------------------------------------------------------
    def time(self, nid: str) -> int:
        return self._time[nid]

    def times(self) -> Mapping[str, int]:
        """Every node's time, as a read-only mapping."""
        return MappingProxyType(self._time)

    def parent(self, nid: str) -> str | None:
        return self._parent[nid]

    def children(self, nid: str) -> tuple[str, ...]:
        return self._children[nid]

    def is_leaf(self, nid: str) -> bool:
        return not self._children[nid]

    def preorder(self) -> tuple[str, ...]:
        return self._preorder

    def non_leaves(self) -> tuple[str, ...]:
        return self._non_leaves

    def level(self, t: int) -> tuple[str, ...]:
        s = self.level_starts
        return self.level_order[s[t] : s[t + 1]] if 0 <= t <= self.horizon else ()

    def index(self, nid: str) -> int:
        """The node's index in ``level_order``, through the listing's id map."""
        return self._rank.item(self._place[nid])

    def indices(self, ids: Iterable[str]) -> np.ndarray:
        """The indices of ``ids`` in ``level_order`` (-1 for an id off the tree)."""
        return self._rank[list(map(self._place.get, ids, itertools.repeat(-1)))]

    def path(self, nid: str) -> tuple[str, ...]:
        out = []
        cur: str | None = nid
        while cur is not None:
            out.append(cur)
            cur = self._parent[cur]
        return tuple(reversed(out))

    def subtree(self, nid: str) -> Iterator[str]:
        p = self._position[g := self.index(nid)]
        return iter(self._preorder[p : p + self.subtree_size[g]])

    def descendants_at(self, nid: str, t: int) -> tuple[str, ...]:
        return tuple(n for n in self.subtree(nid) if self._time[n] == t)

    @property
    def parent_map(self) -> dict[str, str | None]:
        return {n: self._parent[n] for n in self._preorder}

    def __eq__(self, other) -> bool:
        return isinstance(other, EventTree) and self.parent_map == other.parent_map

    def __len__(self) -> int:
        return len(self.level_order)

    def __contains__(self, nid: str) -> bool:
        return nid in self._place

    def structure_problems(self) -> list[str]:
        """Invariant violations deferred from construction (uniform depth)."""
        problems = []
        if np.count_nonzero(self._inner) < self.level_starts[-2]:
            depths = sorted(set(map(self._time.__getitem__, self.leaves)))
            problems.append("non-uniform depth: leaves at times " + ", ".join(map(str, depths)))
        if self.horizon < 1:
            problems.append("horizon must be >= 1")
        return problems


@dataclass(frozen=True)
class StoppingTime:
    """Maturity events: an antichain of nodes where the asset is liquidated.

    A path whose prefix hits a tau node matures there; paths that reach the
    horizon without hitting one encode "tau beyond the truncation".
    """

    tau_nodes: frozenset[str]

    def problems(self, tree: EventTree) -> list[str]:
        out = []
        for a in sorted(self.tau_nodes):  # messages in one order, whatever the string hashing
            if a not in tree:
                out.append(f"tau node {a!r} not in tree")
                continue
            if tree.time(a) < 1:
                out.append(f"tau node {a!r} at time {tree.time(a)} (tau must be > 0)")
            for anc in tree.path(a)[:-1]:
                if anc in self.tau_nodes:
                    out.append(f"tau nodes {anc!r} and {a!r} violate the antichain")
        return out


def _named(tree: EventTree, mask: np.ndarray) -> tuple[str, ...]:
    """The ids of the nodes where the level-order ``mask`` is set, in preorder."""
    pre = tree.preorder_index
    return tuple(map(tree.level_order.__getitem__, pre[mask[pre]].tolist()))


@dataclass(frozen=True)
class AdaptedProcess:
    """Real value per node. May live on a sub-domain such as {t < tau}."""

    values: Mapping[str, float]

    def __getitem__(self, nid: str) -> float:
        return self.values[nid]

    def get(self, nid: str, default: float | None = None):
        return self.values.get(nid, default)

    def __contains__(self, nid: str) -> bool:
        return nid in self.values

    def items(self):
        return self.values.items()

    def __len__(self) -> int:
        return len(self.values)


class NodeValues(Mapping):
    """A process as a read-only map of node ids to floats, iterated in preorder: ``array[g]``
    at node g of ``tree.level_order`` where ``mask`` (by default every node) is set. Both are
    read-only views; ``dict(r.items())`` is a mutable copy."""

    def __init__(self, tree: EventTree, array: np.ndarray, mask: np.ndarray | None = None):
        self.tree, self.array = tree, array.view()
        self.mask = np.ones(len(tree), bool) if mask is None else mask.view()
        self.array.flags.writeable = self.mask.flags.writeable = False

    def __getitem__(self, nid: str) -> float:
        tree = self.tree  # ``tree.index`` inlined, ``item``: one Python call, no numpy scalar
        if self.mask.item(g := tree._rank.item(tree._place[nid])):  # KeyError off the tree
            return self.array.item(g)
        raise KeyError(nid)

    def __iter__(self) -> Iterator[str]:
        return itertools.compress(self.tree.preorder(), self.mask[self.tree.preorder_index].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def _listed(self) -> list[float]:
        """The values, in preorder, from one ``tolist``."""
        return self.array[self.tree.preorder_index[self.mask[self.tree.preorder_index]]].tolist()

    def items(self) -> ItemsView:
        return _Items(self)

    def values(self) -> ValuesView:
        return _Values(self)


class _Items(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._listed())


class _Values(ValuesView):
    def __iter__(self):
        return iter(self._mapping._listed())


def _level_values(tree: EventTree, process: Mapping[str, float] | np.ndarray):
    """``process`` as level-order values (0.0 where none) and the mask of those it has."""
    order, n = tree.level_order, len(tree)
    if isinstance(process, np.ndarray):
        return process, np.ones(n, bool)
    if isinstance(process, NodeValues) and process.tree is tree:
        return np.where(process.mask, process.array, 0.0), process.mask
    have = np.fromiter(map(process.__contains__, order), bool, n)
    return np.fromiter(map(process.get, order, itertools.repeat(0.0)), float, n), have


@dataclass(frozen=True)
class Strategy:
    """Risky-asset holdings: pi[n] is the position taken at node n and held
    over the following step. Nodes absent from the map hold zero."""

    pi: Mapping[str, float]

    def holding(self, nid: str) -> float:
        return self.pi.get(nid, 0.0)


@dataclass(frozen=True)
class ValidationFailure:
    code: str
    message: str
    nodes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[ValidationFailure, ...]

    def messages(self) -> list[str]:
        return [f.message for f in self.failures]


class MarketArrays(NamedTuple):
    """A spec's numbers in ``tree.level_order``, NaN where its map has none."""

    price: np.ndarray
    dividend: np.ndarray
    rate: np.ndarray  # gathered at the inner nodes only
    payoff: np.ndarray  # gathered at the tau nodes only
    tau: np.ndarray  # the indices of the tau nodes on the tree


class Processes(NamedTuple):
    """Per-node processes of a valid market, as arrays in ``tree.level_order``."""

    tau: np.ndarray  # level-order index of the tau node on the path (itself included); -1: none
    B: np.ndarray  # account value
    cum: np.ndarray  # collected discounted dividends
    W: np.ndarray  # discounted wealth
    S: np.ndarray  # discounted price, price / B
    stopped: np.ndarray  # S while the asset lives, payoff / B at the tau node from there on


@dataclass(frozen=True)
class MarketSpec:
    """Market data on an event tree.

    rates[n] is the spot rate over the step leaving node n, so the account
    value at a node of time t is the product of (1 + rate) along the path of
    its t ancestors and B(root) = 1. ``price`` is the ex-dividend price,
    ``dividend`` the dividend paid at the node (known there), ``payoff`` the
    liquidation value, defined exactly on the tau nodes.

    ``arrays`` (the maps as read-only level-order arrays), the ``validation``
    and ``processes`` (read-only level-order arrays) read off them and off each
    node's tau node, and the ``alive_horizon`` and ``cash_events`` read off
    those are computed on first use and cached on the instance, and so is
    ``memo``, where ``noarb`` keeps its one-step test per ``actual`` family. Treat a spec, its tree and its dicts as immutable:
    editing them afterwards leaves them stale. Build a new spec instead.
    """

    tree: EventTree
    rates: dict[str, float]
    price: dict[str, float]
    dividend: dict[str, float]
    payoff: dict[str, float]
    tau: StoppingTime
    tau_kind: str = "bounded"

    @cached_property
    def validation(self) -> ValidationReport:
        """The ``validate_market`` report of this spec."""
        return validate_market(self)

    @cached_property
    def memo(self) -> dict:
        """Results derived from this spec and one more input; none refers to the spec."""
        return {}

    @cached_property
    def arrays(self) -> MarketArrays:
        """The maps' values gathered once, whatever built the spec: each map in its own order
        when it lists its nodes as the tree's listing does (as files do), else by id."""
        tree, nan = self.tree, itertools.repeat(math.nan)
        at = (g := tree.indices(self.tau.tau_nodes))[g >= 0]  # the tau nodes on the tree
        ids, rank, inner = list(tree._place), tree.listing_index, tree._inner[tree.listing_index]

        def read(data: Mapping[str, float], keys: list[str]) -> np.ndarray:
            values = data.values() if list(data) == keys else map(data.get, keys, nan)
            return np.fromiter(values, float, len(keys))

        x = np.full((4, len(tree)), math.nan)
        x[0, rank], x[1, rank] = read(self.price, ids), read(self.dividend, ids)
        x[2, rank[inner]] = read(self.rates, list(itertools.compress(ids, inner.tolist())))
        x[3, at] = read(self.payoff, list(map(tree.level_order.__getitem__, at.tolist())))
        x.flags.writeable = at.flags.writeable = False
        return MarketArrays(*x, at)

    @cached_property
    def _tau_cover(self) -> tuple[np.ndarray, np.ndarray]:
        """Per node in level order: how many tau nodes' subtrees (runs of the preorder) hold it,
        and the tau node on its path (itself included; -1: none), valid where that count is at
        most 1. Both are running sums over the runs' ends: of ones, and of each index plus one."""
        tree, at = self.tree, self.arrays.tau
        if not len(at):
            none = np.zeros(len(tree), np.intp)
            return none, none - 1
        start, pos, n, w = tree._position[at], tree._position, len(tree) + 1, at + 1.0
        end = start + tree.subtree_size[at]
        count = np.bincount(start, None, n) - np.bincount(end, None, n)
        label = np.bincount(start, w, n) - np.bincount(end, w, n)
        return count.cumsum()[pos], label.cumsum()[pos].astype(np.intp) - 1

    @cached_property
    def processes(self) -> Processes:
        """The tau node, B, collected dividends, wealth, discounted and stopped price; B and
        the dividends from the root down, one level at a time, each value with the float
        operations of a per-node recursion down the tree. Raises ``InvalidMarketError`` when
        the market fails validation."""
        require_valid(self)
        tree, data, tau, n = self.tree, self.arrays, self._tau_cover[1], len(self.tree)
        par, levels = tree.parent_index, list(zip(tree.level_starts[1:], tree.level_starts[2:]))
        grow, B = (1.0 + data.rate)[par], np.ones(n)  # grow[g]: the step into g (none at the root)
        for a, b in levels:
            np.multiply(B[par[a:b]], grow[a:b], out=B[a:b])
        matured, cum, d = tau >= 0, np.zeros(n), data.dividend / B  # d: discounted dividends
        after = matured[par]  # the parent has matured: strictly after liquidation (not the root)
        cum[0] += d[0]
        for a, b in levels:
            c = cum[par[a:b]]
            np.add(c, d[a:b], out=cum[a:b])
            np.copyto(cum[a:b], c, where=after[a:b])
        S = data.price / B
        paid = (data.payoff / B)[tau]  # the discounted payoff at the tau node (garbage where none)
        out = Processes(tau, B, cum, np.where(matured, cum + paid, S + cum), S,
                        np.where(matured, paid, S))
        for x in out:
            x.flags.writeable = False
        return out

    @cached_property
    def alive_horizon(self) -> int:
        """The last time at which some node comes before maturity (0 when
        the root itself matures)."""
        alive = np.flatnonzero(self.processes.tau < 0)
        return bisect.bisect_right(self.tree.level_starts, alive[-1]) - 1 if len(alive) else 0

    @cached_property
    def cash_events(self) -> tuple[tuple[str, str | None], ...]:
        """In preorder, the nodes where the asset has matured (with the tau
        node on their path) or, after time 0, pays a dividend (with None)."""
        p, tree = self.processes, self.tree
        hit = (p.tau >= 0) | (np.abs(self.arrays.dividend) > _DIVIDEND_TOL)
        hit[0] = p.tau[0] >= 0
        at, ids = tree.preorder_index[hit[tree.preorder_index]], [*tree.level_order, None]
        return tuple(zip(map(ids.__getitem__, at.tolist()), map(ids.__getitem__, p.tau[at].tolist())))


def tau_node_map(spec: MarketSpec) -> dict[str, str | None]:
    """For each node, in preorder, the tau node on its path (itself included), if any."""
    tree, ids = spec.tree, [*spec.tree.level_order, None]  # index -1: no tau node
    tau = spec.processes.tau[tree.preorder_index].tolist()
    return dict(zip(tree.preorder(), map(ids.__getitem__, tau)))


def validate_market(spec: MarketSpec) -> ValidationReport:
    """Check every market invariant; failures carry offending node ids. The checks run on the
    spec's ``arrays`` and the tree's preorder runs; a failing one names its nodes as before."""
    tree, x, taus = spec.tree, spec.arrays, spec.tau.tau_nodes
    failures = [ValidationFailure("tree", msg) for msg in tree.structure_problems()]

    def named(code: str, message: str, nodes) -> None:  # a failure naming ``nodes``, if any
        if nodes:
            failures.append(ValidationFailure(code, message, tuple(nodes)))

    under = spec._tau_cover[0]  # per node, how many tau nodes' subtrees hold it
    if len(x.tau) < len(taus) or len(x.tau) and (0 in x.tau or (under > 1).any()):
        # a tau node off the tree, at the root, or under another one
        failures += (ValidationFailure("tau", msg) for msg in spec.tau.problems(tree))
    for data, label, values, domain in ((spec.price, "price", x.price, None),
                                        (spec.dividend, "dividend", x.dividend, None),
                                        (spec.rates, "rate", x.rate, tree._inner)):
        # NaN where ``data`` has no value at a node of the ``domain`` mask (None: every node),
        # or where it holds NaN, which passes as before
        if not ((values if domain is None else values[domain]) >= 0).all():
            nan = np.isnan(values) if domain is None else np.isnan(values) & domain
            named(f"missing {label}", f"missing {label} at nodes",
                  [n for n in _named(tree, nan) if n not in data])
            named(f"negative {label}", f"negative {label} at nodes", _named(tree, values < 0))
    # a payoff at each tau node, none elsewhere, none negative: by the counts and the arrays
    if not (len(spec.payoff) == len(x.tau) == len(taus)
            and (not len(x.tau) or (x.payoff[x.tau] >= 0).all())):
        named("payoff domain", "payoff defined off tau nodes", sorted(set(spec.payoff) - taus))
        named("payoff domain", "tau nodes without payoff", sorted(taus - set(spec.payoff)))
        named("negative payoff", "negative payoff at nodes",
              [n for n, v in spec.payoff.items() if v < 0])

    if spec.tau_kind not in TAU_KINDS:
        failures.append(ValidationFailure("tau kind", f"unknown tau_kind {spec.tau_kind!r}"))
    elif spec.tau_kind != "unbounded_finite":
        open_leaves = ~tree._inner & (under == 0)
        if spec.tau_kind == "bounded" and open_leaves.any():
            named("tau kind", "tau_kind 'bounded' but some paths never mature",
                  sorted(_named(tree, open_leaves)))
        if spec.tau_kind == "possibly_infinite" and not open_leaves.any():
            failures.append(ValidationFailure(
                "tau kind",
                "tau_kind 'possibly_infinite' requires at least one path without a tau node"))
    return ValidationReport(ok=not failures, failures=tuple(failures))


def require_valid(spec: MarketSpec) -> None:
    report = spec.validation
    if not report.ok:
        raise InvalidMarketError("; ".join(report.messages()))


def discount_factors(spec: MarketSpec) -> AdaptedProcess:
    """Money-market account value per node: B(root) = 1, accruing the spot
    rate of each step along the path."""
    return AdaptedProcess(NodeValues(spec.tree, spec.processes.B))


def cumulative_dividends(spec: MarketSpec) -> AdaptedProcess:
    """Discounted dividends accumulated along the path, frozen from the tau
    node on (the asset pays nothing after liquidation)."""
    return AdaptedProcess(NodeValues(spec.tree, spec.processes.cum))


def wealth_process(spec: MarketSpec) -> AdaptedProcess:
    """Discounted wealth: price while alive plus dividends collected so far,
    or collected dividends plus the discounted liquidation payoff after tau."""
    return AdaptedProcess(NodeValues(spec.tree, spec.processes.W))


class GainsResult(NamedTuple):
    gains: AdaptedProcess
    value: AdaptedProcess
    self_financing: bool


def gains_process(spec: MarketSpec, strategy: Strategy) -> GainsResult:
    """Cumulative trading gains and portfolio value of a strategy.

    The gain over each step uses the holding chosen at the step's start node.
    ``self_financing`` is the literal no-rebalancing-while-funded criterion:
    the holding may only change at nodes where wealth is zero (within
    ``_REBALANCE_TOL``); under it the value process equals holding times wealth.
    """
    require_valid(spec)
    for n, p in strategy.pi.items():
        if p < 0:
            raise ShortSaleViolationError(f"negative holding {p} at node {n!r}")
    tree, W = spec.tree, spec.processes.W
    par, off = tree.parent_index, tree.child_offsets
    h = _level_values(tree, strategy.pi)[0]
    G = np.zeros(len(tree))
    for a, b in zip(tree.level_starts[1:], tree.level_starts[2:]):
        p = par[a:b]
        G[a:b] = G[p] + h[p] * (W[a:b] - W[p])
    V = h[0] * W[0] + G
    # the holding may change only where wealth is zero, at the non-root inner nodes
    shift = np.abs((h[1:] - h[par[1:]]) * W[1:])[off[2:] > off[1:-1]]
    self_financing = not (shift > _REBALANCE_TOL).any()
    return GainsResult(*(AdaptedProcess(NodeValues(tree, x)) for x in (G, V)), self_financing)


def strategy_eta(spec: MarketSpec, strategy: Strategy) -> AdaptedProcess:
    """Money-market leg implied by a self-financing risky position: the
    holding times collected dividends plus payoff once matured (which is
    wealth from tau on)."""
    held = _level_values(spec.tree, strategy.pi)[0] * _collected(spec)
    return AdaptedProcess(NodeValues(spec.tree, held))


def cash_flow_payoff(spec: MarketSpec) -> dict[str, float]:
    """Per leaf: all discounted dividends plus the discounted liquidation
    payoff if the path matured within the horizon (the leaf's wealth).
    Residual price on paths that never mature is excluded (it is not a
    realizable cash flow)."""
    return dict(zip(spec.tree.leaves, _collected(spec)[spec.tree.level_starts[-2] :].tolist()))


def _collected(spec: MarketSpec) -> np.ndarray:
    """Per node, in level order: collected discounted dividends, plus the
    discounted liquidation payoff from maturity on (wealth there)."""
    p = spec.processes
    return np.where(p.tau < 0, p.cum, p.W)
