"""Reference implementations for the market-file parser and the event tree.

``parse_market_file`` here checks every value on its own, in document
order, scans every number map's ids for one that is not on the tree, and
parses the ``pricing`` block even when it equals ``actual``: it
is what ``bubbletree.cli.parse_market_file`` computed before its checks ran
one pass per number list, per map and per box family. ``validate_market``
checks prices, dividends, rates and the tau kind node by node. ``ReferenceTree`` keeps
one ``Node`` record per node. The tests hold the library to all three:
same results, same ``MarketFileError`` texts, same validation failures,
same accessors.
"""
from __future__ import annotations

import json
import math
from typing import Mapping, NamedTuple

from bubbletree.ambiguity import (
    ExplicitFamily,
    RectangularFamily,
    TransitionSet,
    validate_family,
)
from bubbletree.cli import MarketFileError, ParsedMarket
from bubbletree.lattice import (
    TAU_KINDS,
    EventTree,
    MarketSpec,
    StoppingTime,
    ValidationFailure,
    ValidationReport,
)


class Node(NamedTuple):
    id: str
    t: int
    parent: str | None
    children: tuple[str, ...]


class ReferenceTree:
    """``EventTree`` with a frozen ``Node`` per node."""

    def __init__(self, parents: Mapping[str, str | None]):
        parents = dict(parents)
        if not parents:
            raise ValueError("empty tree")
        children: dict[str, list[str]] = {nid: [] for nid in parents}
        roots = []
        for nid, par in parents.items():
            if par is None:
                roots.append(nid)
            elif par not in parents:
                raise ValueError(f"node {nid!r} has unknown parent {par!r}")
            else:
                children[par].append(nid)
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        self.root = roots[0]
        nodes: dict[str, Node] = {}
        order: list[str] = []
        stack = [(self.root, 0)]
        while stack:
            nid, t = stack.pop()
            nodes[nid] = Node(nid, t, parents[nid], tuple(children[nid]))
            order.append(nid)
            for c in reversed(children[nid]):
                stack.append((c, t + 1))
        if len(nodes) != len(parents):
            missing = sorted(set(parents) - set(nodes))
            raise ValueError(f"nodes unreachable from root: {missing}")
        self._nodes = nodes
        self._preorder = tuple(order)
        self.leaves = tuple(n for n in order if not nodes[n].children)
        self._non_leaves = tuple(n for n in order if nodes[n].children)
        self.horizon = max(nodes[n].t for n in self.leaves)
        levels: dict[int, list[str]] = {}
        for n in order:
            levels.setdefault(nodes[n].t, []).append(n)
        self._levels = {t: tuple(ns) for t, ns in levels.items()}

    def time(self, nid):
        return self._nodes[nid].t

    def parent(self, nid):
        return self._nodes[nid].parent

    def children(self, nid):
        return self._nodes[nid].children

    def is_leaf(self, nid):
        return not self._nodes[nid].children

    def preorder(self):
        return self._preorder

    def non_leaves(self):
        return self._non_leaves

    def level(self, t):
        return self._levels.get(t, ())

    def path(self, nid):
        out = []
        cur = nid
        while cur is not None:
            out.append(cur)
            cur = self._nodes[cur].parent
        return tuple(reversed(out))

    def subtree(self, nid):
        stack = [nid]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(reversed(self._nodes[n].children))

    @property
    def parent_map(self):
        return {n: self._nodes[n].parent for n in self._preorder}

    def __len__(self):
        return len(self._nodes)


def _infinite_on(tau: StoppingTime, tree) -> frozenset[str]:
    """The leaves whose paths hold no tau node."""
    return frozenset(leaf for leaf in tree.leaves if tau.tau_nodes.isdisjoint(tree.path(leaf)))


def validate_market(spec: MarketSpec) -> ValidationReport:
    failures = []
    tree = spec.tree
    for msg in tree.structure_problems():
        failures.append(ValidationFailure(msg))
    for msg in spec.tau.problems(tree):
        failures.append(ValidationFailure(msg))

    def check_nonneg(data, label, domain):
        missing = [n for n in domain if n not in data]
        if missing:
            failures.append(ValidationFailure(f"missing {label} at nodes", tuple(missing)))
        bad = [n for n in domain if n in data and data[n] < 0]
        if bad:
            failures.append(ValidationFailure(f"negative {label} at nodes", tuple(bad)))

    check_nonneg(spec.price, "price", tree.preorder())
    check_nonneg(spec.dividend, "dividend", tree.preorder())
    check_nonneg(spec.rates, "rate", tree.non_leaves())
    extra = sorted(set(spec.payoff) - spec.tau.tau_nodes)
    missing = sorted(spec.tau.tau_nodes - set(spec.payoff))
    if extra:
        failures.append(ValidationFailure("payoff defined off tau nodes", tuple(extra)))
    if missing:
        failures.append(ValidationFailure("tau nodes without payoff", tuple(missing)))
    bad = [n for n, x in spec.payoff.items() if x < 0]
    if bad:
        failures.append(ValidationFailure("negative payoff at nodes", tuple(bad)))
    if spec.tau_kind not in TAU_KINDS:
        failures.append(ValidationFailure(f"unknown tau_kind {spec.tau_kind!r}"))
    else:
        inf_on = _infinite_on(spec.tau, tree)
        if spec.tau_kind == "bounded" and inf_on:
            failures.append(ValidationFailure(
                "tau_kind 'bounded' but some paths never mature", tuple(sorted(inf_on))
            ))
        if spec.tau_kind == "possibly_infinite" and not inf_on:
            failures.append(ValidationFailure(
                "tau_kind 'possibly_infinite' requires at least one path without a tau node",
            ))
    return ValidationReport(ok=not failures, failures=tuple(failures))


def _need(doc, key, where):
    if key not in doc:
        raise MarketFileError(f"{where}: missing required field {key!r}")
    return doc[key]


def _typed(value, kind, where, what):
    if not isinstance(value, kind):
        raise MarketFileError(f"{where} must be {what}")
    return value


def _number(value, where, key) -> float:
    if type(value) not in (int, float):
        raise MarketFileError(f"{where}[{key!r}] is not a number")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise MarketFileError(f"{where}[{key!r}] is not finite")


def _numbers(value, where):
    items = _typed(value, list, where, "a list of numbers")
    return [_number(v, where, i) for i, v in enumerate(items)]


def _num_map(doc, key, where):
    raw = _need(doc, key, where)
    if not isinstance(raw, dict):
        raise MarketFileError(f"{where}: field {key!r} must map node ids to numbers")
    at = f"{where}: {key}"
    return {str(nid): _number(v, at, nid) for nid, v in raw.items()}


def _parse_family(doc, tree, where):
    _typed(doc, dict, where, "an object")
    kind = _need(doc, "type", where)
    if kind == "rectangular":
        raw = _typed(
            _need(doc, "transitions", where), dict, f"{where}.transitions",
            "an object mapping node ids to transition blocks",
        )
        transitions = {}
        for nid, block in raw.items():
            if nid not in tree:
                raise MarketFileError(f"{where}: transition at unknown node {nid!r}")
            at = f"{where}.transitions[{nid!r}]"
            _typed(block, dict, at, "an object")
            if "vertices" in block:
                vertices = _typed(block["vertices"], list, f"{at}.vertices", "a list")
                transitions[nid] = TransitionSet.vertex_set(
                    [_numbers(v, f"{at}.vertices[{i}]") for i, v in enumerate(vertices)]
                )
            else:
                lo = _numbers(_need(block, "lower", at), f"{at}.lower")
                hi = _numbers(_need(block, "upper", at), f"{at}.upper")
                transitions[nid] = TransitionSet.box(lo, hi)
        family = RectangularFamily(tree, transitions)
    elif kind == "explicit":
        raw = _typed(_need(doc, "measures", where), list, f"{where}.measures", "a list")
        measures = []
        for i, q in enumerate(raw):
            at = f"{where}.measures[{i}]"
            _typed(q, dict, at, "an object mapping leaves to probabilities")
            measures.append({str(k): _number(v, at, k) for k, v in q.items()})
        family = ExplicitFamily(tree, tuple(measures))
    else:
        raise MarketFileError(f"{where}: unknown family type {kind!r}")
    problems = validate_family(family)
    if problems:
        raise MarketFileError(f"{where}: " + "; ".join(problems))
    return family


def parse_market_file(path: str) -> ParsedMarket:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MarketFileError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not JSON, not text, or nested too deep
        raise MarketFileError(f"{path}: not valid JSON: {exc}") from exc

    _typed(doc, dict, path, "a JSON object")
    nodes = _typed(_need(doc, "nodes", path), list, f"{path}: field 'nodes'", "a list")
    parents = {}
    stated_times = {}
    for i, entry in enumerate(nodes):
        at = f"{path}: nodes[{i}]"
        _typed(entry, dict, at, "an object with id, parent and time")
        nid = str(_need(entry, "id", at))
        if nid in parents:
            raise MarketFileError(f"{path}: duplicate node id {nid!r}")
        par = entry.get("parent")
        parents[nid] = None if par is None else str(par)
        if "time" in entry:
            t = _number(entry["time"], at, "time")
            if t != int(t):
                raise MarketFileError(f"{at}['time'] is not an integer")
            stated_times[nid] = int(t)
    try:
        tree = EventTree(parents)
    except ValueError as exc:
        raise MarketFileError(f"{path}: bad tree: {exc}") from exc
    for nid, t in stated_times.items():
        if tree.time(nid) != t:
            raise MarketFileError(
                f"{path}: node {nid!r} states time {t} but sits at depth {tree.time(nid)}"
            )
    horizon = _need(doc, "horizon", path)
    t = _number(horizon, path, "horizon")
    if t != int(t):
        raise MarketFileError(f"{path}['horizon'] is not an integer")
    if horizon != tree.horizon:
        raise MarketFileError(
            f"{path}: stated horizon {horizon} != tree depth {tree.horizon}"
        )

    tau_doc = _typed(_need(doc, "tau", path), dict, f"{path}.tau", "an object")
    tau_nodes = _typed(_need(tau_doc, "nodes", f"{path}.tau"), list, f"{path}.tau.nodes", "a list")
    tau = StoppingTime(frozenset(str(n) for n in tau_nodes))
    unknown = sorted(n for n in tau.tau_nodes if n not in tree)
    if unknown:
        raise MarketFileError(f"{path}.tau.nodes: unknown nodes {unknown}")
    kind = _need(tau_doc, "kind", f"{path}.tau")

    spec = MarketSpec(
        tree=tree,
        rates=_num_map(doc, "rates", path),
        price=_num_map(doc, "prices", path),
        dividend=_num_map(doc, "dividends", path),
        payoff=_num_map(doc, "payoffs", path),
        tau=tau,
        tau_kind=str(kind),
    )
    report = validate_market(spec)
    if not report.ok:
        details = "; ".join(
            f"{f.message}" + (f" ({', '.join(f.nodes)})" if f.nodes else "")
            for f in report.failures
        )
        raise MarketFileError(f"{path}: invalid market: {details}")

    actual = _parse_family(_need(doc, "actual", path), tree, f"{path}.actual")
    pricing = None
    if "pricing" in doc:
        pricing = _parse_family(doc["pricing"], tree, f"{path}.pricing")
    raw = _typed(doc.get("market_prices", {}), dict, f"{path}.market_prices", "an object")
    market_prices = {str(key): _num_map(raw, key, f"{path}.market_prices") for key in raw}
    for where, key, data in ((path, "rates", spec.rates), (path, "prices", spec.price),
                             (path, "dividends", spec.dividend),
                             *((f"{path}.market_prices", k, q) for k, q in market_prices.items())):
        unknown = sorted(n for n in data if n not in tree)
        if unknown:
            raise MarketFileError(f"{where}: {key}: unknown nodes {unknown}")
    unknown = sorted(k for k in market_prices
                     if k not in ("asset", "forward", "euro_call", "euro_put", "amer_call"))
    if unknown:
        raise MarketFileError(f"{path}.market_prices: unknown kinds {unknown}")
    return ParsedMarket(spec, actual, pricing, market_prices, path)
