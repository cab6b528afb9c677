"""Command-line front end: market-file ingestion, dispatch, report emission.

Market files are JSON documents describing the tree, market data, the
stopping structure, and the ambiguity families (see ``parse_market_file``).
Reports come in three shapes: a human-readable text summary, a
machine-readable JSON document (byte-stable for identical inputs), and a CSV
of per-node values for external plotting.

Exit codes: 0 success, 1 input or schema error, 2 arbitrage where a
no-arbitrage precondition was required, 3 no finite answer: a superhedge
cost unbounded below, or conditioning on a node no measure of an explicit
family charges.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .ambiguity import (
    CLASSIFY_TOL,
    BoxSets,
    ExplicitFamily,
    MeasureFamily,
    PolarNodeError,
    RectangularFamily,
    TransitionSet,
    _simplex_misses,
    classify_process,
    cond_expectation,
    validate_family,
)
from .bubble import analyze_bubble, bubble_processes, find_dominating_strategy
from .claims import (
    AssumptionViolationError,
    Claim,
    _check_maturity,
    _intrinsic,
    american_fundamental_price,
    fundamental_claim_price,
)
from .lattice import EventTree, InvalidMarketError, MarketSpec, NodeValues, StoppingTime
from .noarb import NotRiskNeutralError, UnboundedHedgeError, robust_price, superhedge, verify_ftap

CLAIM_ALIASES = {
    "forward": "forward",
    "ecall": "euro_call",
    "eput": "euro_put",
    "acall": "amer_call",
    "aput": "amer_put",
}


class MarketFileError(ValueError):
    """Schema or validation failure in a market file, with field context."""


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _rounded(obj: Any) -> Any:
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Mapping):
        return {str(k): _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_rounded(v) for v in items]
    return str(obj)


@dataclass
class ParsedMarket:
    spec: MarketSpec
    actual: MeasureFamily
    pricing: MeasureFamily | None
    market_prices: dict[str, dict[str, float]]
    path: str


def _need(doc: Mapping, key: str, where: str):
    if key not in doc:
        raise MarketFileError(f"{where}: missing required field {key!r}")
    return doc[key]


def _typed(value, kind: type, where: str, what: str):
    if not isinstance(value, kind):
        raise MarketFileError(f"{where} must be {what}")
    return value


def _number(value, where: str, key) -> float:
    """``value``, found at ``where[key]``, as a float if it is a finite number.
    The location is formatted only on failure: this runs once per value."""
    if type(value) not in (int, float):  # JSON numbers only; bool is not one
        raise MarketFileError(f"{where}[{key!r}] is not a number")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond float range
        pass
    raise MarketFileError(f"{where}[{key!r}] is not finite")


def _finite_kinds(values) -> set | None:
    """The value types when every value is a finite JSON number, else None.
    One C-level pass per test instead of a ``_number`` call per value; on
    None the caller reruns ``_number`` per value to name the first bad one."""
    kinds = set(map(type, values))
    if not kinds <= {int, float}:
        return None
    try:  # inf and NaN propagate through the sum; an overflowing one is refused too
        if math.isfinite(sum(values)):
            return kinds
    except OverflowError:  # an integer beyond float range
        pass
    return None


def _numbers(value, where: str) -> list[float]:
    items = _typed(value, list, where, "a list of numbers")
    kinds = _finite_kinds(items)
    if kinds is None:
        return [_number(v, where, i) for i, v in enumerate(items)]
    return items if int not in kinds else list(map(float, items))


def _number_map(raw: dict, where: str) -> dict[str, float]:
    """A JSON object of finite numbers, as floats (``raw`` itself when it
    holds floats only)."""
    kinds = _finite_kinds(raw.values())
    if kinds is None:
        return {str(nid): _number(v, where, nid) for nid, v in raw.items()}
    return raw if int not in kinds else {k: float(v) for k, v in raw.items()}


def _num_map(doc: Mapping, key: str, where: str) -> dict[str, float]:
    raw = _need(doc, key, where)
    if not isinstance(raw, dict):
        raise MarketFileError(f"{where}: field {key!r} must map node ids to numbers")
    return _number_map(raw, f"{where}: {key}")


def _box_transitions(raw: dict, tree: EventTree) -> BoxSets | None:
    """A family whose blocks are all boxes, checked at once: taken in level order, their
    bounds are a ``BoxSets`` map's arrays, and each test is one pass over them. None unless
    the blocks sit at exactly the non-leaf nodes and hold ``lower`` and ``upper`` lists of
    finite numbers that ``TransitionSet.problems`` accepts, with its sums (a leaf block,
    which it never checks, fails too); the per-node path then names the first problem."""
    inner = tree.level_starts[-2]  # the tree is valid: its nodes before the last level
    if len(raw) != inner or (g := tree.indices(raw)).min() < 0 or g.max() >= inner:
        return None
    blocks = list(map(list(raw.values()).__getitem__, g.argsort().tolist()))  # in level order
    vertices = map(operator.contains, blocks, itertools.repeat("vertices"))  # read if all are dicts
    if not set(map(type, blocks)) <= {dict} or any(vertices):
        return None
    los, his = (list(map(dict.get, blocks, itertools.repeat(key))) for key in ("lower", "upper"))
    if not set(map(type, los)) | set(map(type, his)) <= {list}:  # a missing bound: None
        return None
    arity = (tree.child_offsets[1 : inner + 1] - tree.child_offsets[:inner]).tolist()
    if list(map(len, los)) != arity or list(map(len, his)) != arity:
        return None
    lower, upper = (list(itertools.chain.from_iterable(b)) for b in (los, his))
    if _finite_kinds(lower) is None or _finite_kinds(upper) is None:
        return None
    bounds = np.empty((2, len(tree)))
    bounds[:, 0], bounds[:, 1:] = math.nan, (lower, upper)  # the root's: NaN
    lo, hi = bounds[:, 1:]
    if ((lo < 0) | (lo > hi)).any() or _simplex_misses(lo, hi, tree.parent_index[1:], inner).any():
        return None
    return BoxSets(tree, *bounds)


def _parse_family(doc, tree: EventTree, where: str) -> MeasureFamily:
    _typed(doc, dict, where, "an object")
    kind = _need(doc, "type", where)
    if kind == "rectangular":
        raw = _typed(
            _need(doc, "transitions", where), dict, f"{where}.transitions",
            "an object mapping node ids to transition blocks",
        )
        boxes = _box_transitions(raw, tree)
        if boxes is not None:  # checked: validate_family has nothing to add
            return RectangularFamily(tree, boxes)
        transitions: dict[str, TransitionSet] = {}
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
        family: MeasureFamily = RectangularFamily(tree, transitions)
    elif kind == "explicit":
        raw = _typed(_need(doc, "measures", where), list, f"{where}.measures", "a list")
        measures = []
        for i, q in enumerate(raw):
            at = f"{where}.measures[{i}]"
            _typed(q, dict, at, "an object mapping leaves to probabilities")
            measures.append(_number_map(q, at))
        family = ExplicitFamily(tree, tuple(measures))
    else:
        raise MarketFileError(f"{where}: unknown family type {kind!r}")
    problems = validate_family(family)
    if problems:
        raise MarketFileError(f"{where}: " + "; ".join(problems))
    return family


def _node_entries(nodes: list, path: str) -> tuple[dict[str, int], list, list]:
    """Each node id's index in the listing, and the parents and stated times (None where
    none) in listing order. Entries that all carry a unique string id, a string or null
    parent and an integer time within float range are read in one pass; anything else is
    read entry by entry, which names the first bad one."""
    try:
        ids, pars, times = (
            list(map(operator.itemgetter(key), nodes)) for key in ("id", "parent", "time")
        )
    except (KeyError, TypeError):  # an entry that is no object, or misses a field
        ids = None
    if ids and set(map(type, ids)) <= {str}:
        place = dict(zip(ids, range(len(ids))))
        if (len(place) == len(ids) and set(map(type, pars)) <= {str, type(None)}
                and _finite_kinds(times) == {int}):  # not bool, nor beyond float range
            return place, pars, times
    parents: dict[str, str | None] = {}
    stated_times: dict[str, int] = {}
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
    return {n: i for i, n in enumerate(parents)}, [*parents.values()], [*map(stated_times.get, parents)]


_WS, _SCAN = json.decoder.WHITESPACE.match, json.JSONDecoder().scan_once


def _value_after(text: str, key: str) -> int:
    """Where the value after the last ``key`` in ``text`` starts; -1 unless a colon follows
    that key (spaces apart). Whether the key is a top-level member's is the caller's check."""
    at = text.rfind(key)
    colon = _WS(text, at + len(key)).end()
    return _WS(text, colon + 1).end() if at >= 0 and text.startswith(":", colon) else -1


def _market_json(text: str):
    """``json.loads(text)``, with a ``pricing`` object whose text repeats ``actual``'s decoded
    once. The value after the last ``"actual"`` key is decoded; when the value after the last
    ``"pricing"`` key spells the same object, the text with both values cut out for a ``NaN``
    each is decoded in one pass (one key memo, as for the whole text), and both members get
    the one object. ``NaN`` goes to the decoder's ``parse_constant``, which counts it: the cut
    stands only when exactly those two constants were decoded and they are the top-level
    ``actual`` and ``pricing`` (last keys that sit elsewhere or repeat, or an escaped key,
    leave it). Else ``json.loads`` decodes the text and decides what it is."""
    p = _value_after(text, '"pricing"')
    a = _value_after(text, '"actual"') if p >= 0 else -1
    if a < 0:
        return json.loads(text)
    try:
        value, end = _SCAN(text, a)
        n, (i, j) = end - a, sorted((a, p))
        if type(value) is dict and text.startswith(text[a:end], p):  # spans that overlap do not decode
            marks = []  # what each NaN, Infinity and -Infinity decodes to: this list
            rest = json.JSONDecoder(parse_constant=lambda c: marks.append(c) or marks).decode(
                text[:i] + "NaN" + text[i + n : j] + "NaN" + text[j + n :])
            if len(marks) == 2 and type(rest) is dict and rest.get("actual") is rest.get("pricing") is marks:
                rest["actual"] = rest["pricing"] = value
                return rest
    except (ValueError, RecursionError, StopIteration):  # json.loads decides
        pass
    return json.loads(text)


def _load_json(path: str, where: str, decode=json.loads):
    try:
        with open(path) as fh:
            return decode(fh.read())
    except OSError as exc:
        raise MarketFileError(f"cannot read {where}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not JSON, not text, or nested too deep
        raise MarketFileError(f"{where}: not valid JSON: {exc}") from exc


def parse_market_file(path: str) -> ParsedMarket:
    """Load and fully validate a JSON market file.

    Required fields: horizon, nodes (list of {id, parent, time}; listing
    order fixes child order), rates, prices, dividends, tau
    ({nodes, kind}), payoffs, actual (a measure family). Optional: pricing,
    market_prices ({claim-kind: {node: price}}). A field of the wrong JSON
    type, a non-finite number, or a tau node or a number-map id that is not
    on the tree raises ``MarketFileError`` naming the field.

    Number lists and maps and whole box families are checked in one pass
    each; only when that pass fails are the values checked one by one, so
    the first bad one is named exactly as a per-value check names it. A
    ``pricing`` block whose text repeats ``actual``'s is decoded and parsed
    once (``_market_json``), and ``pricing`` is then ``actual``, the same
    object; any other is parsed on its own.
    """
    doc = _load_json(path, path, _market_json)
    _typed(doc, dict, path, "a JSON object")
    nodes = _typed(_need(doc, "nodes", path), list, f"{path}: field 'nodes'", "a list")
    place, parents, stated_times = _node_entries(nodes, path)
    try:
        tree = EventTree(parents, place)
    except ValueError as exc:
        raise MarketFileError(f"{path}: bad tree: {exc}") from exc
    starts = tree.level_starts  # each listed node's level, then the first mismatch in listing order
    levels = np.arange(len(starts) - 1).repeat(list(map(operator.sub, starts[1:], starts)))
    levels = levels[tree.listing_index].tolist()
    if stated_times != levels:
        for nid, t, depth in zip(place, stated_times, levels):
            if t is not None and t != depth:
                raise MarketFileError(f"{path}: node {nid!r} states time {t} but sits at depth {depth}")
    horizon = _need(doc, "horizon", path)
    if _number(horizon, path, "horizon") != int(horizon):
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

    maps = (_num_map(doc, key, path) for key in ("rates", "prices", "dividends", "payoffs"))
    spec = MarketSpec(tree, *maps, tau, str(kind))
    report = spec.validation
    if not report.ok:
        details = "; ".join(
            f"{f.message}" + (f" ({', '.join(f.nodes)})" if f.nodes else "")
            for f in report.failures
        )
        raise MarketFileError(f"{path}: invalid market: {details}")

    actual = _parse_family(_need(doc, "actual", path), tree, f"{path}.actual")
    pricing = None
    if "pricing" in doc:  # a block whose text repeats actual's is decoded once (_market_json)
        block = doc["pricing"]
        pricing = actual if block is doc["actual"] else _parse_family(block, tree, f"{path}.pricing")
    raw = _typed(doc.get("market_prices", {}), dict, f"{path}.market_prices", "an object")
    market_prices = {str(key): _num_map(raw, key, f"{path}.market_prices") for key in raw}
    # last, so that an input rejected before keeps its message; a valid market's prices and
    # dividends hold every node and its rates every inner one, so only a longer map has more
    inner = tree.level_starts[-2]
    for where, key, data, known in (
        (path, "rates", spec.rates, inner), (path, "prices", spec.price, len(tree)),
        (path, "dividends", spec.dividend, len(tree)),
        *((f"{path}.market_prices", key, quotes, 0) for key, quotes in market_prices.items()),
    ):
        if len(data) > known and (unknown := sorted(n for n in data if n not in tree)):
            raise MarketFileError(f"{where}: {key}: unknown nodes {unknown}")
    return ParsedMarket(spec, actual, pricing, market_prices, path)


def parse_payoff_file(path: str, tree: EventTree) -> dict[str, float]:
    """Load a ``hedge --payoff-file``: a JSON object mapping every leaf of
    ``tree`` to a finite number, checked as market-file number maps are.
    Anything else raises ``MarketFileError`` naming the file and field."""
    where = f"payoff file {path}"
    doc = _load_json(path, where)
    _typed(doc, dict, where, "a JSON object mapping node ids to numbers")
    payoff = _number_map(doc, where)
    unknown = sorted(n for n in payoff if n not in tree)
    if unknown:
        raise MarketFileError(f"{where}: unknown nodes {unknown}")
    inner = sorted(n for n in payoff if not tree.is_leaf(n))
    if inner:
        raise MarketFileError(f"{where}: payoffs sit at leaves, not at {inner}")
    missing = sorted(n for n in tree.leaves if n not in payoff)
    if missing:
        raise MarketFileError(f"{where}: payoff missing at leaves {missing}")
    return payoff


@dataclass
class Report:
    command: str
    inputs: dict[str, Any]
    verdicts: dict[str, Any] = field(default_factory=dict)
    processes: dict[str, Mapping[str, float]] = field(default_factory=dict)
    diagnostics: dict[str, Any] = field(default_factory=dict)
    exit_status: int = 0

    def as_dict(self) -> dict:
        return _rounded(vars(self))  # the fields, in their order


def _process_table(spec: MarketSpec, s_star, w_star, beta) -> dict[str, Mapping[str, float]]:
    """The market's processes and ``bubble_processes``' three, as the reports print them:
    ``NodeValues`` over the level-order arrays."""
    tree, p = spec.tree, spec.processes
    return {"S": NodeValues(tree, spec.arrays.price), "W": NodeValues(tree, p.W),
            "B": NodeValues(tree, p.B),
            "Sstar": s_star.values, "Wstar": w_star.values, "beta": beta.values}


def _claim(options: Mapping[str, Any], tree: EventTree, missing: str) -> Claim:
    """The claim of ``--claim``, ``--strike`` and ``--maturity`` (the horizon
    when not given); ``missing`` is the error when there is no ``--claim``."""
    if options.get("claim") is None:
        raise MarketFileError(missing)
    maturity = tree.horizon if options.get("maturity") is None else int(options["maturity"])
    return Claim(CLAIM_ALIASES[options["claim"]], maturity, float(options["strike"]))


def _payoff(spec: MarketSpec, options: Mapping[str, Any]) -> dict[str, float]:
    """The leaf payoff ``hedge`` superhedges: the ``--payoff-file``'s, else the
    claim's. A claim settling before the horizon is hedged as the path-wise
    constant payoff fixed at maturity: each leaf takes the value at its
    ancestor horizon - maturity steps up."""
    tree = spec.tree
    if options.get("payoff_file"):
        return parse_payoff_file(options["payoff_file"], tree)
    claim = _claim(options, tree, "hedge needs --claim or --payoff-file")
    _check_maturity(claim, tree.horizon)
    maturity = claim.maturity
    target = _intrinsic(spec, claim, maturity)
    anc = np.arange(tree.level_starts[-2], len(tree))  # the leaves, in preorder
    for _ in range(tree.horizon - maturity):
        anc = tree.parent_index[anc]
    return dict(zip(tree.leaves, target[anc - tree.level_starts[maturity]].tolist()))


# Each command is one function (report, parsed, pricing, tol, options) that reports it
# with a pricing family and returns ``bubble_processes``' three for the process table.

def _analyze(report, parsed, pricing, tol, options):
    spec, tree = parsed.spec, parsed.spec.tree
    rep = analyze_bubble(spec, pricing, parsed.actual, tol=tol)
    beta1 = dict(zip(tree.level(1), rep.beta.values.array[slice(*tree.level_starts[1:3])].tolist()))
    if beta1:
        report.diagnostics["inf E[beta_1]"] = cond_expectation(pricing, beta1, tree.root, "lower")
        report.diagnostics["sup E[beta_1]"] = cond_expectation(pricing, beta1, tree.root, "upper")
    report.verdicts["bubble_exists"] = rep.exists
    report.verdicts["bubble_class"] = rep.classification.bubble_class.strongest
    report.verdicts["price_class"] = rep.classification.price_class.strongest
    clauses = vars(rep.properties)  # nonneg_under_noarb, vanishes_at_tau, persistence
    report.verdicts["properties"] = {name: c.get("status") for name, c in clauses.items()}
    violated = {name: c for name, c in clauses.items() if c.get("status") == "violated"}
    report.verdicts["checks"] = "FAIL" if violated else "pass"
    for name, clause in violated.items():
        nodes = clause.get("nodes") or tuple(c[0] for c in clause.get("counterexamples", ()))
        report.diagnostics[f"{name}_nodes"] = sorted(nodes)
    report.diagnostics["beta_0"] = rep.beta[tree.root]
    report.diagnostics["tau_kind"] = spec.tau_kind
    return rep.S_star, rep.W_star, rep.beta


def _price(report, parsed, pricing, tol, options):
    spec, tree = parsed.spec, parsed.spec.tree
    claim = _claim(options, tree, "price needs --claim")
    if claim.kind in ("amer_call", "amer_put"):
        result = american_fundamental_price(spec, pricing, claim, parsed.actual)
        report.processes["claim_value"] = result.process.values
        report.diagnostics["exercise_region"] = sorted(result.exercise)
        value = result.process[tree.root]
    else:
        proc = fundamental_claim_price(spec, pricing, claim, parsed.actual)
        report.processes["claim_value"] = proc.values
        value = proc[tree.root]
    report.verdicts["value"] = value
    return bubble_processes(spec, pricing)


def _hedge(report, parsed, pricing, tol, options):
    spec = parsed.spec
    result = robust_price(spec, pricing, _payoff(spec, options), parsed.actual, tol=tol)
    report.verdicts["price"] = result.hedge.price
    report.verdicts["value"] = result.value
    report.verdicts["duality_gap"] = result.duality_gap
    report.processes["hedge_pi"] = result.hedge.strategy.pi
    report.processes["hedge_slack"] = result.hedge.slack
    return bubble_processes(spec, pricing)


def _classify(report, parsed, pricing, tol, options):
    spec, which = parsed.spec, options["process"]
    s_star, w_star, beta = bubble_processes(spec, pricing)
    named = {"S": spec.processes.stopped, "W": spec.processes.W, "Wstar": w_star, "beta": beta}
    if which not in named:
        raise MarketFileError(f"unknown process {which!r}")
    cls = classify_process(pricing, named[which], tol=tol)
    if which == "S":  # the classified stopped price; the table's S is the market price
        report.processes["S_stopped"] = NodeValues(spec.tree, spec.processes.stopped)
    report.verdicts.update({"class": cls.strongest, "martingale_gap": cls.martingale_gap,
                            "supermartingale_slack": cls.supermartingale_slack,
                            "infi_slack": cls.infi_slack})
    return s_star, w_star, beta


def _dominance(report, parsed, pricing, tol, options):
    spec = parsed.spec
    s_star, w_star, beta = bubble_processes(spec, pricing)
    pair = find_dominating_strategy(spec, pricing, parsed.actual, tol=tol,
                                    fundamental_root=s_star[spec.tree.root])
    if pair is None:
        report.verdicts["dominance"] = "none"
    else:
        report.verdicts["dominance"] = "FOUND"
        report.verdicts["hedge_cost"] = pair.hedge_cost
        report.verdicts["asset_cost"] = pair.asset_cost
        report.verdicts["min_gain_gap"] = pair.min_gap
        report.processes["hedge_pi"] = pair.hedge.strategy.pi
        report.processes["gain_gap"] = pair.gain_gap
    return s_star, w_star, beta


_COMMANDS = {"analyze": _analyze, "price": _price, "hedge": _hedge, "classify": _classify,
             "dominance": _dominance}


def run_analysis(command: str, parsed: ParsedMarket, options: Mapping[str, Any]) -> Report:
    """Run a subcommand over parsed inputs and assemble its report. The pricing
    family is the file's, else the one ``verify_ftap`` discovers; ``analyze``
    first reports the ``verify_ftap`` verdicts. With a family the report ends
    in the process table. Without one ``analyze`` reports the verdicts alone,
    ``hedge`` the primal superhedge price and the other commands an error
    verdict, and each exits 2."""
    if command not in _COMMANDS:
        raise MarketFileError(f"unknown command {command!r}")
    spec = parsed.spec
    report = Report(
        command=command,
        inputs={"file": parsed.path, **{k: v for k, v in options.items() if v is not None}},
    )
    tol = float(options.get("tolerance", CLASSIFY_TOL))
    pricing = parsed.pricing
    if command == "analyze" or pricing is None:
        rep = verify_ftap(spec, parsed.actual)
        pricing = rep.pricing_family if pricing is None else pricing
    if command == "analyze":
        report.verdicts["validation"] = "pass"
        report.verdicts["arbitrage"] = "FOUND" if rep.arbitrage else "none"
        report.verdicts["ftap_consistent"] = rep.consistent
        if rep.arbitrage:
            report.diagnostics["arbitrage_witness"] = rep.arbitrage.witness
            report.diagnostics["arbitrage_gain"] = rep.arbitrage.witness_gain
    if pricing is not None:
        fn = _COMMANDS[command]
        report.processes.update(_process_table(spec, *fn(report, parsed, pricing, tol, options)))
        return report
    if command == "analyze":
        report.verdicts["bubble"] = "unavailable (no pricing family)"
    elif command == "hedge":
        report.verdicts["price"] = superhedge(spec, _payoff(spec, options), parsed.actual).price
        report.verdicts["note"] = "no pricing family (arbitrage); primal hedge only"
    else:
        report.verdicts["error"] = "no pricing family available (arbitrage)"
    report.exit_status = 2
    return report


_json_key = json.encoder.encode_basestring_ascii


def _spellings(values: np.ndarray) -> np.ndarray:
    """The text ``json.dumps(_round12(x))`` of each value. When every value is
    0 or has 1e-300 < |x| < 1e11, each distinct one (-0.0 apart from 0.0) is
    formatted once as ``%.12g``, with ``.0`` where that has no point or
    exponent (beyond 1e12 ``%g`` takes an exponent where ``repr`` does not,
    and near subnormals the two round differently); else each value goes
    through ``json.dumps``."""
    size = np.abs(values)
    if not (size < 1e11).all() or (size[size > 0] <= 1e-300).any():  # NaN fails the first test
        return np.array([json.dumps(_round12(x)) for x in values.tolist()], object)
    bits, at = np.unique(values.view(np.int64), return_inverse=True)
    texts = list(map("%.12g".__mod__, bits.view(float).tolist()))
    integral = map(str.isdigit, map(str.lstrip, texts, itertools.repeat("-")))
    for i in itertools.compress(range(len(texts)), integral):
        texts[i] += ".0"
    return np.array(texts, object)[at]


def _column(proc, trees: dict) -> tuple[np.ndarray, np.ndarray] | None:
    """Each node id's line up to its value and the values, in sorted-id order, as arrays; None
    unless ``proc`` is a non-empty ``NodeValues``. Its tree's sorted-id permutation and lines
    are made once per tree in ``trees``."""
    if not isinstance(proc, NodeValues):
        return None
    if id(proc.tree) not in trees:
        ids = proc.tree.level_order
        perm = sorted(range(len(ids)), key=ids.__getitem__)
        lines = map("      %s: ".__mod__, map(_json_key, map(ids.__getitem__, perm)))
        trees[id(proc.tree)] = np.array(perm, np.intp), np.array(list(lines), object)
    perm, lines = trees[id(proc.tree)]
    return (lines[keep], proc.array[perm[keep]]) if (keep := proc.mask[perm]).any() else None


def _machine(report: Report) -> str:
    """``json.dumps(report.as_dict(), sort_keys=True, indent=2)`` plus a
    newline, byte for byte. When every process is a ``_column``, all values
    are spelled at once (``_spellings``) and the block goes in before the
    top-level ``"verdicts"`` key of the rest's one ``json.dumps``: a newline,
    two spaces and a quote meet nowhere else, as ``json.dumps`` escapes
    newlines in strings. Else it dumps the report."""
    processes, trees = report.processes, {}
    names = type(processes) is dict and set(map(type, processes)) <= {str} and sorted(processes)
    columns = [_column(processes[name], trees) for name in names or ()]
    if not columns or None in columns:
        return json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"
    texts = _spellings(np.concatenate([v for _, v in columns]))
    ends = itertools.accumulate(len(v) for _, v in columns)
    block = ",\n".join(
        f"    {_json_key(name)}: {{\n" + ",\n".join((lines + texts[e - len(lines) : e]).tolist())
        + "\n    }" for name, (lines, _), e in zip(names, columns, ends)
    )
    sections = {key: value for key, value in vars(report).items() if key != "processes"}
    rest = json.dumps(_rounded(sections), sort_keys=True, indent=2)
    head, verdicts, tail = rest.rpartition('\n  "verdicts": ')
    return f'{head}\n  "processes": {{\n{block}\n  }},{verdicts}{tail}\n'


CSV_COLUMNS = ("S", "Sstar", "beta", "W", "Wstar")


def emit_report(report: Report, fmt: str = "text", tree: EventTree | None = None) -> str:
    """Render a report. ``machine`` is JSON that round-trips; ``csv`` needs
    the tree to order rows by node."""
    if fmt == "machine":
        return _machine(report)
    if fmt == "csv":
        if tree is None:
            raise ValueError("csv emission needs the event tree")
        header = "node,time," + ",".join(CSV_COLUMNS)
        lines = [header]
        for n in tree.preorder():
            cells = [n, str(tree.time(n))]
            for col in CSV_COLUMNS:
                val = report.processes.get(col, {}).get(n)
                cells.append("" if val is None else f"{_round12(val):.12g}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")

    doc = report.as_dict()
    lines = [f"command: {doc['command']}"]
    for key, val in doc["inputs"].items():
        lines.append(f"  input {key} = {val}")
    for key, val in doc["verdicts"].items():
        if isinstance(val, dict):
            for k2, v2 in val.items():
                lines.append(f"{key}.{k2}: {_fmt_scalar(v2)}")
        else:
            lines.append(f"{key}: {_fmt_scalar(val)}")
    for key, val in doc["diagnostics"].items():
        lines.append(f"{key} = {_fmt_scalar(val)}")
    for name in sorted(doc["processes"]):
        proc = doc["processes"][name]
        body = ", ".join(f"{n}={_fmt_scalar(v)}" for n, v in sorted(proc.items()))
        lines.append(f"{name}: {body}")
    status = doc["exit_status"]
    lines.append(f"status: {'OK' if status == 0 else f'FAIL ({status})'}")
    return "\n".join(lines) + "\n"


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls, each returns a fresh namespace."""
    p = argparse.ArgumentParser(
        prog="bubbletree",
        description="Price assets and claims on finite event trees under model uncertainty.",
    )
    p.add_argument("--tolerance", type=float, default=CLASSIFY_TOL, help="classification tolerance")
    p.add_argument(
        "--format", choices=("text", "machine", "csv"), default="text", help="output format"
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("analyze", help="full bubble analysis of a market file")

    sp = sub.add_parser("price", help="fundamental price of a standard claim")
    sp.add_argument("--claim", required=True, choices=sorted(CLAIM_ALIASES))
    sp.add_argument("--strike", type=float, default=0.0)
    sp.add_argument("--maturity", type=int, help="defaults to the horizon")

    sp = sub.add_parser("hedge", help="superhedge a payoff and report the duality gap")
    # a leaf payoff: American claims, which may settle before the horizon, have none
    sp.add_argument("--claim", choices=("ecall", "eput", "forward"))
    sp.add_argument("--strike", type=float, default=0.0)
    sp.add_argument("--maturity", type=int)
    sp.add_argument("--payoff-file", dest="payoff_file", help="JSON {leaf: value}")

    sp = sub.add_parser("classify", help="martingale-type classification of a process")
    sp.add_argument("--process", required=True, choices=("S", "W", "Wstar", "beta"))

    sub.add_parser("dominance", help="search for a dominating strategy")
    for sp in sub.choices.values():  # every command reads one market file
        sp.add_argument("market")
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # a usage error exits 1, as other input errors do
        if exc.code != 2:  # -h
            raise
        return 1
    for flag, value in (("--tolerance", args.tolerance), ("--strike", getattr(args, "strike", None))):
        if value is not None and not (math.isfinite(value) and value >= 0):
            sys.stderr.write(f"error: {flag} must be a finite number >= 0, got {value}\n")
            return 1
    try:
        parsed = parse_market_file(args.market)
    except MarketFileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    options = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "market", "format") and v is not None
    }
    try:
        report = run_analysis(args.command, parsed, options)
    except NotRiskNeutralError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (UnboundedHedgeError, PolarNodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (MarketFileError, InvalidMarketError, AssumptionViolationError,
            ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stdout.write(emit_report(report, args.format, parsed.spec.tree))
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
