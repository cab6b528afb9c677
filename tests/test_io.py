"""Market-file parsing and machine-report writing against their references.

* The ``--format machine`` writer is compared byte for byte with
  ``json.dumps(report.as_dict(), sort_keys=True, indent=2)`` on random
  reports.
* ``parse_market_file`` is compared with the per-value parser in
  ``reference_io`` on valid market documents and on random corruptions of
  them: the same result, or a ``MarketFileError`` with the same text.
* The parser's decode of a market file's text, which decodes a ``pricing``
  block that repeats ``actual``'s once, is compared with ``json.loads`` on
  generated texts, broken ones included.
* ``EventTree`` is compared with ``reference_io.ReferenceTree`` accessor by
  accessor on random parent maps, broken ones included.

Hypothesis runs derandomized with a fixed number of examples, so the suite
is deterministic.
"""
import decimal
import functools
import json
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_io
from test_cli import _market_doc as market_doc

from bubbletree import ambiguity, fixtures, lattice
from bubbletree.ambiguity import (
    BoxSets,
    ExplicitFamily,
    RectangularFamily,
    TransitionSet,
    classify_process,
)
from bubbletree.cli import MarketFileError, Report, emit_report, parse_market_file
from bubbletree.lattice import EventTree, NodeValues, wealth_process

TREE_NUMPY_MIN_WIDTH = lattice._TREE_NUMPY_MIN_WIDTH
PROPERTY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


# -- the machine writer --------------------------------------------------------

def oracle(report: Report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"


EDGE_FLOATS = (
    0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.0000000001e-300,
    9.99999999999e-301, 1e-5, 1e-4, 0.99999999999995, 99999999999.99, 1e11, 1e11 - 0.5,
    999999999999.5, 999999999999.4, 1e12, 123456789012.5, 1e15, 1e16, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan,
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=1e11, max_value=1e16),
    st.integers(-(10**12), 10**12).map(float),
    st.sampled_from(EDGE_FLOATS),
)
node_ids = st.one_of(
    st.text(min_size=0, max_size=6),
    st.text(alphabet="r0123", min_size=1, max_size=6),
    st.sampled_from(("r", "r0", "r1", "é", "节点", "a\"b", "tab\t", "\\")),
)
scalars = st.one_of(floats, st.integers(-5, 5), st.booleans(), st.none(), node_ids)
process_values = st.one_of(
    floats, floats, floats, st.integers(-3, 10**20), st.booleans(), st.none(),
    st.frozensets(st.integers(0, 9), max_size=3), st.lists(floats, max_size=3),
)
float_maps = st.dictionaries(node_ids, floats, max_size=12)
mixed_maps = st.dictionaries(st.one_of(node_ids, st.integers(0, 3)), process_values, max_size=8)
processes = st.dictionaries(
    node_ids,
    st.one_of(float_maps, float_maps, float_maps, mixed_maps, st.just({}), process_values),
    max_size=6,
)
json_like = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(node_ids, inner, max_size=3),
        st.frozensets(st.integers(0, 9), max_size=3),
    ),
    max_leaves=8,
)
reports = st.builds(
    Report,
    command=st.sampled_from(("analyze", "price", "hedge", "classify", "dominance")),
    inputs=st.dictionaries(node_ids, json_like, max_size=4),
    verdicts=st.dictionaries(node_ids, json_like, max_size=4),
    processes=st.one_of(processes, processes, processes, st.just({})),
    diagnostics=st.dictionaries(node_ids, json_like, max_size=4),
    exit_status=st.integers(0, 3),
)


@settings(PROPERTY, max_examples=300)
@given(reports)
def test_machine_writer_matches_json_dumps(report):
    assert emit_report(report, "machine") == oracle(report)


@settings(PROPERTY, max_examples=200)
@given(st.dictionaries(node_ids, st.dictionaries(node_ids, floats, min_size=1, max_size=40),
                       min_size=1, max_size=4))
def test_machine_writer_matches_json_dumps_on_float_processes(procs):
    report = Report("analyze", {"file": "m.market"}, processes=procs)
    assert emit_report(report, "machine") == oracle(report)


SPELLING_BOUNDS = (0.0, -0.0, 1e-300, -1e-300, 1.0000000001e-300, 9.99999999999e-301, 5e-324,
                   1e11, -1e11, 1e11 - 0.5, 99999999999.99, 2.5, -2.5, 0.1, 1e-5)


@st.composite
def node_value_reports(draw):
    """Reports whose processes are ``NodeValues`` over one random tree (masks
    that leave some or every node out included) beside plain maps: values at
    ``_spellings``' bounds, -0.0, and now and then a non-finite one, which
    sends every value through ``json.dumps``."""
    n = draw(st.integers(1, 80))
    ids = draw(st.lists(node_ids, min_size=n, max_size=n, unique=True))
    tree = EventTree({ids[0]: None, **{ids[i]: ids[draw(st.integers(0, i - 1))] for i in range(1, n)}})
    values = st.one_of(st.sampled_from(SPELLING_BOUNDS), st.floats(-1e3, 1e3), st.sampled_from(
        (math.inf, math.nan)) if draw(st.integers(0, 4)) == 0 else st.nothing())
    processes = {}
    for name in draw(st.lists(node_ids, min_size=1, max_size=4, unique=True)):
        x = np.array(draw(st.lists(values, min_size=n, max_size=n)))
        mask = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n)))
        proc = NodeValues(tree, x, mask if mask is None else np.array(mask))
        processes[name] = dict(proc) if draw(st.integers(0, 3)) == 0 else proc
    return Report("analyze", {"file": "m.market"}, {"bubble_exists": True}, processes)


@settings(PROPERTY, max_examples=200)
@given(node_value_reports())
def test_machine_writer_matches_json_dumps_on_node_values(report):
    assert emit_report(report, "machine") == oracle(report)


def test_machine_writer_matches_json_dumps_on_cli_reports(tmp_path):
    from bubbletree.cli import run_analysis

    commands = (
        ("analyze", {}), ("price", {"claim": "aput", "strike": 1.0}),
        ("hedge", {"claim": "ecall", "strike": 0.9}), ("classify", {"process": "beta"}),
        ("dominance", {}),
    )
    markets = [(fixtures.rand_claim_market(seed, depth=3, branching=3, style="bumped"), "same")
               for seed in range(6)]
    # both sides of the width switches: fiat(7) (its pricing family discovered) has a
    # level of 128 nodes
    markets += [(fixtures.fiat(7), "absent"),
                (fixtures.rand_claim_market(0, depth=5, branching=4, style="bumped"), "same")]
    for seed, (fx, pricing) in enumerate(markets):
        path = tmp_path / f"m{seed}.market"
        path.write_text(json.dumps(market_doc(fx.spec, fx.family, pricing=pricing)))
        parsed = parse_market_file(str(path))
        for command, options in commands:
            report = run_analysis(command, parsed, {"tolerance": 1e-9, **options})
            assert emit_report(report, "machine", parsed.spec.tree) == oracle(report)


# -- the parser ------------------------------------------------------------------

def _typed_values(values) -> list:
    return [(type(v).__name__, v) for v in values]


def _family_summary(family):
    if family is None:
        return None
    if isinstance(family, RectangularFamily):
        return ("rect", {
            n: (ts.lower and _typed_values(ts.lower), ts.upper and _typed_values(ts.upper),
                ts.vertices and [_typed_values(v) for v in ts.vertices])
            for n, ts in family.transitions.items()
        })
    assert isinstance(family, ExplicitFamily)
    return ("explicit", [{k: (type(v).__name__, v) for k, v in q.items()} for q in family.measures])


def summary(parse, path: str):
    """What a parser returns for ``path``, with value types, or the type
    and text of what it raises."""
    try:
        m = parse(path)
    except Exception as exc:  # compared, not swallowed: both must match
        return ("raised", type(exc).__name__, str(exc))
    spec = m.spec
    return (
        "parsed", spec.tree.parent_map, spec.tree.preorder(),
        {k: (type(v).__name__, v) for k, v in spec.rates.items()},
        {k: (type(v).__name__, v) for k, v in spec.price.items()},
        {k: (type(v).__name__, v) for k, v in spec.dividend.items()},
        {k: (type(v).__name__, v) for k, v in spec.payoff.items()},
        spec.tau, spec.tau_kind,
        _family_summary(m.actual), _family_summary(m.pricing),
        {k: {n: (type(v).__name__, v) for n, v in q.items()} for k, q in m.market_prices.items()},
    )


def _sites(value, path=()):
    """Every (path, value) in a parsed JSON document."""
    yield path, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _sites(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _sites(v, path + (i,))


def _box_blocks(doc):
    for key in ("actual", "pricing"):
        fam = doc.get(key, {})
        for nid, block in fam.get("transitions", {}).items():
            if "lower" in block:
                yield key, nid, block


REPLACEMENTS = (True, False, "0.5", None, math.nan, math.inf, -math.inf, 10**400, -(10**400),
                [], {}, 0, 1, -0.0, -1.0, 2, 0.5)


def corrupt(doc, data) -> str:
    """Apply one drawn corruption to ``doc`` in place and describe it."""
    kind = data.draw(st.sampled_from(
        ("value", "value", "value", "box", "box", "delete", "pricing", "node", "horizon", "tau",
         "map")), "kind")
    if kind == "tau":
        tau, payoffs = doc["tau"], doc["payoffs"]
        how = data.draw(st.sampled_from(("nested", "root", "unknown", "kind", "bad-kind", "payoff")), "how")
        if how == "nested":  # a node and its parent
            entry = data.draw(st.sampled_from([e for e in doc["nodes"] if e["parent"] is not None]), "entry")
            tau["nodes"] += [entry["id"], entry["parent"]]
        elif how == "root":
            tau["nodes"].append(next(e["id"] for e in doc["nodes"] if e["parent"] is None))
        elif how == "unknown":
            tau["nodes"].append("nowhere")
        elif how == "kind":
            tau["kind"] = "possibly_infinite" if tau["kind"] == "bounded" else "bounded"
        elif how == "bad-kind":  # no kind of ``lattice.TAU_KINDS``
            tau["kind"] = data.draw(st.sampled_from(("sometimes", "", 1)), "tau kind")
        else:  # one payoff, or a new one, at a node that is no tau node
            off = data.draw(st.sampled_from([e["id"] for e in doc["nodes"] if e["id"] not in tau["nodes"]]),
                            "node")
            payoffs[off] = payoffs.pop(data.draw(st.sampled_from(sorted(payoffs)), "payoff")) if payoffs else 1.0
        return f"tau {how}"
    if kind == "map":  # a number map that is no object, or holds an id that is not on the tree
        maps = [(doc, key) for key in ("rates", "prices", "dividends", "payoffs")]
        maps += [(doc["market_prices"], key) for key in doc.get("market_prices", ())]
        where, key = data.draw(st.sampled_from(maps), "map")
        new = data.draw(st.sampled_from(([], [1.0], "0", None, 1.0, "extra id", "misspelt kind")),
                        "replacement")
        if new == "misspelt kind":  # a market_prices map moved to a kind no claim reads
            quotes = doc.setdefault("market_prices", {})
            old = data.draw(st.sampled_from(sorted(quotes)), "kind") if quotes else None
            quotes["ecall"] = quotes.pop(old) if old else {}
            return "market_prices kind ecall"
        where[key] = {**where[key], "nowhere": 0.5} if new == "extra id" else new
        return f"map {key} -> {where[key]!r}"
    if kind == "horizon":
        h = doc["horizon"]
        doc["horizon"] = data.draw(st.sampled_from(
            (True, False, str(h), None, [], h + 0.5, float(h), h + 1, 0, -1, math.nan, math.inf,
             10**400)), "horizon")
        return f"horizon -> {doc['horizon']!r}"
    if kind in ("box", "pricing"):
        blocks = list(_box_blocks(doc))
        if kind == "pricing":
            blocks = [b for b in blocks if b[0] == "pricing"]
        if blocks:
            where, nid, block = data.draw(st.sampled_from(blocks), "block")
            how = data.draw(st.sampled_from(
                ("negative", "crossed", "over", "under", "bool", "int", "negzero", "short",
                 "unknown-node")), "how")
            lo, hi = block["lower"], block["upper"]
            i = data.draw(st.integers(0, len(lo) - 1), "index")
            if how == "negative":
                lo[i] = -data.draw(st.sampled_from((1e-13, 1e-9, 0.25)), "size")
            elif how == "crossed":
                lo[i], hi[i] = hi[i] + 1e-12, lo[i]
            elif how == "over":
                lo[i] += 1.0 - sum(lo) + data.draw(st.sampled_from((0.0, 1e-13, 1e-11, 0.1)), "by")
            elif how == "under":
                hi[i] -= sum(hi) - 1.0 + data.draw(st.sampled_from((0.0, 1e-13, 1e-11, 0.1)), "by")
            elif how == "bool":
                (lo if data.draw(st.booleans(), "side") else hi)[i] = bool(round(lo[i]))
            elif how == "int":
                lo[i], hi[i] = int(lo[i] >= 0.5), 1
            elif how == "negzero":
                lo[i] = -0.0
            elif how == "unknown-node":  # the block moved to a node off the tree, in its place
                doc[where]["transitions"] = {
                    "nowhere" if k == nid else k: v for k, v in doc[where]["transitions"].items()}
            else:
                del hi[i]
            return f"{kind} {how} {where}[{nid}][{i}]"
    if kind == "node":
        entries = doc["nodes"]
        i = data.draw(st.integers(0, len(entries) - 1), "entry")
        how = data.draw(st.sampled_from(
            ("dup", "time", "float-time", "no-time", "int-id", "list-id", "parent")), "how")
        if how == "dup":
            entries[i]["id"] = entries[(i + 1) % len(entries)]["id"]
        elif how == "time":
            entries[i]["time"] += 1
        elif how == "float-time":
            entries[i]["time"] = float(entries[i]["time"]) + data.draw(st.sampled_from((0.0, 0.5)), "frac")
        elif how == "no-time":
            del entries[i]["time"]
        elif how == "int-id":
            entries[i]["id"] = 7
        elif how == "list-id":  # unhashable
            entries[i]["id"] = [entries[i]["id"]]
        else:
            entries[i]["parent"] = "nowhere"
        return f"node {how} {i}"
    sites = [(p, v) for p, v in _sites(doc) if p]
    if kind == "delete":
        path, _ = data.draw(st.sampled_from(sites), "site")
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        del parent[path[-1]]
        return f"delete {path}"
    numbers = [(p, v) for p, v in sites if type(v) in (int, float)]
    path, _ = data.draw(st.sampled_from(numbers), "site")
    new = data.draw(st.sampled_from(REPLACEMENTS), "replacement")
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = new
    return f"value {path} -> {new!r}"


def _write(path, doc) -> None:
    # json spells inf "Infinity"; a market file may spell it 1e400
    path.write_text(json.dumps(doc).replace("Infinity", "1e400"))


def _fixture(seed: int):
    gen = fixtures.rand_claim_market if seed % 2 else fixtures.rand_market
    style = ("neutral", "bumped", "free")[seed % 3]
    return gen(seed, depth=2 + seed % 2, branching=2 + seed % 3, style=style)


@settings(PROPERTY, max_examples=400)
@given(st.data())
def test_parser_matches_per_value_reference_on_corruptions(tmp_path_factory, data):
    _parse_corruption(tmp_path_factory, data)


@pytest.mark.parametrize("width", [0, math.inf], ids=["numpy", "lists"])
@settings(PROPERTY, max_examples=250)
@given(data=st.data())
def test_parser_matches_per_value_reference_on_corruptions_at_both_widths(
        tmp_path_factory, monkeypatch, width, data):
    """The same property with the tree built on numpy (width 0) or on lists (width
    infinite): the fixtures' trees are all narrow, so by default only the list build runs."""
    monkeypatch.setattr(lattice, "_TREE_NUMPY_MIN_WIDTH", width)
    _parse_corruption(tmp_path_factory, data)


def _parse_corruption(tmp_path_factory, data) -> None:
    seed = data.draw(st.integers(0, 40), "seed")
    shape = data.draw(st.sampled_from(
        ("same", "same", "reordered", "absent", "vertices", "explicit", "quotes")), "shape")
    fx = _fixture(seed)
    doc = market_doc(
        fx.spec, fx.family,
        pricing="absent" if shape == "absent" else "reordered" if shape == "reordered" else "same",
        vertices=shape == "vertices", explicit=shape == "explicit", quotes=shape == "quotes",
    )
    what = corrupt(doc, data)
    path = tmp_path_factory.mktemp("corrupt") / "m.market"
    _write(path, doc)
    expected = summary(reference_io.parse_market_file, str(path))
    assert summary(parse_market_file, str(path)) == expected, what


@pytest.mark.parametrize("make", [lambda: fixtures.fiat(8), lambda: fixtures.rand_market(1, depth=4, branching=3)],
                         ids=["fiat8", "rand38"])
def test_parse_builds_no_per_node_map_and_the_fixture_processes(tmp_path, make):
    """A parse and the processes run on the tree's level-order arrays: neither builds a per-node
    map of the tree, and the processes equal those of the fixture's dict-built spec bit for bit
    (-0.0 included), on a wide tree (fiat(8), 511 nodes) and a narrow one (38 nodes)."""
    fx = make()
    path = tmp_path / "m.market"
    _write(path, market_doc(fx.spec, fx.family))
    spec = parse_market_file(str(path)).spec
    per_node = {"_parent", "_time", "_preorder", "_children", "leaves", "_non_leaves"}
    assert not per_node & set(vars(spec.tree))
    assert spec.tree.level_order == fx.spec.tree.level_order
    for got, want in zip(spec.processes, fx.spec.processes, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert not per_node & set(vars(spec.tree))


@pytest.mark.parametrize("gen", ["rand_market", "rand_claim_market"])
def test_valid_docs_parse_to_equal_specs_and_families(tmp_path, gen):
    for seed in range(40):
        fx = getattr(fixtures, gen)(seed, depth=2 + seed % 3, branching=2 + seed % 3,
                                    style=("neutral", "bumped", "free")[seed % 3])
        shape = ("same", "reordered", "absent", "vertices")[seed % 4]
        doc = market_doc(fx.spec, fx.family, pricing="absent" if shape == "absent" else
                         "reordered" if shape == "reordered" else "same",
                         vertices=shape == "vertices")
        path = tmp_path / f"{gen}-{seed}.market"
        _write(path, doc)
        parsed = parse_market_file(str(path))
        assert summary(parse_market_file, str(path)) == summary(reference_io.parse_market_file,
                                                                  str(path))
        spec = parsed.spec
        assert spec.tree == fx.spec.tree
        assert (spec.rates, spec.price, spec.dividend, spec.payoff) == (
            fx.spec.rates, fx.spec.price, fx.spec.dividend, fx.spec.payoff)
        assert (spec.tau, spec.tau_kind) == (fx.spec.tau, fx.spec.tau_kind)
        assert spec.validation == fx.spec.validation
        if shape != "vertices":
            assert parsed.actual == fx.family
        if shape in ("same", "reordered"):
            assert parsed.pricing == fx.family
        else:
            assert (parsed.pricing is None) == (shape == "absent")
        assert (parsed.pricing is parsed.actual) == (shape in ("same", "vertices"))


def test_equal_pricing_block_is_parsed_once(tmp_path, monkeypatch, capsys):
    """A ``pricing`` block whose text repeats ``actual``'s, after it or before it
    (``"first"``), is decoded to the same object and parsed once, as the twin. An equal one
    spelled otherwise (its nodes in reverse) is parsed on its own, to an equal family, and
    all three print the same reports."""
    import bubbletree.cli as cli

    fx = fixtures.rand_claim_market(3, depth=3, branching=3, style="bumped")
    calls = []
    original = cli._parse_family
    monkeypatch.setattr(cli, "_parse_family", lambda doc, *a: calls.append(a[1]) or original(doc, *a))
    root, reports = fx.spec.tree.root, {}
    for shape in ("same", "first", "reordered", "other"):  # node order is no part of a family
        calls.clear()
        doc = market_doc(fx.spec, fx.family, pricing="reordered" if shape == "reordered" else "same")
        if shape == "first":
            doc = {"pricing": doc.pop("pricing"), **doc}
        if shape == "other":
            doc["pricing"]["transitions"][root]["lower"] = [0.0] * len(fx.spec.tree.children(root))
        path = tmp_path / "m.market"  # one path: the reports name the same file
        _write(path, doc)
        parsed = cli.parse_market_file(str(path))
        assert len(calls) == (2 if shape in ("reordered", "other") else 1), shape
        assert (parsed.pricing is parsed.actual) == (shape in ("same", "first")), shape
        assert (parsed.pricing == parsed.actual) == (shape != "other"), shape
        for argv in (["analyze"], ["classify", "--process", "beta"]):
            rc = cli.main(["--format", "machine", *argv, str(path)])
            reports.setdefault(shape, []).append((rc, *capsys.readouterr()))
    assert reports["same"] == reports["first"] == reports["reordered"]


def test_parsed_family_and_its_pricing_twin_build_the_box_arrays_once(tmp_path, monkeypatch,
                                                                       step_calls):
    fx = fixtures.rand_claim_market(3, depth=3, branching=3, style="bumped")
    path = tmp_path / "m.market"
    _write(path, market_doc(fx.spec, fx.family))
    step_calls["maximize"].clear()  # the fixture's own pricing
    calls = []
    original = ambiguity._pad
    monkeypatch.setattr(ambiguity, "_pad", lambda boxes: calls.append(boxes) or original(boxes))
    monkeypatch.setattr(ambiguity, "_KERNEL_MIN_WIDTH", 0)  # every step reads the boxes
    parsed = parse_market_file(str(path))
    boxes = parsed.actual.transitions
    assert isinstance(boxes, BoxSets) and parsed.pricing.transitions is boxes
    for fam in (parsed.actual, parsed.pricing):
        assert fam.charged
        classify_process(fam, dict(wealth_process(parsed.spec).values.items()))
        assert fam.boxes is boxes
    # each classification is one box step per bound over the inner nodes, on the shared rows
    end = fx.spec.tree.level_starts[-2]
    assert step_calls["box"] == [(boxes.pad, 0, end)] * 4 and step_calls["maximize"] == []
    assert calls == [boxes]  # the whole tree's rows, once


def test_explicit_pricing_twin_computes_the_node_masses_once(tmp_path, monkeypatch):
    """A ``pricing`` block equal to an explicit ``actual`` one is the same
    family object, so ``node_mass`` is computed once for the two, through a
    whole ``analyze``."""
    from bubbletree.cli import run_analysis

    fx = fixtures.rand_claim_market(3, depth=3, branching=3, style="bumped")
    path = tmp_path / "m.market"
    _write(path, market_doc(fx.spec, fx.family, explicit=True))
    calls, prop = [], ExplicitFamily.__dict__["node_mass"]
    monkeypatch.setattr(prop, "func", lambda fam, f=prop.func: calls.append(fam) or f(fam))
    parsed = parse_market_file(str(path))
    assert isinstance(parsed.pricing, ExplicitFamily)
    assert parsed.pricing is parsed.actual
    assert parsed.pricing.node_mass is parsed.actual.node_mass
    assert parsed.pricing.charged_mask is parsed.actual.charged_mask
    run_analysis("analyze", parsed, {"tolerance": 1e-9})
    assert len(calls) == 1 and calls[0] is parsed.actual


def test_box_checks_add_each_row_left_to_right_in_batch_and_per_node():
    """The parser's batch box check and ``TransitionSet.problems`` share one summation, left to
    right from 0.0: this lower row, added so, exceeds 1 + 1e-12 while its exact sum (what the
    compensated builtin ``sum`` of Python 3.12 on returns) does not, and both refuse the box."""
    from bubbletree.cli import _box_transitions

    lower = [0.15202121058356766, 0.3008587160937433, 0.20720393998174147, 0.19279421660953863,
             0.14712191673240907]
    assert math.fsum(lower) <= 1.0 + 1e-12 < functools.reduce(operator.add, lower, 0.0)
    tree = EventTree.uniform([5])
    assert TransitionSet.box(lower, [1.0] * 5).problems(5) == [
        "box does not intersect the probability simplex"]
    assert _box_transitions({"r": {"lower": lower, "upper": [1.0] * 5}}, tree) is None
    assert _box_transitions({"r": {"lower": [0.2] * 5, "upper": [1.0] * 5}}, tree) is not None
    assert TransitionSet.box([0.2] * 5, [1.0] * 5).problems(5) == []


def test_bool_in_equal_pricing_block_is_still_rejected(tmp_path):
    fx = fixtures.fiat(2)
    doc = market_doc(fx.spec, fx.family)
    doc["pricing"]["transitions"]["r"]["upper"] = [True, 1.0]  # == [1.0, 1.0]
    assert doc["pricing"] == doc["actual"]
    path = tmp_path / "bool.market"
    _write(path, doc)
    with pytest.raises(MarketFileError, match=r"pricing\.transitions\['r'\]\.upper\[0\] is not a number"):
        parse_market_file(str(path))


@functools.cache
def _doc_without_pricing(seed: int) -> dict:
    fx = _fixture(seed)
    return market_doc(fx.spec, fx.family, pricing="absent")


def _respelled(text: str) -> str:
    """``text`` with its first float spelled in exponent form (``0.5``: ``5e-1``), the same
    number."""
    match = re.search(r"-?\d+\.\d+(?:[eE][-+]?\d+)?", text)
    return text if match is None else (
        text[:match.start()] + format(decimal.Decimal(match.group()), "e") + text[match.end():])


@st.composite
def market_texts(draw):
    """A market file's text built member by member, whether ``pricing`` should be decoded as
    ``actual``'s object, and whether the text is valid JSON. Separators and indentation vary;
    ``pricing`` repeats ``actual``'s text, or is equal to it spelled otherwise (nodes in
    reverse, one float respelled), or differs, or is absent; it may come first or be spelled
    with an escape, an ``actual`` or ``pricing`` member may repeat, both blocks may hold a
    ``true`` and another member a ``NaN``. A broken text is truncated, has trailing data or a
    BOM, or nests ``[`` deeply in ``pricing``."""
    doc = dict(_doc_without_pricing(draw(st.integers(0, 40), "seed")))
    indent = draw(st.sampled_from((None, 0, 2)), "indent")
    item, colon = draw(st.sampled_from(((",", ":"), (", ", ": "), (",\n ", " : "))), "separators")
    dump = functools.partial(json.dumps, indent=indent, separators=(item, colon))
    actual = doc.pop("actual")
    if draw(st.booleans(), "true"):
        actual = {**actual, "note": True}
    text_a = dump(actual)
    reordered = {**actual, "transitions": dict(reversed(actual["transitions"].items()))}
    others = (text_a, dump(reordered), _respelled(text_a), dump({**actual, "note": 1}),
              dump({**actual, "type": "none"}), "{}", "[]")
    members = [(json.dumps(k), dump(v)) for k, v in doc.items()] + [('"actual"', text_a)]
    how = draw(st.sampled_from(("same", "same", "same", "other", "absent")), "pricing")
    if how != "absent":
        key = draw(st.sampled_from(('"pricing"', '"pricing"', '"pr\\u0069cing"')), "key")
        text_p = text_a if how == "same" else draw(st.sampled_from(others[1:]), "value")
        members.insert(draw(st.integers(0, len(members)), "at"), (key, text_p))
    if draw(st.integers(0, 3), "duplicate") == 0:
        key = draw(st.sampled_from(('"actual"', '"pricing"')), "duplicate key")
        members.insert(draw(st.integers(0, len(members)), "at"), (key, draw(st.sampled_from(others))))
    if draw(st.integers(0, 5), "constant") == 0:
        members.insert(draw(st.integers(0, len(members)), "at"), ('"note"', "NaN"))
    last = {json.loads(k): (k, v) for k, v in members}  # the final key spelling and value text
    key_p, text_p = last.get("pricing", (None, None))
    twin = key_p == '"pricing"' and text_p == last["actual"][1] and text_p[0] == "{" and "note" not in last
    pad = draw(st.sampled_from(("", " ", "\n")), "pad")
    text = "{" + pad + item.join(k + colon + v for k, v in members) + pad + "}"
    broken = draw(st.sampled_from((None,) * 6 + ("truncated", "trailing", "bom", "deep")), "broken")
    if broken == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1), "at")]
    elif broken == "trailing":
        text += draw(st.sampled_from((" x", "{}", ",", " 1", "\n}")), "tail")
    elif broken == "bom":
        text = "\ufeff" + text
    elif broken == "deep":
        text = text[:-1] + item + '"pricing"' + colon + "[" * 100_000 + "]" * 100_000 + "}"
    return text, twin, broken is None


@settings(PROPERTY, max_examples=150)
@given(market_texts())
@example(('{"actual": [1], "pricing": [1]}', False, True))
def test_market_text_decodes_as_json_loads_does(tmp_path_factory, case):
    """The parser's decode (``cli._market_json``) equals ``json.loads``, down to key order and
    the text of what it raises. ``pricing`` is ``actual``'s very object exactly when the final
    members' texts spell one object, the final ``pricing`` key is the last ``"pricing"`` in the
    text (no escape) and no other ``NaN`` or ``Infinity`` is in it; else ``json.loads``
    decodes. The parse result or ``MarketFileError`` text is what the per-value reference
    parser gives, for text that is no JSON too."""
    import bubbletree.cli as cli

    text, twin, valid = case
    try:
        want = json.loads(text)
    except (ValueError, RecursionError) as exc:
        want = (type(exc), str(exc))
    try:
        got = cli._market_json(text)
    except (ValueError, RecursionError) as exc:
        got = (type(exc), str(exc))
    assert got == want and list(got) == list(want)
    assert isinstance(got, dict) == valid
    if valid:
        assert (got.get("pricing") is got["actual"]) == twin
    path = tmp_path_factory.mktemp("decode") / "m.market"
    path.write_text(text)
    assert summary(parse_market_file, str(path)) == summary(reference_io.parse_market_file, str(path))


# -- the event tree ----------------------------------------------------------------

@st.composite
def parent_maps(draw):
    """Parent maps of up to 40 nodes, or of wide trees: a root with at least
    ``lattice._TREE_NUMPY_MIN_WIDTH`` children and up to 160 nodes, whose levels
    average over that width or under it, so that ``EventTree`` builds either one
    on numpy arrays or on lists. Listed in a random order; some have a flaw."""
    width = TREE_NUMPY_MIN_WIDTH
    wide = draw(st.booleans())
    n = draw(st.integers(width + 1, 160) if wide else st.integers(1, 40))
    ids = draw(st.lists(st.text(alphabet="abcxyz01", min_size=1, max_size=4),
                        min_size=n, max_size=n, unique=True))
    parents = {ids[0]: None}
    for i in range(1, n):
        parents[ids[i]] = ids[0 if wide and i <= width else draw(st.integers(0, i - 1))]
    order = draw(st.permutations(ids))
    parents = {k: parents[k] for k in order}
    flaw = draw(st.sampled_from((None, None, None, "unknown", "roots", "cycle", "empty")))
    if flaw == "unknown":
        parents[draw(st.sampled_from(ids))] = "nowhere"
    elif flaw == "roots" and n > 1:
        parents[draw(st.sampled_from(ids[1:]))] = None
    elif flaw == "cycle" and n > 2:
        a, b = draw(st.sampled_from(ids[1:])), draw(st.sampled_from(ids[1:]))
        parents[a], parents[b] = b, a
    elif flaw == "empty":
        parents = {}
    return parents


def _tree_view(make, parents):
    try:
        tree = make(parents)
    except ValueError as exc:
        return ("raised", str(exc))
    nodes = tree.preorder()
    return (
        tree.root, tree.leaves, tree.horizon, nodes, tree.non_leaves(), len(tree),
        tree.parent_map, [tree.level(t) for t in range(tree.horizon + 2)],
        [(tree.time(n), tree.parent(n), tree.children(n), tree.is_leaf(n),
          tree.level(tree.time(n)).index(n), tree.path(n), tuple(tree.subtree(n))) for n in nodes],
    )


@settings(PROPERTY, max_examples=200)
@given(parent_maps())
def test_event_tree_matches_node_record_reference(parents):
    assert _tree_view(EventTree, parents) == _tree_view(reference_io.ReferenceTree, parents)


@pytest.mark.parametrize("width", [0, math.inf], ids=["numpy", "lists"])
@settings(PROPERTY, max_examples=100)
@given(parents=parent_maps())
def test_event_tree_builds_equal_on_numpy_and_on_lists(monkeypatch, width, parents):
    """Each build path on every parent map, whatever the width switch picks."""
    monkeypatch.setattr(lattice, "_TREE_NUMPY_MIN_WIDTH", width)
    view = _tree_view(EventTree, parents)
    assert view == _tree_view(reference_io.ReferenceTree, parents)
    if view[0] != "raised":  # node ids are never that word
        tree, ref = EventTree(parents), reference_io.ReferenceTree(parents)
        assert tree.subtree_size.tolist() == [len(tuple(ref.subtree(n))) for n in tree.level_order]
