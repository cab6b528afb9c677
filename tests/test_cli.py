import functools
import json
from collections import Counter

import pytest

import per_node
from conftest import data_file

from bubbletree import fixtures
from bubbletree.cli import (
    MarketFileError,
    Report,
    emit_report,
    main,
    parse_market_file,
    run_analysis,
)
from bubbletree.lattice import NodeValues


# -- parsing ------------------------------------------------------------------

def test_ex1_market_file_round_trips_to_fixture():
    parsed = parse_market_file(data_file("ex1.market"))
    fx = fixtures.ex1()
    assert parsed.spec.tree == fx.spec.tree
    assert parsed.spec.price == fx.spec.price
    assert parsed.spec.rates == fx.spec.rates
    assert parsed.spec.payoff == fx.spec.payoff
    assert parsed.spec.tau == fx.spec.tau
    assert parsed.spec.tau_kind == fx.spec.tau_kind
    assert parsed.actual.transitions["r"].lower == fx.family.transitions["r"].lower
    assert parsed.pricing is not None


def test_missing_price_names_the_node(tmp_path):
    doc = json.loads(open(data_file("ex1.market")).read())
    del doc["prices"]["r0"]
    path = tmp_path / "broken.market"
    path.write_text(json.dumps(doc))
    with pytest.raises(MarketFileError, match="r0"):
        parse_market_file(str(path))


def test_rectangular_lower_above_upper_rejected(tmp_path):
    doc = json.loads(open(data_file("ex1.market")).read())
    doc["actual"]["transitions"]["r"] = {"lower": [0.5, 0.6], "upper": [0.4, 0.8]}
    path = tmp_path / "broken.market"
    path.write_text(json.dumps(doc))
    with pytest.raises(MarketFileError, match="lower bound above upper"):
        parse_market_file(str(path))


def test_stated_time_mismatch_rejected(tmp_path):
    doc = json.loads(open(data_file("ex1.market")).read())
    doc["nodes"][1]["time"] = 2
    path = tmp_path / "broken.market"
    path.write_text(json.dumps(doc))
    with pytest.raises(MarketFileError, match="time"):
        parse_market_file(str(path))


def _set(doc, keys, value):
    for k in keys[:-1]:
        doc = doc[k]
    doc[keys[-1]] = value


@pytest.mark.parametrize(
    "keys, value, context",
    [
        (("prices", "r0"), float("nan"), "prices['r0'] is not finite"),
        (("rates", "r"), float("inf"), "rates['r'] is not finite"),
        (("actual", "transitions"), [{"lower": [0.2, 0.6], "upper": [0.4, 0.8]}],
         "actual.transitions must be an object"),
        (("nodes", 1), "r0", "nodes[1] must be an object"),
        (("market_prices",), {"ecall": {"r": "cheap"}}, "market_prices: ecall['r'] is not a number"),
        (("actual",), {"type": "explicit", "measures": [{"r00": "half", "r10": 0.5}]},
         "actual.measures[0]['r00'] is not a number"),
        (("tau", "nodes"), ["r00", "r2"], "tau.nodes: unknown nodes ['r2']"),
    ],
    ids=["nan-price", "inf-rate", "transitions-list", "node-entry-not-object",
         "market-price-not-number", "measure-probability-not-number", "unknown-tau-node"],
)
def test_malformed_field_exits_1_with_context(tmp_path, capsys, keys, value, context):
    doc = json.loads(open(data_file("ex1.market")).read())
    _set(doc, keys, value)
    path = tmp_path / "broken.market"
    path.write_text(json.dumps(doc))
    rc = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert context in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "horizon, context",
    [(True, "['horizon'] is not a number"), ("1", "['horizon'] is not a number"),
     (1.5, "['horizon'] is not an integer"), (float("inf"), "['horizon'] is not finite")],
    ids=["bool", "string", "fraction", "inf"],
)
def test_horizon_must_be_an_integral_json_number(tmp_path, capsys, horizon, context):
    doc = json.loads(open(data_file("ex1geom.market")).read())  # depth 1: true == 1
    doc["horizon"] = horizon
    path = tmp_path / "broken.market"
    path.write_text(json.dumps(doc))
    rc = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"{path}{context}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "content", [b"\xff\xfe not text", b"[" * 100_000 + b"]" * 100_000,
                b'{"actual": {}, "pricing": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"],
    ids=["binary", "deep", "deep-pricing"],
)
def test_undecodable_market_file_exits_1(tmp_path, capsys, content):
    """Exit 1 with the error the per-value reference parser raises."""
    import reference_io

    path = tmp_path / "bad.market"
    path.write_bytes(content)
    rc = main(["analyze", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"{path}: not valid JSON" in captured.err
    with pytest.raises(MarketFileError) as want:
        reference_io.parse_market_file(str(path))
    assert captured.err == f"error: {want.value}\n"


def test_unreadable_file_is_schema_error():
    with pytest.raises(MarketFileError, match="cannot read"):
        parse_market_file("does-not-exist.market")


# -- reports ------------------------------------------------------------------

def test_analyze_report_contents():
    parsed = parse_market_file(data_file("ex1.market"))
    report = run_analysis("analyze", parsed, {"tolerance": 1e-9})
    text = emit_report(report, "text", parsed.spec.tree)
    assert "arbitrage: FOUND" in text
    assert "-0.3" in text  # root lower expectation of the one-step bubble
    assert report.exit_status == 0


def test_price_command_value():
    parsed = parse_market_file(data_file("ex1geom.market"))
    report = run_analysis(
        "price", parsed, {"claim": "ecall", "strike": 1.0, "maturity": 1}
    )
    assert report.verdicts["value"] == pytest.approx(0.2, abs=1e-12)


def test_hedge_constant_payoff(tmp_path):
    payoff = tmp_path / "payoff.json"
    payoff.write_text(json.dumps({"r0": 3.0, "r1": 3.0}))
    parsed = parse_market_file(data_file("ex1geom.market"))
    report = run_analysis("hedge", parsed, {"payoff_file": str(payoff)})
    assert report.verdicts["price"] == pytest.approx(3.0, abs=1e-9)
    assert report.verdicts["duality_gap"] <= 1e-9


def test_hedge_on_the_discovered_family_has_no_duality_gap(capsys):
    # the hedge and the upper expectation step through the same cut arrays
    argv = ["--format", "machine", "hedge", "--claim", "ecall", "--strike", "0.9"]
    assert main([*argv, data_file("branch3-discovered.market")]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts["duality_gap"] == 0.0
    assert verdicts["price"] == verdicts["value"]


def test_classify_command():
    parsed = parse_market_file(data_file("ex1geom.market"))
    report = run_analysis("classify", parsed, {"process": "W"})
    assert report.verdicts["class"] == "G_supermartingale"


def test_classify_s_reports_the_stopped_price_it_classifies(capsys):
    # on ex1 the asset matures at r00 and r10: the market price there is 0.0,
    # the stopped price (payoff / B) is 1.0
    parsed = parse_market_file(data_file("ex1.market"))
    report = run_analysis("classify", parsed, {"process": "S"})
    assert report.processes["S_stopped"] == NodeValues(parsed.spec.tree, parsed.spec.processes.stopped)
    assert report.processes["S_stopped"]["r00"] == 1.0 and report.processes["S"]["r00"] == 0.0
    for which in ("W", "Wstar", "beta"):
        assert "S_stopped" not in run_analysis("classify", parsed, {"process": which}).processes
    assert main(["--format", "machine", "classify", "--process", "S", data_file("ex1.market")]) == 0
    assert json.loads(capsys.readouterr().out)["processes"]["S_stopped"]["r10"] == 1.0


def test_dominance_command_none():
    parsed = parse_market_file(data_file("ex1geom.market"))
    report = run_analysis("dominance", parsed, {})
    # the whole residual price is bubble here, and the hedge costs nothing
    assert report.verdicts["dominance"] == "FOUND"
    assert report.verdicts["hedge_cost"] == pytest.approx(0.0, abs=1e-9)


def test_csv_header_and_rows():
    parsed = parse_market_file(data_file("ex1.market"))
    report = run_analysis("analyze", parsed, {})
    csv = emit_report(report, "csv", parsed.spec.tree)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("node,time,S,Sstar,beta")
    assert lines[1].startswith("r,0,1,")
    assert len(lines) == 1 + len(parsed.spec.tree.preorder())


def test_machine_report_round_trip():
    parsed = parse_market_file(data_file("ex1.market"))
    report = run_analysis("analyze", parsed, {})
    blob = emit_report(report, "machine")
    doc = json.loads(blob)
    rebuilt = Report(**doc)
    assert rebuilt.as_dict() == report.as_dict()
    assert emit_report(rebuilt, "machine") == blob


def test_machine_output_byte_identical(capsys):
    rc1 = main(["--format", "machine", "analyze", data_file("ex1.market")])
    out1 = capsys.readouterr().out
    rc2 = main(["--format", "machine", "analyze", data_file("ex1.market")])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_machine_output_byte_identical_across_processes():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    cmd = [sys.executable, "-m", "bubbletree.cli", "--format", "machine",
           "analyze", data_file("ex1.market")]
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_price_maturity_defaults_to_horizon(capsys):
    rc = main(["price", "--claim", "ecall", "--strike", "1",
               data_file("ex1geom.market")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "value: 0.2" in out


def test_parser_keeps_no_values_between_calls(tmp_path, capsys):
    from bubbletree.cli import _parser

    path = tmp_path / "fiat.market"
    path.write_text(json.dumps(discovered_fiat_doc()))
    plain = ["price", "--claim", "ecall", "--strike", "1", str(path)]

    def machine(argv):
        assert main(["--format", "machine", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    first = machine(plain)
    other = machine(["--tolerance", "0.001", "price", "--claim", "aput", "--strike", "2",
                     "--maturity", "1", str(path)])
    again = machine(plain)
    assert "maturity" not in first["inputs"] and other["inputs"]["maturity"] == 1
    assert set(other["processes"]["claim_value"]) < set(first["processes"]["claim_value"])
    assert again == first
    assert main(plain) == 0  # the default format again, after three machine runs
    assert capsys.readouterr().out.startswith("command: price\n")
    assert _parser() is _parser()


# -- exit codes ----------------------------------------------------------------

def test_exit_code_schema_error(capsys):
    assert main(["analyze", "no-such-file.market"]) == 1
    assert "error" in capsys.readouterr().err


def test_exit_code_arbitrage_blocks_family(tmp_path, capsys):
    with open(data_file("ex1.market")) as fh:
        doc = json.load(fh)
    del doc["pricing"]  # force the analysis to derive a family, which fails
    path = tmp_path / "arb.market"
    path.write_text(json.dumps(doc))
    rc = main(["analyze", str(path)])
    capsys.readouterr()
    assert rc == 2


def test_hedge_without_a_pricing_family_reports_the_primal_price_and_exits_2(tmp_path, capsys):
    """A weak arbitrage (the price rises or stays flat, both children charged) leaves no
    pricing family: ``hedge`` reports the primal superhedge price of the call, 0.1 (hold
    one unit: 1 + 0.5 - 0.9 and 1 - 0.9 cover the payoffs 0.6 and 0.1), with the note and
    no process table, and exits 2."""
    doc = {
        "horizon": 1,
        "nodes": [{"id": "r", "parent": None, "time": 0}, {"id": "r0", "parent": "r", "time": 1},
                  {"id": "r1", "parent": "r", "time": 1}],
        "rates": {"r": 0.0},
        "prices": {"r": 1.0, "r0": 1.5, "r1": 1.0},
        "dividends": {"r": 0.0, "r0": 0.0, "r1": 0.0},
        "tau": {"nodes": [], "kind": "possibly_infinite"},
        "payoffs": {},
        "actual": {"type": "rectangular", "transitions": {"r": {"lower": [0, 0], "upper": [1, 1]}}},
    }
    path = tmp_path / "weak.market"
    path.write_text(json.dumps(doc))
    rc = main(["--format", "machine", "hedge", "--claim", "ecall", "--strike", "0.9", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err == ""
    report = json.loads(captured.out)
    assert report["verdicts"] == {"price": pytest.approx(0.1, abs=1e-12),
                                  "note": "no pricing family (arbitrage); primal hedge only"}
    assert report["processes"] == {} and report["exit_status"] == 2


def test_explicit_american_price_exits_0_past_the_enumeration_cap(tmp_path, capsys):
    # a depth-5 binary tree has 458,330 stopping rules, past american_oracle's
    # cap; an explicit family prices the call by its measures' Snell envelopes
    from per_node import _stopping_rule_count, explicit_american

    from bubbletree.claims import Claim
    from bubbletree.lattice import EventTree

    tree = EventTree.uniform([2] * 5)
    nodes = [
        {"id": n, "parent": tree.parent(n), "time": tree.time(n)}
        for n in tree.preorder()
    ]
    uniform = 1.0 / len(tree.leaves)
    tilted = {l: 2.0 * uniform if l.startswith("r1") else 0.0 for l in tree.leaves}
    doc = {
        "horizon": 5,
        "nodes": nodes,
        "rates": {n: 0.0 for n in tree.non_leaves()},
        "prices": {n: 1.1 ** n.count("1") * 0.9 ** n.count("0") for n in tree.preorder()},
        "dividends": {n: 0.0 for n in tree.preorder()},
        "tau": {"nodes": [], "kind": "possibly_infinite"},
        "payoffs": {},
        "actual": {"type": "explicit", "measures": [{l: uniform for l in tree.leaves}]},
        "pricing": {"type": "explicit", "measures": [{l: uniform for l in tree.leaves}, tilted]},
    }
    path = tmp_path / "deep.market"
    path.write_text(json.dumps(doc))
    assert _stopping_rule_count(tree, tree.root, 5, {}) > 50_000
    rc = main(["--format", "machine", "price", "--claim", "acall", "--strike", "1",
               "--maturity", "5", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and "note" not in report["diagnostics"]
    parsed = parse_market_file(str(path))
    values, exercise = explicit_american(parsed.spec, parsed.pricing, Claim("amer_call", 5, 1.0))
    assert report["verdicts"]["value"] == pytest.approx(values["r"], abs=1e-12)
    assert values["r"] > 0.1
    assert report["processes"]["claim_value"] == pytest.approx(values, abs=1e-12)
    assert report["diagnostics"]["exercise_region"] == sorted(exercise)


def test_explicit_american_root_equals_the_enumeration_oracle():
    from per_node import american_oracle

    from bubbletree.claims import Claim, american_fundamental_price

    parsed = parse_market_file(data_file("explicit4.market"))
    for claim in (Claim("amer_put", 4, 1.0), Claim("amer_call", 4, 0.9)):
        dp = american_fundamental_price(parsed.spec, parsed.pricing, claim, parsed.actual)
        oracle = american_oracle(parsed.spec, parsed.pricing, claim)
        assert abs(dp.process["r"] - oracle) <= 1e-12


def test_exit_code_3_unbounded_hedge_and_polar_node(tmp_path, capsys):
    with open(data_file("ex1.market")) as fh:
        doc = json.load(fh)
    del doc["pricing"]  # a strong arbitrage: the hedge cost is unbounded below
    path = tmp_path / "unbounded.market"
    path.write_text(json.dumps(doc))
    assert main(["hedge", "--claim", "ecall", str(path)]) == 3
    assert "unbounded below" in capsys.readouterr().err

    with open(data_file("explicit4.market")) as fh:
        doc = json.load(fh)
    # pricing measures that charge nothing below r1: W* is undefined there
    doc["pricing"]["measures"] = [q for q in doc["pricing"]["measures"]
                                  if not any(v for l, v in q.items() if l.startswith("r1"))]
    path = tmp_path / "polar.market"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no measure in the family charges node 'r1'\n"


def test_failing_verdict_text_names_nodes(tmp_path):
    # exact-tie market: the persistence check records a violation and the
    # text report must carry the FAIL and the offending node
    from bubbletree.lattice import EventTree

    tree = EventTree.uniform([2, 1])
    nodes = [
        {"id": n, "parent": tree.parent(n), "time": tree.time(n)}
        for n in tree.preorder()
    ]
    doc = {
        "horizon": 2,
        "nodes": nodes,
        "rates": {n: 0.0 for n in tree.non_leaves()},
        "prices": {"r": 1.4, "r0": 1.2, "r1": 1.4, "r00": 0.0, "r10": 0.0},
        "dividends": {n: 0.0 for n in tree.preorder()},
        "tau": {"nodes": ["r00", "r10"], "kind": "bounded"},
        "payoffs": {"r00": 1.0, "r10": 1.4},
        "actual": {
            "type": "rectangular",
            "transitions": {
                "r": {"lower": [0.05, 0.05], "upper": [0.95, 0.95]},
                "r0": {"lower": [1.0], "upper": [1.0]},
                "r1": {"lower": [1.0], "upper": [1.0]},
            },
        },
    }
    path = tmp_path / "tie.market"
    path.write_text(json.dumps(doc))
    parsed = parse_market_file(str(path))
    report = run_analysis("analyze", parsed, {})
    text = emit_report(report, "text", parsed.spec.tree)
    assert "FAIL" in text
    assert "r" in report.diagnostics["persistence_nodes"]


def test_hedge_not_risk_neutral_family_exits_2(tmp_path, capsys):
    payoff = tmp_path / "payoff.json"
    payoff.write_text(json.dumps({"r00": 1.0, "r10": 1.0}))
    # ex1's interval family does not price its own market (wealth rises
    # surely on the cheap branch), so robust pricing must refuse
    rc = main(["hedge", "--payoff-file", str(payoff), data_file("ex1.market")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not a G-supermartingale" in err


def test_cli_text_output_end_to_end(capsys):
    rc = main(["price", "--claim", "eput", "--strike", "1", "--maturity", "1",
               data_file("ex1geom.market")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "value: 0.4" in out


def _market_doc(spec, family, pricing="same", vertices=False, explicit=False, quotes=False):
    """A market file for ``spec`` with ``family`` as the actual block: as
    boxes and vertex lists (every third node as its vertex list when
    ``vertices``), or as an explicit family of two leaf measures when
    ``explicit``. The pricing block is equal to it, the same with its nodes
    listed in reverse (``"reordered"``), or absent. ``quotes`` adds market
    prices. No block shares objects with another."""
    tree = spec.tree
    if explicit:
        leaves = tree.leaves
        fam_doc = {"type": "explicit",
                   "measures": [{leaf: 1 / len(leaves) for leaf in leaves}, {leaves[0]: 1.0}]}
    else:
        transitions = {}
        for i, n in enumerate(tree.non_leaves()):
            ts = family.transitions[n]
            if not ts.is_box or (vertices and i % 3 == 0):
                transitions[n] = {"vertices": [list(v) for v in per_node.vertex_list(ts)]}
            else:
                transitions[n] = {"lower": list(ts.lower), "upper": list(ts.upper)}
        fam_doc = {"type": "rectangular", "transitions": transitions}
    doc = {
        "horizon": tree.horizon,
        "nodes": [
            {"id": n, "parent": tree.parent(n), "time": tree.time(n)}
            for n in tree.preorder()
        ],
        "rates": dict(spec.rates),
        "prices": dict(spec.price),
        "dividends": dict(spec.dividend),
        "tau": {"nodes": sorted(spec.tau.tau_nodes), "kind": spec.tau_kind},
        "payoffs": dict(spec.payoff),
        "actual": fam_doc,
    }
    if pricing == "same":
        doc["pricing"] = fam_doc
    elif pricing == "reordered" and not explicit:
        doc["pricing"] = {"type": "rectangular",
                          "transitions": dict(reversed(list(fam_doc["transitions"].items())))}
    if quotes:
        doc["market_prices"] = {"euro_call": {tree.root: 0.25, tree.leaves[0]: 1}}
    return json.loads(json.dumps(doc))


def test_tolerance_flag_propagates(tmp_path):
    # a huge tolerance collapses every classification to the strongest class
    fx = fixtures.rand_claim_market(3, depth=2, branching=2, style="bumped")
    path = tmp_path / "m.market"
    path.write_text(json.dumps(_market_doc(fx.spec, fx.family)))
    parsed = parse_market_file(str(path))
    strict = run_analysis("classify", parsed, {"process": "S", "tolerance": 1e-9})
    loose = run_analysis("classify", parsed, {"process": "S", "tolerance": 1e9})
    assert loose.verdicts["class"] == "G_martingale"
    assert strict.verdicts["class"] in ("G_supermartingale", "G_martingale")


def test_analyze_fiat_market_file(tmp_path, capsys):
    fx = fixtures.fiat(5)
    path = tmp_path / "fiat.market"
    path.write_text(json.dumps(_market_doc(fx.spec, fx.family)))
    rc = main(["analyze", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "bubble_exists: yes" in out
    assert "bubble_class: infi_supermartingale" in out
    assert "arbitrage: none" in out


def test_hedge_claim_before_horizon(tmp_path, capsys):
    fx = fixtures.rand_claim_market(17, depth=2, branching=2, style="neutral")
    path = tmp_path / "two.market"
    path.write_text(json.dumps(_market_doc(fx.spec, fx.family)))
    rc = main(["hedge", "--claim", "ecall", "--strike", "0.5", "--maturity", "1",
               str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "duality_gap" in out


@pytest.mark.parametrize("claim", ["acall", "aput"])
def test_hedge_refuses_an_american_claim(tmp_path, capsys, claim):
    """``hedge`` superhedges a leaf payoff, and an American claim has none: on this market the
    European put's hedge value (0.372186091472) is not the American put's price
    (0.383846676748), so ``hedge --claim acall|aput`` is a usage error, not the European
    claim's hedge. ``price`` takes both."""
    fx = fixtures.rand_claim_market(2, depth=3, branching=2, style="bumped")
    path = str(tmp_path / "m.market")
    with open(path, "w") as fh:
        json.dump(_market_doc(fx.spec, fx.family), fh)
    argv = ["--format", "machine", "--claim", claim, "--strike", "1", path]
    assert main(["hedge", *argv[2:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"invalid choice: '{claim}'" in captured.err
    assert main([*argv[:2], "price", *argv[2:]]) == 0
    assert json.loads(capsys.readouterr().out)["exit_status"] == 0
    assert main([*argv[:2], "hedge", "--claim", "eput", *argv[4:]]) == 0
    eput = json.loads(capsys.readouterr().out)["verdicts"]["value"]
    assert main([*argv[:2], "price", "--claim", "aput", *argv[4:]]) == 0
    aput = json.loads(capsys.readouterr().out)["verdicts"]["value"]
    assert (eput, aput) == (0.372186091472, 0.383846676748)


@pytest.mark.parametrize("command", ["price", "hedge"])
@pytest.mark.parametrize("maturity", ["-1", "0", "3"])
def test_maturity_outside_the_tree_exits_1(capsys, command, maturity):
    rc = main([command, "--claim", "ecall", "--maturity", maturity,
               data_file("ex1geom.market")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: maturity {maturity} outside [1, 1]\n"


COMMANDS = (
    ("analyze",),
    ("price", "--claim", "ecall", "--strike", "1"),
    ("price", "--claim", "aput", "--strike", "1"),
    ("hedge", "--claim", "ecall", "--strike", "0.9"),
    ("classify", "--process", "beta"),
    ("classify", "--process", "Wstar"),
    ("dominance",),
)


def discovered_fiat_doc(periods: int = 3) -> dict:
    """A fiat-money market file without a ``pricing`` block, so every
    command discovers the supermartingale family."""
    fx = fixtures.fiat(periods)
    doc = _market_doc(fx.spec, fx.family)
    del doc["pricing"]
    return doc


def _counting(calls: Counter, name: str, fn):
    """``fn``, counting its calls in ``calls[name]``."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("argv", COMMANDS)
def test_each_command_runs_ftap_and_bubble_analysis_once(tmp_path, capsys, monkeypatch, argv):
    import bubbletree.ambiguity
    import bubbletree.bubble
    import bubbletree.cli
    import bubbletree.noarb

    calls = Counter()
    counted = functools.partial(_counting, calls)
    ftap = counted("verify_ftap", bubbletree.noarb.verify_ftap)
    monkeypatch.setattr(bubbletree.cli, "verify_ftap", ftap)
    monkeypatch.setattr(
        bubbletree.cli, "analyze_bubble", counted("analyze_bubble", bubbletree.bubble.analyze_bubble)
    )
    # the backward sweep of the asset's cash flows (W*), behind S*, W* and beta
    monkeypatch.setattr(bubbletree.bubble, "_conditional_value_process", counted(
        "cash_flow_sweep", bubbletree.bubble._conditional_value_process))
    # the one-step test and the vertex arrays of its cuts, shared by the
    # pricing family and the superhedge
    monkeypatch.setattr(bubbletree.noarb, "_cuts", counted("one_step", bubbletree.noarb._cuts))
    monkeypatch.setattr(bubbletree.ambiguity, "_cut_arrays", counted(
        "cut_arrays", bubbletree.ambiguity._cut_arrays))
    path = tmp_path / "fiat.market"
    path.write_text(json.dumps(discovered_fiat_doc(6)))
    rc = main([*argv, str(path)])
    capsys.readouterr()
    assert rc == 0
    # only ``analyze`` prints the bubble's classification and properties
    analyses = 1 if argv[0] == "analyze" else 0
    assert calls == Counter(verify_ftap=1, analyze_bubble=analyses, cash_flow_sweep=1,
                            one_step=1, cut_arrays=1)


@pytest.mark.parametrize("argv", COMMANDS)
def test_each_command_evaluates_the_arbitrage_certificate_once(tmp_path, capsys, monkeypatch,
                                                               argv):
    import bubbletree.noarb

    calls = Counter()
    for name in ("_cuts", "gains_process"):
        fn = getattr(bubbletree.noarb, name)
        monkeypatch.setattr(bubbletree.noarb, name, _counting(calls, name, fn))
    # ex1 without its pricing block: a strong arbitrage on the cheap branch
    with open(data_file("ex1.market")) as fh:
        doc = json.load(fh)
    del doc["pricing"]
    path = tmp_path / "ex1.market"
    path.write_text(json.dumps(doc))
    rc = main([*argv, str(path)])
    capsys.readouterr()
    assert rc in (2, 3)
    assert calls == Counter(_cuts=1, gains_process=1)


@pytest.mark.parametrize("argv", COMMANDS)
def test_each_command_solves_no_linear_program(tmp_path, capsys, monkeypatch, argv):
    import bubbletree.noarb

    calls = []
    original = bubbletree.noarb.linprog

    def counted(*args, **kwargs):
        calls.append(argv)
        return original(*args, **kwargs)

    monkeypatch.setattr(bubbletree.noarb, "linprog", counted)
    fiat = tmp_path / "fiat.market"
    fiat.write_text(json.dumps(discovered_fiat_doc()))
    for path in (data_file("ex1.market"), data_file("ex1geom.market"), str(fiat)):
        main([*argv, path])
    capsys.readouterr()
    assert calls == []


# Run in a fresh interpreter: the test process has loaded scipy already.
_COLD_IMPORT_SCRIPT = """
import contextlib, io, json, sys
import bubbletree, bubbletree.cli, bubbletree.fixtures
commands, paths, hedged, tests = json.loads(sys.argv[1])
rcs = []
for argv in commands:
    for path in paths:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rcs.append(bubbletree.cli.main([*argv, path]))
out = {"rcs": rcs, "scipy_after_cli": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
from bubbletree.claims import Claim, terminal_payoff
from bubbletree.noarb import superhedge
sys.path.insert(0, tests)
from oracles import superhedge_lp
out["scipy_after_oracles_import"] = "scipy" in sys.modules
parsed = bubbletree.cli.parse_market_file(hedged)
payoff = terminal_payoff(parsed.spec, Claim("euro_call", parsed.spec.tree.horizon, 0.9))
out["local"] = superhedge(parsed.spec, payoff, parsed.actual).price
out["lp"] = superhedge_lp(parsed.spec, payoff, parsed.actual).price
out["optimize_after_lp"] = "scipy.optimize" in sys.modules
print(json.dumps(out))
"""


def test_cli_never_imports_scipy_and_the_lp_oracle_loads_it_on_first_use():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    paths = [data_file("ex1.market"), data_file("branch3-discovered.market")]
    # ex1 admits a strong arbitrage, so both of its superhedges are
    # unbounded; ex1geom's call has a finite price to compare
    args = json.dumps([COMMANDS, paths, data_file("ex1geom.market"), os.path.dirname(__file__)])
    run = subprocess.run([sys.executable, "-c", _COLD_IMPORT_SCRIPT, args],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert len(out["rcs"]) == len(COMMANDS) * len(paths)
    assert out["scipy_after_cli"] == [] and not out["scipy_after_oracles_import"]
    assert out["lp"] == pytest.approx(out["local"], abs=1e-9)
    assert out["local"] == 0.3
    assert out["optimize_after_lp"]


@pytest.mark.parametrize("argv", COMMANDS)
def test_each_command_validates_the_market_once(tmp_path, capsys, monkeypatch, argv):
    import bubbletree.lattice

    calls = []
    original = bubbletree.lattice.validate_market
    monkeypatch.setattr(
        bubbletree.lattice, "validate_market", lambda spec: calls.append(spec) or original(spec)
    )
    path = tmp_path / "fiat.market"
    path.write_text(json.dumps(discovered_fiat_doc()))
    rc = main([*argv, str(path)])
    capsys.readouterr()
    assert rc == 0
    assert len(calls) == 1


# -- option and payoff-file checks ----------------------------------------------

@pytest.mark.parametrize(
    "content, context",
    [
        ("[1.0, 2.0]", "must be a JSON object mapping node ids to numbers"),
        ('{"r0": NaN, "r1": 1.0}', "['r0'] is not finite"),
        ('{"r0": 1e400, "r1": 1.0}', "['r0'] is not finite"),
        ('{"r0": true, "r1": 1.0}', "['r0'] is not a number"),
        ('{"r0": "1", "r1": 1.0}', "['r0'] is not a number"),
        ('{"r0": 1.0, "r9": 1.0}', "unknown nodes ['r9']"),
        ('{"r": 1.0, "r0": 1.0, "r1": 1.0}', "payoffs sit at leaves, not at ['r']"),
        ("{not json", "not valid JSON"),
        ("[" * 100_000 + "]" * 100_000, "not valid JSON"),
    ],
    ids=["list", "nan", "overflow", "bool", "string", "unknown-node", "inner-node",
         "not-json", "nested-too-deep"],
)
def test_bad_payoff_file_exits_1_with_context(tmp_path, capsys, content, context):
    payoff = tmp_path / "payoff.json"
    payoff.write_text(content)
    rc = main(["hedge", "--payoff-file", str(payoff), data_file("ex1geom.market")])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"payoff file {payoff}" in captured.err
    assert context in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("market", ["branch3-discovered", "ex1-without-pricing"])
@pytest.mark.parametrize("given", ["one-leaf", "empty"])
def test_payoff_file_missing_leaves_exits_1_naming_the_file(tmp_path, capsys, market, given):
    """With a pricing family (branch3's discovered one) and without one (ex1
    without its pricing block admits an arbitrage), a payoff file that misses
    leaves is one input error: exit 1, naming the file and the missing leaves."""
    if market == "ex1-without-pricing":
        doc = json.loads(open(data_file("ex1.market")).read())
        del doc["pricing"]
        path = tmp_path / "ex1-discovered.market"
        path.write_text(json.dumps(doc))
    else:
        path = data_file(f"{market}.market")
    leaves = parse_market_file(str(path)).spec.tree.leaves
    full = tmp_path / "full.json"
    full.write_text(json.dumps(dict.fromkeys(leaves, 1.0)))
    # the whole payoff runs the path: a hedge on the discovered family, or the primal
    # hedge alone, which ex1's strong arbitrage leaves unbounded
    assert main(["hedge", "--payoff-file", str(full), str(path)]) == (
        0 if market == "branch3-discovered" else 3)
    capsys.readouterr()
    payoff = tmp_path / "payoff.json"
    payoff.write_text(json.dumps({leaves[0]: 1.0} if given == "one-leaf" else {}))
    rc = main(["hedge", "--payoff-file", str(payoff), str(path)])
    captured = capsys.readouterr()
    missing = sorted(leaves[1:] if given == "one-leaf" else leaves)
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: payoff file {payoff}: payoff missing at leaves {missing}\n"


def test_missing_payoff_file_exits_1(capsys):
    rc = main(["hedge", "--payoff-file", "no-such-payoff.json", data_file("ex1geom.market")])
    assert rc == 1
    assert "cannot read payoff file no-such-payoff.json" in capsys.readouterr().err


def test_integer_payoff_file_values_are_numbers(tmp_path, capsys):
    payoff = tmp_path / "payoff.json"
    payoff.write_text('{"r0": 3, "r1": 3.0}')
    assert main(["--format", "machine", "hedge", "--payoff-file", str(payoff),
                 data_file("ex1geom.market")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdicts"]["price"] == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--tolerance", "nan", "analyze"], "--tolerance"),
        (["--tolerance", "-1", "analyze"], "--tolerance"),
        (["--tolerance", "inf", "analyze"], "--tolerance"),
        (["price", "--claim", "ecall", "--strike", "nan"], "--strike"),
        (["price", "--claim", "ecall", "--strike=-1"], "--strike"),
        (["hedge", "--claim", "ecall", "--strike", "inf"], "--strike"),
    ],
    ids=["tol-nan", "tol-negative", "tol-inf", "strike-nan", "strike-negative", "strike-inf"],
)
def test_bad_tolerance_or_strike_exits_1_naming_the_flag(capsys, argv, flag):
    rc = main([*argv, data_file("ex1.market")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"error: {flag} must be a finite number >= 0")
    assert captured.out == ""


def test_zero_tolerance_and_strike_are_accepted(capsys):
    assert main(["--tolerance", "0", "price", "--claim", "ecall", "--strike", "0",
                 data_file("ex1geom.market")]) == 0
    capsys.readouterr()


def test_hedge_without_claim_or_payoff_file_exits_1(capsys):
    rc = main(["hedge", data_file("ex1geom.market")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: hedge needs --claim or --payoff-file\n"
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["price"], "the following arguments are required: --claim"),
        (["price", "--claim", "call"], "argument --claim: invalid choice: 'call'"),
        (["--tolerance", "abc", "analyze"], "argument --tolerance: invalid float value: 'abc'"),
        (["hedge", "--claim", "ecall", "--maturity", "1.5"],
         "argument --maturity: invalid int value: '1.5'"),
    ],
    ids=["missing-flag", "bad-choice", "bad-float", "bad-int"],
)
def test_usage_errors_exit_1_with_the_argparse_message(capsys, argv, message):
    rc = main([*argv, data_file("ex1.market")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("usage: bubbletree")
    assert f"error: {message}" in captured.err.splitlines()[-1]
    assert captured.out == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bubbletree price")


def test_validation_errors_print_in_one_order_under_any_string_hashing(tmp_path):
    import os
    import subprocess
    import sys

    # two tau nodes above two others: the antichain breaks twice, and
    # PYTHONHASHSEED 0 and 2 iterate the tau-node set in different orders
    nodes = {"r": None, "r0": "r", "r1": "r", "r00": "r0", "r10": "r1"}
    tau = ["r0", "r1", "r00", "r10"]
    doc = {
        "horizon": 2,
        "nodes": [{"id": n, "parent": p, "time": len(n) - 1} for n, p in nodes.items()],
        "rates": {"r": 0.0, "r0": 0.0, "r1": 0.0},
        "prices": dict.fromkeys(nodes, 1.0),
        "dividends": dict.fromkeys(nodes, 0.0),
        "tau": {"nodes": tau, "kind": "bounded"},
        "payoffs": dict.fromkeys(tau, 1.0),
        "actual": {"type": "rectangular", "transitions": {
            "r": {"lower": [0.3, 0.3], "upper": [0.7, 0.7]},
            "r0": {"lower": [1.0], "upper": [1.0]},
            "r1": {"lower": [1.0], "upper": [1.0]}}},
    }
    path = tmp_path / "antichain.market"
    path.write_text(json.dumps(doc))
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "bubbletree.cli", "analyze", str(path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p)},
        )
        for seed in ("0", "2")
    ]
    assert [r.returncode for r in runs] == [1, 1]
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].stderr.endswith(
        "tau nodes 'r0' and 'r00' violate the antichain; "
        "tau nodes 'r1' and 'r10' violate the antichain\n"
    )


def tiny_branch_doc() -> dict:
    """A valid explicit family whose only measure gives the branch ``a``
    1.4e-12, above ``CHARGE_TOL``, and each of its leaves 0.7e-12, below it:
    ``a`` is charged, neither child is, and the asset rises into ``a``."""
    nodes = [("r", None, 0), ("a", "r", 1), ("b", "r", 1),
             ("a0", "a", 2), ("a1", "a", 2), ("b0", "b", 2)]
    price = {"r": 1.0, "a": 2.0, "b": 1.0, "a0": 2.0, "a1": 2.0, "b0": 1.0}
    return {
        "horizon": 2,
        "nodes": [{"id": n, "parent": p, "time": t} for n, p, t in nodes],
        "rates": {"r": 0.0, "a": 0.0, "b": 0.0},
        "prices": price,
        "dividends": dict.fromkeys(price, 0.0),
        "tau": {"nodes": [], "kind": "possibly_infinite"},
        "payoffs": {},
        "actual": {"type": "explicit",
                   "measures": [{"a0": 0.7e-12, "a1": 0.7e-12, "b0": 1 - 1.4e-12}]},
    }


@pytest.mark.parametrize("argv", COMMANDS)
def test_charged_node_without_a_charged_leaf_is_no_arbitrage(tmp_path, capsys, argv):
    from bubbletree.ambiguity import validate_family
    from bubbletree.noarb import verify_ftap

    path = tmp_path / "tiny.market"
    path.write_text(json.dumps(tiny_branch_doc()))
    parsed = parse_market_file(str(path))
    assert validate_family(parsed.actual) == [] and "a" in parsed.actual.charged
    rep = verify_ftap(parsed.spec, parsed.actual)
    assert rep.arbitrage is None and rep.family_found and rep.consistent
    rc = main(["--format", "machine", *argv, str(path)])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    report = json.loads(captured.out)
    assert report["exit_status"] == 0
    if argv[0] == "analyze":
        assert report["verdicts"]["arbitrage"] == "none"
        assert report["verdicts"]["ftap_consistent"] is True
