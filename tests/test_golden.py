"""Golden ``--format machine`` reports for every CLI command.

``tests/data/golden_machine.json`` holds the exit code and parsed machine
report of each market file below under each command of
``test_cli.COMMANDS``. ``branch3-discovered.market`` has no pricing block
and a ternary tree whose nodes have two children above their wealth, two
below, or one exactly at it, some of them uncharged by the actual family,
so it runs every case of the discovered pricing family.
``explicit4.market`` is a depth-4 binary tree with explicit ``actual`` and
``pricing`` families of three measures each, one of them charging only the
``r0`` half of the tree. Reports are
compared exactly, as values and as JSON text (which tells ``-0.0`` from
``0.0``), without the fields whose LP optimum is not unique (hedge holdings
and slacks, the dominance gain gap, the arbitrage witness and its gain) and
without the market file path, which depends on the checkout.

Re-record (only when an output change is intended and documented):

    python tests/test_golden.py --record
"""
import contextlib
import io
import json
import os
import sys
import tempfile

from conftest import DATA, data_file

from test_cli import COMMANDS, discovered_fiat_doc

from bubbletree.cli import main

GOLDEN = os.path.join(DATA, "golden_machine.json")

FILES = ("ex1.market", "ex1geom.market", "fiat3-discovered.market", "branch3-discovered.market",
         "explicit4.market")
NOT_UNIQUE = {
    ("inputs", "file"),
    ("processes", "hedge_pi"),
    ("processes", "hedge_slack"),
    ("processes", "gain_gap"),
    ("diagnostics", "arbitrage_witness"),
    ("diagnostics", "arbitrage_gain"),
}


def _run(argv) -> tuple[int, dict | None]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["--format", "machine", *argv])
    text = out.getvalue()
    return rc, (json.loads(text) if text else None)


def run_cases(workdir: str) -> dict[str, dict]:
    fiat_path = os.path.join(workdir, FILES[2])
    with open(fiat_path, "w") as fh:
        json.dump(discovered_fiat_doc(), fh)
    paths = {name: data_file(name) for name in FILES}
    paths[FILES[2]] = fiat_path
    cases = {}
    for name in FILES:
        for cmd in COMMANDS:
            rc, report = _run([*cmd, paths[name]])
            cases[" ".join((name, *cmd))] = {"exit": rc, "report": _comparable(report)}
    return cases


def _comparable(report: dict | None) -> dict | None:
    if report is None:
        return None
    return {
        section: (
            {k: v for k, v in body.items() if (section, k) not in NOT_UNIQUE}
            if isinstance(body, dict) else body
        )
        for section, body in report.items()
    }


def test_machine_reports_match_golden(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    cases = run_cases(str(tmp_path))
    assert sorted(cases) == sorted(golden)
    for key, case in cases.items():
        assert case["exit"] == golden[key]["exit"], key
        assert case["report"] == golden[key]["report"], key
        # as text too: ``==`` takes -0.0 for 0.0
        assert json.dumps(case, sort_keys=True) == json.dumps(golden[key], sort_keys=True), key


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        recorded = run_cases(tmp)
    with open(GOLDEN, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
