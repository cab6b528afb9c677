"""Span recorder for the traced benchmark run.

Tracing lives here, outside the program: ``Tracer.install`` replaces each
traced public function by a wrapper at every ``bubbletree`` module attribute
bound to it (``cli`` imports ``verify_ftap`` by name, so that binding is
wrapped too), plus ``scipy.optimize.linprog`` as bound in
``bubbletree.noarb``. ``uninstall`` puts the originals back, so untraced
passes run the unmodified program. Private helpers are not wrapped.

Each call records a span (name, start, end, parent, op id, extras). Spans
are kept in memory; ``aggregate`` turns one pass's spans into per-layer
numbers and ``dump`` writes them out when the run ends. ``node_charged`` is
only counted: it runs once per node and call site (about 170k times per
desk-session pass), and a span per call would dominate the trace's memory
and overhead.
"""
from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name. Several functions may share one name.
TRACED = {
    ("cli", "parse_market_file"): "cli.parse_market_file",
    ("cli", "run_analysis"): "cli.run_analysis",
    ("cli", "emit_report"): "cli.emit_report",
    ("lattice", "validate_market"): "lattice.validate_market",
    ("lattice", "gains_process"): "lattice.gains_process",
    ("lattice", "discount_factors"): "lattice.derived",
    ("lattice", "cumulative_dividends"): "lattice.derived",
    ("lattice", "wealth_process"): "lattice.derived",
    ("lattice", "tau_node_map"): "lattice.derived",
    ("ambiguity", "classify_process"): "ambiguity.classify_process",
    ("ambiguity", "node_charged"): "ambiguity.node_charged",
    ("ambiguity", "expectation_sweep"): "ambiguity.expectation_sweep",
    ("ambiguity", "cond_expectation"): "ambiguity.cond_expectation",
    ("noarb", "verify_ftap"): "noarb.verify_ftap",
    ("noarb", "find_arbitrage"): "noarb.find_arbitrage",
    ("noarb", "supermartingale_family"): "noarb.supermartingale_family",
    ("noarb", "superhedge"): "noarb.superhedge",
    ("noarb", "linprog"): "noarb.lp",
    ("bubble", "analyze_bubble"): "bubble.analyze_bubble",
    ("bubble", "check_bubble_properties"): "bubble.check_bubble_properties",
    ("bubble", "find_dominating_strategy"): "bubble.find_dominating_strategy",
    ("bubble", "classify_bubble"): "bubble.classify_bubble",
    ("bubble", "fundamental_price"): "bubble.fundamental_price",
    ("bubble", "bubble_process"): "bubble.bubble_process",
    ("claims", "validate_claim"): "claims.validate_claim",
    ("claims", "fundamental_claim_price"): "claims.fundamental_claim_price",
    ("claims", "american_fundamental_price"): "claims.american_fundamental_price",
    ("claims", "parity_bounds"): "claims.parity_bounds",
    ("claims", "american_bounds"): "claims.american_bounds",
    ("fixtures", "fiat"): "fixtures.generate",
    ("fixtures", "rand_market"): "fixtures.generate",
    ("fixtures", "rand_claim_market"): "fixtures.generate",
}


def _rows(a) -> int:
    return 0 if a is None else int(a.shape[0])


def _lp_extra(args, kwargs, res) -> dict:
    """Shape and solver outcome of one linprog call. ``dense_mb`` is computed
    as (inequality + equality rows) x variables x 8 bytes, not measured."""
    c = args[0] if args else kwargs["c"]
    n_vars = len(c)
    rows = _rows(kwargs.get("A_ub")) + _rows(kwargs.get("A_eq"))
    return {
        "vars": n_vars,
        "rows": rows,
        "dense_mb": rows * n_vars * 8 / 1e6,
        "nit": int(getattr(res, "nit", 0) or 0),
        "status": int(res.status),
    }


COUNTED = {"ambiguity.node_charged"}

EXTRAS = {
    "noarb.lp": _lp_extra,
    "ambiguity.expectation_sweep": lambda a, k, res: {"nodes": len(res)},
    "cli.emit_report": lambda a, k, res: {"bytes": len(res.encode())},
}


class Tracer:
    """Collects spans while installed. Not thread-safe: the benchmark runs one
    client in one thread."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id, self_s, extra]
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self.counts: Counter = Counter()  # (name, op id) -> calls, for COUNTED names
        self.op_id: int | None = None
        self._bindings: list[tuple[object, str, object]] = []  # (module, attribute, original)
        self.bound: list[str] = []  # "module.attribute" of every wrapped binding

    def _count(self, name: str, fn):
        counts, tracer = self.counts, self

        def wrapper(*args, **kwargs):
            counts[name, tracer.op_id] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, fn):
        if name in COUNTED:
            return self._count(name, fn)
        spans, stack, child_time = self.spans, self._stack, self._child_time
        extra_fn = EXTRAS.get(name)
        tracer = self
        explicit = sys.modules["bubbletree.ambiguity"].ExplicitFamily

        def span_name(args) -> str:
            if name == "ambiguity.classify_process":  # split by family kind
                return name + (".explicit" if isinstance(args[0], explicit) else ".rect")
            return name

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else None
            rec = [span_name(args), 0.0, 0.0, parent, tracer.op_id, 0.0, None]
            spans.append(rec)
            stack.append(idx)
            child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                children = child_time.pop()
                rec[1], rec[2], rec[5] = t0, t1, (t1 - t0) - children
                if child_time:
                    child_time[-1] += t1 - t0
            if extra_fn is not None:
                rec[6] = extra_fn(args, kwargs, res)
            return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        if self._bindings:
            return
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "bubbletree" or n.startswith("bubbletree."))
        ]
        for (mod_name, attr), span in TRACED.items():
            fn = getattr(sys.modules[f"bubbletree.{mod_name}"], attr)
            wrapper = self._wrap(span, fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._bindings.append((mod, key, fn))
        self.bound = sorted(f"{mod.__name__}.{key}" for mod, key, _ in self._bindings)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._bindings):
            setattr(mod, key, fn)
        self._bindings.clear()

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (index, name, start, end, parent,
        op, self_s, extra), then one line per counted (name, op)."""
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, self_s, extra) in enumerate(self.spans):
                fh.write(json.dumps([i, name, t0, t1, parent, op, self_s, extra]) + "\n")
            for (name, op), calls in sorted(self.counts.items(), key=str):
                fh.write(json.dumps({"count": name, "op": op, "calls": calls}) + "\n")


def aggregate(tracer: Tracer, op_ids: set) -> dict[str, dict]:
    """Per span name: calls, self time, total time and summed or maxed extras,
    over the spans belonging to the given ops (set-up spans have op None)."""
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for (name, op), calls in tracer.counts.items():
        if op in op_ids:
            out[name]["calls"] += calls
    for name, t0, t1, _parent, op, self_s, extra in tracer.spans:
        if op not in op_ids:
            continue
        agg = out[name]
        agg["calls"] += 1
        agg["self_s"] += self_s
        agg["total_s"] += t1 - t0
        if extra:
            for key, val in extra.items():
                if key in ("vars", "rows", "dense_mb"):
                    agg[key + "_max"] = max(agg[key + "_max"], val)
                elif key == "status":
                    agg["failed"] += val != 0
                else:
                    agg[key] += val
    return out


def covered_time(tracer: Tracer, op_ids: set) -> float:
    """Wall time spent inside top-level spans of the given ops."""
    return math.fsum(t1 - t0 for _n, t0, t1, parent, op, _s, _e in tracer.spans
                     if parent is None and op in op_ids)
