import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_file(name: str) -> str:
    return os.path.join(DATA, name)


@pytest.fixture
def step_calls(monkeypatch):
    """Spy on the one-step paths: the arrays and node range of each ``_box_step``
    and ``_cut_step`` call, and the transition set of each ``maximize`` call."""
    from bubbletree import ambiguity

    calls = {"box": [], "cut": [], "maximize": []}

    def spy(kind, fn):
        def wrapper(arrays, lo, hi, *args, **kwargs):
            calls[kind].append((arrays, lo, hi))
            return fn(arrays, lo, hi, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(ambiguity, "_box_step", spy("box", ambiguity._box_step))
    monkeypatch.setattr(ambiguity, "_cut_step", spy("cut", ambiguity._cut_step))
    maximize = ambiguity.TransitionSet.maximize
    monkeypatch.setattr(ambiguity.TransitionSet, "maximize",
                        lambda ts, values: calls["maximize"].append(ts) or maximize(ts, values))
    return calls
