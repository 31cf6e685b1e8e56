"""Verdicts of the same-machine A/B script (``tools/perf_ab.py``).

Only the verdict rule is tested here; nothing spawns perfbench.
"""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "perf_ab.py"
_spec = importlib.util.spec_from_file_location("perf_ab", _PATH)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

BOUND = 0.25
PARENT = [10.0, 10.2, 10.4, 10.6, 10.8]


def _scaled(xs, factor):
    return [x * factor for x in xs]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_within_bound_is_ok(better):
    worse = 1.2 if better == "lower" else 1 / 1.2
    assert perf_ab.verdict(PARENT, _scaled(PARENT, worse), better, BOUND) == "ok"


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_beyond_bound_is_regressed(better):
    worse = 1.4 if better == "lower" else 1 / 1.4
    change = _scaled(PARENT, worse)
    assert perf_ab.verdict(PARENT, change, better, BOUND) == "regressed"
    # the same data read the other way round is a gain
    other = "higher" if better == "lower" else "lower"
    assert perf_ab.verdict(PARENT, change, other, BOUND) == "ok"


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_wide_parent_spread_is_unresolved(better):
    parent = [5.0, 7.0, 10.0, 13.0, 20.0]  # interquartile range 0.6 x median
    change = [10.0, 10.1, 10.2, 10.3, 10.4]
    assert perf_ab.spread(parent) > BOUND
    assert perf_ab.verdict(parent, change, better, BOUND) == "unresolved"


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_every_change_run_better_is_ok_despite_spread(better):
    parent = [20.0, 24.0, 30.0, 40.0, 60.0]
    change = [1.0, 2.0, 3.0, 4.0, 8.0]
    if better == "higher":
        parent, change = change, parent
    assert perf_ab.spread(parent) > BOUND
    assert perf_ab.verdict(parent, change, better, BOUND) == "ok"
