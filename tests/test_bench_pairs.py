"""The statistics that tools/bench_pairs.py writes into BENCH_<pr>.json."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _metrics(sense="lower", bound=0.25, names=("wall_ref_s",)):
    return {name: {"name": name, "better": sense, "bound": bound} for name in names}


def _runs(parent, change, name="wall_ref_s"):
    return ([{"pair": k, "side": "parent", "metrics": {name: v}} for k, v in enumerate(parent)]
            + [{"pair": k, "side": "change", "metrics": {name: v}} for k, v in enumerate(change)])


def test_medians_quartiles_and_wins_per_pair():
    parent = [0.150, 0.152, 0.149, 0.155, 0.151, 0.153, 0.150, 0.154, 0.152, 0.151]
    change = [0.130, 0.131, 0.129, 0.160, 0.130, 0.132, 0.131, 0.130, 0.129, 0.151]
    got = bench_pairs.summarise(_runs(parent, change), _metrics())["wall_ref_s"]
    assert got["pairs"] == 10
    # pair 3 is lost and pair 9 is a tie, which counts for neither side
    assert (got["change_wins"], got["parent_wins"]) == (8, 1)
    assert got["parent"]["median"] == pytest.approx(0.1515)
    assert got["parent"]["q1"] == pytest.approx(0.15025)
    assert got["parent"]["q3"] == pytest.approx(0.15275)
    assert got["parent"]["iqr"] == pytest.approx(0.0025)
    assert got["change"]["median"] == pytest.approx(0.1305)
    assert got["change_over_parent"] == pytest.approx(0.1305 / 0.1515)
    # 8 of 10 is below nine tenths of the pairs
    assert got["gain_claimable"] is False


@pytest.mark.parametrize("sense, change, claimable", [
    ("lower", [0.13] * 10, True),
    ("higher", [0.13] * 10, False),
    # every pair won, but by less than the parent's own spread
    ("lower", [0.1505, 0.1515, 0.1485, 0.1545, 0.1505, 0.1525, 0.1495, 0.1535, 0.1515, 0.1505],
     False),
])
def test_a_gain_needs_nine_tenths_and_the_parent_spread(sense, change, claimable):
    parent = [0.150, 0.152, 0.149, 0.155, 0.151, 0.153, 0.150, 0.154, 0.152, 0.151]
    got = bench_pairs.summarise(_runs(parent, change), _metrics(sense))["wall_ref_s"]
    assert got["gain_claimable"] is claimable


def test_a_metric_with_no_values_has_no_pairs():
    runs = _runs([1.0, 2.0], [1.0, None])
    got = bench_pairs.summarise(runs, _metrics(names=("wall_ref_s", "setup_s")))
    assert got["setup_s"] == {"pairs": 0}
    assert got["wall_ref_s"]["pairs"] == 1


_PARENT = [0.150, 0.152, 0.149, 0.155, 0.151, 0.153, 0.150, 0.154, 0.152, 0.151]


@pytest.mark.parametrize("sense, change, bound, verdict", [
    # a change inside the bound holds, whether a little worse or better
    ("lower", [v * 1.2 for v in _PARENT], 0.25, "held"),
    ("lower", [v * 0.9 for v in _PARENT], 0.25, "held"),
    # a median worse by more than the bound regresses
    ("lower", [v * 1.3 for v in _PARENT], 0.25, "regressed"),
    ("higher", [v * 0.7 for v in _PARENT], 0.25, "regressed"),
    ("higher", [v * 1.3 for v in _PARENT], 0.25, "held"),
    # the parent's IQR (0.0025, 1.7 % of its median) is above a 1 % bound:
    # nothing can be told unless every change run beats every parent run
    ("lower", [v * 1.3 for v in _PARENT], 0.01, "unresolved"),
    ("lower", list(_PARENT), 0.01, "unresolved"),
    ("lower", [0.13] * 10, 0.01, "held"),
    ("higher", [0.13] * 10, 0.01, "unresolved"),
])
def test_no_regression_verdict_against_the_bound(sense, change, bound, verdict):
    got = bench_pairs.summarise(_runs(_PARENT, change), _metrics(sense, bound))["wall_ref_s"]
    assert (got["bound"], got["verdict"]) == (bound, verdict)


def test_one_change_run_not_beating_the_parent_leaves_a_wide_spread_unresolved():
    change = [0.13] * 9 + [0.149]
    got = bench_pairs.summarise(_runs(_PARENT, change), _metrics(bound=0.01))["wall_ref_s"]
    assert got["verdict"] == "unresolved"
