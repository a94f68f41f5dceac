"""Checks of the benchmark's own parts: the tracer's self-time arithmetic
and clean removal, the workload seeding, the artifact check and the
scaling to the reference host speed.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import tracer  # noqa: E402
from calibrate import REFERENCE_UNIT_S  # noqa: E402
from run import (DYNAMICAL, REFERENCE, check_artifacts, reference_setup,  # noqa: E402
                 reference_wall, tail_percentile)
from workloads import DEFAULT_SEED, GAMMA_BAND, WORKLOADS, make_configs  # noqa: E402


def _span(name, start, end, parent):
    return tracer.Span(name, start, end, parent, run_id=1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
        _span("d", 11.0, 12.5, -1),
    ]
    agg = tracer.aggregate(spans)
    assert agg["a.self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert agg["b.self_s"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert agg["c.self_s"] == pytest.approx(1.0)
    assert agg["d.self_s"] == pytest.approx(1.5)
    assert agg["b.calls"] == 2
    total = sum(v for k, v in agg.items() if k.endswith(".self_s"))
    assert total == pytest.approx(10.0 + 1.5)  # self times partition the roots


def test_misses_count_calls_that_built_a_dissipator():
    spans = [
        _span("lindblad.GKLSGenerator.liouvillian", 0.0, 5.0, -1),
        _span("lindblad.GKLSGenerator.dissipator", 0.5, 4.0, 0),
        _span("operators.dissipator_superop", 1.0, 2.0, 1),
        _span("lindblad.GKLSGenerator.liouvillian", 6.0, 6.1, -1),
        _span("lindblad.GKLSGenerator.dissipator", 7.0, 7.1, -1),
    ]
    agg = tracer.aggregate(spans)
    assert agg["lindblad.GKLSGenerator.liouvillian.misses"] == 1
    assert agg["lindblad.GKLSGenerator.dissipator.misses"] == 1
    assert agg["lindblad.GKLSGenerator.dissipator.calls"] == 2


def _qthermo_bindings():
    import qthermo.cli  # noqa: F401  (loads every module the tracer wraps)

    mods = {k: m for k, m in sys.modules.items() if k == "qthermo" or k.startswith("qthermo.")}
    snap = {(k, a): v for k, m in mods.items() for a, v in vars(m).items()}
    from qthermo.lindblad import GKLSGenerator

    snap.update({("GKLSGenerator", a): v for a, v in vars(GKLSGenerator).items()})
    return snap


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import numpy as np
    from qthermo import baths, cli, floquet, lindblad, machines, operators, states
    from qthermo.operators import PAULI_X, PAULI_Z, Operator

    before = _qthermo_bindings()
    t = tracer.Tracer(run_id=7)
    t.install()
    try:
        for module, name in [(lindblad, "stationary_state"), (machines, "stationary_state"),
                             (floquet, "stationary_state"), (lindblad, "spectral_density"),
                             (lindblad, "dissipator_superop"), (lindblad, "gibbs_state"),
                             (cli, "build_davies"), (cli, "trajectory")]:
            assert getattr(module, name) is not before[(module.__name__, name)], name
        assert operators.dissipator_superop is lindblad.dissipator_superop
        assert baths.spectral_density is lindblad.spectral_density
        assert states.gibbs_state is lindblad.gibbs_state

        h = Operator.hermitian(0.5 * PAULI_Z)
        bath = baths.BathSpec(label="b", temperature=1.0, gamma=0.2)
        gen = lindblad.build_davies(h, [(Operator.hermitian(PAULI_X), bath)])
        rho = lindblad.stationary_state(gen)
        assert np.isclose(np.trace(rho.mat).real, 1.0)
    finally:
        t.uninstall()
    after = _qthermo_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = [s.name for s in t.spans]
    assert names[0] == "lindblad.build_davies"
    assert "baths.spectral_density" in names and "operators.dissipator_superop" in names
    assert all(s.run_id == 7 and s.end >= s.start for s in t.spans)
    root = names.index("lindblad.stationary_state")
    liou = t.spans[root + 1]
    assert liou.name == "lindblad.GKLSGenerator.liouvillian" and liou.parent == root
    agg = tracer.aggregate(t.spans)
    assert agg["lindblad.GKLSGenerator.liouvillian.misses"] == 1
    assert agg["lindblad.stationary_state.side"] == 4


def test_default_seed_reproduces_the_shipped_configs(tmp_path):
    wl = WORKLOADS["tricycle-steady"]
    (name, cfg), _ = make_configs(wl, DEFAULT_SEED, ROOT / "configs", tmp_path)
    shipped = json.loads((ROOT / "configs" / "third_law_sweep.json").read_text())
    assert cfg == dict(shipped, output_dir=str(tmp_path / name))


def test_seed_sets_config_seed_and_jitters_gamma_within_band(tmp_path):
    wl = WORKLOADS["cycles-ledgers"]
    base = dict(make_configs(wl, DEFAULT_SEED, ROOT / "configs", tmp_path))
    one = dict(make_configs(wl, 5, ROOT / "configs", tmp_path))
    assert one == dict(make_configs(wl, 5, ROOT / "configs", tmp_path))
    for name in ("evolve_oscillator", "floquet_fridge"):
        b, c = base[name], one[name]
        assert c["seed"] == b["seed"] + 5
        for bb, cb in zip(b["params"]["baths"], c["params"]["baths"]):
            assert cb["gamma"] != bb["gamma"]
            assert abs(cb["gamma"] / bb["gamma"] - 1.0) <= GAMMA_BAND
    assert one["otto_optimize"] == base["otto_optimize"]


def test_artifact_check_uses_the_dynamical_tolerance(tmp_path):
    ref = REFERENCE / "tricycle-steady" / "tricycle_d27"
    out = tmp_path / "tricycle_d27"
    shutil.copytree(ref, out)
    assert check_artifacts(out, ref, values=True) == []
    header, row = (out / "steady.csv").read_text().splitlines()
    fields = row.split(",")
    for delta, ok in ((0.1 * DYNAMICAL, True), (10 * DYNAMICAL, False)):
        bumped = [str(float(fields[0]) + delta)] + fields[1:]
        (out / "steady.csv").write_text(f"{header}\n{','.join(bumped)}\n")
        assert (check_artifacts(out, ref, values=True) == []) is ok
        assert check_artifacts(out, ref, values=False) == []
    cert = (out / "certificate.csv").read_text().replace("true", "false", 1)
    (out / "certificate.csv").write_text(cert)
    assert check_artifacts(out, ref, values=False)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile([1.0] * 19) is None
    assert tail_percentile(list(range(20)))[0] == 50.0
    assert tail_percentile(list(range(1000)))[0] == 99.0


def test_scaling_uses_the_calibration_next_to_each_timing():
    u = REFERENCE_UNIT_S
    res = {"setup_s": 0.9, "runs": [{"wall_s": 2.0}, {"wall_s": 3.0}],
           "cal_s": [u, 2 * u, 2 * u]}
    # the first config ran at 2/3 of the reference speed, the second at 1/2
    assert reference_wall(res) == pytest.approx(2.0 / 1.5 + 3.0 / 2.0)
    assert reference_setup(res) == pytest.approx(0.9)
    assert reference_setup(dict(res, cal_s=[2 * u])) == pytest.approx(0.45)
