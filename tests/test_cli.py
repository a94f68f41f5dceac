import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo import cli
from qthermo import machines as mc
from qthermo.cli import (
    ConfigError,
    LawCertificate,
    describe,
    list_experiments,
    load_config,
    main,
    run,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _with_outdir(tmp_path, name):
    cfg = json.loads((CONFIGS / name).read_text())
    cfg["output_dir"] = str(tmp_path / "out")
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


class TestCertificate:
    def test_verdict_from_stored_numbers(self):
        cert = LawCertificate([])
        cert.add("margin", 1e-12, -1e-9, ">=")
        cert.add("residual", 1e-11, 1e-9, "<=")
        assert cert.passed()
        cert.add("broken", -1.0, 0.0, ">=")
        assert not cert.passed()
        csv = cert.to_csv()
        assert csv.splitlines()[0] == "check,value,threshold,sense,pass"
        assert csv.count("false") == 1

    def test_nan_fails(self):
        cert = LawCertificate([])
        cert.add("x", math.nan, 0.0, ">=")
        assert not cert.passed()

    @pytest.mark.parametrize("value", [-1.0, 0.0, 1.0, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("threshold", [0.0, math.nan])
    @pytest.mark.parametrize("sense", [">=", "<="])
    def test_pass_column_is_the_verdict_of_its_row(self, value, threshold, sense):
        cert = LawCertificate([])
        cert.add("x", value, threshold, sense)
        column = cert.to_csv().splitlines()[1].rsplit(",", 1)[1]
        assert column == ("true" if cert.passed() else "false")
        expected = not (math.isnan(value) or math.isnan(threshold)) and (
            value >= threshold if sense == ">=" else value <= threshold)
        assert cert.passed() == expected



_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.booleans(),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62).map(np.int64),
    st.booleans().map(np.bool_),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=st.integers(min_value=0, max_value=6).flatmap(lambda width: st.tuples(
           st.just(width), st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=5))),
       odd=st.lists(st.lists(st.one_of(_CELLS, st.text(alphabet="abc_<=", max_size=4)),
                             max_size=7), max_size=2))
def test_csv_rows_are_the_cell_by_cell_text(table, odd):
    # rows of numbers as long as the header, written by one format, and
    # rows with strings or of another length, against the per-cell route
    width, rows = table
    rows = rows + odd
    header = [f"h{k}" for k in range(width)]
    cells = [",".join(v if isinstance(v, str) else cli._fmt(v) for v in row) for row in rows]
    assert cli._csv(header, rows) == "\n".join([",".join(header), *cells]) + "\n"
    assert cli._csv(header, iter(map(tuple, rows))) == cli._csv(header, rows)

class TestConfigValidation:
    def test_unknown_kind(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"kind": "warp-drive"}))
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            load_config(str(p))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus_knob"):
            load_config(str(CONFIGS / "bad_unknown_key.json"))

    def test_empty_config_exit_1(self):
        assert run(str(CONFIGS / "empty.json")) == 1

    def test_missing_file_exit_1(self):
        assert run("/nonexistent/config.json") == 1

    def test_describe_all_kinds(self):
        listing = list_experiments()
        assert listing.count("\n") == 9  # header plus nine kinds
        for kind in (
            "evolve", "davies-audit", "otto", "otto-optimize", "tricycle",
            "third-law-sweep", "floquet", "eth-check", "correlations",
        ):
            assert kind in listing
            assert "parameters" in describe(kind)

    def test_describe_unknown_kind(self):
        with pytest.raises(ConfigError):
            describe("bogus")

    def test_main_entry_points(self, capsys):
        assert main(["list"]) == 0
        assert "tricycle" in capsys.readouterr().out
        assert main(["describe", "otto"]) == 0
        capsys.readouterr()
        assert main(["describe", "bogus"]) == 1


# the text of ``qthermo list`` and then of ``qthermo describe`` for every
# kind, in kind order: kinds, schema keys, types, defaults and marks
_CLI_TEXT = """\
available experiment kinds:
  evolve
  davies-audit
  otto
  otto-optimize
  tricycle
  third-law-sweep
  floquet
  eth-check
  correlations

experiment 'evolve'
parameters (with defaults where set):
  medium: object = {"kind": "qubit"}
  omega: number = 1.0
  baths: array (required)
  initial: str = "excited"
  t_final: number = 20.0
  points: int = 200
top-level keys: kind, seed, output_dir, params, tolerance_overrides

experiment 'davies-audit'
parameters (with defaults where set):
  medium: object = {"kind": "qubit"}
  omega: number = 1.0
  baths: array (required)
top-level keys: kind, seed, output_dir, params, tolerance_overrides

experiment 'otto'
parameters (with defaults where set):
  medium: object = {"kind": "qubit"}
  omega_h: number = 2.0
  omega_c: number = 1.0
  bath_h: object (required)
  bath_c: object (required)
  tau_h: number = 20.0
  tau_c: number = 20.0
  tau_hc: number = 1.0
  tau_ch: number = 1.0
  protocol: str = "adiabatic"
  order: str = "engine"
  dephase_after_adiabats: bool = false
top-level keys: kind, seed, output_dir, params, tolerance_overrides

experiment 'otto-optimize'
parameters (with defaults where set):
  medium: object = {"kind": "qubit"}
  omega_h: number = 6.0
  omega_c: number = 3.0
  bath_h: object (required)
  bath_c: object (required)
  tau_h: number = 2.0
  tau_c: number = 2.0
  tau_hc: number = 0.01
  tau_ch: number = 0.01
  protocol: str = "adiabatic"
  free: object (required)
top-level keys: kind, seed, output_dir, params, tolerance_overrides

experiment 'tricycle'
parameters (with defaults where set):
  omega_h: number = 3.0
  omega_c: number = 1.0
  bath_h: object (required)
  bath_c: object (required)
  bath_w: object (required)
  eps: number = 0.05
  representation: str = "qubits"
  oscillator_levels: int = 3
top-level keys: kind, seed, output_dir, params, tolerance_overrides

experiment 'third-law-sweep'
parameters (with defaults where set):
  omega_h: number = 3.0
  omega_c: number = 1.0
  bath_h: object (required)
  bath_c: object (required)
  bath_w: object (required)
  eps: number = 0.001
  representation: str = "qubits"
  oscillator_levels: int = 3
  t_c_grid: array (required)
  ratio_lo: number = 0.2
  ratio_hi: number = 3.0
top-level keys: kind, seed, output_dir, params, tolerance_overrides

experiment 'floquet'
parameters (with defaults where set):
  omega0: number = 1.0
  amplitude: number = 0.6
  drive_omega: number = 0.45
  baths: array (required)
  q_max: int = 5
  grid_points: int = 512
top-level keys: kind, seed, output_dir, params, tolerance_overrides

experiment 'eth-check'
parameters (with defaults where set):
  n_spins: int = 8
  field_scale: number = 0.5
  window: number = 0.4
  site: int = 4
top-level keys: kind, seed, output_dir, params, tolerance_overrides

experiment 'correlations'
parameters (with defaults where set):
  medium: object = {"kind": "qubit"}
  omega: number = 1.0
  beta: number = 1.0
top-level keys: kind, seed, output_dir, params, tolerance_overrides
"""


def test_list_and_describe_text_pinned():
    kinds = [line.strip() for line in list_experiments().splitlines()[1:]]
    text = "\n\n".join([list_experiments()] + [describe(k) for k in kinds])
    assert text + "\n" == _CLI_TEXT


class TestRunners:
    def test_evolve_pass(self, tmp_path):
        p = _with_outdir(tmp_path, "evolve_qubit.json")
        assert run(str(p)) == 0
        out = tmp_path / "out"
        cert = (out / "certificate.csv").read_text()
        assert "false" not in cert
        ledger = (out / "ledger.csv").read_text()
        assert ledger.splitlines()[0] == "t,E,P,S_vn,sigma,J_bath"

    def test_evolve_kms_fault_exit_2(self, tmp_path):
        p = _with_outdir(tmp_path, "evolve_kms_fault.json")
        assert run(str(p)) == 2
        cert = (tmp_path / "out" / "certificate.csv").read_text()
        assert "false" in cert

    def test_evolve_excited_oscillator_starts_in_its_top_level(self, tmp_path):
        # a 4-level oscillator at omega = 1 starts in |3>, E = 3, and gives
        # heat to its cold bath
        cfg = {"kind": "evolve", "output_dir": str(tmp_path / "out"),
               "params": {"medium": {"kind": "oscillator", "levels": 4},
                          "baths": [{"label": "b", "temperature": 0.1, "form_factor": "ohmic",
                                     "gamma": 0.2, "cutoff": 10.0}],
                          "initial": "excited", "t_final": 0.5, "points": 11}}
        p = tmp_path / "excited.json"
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 0
        first = (tmp_path / "out" / "ledger.csv").read_text().splitlines()[1]
        t, e, *_, j_b = map(float, first.split(","))
        assert t == 0.05 and 2.9 < e < 3.0 and j_b < 0

    def test_davies_audit(self, tmp_path):
        p = _with_outdir(tmp_path, "davies_audit_oscillator.json")
        assert run(str(p)) == 0

    def test_otto_engine(self, tmp_path):
        p = _with_outdir(tmp_path, "otto_engine.json")
        assert run(str(p)) == 0
        row = (tmp_path / "out" / "cycle.csv").read_text().splitlines()[1]
        cols = row.split(",")
        assert float(cols[4]) == pytest.approx(0.5, abs=1e-8)  # eta

    def test_otto_heats_follow_the_bath_labels(self, tmp_path):
        # relabelled baths give the hot/cold run's cycle.csv byte for byte
        p = _with_outdir(tmp_path, "otto_engine.json")
        assert run(str(p)) == 0
        expected = (tmp_path / "out" / "cycle.csv").read_bytes()
        cfg = json.loads(p.read_text())
        cfg["params"]["bath_h"]["label"] = "H"
        cfg["params"]["bath_c"]["label"] = "C"
        cfg["output_dir"] = str(tmp_path / "relabelled")
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 0
        assert (tmp_path / "relabelled" / "cycle.csv").read_bytes() == expected

    def test_otto_baths_sharing_a_label_rejected(self, tmp_path, capsys):
        p = _with_outdir(tmp_path, "otto_engine.json")
        cfg = json.loads(p.read_text())
        cfg["params"]["bath_c"]["label"] = cfg["params"]["bath_h"]["label"]
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'hot'" in err
        assert not (tmp_path / "out").exists()

    def test_tricycle(self, tmp_path):
        p = _with_outdir(tmp_path, "tricycle_fridge.json")
        assert run(str(p)) == 0

    def test_uncoupled_tricycle_is_not_unique(self, tmp_path, capsys):
        # no bath reaches the filters: a model error, exit 1, at d = 8
        cfg = json.loads((CONFIGS / "tricycle_fridge.json").read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        for bath in ("bath_h", "bath_c", "bath_w"):
            cfg["params"][bath]["coupling"] = 0
        p = tmp_path / "uncoupled.json"
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 1
        err = capsys.readouterr().err
        assert "error: stationary state not unique" in err
        assert "internal error" not in err and "Traceback" not in err

    def test_internal_error_keeps_its_traceback(self, tmp_path, capsys, monkeypatch):
        # a bug in a runner (here a KeyError) is reported apart from config
        # and model errors, with its traceback; the exit code stays 1
        def broken(cfg):
            return {}["missing"]

        monkeypatch.setitem(cli._KINDS, "evolve",
                            dataclasses.replace(cli._KINDS["evolve"], runner=broken))
        p = _with_outdir(tmp_path, "evolve_qubit.json")
        assert run(str(p)) == 1
        err = capsys.readouterr().err
        assert err.startswith("internal error: 'missing'\n")
        assert "Traceback" in err and "KeyError" in err and "in broken" in err
        assert not (tmp_path / "out").exists()

    def test_correlations(self, tmp_path):
        p = _with_outdir(tmp_path, "correlations_qubit.json")
        assert run(str(p)) == 0

    def test_eth(self, tmp_path):
        p = _with_outdir(tmp_path, "eth_chain.json")
        assert run(str(p)) == 0

    def test_floquet(self, tmp_path):
        p = _with_outdir(tmp_path, "floquet_fridge.json")
        assert run(str(p)) == 0
        report = (tmp_path / "out" / "limit_cycle.csv").read_text()
        assert "refrigerator" in report

    def test_floquet_regime_follows_the_coldest_bath(self, tmp_path):
        # relabelled baths give the hot/cold run's row, its regime included
        p = _with_outdir(tmp_path, "floquet_fridge.json")
        assert run(str(p)) == 0
        expected = (tmp_path / "out" / "limit_cycle.csv").read_text()
        cfg = json.loads(p.read_text())
        for bath, label in zip(cfg["params"]["baths"], ("H", "C"), strict=True):
            bath["label"] = label
        cfg["output_dir"] = str(tmp_path / "relabelled")
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 0
        report = (tmp_path / "relabelled" / "limit_cycle.csv").read_text()
        assert report == expected.replace("J_hot,J_cold", "J_H,J_C")
        assert "refrigerator" in report

    def test_floquet_baths_sharing_a_label_rejected(self, tmp_path, capsys):
        p = _with_outdir(tmp_path, "floquet_fridge.json")
        cfg = json.loads(p.read_text())
        for bath in cfg["params"]["baths"]:
            bath["label"] = "hot"
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'hot'" in err
        assert not (tmp_path / "out").exists()

    def test_byte_identical_reruns(self, tmp_path):
        p = _with_outdir(tmp_path, "evolve_qubit.json")
        assert run(str(p)) == 0
        first = {
            f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()
        }
        assert run(str(p)) == 0
        second = {
            f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()
        }
        assert first == second

    def test_sweep_rerun_byte_identical(self, tmp_path):
        cfg = json.loads((CONFIGS / "third_law_sweep.json").read_text())
        cfg["params"]["t_c_grid"] = [0.4, 0.2, 0.1]
        cfg["output_dir"] = str(tmp_path / "a")
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 0
        first = (tmp_path / "a" / "sweep.csv").read_bytes()
        cfg["output_dir"] = str(tmp_path / "b")
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 0
        assert (tmp_path / "b" / "sweep.csv").read_bytes() == first

    def test_tricycle_ladder4(self, tmp_path):
        # four levels per filter, d = 64; the dense 4096 x 4096
        # Liouvillian of this machine needs about 1.4 GB
        p = _with_outdir(tmp_path, "tricycle_ladder4.json")
        assert run(str(p)) == 0
        rows = (tmp_path / "out" / "certificate.csv").read_text().splitlines()[1:]
        assert rows and all(row.endswith(",true") for row in rows)


def test_blas_thread_count_preserves_output(tmp_path):
    # OpenBLAS reads its thread count once per process, so each thread
    # count gets one fresh interpreter that runs every shipped config in
    # turn; exit codes and the sha256 of every artifact must match
    # golden_artifacts.json, recorded under one BLAS thread
    golden = json.loads((Path(__file__).parent / "golden_artifacts.json").read_text())
    assert sorted(golden) == sorted(p.stem for p in CONFIGS.glob("*.json"))
    src = str(CONFIGS.parent / "src")
    script = ("import sys; from qthermo.cli import run; "
              "print([run(p) for p in sys.argv[1:]])")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        paths = []
        for name in golden:
            try:
                cfg = json.loads((CONFIGS / f"{name}.json").read_text())
            except json.JSONDecodeError:  # a config that must fail to load
                paths.append(str(CONFIGS / f"{name}.json"))
                continue
            cfg["output_dir"] = str(tmp_path / threads / name)
            p = tmp_path / f"{name}_{threads}.json"
            p.write_text(json.dumps(cfg))
            paths.append(str(p))
        proc = subprocess.run([sys.executable, "-c", script, *paths],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        codes = [entry["exit"] for entry in golden.values()]
        assert proc.stdout.splitlines()[-1] == str(codes), proc.stderr
        for name, entry in golden.items():
            out = tmp_path / threads / name
            got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in out.iterdir()} if out.exists() else {}
            assert got == entry["artifacts"], (threads, name)


def test_no_shipped_run_loads_scipy_optimize():
    # a fresh interpreter, since the tests in this process import
    # scipy.optimize themselves
    src = str(CONFIGS.parent / "src")
    script = f"""
import sys, warnings
from pathlib import Path
import qthermo.cli as cli
from qthermo import machines as mc
loaded = {{}}
for p in Path({str(CONFIGS)!r}).glob("*.json"):
    try:
        loaded[p.stem] = cli.load_config(str(p))
    except cli.ConfigError:
        pass
p = loaded["otto_optimize"]["params"]
free = {{k: tuple(v) for k, v in p["free"].items()}}
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    mc.optimize_power(cli._otto_spec(p, "otto-optimize"), free, restarts=1, max_evals=10)
p = loaded["third_law_sweep"]["params"]
mc.third_law_sweep(cli._tricycle_spec(p, "third-law-sweep"), [0.4])
print(sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestConfigEntryTypes:
    """A value of the wrong type is a config error that writes nothing,
    never a run on a coerced value or an internal error.  JSON true and
    false are not numbers, although bool subclasses int.  An empty sweep
    grid or free set is one too: it would certify a header alone, or an
    optimum over nothing."""

    @pytest.mark.parametrize("name, edit, message", [
        ("evolve_qubit.json", lambda c: c["params"].update(omega=True),
         "key 'omega' in params of evolve has type bool"),
        ("evolve_qubit.json", lambda c: c.update(seed=False),
         "key 'seed' in config root has type bool"),
        ("evolve_qubit.json", lambda c: c.update(tolerance_overrides={"first_law_residual": False}),
         "tolerance override 'first_law_residual' must be a number"),
        ("evolve_qubit.json", lambda c: c["params"]["baths"].append(3),
         "bath in evolve.baths must be an object, got int"),
        ("third_law_sweep.json", lambda c: c["params"]["t_c_grid"].append({}),
         "t_c_grid entries must be numbers"),
        ("otto_optimize.json", lambda c: c["params"]["free"].update(tau_h=[{}, 6.0]),
         "bounds of 'tau_h' must be two numbers"),
        ("third_law_sweep.json", lambda c: c["params"].update(t_c_grid=[]),
         "t_c_grid must hold at least one temperature"),
        ("otto_optimize.json", lambda c: c["params"].update(free={}),
         "free must name at least one parameter to optimise"),
    ], ids=["bool-param", "bool-seed", "bool-override", "bath-entry", "t_c_grid-entry",
            "free-bound", "empty-t_c_grid", "empty-free"])
    def test_wrong_type_is_a_config_error(self, tmp_path, capsys, name, edit, message):
        cfg = json.loads((CONFIGS / name).read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        edit(cfg)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()


class TestOttoOptimizeSearchesOnlyBoxesOfCycles:
    """A ``free`` box holding a point that is no cycle (a bound that is
    not finite, a negative duration, a frequency at or below zero, ω_c at
    or above ω_h at a corner) or no point at all is a config error that
    names its key, raised before any cycle is evaluated."""

    @pytest.mark.parametrize("free, message", [
        ({"tau_h": [math.nan, 2.0]}, "bounds of 'tau_h' must be finite"),
        ({"tau_h": [0.3, math.inf]}, "bounds of 'tau_h' must be finite"),
        ({"tau_h": [-1.0, 2.0]}, "bounds of 'tau_h' must be >= 0: it is a stroke duration"),
        ({"omega_c": [1.8, 7.0]}, "bounds of 'omega_c' must keep omega_h > omega_c at every "
                                  "corner, but reach omega_c = 7 with omega_h = 6"),
        ({"omega_c": [1.8, 6.0]}, "bounds of 'omega_c' must keep omega_h > omega_c at every "
                                  "corner, but reach omega_c = 6 with omega_h = 6"),
        ({"omega_h": [2.5, 8.0]}, "bounds of 'omega_h' must keep omega_h > omega_c at every "
                                  "corner, but reach omega_c = 3 with omega_h = 2.5"),
        ({"omega_c": [1.0, 4.0], "omega_h": [3.5, 8.0]},
         "bounds of 'omega_c' and 'omega_h' must keep omega_h > omega_c at every corner, "
         "but reach omega_c = 4 with omega_h = 3.5"),
        ({"omega_c": [0.0, 2.0]}, "bounds of 'omega_c' must be > 0: it is a frequency"),
        ({"omega_c": [5.4, 1.8]}, "bounds of 'omega_c' must have lo <= hi, got [5.4, 1.8]"),
    ], ids=["nan", "infinite", "negative-duration", "omega_c-above-omega_h",
            "omega_c-at-omega_h", "omega_h-below-omega_c", "both-frequencies",
            "zero-frequency", "reversed"])
    def test_config_error_before_any_evaluation(self, tmp_path, capsys, monkeypatch, free,
                                                message):
        cfg = json.loads((CONFIGS / "otto_optimize.json").read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["params"]["free"] = free
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        evaluated = []
        monkeypatch.setattr(mc, "_otto_stack", evaluated.append)
        assert run(str(p)) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert evaluated == []
        assert not (tmp_path / "out").exists()

    def test_a_box_touching_zero_duration_runs(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "otto_optimize.json").read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["params"]["free"] = {"tau_c": [0.0, 1.0]}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 0
        assert ": PASS" in capsys.readouterr().out


class TestThirdLawBracketHoldsAColdFrequency:
    """A cold-frequency bracket [ratio_lo, ratio_hi] T_c that holds no
    frequency above zero, or is reversed, is a config error that names its
    key, raised before any steady state is solved."""

    @pytest.mark.parametrize("ratios, message", [
        ({"ratio_lo": 0}, "ratio_lo must be > 0, got 0"),
        ({"ratio_lo": -0.5}, "ratio_lo must be > 0, got -0.5"),
        ({"ratio_lo": 2, "ratio_hi": 0.5}, "ratio_hi must be >= ratio_lo = 2, got 0.5"),
    ], ids=["zero", "negative", "reversed"])
    def test_config_error_before_any_solve(self, tmp_path, capsys, monkeypatch, ratios,
                                           message):
        cfg = json.loads((CONFIGS / "third_law_sweep.json").read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["params"].update(ratios)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        solved = []
        monkeypatch.setattr(mc, "_tricycle_steady_stack", solved.append)
        assert run(str(p)) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert solved == []
        assert not (tmp_path / "out").exists()


class TestUndescribableRunsAreErrors:
    """A config that describes no run is an error that names its key,
    never an internal error."""

    @pytest.mark.parametrize("name, edit, message", [
        ("eth_chain.json", lambda p: p.update(n_spins=-1),
         "config error: n_spins must be at least 1"),
        ("eth_chain.json", lambda p: p.update(n_spins=0),
         "config error: n_spins must be at least 1"),
        ("tricycle_fridge.json", lambda p: p.update(representation="oscillators",
                                                    oscillator_levels=1),
         "error: need at least 2 oscillator levels"),
        ("davies_audit_oscillator.json", lambda p: p.update(baths=[]),
         "config error: baths must hold at least one bath"),
        ("floquet_fridge.json", lambda p: p.update(baths=[]),
         "config error: baths must hold at least one bath"),
        ("evolve_qubit.json", lambda p: p.update(points=0),
         "config error: points must be at least 2"),
        ("evolve_qubit.json", lambda p: p.update(points=1),
         "config error: points must be at least 2"),
        ("floquet_fridge.json", lambda p: p.update(drive_omega=0),
         "error: drive frequency big_omega must be positive"),
        ("evolve_qubit.json", lambda p: p.update(medium={"kind": "oscillator", "levels": 1}),
         "error: need at least 2 oscillator levels"),
        ("evolve_qubit.json", lambda p: p.update(medium={"kind": "oscillator", "levels": 0}),
         "error: need at least 2 oscillator levels"),
        ("otto_engine.json", lambda p: p.update(medium={"kind": "oscillator", "levels": 1}),
         "error: need at least 2 oscillator levels"),
        ("davies_audit_oscillator.json", lambda p: p["medium"].update(levels=1),
         "error: need at least 2 oscillator levels"),
        ("correlations_qubit.json", lambda p: p.update(medium={"kind": "oscillator", "levels": 1}),
         "error: need at least 2 oscillator levels"),
    ], ids=["eth-negative-spins", "eth-no-spins", "tricycle-one-level", "audit-no-baths",
            "floquet-no-baths", "evolve-no-points", "evolve-one-point", "floquet-no-drive",
            "evolve-one-level", "evolve-no-levels", "otto-one-level", "audit-one-level",
            "correlations-one-level"])
    def test_exit_1_with_an_error_naming_the_key(self, tmp_path, capsys, name, edit, message):
        cfg = json.loads((CONFIGS / name).read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        edit(cfg["params"])
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "internal error" not in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestColdBathsAreNotInternalErrors:
    """A bosonic bath at T = 0.001 puts beta omega far above 709.78, where
    exp(beta omega) - 1 overflows a double; each run certifies as a
    warmer bath does."""

    @pytest.mark.parametrize("name, edit", [
        ("evolve_qubit.json", lambda p: p["baths"][0].update(temperature=0.001)),
        ("otto_engine.json", lambda p: p["bath_c"].update(temperature=0.001)),
        ("tricycle_fridge.json", lambda p: p["bath_h"].update(temperature=0.001)),
        ("davies_audit_oscillator.json", lambda p: p["baths"][0].update(temperature=0.001)),
    ], ids=["evolve", "otto-cold", "tricycle-hot", "davies-audit"])
    def test_exit_0_and_pass(self, tmp_path, capsys, name, edit):
        cfg = json.loads((CONFIGS / name).read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        edit(cfg["params"])
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 0
        captured = capsys.readouterr()
        assert ": PASS" in captured.out
        assert "error" not in captured.err


class TestOneDecompositionPerHamiltonian:
    """Each run diagonalises its Hamiltonian once: the decomposition that
    build_davies computes, or the first one, travels with H to the
    eigenvectors of the initial state, the audit's Gibbs state and the
    correlation series, which before diagonalised it again."""

    @pytest.mark.parametrize("name", ["correlations_qubit.json", "evolve_qubit.json",
                                      "davies_audit_oscillator.json"])
    def test_the_run_diagonalises_its_hamiltonian_once(self, tmp_path, monkeypatch, name):
        cfg = json.loads((CONFIGS / name).read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        p = tmp_path / name
        p.write_text(json.dumps(cfg))
        params = cfg["params"]
        h = cli._parse_medium(params["medium"], "medium").hamiltonian(float(params["omega"])).mat
        # every eigh and eigvalsh of a matrix with the bits of H, batched or
        # not, wherever it is called
        seen = []

        def recording(fn):
            def wrapped(a, *args, **kwargs):
                mats = np.asarray(a).reshape(-1, *np.shape(a)[-2:])
                seen.extend(1 for m in mats if m.shape == h.shape and m.tobytes() == h.tobytes())
                return fn(a, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
        assert run(str(p)) == 0
        assert len(seen) == 1


class TestZeroTemperatureBathsAreNamedErrors:
    """A bath at T = 0 whose heat enters an entropy-flow sum has no Q / T:
    the run is an error that names the bath, not an internal error.  With
    T_h = T_c the Carnot COP has no finite bound, and the run certifies."""

    @pytest.mark.parametrize("name, edit, label", [
        ("otto_engine.json", lambda p: p["bath_h"].update(temperature=0), "hot"),
        ("otto_engine.json", lambda p: p["bath_c"].update(temperature=0), "cold"),
        ("otto_optimize.json", lambda p: p["bath_c"].update(temperature=0), "cold"),
        ("tricycle_fridge.json", lambda p: p["bath_h"].update(temperature=0), "hot"),
        ("tricycle_fridge.json", lambda p: p["bath_w"].update(temperature=0), "work"),
        ("third_law_sweep.json", lambda p: p["bath_w"].update(temperature=0), "work"),
        ("floquet_fridge.json", lambda p: p["baths"][0].update(temperature=0), "hot"),
        ("floquet_fridge.json", lambda p: p["baths"][1].update(temperature=0), "cold"),
    ], ids=["otto-hot", "otto-cold", "optimize-cold", "tricycle-hot", "tricycle-work",
            "sweep-work", "floquet-hot", "floquet-cold"])
    def test_exit_1_naming_the_bath(self, tmp_path, capsys, name, edit, label):
        cfg = json.loads((CONFIGS / name).read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        edit(cfg["params"])
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert err.startswith(f"error: bath {label!r} is at T = 0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("hot_from_cold", [False, True], ids=["t_c-raised", "t_h-lowered"])
    def test_equal_temperatures_certify(self, tmp_path, capsys, hot_from_cold):
        cfg = json.loads((CONFIGS / "otto_engine.json").read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        params = cfg["params"]
        t_h, t_c = params["bath_h"]["temperature"], params["bath_c"]["temperature"]
        if hot_from_cold:
            params["bath_h"]["temperature"] = t_c
        else:
            params["bath_c"]["temperature"] = t_h
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 0
        captured = capsys.readouterr()
        assert ": PASS" in captured.out
        assert "error" not in captured.err

    def test_carnot_cop_bound_is_infinite_unless_the_cold_bath_is_colder(self):
        spec = cli._otto_spec(load_config(str(CONFIGS / "otto_engine.json"))["params"], "otto")
        rep = mc.CycleReport(work=-1.0, q_h=-1.5, q_c=0.5, efficiency=None, cop=0.5, power=-0.1,
                             entropy_production=0.1, is_engine=False, flags=())
        for t_c, t_h in ((1.0, 1.0), (2.0, 1.0)):
            warm = dataclasses.replace(
                spec, bath_c=dataclasses.replace(spec.bath_c, temperature=t_c),
                bath_h=dataclasses.replace(spec.bath_h, temperature=t_h))
            rows = {name: value for name, value, _, _ in cli._otto_certificate(warm, rep).entries}
            assert rows["carnot_cop_bound"] == math.inf


class TestThirdLawSweepNeverPassesForWantOfRows:
    def _sweep(self, tmp_path, grid):
        cfg = json.loads((CONFIGS / "third_law_sweep.json").read_text())
        cfg["params"]["t_c_grid"] = grid
        cfg["output_dir"] = str(tmp_path / "out")
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps(cfg))
        return run(str(p))

    @pytest.mark.parametrize("grid", [[3.0], [0.4, 2.0]])
    def test_cold_bath_at_or_above_the_hot_one_is_a_config_error(self, tmp_path, capsys, grid):
        # a "cold" bath at T = 3 beside the hot one at T = 2 gave one
        # "cooling" row, which passed the monotone check for want of rows
        assert self._sweep(tmp_path, grid) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: t_c_grid must lie below the hot bath's T = 2")
        assert not (tmp_path / "out").exists()

    def test_one_cooling_row_fails_the_monotone_check(self, tmp_path):
        assert self._sweep(tmp_path, [0.4]) == 2
        rows = (tmp_path / "out" / "certificate.csv").read_text().splitlines()
        assert rows[1] == "cooling_current_monotone,0,1,>=,false"
        assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 2


class TestThirdLawSweepOnOscillatorFilters:
    """The sweep takes the tricycle's representation and filter levels, and
    a cold temperature with no solved candidate fails the certificate
    instead of reading as one that does not cool."""

    def _sweep(self, tmp_path, grid, **params):
        cfg = json.loads((CONFIGS / "third_law_sweep.json").read_text())
        cfg["params"].update(t_c_grid=grid, **params)
        cfg["output_dir"] = str(tmp_path / "out")
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps(cfg))
        return run(str(p))

    def test_three_level_oscillators_pass(self, tmp_path):
        assert self._sweep(tmp_path, [0.4, 0.17, 0.072], representation="oscillators",
                           oscillator_levels=3) == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 4 and "nan" not in "".join(rows)
        cert = (tmp_path / "out" / "certificate.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in cert[1:]] == ["cooling_current_monotone",
                                                       "conductance_min"]

    def test_unknown_representation_is_a_config_error(self, tmp_path, capsys):
        assert self._sweep(tmp_path, [0.4], representation="spins") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown representation 'spins' in third-law-sweep")
        assert not (tmp_path / "out").exists()

    def test_unsolved_cold_temperature_fails(self, tmp_path):
        # at four levels per filter every candidate's Bohr gaps collide
        # (BohrResolutionError): nothing is solved at T_c = 0.4
        assert self._sweep(tmp_path, [0.4], representation="oscillators",
                           oscillator_levels=4) == 2
        assert (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1] \
            == "0.4,nan,nan,nan,nan"
        cert = (tmp_path / "out" / "certificate.csv").read_text().splitlines()
        assert cert[1:] == ["cooling_current_monotone,0,1,>=,false",
                            "t_c_unsolved,1,0,<=,false"]

    def test_one_unsolved_temperature_among_solved_ones(self, tmp_path, monkeypatch):
        # every candidate at T_c = 0.17 collides, the others are solved: the
        # unsolved row reads nan, the others are the rows of a sweep that
        # never met it, and the count row fails
        build = cli.mc._davies_stack

        def colliding(hs, couplings, baths=None):
            return [cli.mc.BohrResolutionError("injected") if member[1].temperature == 0.17 else gen
                    for gen, member in zip(build(hs, couplings, baths), baths)]

        grid = [0.4, 0.26, 0.17, 0.11]
        (tmp_path / "all").mkdir()
        assert self._sweep(tmp_path / "all", grid) == 0
        monkeypatch.setattr(cli.mc, "_davies_stack", colliding)
        assert self._sweep(tmp_path, grid) == 2
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        ref = (tmp_path / "all" / "out" / "sweep.csv").read_text().splitlines()
        assert rows[3] == "0.17,nan,nan,nan,nan"
        assert rows[:3] + rows[4:] == ref[:3] + ref[4:]
        cert = (tmp_path / "out" / "certificate.csv").read_text().splitlines()
        assert cert[1:] == ["cooling_current_monotone,1,1,>=,true",
                            cert[2], "t_c_unsolved,1,0,<=,false"]
        assert cert[2].startswith("conductance_min,") and cert[2].endswith(",true")


class TestToleranceOverrides:
    def test_override_tightens_to_failure(self, tmp_path):
        cfg = json.loads((CONFIGS / "evolve_qubit.json").read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["tolerance_overrides"] = {"first_law_residual": 1e-30}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 2

    def test_loosening_override_rejected(self, tmp_path, capsys):
        # the KMS fault fails gibbs_residual (<= 1e-9); raising that bound
        # would print PASS, so any override that loosens a check is a config
        # error naming the check, its default and the requested value
        cfg = json.loads((CONFIGS / "evolve_kms_fault.json").read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["tolerance_overrides"] = {"gibbs_residual": 1.0}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: tolerance override 'gibbs_residual' loosens")
        assert "default 1e-09, requested 1" in err
        assert not (tmp_path / "out").exists()
        # a lower bound is loosened by lowering it
        cfg = json.loads((CONFIGS / "evolve_qubit.json").read_text())
        cfg["output_dir"] = str(tmp_path / "out2")
        cfg["tolerance_overrides"] = {"second_law_min_margin": -1.0}
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 1
        assert "default -1e-09, requested -1" in capsys.readouterr().err
        # an override equal to the default, or tighter, is accepted
        cfg["tolerance_overrides"] = {"second_law_min_margin": -1e-9, "first_law_residual": 1e-7}
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 0

    def test_unknown_override_rejected(self, tmp_path):
        cfg = json.loads((CONFIGS / "evolve_qubit.json").read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["tolerance_overrides"] = {"no_such_check": 1.0}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run(str(p)) == 1


class TestGoldenDryRun:
    GOLDEN = {"a": {"artifacts": {"x.csv": "11", "y.csv": "22"}, "exit": 0},
              "b": {"artifacts": {}, "exit": 1}}

    def test_mismatches_listed_one_per_line(self):
        import regen_golden

        assert regen_golden.golden_mismatches(self.GOLDEN, json.loads(json.dumps(self.GOLDEN))) == []
        got = {"a": {"artifacts": {"x.csv": "12", "z.csv": "33"}, "exit": 2},
               "c": {"artifacts": {}, "exit": 0}}
        assert regen_golden.golden_mismatches(self.GOLDEN, got) == [
            "a: exit 2, golden 0",
            "a/x.csv: sha256 12, golden 11",
            "a/y.csv: only in the golden file",
            "a/z.csv: only in the run",
            "b: only in the golden file",
            "c: only in the run",
        ]

    def test_dry_run_exits_1_on_a_mismatch_and_leaves_the_file(self, tmp_path, monkeypatch,
                                                                capsys):
        import regen_golden

        golden = tmp_path / "golden.json"
        golden.write_text(json.dumps(self.GOLDEN))
        monkeypatch.setattr(regen_golden, "GOLDEN", golden)
        got = json.loads(json.dumps(self.GOLDEN))
        monkeypatch.setattr(regen_golden, "run_configs", lambda src, out: got)
        assert regen_golden.main(["--dry-run"]) == 0
        assert capsys.readouterr().out == ""
        got["b"]["exit"] = 0
        assert regen_golden.main(["--dry-run"]) == 1
        assert capsys.readouterr().out == "b: exit 0, golden 1\n"
        assert json.loads(golden.read_text()) == self.GOLDEN
