import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qthermo import cli
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
