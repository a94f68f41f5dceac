"""Configuration-driven experiment runner.

``qthermo run <config.json>`` dispatches one experiment described by a
strict JSON schema, writes CSV artifacts plus a law certificate, and
exits 0 only when every law check passes (2 on a failed check, 1 on a
config, model or internal error; an internal error keeps its
traceback).  All randomness flows from the single config seed through
a counter-based generator, so outputs are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import floquet as fl
from . import machines as mc
from .baths import BathSpec, verify_kms_ratio
from .lindblad import build_davies, davies_audit, trajectory
from .operators import PAULI_X, PAULI_Z, DensityMatrix, Operator, random_density
from .states import (
    diagonal_vs_microcanonical,
    heisenberg_chain,
    kms_check,
    site_operator,
    two_point_correlation,
)
from .tolerances import DYNAMICAL

class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _csv(header: list[str], rows) -> str:
    """CSV text of a header and rows; strings are written as they are,
    numbers through `_fmt`.  A row of numbers as long as the header is
    written by one "%.12g" format, which gives `_fmt`'s text for every
    float, int and bool; any other row is written cell by cell."""
    lines = [",".join(header)]
    fmt = ",".join(["%.12g"] * len(header))
    for row in rows:
        row = tuple(row)
        try:
            lines.append(fmt % row)
        except TypeError:  # a string, or a row of another length
            lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
    return "\n".join(lines) + "\n"


@dataclass
class LawCertificate:
    """Law-check numbers with their thresholds; the verdict is a pure
    function of the stored values."""

    entries: list[tuple[str, float, float, str]]  # name, value, threshold, sense

    def add(self, name: str, value: float, threshold: float, sense: str):
        if sense not in (">=", "<="):
            raise ValueError("sense must be >= or <=")
        self.entries.append((name, value, threshold, sense))

    @staticmethod
    def _holds(value: float, threshold: float, sense: str) -> bool:
        # NaN fails either sense
        return value >= threshold if sense == ">=" else value <= threshold

    def passed(self) -> bool:
        return all(self._holds(*entry[1:]) for entry in self.entries)

    def to_csv(self) -> str:
        return _csv(["check", "value", "threshold", "sense", "pass"],
                    [entry + ("true" if self._holds(*entry[1:]) else "false",)
                     for entry in self.entries])


# --------------------------------------------------------------------------
# strict schema validation

_BATH_KEYS = {
    "label": str,
    "temperature": (int, float, str),
    "mu": (int, float),
    "statistics": str,
    "form_factor": str,
    "gamma": (int, float),
    "cutoff": (int, float),
    "exponent": (int, float),
    "coupling": (int, float),
    "absorption_scale": (int, float),
}

_MEDIUM_KEYS = {"kind": str, "transverse": (int, float), "levels": int}


def _is_a(val, expected) -> bool:
    """isinstance, except that JSON true and false are not numbers,
    although bool subclasses int."""
    return isinstance(val, expected) and (expected is bool or not isinstance(val, bool))


def _check_keys(mapping: dict, allowed: dict, where: str):
    for key, val in mapping.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
        expected = allowed[key]
        if not _is_a(val, expected):
            raise ConfigError(
                f"key {key!r} in {where} has type {type(val).__name__}, "
                f"expected {expected}"
            )


def _parse_bath(raw: dict, where: str) -> BathSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"bath in {where} must be an object, got {type(raw).__name__}")
    _check_keys(raw, _BATH_KEYS, where)
    if "label" not in raw:
        raise ConfigError(f"bath in {where} needs a label")
    temp = raw.get("temperature", 1.0)
    if isinstance(temp, str):
        if temp not in ("inf", "infinity"):
            raise ConfigError(f"bad temperature string {temp!r} in {where}")
        temp = math.inf
    kwargs = {k: v for k, v in raw.items() if k != "temperature"}
    try:
        return BathSpec(temperature=float(temp), **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad bath in {where}: {exc}") from exc


def _parse_medium(raw: dict, where: str):
    _check_keys(raw, _MEDIUM_KEYS, where)
    kind = raw.get("kind", "qubit")
    if kind == "qubit":
        return mc.QubitMedium(transverse=float(raw.get("transverse", 0.0)))
    if kind == "oscillator":
        return mc.OscillatorMedium(levels=int(raw.get("levels", 10)))
    raise ConfigError(f"unknown medium kind {kind!r} in {where}")


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not text.strip():
        raise ConfigError(f"config {path!r} is empty")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: line {exc.lineno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    top = {"kind": str, "seed": int, "output_dir": str, "params": dict,
           "tolerance_overrides": dict}
    _check_keys(raw, top, "config root")
    kind = raw.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"unknown experiment kind {kind!r}; valid kinds: {', '.join(EXPERIMENT_KINDS)}"
        )
    entry = _KINDS[kind]
    params = dict(entry.defaults)
    user_params = raw.get("params", {})
    _check_keys(user_params, entry.schema, f"params of {kind}")
    params.update(user_params)
    missing = [k for k in entry.required if k not in params]
    if missing:
        raise ConfigError(f"experiment {kind!r} missing required params: {missing}")
    seed = raw.get("seed", 0)
    if not 0 <= seed < 2 ** 128:  # a Philox key (``_rng``)
        raise ConfigError(f"seed must be in [0, 2**128), got {seed}")
    return {
        "kind": kind,
        "seed": seed,
        "output_dir": raw.get("output_dir", "."),
        "params": params,
        "tolerances": raw.get("tolerance_overrides", {}),
    }


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


# --------------------------------------------------------------------------
# experiment runners; each returns (certificate, artifacts dict name->text)


def _run_evolve(cfg: dict):
    p = cfg["params"]
    medium = _parse_medium(p["medium"], "evolve.medium")
    baths = [_parse_bath(b, "evolve.baths") for b in p["baths"]]
    if p["points"] < 2:
        raise ConfigError("points must be at least 2: the first is t = 0")
    h = medium.hamiltonian(float(p["omega"]))
    couplings = [(medium.coupling(), b) for b in baths]
    gen = build_davies(h, couplings)
    rng = _rng(cfg["seed"])
    if p["initial"] == "excited":
        # the top eigenvector of H
        rho0 = DensityMatrix.pure(gen.h.eigh()[1][:, -1])
    elif p["initial"] == "random":
        rho0 = random_density(medium.dim, rng)
    elif p["initial"] == "mixed":
        rho0 = DensityMatrix.maximally_mixed(medium.dim)
    else:
        raise ConfigError(f"unknown initial state {p['initial']!r}")
    grid = np.linspace(0.0, float(p["t_final"]), int(p["points"]))[1:]
    ledger = trajectory(gen, rho0, grid)

    cert = LawCertificate([])
    audit = davies_audit(gen)
    cert.add("cp_min_choi_eig", audit["cp_min_eig"], -DYNAMICAL, ">=")
    cert.add("trace_drift", audit["trace_drift"], DYNAMICAL, "<=")
    if not math.isnan(audit["gibbs_residual"]):
        cert.add("gibbs_residual", audit["gibbs_residual"], DYNAMICAL, "<=")
    cert.add("detailed_balance", audit["detailed_balance"], 1e-10, "<=")
    cert.add("second_law_min_margin", float(np.min(ledger.entropy_production)), -DYNAMICAL, ">=")
    cert.add(
        "first_law_residual",
        ledger.first_law_residual() / ledger.current_scale(),
        1e-6, "<=",
    )
    header = ["t", "E", "P", "S_vn", "sigma"] + [f"J_{k}" for k in ledger.currents]
    rows = zip(ledger.times, ledger.energy, ledger.power, ledger.entropy,
               ledger.entropy_production, *ledger.currents.values())
    return cert, {"ledger.csv": _csv(header, rows)}


def _run_davies_audit(cfg: dict):
    p = cfg["params"]
    medium = _parse_medium(p["medium"], "davies-audit.medium")
    baths = [_parse_bath(b, "davies-audit.baths") for b in p["baths"]]
    if not baths:
        raise ConfigError("baths must hold at least one bath")
    h = medium.hamiltonian(float(p["omega"]))
    gen = build_davies(h, [(medium.coupling(), b) for b in baths])
    audit = davies_audit(gen)
    kms_resid = max(
        verify_kms_ratio(b, np.geomspace(0.1, min(5.0, b.cutoff), 25)) for b in baths
    )
    cert = LawCertificate([])
    cert.add("cp_min_choi_eig", audit["cp_min_eig"], -DYNAMICAL, ">=")
    cert.add("trace_drift", audit["trace_drift"], DYNAMICAL, "<=")
    cert.add("hamiltonian_dissipator_commutation", audit["hamiltonian_commute"], DYNAMICAL, "<=")
    cert.add("population_coherence_mix", audit["pop_coherence_mix"], 1e-10, "<=")
    if not math.isnan(audit["gibbs_residual"]):
        cert.add("gibbs_residual", audit["gibbs_residual"], DYNAMICAL, "<=")
    cert.add("detailed_balance", audit["detailed_balance"], 1e-10, "<=")
    cert.add("bath_kms_residual", kms_resid, DYNAMICAL, "<=")
    rows = [(ch.bath_label, ch.bohr_frequency, ch.rate) for ch in gen.channels]
    return cert, {"channels.csv": _csv(["bath", "bohr_frequency", "rate"], rows)}


def _otto_spec(p: dict, where: str) -> mc.CycleSpec:
    medium = _parse_medium(p["medium"], f"{where}.medium")
    return mc.CycleSpec(
        medium=medium,
        omega_h=float(p["omega_h"]),
        omega_c=float(p["omega_c"]),
        bath_h=_parse_bath(p["bath_h"], f"{where}.bath_h"),
        bath_c=_parse_bath(p["bath_c"], f"{where}.bath_c"),
        tau_h=float(p["tau_h"]),
        tau_c=float(p["tau_c"]),
        tau_hc=float(p["tau_hc"]),
        tau_ch=float(p["tau_ch"]),
        protocol=p["protocol"],
        order=p["order"],
        dephase_after_adiabats=bool(p["dephase_after_adiabats"]),
    )


def _otto_certificate(spec: mc.CycleSpec, rep: mc.CycleReport) -> LawCertificate:
    cert = LawCertificate([])
    scale = max(abs(rep.work), abs(rep.q_h), abs(rep.q_c), 1e-30)
    cert.add("cyclic_first_law", abs(rep.work - rep.q_h - rep.q_c) / scale, 1e-8, "<=")
    cert.add("entropy_production_per_cycle", rep.entropy_production, -DYNAMICAL, ">=")
    t_c, t_h = spec.bath_c.temperature, spec.bath_h.temperature
    if rep.is_engine and rep.efficiency is not None:
        eta_carnot = 1.0 - t_c / t_h
        cert.add("carnot_bound", eta_carnot + DYNAMICAL - rep.efficiency, 0.0, ">=")
    if rep.cop is not None:
        # no finite bound unless the cold bath is the colder
        cop_carnot = t_c / (t_h - t_c) if t_h > t_c else math.inf
        cert.add("carnot_cop_bound", cop_carnot + DYNAMICAL - rep.cop, 0.0, ">=")
    return cert


def _run_otto(cfg: dict):
    spec = _otto_spec(cfg["params"], "otto")
    rep = mc.run_otto(spec)
    cert = _otto_certificate(spec, rep)
    header = ["cycle_index", "W", "Q_h", "Q_c", "eta", "power", "entropy_production"]
    row = [0, rep.work, rep.q_h, rep.q_c,
           rep.efficiency if rep.efficiency is not None else math.nan,
           rep.power, rep.entropy_production]
    return cert, {"cycle.csv": _csv(header, [row])}


def _run_otto_optimize(cfg: dict):
    p = cfg["params"]
    spec = _otto_spec(p, "otto-optimize")
    free = {}
    for key, bounds in p["free"].items():
        if (not isinstance(bounds, list) or len(bounds) != 2
                or not all(_is_a(b, (int, float)) for b in bounds)):
            raise ConfigError(f"bounds of {key!r} must be two numbers [lo, hi]")
        free[key] = (float(bounds[0]), float(bounds[1]))
    try:
        mc._search_box(spec, free)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    best, rep = mc._optimum(spec, free, cfg["seed"])
    cert = _otto_certificate(spec, rep)
    header = list(best) + ["max_power", "eta_at_max_power"]
    eta = rep.efficiency
    row = [best[k] for k in best] + [rep.power, eta if eta is not None else math.nan]
    return cert, {"optimum.csv": _csv(header, [row])}


def _tricycle_spec(p: dict, where: str) -> mc.TricycleSpec:
    if p["representation"] not in mc.TricycleSpec.representations:
        raise ConfigError(f"unknown representation {p['representation']!r} in {where}; "
                          f"valid: {', '.join(mc.TricycleSpec.representations)}")
    return mc.TricycleSpec(
        omega_h=float(p["omega_h"]),
        omega_c=float(p["omega_c"]),
        bath_h=_parse_bath(p["bath_h"], f"{where}.bath_h"),
        bath_c=_parse_bath(p["bath_c"], f"{where}.bath_c"),
        bath_w=_parse_bath(p["bath_w"], f"{where}.bath_w"),
        eps=float(p["eps"]),
        representation=p["representation"],
        oscillator_levels=int(p["oscillator_levels"]),
    )


def _run_tricycle(cfg: dict):
    spec = _tricycle_spec(cfg["params"], "tricycle")
    st = mc.tricycle_steady(spec)
    cert = LawCertificate([])
    cert.add("steady_current_sum", st.first_law_residual, DYNAMICAL, "<=")
    cert.add("second_law_min_margin", st.second_law_value, -DYNAMICAL, ">=")
    labels = list(st.currents)
    header = [f"J_{k}" for k in labels] + ["second_law_value", "gain"]
    row = [st.currents[k] for k in labels] + [st.second_law_value, st.gain]
    return cert, {"steady.csv": _csv(header, [row])}


def _run_third_law(cfg: dict):
    p = cfg["params"]
    spec = _tricycle_spec(p, "third-law-sweep")
    if not all(_is_a(t, (int, float)) for t in p["t_c_grid"]):
        raise ConfigError("t_c_grid entries must be numbers")
    grid = [float(t) for t in p["t_c_grid"]]
    if not grid:
        raise ConfigError("t_c_grid must hold at least one temperature")
    if any(t < 1e-3 for t in grid):
        raise ConfigError("t_c_grid is floored at 1e-3")
    if max(grid) >= spec.bath_h.temperature:
        raise ConfigError(f"t_c_grid must lie below the hot bath's T = {spec.bath_h.temperature:g}")
    ratio_lo, ratio_hi = float(p["ratio_lo"]), float(p["ratio_hi"])
    # the bracket [ratio_lo, ratio_hi] T_c must hold a cold frequency
    if not ratio_lo > 0:
        raise ConfigError(f"ratio_lo must be > 0, got {ratio_lo:g}")
    if ratio_hi < ratio_lo:
        raise ConfigError(f"ratio_hi must be >= ratio_lo = {ratio_lo:g}, got {ratio_hi:g}")
    try:
        for t_c in grid:
            mc._cold_bracket(spec, t_c, ratio_lo, ratio_hi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = mc.third_law_sweep(spec, grid, ratio_lo, ratio_hi)
    cert = LawCertificate([])
    cooling = [r for r in rows if not r.no_cooling]
    js = [r.j_c for r in cooling]
    # a fall needs two cooling rows; fewer show nothing, and fail
    mono = len(js) > 1 and all(js[i] > js[i + 1] for i in range(len(js) - 1))
    cert.add("cooling_current_monotone", 1.0 if mono else 0.0, 1.0, ">=")
    if cooling:
        cert.add("conductance_min", min(r.conductance for r in cooling), 0.0, ">=")
    # a T_c whose every candidate collided was never solved: it fails, as
    # a count, and its sweep.csv row reads nan
    unsolved = sum(r.unsolved for r in rows)
    if unsolved:
        cert.add("t_c_unsolved", float(unsolved), 0.0, "<=")
    table = [(r.t_c, r.omega_c_star, r.j_c, r.conductance, r.gain) for r in rows]
    return cert, {"sweep.csv": _csv(["T_c", "omega_c_star", "J_c", "K", "G"], table)}


def _run_floquet(cfg: dict):
    p = cfg["params"]
    baths = [_parse_bath(b, "floquet.baths") for b in p["baths"]]
    if not baths:
        raise ConfigError("baths must hold at least one bath")
    # channels and currents are booked by bath label
    by_label = {}
    for b in baths:
        if b.label in by_label:
            raise ConfigError(f"two Floquet baths share the label {b.label!r}")
        by_label[b.label] = b
    sched = fl.ModulatedGapQubit(
        omega0=float(p["omega0"]),
        amplitude=float(p["amplitude"]),
        big_omega=float(p["drive_omega"]),
    )
    dec = fl.floquet_decompose(sched, sched.tau, int(p["grid_points"]))
    s_op = Operator.hermitian(PAULI_X)
    channels = fl.harmonic_decompose(dec, s_op, int(p["q_max"]), baths)
    gen = fl.build_floquet_generator(channels, dec.h_av, by_label)
    report = fl.limit_cycle_laws(gen, channels)
    cert = LawCertificate([])
    cert.add("limit_cycle_first_law", report.first_law_residual, 1e-8, "<=")
    cert.add("limit_cycle_second_law", report.second_law_value, DYNAMICAL, "<=")
    labels = list(report.currents)
    header = ["param"] + [f"J_{k}" for k in labels] + ["P", "second_law_value", "regime"]
    row = [sched.amplitude] + [report.currents[k] for k in labels] + [
        report.power, report.second_law_value, report.regime,
    ]
    return cert, {"limit_cycle.csv": _csv(header, [row])}


def _run_eth(cfg: dict):
    p = cfg["params"]
    rng = _rng(cfg["seed"])
    n = int(p["n_spins"])
    if n < 1:
        raise ConfigError("n_spins must be at least 1")
    h = heisenberg_chain(n, rng, float(p["field_scale"]))
    site = int(p["site"])
    if not 0 <= site < n:
        raise ConfigError(f"site {site} out of range for {n} spins")
    a = Operator.hermitian(site_operator(n, site, PAULI_Z))
    ket = np.zeros(2**n)
    idx = 0
    for i in range(n):
        if i % 2 == 0:
            idx |= 1 << (n - 1 - i)
    ket[idx] = 1.0
    diag, micro, gap = diagonal_vs_microcanonical(h, ket, a, float(p["window"]))
    cert = LawCertificate([])
    cert.add("diagonal_vs_microcanonical_gap", gap, 0.1 * 2.0, "<=")
    return cert, {"eth.csv": _csv(["diag_avg", "micro_avg", "gap"], [(diag, micro, gap)])}


def _run_correlations(cfg: dict):
    p = cfg["params"]
    medium = _parse_medium(p["medium"], "correlations.medium")
    h = medium.hamiltonian(float(p["omega"]))
    beta = float(p["beta"])
    a = medium.coupling()
    f_ab = two_point_correlation(h, beta, a, a)
    resid = kms_check(f_ab, f_ab, beta)
    cert = LawCertificate([])
    cert.add("kms_residual", resid, DYNAMICAL, "<=")
    rows = [(w, amp.real, amp.imag) for w, amp in zip(f_ab.omegas, f_ab.amplitudes)]
    return cert, {"correlations.csv": _csv(["omega", "amp_re", "amp_im"], rows)}


@dataclass(frozen=True)
class _Kind:
    """One experiment kind: the allowed params and their types, the params
    a config must set, the defaults of the others, and the runner."""

    schema: dict[str, object]
    required: tuple[str, ...]
    defaults: dict
    runner: Callable


# the params an Otto cycle and its power optimisation share, in the order
# `describe` lists them
_OTTO_SCHEMA = {"medium": dict, "omega_h": (int, float), "omega_c": (int, float),
                "bath_h": dict, "bath_c": dict,
                "tau_h": (int, float), "tau_c": (int, float),
                "tau_hc": (int, float), "tau_ch": (int, float),
                "protocol": str}

_KINDS: dict[str, _Kind] = {
    "evolve": _Kind(
        schema={"medium": dict, "omega": (int, float), "baths": list,
                "initial": str, "t_final": (int, float), "points": int},
        required=("baths",),
        defaults={"medium": {"kind": "qubit"}, "omega": 1.0, "initial": "excited",
                  "t_final": 20.0, "points": 200},
        runner=_run_evolve,
    ),
    "davies-audit": _Kind(
        schema={"medium": dict, "omega": (int, float), "baths": list},
        required=("baths",),
        defaults={"medium": {"kind": "qubit"}, "omega": 1.0},
        runner=_run_davies_audit,
    ),
    "otto": _Kind(
        schema={**_OTTO_SCHEMA, "order": str, "dephase_after_adiabats": bool},
        required=("bath_h", "bath_c"),
        defaults={"medium": {"kind": "qubit"}, "omega_h": 2.0, "omega_c": 1.0,
                  "tau_h": 20.0, "tau_c": 20.0, "tau_hc": 1.0, "tau_ch": 1.0,
                  "protocol": "adiabatic", "order": "engine",
                  "dephase_after_adiabats": False},
        runner=_run_otto,
    ),
    "otto-optimize": _Kind(
        schema={**_OTTO_SCHEMA, "free": dict},
        required=("bath_h", "bath_c", "free"),
        defaults={"medium": {"kind": "qubit"}, "omega_h": 6.0, "omega_c": 3.0,
                  "tau_h": 2.0, "tau_c": 2.0, "tau_hc": 0.01, "tau_ch": 0.01,
                  "protocol": "adiabatic",
                  # outside the schema, so fixed: the search maximises
                  # engine power only
                  "order": "engine", "dephase_after_adiabats": False},
        runner=_run_otto_optimize,
    ),
    "tricycle": _Kind(
        schema={"omega_h": (int, float), "omega_c": (int, float),
                "bath_h": dict, "bath_c": dict, "bath_w": dict,
                "eps": (int, float), "representation": str, "oscillator_levels": int},
        required=("bath_h", "bath_c", "bath_w"),
        defaults={"omega_h": 3.0, "omega_c": 1.0, "eps": 0.05,
                  "representation": "qubits", "oscillator_levels": 3},
        runner=_run_tricycle,
    ),
    "third-law-sweep": _Kind(
        schema={"omega_h": (int, float), "omega_c": (int, float),
                "bath_h": dict, "bath_c": dict, "bath_w": dict,
                "eps": (int, float), "representation": str, "oscillator_levels": int,
                "t_c_grid": list, "ratio_lo": (int, float), "ratio_hi": (int, float)},
        required=("bath_h", "bath_c", "bath_w", "t_c_grid"),
        defaults={"omega_h": 3.0, "omega_c": 1.0, "eps": 1e-3,
                  "representation": "qubits", "oscillator_levels": 3,
                  "ratio_lo": 0.2, "ratio_hi": 3.0},
        runner=_run_third_law,
    ),
    "floquet": _Kind(
        schema={"omega0": (int, float), "amplitude": (int, float),
                "drive_omega": (int, float), "baths": list,
                "q_max": int, "grid_points": int},
        required=("baths",),
        defaults={"omega0": 1.0, "amplitude": 0.6, "drive_omega": 0.45,
                  "q_max": 5, "grid_points": 512},
        runner=_run_floquet,
    ),
    "eth-check": _Kind(
        schema={"n_spins": int, "field_scale": (int, float), "window": (int, float),
                "site": int},
        required=(),
        defaults={"n_spins": 8, "field_scale": 0.5, "window": 0.4, "site": 4},
        runner=_run_eth,
    ),
    "correlations": _Kind(
        schema={"medium": dict, "omega": (int, float), "beta": (int, float)},
        required=(),
        defaults={"medium": {"kind": "qubit"}, "omega": 1.0, "beta": 1.0},
        runner=_run_correlations,
    ),
}

EXPERIMENT_KINDS = tuple(_KINDS)


def _apply_tolerance_overrides(cert: LawCertificate, overrides: dict):
    if not overrides:
        return
    names = {name for name, _, _, _ in cert.entries}
    for key, value in overrides.items():
        if key not in names:
            raise ConfigError(
                f"tolerance override {key!r} matches no law check "
                f"(available: {sorted(names)})"
            )
        if not _is_a(value, (int, float)):
            raise ConfigError(f"tolerance override {key!r} must be a number")
    for name, _, threshold, sense in cert.entries:
        if name not in overrides:
            continue
        value = float(overrides[name])
        # toward failure: up for a lower bound, down for an upper bound
        tighter = value >= threshold if sense == ">=" else value <= threshold
        if not tighter:
            raise ConfigError(
                f"tolerance override {name!r} loosens its check ({sense}): default "
                f"{threshold:g}, requested {value:g}; an override may only tighten"
            )
    cert.entries = [
        (name, value, float(overrides.get(name, threshold)), sense)
        for name, value, threshold, sense in cert.entries
    ]


def run(config_path: str) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        cfg = load_config(config_path)
        cert, artifacts = _KINDS[cfg["kind"]].runner(cfg)
        _apply_tolerance_overrides(cert, cfg["tolerances"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # model errors, BohrResolutionError and LinAlgError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug: keep its traceback
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        (outdir / name).write_text(text)
    (outdir / "certificate.csv").write_text(cert.to_csv())
    ok = cert.passed()
    print(f"{cfg['kind']}: {'PASS' if ok else 'FAIL'} "
          f"({len(cert.entries)} checks; artifacts in {outdir})")
    return 0 if ok else 2


def list_experiments() -> str:
    lines = ["available experiment kinds:"]
    for kind in EXPERIMENT_KINDS:
        lines.append(f"  {kind}")
    return "\n".join(lines)


def describe(kind: str) -> str:
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    lines = [f"experiment {kind!r}", "parameters (with defaults where set):"]
    entry = _KINDS[kind]
    for key, spec_t in entry.schema.items():
        if isinstance(spec_t, tuple):
            type_name = "number"
        else:
            type_name = {dict: "object", list: "array"}.get(spec_t, spec_t.__name__)
        mark = " (required)" if key in entry.required else ""
        default = f" = {json.dumps(entry.defaults[key])}" if key in entry.defaults else ""
        lines.append(f"  {key}: {type_name}{default}{mark}")
    lines.append("top-level keys: kind, seed, output_dir, params, tolerance_overrides")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qthermo",
        description="run law-certified open-system thermodynamics experiments",
    )
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to a JSON experiment file")
    sub.add_parser("list", help="list experiment kinds")
    desc_p = sub.add_parser("describe", help="show the schema of one kind")
    desc_p.add_argument("kind")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config)
    if args.command == "list":
        print(list_experiments())
        return 0
    if args.command == "describe":
        try:
            print(describe(args.kind))
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    parser.print_help()
    return 1


if __name__ == "__main__":
    sys.exit(main())
