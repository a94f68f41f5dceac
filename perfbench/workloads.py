"""Workload definitions: which configs each workload runs, and how the
workload seed turns them into the inputs of one run.

There are two workloads, each a group of configs run one after another
in the same child.  Grouping keeps every layer covered with two
workloads, so that each run can be long enough to average over the
speed changes of a shared host.

The default seed (0) reproduces the shipped configs exactly.  Any other
seed adds its value to each config's ``seed`` and scales every bath's
``gamma`` by a factor drawn from [1 - GAMMA_BAND, 1 + GAMMA_BAND].  The
scaling multiplies every rate of a bath by one constant: it leaves the
Bohr structure, the channel count and the number of solves unchanged,
and every law check passes across the band (checked on seeds 0..15).
Seed 1 is the hold-out: a speed claim made on other seeds must also
hold on it.

``otto_optimize`` is the one exception: its Nelder-Mead path, and with
it the number of cycle evaluations and the run time, depends on the
config seed and on every physical input (1.2 s to 2.7 s over seeds
0..9).  It therefore runs the shipped config unchanged on every seed,
so that its timing measures the program rather than the seed.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
GAMMA_BAND = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple[tuple[str, dict], ...]  # (config name, config or {"shipped": file})
    unseeded: frozenset[str] = frozenset()  # configs run unchanged on every seed


def _shipped(name: str, **param_overrides) -> dict:
    return {"shipped": name, "params": param_overrides}


# An 8-level oscillator between a hot and a cold bath: 4000 ledger
# points on one fixed 64x64 generator.
_EVOLVE_OSCILLATOR = {
    "kind": "evolve",
    "seed": 42,
    "params": {
        "medium": {"kind": "oscillator", "levels": 8},
        "omega": 1.0,
        "baths": [
            {"label": "hot", "temperature": 2.0, "form_factor": "ohmic",
             "gamma": 0.1, "cutoff": 10.0},
            {"label": "cold", "temperature": 0.5, "form_factor": "ohmic",
             "gamma": 0.1, "cutoff": 10.0},
        ],
        "initial": "random",
        "t_final": 40.0,
        "points": 4000,
    },
}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "tricycle-steady",
            "fresh generators and stationary solves: 328 small 64x64 ones "
            "(third-law sweep) and one 729x729 d=27 oscillator tricycle",
            (
                # Many small problems: 328 fresh generators and stationary
                # solves, so generator building and per-call overhead
                # dominate; the dissipator cache never hits.
                ("third_law_sweep", _shipped("third_law_sweep.json")),
                # Large dense kernels and memory: kron-built dissipators, a
                # 729^2 eig and 160 MB; the only config where a dense-kernel
                # or memory change shows.
                ("tricycle_d27", _shipped("tricycle_fridge.json",
                                          representation="oscillators",
                                          oscillator_levels=3)),
            ),
        ),
        Workload(
            "cycles-ledgers",
            "built generators walked: Otto cycle optimisation, a 4000-point "
            "evolve ledger and an 8192-point Floquet fridge",
            (
                # The reciprocating path: stroke propagators, limit-cycle
                # fixed point and cycle walk over about 430 run_otto
                # evaluations; it never calls stationary_state.
                ("otto_optimize", _shipped("otto_optimize.json")),
                # Ledgers on fixed generators, with the dissipators built
                # once: trajectory, gibbs_state, entropy production and the
                # Floquet layer.  A change that makes building a generator
                # cheaper but applying it dearer shows here.
                ("evolve_oscillator", _EVOLVE_OSCILLATOR),
                ("floquet_fridge", _shipped("floquet_fridge.json",
                                            grid_points=8192, q_max=40)),
            ),
            unseeded=frozenset({"otto_optimize"}),
        ),
    )
}


def _base_config(spec: dict, configs_dir: Path) -> dict:
    if "shipped" not in spec:
        return copy.deepcopy(spec)
    cfg = json.loads((configs_dir / spec["shipped"]).read_text())
    cfg["params"].update(copy.deepcopy(spec["params"]))
    return cfg


def _baths(params: dict) -> list[dict]:
    baths = list(params.get("baths", []))
    baths += [params[k] for k in ("bath_h", "bath_c", "bath_w") if k in params]
    return baths


def make_configs(workload: Workload, seed: int, configs_dir: Path,
                 out_dir: Path) -> list[tuple[str, dict]]:
    """The configs of one run, each writing its artifacts under out_dir."""
    rng = random.Random(f"{workload.name}:{seed}")
    made = []
    for name, spec in workload.configs:
        cfg = _base_config(spec, configs_dir)
        if name not in workload.unseeded and seed != DEFAULT_SEED:
            cfg["seed"] = cfg["seed"] + seed
            for bath in _baths(cfg["params"]):
                bath["gamma"] = bath.get("gamma", 1.0) * (1.0 + rng.uniform(-GAMMA_BAND, GAMMA_BAND))
        cfg["output_dir"] = str(out_dir / name)
        made.append((name, cfg))
    return made
