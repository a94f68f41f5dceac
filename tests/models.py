"""Models and tools that only the tests use: a Haar-random unitary, two
driven schedules with closed-form Floquet structure (each maps a time
array of any shape to its ``(*shape, d, d)`` stack of samples), the
reconstruction check of a harmonic decomposition, the per-value
clustering loop that is the reference of the segmented kernel, a
point-at-a-time driver of the Nelder–Mead steps and one that evaluates
their hints as `machines.optimize_power` does, and the
restart-after-restart power search that is the reference of the
lockstep one.  The grid-after-grid third-law sweep is the reference of
the pipelined one, and the float-at-a-time rate formula of the array
one.  A Hamiltonian's decomposition has a one-matrix LAPACK oracle, and
the batched decompositions of a run can be counted."""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from qthermo import machines
from qthermo.floquet import FloquetChannel, FloquetDecomposition
from qthermo.lindblad import BohrResolutionError
from qthermo.operators import PAULI_X, PAULI_Y, PAULI_Z, Operator
from qthermo.tolerances import LEVEL_MERGE_REL


def random_unitary(dim: int, rng: np.random.Generator) -> Operator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return Operator.unitary(q)


def eigh_oracle(m) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's eigh of the symmetrised matrix (m + m^dag) / 2, taken
    alone: the decomposition that ``Operator.eigh`` keeps, bit for bit."""
    m = np.asarray(m, dtype=complex)
    return np.linalg.eigh((m + m.conj().T) / 2.0)


def count_decompositions(monkeypatch) -> list[int]:
    """A list that records, for each batched ``eigh`` of
    ``operators._eigh_stack`` from now on, the number of Hamiltonians it
    diagonalises."""
    counts, original = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_eigh_stack":
            counts.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return counts


def per_time(f, t: np.ndarray) -> np.ndarray:
    """The scalar function ``f`` (``math.sin``, say) at every entry of
    ``t``, in ``t``'s shape: a schedule sampled on a time array then has
    the bits of its calls at single times."""
    return np.array([f(x) for x in t.ravel().tolist()]).reshape(t.shape)


@dataclass(frozen=True)
class CircularlyDrivenQubit:
    """H(t) = (1/2) omega0 sigma_z + (1/2) eps (sigma_x cos Omega t +
    sigma_y sin Omega t); exactly solvable in the rotating frame."""

    omega0: float
    eps: float
    big_omega: float

    @property
    def tau(self) -> float:
        return 2.0 * math.pi / self.big_omega

    def __call__(self, t) -> np.ndarray:
        wt = self.big_omega * np.asarray(t, dtype=float)
        cos, sin = (per_time(f, wt)[..., None, None] for f in (math.cos, math.sin))
        return 0.5 * self.omega0 * PAULI_Z + 0.5 * self.eps * (cos * PAULI_X + sin * PAULI_Y)

    def rotating_gap(self) -> float:
        return math.hypot(self.omega0 - self.big_omega, self.eps)


@dataclass(frozen=True)
class ModulatedLadder:
    """Driven three-level ladder with a commuting modulation:
    H(t) = diag(0, omega1, omega1 + omega2) + amplitude sin(Omega t) N
    with N = diag(0, 1, 2)."""

    omega1: float
    omega2: float
    amplitude: float
    big_omega: float

    @property
    def tau(self) -> float:
        return 2.0 * math.pi / self.big_omega

    def __call__(self, t) -> np.ndarray:
        levels = np.array([0.0, self.omega1, self.omega1 + self.omega2], dtype=complex)
        num = np.array([0.0, 1.0, 2.0])
        sin = per_time(math.sin, self.big_omega * np.asarray(t, dtype=float))
        out = np.zeros(sin.shape + (3, 3), dtype=complex)
        out[..., range(3), range(3)] = levels + (self.amplitude * sin)[..., None] * num
        return out


def reconstruction_residual(
    dec: FloquetDecomposition, s_op: Operator, channels: list[FloquetChannel]
) -> float:
    """Max deviation of sum_q e^{-i omega_q t} S(omega_q) from
    U^dag(t) S U(t) on the decomposition grid (rate-weight free check, so
    channels must be rebuilt with a unit-rate bath to include every
    line)."""
    worst = 0.0
    for k, t in enumerate(dec.times[:-1]):
        u = dec.u_grid[k]
        target = u.conj().T @ s_op.mat @ u
        synth = np.zeros_like(target)
        for ch in channels:
            synth += np.exp(-1j * ch.omega * t) * ch.op
        worst = max(worst, float(np.max(np.abs(synth - target))))
    return worst


def loop_group_degenerate(values, tol: float | None = None) -> list[np.ndarray]:
    """Cluster a list of reals into degenerate groups, value by value:
    values within ``tol`` of the running cluster head join that cluster.
    Default tolerance is LEVEL_MERGE_REL times the spread (or 1 for a flat
    spectrum).  Returns index arrays, ordered by cluster value."""
    values = np.asarray(values, dtype=float)
    if tol is None:
        spread = float(values.max() - values.min()) if values.size else 0.0
        tol = LEVEL_MERGE_REL * max(spread, 1.0)
    order = np.argsort(values, kind="stable")
    groups: list[list[int]] = []
    head = None
    for idx in order:
        v = values[idx]
        if head is None or v - head > tol:
            groups.append([idx])
            head = v
        else:
            groups[-1].append(idx)
    return [np.array(g, dtype=int) for g in groups]


def nelder_mead(f, x0, lo, hi, maxfev, xatol, fatol):
    """Minimise f over the box [lo, hi] by driving
    `machines._nelder_mead_steps` (SciPy's bounded Nelder–Mead, point for
    point) with f, one point at a time and ignoring its hints; returns
    (x, fun, success)."""
    search = machines._nelder_mead_steps(x0, lo, hi, maxfev, xatol, fatol)
    try:
        x, _ = next(search)
        while True:
            x, _ = search.send(f(x))
    except StopIteration as stop:
        return stop.value


def hinted_nelder_mead(f, x0, lo, hi, maxfev, xatol, fatol):
    """Drive `machines._nelder_mead_steps` as `machines.optimize_power`
    drives one restart: each round calls f at the asked-for point and at
    its hints, and each later request whose bits match a point of that
    round is answered from its value, until the search asks for a point
    the round did not evaluate.  Returns (result, asked, rounds): the
    search's (x, fun, success), the bits of each point it asked for, and
    per round the bits of the points f was called at, the asked-for one
    first, with the number of points the search had asked for before."""
    search = machines._nelder_mead_steps(x0, lo, hi, maxfev, xatol, fatol)
    asked, rounds = [], []
    try:
        x, hints = next(search)
        while True:
            rounds.append(([p.tobytes() for p in (x, *hints)], len(asked)))
            values = {p.tobytes(): f(p) for p in (x, *hints)}
            while x.tobytes() in values:
                asked.append(x.tobytes())
                x, hints = search.send(values[x.tobytes()])
    except StopIteration as stop:
        return stop.value, asked, rounds


def sequential_optimize_power(spec, free, seed=7, restarts=3, max_evals=200, trace=None):
    """`machines.optimize_power` with its restarts run one after another,
    each driving `nelder_mead` with one `machines.run_otto` per
    point, and the evaluation-cap warning only when a restart ran.  When
    ``trace`` is a list, it receives (restart, parameters) for every
    evaluated point in order, restart -1 being the box's midpoint."""
    names = list(free)
    lo = np.array([free[k][0] for k in names], dtype=float)
    hi = np.array([free[k][1] for k in names], dtype=float)
    span = hi - lo

    def objective(x, restart):
        params = {k: float(v) for k, v in zip(names, np.clip(x, lo, hi))}
        if trace is not None:
            trace.append((restart, params))
        try:
            rep = machines.run_otto(replace(spec, **params))
        except BohrResolutionError:
            return 0.0
        return rep.power if rep.work > 0 else 0.0

    rng = np.random.default_rng(seed)
    best_x = (lo + hi) / 2.0
    best_p = objective(best_x, -1)
    any_converged = False
    for r in range(restarts):
        x0 = lo + rng.uniform(0.15, 0.85, size=len(names)) * span
        x, fun, success = nelder_mead(lambda p: -objective(p, r), x0, lo, hi,
                                      max_evals, 1e-4, 1e-10)
        any_converged = any_converged or success
        if -fun > best_p:
            best_p = -fun
            best_x = np.clip(x, lo, hi)
    if restarts and not any_converged:
        warnings.warn("power optimisation hit its evaluation cap in every "
                      "restart; returning the best point found", stacklevel=2)
    best = {k: float(v) for k, v in zip(names, best_x)}
    rep = machines.run_otto(replace(spec, **best))
    return best, rep.power, rep.efficiency


def per_grid_sweep(spec, t_c_grid, ratio_lo=0.2, ratio_hi=3.0):
    """`machines.third_law_sweep` with each cold temperature's coarse and
    fine grids solved one after another, each grid its own
    `machines._tricycle_steady_stack`."""
    rows = []
    label = spec.bath_c.label
    for t_c in t_c_grid:
        t_c = float(t_c)
        if t_c < 1e-3:
            raise ValueError("cold temperature grid is floored at 1e-3")
        lo, hi = ratio_lo * t_c, ratio_hi * t_c
        hi = min(hi, 0.95 * spec.omega_h)
        at_t_c = replace(spec, bath_c=replace(spec.bath_c, temperature=t_c))

        def solve(omegas):
            out = []
            for steady in machines._tricycle_steady_stack(
                    [replace(at_t_c, omega_c=float(w)) for w in omegas]):
                if isinstance(steady, BohrResolutionError):
                    out.append((-math.inf, None))
                elif isinstance(steady, ValueError):
                    raise steady
                else:
                    out.append((steady.currents[label], steady))
            return out

        grid = np.linspace(lo, hi, machines._SWEEP_EVALS // 2)
        coarse = solve(grid)
        k = int(np.argmax([j for j, _ in coarse]))
        ka, kb = max(0, k - 1), min(len(grid) - 1, k + 1)
        fine = np.linspace(grid[ka], grid[kb], machines._SWEEP_EVALS - machines._SWEEP_EVALS // 2)
        solves = [coarse[ka], *solve(fine[1:-1]), coarse[kb]]
        # every candidate of both grids collided
        if all(steady is None for _, steady in coarse + solves):
            rows.append(machines.SweepRow(t_c, math.nan, math.nan, math.nan, math.nan,
                                          no_cooling=True, unsolved=True))
            continue
        kk = int(np.argmax([j for j, _ in solves]))
        best_w, best_j = float(fine[kk]), float(solves[kk][0])
        if not math.isfinite(best_j) or best_j <= 0:
            rows.append(machines.SweepRow(
                t_c, best_w, max(best_j, 0.0) if math.isfinite(best_j) else 0.0, 0.0, 0.0,
                no_cooling=True))
            continue
        gain = -solves[kk][1].gain
        cond = best_j / (best_w * gain) if abs(gain) > 1e-300 else math.nan
        rows.append(machines.SweepRow(t_c, best_w, best_j, cond, gain))
    return rows


def scalar_occupation(x: float, spec) -> float:
    """Mean occupation of one float: the reference of ``baths.occupation``,
    which reads arrays."""
    beta = spec.beta
    if spec.statistics == "bose":
        if x <= spec.mu:
            raise ValueError(f"bosonic occupation undefined at x = {x} <= mu = {spec.mu}")
        if beta == 0.0:
            raise ValueError("bosonic occupation diverges at beta = 0")
        if math.isinf(beta):
            return 0.0
        arg = beta * (x - spec.mu)
        if arg > 700:
            return math.exp(-arg)
        return 1.0 / math.expm1(arg)
    if beta == 0.0:
        return 0.5
    if math.isinf(beta):
        if x < spec.mu:
            return 1.0
        if x > spec.mu:
            return 0.0
        return 0.5
    arg = beta * (x - spec.mu)
    if arg > 700:
        return math.exp(-arg)
    return 1.0 / (math.exp(arg) + 1.0)


def _scalar_form_factor(w: float, spec) -> float:
    if spec.form_factor == "flat":
        return spec.gamma if w <= spec.cutoff else 0.0
    if spec.form_factor == "ohmic":
        return spec.gamma * w * math.exp(-w / spec.cutoff)
    return spec.gamma * w**spec.exponent * math.exp(-w / spec.cutoff)


def _scalar_zero_frequency_limit(spec) -> float:
    beta = spec.beta
    if spec.statistics == "fermi":
        return _scalar_form_factor(0.0, spec) * (1.0 - scalar_occupation(0.0, spec))
    if math.isinf(beta):
        return 0.0
    if spec.mu < 0.0:
        return _scalar_form_factor(0.0, spec) * (1.0 + scalar_occupation(0.0, spec))
    if spec.form_factor == "flat":
        raise ValueError(
            "flat bosonic bath diverges at omega = 0; use an ohmic or power form factor"
        )
    p = 1.0 if spec.form_factor == "ohmic" else spec.exponent
    if p > 1.0:
        return 0.0
    if p == 1.0:
        return spec.gamma / beta
    raise ValueError("sub-ohmic bosonic bath diverges at omega = 0")


def scalar_spectral_density(omega: float, spec) -> float:
    """The rate R(omega) of one float, each step in Python floats and
    ``math``: the reference of ``baths.spectral_density``, which reads
    arrays and must give these bits entry by entry."""
    if spec.coupling == 0.0:
        return 0.0
    beta = spec.beta
    if beta == 0.0:
        return spec.coupling * _scalar_form_factor(abs(omega), spec) * (
            spec.absorption_scale if omega < 0 else 1.0
        )
    if omega == 0.0:
        return spec.coupling * _scalar_zero_frequency_limit(spec)
    w = abs(omega)
    if spec.statistics == "bose" and w <= spec.mu:
        raise ValueError(f"bosonic bath pole: |omega| = {w} <= mu = {spec.mu}")
    n = scalar_occupation(w, spec)
    if omega > 0:
        bracket = (1.0 + n) if spec.statistics == "bose" else (1.0 - n)
        return spec.coupling * _scalar_form_factor(w, spec) * bracket
    return spec.coupling * _scalar_form_factor(w, spec) * n * spec.absorption_scale
