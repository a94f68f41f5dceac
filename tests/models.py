"""Models and tools that only the tests use: a Haar-random unitary, two
driven schedules with closed-form Floquet structure, the reconstruction
check of a harmonic decomposition, and the per-value clustering loop
that is the reference of the segmented kernel."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qthermo.floquet import FloquetChannel, FloquetDecomposition
from qthermo.operators import PAULI_X, PAULI_Y, PAULI_Z, Operator
from qthermo.tolerances import LEVEL_MERGE_REL


def random_unitary(dim: int, rng: np.random.Generator) -> Operator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return Operator.unitary(q)


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

    def __call__(self, t: float) -> np.ndarray:
        wt = self.big_omega * t
        return 0.5 * self.omega0 * PAULI_Z + 0.5 * self.eps * (
            math.cos(wt) * PAULI_X + math.sin(wt) * PAULI_Y
        )

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

    def __call__(self, t: float) -> np.ndarray:
        levels = np.array([0.0, self.omega1, self.omega1 + self.omega2], dtype=complex)
        num = np.array([0.0, 1.0, 2.0])
        return np.diag(levels + self.amplitude * math.sin(self.big_omega * t) * num)


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
    order = np.argsort(values)
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
