"""State functionals and structure tests.

Entropies, Gibbs states, passivity and ergotropy, equilibrium
correlation functions with their detailed-balance frequency relation,
and a desk-scale diagonal-ensemble vs microcanonical comparison on a
seeded random-field spin chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    Operator,
    _cluster,
    _group_indices,
    _level_blocks,
    expect,
    group_degenerate,
)
from .tolerances import ALGEBRAIC, LEVEL_MERGE_REL

__all__ = [
    "CorrelationSeries",
    "von_neumann_entropy",
    "shannon_entropy_in_basis",
    "relative_entropy",
    "gibbs_state",
    "is_passive",
    "ergotropy",
    "is_completely_passive",
    "two_point_correlation",
    "kms_check",
    "heisenberg_chain",
    "site_operator",
    "diagonal_vs_microcanonical",
]

_LOG_CLIP = 1e-300


def _entropy_of_probs(p: np.ndarray) -> np.ndarray:
    """-sum p ln p along the last axis, with negative weights clipped to
    zero and 0 ln 0 = 0."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    return -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr(rho ln rho), with 0 ln 0 = 0."""
    lam = np.linalg.eigvalsh(rho.mat)
    return float(_entropy_of_probs(lam))


def shannon_entropy_in_basis(rho: DensityMatrix, a: Operator) -> float:
    """Entropy of the outcome distribution of a complete measurement of
    the hermitian observable ``a``; never below the von Neumann entropy."""
    _, v = a.eigh()
    p = np.real(np.einsum("ij,jk,ki->i", v.conj().T, rho.mat, v))
    return float(_entropy_of_probs(p))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr(rho ln rho - rho ln sigma); +inf when the support of rho leaks
    outside the support of sigma."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    return _relative_entropy_of_spectra(*np.linalg.eigh(rho.mat), *np.linalg.eigh(sigma.mat))


def _relative_entropy_of_spectra(lam: np.ndarray, u: np.ndarray, mu: np.ndarray,
                                 w: np.ndarray) -> float:
    """:func:`relative_entropy` of the states with ascending spectra and
    eigenvectors (lam, u) and (mu, w)."""
    lam = np.clip(lam, 0.0, None)
    overlap = np.abs(u.conj().T @ w) ** 2  # overlap[i, j] = |<u_i|w_j>|^2
    mass_on_sigma_modes = lam @ overlap
    null = mu <= ALGEBRAIC
    if np.any(null) and float(mass_on_sigma_modes[null].sum()) > ALGEBRAIC:
        return math.inf
    term1 = float(np.sum(lam[lam > 0.0] * np.log(lam[lam > 0.0])))
    safe_mu = np.where(null, 1.0, np.clip(mu, _LOG_CLIP, None))
    term2 = float(np.sum(mass_on_sigma_modes * np.log(safe_mu)))
    return term1 - term2


def gibbs_state(
    h: Operator,
    beta: float,
    mu: float = 0.0,
    number_op: Operator | None = None,
) -> DensityMatrix:
    """Z^-1 exp(-beta (H - mu N)), weighed in the eigenbasis of the hermitian
    H - mu N (at mu = 0, the one H carries: :meth:`Operator.eigh`).

    ``beta`` must be >= 0 (population inversion is modelled by the machine
    configurations, never by negative temperature);  beta = inf gives the
    uniform mixture on the ground level.
    """
    if beta < 0:
        raise ValueError("gibbs_state: beta must be non-negative")
    if mu != 0.0:
        if number_op is None:
            raise ValueError("gibbs_state: chemical potential needs a number operator")
        comm = h.mat @ number_op.mat - number_op.mat @ h.mat
        if np.max(np.abs(comm)) > ALGEBRAIC * max(1.0, np.max(np.abs(h.mat))):
            raise ValueError("gibbs_state: [H, N] != 0")
        h = Operator(h.mat - mu * number_op.mat)
    evals, v = h.eigh()
    if math.isinf(beta):
        ground = group_degenerate(evals)[0]
        w = np.zeros_like(evals)
        w[ground] = 1.0 / len(ground)
    else:
        w = _gibbs_weights(evals, beta)
    return DensityMatrix((v * w) @ v.conj().T)


def _gibbs_weights(evals: np.ndarray, beta: float) -> np.ndarray:
    """The Gibbs populations exp(-beta E) / Z of the ascending levels
    ``evals`` at a finite beta >= 0, shifted to the ground level."""
    w = np.exp(-beta * (evals - evals.min()))
    return w / w.sum()


def ergotropy(rho: DensityMatrix, h: Operator) -> tuple[float, DensityMatrix]:
    """Maximal unitarily extractable work and the associated passive state.

    The passive state pairs the descending eigenvalues of rho with the
    ascending eigenvalues of H; any ordering inside a degenerate level
    leaves its energy unchanged.
    """
    evals_h, v = h.eigh()
    lam = np.linalg.eigvalsh(rho.mat)[::-1]  # descending
    passive = (v * np.clip(lam, 0.0, None)) @ v.conj().T
    passive_energy = float(np.dot(lam, evals_h))
    work = expect(rho, h) - passive_energy
    return work, DensityMatrix((passive + passive.conj().T) / 2.0)


def is_passive(rho: DensityMatrix, h: Operator) -> bool:
    """No work is unitarily extractable: rho commutes with H and already
    realises the minimal energy over its unitary orbit."""
    scale_h = max(1.0, float(np.max(np.abs(h.mat))))
    comm = rho.mat @ h.mat - h.mat @ rho.mat
    if np.max(np.abs(comm)) > 1e-10 * scale_h:
        return False
    work, _ = ergotropy(rho, h)
    return work <= 1e-10 * scale_h


def is_completely_passive(rho: DensityMatrix, h: Operator, n_max: int) -> bool:
    """Passivity of rho^(kron n) against the n-fold sum Hamiltonian for
    n = 1..n_max, decided on the sorted joint spectrum."""
    d = rho.dim
    if d**n_max > 4096:
        feasible = int(math.floor(math.log(4096) / math.log(d)))
        raise ValueError(
            f"dimension {d}^{n_max} exceeds 4096; largest feasible n is {feasible}"
        )
    if not is_passive(rho, h):
        return False
    evals_h, v = h.eigh()
    pops = np.real(np.diag(v.conj().T @ rho.mat @ v))
    spread = max(float(evals_h.max() - evals_h.min()), 1.0)
    tol_e = LEVEL_MERGE_REL * spread
    for n in range(2, n_max + 1):
        energies = evals_h.copy()
        probs = pops.copy()
        for _ in range(n - 1):
            energies = np.add.outer(energies, evals_h).reshape(-1)
            probs = np.outer(probs, pops).reshape(-1)
        running_min = math.inf
        for g in group_degenerate(energies, tol=n * tol_e):
            if float(probs[g].max()) > running_min + 1e-12:
                return False
            running_min = min(running_min, float(probs[g].min()))
    return True


@dataclass(frozen=True)
class CorrelationSeries:
    """Discrete frequency decomposition of an equilibrium two-point
    function: F(t) = sum_k amplitudes[k] exp(-i omegas[k] t)."""

    omegas: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omegas", np.asarray(self.omegas, dtype=float))
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=complex))

    def static_value(self) -> complex:
        return complex(np.sum(self.amplitudes))


def two_point_correlation(
    h: Operator, beta: float, a: Operator, b: Operator
) -> CorrelationSeries:
    """Frequency amplitudes of F_AB(t) = Tr(rho_beta A(t) B) at the Gibbs
    state of H, indexed by the Bohr gaps omega = E_n - E_m."""
    if not (a.is_hermitian() and b.is_hermitian()):
        raise ValueError("two_point_correlation expects hermitian observables")
    evals, v = h.eigh()
    rho = gibbs_state(h, beta)
    p = np.real(np.diag(v.conj().T @ rho.mat @ v))
    a_e = v.conj().T @ a.mat @ v
    b_e = v.conj().T @ b.mat @ v
    # term (m, n) belongs to the line omega = E_n - E_m of its level block
    terms = p[:, None] * a_e * b_e.T
    # levels and lines both merge within LEVEL_MERGE_REL of the spread;
    # there is no unresolved band, so lines farther apart than that stay
    tol = np.array([LEVEL_MERGE_REL * max(float(evals.max() - evals.min()), 1.0)])
    (label,), centers, _, _, kept = _level_blocks(evals[None], tol, np.abs(terms)[None, None], 0.0)
    g_row, g_col = np.unravel_index(kept, terms.shape)
    block_amps = np.zeros((len(centers), len(centers)), dtype=complex)
    np.add.at(block_amps, (label[:, None], label[None, :]), terms)
    block_amps = block_amps[g_row, g_col]
    gaps = centers[g_col] - centers[g_row]
    order, start, _, ws = _cluster(gaps, np.zeros(len(gaps), dtype=int), tol)
    amps_arr = np.array([block_amps[b].sum() for b in _group_indices(order, start)], dtype=complex)
    # drop roundoff dust so spurious lines cannot poison ratio checks
    floor = 1e-14 * max(1.0, float(np.max(np.abs(amps_arr))))
    keep = np.abs(amps_arr) > floor
    series = CorrelationSeries(ws[keep], amps_arr[keep])
    f0 = complex(np.trace(rho.mat @ a.mat @ b.mat))
    if abs(series.static_value() - f0) > ALGEBRAIC * max(1.0, abs(f0)):
        raise AssertionError("correlation series fails its t = 0 sum rule")
    return series


def kms_check(f_ab: CorrelationSeries, f_ba: CorrelationSeries, beta: float) -> float:
    """Max relative residual of the detailed-balance frequency relation
    F_BA(-omega) = exp(-beta omega) F_AB(omega), amplitude by amplitude.

    Each line is tested in the direction with a contracting Boltzmann
    factor; the amplified direction restates the same relation but
    multiplies roundoff by exp(beta |omega|)."""
    eps = 1e-300
    worst = 0.0
    for w, amp in zip(f_ab.omegas, f_ab.amplitudes):
        match = np.isclose(f_ba.omegas, -w, rtol=0.0, atol=1e-9)
        partner = complex(np.sum(f_ba.amplitudes[match])) if np.any(match) else 0.0
        if w >= 0:
            resid = abs(partner - math.exp(-beta * w) * amp) / (abs(amp) + eps)
        else:
            resid = abs(amp - math.exp(beta * w) * partner) / (abs(partner) + eps)
        worst = max(worst, resid)
    return worst


def site_operator(n_spins: int, site: int, local: np.ndarray) -> np.ndarray:
    """Embed a single-site 2x2 operator into an n-spin chain."""
    mats = [np.eye(2, dtype=complex)] * n_spins
    mats[site] = local
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def heisenberg_chain(
    n_spins: int, rng: np.random.Generator, field_scale: float = 0.5
) -> Operator:
    """Nearest-neighbour Heisenberg chain with uniform random z fields
    drawn from [-field_scale, field_scale]; spin-1/2 operators S = sigma/2."""
    if n_spins > 12:
        raise ValueError("chain capped at 12 spins for dense diagonalisation")
    dim = 2**n_spins
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n_spins - 1):
        for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
            h += 0.25 * site_operator(n_spins, i, pauli) @ site_operator(n_spins, i + 1, pauli)
    fields = rng.uniform(-field_scale, field_scale, size=n_spins)
    for i in range(n_spins):
        h += fields[i] * 0.5 * site_operator(n_spins, i, PAULI_Z)
    return Operator.hermitian(h)


def diagonal_vs_microcanonical(
    h: Operator, psi: np.ndarray, a: Operator, window: float
) -> tuple[float, float, float]:
    """Diagonal-ensemble average of ``a`` in the state psi against the
    microcanonical average over the window |E_0 - E_j| < window centred on
    the state's mean energy.  Returns (diag_avg, micro_avg, |gap|)."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    evals, v = h.eigh()
    c = v.conj().T @ psi
    a_diag = np.real(np.einsum("ij,jk,ki->i", v.conj().T, a.mat, v))
    weights = np.abs(c) ** 2
    diag_avg = float(np.dot(weights, a_diag))
    spacing = float(evals.max() - evals.min()) / max(len(evals) - 1, 1)
    if window <= spacing:
        raise ValueError(
            f"energy window {window} does not exceed the mean level spacing "
            f"{spacing:.3e}"
        )
    e0 = float(np.dot(weights, evals))
    sel = np.abs(evals - e0) < window
    if not np.any(sel):
        raise ValueError("energy window contains no eigenstates")
    micro_avg = float(np.mean(a_diag[sel]))
    return diag_avg, micro_avg, abs(diag_avg - micro_avg)
