"""Markovian generators in GKLS form.

Direct construction from jump channels, the weak-coupling (secular)
construction from a Hamiltonian, hermitian coupling operators and bath
rate tables, propagation, thermodynamic ledgers, and the audits used by
the law-certification suite.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .baths import BathSpec, spectral_density
from .operators import (
    DensityMatrix,
    Operator,
    Superoperator,
    _bin_frequencies,
    _level_blocks,
    _state_spectra,
    adjoint_dissipator,
    cptp_residuals,
    dissipator_superop,
    eig_hermitian,
    group_degenerate,
    hamiltonian_superop,
    matexp,
    unitary_superop,
    vec,
    unvec,
)
from .states import _entropy_of_probs, gibbs_state, von_neumann_entropy
from .tolerances import ALGEBRAIC, LEVEL_MERGE_REL, LEVEL_RESOLVE_REL

__all__ = [
    "JumpChannel",
    "GKLSGenerator",
    "ThermoLedger",
    "BohrResolutionError",
    "build_davies",
    "propagate",
    "trajectory",
    "adiabatic_propagate",
    "entropy_production_rate",
    "stationary_state",
    "heat_currents",
    "davies_audit",
]

_RATE_FLOOR = 1e-300
# states per ledger block in ``trajectory``: the block and its transients
# stay near 64 KB at d = 8, so the ledger adds nothing to the peak memory
_LEDGER_BLOCK = 64
# smallest reciprocal condition number of a bordered fixed-point system
# accepted as a one-dimensional null space
_RCOND_MIN = 1e-12
# entries of a channel below this fraction of the channel's largest entry
# are rotation roundoff (at most 3e-13 at d = 64) and join no index pair to
# the sector of a stationary solve
_PATTERN_REL = 1e-10
# a generator with at most this many index pairs (a qubit) is solved on its
# whole Liouvillian, whose 4 x 4 solve costs about what the sector's
# certificate does; larger ones take their sector when it is certified
_WHOLE_LIOUVILLIAN_SIDE = 4
# smallest second eigenvalue of the commutant form, relative to tr G, that
# certifies a sector solve as the generator's only stationary state
_COMMUTANT_GAP_REL = 1e-12


class BohrResolutionError(ValueError):
    """Raised when two distinct Bohr gaps of one coupling family are too
    close to separate but too far to merge (secular approximation fails)."""


@dataclass(frozen=True)
class JumpChannel:
    """One secular jump channel: a Bohr-frequency eigenoperator of the
    Hamiltonian with its bath-supplied rate."""

    bath_label: str
    bohr_frequency: float
    op: np.ndarray
    rate: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"negative channel rate {self.rate}")
        object.__setattr__(self, "op", np.asarray(self.op, dtype=complex))


class GKLSGenerator:
    """Hamiltonian plus weighted jump channels; exposes the Liouvillian.

    ``include_hamiltonian`` is switched off for interaction-picture
    generators whose coherent part lives in the frame transformation.
    """

    def __init__(
        self,
        h: Operator,
        channels: Sequence[JumpChannel],
        baths: dict[str, BathSpec] | None = None,
        include_hamiltonian: bool = True,
    ):
        if not h.is_hermitian():
            raise ValueError("generator Hamiltonian must be hermitian")
        self.h = h
        # a tuple, so that the caches below cannot go stale
        self.channels = tuple(channels)
        self.baths = dict(baths or {})
        self.include_hamiltonian = include_hamiltonian
        self._liouvillian: Superoperator | None = None
        self._bath_parts: dict[str, Superoperator] = {}
        self._heat_observables: dict[str, np.ndarray] = {}
        self._log_references: dict[str, np.ndarray] = {}
        self._eigenbasis: tuple[np.ndarray, Operator] | None = None

    @property
    def dim(self) -> int:
        return self.h.dim

    def eigenbasis(self) -> tuple[np.ndarray, Operator]:
        """Ascending eigenvalues of H and the unitary of its eigenvectors,
        as :func:`eig_hermitian` gives them, computed once; both read-only.
        ``build_davies`` hands over the decomposition it computed."""
        if self._eigenbasis is None:
            self._eigenbasis = _eigenbasis(self.h)
        return self._eigenbasis

    @property
    def bath_labels(self) -> list[str]:
        seen = []
        for ch in self.channels:
            if ch.bath_label not in seen:
                seen.append(ch.bath_label)
        return seen

    def _stacked_channels(self, label: str | None) -> tuple[np.ndarray, np.ndarray]:
        """Operators (K, d, d) and rates (K,) of the channels above the rate
        floor, optionally restricted to one bath."""
        chans = [
            ch for ch in self.channels
            if (label is None or ch.bath_label == label) and ch.rate > _RATE_FLOOR
        ]
        d = self.dim
        ops = np.array([ch.op for ch in chans], dtype=complex).reshape(-1, d, d)
        return ops, np.array([ch.rate for ch in chans], dtype=float)

    def dissipator(self, label: str | None = None) -> Superoperator:
        """Dissipative part, optionally restricted to one bath."""
        key = label if label is not None else "__all__"
        if key not in self._bath_parts:
            self._bath_parts[key] = dissipator_superop(*self._stacked_channels(label))
        return self._bath_parts[key]

    def heat_observable(self, label: str) -> np.ndarray:
        """Q = D^dag(H) over the channels of one bath, so that the bath's
        heat current in the state rho is Re Tr(Q rho)."""
        if label not in self._heat_observables:
            ops, rates = self._stacked_channels(label)
            terms = adjoint_dissipator(ops, self.h.mat)
            self._heat_observables[label] = np.tensordot(rates, terms, axes=1)
        return self._heat_observables[label]

    def log_gibbs_reference(self, label: str) -> np.ndarray:
        """Clipped logarithm of the Gibbs state of H at the temperature of
        the bath registered under ``label``."""
        if label not in self._log_references:
            bath = self.baths.get(label)
            if bath is None:
                raise ValueError(f"no bath registered under label {label!r}")
            self._log_references[label] = _clipped_log(gibbs_state(self.h, bath.beta).mat)
        return self._log_references[label]

    def liouvillian(self) -> Superoperator:
        if self._liouvillian is None:
            m = self.dissipator().mat.copy()
            if self.include_hamiltonian:
                m += hamiltonian_superop(self.h).mat
            self._liouvillian = Superoperator(m)
        return self._liouvillian


def _eigenbasis(h: Operator) -> tuple[np.ndarray, Operator]:
    """:func:`eig_hermitian` with read-only eigenvalues; the eigenvector
    unitary is an Operator, read-only already."""
    evals, v = eig_hermitian(h)
    evals.setflags(write=False)
    return evals, v


def _coupling_channels(
    h_evals: np.ndarray,
    basis: np.ndarray,
    couplings: Sequence[tuple[Operator, BathSpec]],
) -> list[JumpChannel]:
    """Secular decomposition of hermitian couplings against their baths,
    coupling by coupling; the levels of H are grouped once for all."""
    if not all(s_op.is_hermitian() for s_op, _ in couplings):
        raise ValueError("coupling operators must be hermitian")
    d = len(h_evals)
    s_e = np.array([basis.conj().T @ s_op.mat @ basis for s_op, _ in couplings])
    s_e = s_e.reshape(-1, d, d)
    abs_se = np.abs(s_e)
    spread = max(float(h_evals.max() - h_evals.min()), 1.0)
    merge_tol = LEVEL_MERGE_REL * spread
    resolve_tol = LEVEL_RESOLVE_REL * spread

    # element (n, m) of s_e lies in the level block (g_from, g_to) of its
    # column's and its row's groups; the transposes list the blocks with a
    # nonzero entry in row-major (coupling, g_from, g_to) order
    floors = 1e-14 * np.maximum(1.0, abs_se.max(axis=(-2, -1)))
    label, centers, (member, g_from, g_to) = _level_blocks(
        h_evals, abs_se.swapaxes(-1, -2), floors[:, None, None]
    )
    channels = []
    for c, (_, bath) in enumerate(couplings):
        mine = member == c
        c_from, c_to = g_from[mine], g_to[mine]
        # S(omega) collects |n><m| with omega = E_m - E_n
        gaps = centers[c_from] - centers[c_to]

        # bin gaps; reject unresolved near-degeneracies
        bins, bin_centers, pair = _bin_frequencies(gaps, merge_tol, resolve_tol)
        if pair is not None:
            i, j = pair
            sep = abs(bin_centers[i] - bin_centers[j])
            raise BohrResolutionError(
                f"Bohr gaps {bin_centers[i]:.12g} and {bin_centers[j]:.12g} of "
                f"coupling to bath {bath.label!r} differ by {sep:.3e}, inside the "
                f"unresolved band ({merge_tol:.1e}, {resolve_tol:.1e})"
            )

        block_bin = np.full((len(centers), len(centers)), -1)
        for k, b in enumerate(bins):
            block_bin[c_from[b], c_to[b]] = k
        elem_bin = block_bin[label[None, :], label[:, None]]
        centers_c = bin_centers.tolist()
        rates = [spectral_density(center, bath) for center in centers_c]
        kept = [k for k, rate in enumerate(rates) if rate > _RATE_FLOOR]
        # "+ 0.0" stores -0.0 entries of s_e as 0.0
        ops = np.where(elem_bin == np.array(kept, dtype=int)[:, None, None], s_e[c], 0.0) + 0.0
        # rotate the eigenbasis blocks back to the computational basis
        ops = basis @ ops @ basis.conj().T
        ops.setflags(write=False)
        channels.extend(JumpChannel(bath.label, centers_c[k], op, rates[k])
                        for k, op in zip(kept, ops))
    return channels


def build_davies(h: Operator, couplings: list[tuple[Operator, BathSpec]]) -> GKLSGenerator:
    """Weak-coupling generator: channels enumerate the Bohr frequencies of
    H for each hermitian coupling, with rates drawn from the bath's
    spectral function.  Detailed balance of the rates, and with it Gibbs
    stationarity at a common bath temperature, hold by construction.  The
    coherent part is H alone: a Lamb shift commutes with H and moves no
    populations, so no law reads it."""
    h_evals, v = _eigenbasis(h)
    baths = {}
    for s_op, bath in couplings:
        if s_op.dim != h.dim:
            raise ValueError("coupling dimension does not match the Hamiltonian")
        if bath.label in baths and baths[bath.label] != bath:
            raise ValueError(f"two different baths share the label {bath.label!r}")
        baths[bath.label] = bath
    gen = GKLSGenerator(h, _coupling_channels(h_evals, v.mat, couplings), baths=baths)
    gen._eigenbasis = h_evals, v
    return gen


def propagate(gen: GKLSGenerator, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """exp(L t) applied to the state."""
    if t < 0:
        raise ValueError("propagation time must be >= 0")
    prop = matexp(gen.liouvillian(), t)
    return prop.apply(rho0)


def _heat_current_stack(gen: GKLSGenerator, stack: np.ndarray) -> dict[str, np.ndarray]:
    """Re Tr(Q_b rho) per bath for every member of a (n, d, d) stack."""
    return {
        label: np.real(np.sum(gen.heat_observable(label).T * stack, axis=(-2, -1)))
        for label in gen.bath_labels
    }


def heat_currents(gen: GKLSGenerator, rho: DensityMatrix) -> dict[str, float]:
    """Per-bath currents J_k = Tr(H L_k rho) = Re Tr(L_k^dag(H) rho);
    positive means heat flowing from bath k into the system."""
    return {k: float(j[0]) for k, j in _heat_current_stack(gen, rho.mat[None]).items()}


def _log_of_spectra(evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """Matrix logarithms, eigenvalues clipped below at 1e-14, of hermitian
    matrices given by their (..., d) spectra and eigenvectors."""
    logs = np.log(np.clip(evals, 1e-14, None))
    return (evecs * logs[..., None, :]) @ evecs.conj().swapaxes(-1, -2)


def _clipped_log(rho_mat: np.ndarray) -> np.ndarray:
    return _log_of_spectra(*np.linalg.eigh((rho_mat + rho_mat.conj().T) / 2.0))


def _entropy_production_stack(
    gen: GKLSGenerator, stack: np.ndarray, evals: np.ndarray, evecs: np.ndarray
) -> np.ndarray:
    """-sum_b Re Tr[D_b(rho) (ln rho - ln rho_b)] for every member of a
    (n, d, d) stack, given the eigendecompositions of the members."""
    n, d = stack.shape[0], gen.dim
    log_rho = _log_of_spectra(evals, evecs)
    # row k is vec(rho_k); row k of the product is vec(D_b(rho_k))
    vecs = stack.swapaxes(-1, -2).reshape(n, d * d)
    total = np.zeros(n)
    for label in gen.bath_labels:
        log_ref = gen.log_gibbs_reference(label)
        drho = vecs @ gen.dissipator(label).mat.T
        # Tr(A X) = sum_j vec(A)_j vec(X^T)_j, and vec(X^T) is X read row-major
        total -= np.real(np.einsum("kj,kj->k", drho, (log_rho - log_ref).reshape(n, d * d)))
    return total


def entropy_production_rate(gen: GKLSGenerator, rho: DensityMatrix) -> float:
    """Sum over baths of -Tr[L_k rho (ln rho - ln rho_k_st)], the
    non-negative dynamical entropy production.  Each bath's reference is
    its own Gibbs state of the generator Hamiltonian (uniform for a
    beta = 0 bath)."""
    evals, evecs = np.linalg.eigh((rho.mat + rho.mat.conj().T) / 2.0)
    return float(_entropy_production_stack(gen, rho.mat[None], evals[None], evecs[None])[0])


def _pattern(stack: np.ndarray) -> np.ndarray:
    """0/1 pattern of the entries of each member of a (..., d, d) stack
    above ``_PATTERN_REL`` of the member's largest entry."""
    mag = np.abs(stack)
    return (mag > _PATTERN_REL * mag.max(axis=(-2, -1), keepdims=True)).astype(float)


def _sector_pairs(jumps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closure of the diagonal index pairs (i, i) under rho -> V rho V^dag
    for every pattern V of the (K, d, d) stack ``jumps``.  Returns the rows
    and columns of the pairs in column-stacked order."""
    reach = np.eye(jumps.shape[-1])
    while True:
        grown = reach + (jumps @ reach @ jumps.swapaxes(-1, -2)).sum(axis=0)
        grown = (grown > 0).astype(float)
        if np.array_equal(grown, reach):
            cols, rows = np.nonzero(reach.T)
            return rows, cols
        reach = grown


def _pair_jumps(ops_e: np.ndarray, rates: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Entry (p, q) is sum_k r_k V_k[a, c] conj(V_k[b, d]) for the pairs
    p = (a, b) and q = (c, d) listed by ``rows`` and ``cols``: the weight of
    rho[c, d] in the jump part of L(rho)[a, b]."""
    k, d = ops_e.shape[:2]
    flat = ops_e.reshape(k, d * d)
    rr = flat[:, rows[:, None] * d + rows[None, :]]
    cc = flat[:, cols[:, None] * d + cols[None, :]]
    return np.einsum("k,kpq,kpq->pq", rates, rr, cc.conj())


def _self_adjoint_span(ops_e: np.ndarray, jumps: np.ndarray) -> bool:
    """Whether the adjoint of every channel is a multiple of a channel, so
    that the channels span a self-adjoint set.  The candidates for V_i^dag
    are the channels whose pattern (``jumps``) is V_i's transposed."""
    k = len(ops_e)
    by_pattern: dict[bytes, list[int]] = {}
    for j, p in enumerate(jumps):
        by_pattern.setdefault(p.tobytes(), []).append(j)
    cands = [by_pattern.get(p.T.tobytes(), []) for p in jumps]
    if not all(cands):
        return False
    flat = ops_e.reshape(k, -1)
    trans = ops_e.swapaxes(-1, -2).reshape(k, -1)
    norms = np.linalg.norm(flat, axis=1)

    def multiple(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        # whether V_j = c V_i^dag, c = Tr(V_i V_j) / |V_i|^2, pair by pair
        t, v = trans[i], flat[j]
        c = np.einsum("pq,pq->p", t, v) / norms[i] ** 2
        return np.linalg.norm(v - c[:, None] * t.conj(), axis=1) <= ALGEBRAIC * norms[j]

    first = multiple(slice(None), np.array([c[0] for c in cands]))
    return all(ok or multiple(np.full(len(c), i), np.array(c)).any()
               for i, (ok, c) in enumerate(zip(first, cands)))


def _trivial_commutant(ops_e, rates, g_e, rows, cols, jumps) -> bool:
    """Whether only scalars commute with every channel V_k among the
    operators on the pairs listed by ``rows`` and ``cols``, whose J
    (``_pair_jumps``) is ``jumps``.

    On those pairs sum_k r_k |[V_k, X]|^2 is the form delta_bd G[a, c] +
    delta_ac G'[d, b] - J - J^dag between the pairs (a, b) and (c, d),
    with G = sum_k r_k V_k^dag V_k and G' = sum_k r_k V_k V_k^dag.  Its
    null space holds the identity; a second eigenvalue above
    ``_COMMUTANT_GAP_REL`` tr G leaves it nothing else."""
    d = ops_e.shape[1]
    # row a of ``wide`` lists V_k[a, j] over (k, j), so wide r wide^dag = G'
    wide = ops_e.transpose(1, 0, 2).reshape(d, -1)
    g_out = (wide * np.repeat(rates, d)) @ wide.conj().T
    form = g_e[rows[:, None], rows[None, :]] * (cols[:, None] == cols[None, :])
    form += (rows[:, None] == rows[None, :]) * g_out[cols[None, :], cols[:, None]]
    form -= jumps + jumps.conj().T
    # the form is at most 4 tr G, with tr G = sum_k r_k |V_k|_F^2; unlike
    # the form's own largest eigenvalue, tr G is not roundoff when every
    # channel commutes with every operator on the pairs
    return bool(np.linalg.eigvalsh(form)[1] > _COMMUTANT_GAP_REL * np.trace(g_e).real)


def _commuting_pairs(energies: np.ndarray):
    """Rows and columns of the index pairs inside the degenerate level
    groups of ``energies``, the ascending levels of H, whose span holds
    every operator commuting with H; or None when all levels form one
    group."""
    tol = LEVEL_MERGE_REL * max(float(np.ptp(energies)), 1.0)
    label = np.concatenate(([0], np.cumsum(np.diff(energies) > tol)))
    if label[-1] == 0:
        return None
    cols, rows = np.nonzero(label[None, :] == label[:, None])
    return rows, cols


def _certified_sector(gen: GKLSGenerator, ops, rates, g):
    """The generator's block on its sector in the eigenbasis of H, with
    the sector's rows and columns, the eigenvectors, and G and H in that
    basis; or None when the sector is all d^2 pairs or is not certified
    to hold every stationary state.  A generator without channels is
    never certified: its commutant holds every function of H.  Nor is an
    interaction-picture generator, which has no H to split the levels.

    The generator maps the sector into itself, so a second null vector of
    the block is one of the generator, and the bordered solve rejects it.
    Null vectors outside the sector, which no population reaches, are
    ruled out by Spohn's condition (Lett. Math. Phys. 2, 33 (1977)): the
    channels span a self-adjoint set, and only scalars commute with them
    and H.  The support projection P of a stationary state then commutes
    with every channel, its adjoint and H, so P = 1; every stationary
    state is faithful, and two of them would give, by their difference,
    one that is not.  The commutant is checked on the pairs of
    ``_commuting_pairs`` (``_trivial_commutant``)."""
    if not len(rates) or not gen.include_hamiltonian:
        return None
    d = gen.dim
    evals, v = gen.eigenbasis()
    v = v.mat
    ops_e, g_e, h_e = (v.conj().T @ x @ v for x in (ops, g, gen.h.mat))
    jumps = _pattern(ops_e)
    # H is diagonal here, and G needs no pattern once the channels span a
    # self-adjoint set: G joins a and b when a channel sends both to one
    # level i, and the channel along its adjoint then feeds (a, b) from
    # (i, i)
    rows, cols = _sector_pairs(jumps)
    commuting = _commuting_pairs(evals)
    if len(rows) == d * d or commuting is None or not _self_adjoint_span(ops_e, jumps):
        return None
    z_rows, z_cols = commuting
    jumps_z = _pair_jumps(ops_e, rates, z_rows, z_cols)
    if not _trivial_commutant(ops_e, rates, g_e, z_rows, z_cols, jumps_z):
        return None
    # a secular sector lies inside Z and reads its J from there
    where = np.full(d * d, -1)
    where[z_cols * d + z_rows] = np.arange(len(z_rows))
    at = where[cols * d + rows]
    kernel = jumps_z[np.ix_(at, at)] if np.all(at >= 0) else _pair_jumps(ops_e, rates, rows, cols)
    a_e = -1j * h_e - 0.5 * g_e
    kernel += a_e[rows[:, None], rows[None, :]] * (cols[:, None] == cols[None, :])
    kernel += (rows[:, None] == rows[None, :]) * a_e[cols[:, None], cols[None, :]].conj()
    return np.asfortranarray(kernel), rows, cols, v, g_e, h_e


def stationary_state(gen: GKLSGenerator) -> DensityMatrix:
    """The unique state annihilated by the generator.  Rejects degenerate
    null spaces.

    Write the generator as rho -> A rho + rho A^dag + sum_k r_k V_k rho
    V_k^dag, with A = -i H - G / 2 (H = 0 in the interaction picture)
    and G = sum_k r_k V_k^dag V_k.  In the eigenbasis of H it maps the
    span of the sector, the closure of the diagonal pairs (i, i) under
    the nonzero patterns of the V_k, into itself when the V_k span a
    self-adjoint set.  When ``_certified_sector`` shows that every
    stationary state lies in that span, the generator is assembled on the
    sector alone, at a cost of K s^2 for K channels and s pairs; for a
    secular generator this is the zero-Bohr sector (s = d for a
    nondegenerate spectrum).  Otherwise, and for a qubit, the block is
    the generator's whole Liouvillian in the computational basis.  Either
    block is solved by ``_bordered_fixed_point``.

    The trace row and the rcond are scaled to the whole generator (its
    coherent spread and G), never to the block alone, whose entries may
    be pure roundoff.  The residual is max |L(rho)| at operator level,
    held to 1e-10 max(1, |L_s|_F) with L_s the block, a submatrix of the
    generator."""
    ops, rates = gen._stacked_channels(None)
    d, k = gen.dim, len(rates)
    g = ops.reshape(k * d, d).conj().T @ (rates[:, None, None] * ops).reshape(k * d, d)
    h_coh = gen.h.mat if gen.include_hamiltonian else np.zeros((d, d))
    sector = None
    if d * d > _WHOLE_LIOUVILLIAN_SIDE:
        sector = _certified_sector(gen, ops, rates, g)
    if sector is None:
        # every pair, in the computational basis
        kernel = np.array(gen.liouvillian().mat, order="F")
        cols, rows = np.divmod(np.arange(d * d), d)
        v, g_e, h_e = np.eye(d), g, h_coh
    else:
        kernel, rows, cols, v, g_e, h_e = sector
    a = -1j * h_coh - 0.5 * g
    resid_tol = 1e-10 * max(1.0, float(np.linalg.norm(kernel)))
    spread = float(np.ptp(h_e.diagonal().real))
    border = max(float(scipy.linalg.lapack.zlange("M", kernel)), spread,
                 float(np.max(np.abs(g_e))), 1e-300)
    x = _bordered_fixed_point(kernel, np.flatnonzero(rows == cols), border,
                              "stationary state not unique")
    m = np.zeros((d, d), dtype=complex)
    m[rows, cols] = x

    def residual(r: np.ndarray) -> float:
        jump = np.einsum("k,kij->ij", rates, ops @ r @ ops.conj().swapaxes(-1, -2))
        return float(np.max(np.abs(jump + a @ r + r @ a.conj().T)))

    return _fixed_point_state(v @ m @ v.conj().T, residual, resid_tol)


def _bordered_fixed_point(
    kernel: np.ndarray, diag: np.ndarray, border: float, degenerate: str
) -> np.ndarray:
    """The vector x with kernel x = 0 whose entries at the positions
    ``diag`` sum to one.

    ``kernel`` is a generator, or U - I for a trace-preserving map U, on
    the column-stacked entries of a set of index pairs that it maps into
    itself, and ``diag`` lists the positions of the diagonal pairs.  The
    rows at those positions sum to zero; the first is swapped for the
    trace functional times ``border``, and the system is solved with one
    LU factorisation, overwriting ``kernel`` when it is Fortran-ordered.
    An rcond below ``_RCOND_MIN`` (null space not one-dimensional) raises
    ValueError with the message ``degenerate``.  Every kernel used gives
    the same bits at any BLAS thread count."""
    a = np.asfortranarray(kernel, dtype=complex)
    a[diag[0], :] = 0.0
    a[diag[0], diag] = border
    anorm = scipy.linalg.lapack.zlange("1", a)
    lu, piv, _ = scipy.linalg.lapack.zgetrf(a, overwrite_a=True)
    rcond, _ = scipy.linalg.lapack.zgecon(lu, anorm)
    if not rcond >= _RCOND_MIN:
        raise ValueError(f"{degenerate}: bordered-system rcond {rcond:.3e} < {_RCOND_MIN:g}")
    rhs = np.zeros((len(a), 1), dtype=complex)
    rhs[diag[0]] = border
    y = scipy.linalg.solve_triangular(
        lu, scipy.linalg.lapack.zlaswp(rhs, piv), lower=True, unit_diagonal=True
    )
    return scipy.linalg.solve_triangular(lu, y)[:, 0]


def _fixed_point_state(m: np.ndarray, residual, resid_tol: float) -> DensityMatrix:
    """The state of a solved fixed point m: a non-positive m, or a
    ``residual(rho)`` above ``resid_tol``, raises ValueError."""
    evals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    if evals[0] < -100 * ALGEBRAIC:
        raise ValueError("fixed point is not a positive state")
    # clip eigenvalue dust below zero and renormalise
    evals = np.clip(evals, 0.0, None)
    rho = DensityMatrix((vecs * (evals / evals.sum())) @ vecs.conj().T)
    resid = residual(rho.mat)
    if resid > resid_tol:
        raise ValueError(f"fixed-point residual too large: {resid:.3e}")
    return rho


@dataclass
class ThermoLedger:
    """Time series of the thermodynamic bookkeeping along a trajectory."""

    times: np.ndarray
    energy: np.ndarray
    power: np.ndarray
    entropy: np.ndarray
    entropy_production: np.ndarray
    currents: dict[str, np.ndarray]
    states: list[DensityMatrix] = field(default_factory=list)

    def total_current(self) -> np.ndarray:
        if not self.currents:
            return np.zeros_like(self.times)
        return np.sum(list(self.currents.values()), axis=0)

    def first_law_residual(self) -> float:
        """Max |dE/dt - (sum_k J_k - P)| over interior grid points.

        dE/dt comes from a fourth-order central stencil on uniform grids
        (second-order otherwise), so the reported number reflects the
        dynamics rather than differentiation error."""
        if len(self.times) < 3:
            return 0.0
        t = self.times
        rhs = self.total_current() - self.power
        diffs = np.diff(t)
        uniform = np.allclose(diffs, diffs[0], rtol=1e-9, atol=0.0)
        if uniform and len(t) >= 5:
            h = diffs[0]
            e = self.energy
            de = (-e[4:] + 8 * e[3:-1] - 8 * e[1:-3] + e[:-4]) / (12 * h)
            return float(np.max(np.abs(de - rhs[2:-2])))
        de = np.gradient(self.energy, t)
        return float(np.max(np.abs(de[1:-1] - rhs[1:-1])))

    def current_scale(self) -> float:
        vals = [np.max(np.abs(v)) for v in self.currents.values()]
        vals.append(float(np.max(np.abs(self.power))))
        return max(max(vals) if vals else 0.0, 1e-30)

    def to_csv(self) -> str:
        cols = ["t", "E", "P", "S_vn", "sigma"] + [f"J_{k}" for k in self.currents]
        lines = [",".join(cols)]
        for i in range(len(self.times)):
            row = [
                self.times[i],
                self.energy[i],
                self.power[i],
                self.entropy[i],
                self.entropy_production[i],
            ] + [self.currents[k][i] for k in self.currents]
            lines.append(",".join(format(x, ".12g") for x in row))
        return "\n".join(lines) + "\n"


def trajectory(
    gen: GKLSGenerator,
    rho0: DensityMatrix,
    grid,
    keep_states: bool = False,
) -> ThermoLedger:
    """Propagate under a static generator, recording the ledger on the
    grid.  The Hamiltonian is constant so the power column is zero.

    States are propagated one grid step at a time and the ledger is read
    from blocks of ``_LEDGER_BLOCK`` states: each block is checked as a
    stack of density matrices and takes one batched eigendecomposition,
    one product with each bath's dissipator and batched traces."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValueError("grid must be a 1d array of times")
    if np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise ValueError("grid must be strictly increasing and non-negative")
    lmat = gen.liouvillian().mat
    n, d = len(grid), gen.dim
    energy = np.zeros(n)
    entropy = np.zeros(n)
    sigma = np.zeros(n)
    currents = {k: np.zeros(n) for k in gen.bath_labels}
    states = []
    block = np.empty((min(n, _LEDGER_BLOCK), d * d), dtype=complex)

    def record(lo: int, hi: int):
        # row k of the block is vec(M_k), which read row-major is M_k^T
        mt = block[: hi - lo].reshape(-1, d, d)
        rho = (mt.swapaxes(-1, -2) + mt.conj()) / 2.0
        evals, evecs = _state_spectra(rho, vectors=True)
        energy[lo:hi] = np.real(np.trace(rho @ gen.h.mat, axis1=-2, axis2=-1))
        entropy[lo:hi] = _entropy_of_probs(evals)
        sigma[lo:hi] = _entropy_production_stack(gen, rho, evals, evecs)
        for k, j in _heat_current_stack(gen, rho).items():
            currents[k][lo:hi] = j
        if keep_states:
            states.extend(DensityMatrix(r) for r in rho)

    v = vec(rho0.mat)
    prev_t = 0.0
    step_cache: dict[float, np.ndarray] = {}
    for i, t in enumerate(grid):
        dt = t - prev_t
        if dt > 0:
            if dt not in step_cache:
                step_cache[dt] = scipy.linalg.expm(lmat * dt)
            v = step_cache[dt] @ v
        prev_t = t
        row = i % _LEDGER_BLOCK
        block[row] = v
        if row == len(block) - 1 or i == n - 1:
            record(i - row, i + 1)
    return ThermoLedger(
        times=grid,
        energy=energy,
        power=np.zeros(n),
        entropy=entropy,
        entropy_production=sigma,
        currents=currents,
        states=states,
    )


def _max_bohr_frequency(h: Operator) -> float:
    evals = np.linalg.eigvalsh(h.mat)
    return float(evals.max() - evals.min())


def adiabatic_propagate(
    h_of_t,
    couplings: list[tuple[Operator, BathSpec]],
    rho0: DensityMatrix,
    grid,
    dh_dt=None,
    keep_states: bool = False,
    substeps: int = 1,
) -> ThermoLedger:
    """Slowly driven dynamics: the weak-coupling generator is rebuilt from
    the instantaneous Hamiltonian at every step and each step advances
    with its exponential.

    Steps longer than a tenth of the fastest Bohr period are refined
    (with a warning) so the instantaneous-generator picture stays inside
    its window of validity.  Power is -Tr(rho dH/dt), from the supplied
    derivative or a centred difference of the schedule.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must contain at least two times")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")

    def hamiltonian(t: float) -> Operator:
        # a schedule may return arrays, as the Floquet schedules do
        h = h_of_t(t)
        return h if isinstance(h, Operator) else Operator.hermitian(h)

    def deriv(t: float) -> np.ndarray:
        if dh_dt is not None:
            d = dh_dt(t)
            return d.mat if isinstance(d, Operator) else np.asarray(d, dtype=complex)
        eps = max(1e-7, 1e-7 * abs(t))
        hi = hamiltonian(t + eps).mat
        lo = hamiltonian(t - eps).mat if t - eps >= grid[0] else hamiltonian(t).mat
        span = 2 * eps if t - eps >= grid[0] else eps
        return (hi - lo) / span

    n = len(grid)
    energy = np.zeros(n)
    power = np.zeros(n)
    entropy = np.zeros(n)
    sigma = np.zeros(n)
    labels = [bath.label for _, bath in couplings]
    currents = {k: np.zeros(n) for k in labels}
    states = []

    warned = False
    rho = rho0

    def record(i: int, gen: GKLSGenerator, t: float):
        energy[i] = float(np.real(np.trace(rho.mat @ gen.h.mat)))
        power[i] = -float(np.real(np.trace(rho.mat @ deriv(t))))
        entropy[i] = von_neumann_entropy(rho)
        if gen.channels:
            sigma[i] = entropy_production_rate(gen, rho)
            for k, val in heat_currents(gen, rho).items():
                currents[k][i] = val
        if keep_states:
            states.append(rho)

    gen0 = build_davies(hamiltonian(grid[0]), couplings)
    record(0, gen0, grid[0])
    for i in range(1, n):
        t_a, t_b = grid[i - 1], grid[i]
        dt = t_b - t_a
        h_mid = hamiltonian(0.5 * (t_a + t_b))
        omega_max = _max_bohr_frequency(h_mid)
        dt_cap = (2 * math.pi / omega_max) / 10.0 if omega_max > 0 else dt
        n_sub = max(max(1, substeps), int(math.ceil(dt / dt_cap)))
        if n_sub > max(1, substeps) and not warned:
            warnings.warn(
                f"adiabatic step {dt:.3g} exceeds a tenth of the Bohr period; "
                f"refining internally",
                stacklevel=2,
            )
            warned = True
        sub = np.linspace(t_a, t_b, n_sub + 1)
        for j in range(n_sub):
            tm = 0.5 * (sub[j] + sub[j + 1])
            gen = build_davies(hamiltonian(tm), couplings)
            m = scipy.linalg.expm(gen.liouvillian().mat * (sub[j + 1] - sub[j]))
            out = unvec(m @ vec(rho.mat), rho.dim)
            rho = DensityMatrix((out + out.conj().T) / 2.0)
        record(i, build_davies(hamiltonian(t_b), couplings), t_b)
    return ThermoLedger(
        times=grid,
        energy=energy,
        power=power,
        entropy=entropy,
        entropy_production=sigma,
        currents=currents,
        states=states,
    )


def davies_audit(gen: GKLSGenerator, times=(0.1, 1.0)) -> dict[str, float]:
    """Numerical residuals of the structural properties of a
    weak-coupling generator; all should sit at roundoff.

    Returns a dict with keys:
      cp_min_eig            -- min Choi eigenvalue of exp(L t) over times
      trace_drift           -- trace-preservation residual of exp(L t)
      hamiltonian_commute   -- |[H-part, dissipator]| as superoperators
      pop_coherence_mix     -- population block coupling to coherences
      gibbs_residual        -- |L rho_beta| for a common-temperature bath set
      detailed_balance      -- worst rate-ratio deviation from exp(-beta w)
    """
    out: dict[str, float] = {}
    lmat = gen.liouvillian()
    side = lmat.mat.shape[0]
    props = np.array([matexp(lmat, t).mat for t in times]).reshape(-1, side, side)
    min_eig, drift = cptp_residuals(props)
    out["cp_min_eig"] = float(min_eig.min(initial=math.inf))
    out["trace_drift"] = float(drift.max(initial=0.0))

    hpart = hamiltonian_superop(gen.h).mat
    dpart = gen.dissipator().mat
    comm = hpart @ dpart - dpart @ hpart
    scale = max(1.0, float(np.max(np.abs(hpart))) * float(np.max(np.abs(dpart))))
    out["hamiltonian_commute"] = float(np.max(np.abs(comm))) / scale

    # population block decoupling, in the H eigenbasis
    evals, v = gen.eigenbasis()
    d = gen.dim
    basis_change = unitary_superop(v).mat  # its adjoint maps X to V^dag X V
    l_in_basis = basis_change.conj().T @ gen.dissipator().mat @ basis_change
    pop_idx = [i * d + i for i in range(d)]
    coh_idx = [i * d + j for j in range(d) for i in range(d) if i != j]
    mix = 0.0
    groups = group_degenerate(evals)
    if all(len(g) == 1 for g in groups):
        block = l_in_basis[np.ix_(pop_idx, coh_idx)]
        mix = float(np.max(np.abs(block))) if block.size else 0.0
    out["pop_coherence_mix"] = mix

    betas = {b.beta for b in gen.baths.values()}
    if len(betas) == 1:
        beta = betas.pop()
        rho_b = gibbs_state(gen.h, beta)
        out["gibbs_residual"] = float(
            np.max(np.abs(gen.liouvillian().apply_matrix(rho_b.mat)))
        )
    else:
        out["gibbs_residual"] = math.nan

    worst = 0.0
    for ch in gen.channels:
        if ch.bohr_frequency <= 0:
            continue
        partner = [
            c
            for c in gen.channels
            if c.bath_label == ch.bath_label
            and abs(c.bohr_frequency + ch.bohr_frequency) < 1e-9
        ]
        if not partner:
            continue
        bath = gen.baths[ch.bath_label]
        if bath.beta == math.inf:
            continue
        expected = math.exp(-bath.beta * ch.bohr_frequency) if bath.beta > 0 else 1.0
        got = partner[0].rate / ch.rate
        worst = max(worst, abs(got - expected) / max(expected, 1e-30))
    out["detailed_balance"] = worst
    return out
