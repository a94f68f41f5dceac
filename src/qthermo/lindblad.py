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
# entries of a Bohr bin below this fraction of the bin's largest entry are
# roundoff of the rotation into the eigenbasis and join no index pair to the
# sector of a stationary solve
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

    A generator is built either from explicit channels or, by
    :func:`build_davies`, from the Bohr-indexed tables of its couplings
    (:class:`_Tables`); for the latter ``channels`` is a view derived from
    the tables on first use.  ``include_hamiltonian`` is switched off for
    interaction-picture generators whose coherent part lives in the frame
    transformation.
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
        self._channels: tuple[JumpChannel, ...] | None = tuple(channels)
        self._tables: _Tables | None = None
        self.baths = dict(baths or {})
        self.include_hamiltonian = include_hamiltonian
        self._liouvillian: Superoperator | None = None
        self._bath_parts: dict[str, Superoperator] = {}
        self._heat_observables: dict[str, np.ndarray] = {}
        self._log_references: dict[str, np.ndarray] = {}
        # ascending eigenvalues and eigenvector matrix of H, read-only arrays
        self._eig: tuple[np.ndarray, np.ndarray] | None = None
        self._eigenbasis: tuple[np.ndarray, Operator] | None = None

    @classmethod
    def _tabled(cls, h: Operator, tables: "_Tables", evals: np.ndarray, v: np.ndarray,
                baths: dict[str, BathSpec]) -> "GKLSGenerator":
        gen = cls(h, (), baths)
        gen._channels, gen._tables, gen._eig = None, tables, (evals, v)
        return gen

    @property
    def dim(self) -> int:
        return self.h.dim

    @property
    def channels(self) -> tuple[JumpChannel, ...]:
        """The jump channels; those of a tabled generator are rotated out of
        the eigenbasis of H once, on first use."""
        if self._channels is None:
            self._channels = _table_channels(self._tables, self._eig[1])
        return self._channels

    def eigenbasis(self) -> tuple[np.ndarray, Operator]:
        """Ascending eigenvalues of H and the unitary of its eigenvectors,
        as :func:`eig_hermitian` gives them, computed once; both read-only.
        ``build_davies`` hands over the decomposition it computed."""
        if self._eigenbasis is None:
            if self._eig is None:
                evals, v = eig_hermitian(self.h)
                evals.setflags(write=False)
                self._eigenbasis = evals, v
            else:
                self._eigenbasis = self._eig[0], Operator.unitary(self._eig[1])
        return self._eigenbasis

    @property
    def bath_labels(self) -> list[str]:
        if self._tables is not None:
            t = self._tables
            names = [label for label, rates in zip(t.labels, t.bin_rates) if rates]
        else:
            names = [ch.bath_label for ch in self.channels]
        return list(dict.fromkeys(names))

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
        heat current in the state rho is Re Tr(Q rho).  A tabled generator
        reads it from its tables (:func:`_table_heat_observables`)."""
        if label not in self._heat_observables:
            if self._tables is not None:
                _table_heat_observables([self])
                if label not in self._heat_observables:
                    return np.zeros((self.dim, self.dim), dtype=complex)
            else:
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


@dataclass(frozen=True)
class _Tables:
    """The couplings of a weak-coupling generator as Bohr-indexed tables in
    the eigenbasis of H (Davies, Commun. Math. Phys. 39, 91 (1974)).

    Coupling c, to the bath ``labels[c]``, is ``s_e[c]`` = V^dag S_c V.
    Each of its elements lies in at most one Bohr bin: ``bins[c]`` holds
    the bin of each element, or -1 outside every bin whose rate clears the
    rate floor, and ``rates[c]`` the rate of that bin (0 outside).  Bin k
    is the channel ``s_e[c]`` restricted to ``bins[c] == k``, at the Bohr
    frequency ``freqs[c][k]`` with the rate ``bin_rates[c][k]``.  Tables
    of one shape stack into dense (n, C, d, d) arrays, whatever their
    channel counts."""

    labels: tuple[str, ...]
    s_e: np.ndarray
    bins: np.ndarray
    rates: np.ndarray
    freqs: tuple[tuple[float, ...], ...]
    bin_rates: tuple[tuple[float, ...], ...]


def _coupling_tables(h_evals: np.ndarray, s_e: np.ndarray, couplings) -> _Tables:
    """Secular decomposition of hermitian couplings, given in the
    eigenbasis of H as the (C, d, d) stack ``s_e``, against their baths,
    coupling by coupling; the levels of H are grouped once for all."""
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
    bins = np.full(s_e.shape, -1)
    rates = np.zeros(s_e.shape)
    freqs, bin_rates = [], []
    for c, (_, bath) in enumerate(couplings):
        mine = member == c
        c_from, c_to = g_from[mine], g_to[mine]
        # S(omega) collects |n><m| with omega = E_m - E_n
        gaps = centers[c_from] - centers[c_to]

        # bin gaps; reject unresolved near-degeneracies
        groups, bin_centers, pair = _bin_frequencies(gaps, merge_tol, resolve_tol)
        if pair is not None:
            i, j = pair
            sep = abs(bin_centers[i] - bin_centers[j])
            raise BohrResolutionError(
                f"Bohr gaps {bin_centers[i]:.12g} and {bin_centers[j]:.12g} of "
                f"coupling to bath {bath.label!r} differ by {sep:.3e}, inside the "
                f"unresolved band ({merge_tol:.1e}, {resolve_tol:.1e})"
            )

        block_bin = np.full((len(centers), len(centers)), -1)
        if groups:
            flat = np.concatenate(groups)
            block_bin[c_from[flat], c_to[flat]] = np.repeat(np.arange(len(groups)),
                                                            [len(g) for g in groups])
        elem_bin = block_bin[label[None, :], label[:, None]]
        centers_c = bin_centers.tolist()
        rates_c = [spectral_density(center, bath) for center in centers_c]
        kept = [k for k, rate in enumerate(rates_c) if rate > _RATE_FLOOR]
        # kept bins are renumbered 0, 1, ...; the last entry sends -1 to -1
        renumber = np.full(len(centers_c) + 1, -1)
        renumber[kept] = np.arange(len(kept))
        bins[c] = renumber[elem_bin]
        bin_rates.append(tuple(rates_c[k] for k in kept))
        freqs.append(tuple(centers_c[k] for k in kept))
        rates[c] = np.array(bin_rates[-1] + (0.0,))[bins[c]]
    for arr in (bins, rates):
        arr.setflags(write=False)
    return _Tables(tuple(bath.label for _, bath in couplings), s_e, bins, rates,
                   tuple(freqs), tuple(bin_rates))


def _table_channels(t: _Tables, basis: np.ndarray) -> tuple[JumpChannel, ...]:
    """The channels of the tables rotated back to the computational basis,
    read-only, in coupling order and ascending Bohr frequency."""
    channels = []
    for c, label in enumerate(t.labels):
        k = len(t.bin_rates[c])
        # "+ 0.0" stores -0.0 entries of s_e as 0.0
        ops = np.where(t.bins[c] == np.arange(k)[:, None, None], t.s_e[c], 0.0) + 0.0
        ops = basis @ ops @ basis.conj().T
        ops.setflags(write=False)
        channels.extend(JumpChannel(label, freq, op, rate)
                        for freq, op, rate in zip(t.freqs[c], ops, t.bin_rates[c]))
    return tuple(channels)


def _davies_stack(hs: Sequence[Operator], couplings) -> list[GKLSGenerator | BohrResolutionError]:
    """Weak-coupling generators of the Hamiltonians ``hs`` (one dimension)
    against one list of hermitian couplings: one batched ``eigh`` and one
    batched rotation of the couplings into every eigenbasis; only the Bohr
    binning runs member by member.  A member whose gaps the secular
    approximation can neither merge nor resolve is its
    BohrResolutionError.  Each member's bits are those of building it
    alone."""
    d = hs[0].dim
    baths = {}
    for s_op, bath in couplings:
        if s_op.dim != d:
            raise ValueError("coupling dimension does not match the Hamiltonian")
        if bath.label in baths and baths[bath.label] != bath:
            raise ValueError(f"two different baths share the label {bath.label!r}")
        baths[bath.label] = bath
    if any(h.dim != d for h in hs):
        raise ValueError("the Hamiltonians of one stack must share their dimension")
    if not all(h.is_hermitian() for h in hs):
        raise ValueError("generator Hamiltonian must be hermitian")
    if not all(s_op.is_hermitian() for s_op, _ in couplings):
        raise ValueError("coupling operators must be hermitian")
    mats = np.array([h.mat for h in hs])
    evals, v = np.linalg.eigh((mats + mats.conj().swapaxes(-1, -2)) / 2.0)
    s = np.array([s_op.mat for s_op, _ in couplings], dtype=complex).reshape(-1, d, d)
    s_e = v.conj().swapaxes(-1, -2)[:, None] @ s[None] @ v[:, None]
    for arr in (evals, v, s_e):
        arr.setflags(write=False)
    gens = []
    for h, e_i, v_i, s_i in zip(hs, evals, v, s_e):
        try:
            tables = _coupling_tables(e_i, s_i, couplings)
        except BohrResolutionError as exc:
            gens.append(exc)
            continue
        gens.append(GKLSGenerator._tabled(h, tables, e_i, v_i, baths))
    return gens


def build_davies(h: Operator, couplings: list[tuple[Operator, BathSpec]]) -> GKLSGenerator:
    """Weak-coupling generator: channels enumerate the Bohr frequencies of
    H for each hermitian coupling, with rates drawn from the bath's
    spectral function, held as the Bohr-indexed tables of
    :class:`_Tables`.  Detailed balance of the rates, and with it Gibbs
    stationarity at a common bath temperature, hold by construction.  The
    coherent part is H alone: a Lamb shift commutes with H and moves no
    populations, so no law reads it."""
    (gen,) = _davies_stack([h], couplings)
    if isinstance(gen, BohrResolutionError):
        raise gen
    return gen


def _stacked_tables(gens: Sequence[GKLSGenerator]):
    """The tables, eigenvalues and eigenvectors of tabled generators of one
    shape as (n, C, d, d), (n, d) and (n, d, d) arrays."""
    tabs = [g._tables for g in gens]
    return (np.array([t.s_e for t in tabs]), np.array([t.bins for t in tabs]),
            np.array([t.rates for t in tabs]), np.array([g._eig[0] for g in gens]),
            np.array([g._eig[1] for g in gens]))


def _bin_products(s: np.ndarray, bins: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """x[..., m, a, b] = r conj(S[m, a]) S[m, b] when the elements (m, a)
    and (m, b) of the (..., d, d) tables lie in one bin of rate r, else 0.
    Summed over m it is sum_k r_k V_k^dag V_k over the bins k; the array
    is (..., d, d, d), never d^4."""
    same = (bins[..., :, :, None] == bins[..., :, None, :]) & (bins >= 0)[..., :, :, None]
    return np.where(same, (rates * s.conj())[..., :, :, None] * s[..., :, None, :], 0.0)


def _table_heat_observables(gens: Sequence[GKLSGenerator]) -> tuple[list[str], np.ndarray]:
    """Q_b = D_b^dag(H) of every bath, in the computational basis, for a
    stack of tabled generators of one shape and one list of coupling
    labels; each is also cached on its generator.  Returns the L bath
    labels, in the order of their first coupling, and the (n, L, d, d)
    observables.

    In the eigenbasis, Q[a, b] = sum_{k, m} r_k conj(V_k[m, a]) V_k[m, b]
    (E_m - (E_a + E_b) / 2): one pass over the tables per coupling,
    whatever its channel count."""
    labels = list(dict.fromkeys(gens[0]._tables.labels))
    s, bins, rates, evals, v = _stacked_tables(gens)
    x = _bin_products(s, bins, rates)
    jump = (x * evals[:, None, :, None, None]).sum(axis=2)
    q_e = jump - 0.5 * x.sum(axis=2) * (evals[:, None, :, None] + evals[:, None, None, :])
    coupling_labels = np.array(gens[0]._tables.labels)
    q_e = np.stack([q_e[:, coupling_labels == label].sum(axis=1) for label in labels], axis=1)
    q = v[:, None] @ q_e @ v.conj().swapaxes(-1, -2)[:, None]
    for gen, q_i in zip(gens, q):
        gen._heat_observables.update(zip(labels, q_i))
    return labels, q


def propagate(gen: GKLSGenerator, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """exp(L t) applied to the state."""
    if t < 0:
        raise ValueError("propagation time must be >= 0")
    prop = matexp(gen.liouvillian(), t)
    return prop.apply(rho0)


def _currents(q: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Re Tr(Q_l rho) for (..., L, d, d) observables and (..., d, d) states:
    (..., L).  The products are laid out C-ordered, so that each trace sums
    its terms in one order whatever the leading shape."""
    prod = np.multiply(np.swapaxes(q, -1, -2), rho[..., None, :, :], order="C")
    return np.real(np.sum(prod, axis=(-2, -1)))


def _heat_current_stack(gen: GKLSGenerator, stack: np.ndarray) -> dict[str, np.ndarray]:
    """Re Tr(Q_b rho) per bath for every member of a (n, d, d) stack."""
    labels = gen.bath_labels
    q = np.array([gen.heat_observable(label) for label in labels]).reshape(-1, gen.dim, gen.dim)
    j = _currents(q, stack)
    return {label: j[:, k] for k, label in enumerate(labels)}


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


def _bin_ids(bins: np.ndarray) -> tuple[np.ndarray, int]:
    """Ids of the bins of (n, C, d, d) tables, distinct across members and
    couplings and member-major, with -1 outside every bin; and their
    number."""
    n, c = bins.shape[:2]
    k = int(bins.max(initial=-1)) + 1
    base = (np.arange(n * c) * k).reshape(n, c, 1, 1)
    return np.where(bins >= 0, bins + base, -1), n * c * k


def _closure(pattern: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """The closure of the diagonal index pairs (i, i) under rho -> V rho
    V^dag for every channel V of each member of (n, C, d, d) tables,
    whose nonzero entries are ``pattern``: a pair (c, d) feeds (a, b) when
    one bin holds (a, c) and (b, d).  Each pair is expanded once, at
    C d^2 per pair.  Returns the (n, d, d) boolean mask of the pairs."""
    n, _, d, _ = pattern.shape
    b = np.where(pattern, bins, -1)
    reach = np.zeros((n, d, d), dtype=bool)
    member, i = np.divmod(np.arange(n * d), d)
    reach[member, i, i] = True
    front = member, i, i
    while len(front[0]):
        member, c, dd = front
        b_in, b_out = b[member, :, :, c], b[member, :, :, dd]  # (F, C, d)
        hit = ((b_in[..., :, None] == b_out[..., None, :])
               & (b_in >= 0)[..., :, None]).any(axis=1)
        starts = np.flatnonzero(np.r_[True, member[1:] != member[:-1]])
        grown = np.zeros_like(reach)
        grown[member[starts]] = np.logical_or.reduceat(hit, starts, axis=0)
        fresh = grown & ~reach
        reach |= fresh
        front = np.nonzero(fresh)
    return reach


def _adjoint_closed(s: np.ndarray, ids: np.ndarray, n_ids: int,
                    pattern: np.ndarray) -> np.ndarray:
    """Per member of (n, C, d, d) tables with bin ids ``ids``: whether the
    channels span a self-adjoint set, each channel's adjoint being c V_j,
    within ALGEBRAIC of |V_j|, for the channel V_j of its own coupling on
    the mirrored entries.  A hermitian coupling puts the adjoint of its
    channel at omega in its own bin at -omega; a channel whose mirrored
    pattern is not one bin of its coupling fails."""
    n = len(s)
    ids_t, s_t = ids.swapaxes(-1, -2), s.swapaxes(-1, -2)
    ok = (pattern == pattern.swapaxes(-1, -2)).all(axis=(1, 2, 3))
    # the mirror f(i) of bin i holds the mirror images of its pattern entries
    lo, hi = np.full(n_ids, n_ids), np.full(n_ids, -1)
    np.minimum.at(lo, ids[pattern], ids_t[pattern])
    np.maximum.at(hi, ids[pattern], ids_t[pattern])
    present = lo <= hi
    ok &= ~(present & ((lo != hi) | (lo < 0))).reshape(n, -1).any(axis=1)
    f = np.where(present & (lo == hi), hi, -1)
    finv = np.full(n_ids + 1, -1)
    finv[f[f >= 0]] = np.flatnonzero(f >= 0)
    kept = ids >= 0
    mag2 = np.abs(s) ** 2
    norm2 = np.bincount(ids[kept], mag2[kept], minlength=n_ids)
    # c_i = Tr(V_i V_f(i)) / |V_i|^2, over the entries of bin i mirrored into f(i)
    pair = kept & (ids_t == np.where(kept, f[ids], -2))
    prod = (s * s_t)[pair]
    num = (np.bincount(ids[pair], prod.real, minlength=n_ids)
           + 1j * np.bincount(ids[pair], prod.imag, minlength=n_ids))
    coef = num / np.where(norm2 > 0, norm2, 1.0)
    # |V_f(i) - c_i V_i^dag|^2 entry by entry: entry (a, b) holds V_j[a, b]
    # for j = ids[a, b], the target of bin src = f^-1(j), and V_i^dag[a, b]
    # = conj(S[b, a]) for i = ids_t[a, b]
    src = np.where(kept, finv[ids], -1)
    adj = ids_t
    both = (src >= 0) & (src == adj)
    only_j = (src >= 0) & ~both
    only_i = (adj >= 0) & ~both
    resid = (np.bincount(src[both], np.abs(s - coef[adj] * s_t.conj())[both] ** 2, minlength=n_ids)
             + np.bincount(src[only_j], mag2[only_j], minlength=n_ids)
             + np.bincount(adj[only_i], (np.abs(coef[adj]) ** 2 * np.abs(s_t) ** 2)[only_i],
                           minlength=n_ids))
    bad = present & (f >= 0) & (resid > ALGEBRAIC ** 2 * norm2[f])
    return ok & ~bad.reshape(n, -1).any(axis=1)


def _pair_lists(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns, in column-stacked order, of the pairs of a (g, d, d)
    mask whose members all hold the same number P of pairs: two (g, P)
    arrays."""
    _, cols, rows = np.nonzero(mask.swapaxes(-1, -2))
    return rows.reshape(len(mask), -1), cols.reshape(len(mask), -1)


def _by_size(mask: np.ndarray, members: np.ndarray):
    """The members (indices into ``mask``) grouped by their pair count,
    each group with its ``_pair_lists``."""
    sizes = mask.sum(axis=(1, 2))
    for size in np.unique(sizes[members]):
        sel = members[sizes[members] == size]
        yield (sel, *_pair_lists(mask[sel]))


def _table_pair_jumps(s, bins, rates, rows, cols) -> np.ndarray:
    """Entry (p, q) is sum_k r_k V_k[a, c] conj(V_k[b, d]) for the pairs
    p = (a, b) and q = (c, d) listed by the (g, P) ``rows`` and ``cols``:
    the weight of rho[c, d] in the jump part of L(rho)[a, b], read from
    (g, C, d, d) tables; (g, P, P)."""
    i = np.arange(len(s))[:, None, None]
    ac = rows[:, :, None], rows[:, None, :]
    bd = cols[:, :, None], cols[:, None, :]
    out = np.zeros((len(s), rows.shape[1], rows.shape[1]), dtype=complex)
    for c in range(s.shape[1]):
        b_ac = bins[i, c, ac[0], ac[1]]
        same = (b_ac >= 0) & (b_ac == bins[i, c, bd[0], bd[1]])
        out += np.where(same, rates[i, c, ac[0], ac[1]] * s[i, c, ac[0], ac[1]]
                        * s[i, c, bd[0], bd[1]].conj(), 0.0)
    return out


def _certified_sectors(s, bins, rates, evals, g_e) -> tuple[np.ndarray, np.ndarray]:
    """The sectors of (n, C, d, d) tables with the (n, d) levels of H, as an
    (n, d, d) mask of index pairs, and the members whose sector is
    certified to hold every stationary state; ``g_e`` is G = sum_k r_k
    V_k^dag V_k of each member.

    Certificate (Spohn, Lett. Math. Phys. 2, 33 (1977)): the sector, the
    closure of the diagonal pairs under the channels (``_closure``), is
    not all d^2 pairs; H has more than one level group; the channels span
    a self-adjoint set (``_adjoint_closed``); and only scalars commute
    with them and H.  The commutant is checked on the pairs Z inside the
    degenerate level groups of H, where sum_k r_k |[V_k, X]|^2 is the form
    delta_bd G[a, c] + delta_ac G'[d, b] - J - J^dag between the pairs
    (a, b) and (c, d), with G' = sum_k r_k V_k V_k^dag; its null space
    holds the identity, and a second eigenvalue above
    ``_COMMUTANT_GAP_REL`` tr G leaves it nothing else (the form is at
    most 4 tr G, and tr G is not roundoff when every channel commutes with
    every operator on Z).  The support projection P of a stationary state
    then commutes with every channel, its adjoint and H, so P = 1: every
    stationary state is faithful, and two of them would give, by their
    difference, one that is not.  The generator maps the sector into
    itself, so a second null vector of its block is one of the generator,
    and the bordered solve rejects it."""
    n, _, d, _ = s.shape
    ids, n_ids = _bin_ids(bins)
    kept = ids >= 0
    # entries below _PATTERN_REL of their bin's largest join no pair
    mag = np.abs(s)
    top = np.zeros(n_ids + 1)
    np.maximum.at(top, ids[kept], mag[kept])
    pattern = kept & (mag > _PATTERN_REL * top[ids])
    reach = _closure(pattern, bins)
    if not kept.any():
        return reach, np.zeros(0, dtype=int)
    tol = LEVEL_MERGE_REL * np.maximum(np.ptp(evals, axis=1), 1.0)
    level = np.concatenate([np.zeros((n, 1), dtype=int),
                            np.cumsum(np.diff(evals, axis=1) > tol[:, None], axis=1)], axis=1)
    candidates = np.flatnonzero(
        kept.any(axis=(1, 2, 3)) & (level[:, -1] > 0) & (reach.sum(axis=(1, 2)) < d * d)
        & _adjoint_closed(s, ids, n_ids, pattern))
    if not len(candidates):
        return reach, candidates
    g_out = _bin_products(*(x.swapaxes(-1, -2) for x in (s, bins, rates))).sum(axis=(1, 2)).conj()
    certified = []
    for sel, rows, cols in _by_size(level[:, :, None] == level[:, None, :], candidates):
        i = np.arange(len(sel))[:, None, None]
        rp, rq, cp, cq = rows[:, :, None], rows[:, None, :], cols[:, :, None], cols[:, None, :]
        jumps = _table_pair_jumps(s[sel], bins[sel], rates[sel], rows, cols)
        form = g_e[sel][i, rp, rq] * (cp == cq) + (rp == rq) * g_out[sel][i, cq, cp]
        form -= jumps + jumps.conj().swapaxes(-1, -2)
        gap = np.linalg.eigvalsh(form)[:, 1]
        certified.extend(sel[gap > _COMMUTANT_GAP_REL * np.trace(g_e[sel], axis1=1, axis2=2).real])
    return reach, np.sort(np.array(certified, dtype=int))


def _sector_states(gens: Sequence[GKLSGenerator]) -> list:
    """Stationary states of tabled generators of one shape, solved on their
    certified sectors (``_certified_sectors``) in the eigenbasis of H as
    one stack.  Entry i is the state, a ValueError, or None when the
    sector of generator i is not certified."""
    s, bins, rates, evals, v = _stacked_tables(gens)
    n, _, d, _ = s.shape
    out: list = [None] * n
    g_e = _bin_products(s, bins, rates).sum(axis=(1, 2))
    reach, certified = _certified_sectors(s, bins, rates, evals, g_e)
    a_e = -0.5 * g_e
    a_e[:, np.arange(d), np.arange(d)] -= 1j * evals
    for sel, rows, cols in _by_size(reach, certified):
        i = np.arange(len(sel))[:, None, None]
        rp, rq, cp, cq = rows[:, :, None], rows[:, None, :], cols[:, :, None], cols[:, None, :]
        kernel = _table_pair_jumps(s[sel], bins[sel], rates[sel], rows, cols)
        kernel += a_e[sel][i, rp, rq] * (cp == cq)
        kernel += (rp == rq) * a_e[sel][i, cp, cq].conj()
        # the trace row and the rcond are scaled to the whole generator, its
        # coherent spread and G, never to the block alone, whose entries may
        # be pure roundoff; the residual is held to 1e-10 max(1, |block|_F)
        mag_k = np.abs(kernel)
        resid_tol = 1e-10 * np.maximum(1.0, np.sqrt(np.sum(mag_k ** 2, axis=(1, 2))))
        border = np.maximum.reduce([mag_k.max(axis=(1, 2)), np.ptp(evals[sel], axis=1),
                                    np.abs(g_e[sel]).max(axis=(1, 2)), np.full(len(sel), 1e-300)])
        m = np.zeros((len(sel), d, d), dtype=complex)
        solved = np.zeros(len(sel), dtype=bool)
        # LAPACK factorises one matrix per call
        for j, (block, r, c, edge) in enumerate(zip(kernel, rows, cols, border)):
            try:
                m[j, r, c] = _bordered_fixed_point(np.asfortranarray(block), np.flatnonzero(r == c),
                                                   float(edge), "stationary state not unique")
                solved[j] = True
            except ValueError as exc:
                out[sel[j]] = exc
        sel, m, resid_tol = sel[solved], m[solved], resid_tol[solved]
        if not len(sel):
            continue
        vs = v[sel]
        states = _fixed_point_states(vs @ m @ vs.conj().swapaxes(-1, -2))
        rho = np.array([x.mat if isinstance(x, DensityMatrix) else np.zeros((d, d))
                        for x in states])
        # the operator-level residual max |L(rho)|, with the jump part read
        # from the tables bin by bin
        rho_e = vs.conj().swapaxes(-1, -2) @ rho @ vs
        lr = _table_jumps(s[sel], bins[sel], rates[sel], rho_e)
        lr += a_e[sel] @ rho_e + rho_e @ a_e[sel].conj().swapaxes(-1, -2)
        resid = np.abs(vs @ lr @ vs.conj().swapaxes(-1, -2)).max(axis=(1, 2))
        for j, state, res, res_tol in zip(sel, states, resid, resid_tol):
            if isinstance(state, DensityMatrix) and res > res_tol:
                state = ValueError(f"fixed-point residual too large: {res:.3e}")
            out[j] = state
    return out


def _table_jumps(s, bins, rates, rho_e) -> np.ndarray:
    """sum_k r_k V_k rho V_k^dag for (g, C, d, d) tables and (g, d, d)
    states in the eigenbasis, bin by bin: K d^3 for K bins."""
    out = np.zeros_like(rho_e)
    rs = rates * s
    s_h, bins_t = s.conj().swapaxes(-1, -2), bins.swapaxes(-1, -2)
    for k in range(int(bins.max(initial=-1)) + 1):
        left = np.where(bins == k, rs, 0.0)
        out += (left @ rho_e[:, None] @ np.where(bins_t == k, s_h, 0.0)).sum(axis=1)
    return out


def _stationary_stack(gens: Sequence[GKLSGenerator]) -> list:
    """Stationary states of a stack of generators: entry i is the state of
    generator i or the ValueError that solving it raised.  Tabled
    generators larger than a qubit are solved on their sectors, one stack
    per shape (``_sector_states``); the others, and those whose sector is
    not certified, on their whole Liouvillian (``_liouvillian_state``)."""
    out: list = [None] * len(gens)
    shapes: dict[tuple, list[int]] = {}
    for i, gen in enumerate(gens):
        if gen._tables is not None and gen.dim ** 2 > _WHOLE_LIOUVILLIAN_SIDE:
            shapes.setdefault(gen._tables.s_e.shape, []).append(i)
    for idx in shapes.values():
        for i, state in zip(idx, _sector_states([gens[i] for i in idx])):
            out[i] = state
    for i, gen in enumerate(gens):
        if out[i] is None:
            try:
                out[i] = _liouvillian_state(gen)
            except ValueError as exc:
                out[i] = exc
    return out


def stationary_state(gen: GKLSGenerator) -> DensityMatrix:
    """The unique state annihilated by the generator.  Rejects degenerate
    null spaces.

    Write the generator as rho -> A rho + rho A^dag + sum_k r_k V_k rho
    V_k^dag, with A = -i H - G / 2 (H = 0 in the interaction picture)
    and G = sum_k r_k V_k^dag V_k.  In the eigenbasis of H it maps the
    span of the sector, the closure of the diagonal pairs (i, i) under
    the nonzero patterns of the V_k, into itself when the V_k span a
    self-adjoint set.  A generator built by ``build_davies`` is solved on
    its sector, read from its tables, when ``_sector_states`` certifies
    that every stationary state lies in that span; for a secular generator
    this is the zero-Bohr sector (s = d for a nondegenerate spectrum).
    Otherwise, for a qubit and for a generator built from explicit
    channels, the block is the whole Liouvillian in the computational
    basis.  Either block is solved by ``_bordered_fixed_point``, and the
    state is checked by its operator-level residual max |L(rho)|."""
    (state,) = _stationary_stack([gen])
    if isinstance(state, ValueError):
        raise state
    return state


def _liouvillian_state(gen: GKLSGenerator) -> DensityMatrix:
    """The stationary state from the whole Liouvillian in the computational
    basis; its residual is held to 1e-10 max(1, |L|_F)."""
    ops, rates = gen._stacked_channels(None)
    d, k = gen.dim, len(rates)
    kernel = np.array(gen.liouvillian().mat, order="F")
    g = ops.reshape(k * d, d).conj().T @ (rates[:, None, None] * ops).reshape(k * d, d)
    h_coh = gen.h.mat if gen.include_hamiltonian else np.zeros((d, d))
    a = -1j * h_coh - 0.5 * g
    resid_tol = 1e-10 * max(1.0, float(np.linalg.norm(kernel)))
    spread = float(np.ptp(h_coh.diagonal().real))
    border = max(float(scipy.linalg.lapack.zlange("M", kernel)), spread,
                 float(np.max(np.abs(g))), 1e-300)
    cols, rows = np.divmod(np.arange(d * d), d)
    x = _bordered_fixed_point(kernel, np.flatnonzero(rows == cols), border,
                              "stationary state not unique")

    def residual(r: np.ndarray) -> float:
        jump = np.einsum("k,kij->ij", rates, ops @ r @ ops.conj().swapaxes(-1, -2))
        return float(np.max(np.abs(jump + a @ r + r @ a.conj().T)))

    return _fixed_point_state(unvec(x, d), residual, resid_tol)


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
    # the LAPACK triangular solves that scipy.linalg.solve_triangular calls
    # for Fortran-ordered factors, without its checks of each argument
    y, _ = scipy.linalg.lapack.ztrtrs(lu, scipy.linalg.lapack.zlaswp(rhs, piv),
                                      lower=1, unitdiag=1)
    x, info = scipy.linalg.lapack.ztrtrs(lu, y)
    if info:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x[:, 0]


def _fixed_point_states(mats: np.ndarray) -> list:
    """The states of a (n, d, d) stack of solved fixed points: entry i is a
    DensityMatrix, or the ValueError of a non-positive member.  Eigenvalue
    dust below zero is clipped and the spectrum renormalised."""
    evals, vecs = np.linalg.eigh((mats + mats.conj().swapaxes(-1, -2)) / 2.0)
    positive = ~(evals[:, 0] < -100 * ALGEBRAIC)
    evals = np.clip(evals, 0.0, None)
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = evals / evals.sum(axis=-1, keepdims=True)
    rho = (vecs * weights[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    out = []
    for ok, r in zip(positive, rho):
        if not ok:
            out.append(ValueError("fixed point is not a positive state"))
            continue
        try:
            out.append(DensityMatrix(r))
        except ValueError as exc:
            out.append(exc)
    return out


def _fixed_point_state(m: np.ndarray, residual, resid_tol: float) -> DensityMatrix:
    """The state of a solved fixed point m: a non-positive m, or a
    ``residual(rho)`` above ``resid_tol``, raises ValueError."""
    (rho,) = _fixed_point_states(m[None])
    if isinstance(rho, ValueError):
        raise rho
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
