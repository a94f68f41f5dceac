"""Markovian generators in GKLS form.

Direct construction from jump channels, the weak-coupling (secular)
construction from a Hamiltonian, hermitian coupling operators and bath
rate tables, propagation, thermodynamic ledgers, and the audits used by
the law-certification suite.  Static and slowly driven trajectories read
their ledgers through one stacked kernel (``_ledger_columns``);
``heat_currents`` and ``entropy_production_rate`` are the one-state case
of the kernels it calls.
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
    _commutators,
    _dissipators,
    _eigh_stack,
    _level_blocks,
    _state_spectra,
    adjoint_dissipator,
    cptp_residuals,
    dissipator_superop,
    group_degenerate,
    hamiltonian_superop,
    matexp,
    unitary_superop,
    unvec,
    vec,
)
from .states import _entropy_of_probs, _gibbs_weights, gibbs_state
from .tolerances import ALGEBRAIC, LEVEL_MERGE_REL, LEVEL_RESOLVE_REL

__all__ = [
    "JumpChannel",
    "GKLSGenerator",
    "ThermoLedger",
    "BohrResolutionError",
    "build_davies",
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
    (:class:`_Tables`), in the eigenbasis that ``h`` carries
    (:meth:`Operator.eigh`); ``channels`` is then a view derived from the
    tables on first use.  ``include_hamiltonian`` is switched off for
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

    @classmethod
    def _tabled(cls, h: Operator, tables: "_Tables", baths: dict[str, BathSpec]) -> "GKLSGenerator":
        gen = cls(h, (), baths)
        gen._channels, gen._tables = None, tables
        return gen

    @property
    def dim(self) -> int:
        return self.h.dim

    @property
    def channels(self) -> tuple[JumpChannel, ...]:
        """The jump channels; those of a tabled generator are rotated out of
        the eigenbasis of H once, on first use."""
        if self._channels is None:
            self._channels = _table_channels(self._tables, self.h.eigh()[1])
        return self._channels

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
        the bath registered under ``label``: the eigenbasis of H weighed at
        a finite beta, with the bits of ``gibbs_state``, and
        ``gibbs_state`` itself at beta = inf."""
        if label not in self._log_references:
            bath = self.baths.get(label)
            if bath is None:
                raise ValueError(f"no bath registered under label {label!r}")
            if math.isinf(bath.beta):
                rho = gibbs_state(self.h, bath.beta).mat
            else:
                evals, v = self.h.eigh()
                rho = (v * _gibbs_weights(evals, bath.beta)) @ v.conj().T
            self._log_references[label] = _clipped_log(rho)
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
    of one shape stack into (n, C, d, d) arrays, whatever their channel
    counts, and are read through the pairs that share a bin (``_bin_pairs``)."""

    labels: tuple[str, ...]
    s_e: np.ndarray
    bins: np.ndarray
    rates: np.ndarray
    freqs: tuple[tuple[float, ...], ...]
    bin_rates: tuple[tuple[float, ...], ...]


def _stack_tables(evals: np.ndarray, s_e: np.ndarray, baths) -> list[_Tables | BohrResolutionError]:
    """The tables of the couplings ``s_e`` (n, C, d, d), given in the
    eigenbases of n Hamiltonians with the ascending levels ``evals``
    (n, d), in one segmented pass: levels grouped per member, the level
    blocks of all members and couplings found at once, and Bohr gaps
    binned per (member, coupling).  ``baths[i][c]`` is the bath of member
    i's coupling c; members may carry different baths, and shared ones
    are the case of a repeated sequence.  Entry i is member i's tables,
    or the BohrResolutionError of its first unresolved coupling, as a
    build of the member alone gives them.  The rates of the bins are drawn
    as one array per distinct bath of the stack (:func:`_bath_rates`); a
    member draws none from its first unresolved coupling on."""
    n, n_c, d = s_e.shape[:3]
    abs_se = np.abs(s_e)
    spread = np.maximum(evals[:, -1] - evals[:, 0], 1.0)
    merge_tol, resolve_tol = LEVEL_MERGE_REL * spread, LEVEL_RESOLVE_REL * spread
    # element (n, m) of s_e lies in the level block (g_from, g_to) of its
    # column's and its row's groups; on the transposes, the kept blocks come
    # in row-major (member, coupling, g_from, g_to) order
    floors = 1e-14 * np.maximum(1.0, abs_se.max(axis=(-2, -1)))
    _, centers, first, block, kept_blocks = _level_blocks(
        evals, merge_tol, abs_se.swapaxes(-1, -2), floors[..., None, None]
    )
    seg, g_from, g_to = np.unravel_index(kept_blocks, (n * n_c, d, d))
    head = first[seg // n_c]
    # S(omega) collects |n><m| with omega = E_m - E_n
    gaps = centers[head + g_from] - centers[head + g_to]
    _, _, block_bin, bin_centers, pairs = _bin_frequencies(
        gaps, seg, merge_tol.repeat(n_c), resolve_tol.repeat(n_c)
    )
    # the distinct baths of the stack, indexed once per (member, coupling)
    distinct: dict[BathSpec, int] = {}
    seg_bath = np.array([distinct.setdefault(bath, len(distinct))
                         for member in baths for bath in member], dtype=int)
    errors = {}  # member: (first unresolved coupling, its error)
    for s, (i, j) in pairs.items():
        m, c = divmod(s, n_c)
        if m not in errors:
            errors[m] = c, BohrResolutionError(
                f"Bohr gaps {bin_centers[i]:.12g} and {bin_centers[j]:.12g} of coupling to "
                f"bath {baths[m][c].label!r} differ by {abs(bin_centers[i] - bin_centers[j]):.3e}, "
                f"inside the unresolved band ({merge_tol[m]:.1e}, {resolve_tol[m]:.1e})"
            )

    # the bins come in (segment, frequency) order, and a member draws no
    # rate from its first unresolved coupling on
    bin_seg = np.empty(len(bin_centers), dtype=int)
    bin_seg[block_bin] = seg
    drawn = np.ones(len(bin_centers), dtype=bool)
    for m, (c, _) in errors.items():
        drawn[slice(*bin_seg.searchsorted([m * n_c + c, (m + 1) * n_c]))] = False
    rate = np.zeros(len(bin_centers))
    rate[drawn] = _bath_rates(bin_centers[drawn], seg_bath[bin_seg[drawn]], list(distinct))
    # kept bins, those above the rate floor, are renumbered 0, 1, ... within
    # their segment; the others, and the elements in no block (the last
    # slot), are -1 at rate 0
    kept = rate > _RATE_FLOOR
    kept_seg = bin_seg[kept]
    lo = kept_seg.searchsorted(np.arange(n * n_c + 1))
    local, rates = np.full(len(bin_centers) + 1, -1), np.zeros(len(bin_centers) + 1)
    local[:-1][kept] = np.arange(len(kept_seg)) - lo[kept_seg]
    rates[:-1][kept] = rate[kept]
    lo = lo.tolist()
    freqs, bin_rates = ([tuple(x[a:b]) for a, b in zip(lo, lo[1:])]
                        for x in (bin_centers[kept].tolist(), rates[:-1][kept].tolist()))
    elem_bin = np.full(s_e.size, -1)
    elem_bin[kept_blocks] = block_bin
    elem_bin = elem_bin[block.swapaxes(-1, -2)]
    bins, elem_rates = local[elem_bin], rates[elem_bin]
    for arr in (bins, elem_rates):
        arr.setflags(write=False)
    return [errors[m][1] if m in errors else _Tables(
        tuple(bath.label for bath in baths[m]), s_e[m], bins[m], elem_rates[m],
        tuple(freqs[m * n_c:(m + 1) * n_c]), tuple(bin_rates[m * n_c:(m + 1) * n_c]),
    ) for m in range(n)]


def _bath_rates(omega: np.ndarray, bath: np.ndarray, specs: list[BathSpec]) -> np.ndarray:
    """The rate R(omega[k]) of the bath ``specs[bath[k]]`` for every k, one
    :func:`spectral_density` array per bath.  A failed draw raises the
    error of the first k whose rate, drawn alone, fails: the error a draw
    in the order of k meets."""
    out = np.empty(len(omega))
    try:
        for b, spec in enumerate(specs):
            at = bath == b
            if at.any():
                out[at] = spectral_density(omega[at], spec)
    except (ValueError, ArithmeticError):
        for w, b in zip(omega.tolist(), bath.tolist()):
            spectral_density(w, specs[b])
        raise
    return out


def _table_ops(t: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """The channel operators (K, d, d) of the tables in the eigenbasis of
    H, in coupling order and ascending Bohr frequency, and their rates."""
    d = t.s_e.shape[-1]
    ops = [np.where(t.bins[c] == np.arange(len(r))[:, None, None], t.s_e[c], 0.0)
           for c, r in enumerate(t.bin_rates)]
    # "+ 0.0" stores -0.0 entries of s_e as 0.0
    return (np.concatenate([np.zeros((0, d, d), dtype=complex), *ops]) + 0.0,
            np.array([rate for r in t.bin_rates for rate in r], dtype=float))


def _table_channels(t: _Tables, basis: np.ndarray) -> tuple[JumpChannel, ...]:
    """The channels of the tables rotated back to the computational basis,
    read-only, in coupling order and ascending Bohr frequency."""
    ops, rates = _table_ops(t)
    ops = basis @ ops @ basis.conj().T
    ops.setflags(write=False)
    labels = [label for label, r in zip(t.labels, t.bin_rates) for _ in r]
    freqs = [freq for f in t.freqs for freq in f]
    return tuple(JumpChannel(label, freq, op, rate)
                 for label, freq, op, rate in zip(labels, freqs, ops, rates.tolist()))


def _liouvillian_stack(gens: Sequence[GKLSGenerator]) -> None:
    """Build the Liouvillians of tabled generators of one dimension in one
    pass per channel count: the channels of every member rotated out of
    its eigenbasis at once, then the dissipators (:func:`_dissipators`)
    and the commutators with H as stacks.  Each Liouvillian has the bits
    of building it alone with :meth:`GKLSGenerator.liouvillian`."""
    by_count: dict[int, list] = {}
    for gen in gens:
        ops, rates = _table_ops(gen._tables)
        by_count.setdefault(len(rates), []).append((gen, ops, rates))
    for group in by_count.values():
        members = [gen for gen, _, _ in group]
        v = _eigh_stack([gen.h for gen in members])[1][:, None]
        ops = v @ np.array([ops for _, ops, _ in group]) @ v.conj().swapaxes(-1, -2)
        m = _dissipators(ops, np.array([rates for _, _, rates in group]))
        m += _commutators(np.array([gen.h.mat for gen in members]))
        for gen, mi in zip(members, m):
            gen._liouvillian = Superoperator(mi)


def _davies_stack(hs: Sequence[Operator], couplings,
                  baths=None) -> list[GKLSGenerator | BohrResolutionError]:
    """Weak-coupling generators of the Hamiltonians ``hs`` (one dimension)
    against one list of (hermitian coupling, bath) pairs: one batched
    ``eigh`` of the members not yet diagonalised (:func:`_eigh_stack`;
    the others bring the decomposition they carry), one batched rotation
    of the couplings into every eigenbasis and one segmented binning pass
    over the whole stack (:func:`_stack_tables`).  ``baths``, when given,
    holds for each member the baths of its couplings in their order, in
    place of the pairs' own: the members of one stack then carry
    different baths, each its own labels checked and its own baths
    registered on its generator.  A member whose gaps the secular
    approximation can neither merge nor resolve is its
    BohrResolutionError.  Each member's bits are those of building it
    alone."""
    d = hs[0].dim
    if baths is None:
        baths = [tuple(bath for _, bath in couplings)] * len(hs)
    if len(baths) != len(hs) or any(len(member) != len(couplings) for member in baths):
        raise ValueError("need one bath per coupling for every Hamiltonian of the stack")
    if any(s_op.dim != d for s_op, _ in couplings):
        raise ValueError("coupling dimension does not match the Hamiltonian")
    registered = []
    for member in baths:
        by_label = {}
        for bath in member:
            known = by_label.setdefault(bath.label, bath)
            if known is not bath and known != bath:
                raise ValueError(f"two different baths share the label {bath.label!r}")
        registered.append(by_label)
    if any(h.dim != d for h in hs):
        raise ValueError("the Hamiltonians of one stack must share their dimension")
    if not all(h.is_hermitian() for h in hs):
        raise ValueError("generator Hamiltonian must be hermitian")
    if not all(s_op.is_hermitian() for s_op, _ in couplings):
        raise ValueError("coupling operators must be hermitian")
    evals, v = _eigh_stack(hs)
    s = np.array([s_op.mat for s_op, _ in couplings], dtype=complex).reshape(-1, d, d)
    s_e = v.conj().swapaxes(-1, -2)[:, None] @ s[None] @ v[:, None]
    s_e.setflags(write=False)
    tables = _stack_tables(evals, s_e, baths)
    return [t if isinstance(t, BohrResolutionError) else GKLSGenerator._tabled(h, t, reg)
            for h, t, reg in zip(hs, tables, registered)]


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
            np.array([t.rates for t in tabs]), *_eigh_stack([g.h for g in gens]))


def _bin_pairs(s: np.ndarray, bins: np.ndarray, rates: np.ndarray):
    """Every pair of elements e = (i, c, a, x) and f = (i, c, b, y) of
    (n, C, d, d) tables that share a bin, weighted r S[e] conj(S[f]) by the
    bin's rate r: the nonzero entries ((a, b), (x, y)) of each coupling's
    jump map X -> sum_k r_k V_k X V_k^dag in the eigenbasis.  The
    coordinates i, c, a, x, b, y and the weights are listed member-major
    and, within a member, by coupling, bin, e and f, whatever the stack.
    A bin of m elements gives m^2 pairs, at most d^3 per coupling for
    nondegenerate levels, whatever the number of bins."""
    ids = _bin_ids(bins)[0].ravel()
    order = np.flatnonzero(ids >= 0)
    order = order[np.argsort(ids[order], kind="stable")]
    sizes = np.unique(ids[order], return_counts=True)[1]
    # each element of a bin of m heads a run of m pairs, one per element
    runs = np.repeat(sizes, sizes)
    e = np.repeat(order, runs)
    heads = np.repeat(np.cumsum(sizes) - sizes, sizes) - (np.cumsum(runs) - runs)
    f = order[np.repeat(heads, runs) + np.arange(len(e))]
    w = rates.ravel()[e] * (s.ravel()[e] * s.ravel()[f].conj())
    return (*np.unravel_index(e, s.shape), *np.unravel_index(f, s.shape)[2:], w)


def _scatter(index: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
    """Complex weights summed into ``size`` slots, in the order listed."""
    return np.bincount(index, w.real, size) + 1j * np.bincount(index, w.imag, size)


def _jump_map(pairs, ops: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """sum_k r_k V_k X V_k^dag, or with ``adjoint`` sum_k r_k V_k^dag X V_k,
    for each X of a (n, d, d) stack in the eigenbasis, scattered from the
    ``_bin_pairs``; G = sum_k r_k V_k^dag V_k is the adjoint map of 1."""
    n, d, _ = ops.shape
    i, _, a, x, b, y, w = pairs
    if adjoint:
        a, b, x, y, w = x, y, a, b, w.conj()
    return _scatter((i * d + a) * d + b, w * ops[i, x, y], n * d * d).reshape(n, d, d)


def _table_heat_observables(gens: Sequence[GKLSGenerator]) -> tuple[list[str], np.ndarray]:
    """Q_b = D_b^dag(H) of every bath, in the computational basis, for a
    stack of tabled generators of one shape and one list of coupling
    labels; each is also cached on its generator.  Returns the L bath
    labels, in the order of their first coupling, and the (n, L, d, d)
    observables.

    In the eigenbasis Q[x, y] = sum_{k, a} r_k conj(V_k[a, x]) V_k[a, y]
    (E_a - (E_x + E_y) / 2): one scatter over the ``_bin_pairs`` of the
    tables with each bin split by row, each pair booked to its member's
    bath.  Split by row, a coupling lists at most d^3 pairs."""
    coupled = gens[0]._tables.labels
    if any(gen._tables.labels != coupled for gen in gens):
        raise ValueError("the heat observables of one stack need one list of coupling labels")
    labels = list(dict.fromkeys(coupled))
    bath = np.array([labels.index(label) for label in coupled], dtype=int)
    s, bins, rates, evals, v = _stacked_tables(gens)
    n, _, d, _ = s.shape
    by_row = np.where(bins >= 0, bins * d + np.arange(d)[:, None], -1)
    i, c, a, x, _, y, w = _bin_pairs(s, by_row, rates)
    gap = evals[i, a] - 0.5 * (evals[i, x] + evals[i, y])
    at = ((i * len(labels) + bath[c]) * d + x) * d + y
    q_e = _scatter(at, w.conj() * gap, n * len(labels) * d * d).reshape(n, len(labels), d, d)
    q = v[:, None] @ q_e @ v.conj().swapaxes(-1, -2)[:, None]
    for gen, q_i in zip(gens, q):
        gen._heat_observables.update(zip(labels, q_i))
    return labels, q


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


def _closure(pairs, pattern: np.ndarray) -> np.ndarray:
    """The closure of the diagonal index pairs (i, i) under rho -> V rho
    V^dag for every channel V of each member of (n, C, d, d) tables,
    whose nonzero entries are ``pattern``: a pair (x, y) feeds (a, b) along
    each of the ``_bin_pairs`` between two pattern elements, an edge
    dropped once its source is reached.  The (n, d, d) mask of the pairs."""
    n, _, d, _ = pattern.shape
    i, c, a, x, b, y, _ = pairs
    edge = pattern[i, c, a, x] & pattern[i, c, b, y]
    src, dst = ((i * d + x) * d + y)[edge], ((i * d + a) * d + b)[edge]
    reach = np.tile(np.eye(d, dtype=bool).ravel(), n)
    while (hit := reach[src]).any():
        reach[dst[hit]] = True
        src, dst = src[~hit], dst[~hit]
    return reach.reshape(n, d, d)


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
    # each term is computed on the entries it books only
    resid = (np.bincount(src[both], np.abs(s[both] - coef[adj[both]] * s_t[both].conj()) ** 2,
                         minlength=n_ids)
             + np.bincount(src[only_j], mag2[only_j], minlength=n_ids)
             + np.bincount(adj[only_i], np.abs(coef[adj[only_i]]) ** 2 * np.abs(s_t[only_i]) ** 2,
                           minlength=n_ids))
    bad = present & (f >= 0) & (resid > ALGEBRAIC ** 2 * norm2[f])
    return ok & ~bad.reshape(n, -1).any(axis=1)


def _blocks(pairs, mask: np.ndarray, members: np.ndarray):
    """The members (indices into a (n, d, d) ``mask``) grouped by pair count
    P, each group of g with the rows and columns of its pairs in
    column-stacked order, two (g, P) arrays, and its (g, P, P) jump block:
    entry (p, q) is the weight of rho[x, y] in the jump part of L(rho)[a, b]
    for listed pairs p = (a, b) and q = (x, y), from the ``_bin_pairs``."""
    i, _, a, x, b, y, w = pairs
    sizes = mask.sum(axis=(1, 2))
    for size in np.unique(sizes[members]):
        sel = members[sizes[members] == size]
        k, cols, rows = np.nonzero(mask[sel].swapaxes(-1, -2))
        # pair p of the k-th member of the group is at k P + p
        pos = np.full(mask.shape, -1)
        pos[sel[k], rows, cols] = np.arange(len(k))
        p, q = pos[i, a, b], pos[i, x, y]
        on = (p >= 0) & (q >= 0)
        jumps = _scatter(p[on] * size + q[on] % size, w[on], len(k) * size)
        yield (sel, rows.reshape(len(sel), -1), cols.reshape(len(sel), -1),
               jumps.reshape(len(sel), size, size))


def _certified_sectors(s, bins, level, pairs, g_e) -> tuple[np.ndarray, np.ndarray]:
    """The sectors of (n, C, d, d) tables, whose (n, d) ``level`` numbers the
    level group of each level of H, as an (n, d, d) mask of index pairs,
    and the members whose sector is certified to hold every stationary
    state, read from the tables' ``_bin_pairs`` and G = sum_k r_k V_k^dag
    V_k (``g_e``).

    Certificate (Spohn, Lett. Math. Phys. 2, 33 (1977)): the sector, the
    closure of the diagonal pairs under the channels (``_closure``), is
    not all d^2 pairs; H has more than one level group; the channels span
    a self-adjoint set (``_adjoint_closed``); and only scalars commute
    with them and H.  The commutant is checked on the pairs Z inside the
    degenerate level groups of H, where sum_k r_k |[V_k, X]|^2 is the form
    delta_bd G[a, c] + delta_ac G'[d, b] - J - J^dag between the pairs
    (a, b) and (c, d), with G' = sum_k r_k V_k V_k^dag and J the jump map
    on Z (``_blocks``); its null space holds the identity, and a second
    eigenvalue above ``_COMMUTANT_GAP_REL`` tr G leaves it nothing else
    (the form is at most 4 tr G, and tr G is not roundoff when every
    channel commutes with every operator on Z).  The support projection P
    of a stationary state then commutes with every channel, its adjoint
    and H, so P = 1: every stationary state is faithful, and two of them
    would give, by their difference, one that is not.  The generator maps
    the sector into itself, so a second null vector of its block is one
    of the generator, and the bordered solve rejects it."""
    n, _, d, _ = s.shape
    ids, n_ids = _bin_ids(bins)
    kept = ids >= 0
    # entries below _PATTERN_REL of their bin's largest join no pair
    mag = np.abs(s)
    top = np.zeros(n_ids + 1)
    np.maximum.at(top, ids[kept], mag[kept])
    pattern = kept & (mag > _PATTERN_REL * top[ids])
    reach = _closure(pairs, pattern)
    if not kept.any():
        return reach, np.zeros(0, dtype=int)
    candidates = np.flatnonzero(
        kept.any(axis=(1, 2, 3)) & (level[:, -1] > 0) & (reach.sum(axis=(1, 2)) < d * d)
        & _adjoint_closed(s, ids, n_ids, pattern))
    certified = []
    g_out = _jump_map(pairs, np.broadcast_to(np.eye(d), (n, d, d)))
    for sel, rows, cols, jumps in _blocks(pairs, level[:, :, None] == level[:, None, :],
                                          candidates):
        i = sel[:, None, None]
        rp, rq, cp, cq = rows[:, :, None], rows[:, None, :], cols[:, :, None], cols[:, None, :]
        form = g_e[i, rp, rq] * (cp == cq) + (rp == rq) * g_out[i, cq, cp]
        form -= jumps + jumps.conj().swapaxes(-1, -2)
        gap = np.linalg.eigvalsh(form)[:, 1]
        certified.extend(sel[gap > _COMMUTANT_GAP_REL * np.trace(g_e[sel], axis1=1, axis2=2).real])
    return reach, np.sort(np.array(certified, dtype=int))


def _sector_states(gens: Sequence[GKLSGenerator]) -> list:
    """Stationary states of tabled generators of one shape, solved on their
    certified sectors (``_certified_sectors``) in the eigenbasis of H as
    one stack.  Every reading of the tables is a scatter over their
    ``_bin_pairs``: G and G' (``_jump_map`` of the identity), each sector
    block (``_blocks``) and the jump part of the residual.  Entry i is the
    state, a ValueError, or None when the sector of generator i is not
    certified."""
    s, bins, rates, evals, v = _stacked_tables(gens)
    n, _, d, _ = s.shape
    out: list = [None] * n
    tol = LEVEL_MERGE_REL * np.maximum(np.ptp(evals, axis=1), 1.0)
    level = np.concatenate([np.zeros((n, 1), dtype=int),
                            np.cumsum(np.diff(evals, axis=1) > tol[:, None], axis=1)], axis=1)
    # one level group is never certified, and its bins may hold d^4 pairs
    pairs = _bin_pairs(s, np.where(level[:, -1:, None, None] > 0, bins, -1), rates)
    g_e = _jump_map(pairs, np.broadcast_to(np.eye(d), (n, d, d)), adjoint=True)
    reach, certified = _certified_sectors(s, bins, level, pairs, g_e)
    a_e = -0.5 * g_e
    a_e[:, np.arange(d), np.arange(d)] -= 1j * evals
    m, resid_tol = np.zeros((n, d, d), dtype=complex), np.zeros(n)
    for sel, rows, cols, kernel in _blocks(pairs, reach, certified):
        i = sel[:, None, None]
        rp, rq, cp, cq = rows[:, :, None], rows[:, None, :], cols[:, :, None], cols[:, None, :]
        kernel += a_e[i, rp, rq] * (cp == cq) + (rp == rq) * a_e[i, cp, cq].conj()
        # the trace row and the rcond are scaled to the whole generator, its
        # coherent spread and G, never to the block alone, whose entries may
        # be pure roundoff; the residual is held to 1e-10 max(1, |block|_F)
        mag_k = np.abs(kernel)
        resid_tol[sel] = 1e-10 * np.maximum(1.0, np.sqrt(np.sum(mag_k ** 2, axis=(1, 2))))
        border = np.maximum.reduce([mag_k.max(axis=(1, 2)), np.ptp(evals[sel], axis=1),
                                    np.abs(g_e[sel]).max(axis=(1, 2)), np.full(len(sel), 1e-300)])
        # LAPACK factorises one matrix per call: each member is a
        # Fortran-ordered view of one transposed copy of the group, and
        # every sector holds the d diagonal pairs
        blocks = np.ascontiguousarray(kernel.swapaxes(-1, -2)).swapaxes(-1, -2)
        diag = np.nonzero(rows == cols)[1].reshape(len(sel), d)
        for j, block, r, c, dg, edge in zip(sel.tolist(), blocks, rows, cols, diag,
                                            border.tolist()):
            try:
                m[j, r, c] = _bordered_fixed_point(block, dg, edge, "stationary state not unique")
            except ValueError as exc:
                out[j] = exc
    solved = np.array([j for j in certified if out[j] is None], dtype=int)
    if not len(solved):
        return out
    vs = v[solved]
    states = _fixed_point_states(vs @ m[solved] @ vs.conj().swapaxes(-1, -2))
    rho = np.array([x.mat if isinstance(x, DensityMatrix) else np.zeros((d, d)) for x in states])
    # the operator-level residual max |L(rho)|, its jump part read from the
    # pairs of the whole stack in the eigenbasis
    rho_e = np.zeros((n, d, d), dtype=complex)
    rho_e[solved] = vs.conj().swapaxes(-1, -2) @ rho @ vs
    lr = (_jump_map(pairs, rho_e) + a_e @ rho_e + rho_e @ a_e.conj().swapaxes(-1, -2))[solved]
    resid = np.abs(vs @ lr @ vs.conj().swapaxes(-1, -2)).max(axis=(1, 2))
    for j, state, res, res_tol in zip(solved, states, resid, resid_tol[solved]):
        if isinstance(state, DensityMatrix) and res > res_tol:
            state = ValueError(f"fixed-point residual too large: {res:.3e}")
        out[j] = state
    return out


def _stationary_stack(gens: Sequence[GKLSGenerator]) -> list:
    """Stationary states of a stack of generators: entry i is the state of
    generator i or the ValueError that solving it raised.  Tabled
    generators larger than a qubit are solved on their sectors, one stack
    per shape (``_sector_states``); the others, and those whose sector is
    not certified, on their whole Liouvillian by the one fixed-point
    routine, residual max |L vec(rho)| (``_liouvillian_state``)."""
    out: list = [None] * len(gens)
    shapes: dict[tuple, list[int]] = {}
    for i, gen in enumerate(gens):
        if gen._tables is not None and gen.dim ** 2 > _WHOLE_LIOUVILLIAN_SIDE:
            shapes.setdefault(gen._tables.s_e.shape, []).append(i)
    for idx in shapes.values():
        for i, state in zip(idx, _sector_states([gens[i] for i in idx])):
            out[i] = state
    return [_liouvillian_state(gen) if state is None else state for gen, state in zip(gens, out)]


def stationary_state(gen: GKLSGenerator) -> DensityMatrix:
    """The unique state annihilated by the generator.  Rejects degenerate
    null spaces.

    Write the generator as rho -> A rho + rho A^dag + sum_k r_k V_k rho
    V_k^dag, with A = -i H - G / 2 (H = 0 in the interaction picture)
    and G = sum_k r_k V_k^dag V_k.  In the eigenbasis of H it maps the
    span of the sector, the closure of the diagonal pairs (i, i) under
    the nonzero patterns of the V_k, into itself when the V_k span a
    self-adjoint set.  A generator built by ``build_davies`` is solved on
    its sector, read from its tables' ``_bin_pairs``, when ``_sector_states``
    certifies that every stationary state lies in that span; for a secular
    generator this is the zero-Bohr sector (s = d for a nondegenerate spectrum).
    Otherwise, for a qubit and for a generator built from explicit
    channels, the whole Liouvillian L in the computational basis is
    solved by ``_whole_fixed_points``, the routine of limit cycles too,
    with residual max |L vec(rho)|; a sector by ``_bordered_fixed_point``,
    with residual max |L(rho)|."""
    (state,) = _stationary_stack([gen])
    if isinstance(state, ValueError):
        raise state
    return state


def _liouvillian_state(gen: GKLSGenerator) -> DensityMatrix | ValueError:
    """The stationary state, or its ValueError, from the whole Liouvillian
    L: the stack of one of `_whole_fixed_points` with K = L, the trace row
    scaled to the largest of L's entries, the coherent spread and G, and
    the residual held to 1e-10 max(1, |L|_F)."""
    ops, rates = gen._stacked_channels(None)
    d, k = gen.dim, len(rates)
    kernel = gen.liouvillian().mat
    g = ops.reshape(k * d, d).conj().T @ (rates[:, None, None] * ops).reshape(k * d, d)
    spread = float(np.ptp(gen.h.mat.diagonal().real)) if gen.include_hamiltonian else 0.0
    border = max(float(scipy.linalg.lapack.zlange("M", kernel)), spread,
                 float(np.max(np.abs(g))), 1e-300)
    tol = 1e-10 * max(1.0, float(np.linalg.norm(kernel)))
    return _whole_fixed_points(kernel[None], [border], [tol], "stationary state not unique")[0]


def _whole_fixed_points(kernels: np.ndarray, borders, tols, degenerate: str) -> list:
    """Fixed points of a (n, d^2, d^2) stack of kernels K on the whole
    column-stacked space, each a generator or U - I for a trace-preserving
    map U: one `_bordered_fixed_point` each at the d diagonal positions,
    its trace row scaled by ``borders[i]``, checked as one stack
    (`_fixed_point_states`) and by its residual max |K vec(rho)| <=
    ``tols[i]``.  Entry i is a DensityMatrix or a ValueError, with the
    message ``degenerate`` for a null space that is not one-dimensional."""
    n, side, _ = kernels.shape
    d = math.isqrt(side)
    out: list = [None] * n
    xs = np.zeros((n, side), dtype=complex)
    for i, (kernel, border) in enumerate(zip(kernels, borders)):
        try:  # on a Fortran-ordered copy, which the solve overwrites
            xs[i] = _bordered_fixed_point(np.array(kernel, dtype=complex, order="F"),
                                          np.arange(d) * (d + 1), border, degenerate)
        except ValueError as exc:
            out[i] = exc
    solved = [i for i, x in enumerate(out) if x is None]
    # the column-stacked entries of a solution, read row-major, are rho^T
    for i, rho in zip(solved, _fixed_point_states(xs[solved].reshape(-1, d, d).swapaxes(-1, -2))):
        ok = isinstance(rho, DensityMatrix)
        resid = float(np.max(np.abs(kernels[i] @ vec(rho.mat)))) if ok else 0.0
        out[i] = ValueError(f"fixed-point residual too large: {resid:.3e}") if resid > tols[i] else rho
    return out


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
    dust below zero is clipped and the spectrum renormalised, and the
    states are checked as one stack (``DensityMatrix.stack``)."""
    evals, vecs = np.linalg.eigh((mats + mats.conj().swapaxes(-1, -2)) / 2.0)
    positive = ~(evals[:, 0] < -100 * ALGEBRAIC)
    evals = np.clip(evals, 0.0, None)
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = evals / evals.sum(axis=-1, keepdims=True)
    rho = (vecs * weights[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return [state if ok else ValueError("fixed point is not a positive state")
            for ok, state in zip(positive.tolist(), DensityMatrix.stack(rho))]


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


def _ledger_columns(gen: GKLSGenerator, rho: np.ndarray, kept: list | None = None):
    """Energy, von Neumann entropy, entropy production and per-bath heat
    currents of every member of a (n, d, d) stack of states, which is
    checked first as a stack of density matrices; with a list ``kept``,
    the checked states are appended to it (``DensityMatrix.stack_with_spectra``).
    One batched eigendecomposition serves the check, the entropy and
    ln rho; the rest are one product with each bath's dissipator and
    batched traces."""
    if kept is None:
        evals, evecs = _state_spectra(rho, vectors=True)
    else:
        states, evals, evecs = DensityMatrix.stack_with_spectra(rho)
        kept.extend(states)
    energy = np.real(np.trace(rho @ gen.h.mat, axis1=-2, axis2=-1))
    sigma = _entropy_production_stack(gen, rho, evals, evecs)
    return energy, _entropy_of_probs(evals), sigma, _heat_current_stack(gen, rho)


def trajectory(
    gen: GKLSGenerator,
    rho0: DensityMatrix,
    grid,
    keep_states: bool = False,
) -> ThermoLedger:
    """Propagate under a static generator, recording the ledger on the
    grid.  The Hamiltonian is constant so the power column is zero.

    States are propagated one grid step at a time and the ledger is read
    from blocks of ``_LEDGER_BLOCK`` states, each as one stack
    (:func:`_ledger_columns`)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValueError("grid must be a 1d array of times")
    if np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise ValueError("grid must be strictly increasing and non-negative")
    lmat = gen.liouvillian().mat
    n, d = len(grid), gen.dim
    energy, entropy, sigma = np.zeros((3, n))
    currents = {k: np.zeros(n) for k in gen.bath_labels}
    states = []
    block = np.empty((min(n, _LEDGER_BLOCK), d * d), dtype=complex)

    def record(lo: int, hi: int):
        # row k of the block is vec(M_k), which read row-major is M_k^T
        mt = block[: hi - lo].reshape(-1, d, d)
        rho = (mt.swapaxes(-1, -2) + mt.conj()) / 2.0
        energy[lo:hi], entropy[lo:hi], sigma[lo:hi], js = _ledger_columns(
            gen, rho, states if keep_states else None)
        for k, j in js.items():
            currents[k][lo:hi] = j

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
    its window of validity; the cap reads the levels of the step's
    midpoint, which one substep builds from.  The generators of each grid
    step, at its substep midpoints and its end, come from one
    `_davies_stack`, with the bits of building each alone; a
    BohrResolutionError is raised when the loop reaches it.  Each grid
    point's ledger is read as a stack of one by the kernel of
    :func:`trajectory` (:func:`_ledger_columns`), whose check is the one
    check of that state and of the state kept.  Power is -Tr(rho dH/dt),
    from the supplied derivative or a centred difference of the schedule.
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
    energy, power, entropy, sigma = np.zeros((4, n))
    currents = {bath.label: np.zeros(n) for _, bath in couplings}
    states = []

    warned = False
    rho = rho0.mat

    def record(i: int, gen: GKLSGenerator, t: float):
        row = slice(i, i + 1)
        energy[row], entropy[row], sigma[row], js = _ledger_columns(
            gen, rho[None], states if keep_states else None)
        for k, j in js.items():
            currents[k][row] = j
        power[i] = -float(np.real(np.trace(rho @ deriv(t))))

    gen0 = build_davies(hamiltonian(grid[0]), couplings)
    record(0, gen0, grid[0])
    for i in range(1, n):
        t_a, t_b = grid[i - 1], grid[i]
        dt = t_b - t_a
        h_mid = hamiltonian(0.5 * (t_a + t_b))
        evals = h_mid.eigh()[0]
        omega_max = float(evals[-1] - evals[0])
        dt_cap = (2 * math.pi / omega_max) / 10.0 if omega_max > 0 else dt
        n_sub = max(max(1, substeps), int(math.ceil(dt / dt_cap)))
        if n_sub > max(1, substeps) and not warned:
            warnings.warn(
                f"adiabatic step {dt:.3g} exceeds a tenth of the Bohr period; "
                f"refining internally",
                stacklevel=2,
            )
            warned = True
        # the generators of the step's substep midpoints and of its end; one
        # substep's midpoint is h_mid, already diagonalised
        sub = np.linspace(t_a, t_b, n_sub + 1)
        if n_sub == 1:
            hs = [h_mid, hamiltonian(t_b)]
        else:
            hs = [hamiltonian(0.5 * (sub[j] + sub[j + 1])) for j in range(n_sub)]
            hs.append(hamiltonian(t_b))
        gens = _davies_stack(hs, couplings)
        for j in range(n_sub):
            if j:
                # the state between two substeps, which no ledger row reads
                _state_spectra(rho[None])
            gen = gens[j]
            if isinstance(gen, BohrResolutionError):
                raise gen
            m = scipy.linalg.expm(gen.liouvillian().mat * (sub[j + 1] - sub[j]))
            out = unvec(m @ vec(rho), rho0.dim)
            rho = (out + out.conj().T) / 2.0
        if isinstance(gens[-1], BohrResolutionError):
            raise gens[-1]
        record(i, gens[-1], t_b)
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
    evals, v = gen.h.eigh()
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
