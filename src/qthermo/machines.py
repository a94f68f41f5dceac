"""Quantum machine models.

Reciprocating Otto engines and refrigerators assembled from stroke
propagators, limit-cycle analysis, power optimisation, the sudden-limit
Trotter comparison, quantum-friction diagnostics, and the continuous
three-bath machine (hot/cold/work filter qubits with a trilinear
resonant interaction) used for absorption refrigeration and third-law
sweeps.

Sign conventions, fixed package-wide: W > 0 is net work extracted from
the working medium per cycle; Q_k > 0 is heat flowing from bath k into
the medium.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
import scipy.linalg

from .baths import BathSpec, _zero_temperature_flow
from .lindblad import (
    BohrResolutionError,
    GKLSGenerator,
    _currents,
    _davies_stack,
    _liouvillian_stack,
    _stationary_stack,
    _table_heat_observables,
    _whole_fixed_points,
    stationary_state,  # re-exported: tools that wrap it look it up here as well
)
from .operators import (
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    Operator,
    Superoperator,
    _sandwich,
    _state_checks,
    _state_spectra,
    cptp_residuals,
    hamiltonian_superop,
    unitary_exp,
)
from .states import _entropy_of_probs, _relative_entropy_of_spectra
from .tolerances import DYNAMICAL

__all__ = [
    "QubitMedium",
    "OscillatorMedium",
    "StrokeSpec",
    "StrokeOp",
    "CycleSpec",
    "CycleReport",
    "TricycleSpec",
    "compose_cycle",
    "find_limit_cycle",
    "run_otto",
    "quantum_friction",
    "optimize_power",
    "sudden_limit_check",
    "tricycle_steady",
    "third_law_sweep",
    "TricycleSteady",
    "SweepRow",
]

_PROTOCOLS = ("adiabatic", "linear-ramp", "sudden")


@dataclass(frozen=True)
class QubitMedium:
    """Spin working medium H(omega) = (omega/2) sigma_z + (j/2) sigma_x.

    A nonzero transverse term makes the eigenbasis omega-dependent, which
    is what generates coherence (and friction) under fast frequency
    ramps."""

    transverse: float = 0.0

    @property
    def dim(self) -> int:
        return 2

    def hamiltonian(self, omega: float) -> Operator:
        return Operator.hermitian(0.5 * omega * PAULI_Z + 0.5 * self.transverse * PAULI_X)

    def coupling(self) -> Operator:
        return Operator.hermitian(PAULI_X)


@dataclass(frozen=True)
class OscillatorMedium:
    """Truncated harmonic medium H(omega) = omega n in the number basis.

    All H(omega) commute, so the ideal adiabat is exact population
    transport at any speed; friction studies use the qubit medium."""

    levels: int = 10

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("need at least 2 oscillator levels")

    @property
    def dim(self) -> int:
        return self.levels

    def hamiltonian(self, omega: float) -> Operator:
        return Operator.hermitian(omega * np.diag(np.arange(self.levels, dtype=float)))

    def coupling(self) -> Operator:
        a = np.diag(np.sqrt(np.arange(1, self.levels, dtype=float)), k=1)
        return Operator.hermitian(a + a.conj().T)


@dataclass(frozen=True)
class StrokeSpec:
    """One stroke: a bath-contact isochore at fixed frequency, or an
    isolated adiabat sweeping the frequency under a chosen protocol."""

    kind: str                      # isochore | adiabat
    duration: float
    omega: float = 0.0             # isochore frequency
    bath: BathSpec | None = None   # isochore bath
    omega_start: float = 0.0       # adiabat endpoints
    omega_end: float = 0.0
    protocol: str = "adiabatic"
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("isochore", "adiabat"):
            raise ValueError(f"unknown stroke kind {self.kind!r}")
        if self.duration < 0:
            raise ValueError("stroke duration must be >= 0")
        if self.kind == "isochore" and self.bath is None:
            raise ValueError("isochore needs a bath")
        if self.kind == "adiabat" and self.protocol not in _PROTOCOLS:
            raise ValueError(f"unknown adiabat protocol {self.protocol!r}")


@dataclass(frozen=True)
class StrokeOp:
    """A compiled stroke: its propagator plus the Hamiltonians in force
    at entry and exit, for the energy bookkeeping."""

    spec: StrokeSpec
    superop: Superoperator
    h_in: Operator
    h_out: Operator

    @property
    def is_isochore(self) -> bool:
        return self.spec.kind == "isochore"


def _isochore_generators(medium, points) -> list[GKLSGenerator | BohrResolutionError]:
    """The weak-coupling generators of ``medium`` at each (omega, bath) of
    ``points``, Liouvillians built: the distinct points as one `_davies_stack`,
    each member against its own bath.  A repeated point is the same generator;
    a point whose Bohr gaps collide is its BohrResolutionError."""
    distinct = list(dict.fromkeys(points))
    gens = _davies_stack([medium.hamiltonian(omega) for omega, _ in distinct],
                         [(medium.coupling(), distinct[0][1])], [(bath,) for _, bath in distinct])
    _liouvillian_stack([gen for gen in gens if isinstance(gen, GKLSGenerator)])
    found = dict(zip(distinct, gens))
    return [found[point] for point in points]


def _transfer_maps(v_start: np.ndarray, v_end: np.ndarray) -> np.ndarray:
    """rho -> sum_j K_j rho K_j^dag with the transfer operators
    K_j = |e_j(end)><e_j(start)| between the eigenbases held as columns of
    each member of the (..., d, d) stacks ``v_start`` and ``v_end``: the
    ideal adiabat, whose populations ride the instantaneous eigenbasis
    while coherences average away, and for v_start = v_end the pinch that
    kills energy-basis coherence.  Returns the (..., d^2, d^2) maps, each
    with the bits of `sandwich_superop` on its transfer operators."""
    k = v_end.swapaxes(-1, -2)[..., :, :, None] * v_start.swapaxes(-1, -2).conj()[..., :, None, :]
    k_dag = k.conj().swapaxes(-1, -2)
    d = v_start.shape[-1]
    m = np.zeros(v_start.shape[:-2] + (d * d, d * d), dtype=complex)
    for j in range(d):  # summed in sandwich_superop's member order
        m += _sandwich(k[..., j, :, :], k_dag[..., j, :, :])
    return m


def _adiabat_superops(medium, kind: str, strokes: list[StrokeSpec], v_start: np.ndarray,
                      v_end: np.ndarray) -> np.ndarray:
    """The (n, d^2, d^2) propagators of one operation of n cycles:
    ``strokes`` are its n StrokeSpecs, ``kind`` is their protocol, or
    ``pinch`` for a dephasing pinch, and ``v_start`` and ``v_end`` hold the
    eigenvectors of H(omega_start) and H(omega_end) of each as columns."""
    n, side = len(strokes), medium.dim ** 2
    if kind == "sudden":
        return np.broadcast_to(np.eye(side, dtype=complex), (n, side, side))
    if kind in ("adiabatic", "pinch"):  # the ideal infinitely slow limit
        return _transfer_maps(v_start, v_end)
    # linear-ramp: time-ordered unitary on a refined grid, midpoint
    # steps exp(-i H(w_k) dt) from one stacked call per stroke
    us = []
    for spec in strokes:
        steps = max(64, int(math.ceil(spec.duration * 200)))
        dt = spec.duration / steps
        fracs = (np.arange(steps) + 0.5) / steps
        ws = spec.omega_start + (spec.omega_end - spec.omega_start) * fracs
        u = np.eye(medium.dim, dtype=complex)
        for step in unitary_exp(np.array([medium.hamiltonian(w).mat * dt for w in ws])):
            u = step @ u
        us.append(u)
    us = np.array(us)
    return _sandwich(us, us.conj().swapaxes(-1, -2))


@dataclass(frozen=True)
class CycleSpec:
    """A reciprocating cycle on a working medium.

    ``order`` fixes the stroke sequence: the engine order runs hot
    isochore, expansion, cold isochore, compression; the refrigerator
    order is the reversed sequence, whose frequency-mismatched stroke
    junctions are booked as sudden quenches (free for media whose
    Hamiltonians commute across frequencies).
    """

    medium: object
    omega_h: float
    omega_c: float
    bath_h: BathSpec
    bath_c: BathSpec
    tau_h: float = 5.0
    tau_c: float = 5.0
    tau_hc: float = 1.0
    tau_ch: float = 1.0
    protocol: str = "adiabatic"
    order: str = "engine"
    dephase_after_adiabats: bool = False

    def __post_init__(self):
        if not (self.omega_h > self.omega_c > 0):
            raise ValueError("need omega_h > omega_c > 0")
        if self.order not in ("engine", "refrigerator"):
            raise ValueError(f"unknown cycle order {self.order!r}")
        if self.protocol not in _PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.bath_h.label == self.bath_c.label:
            # the cycle walk books heat by bath label
            raise ValueError(f"hot and cold baths share the label {self.bath_h.label!r}")

    def strokes(self) -> list[StrokeSpec]:
        """Chronological stroke list."""
        hot = StrokeSpec(
            kind="isochore", duration=self.tau_h, omega=self.omega_h,
            bath=self.bath_h, label="hot-isochore",
        )
        cold = StrokeSpec(
            kind="isochore", duration=self.tau_c, omega=self.omega_c,
            bath=self.bath_c, label="cold-isochore",
        )
        expansion = StrokeSpec(
            kind="adiabat", duration=self.tau_hc, omega_start=self.omega_h,
            omega_end=self.omega_c, protocol=self.protocol, label="expansion",
        )
        compression = StrokeSpec(
            kind="adiabat", duration=self.tau_ch, omega_start=self.omega_c,
            omega_end=self.omega_h, protocol=self.protocol, label="compression",
        )
        if self.order == "engine":
            return [hot, expansion, cold, compression]
        return [hot, compression, cold, expansion]

    def cycle_time(self) -> float:
        return self.tau_h + self.tau_c + self.tau_hc + self.tau_ch


def _cycle_ops(spec: CycleSpec) -> list[tuple[str, StrokeSpec]]:
    """The cycle's operations in time order, each with its kind: every
    stroke (``isochore`` or its protocol) and, with
    ``dephase_after_adiabats``, after each adiabat a ``pinch``, booked as a
    zero-time sudden stroke at the adiabat's final frequency."""
    ops = []
    for st in spec.strokes():
        ops.append(("isochore" if st.kind == "isochore" else st.protocol, st))
        if st.kind == "adiabat" and spec.dephase_after_adiabats:
            ops.append(("pinch", StrokeSpec(
                kind="adiabat", duration=0.0, omega_start=st.omega_end, omega_end=st.omega_end,
                protocol="sudden", label=f"dephase-after-{st.label}")))
    return ops


def _ends(st: StrokeSpec) -> tuple[float, float]:
    """The frequencies in force at the entry and the exit of a stroke."""
    if st.kind == "isochore":
        return st.omega, st.omega
    return st.omega_start, st.omega_end


@dataclass(frozen=True)
class _CycleStack:
    """The cycles of a stack whose generators were built: ``members`` are
    their places in the stack; for each, ``kinds`` and ``ops`` list its
    operations in time order (:func:`_cycle_ops`), ``ends`` the
    Hamiltonians of its Davies stack (which carry their decompositions)
    at each operation's entry and exit, ``h`` and ``v`` (m, K, 2, d, d)
    their matrices and eigenvectors (as columns), ``sops`` (m, K, d^2,
    d^2) its propagators and ``total`` (m, d^2, d^2) the cycle
    propagators, read right to left."""

    members: list[int]
    kinds: list[str]
    ops: list[list[StrokeSpec]]
    ends: list[list[tuple[Operator, Operator]]]
    h: np.ndarray
    v: np.ndarray
    sops: np.ndarray
    total: np.ndarray


def _compile_stack(specs) -> tuple[list, _CycleStack | None]:
    """Compile the cycles ``specs``, which share their medium, protocol,
    order and dephasing: the isochore generators as one `_davies_stack`,
    every isochore's exp(L tau) from one stacked ``expm`` (which takes the
    slices one by one), every adiabat from one broadcast sandwich, and
    every stroke verified completely positive and trace preserving in one
    stacked check; the cycles are composed as stacked products.  Returns,
    per cycle, None or the ValueError that compiling it alone raises (its
    hot generator's BohrResolutionError before its cold one's; then its
    first stroke in time order that is not finite or not CPTP), and the
    stack of the cycles whose generators were built.  Each cycle's bits
    are those of compiling it alone."""
    first = specs[0]
    shape = (first.medium, first.protocol, first.order, first.dephase_after_adiabats)
    if any((sp.medium, sp.protocol, sp.order, sp.dephase_after_adiabats) != shape for sp in specs):
        raise ValueError("the cycles of one stack must share their medium, protocol, "
                         "order and dephasing")
    medium = first.medium
    side = medium.dim ** 2
    out: list = [None] * len(specs)
    built = _isochore_generators(medium, [p for sp in specs for p in (
        (sp.omega_h, sp.bath_h), (sp.omega_c, sp.bath_c))])
    members, gens = [], []
    for i, (sp, hot, cold) in enumerate(zip(specs, built[::2], built[1::2])):
        if isinstance(hot, BohrResolutionError) or isinstance(cold, BohrResolutionError):
            out[i] = hot if isinstance(hot, BohrResolutionError) else cold
        else:
            members.append(i)
            gens.append({sp.omega_h: hot, sp.omega_c: cold})
    if not members:
        return out, None
    kinds = [kind for kind, _ in _cycle_ops(first)]
    ops = [[st for _, st in _cycle_ops(specs[i])] for i in members]
    ends = [[tuple(g[w].h for w in _ends(st)) for st in op] for op, g in zip(ops, gens)]
    h = np.array([[[ham.mat for ham in pair] for pair in row] for row in ends])
    v = np.array([[[ham.eigh()[1] for ham in pair] for pair in row] for row in ends])
    sops = np.empty((len(members), len(kinds), side, side), dtype=complex)
    iso = [k for k, kind in enumerate(kinds) if kind == "isochore"]
    sops[:, iso] = scipy.linalg.expm(np.array([
        g[st.omega].liouvillian().mat * st.duration
        for op, g in zip(ops, gens) for st in (op[k] for k in iso)
    ])).reshape(len(members), len(iso), side, side)
    for k, kind in enumerate(kinds):
        if kind != "isochore":
            sops[:, k] = _adiabat_superops(medium, kind, [op[k] for op in ops],
                                           v[:, k, 0], v[:, k, 1])
    # the strokes, not the pinches, are checked, as a Superoperator checks
    # its entries and then as one stack of CPTP residuals
    strokes = [k for k, kind in enumerate(kinds) if kind != "pinch"]
    checked = sops[:, strokes]
    finite = np.isfinite(checked).all(axis=(1, 2, 3))
    min_eig, drift = (arr.reshape(-1, len(strokes)) for arr in cptp_residuals(
        checked[finite].reshape(-1, side, side)))
    bad = ~(min_eig >= -DYNAMICAL) | (drift > DYNAMICAL)
    for j in (~finite).nonzero()[0]:
        out[members[j]] = ValueError("matrix has NaN or Inf entries")
    for j, row, eig, dr in zip(finite.nonzero()[0], bad, min_eig, drift):
        if row.any():
            k = int(row.argmax())
            st = ops[j][strokes[k]]
            out[members[j]] = ValueError(
                f"stroke {st.label or st.kind!r} is not CPTP "
                f"(choi min eig {eig[k]:.3e}, trace drift {dr[k]:.3e})"
            )
    total = np.broadcast_to(np.eye(side, dtype=complex), (len(members), side, side))
    for k in range(len(kinds)):
        total = sops[:, k] @ total
    return out, _CycleStack(members, kinds, ops, ends, h, v, sops, total)


def compose_cycle(spec: CycleSpec) -> tuple[Superoperator, list[StrokeOp]]:
    """Compile the strokes and compose the cycle propagator (chronological
    application; the product reads right to left): the stack of one of
    :func:`_compile_stack`.  Every stroke is verified completely positive
    and trace preserving; the first failing stroke in chronological order
    is reported.  Each stroke's Hamiltonians are those of the cycle's
    Davies stack, with the decompositions it computed."""
    (error,), stack = _compile_stack([spec])
    if error is not None:
        raise error
    ops = [StrokeOp(st, Superoperator(sop), h_in, h_out)
           for st, sop, (h_in, h_out) in zip(stack.ops[0], stack.sops[0], stack.ends[0])]
    return Superoperator(stack.total[0]), ops


_MAX_ITER = 2000


def _limit_cycle_states(u: np.ndarray) -> list:
    """Fixed points of a (n, d^2, d^2) stack of cycle maps U: the stack of
    `_whole_fixed_points` with K = U - I, each trace row scaled to K's
    largest entry and each residual held to 1e-10."""
    kernels = u - np.eye(u.shape[-1])
    borders = [max(float(scipy.linalg.lapack.zlange("M", k)), 1e-300) for k in kernels]
    return _whole_fixed_points(kernels, borders, [1e-10] * len(u), "cycle fixed point degenerate")


def find_limit_cycle(u_cyc: Superoperator) -> tuple[DensityMatrix, list[float]]:
    """Fixed point of the cycle propagator (:func:`_limit_cycle_states`)
    and the relative-entropy convergence trace of plain iteration toward
    it from the maximally mixed state, for at most ``_MAX_ITER`` cycles.

    The contraction property of relative entropy under CP maps makes the
    recorded distances non-increasing."""
    (rho_lc,) = _limit_cycle_states(u_cyc.mat[None])
    if isinstance(rho_lc, ValueError):
        raise rho_lc
    d = u_cyc.dim
    # rho_lc is diagonalised once; each iterate's one eigendecomposition
    # both checks it as a state and enters its relative entropy
    mu, w = np.linalg.eigh(rho_lc.mat)
    trace_conv: list[float] = []
    rho = (np.eye(d) / d).astype(complex)  # the maximally mixed state
    lam, u = _state_spectra(rho[None], vectors=True)
    for _ in range(_MAX_ITER):
        dist = _relative_entropy_of_spectra(lam[0], u[0], mu, w)
        trace_conv.append(dist)
        if dist < 1e-12:
            break
        rho = _symmetrised(u_cyc.apply_matrix(rho))
        lam, u = _state_spectra(rho[None], vectors=True)
    return rho_lc, trace_conv


@dataclass(frozen=True)
class CycleReport:
    """Per-cycle energy bookkeeping at the limit cycle."""

    work: float                      # net extracted work per cycle
    q_h: float                       # heat from the cycle's hot bath
    q_c: float                       # heat from the cycle's cold bath
    efficiency: float | None         # W / Q_h when operating as an engine
    cop: float | None                # Q_c / |W| when operating as a refrigerator
    power: float                     # W / cycle time
    entropy_production: float        # -sum_k Q_k / T_k per cycle
    is_engine: bool
    flags: tuple[str, ...] = ()


def _symmetrised(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2 as a C-ordered array, the matrix that
    :meth:`Superoperator.apply` hands to its DensityMatrix."""
    return np.ascontiguousarray((m + m.conj().T) / 2.0)


def _walk_states(sops: np.ndarray, rho_start: np.ndarray) -> tuple[np.ndarray, list]:
    """The states of n chronological walks: from the (n, d, d) states
    ``rho_start`` through the K propagators (n, K, d^2, d^2) of each, as
    an (n, K + 1, d, d) array, ``rho_start`` first.  The states after the
    propagators are checked as one stack (``_state_checks``); entry i of
    the list is None, or the message that DensityMatrix raises for walk
    i's first bad state, as a ValueError."""
    n, n_ops, side = sops.shape[:3]
    d = rho_start.shape[-1]
    rhos = np.empty((n, n_ops + 1, d, d), dtype=complex)
    rhos[:, 0] = rho_start
    for k in range(n_ops):
        # S vec(rho) with vec the column stacking, then (m + m^dag) / 2
        x = rhos[:, k].swapaxes(-1, -2).reshape(n, side, 1)
        m = (sops[:, k] @ x).reshape(n, d, d).swapaxes(-1, -2)
        rhos[:, k + 1] = (m + m.conj().swapaxes(-1, -2)) / 2.0
    errors: list = [None] * n
    # the verdicts come in walk order, so a walk's first is its earliest
    for k, message in _state_checks(rhos[:, 1:].reshape(-1, d, d))[2].items():
        if errors[k // n_ops] is None:
            errors[k // n_ops] = ValueError(message)
    return rhos, errors


@dataclass(frozen=True)
class _Walk:
    """A cycle walked from its limit cycle: the states (K + 1, d, d) from
    the limit cycle on, each operation's <H_out>_out - <H_in>_in, the
    extracted work (junction quenches included), the heats from the hot
    and the cold bath, and the cycle's operation kinds with their entry
    and exit Hamiltonians ``h`` and eigenvectors ``v`` (K, 2, d, d)."""

    rhos: np.ndarray
    deltas: list[float]
    work: float
    q_h: float
    q_c: float
    kinds: list[str]
    h: np.ndarray
    v: np.ndarray


def _walk_stack(specs) -> list:
    """Compile (:func:`_compile_stack`), solve and walk the cycles
    ``specs``: one LU per cycle for its limit cycle, one stacked state
    check and one booking pass for all walks, and the energies as
    stacked traces.  Entry i is cycle i's _Walk, or the ValueError that
    walking it alone raises."""
    out, stack = _compile_stack(specs)
    if stack is None:
        return out
    compiled = [j for j, i in enumerate(stack.members) if out[i] is None]
    starts = {}
    for j, rho in zip(compiled, _limit_cycle_states(stack.total[compiled])):
        if isinstance(rho, ValueError):
            out[stack.members[j]] = rho
        else:
            starts[j] = rho.mat
    if not starts:
        return out
    live = list(starts)
    rhos, errors = _walk_states(stack.sops[live], np.array(list(starts.values())))
    h_in, h_out = stack.h[live, :, 0], stack.h[live, :, 1]
    e_in = np.real(np.trace(rhos[:, :-1] @ h_in, axis1=-2, axis2=-1))
    deltas = np.real(np.trace(rhos[:, 1:] @ h_out, axis1=-2, axis2=-1)) - e_in
    # a sudden quench at a junction whose Hamiltonians differ, the closing
    # one included, is work: the energy jump at a fixed state, else 0.0
    jump_h = np.concatenate([h_in[:, 1:], h_in[:, :1]], axis=1) - h_out
    jumps = np.where(np.abs(jump_h).max(axis=(-2, -1)) > 1e-12,
                     np.real(np.trace(rhos[:, 1:] @ jump_h, axis1=-2, axis2=-1)), 0.0)
    work = np.zeros(len(live))
    for k, kind in enumerate(stack.kinds):
        if kind != "isochore":
            work -= deltas[:, k]
        work -= jumps[:, k]
    # the hot isochore opens every cycle; the cold one is the other, and
    # 0.0 + q books a heat of -0.0 as 0.0
    hot, cold = (k for k, kind in enumerate(stack.kinds) if kind == "isochore")
    for j, err, rho, delta, w in zip(live, errors, rhos, deltas.tolist(), work.tolist()):
        out[stack.members[j]] = err if err is not None else _Walk(
            rho, delta, w, 0.0 + delta[hot], 0.0 + delta[cold], stack.kinds, stack.h[j], stack.v[j])
    return out


def _report(spec: CycleSpec, walk: _Walk) -> CycleReport | ValueError:
    """The energy split of a walked cycle, or the ValueError of a bath at
    T = 0, whose entropy flow has no value."""
    work, q_h, q_c = walk.work, walk.q_h, walk.q_c
    flags = []
    scale = max(abs(q_h), abs(q_c), abs(work), 1e-30)
    is_engine = work > DYNAMICAL * scale and q_h > 0
    efficiency = None
    cop = None
    if is_engine:
        efficiency = work / q_h
    elif spec.order == "engine":
        flags.append("not an engine at these parameters")
    if work < -DYNAMICAL * scale and q_c > 0:
        cop = q_c / (-work)
    sigma = 0.0
    for q, bath in ((q_h, spec.bath_h), (q_c, spec.bath_c)):
        if bath.temperature == 0.0:
            return _zero_temperature_flow(bath)
        if not math.isinf(bath.temperature):
            sigma -= q / bath.temperature
    return CycleReport(
        work=work,
        q_h=q_h,
        q_c=q_c,
        efficiency=efficiency,
        cop=cop,
        power=work / spec.cycle_time(),
        entropy_production=sigma,
        is_engine=is_engine,
        flags=tuple(flags),
    )


def _otto_stack(specs) -> list:
    """The CycleReport of each cycle of ``specs`` (which share their
    medium, protocol, order and dephasing), all compiled, solved and
    walked as one stack (:func:`_walk_stack`); entry i is the report of
    cycle i, or the ValueError (a BohrResolutionError among them) that
    :func:`run_otto` raises for it.  Each entry's bits are those of
    evaluating its cycle alone, whatever the stack."""
    return [w if isinstance(w, ValueError) else _report(spec, w)
            for spec, w in zip(specs, _walk_stack(specs))]


def run_otto(spec: CycleSpec) -> CycleReport:
    """Drive the cycle to its limit cycle and report the energy split:
    the stack of one of :func:`_otto_stack`, which finds the limit cycle
    from one bordered solve and walks the cycle once from it."""
    (rep,) = _otto_stack([spec])
    if isinstance(rep, ValueError):
        raise rep
    return rep


def quantum_friction(spec: CycleSpec) -> tuple[float, float]:
    """Extra work demanded by nonadiabatic driving.

    At the protocol's own limit cycle, each adiabat's energy change is
    compared against the ideal population-transport map applied to the
    same entry state; the summed excess is the coherence work and cannot
    be negative when the entry states are passive.  Also returns the
    largest energy-basis Shannon-minus-von-Neumann entropy gap seen at a
    stroke exit (the coherence signature).  The states, the actual
    energy changes and each adiabat's Hamiltonians and eigenbases are
    those of the limit-cycle walk of :func:`run_otto`, a stack of one,
    whose states are already checked; the energy-basis populations are
    read in the walk's exit eigenbasis, so no Hamiltonian is diagonalised
    again."""
    (walk,) = _walk_stack([spec])
    if isinstance(walk, ValueError):
        raise walk
    extra_work = 0.0
    entropy_gap = 0.0
    for k, kind in enumerate(walk.kinds):
        if kind == "isochore":
            continue
        rho_in, rho_out = walk.rhos[k], walk.rhos[k + 1]
        (h_in, h_out), (v_in, v_out) = walk.h[k], walk.v[k]
        ideal = Superoperator(_transfer_maps(v_in, v_out))
        rho_ideal = DensityMatrix(_symmetrised(ideal.apply_matrix(rho_in)))
        e_in = float(np.real(np.trace(rho_in @ h_in)))
        e_ideal = float(np.real(np.trace(rho_ideal.mat @ h_out))) - e_in
        extra_work += walk.deltas[k] - e_ideal
        pops = np.real(np.einsum("ij,jk,ki->i", v_out.conj().T, rho_out, v_out))
        gap = float(_entropy_of_probs(pops)) - float(_entropy_of_probs(np.linalg.eigvalsh(rho_out)))
        entropy_gap = max(entropy_gap, gap)
    return extra_work, entropy_gap


class _EvaluationCap(Exception):
    """Raised inside `_nelder_mead_steps` at its first evaluation past the cap."""


def _sorted_simplex(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def _nelder_mead_steps(x0, lo, hi, maxfev: int, xatol: float, fatol: float):
    """Minimise f over the box [lo, hi] by the Nelder–Mead simplex
    (Comput. J. 7, 308 (1965)) with reflection 1, expansion 2 and
    contraction and shrink ½, as a generator: it yields each point it
    wants evaluated, as a pair (x, hints), is sent f(x), and returns
    (x, fun, success), where success is False when the evaluation cap
    ended the search.

    This is SciPy 1.17.1's ``minimize(method="Nelder-Mead")`` with
    ``bounds`` and ``maxfev`` set, repeated operation for operation so
    that it evaluates the same points and returns the same bits: the
    initial simplex steps 5 % along each axis (0.00025 from a zero
    coordinate) and is reflected into the box, then clipped; every trial
    point is clipped; the first evaluation past ``maxfev`` ends the search
    at once.

    ``hints`` lists points the search may ask for next, so that a driver
    can evaluate them beside x; they are asked for, if at all, in their
    order and with their bits, and none counts toward ``maxfev`` unless it
    is asked for.  At the first simplex vertex they are the other
    vertices, at a shrink point the remaining shrink points, and with a
    reflection the follow-up (expansion, outside or inside contraction)
    that the last two iterations both needed, if they needed the same one.
    No hint is given that the cap would keep the search from asking for."""
    calls = 0

    def func(x: np.ndarray, hints=()):
        nonlocal calls
        if calls >= maxfev:
            raise _EvaluationCap
        calls += 1
        return (yield np.copy(x), [np.copy(h) for h in hints[:maxfev - calls]])

    x0 = np.clip(np.asarray(x0, dtype=float), lo, hi)
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = np.full((n + 1,), np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = yield from func(sim[k], sim[k + 1:])
    except _EvaluationCap:
        pass
    sim, fsim = _sorted_simplex(sim, fsim)
    sim, fsim = _sorted_simplex(sim, fsim)  # SciPy sorts twice here
    # the follow-up point that each of the last two iterations needed
    needed = [None, None]
    while calls < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            follow_ups = {"expansion": np.clip(3 * xbar - 2 * sim[-1], lo, hi),
                          "outside": np.clip(1.5 * xbar - 0.5 * sim[-1], lo, hi),
                          "inside": np.clip(0.5 * xbar + 0.5 * sim[-1], lo, hi)}
            xr = np.clip(2 * xbar - sim[-1], lo, hi)
            agreed = needed[0] if needed[0] == needed[1] else None
            fxr = yield from func(xr, [follow_ups[agreed]] if agreed else [])
            needed[0] = needed[1]
            if fxr < fsim[0]:
                needed[1] = "expansion"
                xe = follow_ups["expansion"]
                fxe = yield from func(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                needed[1] = None
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    needed[1] = "outside"
                    xc = follow_ups["outside"]
                    fxc = yield from func(xc)
                    shrink = not fxc <= fxr
                else:
                    needed[1] = "inside"
                    xc = follow_ups["inside"]
                    fxc = yield from func(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrunk = np.clip(sim[0] + 0.5 * (sim[1:] - sim[0]), lo, hi)
                    for j in range(1, n + 1):
                        sim[j] = shrunk[j - 1]
                        fsim[j] = yield from func(sim[j], shrunk[j:])
        except _EvaluationCap:
            pass
        sim, fsim = _sorted_simplex(sim, fsim)
    return sim[0], np.min(fsim), calls < maxfev


def _search_box(spec: CycleSpec, free: dict[str, tuple[float, float]]) -> None:
    """Raise ValueError unless every point of the ``free`` box of
    `optimize_power` is a cycle: it names at least one parameter, each a
    stroke duration or a frequency, with finite bounds lo <= hi, and
    durations >= 0, frequencies > 0 and omega_h > omega_c at the worst
    corner."""
    if not free:
        raise ValueError("free must name at least one parameter to optimise")
    for key, (lo, hi) in free.items():
        if key not in ("omega_c", "omega_h", "tau_h", "tau_c", "tau_hc", "tau_ch"):
            raise ValueError(f"cannot optimise over {key!r}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"bounds of {key!r} must be finite")
        if lo > hi:
            raise ValueError(f"bounds of {key!r} must have lo <= hi, got [{lo:g}, {hi:g}]")
        if key.startswith("tau") and lo < 0:
            raise ValueError(f"bounds of {key!r} must be >= 0: it is a stroke duration")
        if key.startswith("omega") and lo <= 0:
            raise ValueError(f"bounds of {key!r} must be > 0: it is a frequency")
    omega_c = free.get("omega_c", (spec.omega_c, spec.omega_c))[1]
    omega_h = free.get("omega_h", (spec.omega_h, spec.omega_h))[0]
    if not omega_h > omega_c:
        keys = " and ".join(repr(k) for k in ("omega_c", "omega_h") if k in free)
        raise ValueError(f"bounds of {keys} must keep omega_h > omega_c at every corner, "
                         f"but reach omega_c = {omega_c:g} with omega_h = {omega_h:g}")


def optimize_power(
    spec: CycleSpec,
    free: dict[str, tuple[float, float]],
    seed: int = 7,
    restarts: int = 3,
    max_evals: int = 200,
) -> tuple[dict[str, float], float, float | None]:
    """Maximise extracted power over the named cycle parameters.

    ``free`` maps CycleSpec field names (stroke durations, and optionally
    ``omega_c``/``omega_h``) to search bounds, a box every point of which
    must be a cycle (`_search_box`, checked before any evaluation).  The
    search is the in-library bounded Nelder–Mead simplex
    (`_nelder_mead_steps`, which reproduces SciPy's bounded
    ``minimize(method="Nelder-Mead")`` bit for bit) from the box's
    midpoint and seeded restarts, each capped at ``max_evals``
    evaluations; non-engine points and Bohr collisions score zero power.
    The restarts are independent, so they run in lockstep: each round
    evaluates the pending point of every running restart and the points
    it hints it may ask for next (and the midpoint, in the first) as one
    stack of cycles (`_otto_stack`); a restart that then asks for a point
    evaluated in that round is sent its value at once.  The result, any
    error and the warning when no restart converged are those of running
    the restarts one after another, each asking for one point at a time:
    the restarts are compared in order, an error raised for a restart
    surfaces only once every earlier restart has finished without one,
    and a hinted point that is never asked for neither counts toward
    ``max_evals`` nor raises.  Returns (best parameters, max power,
    efficiency there)."""
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    if max_evals < 1:
        raise ValueError(f"max_evals must be >= 1, got {max_evals}")
    _search_box(spec, free)
    names = list(free)
    lo = np.array([free[k][0] for k in names], dtype=float)
    hi = np.array([free[k][1] for k in names], dtype=float)
    span = hi - lo

    def scores(points) -> list:
        # the power of each point, 0 for a non-engine point or a Bohr
        # collision, or the ValueError that evaluating it raises
        out = _otto_stack([replace(spec, **dict(zip(names, map(float, x)))) for x in points])
        for i, rep in enumerate(out):
            if isinstance(rep, BohrResolutionError):
                out[i] = 0.0
            elif not isinstance(rep, ValueError):
                out[i] = rep.power if rep.work > 0 else 0.0
        return out

    rng = np.random.default_rng(seed)
    searches = [_nelder_mead_steps(lo + rng.uniform(0.15, 0.85, size=len(names)) * span,
                                   lo, hi, max_evals, 1e-4, 1e-10) for _ in range(restarts)]
    # each running restart's pending point with its hints, and the values
    # of the points evaluated for it in the last round, by their bits
    pending = {r: next(search) for r, search in enumerate(searches)}
    known: dict[int, dict] = {}
    results, failed = {}, {}

    def advance(r: int, value):
        # send restart r its value, then each value of the last round that
        # it asks for next, until it asks for a point not yet evaluated
        while True:
            if isinstance(value, ValueError):
                # the restarts from r on no longer decide the outcome
                failed[r] = value
                for q in [q for q in pending if q >= r]:
                    del pending[q]
                return
            try:
                pending[r] = searches[r].send(-value)
            except StopIteration as stop:
                del pending[r]
                results[r] = stop.value
                return
            value = known[r].get(pending[r][0].tobytes())
            if value is None:
                return

    best_x = (lo + hi) / 2.0
    best_p = None
    while best_p is None or pending:
        running = sorted(pending)
        points = {}
        for r in running:
            x, hints = pending[r]
            points[r] = {p.tobytes(): p for p in (x, *hints)}
        values = iter(scores(([best_x] if best_p is None else [])
                             + [p for r in running for p in points[r].values()]))
        if best_p is None:
            best_p = next(values)
            if isinstance(best_p, ValueError):
                raise best_p
        for r in running:
            known[r] = {key: next(values) for key in points[r]}
            if r in pending:
                advance(r, known[r][pending[r][0].tobytes()])
    if failed:
        raise failed[min(failed)]
    any_converged = False
    for r in range(restarts):
        x, fun, success = results[r]
        any_converged = any_converged or success
        if -fun > best_p:
            best_p = -fun
            best_x = x
    if restarts and not any_converged:
        warnings.warn("power optimisation hit its evaluation cap in every "
                      "restart; returning the best point found", stacklevel=2)
    best = {k: float(v) for k, v in zip(names, best_x)}
    rep = run_otto(replace(spec, **best))
    return best, rep.power, rep.efficiency


def sudden_limit_check(spec: CycleSpec, tau_list) -> list[tuple[float, float]]:
    """Deviation of the symmetric four-stroke split
    U_ch^(1/2) U_c U_hc U_h U_ch^(1/2) from the merged generator
    exp(sum_j L_j tau), tabulated over the stroke time tau.

    The split sandwiches half the compression generator around the cycle,
    which is a conjugated rotation of the plain stroke product; what the
    cyclic structure protects is the spectrum, so the tabulated error is
    the matched eigenvalue distance between the split and merged
    propagators.  It vanishes to third order in tau (the raw operator-norm
    gap between the two matrices is only second order)."""
    gen_h, gen_c = _isochore_generators(spec.medium, [(spec.omega_h, spec.bath_h),
                                                      (spec.omega_c, spec.bath_c)])
    for gen in (gen_h, gen_c):
        if isinstance(gen, BohrResolutionError):
            raise gen
    l_h = gen_h.liouvillian().mat
    l_c = gen_c.liouvillian().mat
    l_hc = hamiltonian_superop(gen_c.h).mat
    l_ch = hamiltonian_superop(gen_h.h).mat
    l_sum = l_h + l_c + l_hc + l_ch
    rows = []
    for tau in tau_list:
        half = scipy.linalg.expm(l_ch * (tau / 2.0))
        u = (
            half
            @ scipy.linalg.expm(l_c * tau)
            @ scipy.linalg.expm(l_hc * tau)
            @ scipy.linalg.expm(l_h * tau)
            @ half
        )
        err = _matched_eigenvalue_distance(u, scipy.linalg.expm(l_sum * tau))
        rows.append((float(tau), err))
    return rows


def _matched_eigenvalue_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max distance between the spectra of a and b under the optimal
    eigenvalue pairing.

    Its ``scipy.optimize`` import is the package's one import inside a
    function: loading ``scipy.optimize`` (with ``scipy.sparse`` and
    ``scipy.special``) costs about 0.2 s and 19 MB, and only
    `sudden_limit_check` needs it."""
    from scipy.optimize import linear_sum_assignment

    ea = np.linalg.eigvals(a)
    eb = np.linalg.eigvals(b)
    cost = np.abs(ea[:, None] - eb[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def fit_loglog_slope(rows) -> float:
    """Least-squares slope of log(err) vs log(tau), using only rows inside
    the asymptotic band (errors below the cap 1e-2, above the roundoff
    floor 1e-12)."""
    pts = [(t, e) for t, e in rows if 1e-12 < e < 1e-2]
    if len(pts) < 2:
        raise ValueError("not enough points in the asymptotic band to fit")
    x = np.log([t for t, _ in pts])
    y = np.log([e for _, e in pts])
    slope = float(np.polyfit(x, y, 1)[0])
    return slope


# ---------------------------------------------------------------------------
# Continuous three-bath machine


@dataclass(frozen=True)
class TricycleSpec:
    """Three filter qubits (hot, cold, work) exchanging single quanta
    through the resonant trilinear interaction
    eps (sm_h sp_c sp_w + sp_h sm_c sm_w), each filter damped by its own
    bath.  The work bath at infinite temperature turns the device into
    the canonical absorption machine."""

    omega_h: float
    omega_c: float
    bath_h: BathSpec
    bath_c: BathSpec
    bath_w: BathSpec
    eps: float = 0.05
    representation: str = "qubits"
    oscillator_levels: int = 3
    representations: ClassVar[tuple[str, ...]] = ("qubits", "oscillators")

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("interaction strength must be >= 0")
        if not (self.omega_h > self.omega_c > 0):
            raise ValueError("need omega_h > omega_c > 0")
        if self.representation not in self.representations:
            raise ValueError(f"unknown representation {self.representation!r}")
        if self.levels < 2:
            raise ValueError("need at least 2 oscillator levels")

    @property
    def levels(self) -> int:
        """Levels per filter: a qubit is the two-level truncation of the
        oscillator."""
        return 2 if self.representation == "qubits" else self.oscillator_levels

    @property
    def omega_w(self) -> float:
        # resonance condition; exact by construction
        return self.omega_h - self.omega_c


@functools.lru_cache(maxsize=None)
def _tricycle_pieces(levels: int) -> tuple[np.ndarray, np.ndarray, tuple[Operator, ...]]:
    """The frequency-free parts of the tricycle at ``levels`` levels per
    filter, read-only: the three embedded number operators, the
    interaction a_h a_c^dag a_w^dag + h.c. and the three couplings
    a + a^dag as hermitian Operators."""
    a = np.diag(np.sqrt(np.arange(1, levels, dtype=float)), k=1)
    num = a.conj().T @ a
    eye = np.eye(levels)

    def emb(op, slot):
        mats = [eye, eye, eye]
        mats[slot] = op
        return np.kron(np.kron(mats[0], mats[1]), mats[2])

    nums = np.array([emb(num, slot) for slot in range(3)])
    inter = (
        emb(a, 0) @ emb(a.conj().T, 1) @ emb(a.conj().T, 2)
        + emb(a.conj().T, 0) @ emb(a, 1) @ emb(a, 2)
    )
    for arr in (nums, inter):
        arr.setflags(write=False)
    return nums, inter, tuple(Operator.hermitian(emb(a + a.conj().T, slot)) for slot in range(3))


def _tricycle_hamiltonians(specs) -> list[Operator]:
    """The Hamiltonians of tricycles that share their filter levels, built
    as one array and checked as one stack; each member has the bits of
    omega_h N_h + omega_c N_c + omega_w N_w + eps V built alone."""
    nums, inter, _ = _tricycle_pieces(specs[0].levels)
    w = np.array([(sp.omega_h, sp.omega_c, sp.omega_w, sp.eps) for sp in specs])[:, :, None, None]
    h = w[:, 0] * nums[0] + w[:, 1] * nums[1] + w[:, 2] * nums[2]
    return Operator.hermitian_stack(h + w[:, 3] * inter)


def _tricycle_couplings(spec: TricycleSpec) -> list[tuple[Operator, BathSpec]]:
    couplings = _tricycle_pieces(spec.levels)[2]
    return list(zip(couplings, (spec.bath_h, spec.bath_c, spec.bath_w)))


@dataclass(frozen=True)
class TricycleSteady:
    currents: dict[str, float]
    second_law_value: float    # -sum_k J_k / T_k, non-negative
    first_law_residual: float  # |sum_k J_k|
    gain: float                # bare-basis population inversion of the work transition
    state: DensityMatrix


def _tricycle_steady_stack(specs) -> list:
    """:func:`tricycle_steady` of every spec of ``specs``, one per member,
    all solved as one stack: one batched ``eigh`` (``_davies_stack``, each
    member with its own three baths), one stacked stationary solve and one
    stacked evaluation of the heat observables.  The specs share their
    filter levels and bath labels; their frequencies and baths may
    differ.  Entry i is the TricycleSteady of ``specs[i]``, or the
    ValueError (a BohrResolutionError among them) that its build or solve
    raised, or that of a bath at T = 0 with channels, whose entropy flow
    has no value; each entry's bits are those of solving it alone."""
    gens = _davies_stack(_tricycle_hamiltonians(specs), _tricycle_couplings(specs[0]),
                         [(sp.bath_h, sp.bath_c, sp.bath_w) for sp in specs])
    out: list = list(gens)
    built = [i for i, gen in enumerate(gens) if isinstance(gen, GKLSGenerator)]
    for i, state in zip(built, _stationary_stack([gens[i] for i in built])):
        out[i] = state
    solved = [i for i in built if isinstance(out[i], DensityMatrix)]
    if not solved:
        return out
    solved_gens = [gens[i] for i in solved]
    labels, q = _table_heat_observables(solved_gens)
    rho = np.array([out[i].mat for i in solved])
    j = _currents(q, rho)
    # the columns of every member at once: a label counts where the member
    # has channels to its bath, a bath at T = inf adds no entropy flow, and
    # a member with a bath at T = 0, whose -J / T has no value, is an error
    on = np.array([[label in names for label in labels]
                   for names in (set(gen.bath_labels) for gen in solved_gens)])
    t = np.array([[gen.baths[label].temperature for label in labels] for gen in solved_gens])
    at_zero = on & (t == 0.0)
    second, total = np.zeros(len(solved)), np.zeros(len(solved))
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(len(labels)):
            second = np.where(on[:, k] & ~np.isinf(t[:, k]), second - j[:, k] / t[:, k], second)
            total = np.where(on[:, k], total + j[:, k], total)
    # basis order |h c w>: |100> is index d^2, |010> is index d
    d = specs[0].levels
    gain = rho[:, d * d, d * d].real - rho[:, d, d].real
    for i, gen, j_i, on_i, at_zero_i, second_i, total_i, gain_i in zip(
            solved, solved_gens, j.tolist(), on.tolist(), at_zero.tolist(), second.tolist(),
            np.abs(total).tolist(), gain.tolist()):
        if True in at_zero_i:
            out[i] = _zero_temperature_flow(gen.baths[labels[at_zero_i.index(True)]])
            continue
        out[i] = TricycleSteady(
            currents={label: x for label, x, has in zip(labels, j_i, on_i) if has},
            second_law_value=second_i,
            first_law_residual=total_i,
            gain=gain_i,
            state=out[i],
        )
    return out


def tricycle_steady(spec: TricycleSpec) -> TricycleSteady:
    """Steady-state currents and law values of the three-bath machine,
    from the global weak-coupling generator of the full interacting
    filter Hamiltonian (local per-filter generators can push heat against
    the gradient).

    The gain is the population imbalance between the single-excitation
    hot and cold filter states, the three-level-amplifier inversion
    reading of the machine; it changes sign together with the cooling
    window."""
    (steady,) = _tricycle_steady_stack([spec])
    if isinstance(steady, ValueError):
        raise steady
    return steady


@dataclass(frozen=True)
class SweepRow:
    t_c: float
    omega_c_star: float
    j_c: float
    conductance: float
    gain: float
    no_cooling: bool = False
    # every candidate's build collided (BohrResolutionError): nothing was
    # solved, and the row's numbers are nan
    unsolved: bool = False


# cold-frequency candidates per sweep point, half coarse and half fine
_SWEEP_EVALS = 40


def third_law_sweep(
    spec: TricycleSpec,
    t_c_grid,
    ratio_lo: float = 0.2,
    ratio_hi: float = 3.0,
) -> list[SweepRow]:
    """Cooling-current sweep toward absolute zero.

    For each cold temperature the cold filter frequency is optimised over
    the bracket [ratio_lo, ratio_hi] * T_c to maximise the cooling current
    J_c: a coarse grid, then a fine one between the neighbours of its best
    point.  Rows report the optimum, the gain, and the conductance
    K = J_c / (omega_c G).  Candidate frequencies that collide with the
    interaction-split Bohr structure (BohrResolutionError) are skipped
    rather than guessed; any other solver error reaches the caller.  A
    cold temperature whose every candidate is skipped is ``unsolved``, its
    row's numbers nan.

    The grids are pipelined: stack k (``_tricycle_steady_stack``) solves
    the fine grid of the (k-1)-th cold temperature together with the
    coarse grid of the k-th, so n temperatures take n + 1 stacks.  A fine
    grid needs its own coarse result, so no stack can hold more grids.
    Rows and errors are those of solving the grids one after another: the
    fine grid's members come first in their stack, and an error met in
    setting up the next temperature (the 1e-3 floor, say) is raised only
    after the fine grid before it is solved alone.

    For a power-law cold bath of exponent p (J(w) ~ w**p), the optimum
    omega_c* stays proportional to T_c below the cooling-window edge
    omega_h T_c / T_h, so the absorption rate goes as T_c**p and the
    cooling current as J_c ~ T_c**(p + 1); the third-law acceptance
    criterion checks the fitted exponent against p + 1."""
    label = spec.bath_c.label
    half = _SWEEP_EVALS // 2

    def coarse(t_c):
        # the coarse grid over [lo, hi] of one cold temperature, and its
        # candidates
        t_c = float(t_c)
        if t_c < 1e-3:
            raise ValueError("cold temperature grid is floored at 1e-3")
        at_t_c = replace(spec, bath_c=replace(spec.bath_c, temperature=t_c))
        grid = np.linspace(ratio_lo * t_c, min(ratio_hi * t_c, 0.95 * spec.omega_h), half)
        return (t_c, at_t_c, grid), [replace(at_t_c, omega_c=float(w)) for w in grid]

    def scored(steadies) -> list[tuple[float, TricycleSteady | None]]:
        # a Bohr collision skips its candidate
        out = []
        for steady in steadies:
            if isinstance(steady, BohrResolutionError):
                out.append((-math.inf, None))
            elif isinstance(steady, ValueError):
                raise steady
            else:
                out.append((steady.currents[label], steady))
        return out

    def refine(t_c, at_t_c, grid, solves):
        # as many points again between the neighbours of the best coarse
        # point; np.linspace sets both ends exactly, so they reuse its solves
        k = int(np.argmax([j for j, _ in solves]))
        ka, kb = max(0, k - 1), min(len(grid) - 1, k + 1)
        fine = np.linspace(grid[ka], grid[kb], _SWEEP_EVALS - half)
        return (t_c, fine, solves[ka], solves[kb]), [replace(at_t_c, omega_c=float(w))
                                                     for w in fine[1:-1]]

    def row(t_c, fine, first, last, inner) -> SweepRow:
        solves = [first, *inner, last]
        # the fine grid holds the best coarse point, so a fine grid with no
        # solve had no coarse one either
        if all(steady is None for _, steady in solves):
            return SweepRow(t_c, math.nan, math.nan, math.nan, math.nan,
                            no_cooling=True, unsolved=True)
        kk = int(np.argmax([j for j, _ in solves]))
        best_w, best_j = float(fine[kk]), float(solves[kk][0])
        if not math.isfinite(best_j) or best_j <= 0:
            return SweepRow(t_c, best_w, max(best_j, 0.0) if math.isfinite(best_j) else 0.0,
                            0.0, 0.0, no_cooling=True)
        # in the cooling window the amplifier inversion p2 - p1 is negative;
        # the cold current tracks the cooling inversion, its mirror image
        gain = -solves[kk][1].gain
        cond = best_j / (best_w * gain) if abs(gain) > 1e-300 else math.nan
        return SweepRow(t_c, best_w, best_j, cond, gain)

    t_cs = list(t_c_grid)
    if not t_cs:
        return []
    rows = []
    fine, fine_specs = None, []  # the pending fine grid: its row's arguments, its candidates
    for k in range(len(t_cs) + 1):
        nxt, coarse_specs = None, []
        try:
            if k < len(t_cs):
                nxt, coarse_specs = coarse(t_cs[k])
            steadies = _tricycle_steady_stack(fine_specs + coarse_specs)
        except Exception:
            # one grid after another, the pending fine grid is solved first
            if fine_specs:
                scored(_tricycle_steady_stack(fine_specs))
            raise
        solves = scored(steadies)
        if fine is not None:
            rows.append(row(*fine, solves[:len(fine_specs)]))
        fine, fine_specs = refine(*nxt, solves[len(fine_specs):]) if nxt else (None, [])
    return rows
