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

import numpy as np
import scipy.linalg

from .baths import BathSpec
from .lindblad import (
    BohrResolutionError,
    GKLSGenerator,
    _bordered_fixed_point,
    _currents,
    _davies_stack,
    _fixed_point_state,
    _stationary_stack,
    _table_heat_observables,
    build_davies,
    stationary_state,  # re-exported: tools that wrap it look it up here as well
)
from .operators import (
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    Operator,
    Superoperator,
    _state_spectra,
    cptp_residuals,
    hamiltonian_superop,
    identity_superop,
    matexp,
    sandwich_superop,
    unitary_exp,
    unitary_superop,
    unvec,
    vec,
)
from .states import _relative_entropy_of_spectra, shannon_entropy_in_basis, von_neumann_entropy
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


# isochore generators kept by ``_isochore_generator``: an Otto optimisation
# revisits its hot stroke at every evaluation, and at d = 10 one entry holds
# about 330 KB (the dissipator and the Liouvillian)
_ISOCHORE_CACHE = 32


@functools.lru_cache(maxsize=_ISOCHORE_CACHE)
def _isochore_generator(medium, omega: float, bath: BathSpec) -> GKLSGenerator:
    """The weak-coupling generator of ``medium`` at frequency ``omega``
    against ``bath``, with its eigenbasis and its Liouvillian built.

    Every cycle that has this stroke shares it: its channels are a tuple,
    its arrays are read-only, and it never leaves this module."""
    gen = build_davies(medium.hamiltonian(omega), [(medium.coupling(), bath)])
    gen.liouvillian()
    return gen


def _transfer_superop(v_start: np.ndarray, v_end: np.ndarray) -> Superoperator:
    """rho -> sum_j K_j rho K_j^dag with the transfer operators
    K_j = |e_j(end)><e_j(start)| between the eigenbases held as columns of
    ``v_start`` and ``v_end``: the ideal adiabat, whose populations ride
    the instantaneous eigenbasis while coherences average away, and for
    v_start = v_end the pinch that kills energy-basis coherence."""
    k = v_end.T[:, :, None] * v_start.T.conj()[:, None, :]
    return sandwich_superop(k, k.conj().swapaxes(-1, -2))


def _adiabat_superop(medium, spec: StrokeSpec, v_start: np.ndarray,
                     v_end: np.ndarray) -> Superoperator:
    """The adiabat's propagator; ``v_start`` and ``v_end`` hold the
    eigenvectors of H(omega_start) and H(omega_end) as columns."""
    if spec.protocol == "sudden":
        return identity_superop(medium.dim)
    if spec.protocol == "adiabatic":  # the ideal infinitely slow limit
        return _transfer_superop(v_start, v_end)
    # linear-ramp: time-ordered unitary on a refined grid, midpoint
    # steps exp(-i H(w_k) dt) from one stacked call
    steps = max(64, int(math.ceil(spec.duration * 200)))
    dt = spec.duration / steps
    fracs = (np.arange(steps) + 0.5) / steps
    ws = spec.omega_start + (spec.omega_end - spec.omega_start) * fracs
    u = np.eye(medium.dim, dtype=complex)
    for step in unitary_exp(np.array([medium.hamiltonian(w).mat * dt for w in ws])):
        u = step @ u
    return unitary_superop(u)


def _compile_stroke(medium, spec: StrokeSpec, gens: dict[float, GKLSGenerator]) -> StrokeOp:
    """The stroke's propagator; ``gens`` maps each isochore frequency of
    the cycle to its generator, whose H and eigenbasis the adiabats share."""
    if spec.kind == "isochore":
        gen = gens[spec.omega]
        sop = matexp(gen.liouvillian(), spec.duration)
        return StrokeOp(spec=spec, superop=sop, h_in=gen.h, h_out=gen.h)
    start, end = gens[spec.omega_start], gens[spec.omega_end]
    sop = _adiabat_superop(medium, spec, start.eigenbasis()[1].mat, end.eigenbasis()[1].mat)
    return StrokeOp(spec=spec, superop=sop, h_in=start.h, h_out=end.h)


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


def _cycle_generators(spec: CycleSpec) -> dict[float, GKLSGenerator]:
    """The isochore generators of the cycle by frequency: omega_h against
    the hot bath, omega_c against the cold one.  The adiabats run between
    their two Hamiltonians."""
    return {
        spec.omega_h: _isochore_generator(spec.medium, spec.omega_h, spec.bath_h),
        spec.omega_c: _isochore_generator(spec.medium, spec.omega_c, spec.bath_c),
    }


def compose_cycle(spec: CycleSpec) -> tuple[Superoperator, list[StrokeOp]]:
    """Compile the strokes and compose the cycle propagator (chronological
    application; the product reads right to left).

    Every stroke is compiled first and then verified completely positive
    and trace preserving, all in one stacked check; the first failing
    stroke in chronological order is reported."""
    gens = _cycle_generators(spec)
    strokes = [_compile_stroke(spec.medium, st, gens) for st in spec.strokes()]
    min_eig, drift = cptp_residuals(np.array([op.superop.mat for op in strokes]))
    bad = ~(min_eig >= -DYNAMICAL) | (drift > DYNAMICAL)
    if bad.any():
        k = int(bad.argmax())
        st = strokes[k].spec
        raise ValueError(
            f"stroke {st.label or st.kind!r} is not CPTP "
            f"(choi min eig {min_eig[k]:.3e}, trace drift {drift[k]:.3e})"
        )
    ops = []
    for op in strokes:
        ops.append(op)
        st = op.spec
        if st.kind == "adiabat" and spec.dephase_after_adiabats:
            v = gens[st.omega_end].eigenbasis()[1].mat
            pinch = _transfer_superop(v, v)
            ops.append(StrokeOp(
                spec=StrokeSpec(kind="adiabat", duration=0.0,
                                omega_start=st.omega_end, omega_end=st.omega_end,
                                protocol="sudden", label=f"dephase-after-{st.label}"),
                superop=pinch, h_in=op.h_out, h_out=op.h_out,
            ))
    total = np.eye(spec.medium.dim ** 2, dtype=complex)
    for op in ops:
        total = op.superop.mat @ total
    return Superoperator(total), ops


_MAX_ITER = 2000


def _limit_cycle_state(u_cyc: Superoperator) -> DensityMatrix:
    """Fixed point of the cycle propagator from one bordered solve of
    U - I; a degenerate unit eigenspace, a non-positive solution or a
    residual above 1e-10 raises."""
    d = u_cyc.dim
    kernel = np.array(u_cyc.mat, dtype=complex, order="F")
    kernel.flat[:: d * d + 1] -= 1.0
    border = max(float(scipy.linalg.lapack.zlange("M", kernel)), 1e-300)
    x = _bordered_fixed_point(kernel, np.arange(d) * (d + 1), border,
                              "cycle fixed point degenerate")
    return _fixed_point_state(
        unvec(x, d), lambda r: float(np.max(np.abs(u_cyc.mat @ vec(r) - vec(r)))), 1e-10
    )


def find_limit_cycle(u_cyc: Superoperator) -> tuple[DensityMatrix, list[float]]:
    """Fixed point of the cycle propagator (:func:`_limit_cycle_state`)
    and the relative-entropy convergence trace of plain iteration toward
    it from the maximally mixed state, for at most ``_MAX_ITER`` cycles.

    The contraction property of relative entropy under CP maps makes the
    recorded distances non-increasing."""
    rho_lc = _limit_cycle_state(u_cyc)
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


def _walk_cycle(ops: list[StrokeOp], rho_start: np.ndarray):
    """Chronological walk from the state ``rho_start`` recording heat per
    bath and extracted work, including quench work at frequency-mismatched
    stroke junctions.  The states after the strokes are checked as one
    stack before any energy is read from them.  Also returns the states,
    ``rho_start`` first, and each stroke's <H_out>_out - <H_in>_in."""
    rhos = [rho_start]
    for op in ops:
        rhos.append(_symmetrised(op.superop.apply_matrix(rhos[-1])))
    _state_spectra(np.array(rhos[1:]))
    heat: dict[str, float] = {}
    deltas = []
    work_extracted = 0.0
    h_prev = ops[0].h_in
    for op, rho, rho_out in zip(ops, rhos, rhos[1:]):
        if np.max(np.abs(op.h_in.mat - h_prev.mat)) > 1e-12:
            # sudden junction quench: energy jump at fixed state is work
            jump = float(np.real(np.trace(rho @ (op.h_in.mat - h_prev.mat))))
            work_extracted -= jump
        e_in = float(np.real(np.trace(rho @ op.h_in.mat)))
        e_out = float(np.real(np.trace(rho_out @ op.h_out.mat)))
        delta = e_out - e_in
        deltas.append(delta)
        if op.is_isochore:
            label = op.spec.bath.label
            heat[label] = heat.get(label, 0.0) + delta
        else:
            work_extracted -= delta
        h_prev = op.h_out
    # close the cycle back to the first stroke's Hamiltonian
    if np.max(np.abs(ops[0].h_in.mat - h_prev.mat)) > 1e-12:
        jump = float(np.real(np.trace(rhos[-1] @ (ops[0].h_in.mat - h_prev.mat))))
        work_extracted -= jump
    return work_extracted, heat, rhos, deltas


def run_otto(spec: CycleSpec) -> CycleReport:
    """Drive the cycle to its limit cycle and report the energy split."""
    u_cyc, ops = compose_cycle(spec)
    work, heat, _, _ = _walk_cycle(ops, _limit_cycle_state(u_cyc).mat)

    flags = []
    q_h = heat.get(spec.bath_h.label, 0.0)
    q_c = heat.get(spec.bath_c.label, 0.0)
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


def quantum_friction(spec: CycleSpec) -> tuple[float, float]:
    """Extra work demanded by nonadiabatic driving.

    At the protocol's own limit cycle, each adiabat's energy change is
    compared against the ideal population-transport map applied to the
    same entry state; the summed excess is the coherence work and cannot
    be negative when the entry states are passive.  Also returns the
    largest energy-basis Shannon-minus-von-Neumann entropy gap seen at a
    stroke exit (the coherence signature).  The states and the actual
    energy changes are those of the limit-cycle walk."""
    u_cyc, ops = compose_cycle(spec)
    *_, rhos, deltas = _walk_cycle(ops, _limit_cycle_state(u_cyc).mat)
    gens = _cycle_generators(spec)
    extra_work = 0.0
    entropy_gap = 0.0
    for op, rho_in, rho_out, e_actual in zip(ops, rhos, rhos[1:], deltas):
        if op.is_isochore:
            continue
        ideal = _transfer_superop(gens[op.spec.omega_start].eigenbasis()[1].mat,
                                  gens[op.spec.omega_end].eigenbasis()[1].mat)
        rho_ideal = DensityMatrix(_symmetrised(ideal.apply_matrix(rho_in)))
        e_in = float(np.real(np.trace(rho_in @ op.h_in.mat)))
        e_ideal = float(np.real(np.trace(rho_ideal.mat @ op.h_out.mat))) - e_in
        extra_work += e_actual - e_ideal
        rho = DensityMatrix(rho_out)
        gap = shannon_entropy_in_basis(rho, op.h_out) - von_neumann_entropy(rho)
        entropy_gap = max(entropy_gap, gap)
    return extra_work, entropy_gap


class _EvaluationCap(Exception):
    """Raised by `_nelder_mead`'s counted objective past its last evaluation."""


def _sorted_simplex(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def _nelder_mead(f, x0, lo, hi, maxfev: int, xatol: float, fatol: float):
    """Minimise f over the box [lo, hi] by the Nelder–Mead simplex
    (Comput. J. 7, 308 (1965)) with reflection 1, expansion 2 and
    contraction and shrink ½.

    This is SciPy 1.17.1's ``minimize(method="Nelder-Mead")`` with
    ``bounds`` and ``maxfev`` set, repeated operation for operation so
    that it evaluates the same points and returns the same bits: the
    initial simplex steps 5 % along each axis (0.00025 from a zero
    coordinate) and is reflected into the box, then clipped; every trial
    point is clipped; f receives a copy of each point; the first call past
    ``maxfev`` ends the search at once.  Returns (x, fun, success), where
    success is False when the evaluation cap ended the search."""
    calls = 0

    def func(x: np.ndarray) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _EvaluationCap
        calls += 1
        return f(np.copy(x))

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
            fsim[k] = func(sim[k])
    except _EvaluationCap:
        pass
    sim, fsim = _sorted_simplex(sim, fsim)
    sim, fsim = _sorted_simplex(sim, fsim)  # SciPy sorts twice here
    while calls < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = np.clip(2 * xbar - sim[-1], lo, hi)
            fxr = func(xr)
            if fxr < fsim[0]:
                xe = np.clip(3 * xbar - 2 * sim[-1], lo, hi)
                fxe = func(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lo, hi)
                    fxc = func(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = np.clip(0.5 * xbar + 0.5 * sim[-1], lo, hi)
                    fxc = func(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lo, hi)
                        fsim[j] = func(sim[j])
        except _EvaluationCap:
            pass
        sim, fsim = _sorted_simplex(sim, fsim)
    return sim[0], np.min(fsim), calls < maxfev


def optimize_power(
    spec: CycleSpec,
    free: dict[str, tuple[float, float]],
    seed: int = 7,
    restarts: int = 3,
    max_evals: int = 200,
) -> tuple[dict[str, float], float, float | None]:
    """Maximise extracted power over the named cycle parameters.

    ``free`` maps CycleSpec field names (stroke durations, and optionally
    ``omega_c``/``omega_h``) to search bounds.  The search is the
    in-library bounded Nelder–Mead simplex (`_nelder_mead`, which
    reproduces SciPy's bounded ``minimize(method="Nelder-Mead")`` bit for
    bit) with seeded restarts, each capped at ``max_evals`` evaluations;
    non-engine points score zero power.  A box collapsed to one point runs
    that point alone.  Returns (best parameters, max power, efficiency
    there)."""
    names = list(free)
    lo = np.array([free[k][0] for k in names], dtype=float)
    hi = np.array([free[k][1] for k in names], dtype=float)
    if np.any(hi < lo):
        raise ValueError("empty search box")
    span = hi - lo
    if np.all(span <= 0):
        rep = run_otto(replace(spec, **{k: float(v) for k, v in zip(names, lo)}))
        return dict(zip(names, lo)), rep.power, rep.efficiency

    def objective(x: np.ndarray) -> float:
        params = {k: float(v) for k, v in zip(names, np.clip(x, lo, hi))}
        try:
            rep = run_otto(replace(spec, **params))
        except BohrResolutionError:
            return 0.0
        return rep.power if rep.work > 0 else 0.0

    rng = np.random.default_rng(seed)
    best_x = (lo + hi) / 2.0
    best_p = objective(best_x)
    any_converged = False
    for _ in range(restarts):
        x0 = lo + rng.uniform(0.15, 0.85, size=len(names)) * span
        x, fun, success = _nelder_mead(lambda p: -objective(p), x0, lo, hi,
                                       max_evals, 1e-4, 1e-10)
        any_converged = any_converged or success
        if -fun > best_p:
            best_p = -fun
            best_x = np.clip(x, lo, hi)
    if not any_converged:
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
    gens = _cycle_generators(spec)
    gen_h, gen_c = gens[spec.omega_h], gens[spec.omega_c]
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

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("interaction strength must be >= 0")
        if not (self.omega_h > self.omega_c > 0):
            raise ValueError("need omega_h > omega_c > 0")
        if self.representation not in ("qubits", "oscillators"):
            raise ValueError(f"unknown representation {self.representation!r}")

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


def _tricycle_hamiltonian(spec: TricycleSpec) -> Operator:
    nums, inter, _ = _tricycle_pieces(spec.levels)
    h = spec.omega_h * nums[0] + spec.omega_c * nums[1] + spec.omega_w * nums[2]
    return Operator.hermitian(h + spec.eps * inter)


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


def _tricycle_steady_stack(spec: TricycleSpec, omegas_c) -> list:
    """:func:`tricycle_steady` of ``spec`` at each cold frequency of
    ``omegas_c``, all solved as one stack: one batched ``eigh``
    (``_davies_stack``), one stacked stationary solve and one stacked
    evaluation of the heat observables.  Entry i is the TricycleSteady of
    the i-th frequency, or the ValueError (a BohrResolutionError among
    them) that its build or solve raised; each entry's bits are those of
    solving it alone."""
    specs = [replace(spec, omega_c=float(w)) for w in omegas_c]
    gens = _davies_stack([_tricycle_hamiltonian(sp) for sp in specs], _tricycle_couplings(spec))
    out: list = list(gens)
    built = [i for i, gen in enumerate(gens) if isinstance(gen, GKLSGenerator)]
    for i, state in zip(built, _stationary_stack([gens[i] for i in built])):
        out[i] = state
    solved = [i for i in built if isinstance(out[i], DensityMatrix)]
    if not solved:
        return out
    labels, q = _table_heat_observables([gens[i] for i in solved])
    rho = np.array([out[i].mat for i in solved])
    # basis order |h c w>: |100> is index d^2, |010> is index d
    d = spec.levels
    for i, j, r in zip(solved, _currents(q, rho), rho):
        gen = gens[i]
        currents = {label: float(x) for label, x in zip(labels, j) if label in gen.bath_labels}
        second = 0.0
        for label, x in currents.items():
            t = gen.baths[label].temperature
            if not math.isinf(t):
                second -= x / t
        diag = np.real(np.diag(r))
        out[i] = TricycleSteady(
            currents=currents,
            second_law_value=second,
            first_law_residual=abs(sum(currents.values())),
            gain=float(diag[d * d] - diag[d]),
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
    (steady,) = _tricycle_steady_stack(spec, [spec.omega_c])
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
    J_c; rows report the optimum, the gain, and the conductance
    K = J_c / (omega_c G).  Each grid of candidates is solved as one stack
    (``_tricycle_steady_stack``).  Candidate frequencies that collide with
    the interaction-split Bohr structure (BohrResolutionError) are skipped
    rather than guessed; any other solver error reaches the caller.

    For a power-law cold bath of exponent p (J(w) ~ w**p), the optimum
    omega_c* stays proportional to T_c below the cooling-window edge
    omega_h T_c / T_h, so the absorption rate goes as T_c**p and the
    cooling current as J_c ~ T_c**(p + 1); the third-law acceptance
    criterion checks the fitted exponent against p + 1."""
    rows = []
    label = spec.bath_c.label
    for t_c in t_c_grid:
        t_c = float(t_c)
        if t_c < 1e-3:
            raise ValueError("cold temperature grid is floored at 1e-3")
        lo, hi = ratio_lo * t_c, ratio_hi * t_c
        hi = min(hi, 0.95 * spec.omega_h)
        at_t_c = replace(spec, bath_c=replace(spec.bath_c, temperature=t_c))

        def solve(omegas) -> list[tuple[float, TricycleSteady | None]]:
            # one stack per grid; a Bohr collision skips its candidate
            out = []
            for steady in _tricycle_steady_stack(at_t_c, omegas):
                if isinstance(steady, BohrResolutionError):
                    out.append((-math.inf, None))
                elif isinstance(steady, ValueError):
                    raise steady
                else:
                    out.append((steady.currents[label], steady))
            return out

        # a coarse grid over [lo, hi], then as many points again between
        # the neighbours of its best point; np.linspace sets both ends of
        # the fine grid exactly, so they reuse the coarse solves
        grid = np.linspace(lo, hi, _SWEEP_EVALS // 2)
        coarse = solve(grid)
        k = int(np.argmax([j for j, _ in coarse]))
        ka, kb = max(0, k - 1), min(len(grid) - 1, k + 1)
        fine = np.linspace(grid[ka], grid[kb], _SWEEP_EVALS - _SWEEP_EVALS // 2)
        solves = [coarse[ka], *solve(fine[1:-1]), coarse[kb]]
        kk = int(np.argmax([j for j, _ in solves]))
        best_w, best_j = float(fine[kk]), float(solves[kk][0])
        if not math.isfinite(best_j) or best_j <= 0:
            rows.append(SweepRow(t_c, best_w, max(best_j, 0.0) if math.isfinite(best_j) else 0.0,
                                 0.0, 0.0, no_cooling=True))
            continue
        # in the cooling window the amplifier inversion p2 - p1 is negative;
        # the cold current tracks the cooling inversion, its mirror image
        gain = -solves[kk][1].gain
        cond = best_j / (best_w * gain) if abs(gain) > 1e-300 else math.nan
        rows.append(SweepRow(t_c, best_w, best_j, cond, gain))
    return rows
