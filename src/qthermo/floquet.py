"""Floquet weak-coupling machinery for periodically driven systems.

The propagator of a time-periodic Hamiltonian factors into a periodic
part and the exponential of an averaged Hamiltonian.  Coupling operators
then decompose over the extended frequency ladder
omega_q = omega_av + q Omega, and the resulting interaction-picture
generator is time independent; its stationary state dressed by the
periodic propagator is the limit cycle.  The limit-cycle ledger books
each channel's flow once, splitting every jump's quantum between its
bath and the drive.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .baths import BathSpec, _zero_temperature_flow, spectral_density
from .lindblad import GKLSGenerator, JumpChannel, _by_label, stationary_state
from .operators import (
    PAULI_Z,
    DensityMatrix,
    Operator,
    _bin_frequencies,
    _check_finite,
    _first_nonhermitian,
    _group_indices,
    _level_blocks,
    adjoint_dissipator,
    unitary_exp,
)
from .tolerances import LEVEL_MERGE_REL, LEVEL_RESOLVE_REL

__all__ = [
    "FloquetDecomposition",
    "FloquetChannel",
    "LimitCycleReport",
    "floquet_decompose",
    "harmonic_decompose",
    "build_floquet_generator",
    "limit_cycle_laws",
    "ModulatedGapQubit",
]

_AMP_FLOOR = 1e-12


@dataclass(frozen=True)
class FloquetDecomposition:
    """Propagator of one driving period, split as U(t) = U_p(t) e^{-i H_av t}."""

    tau: float
    h_av: Operator
    times: np.ndarray
    u_grid: np.ndarray   # cumulative propagators U(t_k), shape (N+1, d, d)
    up_grid: np.ndarray  # periodic part U_p(t_k)

    @property
    def big_omega(self) -> float:
        return 2.0 * math.pi / self.tau

    @property
    def dim(self) -> int:
        return self.h_av.dim


def _magnus_steps(h_of_t, times: np.ndarray) -> np.ndarray:
    """Fourth-order Magnus (two-point Gauss-Legendre) propagators of the
    steps between consecutive times, shape (len(times) - 1, d, d).

    The schedule is called once, on the 1-d array of the 2N Gauss nodes
    in time order, and must return their (2N, d, d) stack of samples;
    the stack is checked once for finite, hermitian samples.  Each step's
    exponent Omega is anti-hermitian, so exp(Omega) = exp(-iK) with the
    hermitian K = i Omega; K is formed in Omega's buffer once the sample
    stack is freed, and every step's exponential comes from one batched
    ``eigh`` (:func:`unitary_exp`)."""
    c = math.sqrt(3.0) / 6.0
    t, dt = times[:-1], np.diff(times)
    nodes = np.stack([t + (0.5 - c) * dt, t + (0.5 + c) * dt], axis=1).ravel()
    h = np.asarray(h_of_t(nodes), dtype=complex)
    if h.ndim != 3 or h.shape[0] != len(nodes) or h.shape[1] != h.shape[2]:
        raise ValueError(f"schedule must return one (d, d) sample per time; got shape "
                         f"{h.shape} for {len(nodes)} times")
    _check_finite(h)
    bad = _first_nonhermitian(h)
    if bad is not None:
        raise ValueError(f"schedule sample at t = {nodes[bad[0]]:.12g} is not hermitian: "
                         f"|H - H^dag| = {bad[1]:.3e}")
    m1, m2 = h[0::2], h[1::2]
    omega = (-0.5j * dt)[:, None, None] * (m1 + m2) - (
        (math.sqrt(3.0) / 12.0) * dt * dt
    )[:, None, None] * (m2 @ m1 - m1 @ m2)
    del h, m1, m2
    omega *= 1j
    return unitary_exp(omega)


def floquet_decompose(h_of_t, tau: float, grid_points: int = 400) -> FloquetDecomposition:
    """Split the time-ordered propagator of one period into its periodic
    part and the averaged Hamiltonian.

    ``h_of_t`` maps a time array of any shape to the ``(*shape, d, d)``
    stack of Hamiltonian samples (a 0-d time gives one (d, d) matrix); it
    is called once, on every Gauss node of the grid (:func:`_magnus_steps`).
    The cumulative propagators U(t_{k+1}) = step_k U(t_k) are multiplied
    in time order, each product written in place into the grid.

    The averaged Hamiltonian uses the principal branch of the logarithm
    of the monodromy, folding quasi-energies into (-Omega/2, Omega/2];
    a monodromy eigenvalue at the branch cut (-1) is rejected.
    """
    if tau <= 0:
        raise ValueError("period must be positive")
    if grid_points < 8:
        raise ValueError("need at least 8 grid points per period")
    times = np.linspace(0.0, tau, grid_points + 1)
    steps = _magnus_steps(h_of_t, times)
    d = steps.shape[-1]
    u_grid = np.empty((grid_points + 1, d, d), dtype=complex)
    u_grid[0] = np.eye(d)
    for step, prev, nxt in zip(steps, u_grid[:-1], u_grid[1:]):
        np.matmul(step, prev, out=nxt)
    monodromy = u_grid[-1]
    # unitary monodromy is normal: complex Schur form is diagonal
    tmat, z = scipy.linalg.schur(monodromy, output="complex")
    phases = np.angle(np.diag(tmat))  # in (-pi, pi]
    if np.any(np.abs(np.abs(phases) - math.pi) < 1e-8):
        raise ValueError(
            "monodromy eigenvalue at the log branch cut (-1); shift the driving "
            "phase or the frequency fold before decomposing"
        )
    quasi = -phases / tau  # folded into (-Omega/2, Omega/2]
    h_av = (z * quasi) @ z.conj().T
    h_av = Operator.hermitian((h_av + h_av.conj().T) / 2.0)
    # U_p(t_k) = U(t_k) Z exp(i quasi t_k) Z^dag
    spin = np.exp((1j * quasi)[None, :] * times[:, None])
    up_grid = (u_grid @ (z * spin[:, None, :])) @ z.conj().T
    dec = FloquetDecomposition(tau=tau, h_av=h_av, times=times, u_grid=u_grid, up_grid=up_grid)
    resid = np.max(np.abs(monodromy - unitary_exp(h_av.mat[None] * tau)[0]))
    if resid > 1e-9:
        raise ValueError(f"averaged Hamiltonian does not reproduce the monodromy: {resid:.3e}")
    edge = max(
        float(np.max(np.abs(up_grid[0] - np.eye(d)))),
        float(np.max(np.abs(up_grid[-1] - np.eye(d)))),
    )
    if edge > 1e-9:
        raise ValueError(f"periodic part fails U_p(0) = U_p(tau) = I: {edge:.3e}")
    return dec


@dataclass(frozen=True)
class FloquetChannel:
    """A jump channel on the extended frequency ladder."""

    bath_label: str
    omega: float       # extended frequency omega_av + q Omega
    omega_av: float    # Bohr frequency of the averaged Hamiltonian
    harmonic: int      # q
    op: np.ndarray
    rate: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("negative channel rate")
        object.__setattr__(self, "op", np.asarray(self.op, dtype=complex))


def _coupling_samples(up: np.ndarray, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """V^dag U_p(t_k)^dag S U_p(t_k) V for a (n, d, d) stack of periodic
    parts: the coupling in the interaction picture, written in the
    eigenbasis V of the averaged Hamiltonian.  The products run left to
    right, over the whole stack at once."""
    return (((v.conj().T @ up.conj().swapaxes(-1, -2)) @ s) @ up) @ v


def harmonic_decompose(
    dec: FloquetDecomposition,
    s_op: Operator,
    q_max: int,
    baths: Sequence[BathSpec],
) -> list[FloquetChannel]:
    """Fourier decomposition of U^dag(t) S U(t) over the extended
    frequencies, crossed with the Bohr structure of the averaged
    Hamiltonian, with the channels of each bath coupled through S.

    The decomposition does not depend on the bath, so it is done once:
    one ``eigh``, one stack of coupling samples, one ``ifft`` and one
    binning pass.  Each bath then draws its rates at every extended
    frequency as one array.  The channels come bath by bath, in the order
    of ``baths``, and each channel's operator is built once and shared by
    the baths that keep it.

    Rejects when the weight beyond |q| <= q_max exceeds 1e-6 of the total,
    when two extended frequencies are unresolved, when two channels with
    different omega_av land on one extended frequency (the heat-current
    weight would be ambiguous), or when a bath has a pole at one of the
    harmonics.  Errors and messages are those of decomposing for one bath
    at a time, in order.  Two different baths that share a label raise
    first, since channels and currents are booked by label.
    """
    if not baths:
        return []
    _by_label(baths)
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    if not s_op.is_hermitian():
        raise ValueError("coupling operators must be hermitian")
    d = dec.dim
    n = len(dec.times) - 1  # periodic samples, endpoint dropped
    evals, v = dec.h_av.eigh()
    s_t = _coupling_samples(dec.up_grid[:n], v, s_op.mat)
    # DFT over the period: s_t = sum_q c_q exp(-i q Omega t), so the ifft
    # bin m holds c_q with q = m folded to (-n/2, n/2]
    coeffs = np.fft.ifft(s_t, axis=0)
    q_of_index = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    total_w = float(np.sum(np.abs(coeffs) ** 2))
    kept_w = float(np.sum(np.abs(coeffs[np.abs(q_of_index) <= q_max]) ** 2))
    tail = (total_w - kept_w) / max(total_w, 1e-300)
    if tail > 1e-6:
        raise ValueError(
            f"harmonics beyond |q| = {q_max} carry weight {tail:.3e} > 1e-6; "
            f"raise q_max"
        )

    spread = max(float(evals.max() - evals.min()), dec.big_omega)
    merge_tol = LEVEL_MERGE_REL * spread
    resolve_tol = LEVEL_RESOLVE_REL * spread

    # the kept harmonics in ifft order, as one stack; a level block
    # (g_row, g_col) of harmonic q is a line at omega_av + q Omega
    kept = np.flatnonzero(np.abs(q_of_index) <= q_max)
    c_kept = coeffs[kept]
    level_tol = np.array([LEVEL_MERGE_REL * max(float(evals.max() - evals.min()), 1.0)])
    (label,), centers, _, _, kept_blocks = _level_blocks(evals[None], level_tol,
                                                         np.abs(c_kept)[None], _AMP_FLOOR)
    member, g_row, g_col = np.unravel_index(kept_blocks, c_kept.shape)
    if not member.size:
        return []
    omega_av = centers[g_col] - centers[g_row]
    q_of_line = q_of_index[kept][member]
    ext = omega_av + q_of_line * dec.big_omega

    # bin extended frequencies, all in segment 0; distinct omega_av in one
    # bin is ambiguous
    seg = np.zeros(len(ext), dtype=int)
    order, start, _, centers_ext, pairs = _bin_frequencies(ext, seg, np.array([merge_tol]),
                                                           np.array([resolve_tol]))
    if pairs:
        i, j = pairs[0]
        raise ValueError(
            f"extended frequencies {centers_ext[i]:.12g} and "
            f"{centers_ext[j]:.12g} are unresolved for bath {baths[0].label!r}"
        )
    lines = [(b, center, {round(w, 9) for w in omega_av[b].tolist()}, int(q_of_line[b[0]]))
             for b, center in zip(_group_indices(order, start), centers_ext.tolist())]
    # the first bath meets every line's gap check, and the rates of the
    # lines before it, before a later bath is asked for a rate, as in one
    # call per bath
    mixed = next((k for k, (_, _, avs, _) in enumerate(lines) if len(avs) > 1), len(lines))
    ops: dict[int, np.ndarray] = {}
    channels = []
    for bath in baths:
        rates = _line_rates(centers_ext[:mixed], [q for *_, q in lines], bath)
        if mixed < len(lines):
            _, center, avs, _ = lines[mixed]
            raise ValueError(
                f"extended frequency {center:.12g} mixes averaged-Hamiltonian gaps "
                f"{sorted(avs)}; the heat-current weight is ambiguous"
            )
        for k, ((b, center, _, q_rep), rate) in enumerate(zip(lines, rates)):
            if rate <= 0.0:
                continue
            if k not in ops:
                op = np.zeros((d, d), dtype=complex)
                for m in b:
                    in_block = (label[:, None] == g_row[m]) & (label[None, :] == g_col[m])
                    op += np.where(in_block, c_kept[member[m]], 0.0)
                # rotate back to the computational basis
                ops[k] = v @ op @ v.conj().T
            channels.append(
                FloquetChannel(bath.label, center, float(omega_av[b[0]]), q_rep, ops[k], rate)
            )
    return channels


def _line_rates(centers: np.ndarray, q: list[int], bath: BathSpec) -> list[float]:
    """The bath's rates at the extended frequencies ``centers`` of the
    harmonics ``q``, drawn as one array.  A pole raises a ValueError naming
    the first line whose rate, drawn alone, fails."""
    try:
        return spectral_density(centers, bath).tolist()
    except ValueError:
        for center, q_rep in zip(centers.tolist(), q):
            try:
                spectral_density(center, bath)
            except ValueError as exc:
                raise ValueError(
                    f"bath {bath.label!r} rejects harmonic q = {q_rep} at "
                    f"omega = {center:.12g}: {exc}"
                ) from exc
        raise


def build_floquet_generator(
    channels: list[FloquetChannel],
    h_av: Operator,
    baths: dict[str, BathSpec],
) -> GKLSGenerator:
    """Time-independent interaction-picture generator from the harmonic
    channels.  The coherent part lives in the frame transformation, so the
    Liouvillian is purely dissipative; the averaged Hamiltonian is kept
    for energy bookkeeping."""
    jumps = [
        JumpChannel(ch.bath_label, ch.omega, ch.op, ch.rate) for ch in channels
    ]
    return GKLSGenerator(h_av, jumps, baths=baths, include_hamiltonian=False)


def _floquet_ledger(
    gen: GKLSGenerator,
    channels: list[FloquetChannel],
    rho: DensityMatrix,
) -> tuple[dict[str, float], float]:
    """Per-bath heat currents and the net power delivered to the drive at
    the state rho, from one pass over the channels.

    Each channel's energy flow r_c Re Tr(D_c^dag(H_av) rho) into the
    system equals -omega_av R_c, with R_c its net jump rate; the flows of
    all channels come from one batched adjoint dissipator.  Every jump of
    the channel at omega_q = omega_av + q Omega moves the system by
    omega_av and the bath by omega_q, and the drive supplies the
    difference q Omega.  So the bath is booked (omega_q / omega_av) times
    the flow and, for q != 0, the drive (omega_q - omega_av) / omega_av
    times it.

    Channels with omega_av = 0 but omega_q != 0 are rejected: their
    weights are undefined.  (omega_av = omega_q = 0 channels are pure
    dephasing and carry no energy quantum.)
    """
    d = gen.dim
    ops = np.array([ch.op for ch in channels], dtype=complex).reshape(-1, d, d)
    rates = np.array([ch.rate for ch in channels], dtype=float)
    terms = adjoint_dissipator(ops, gen.h.mat)
    flows = rates * np.real(np.einsum("kij,ji->k", terms, rho.mat))
    currents: dict[str, float] = {label: 0.0 for label in gen.bath_labels}
    power = 0.0
    for ch, flow in zip(channels, flows.tolist()):
        if ch.rate <= 0.0:
            continue
        if abs(ch.omega_av) < 1e-12:
            if abs(ch.omega) < 1e-12:
                continue  # zero-frequency dephasing line, no energy quantum
            raise ValueError(
                f"channel at omega = {ch.omega:.12g} has omega_av = 0; its "
                f"heat-current weight is undefined"
            )
        currents[ch.bath_label] += (ch.omega / ch.omega_av) * flow
        if ch.harmonic != 0:
            # flow = -omega_av R_c, so the drive gives q Omega R_c and
            # receives the negative of it
            power += ((ch.omega - ch.omega_av) / ch.omega_av) * flow
    return currents, power


@dataclass(frozen=True)
class LimitCycleReport:
    currents: dict[str, float]
    power: float                # net power delivered to the drive
    first_law_residual: float   # |power - sum of currents|
    second_law_value: float     # sum_j J_j / T_j, non-positive in a limit cycle
    regime: str                 # engine | dissipator | refrigerator
    stationary: DensityMatrix


def limit_cycle_laws(gen: GKLSGenerator, channels: list[FloquetChannel]) -> LimitCycleReport:
    """Evaluate the limit-cycle laws at the interaction-picture stationary
    state.

    Power and per-bath heat currents come from one channel-resolved pass
    that books each jump's drive quanta apart from its bath quanta
    (:func:`_floquet_ledger`); their mismatch equals the residual
    internal-energy drift of the computed stationary state, so the
    first-law number is a consistency check of the whole stack rather
    than an identity.  The machine is a refrigerator when heat flows in
    from its coldest bath (the lowest temperature, the first registered
    on a tie).
    """
    rho0 = stationary_state(gen)
    currents, power = _floquet_ledger(gen, channels, rho0)
    total = sum(currents.values())
    second = 0.0
    for label, j in currents.items():
        bath = gen.baths[label]
        if bath.temperature == 0.0:
            raise _zero_temperature_flow(bath)
        if not math.isinf(bath.temperature):
            second += j / bath.temperature
    scale = max(max(abs(v) for v in currents.values()), abs(power), 1e-30)
    coldest = min(gen.baths, key=lambda label: gen.baths[label].temperature)
    if currents.get(coldest, 0.0) > 1e-12 * scale:
        regime = "refrigerator"
    elif power > 1e-12 * scale:
        regime = "engine"
    else:
        regime = "dissipator"
    return LimitCycleReport(
        currents=currents,
        power=power,
        first_law_residual=abs(power - total),
        second_law_value=second,
        regime=regime,
        stationary=rho0,
    )


@dataclass(frozen=True)
class ModulatedGapQubit:
    """Qubit with a sinusoidally modulated gap: H(t) = (1/2)(omega0 +
    amplitude sin(Omega t)) sigma_z.  The drive commutes with itself at
    all times, so the harmonic weights are Bessel functions and no
    zero-gap channels appear.

    Called on a time array of any shape, it returns the ``(*shape, 2, 2)``
    stack of samples; a 0-d time gives one 2x2 matrix.  The sine is
    ``math.sin`` per time, so every sample has the bits of a scalar call."""

    omega0: float
    amplitude: float
    big_omega: float

    def __post_init__(self):
        if not self.big_omega > 0:
            raise ValueError("drive frequency big_omega must be positive")

    @property
    def tau(self) -> float:
        return 2.0 * math.pi / self.big_omega

    def __call__(self, t) -> np.ndarray:
        wt = self.big_omega * np.asarray(t, dtype=float)
        sin = np.array([math.sin(x) for x in wt.ravel().tolist()]).reshape(wt.shape)
        w = self.omega0 + self.amplitude * sin
        return (0.5 * w)[..., None, None] * PAULI_Z
