import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qthermo import floquet
from qthermo.baths import BathSpec, spectral_density
from qthermo.floquet import (
    _AMP_FLOOR,
    _coupling_samples,
    _floquet_ledger,
    FloquetChannel,
    ModulatedGapQubit,
    build_floquet_generator,
    floquet_decompose,
    harmonic_decompose,
    limit_cycle_laws,
)
from qthermo.lindblad import build_davies, heat_currents, stationary_state
from qthermo.operators import (
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    Operator,
    cp_check,
    dissipator_superop,
    matexp,
    random_density,
    random_hermitian,
    trace_distance,
    unitary_exp,
    unvec,
    vec,
)
from qthermo.tolerances import ALGEBRAIC, LEVEL_MERGE_REL, LEVEL_RESOLVE_REL

from models import (
    CircularlyDrivenQubit,
    ModulatedLadder,
    loop_group_degenerate,
    per_time,
    random_unitary,
    reconstruction_residual,
)

SX = Operator.hermitian(PAULI_X)


def unit_bath(label="u", gamma=1.0):
    return BathSpec(label=label, temperature=math.inf, form_factor="flat",
                    gamma=gamma, cutoff=100.0)


def two_bath_machine(omega0=1.0, lam=0.6, Omega=0.45, t_c=1.2, t_h=2.0,
                     grid=512, gamma_c=0.1, gamma_h=0.05):
    sched = ModulatedGapQubit(omega0=omega0, amplitude=lam, big_omega=Omega)
    dec = floquet_decompose(sched, sched.tau, grid)
    cold = BathSpec(label="cold", temperature=t_c, form_factor="flat",
                    gamma=gamma_c, cutoff=0.7 * omega0)
    hot = BathSpec(label="hot", temperature=t_h, form_factor="power",
                   exponent=2.0, gamma=gamma_h, cutoff=10.0)
    channels = harmonic_decompose(dec, SX, 8, (hot, cold))
    gen = build_floquet_generator(channels, dec.h_av, {"hot": hot, "cold": cold})
    return sched, dec, channels, gen


class TestDecomposition:
    def test_constant_hamiltonian(self):
        sched = ModulatedGapQubit(omega0=0.8, amplitude=0.0, big_omega=2.0)
        dec = floquet_decompose(sched, sched.tau, 128)
        assert np.max(np.abs(dec.h_av.mat - 0.4 * PAULI_Z)) < 1e-10
        assert np.max(np.abs(dec.up_grid - np.eye(2))) < 1e-9

    def test_circular_driving_closed_form(self):
        # oracle: U(tau) = exp(-i pi sigma_z) exp(-i H_rot tau) with
        # H_rot = (delta sigma_z + eps sigma_x)/2 from the rotating frame
        sched = CircularlyDrivenQubit(omega0=1.0, eps=0.4, big_omega=1.7)
        dec = floquet_decompose(sched, sched.tau, 800)
        delta = sched.omega0 - sched.big_omega
        h_rot = 0.5 * (delta * PAULI_Z + sched.eps * PAULI_X)
        u_exact = scipy.linalg.expm(-1j * math.pi * PAULI_Z) @ scipy.linalg.expm(
            -1j * h_rot * sched.tau
        )
        assert np.max(np.abs(Operator.unitary(dec.u_grid[-1]).mat - u_exact)) < 1e-9
        # quasi-energies: fold the analytic eigenphases of u_exact
        phases = np.angle(np.linalg.eigvals(u_exact))
        expected = np.sort(-phases / sched.tau)
        got = np.sort(np.linalg.eigvalsh(dec.h_av.mat))
        assert np.allclose(got, expected, atol=1e-9)

    def test_grid_self_convergence(self):
        sched = ModulatedGapQubit(omega0=1.0, amplitude=0.6, big_omega=0.45)
        h1 = floquet_decompose(sched, sched.tau, 200).h_av.mat
        h2 = floquet_decompose(sched, sched.tau, 400).h_av.mat
        assert np.max(np.abs(h1 - h2)) <= 1e-8

    def test_monodromy_invariants(self):
        sched = CircularlyDrivenQubit(omega0=1.0, eps=0.3, big_omega=2.3)
        dec = floquet_decompose(sched, sched.tau, 400)
        u_tau = Operator.unitary(dec.u_grid[-1]).mat
        rebuilt = scipy.linalg.expm(-1j * dec.h_av.mat * dec.tau)
        assert np.max(np.abs(u_tau - rebuilt)) < 1e-9

    def test_branch_cut_rejected(self):
        # omega0 = Omega puts the monodromy eigenvalues at -1, on the cut
        sched = ModulatedGapQubit(omega0=1.0, amplitude=0.0, big_omega=1.0)
        with pytest.raises(ValueError, match="branch"):
            floquet_decompose(sched, sched.tau, 128)


@pytest.mark.parametrize("after", [1.0, 1.1])
@pytest.mark.parametrize("bad, message", [
    (np.array([[0.0, 1e-10j], [1e-10j, 0.0]]), "not hermitian"),
    (np.array([[0.0, 1e-8j], [1e-8j, 0.0]]), "not hermitian"),
    (np.array([[np.nan, 0.0], [0.0, 0.0]]), "matrix has NaN or Inf entries"),
])
def test_bad_array_schedule_rejected_at_its_first_sample(bad, message, after):
    # a raw-array schedule, clean up to t = after and bad from then on;
    # the first bad sample is the later Gauss node of a step for
    # after = 1.0 and the earlier one for after = 1.1
    base = np.array([[0.3, 0.0], [0.0, -0.3]], dtype=complex)
    tau, n = 2.0 * math.pi / 0.45, 64
    with pytest.raises(ValueError, match=message) as err:
        floquet_decompose(lambda t: np.where((np.asarray(t) > after)[..., None, None],
                                             base + bad, base), tau, n)
    if message == "not hermitian":
        c = math.sqrt(3.0) / 6.0
        times = np.linspace(0.0, tau, n + 1)
        t, dt = times[:-1], np.diff(times)
        nodes = np.sort(np.concatenate([t + (0.5 - c) * dt, t + (0.5 + c) * dt]))
        assert f"t = {nodes[nodes > after][0]:.12g} " in str(err.value)
        assert "|H - H^dag| = 2.000e" in str(err.value)


def test_floquet_decompose_builds_no_operator_per_sample(monkeypatch):
    # the schedule is checked as one stack; Operator construction must not
    # grow with the grid
    built = []
    post_init = Operator.__post_init__

    def counting(self):
        built.append(self.kind)
        post_init(self)

    monkeypatch.setattr(Operator, "__post_init__", counting)
    sched = ModulatedGapQubit(omega0=1.0, amplitude=0.6, big_omega=0.45)
    counts = []
    for n in (64, 4096):
        built.clear()
        floquet_decompose(sched, sched.tau, n)
        counts.append(len(built))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("schedule", [
    lambda t: np.diag([0.3, -0.3]).astype(complex),  # constant, ignores t
    lambda t: np.zeros(np.shape(t) + (2, 3)),        # not square
    lambda t: np.zeros((np.size(t) - 1, 2, 2)),      # one sample short
])
def test_schedule_without_one_sample_per_time_rejected(schedule):
    with pytest.raises(ValueError, match=r"schedule must return one \(d, d\) sample per "
                                         r"time; got shape \("):
        floquet_decompose(schedule, 2.0 * math.pi / 0.45, 64)


def test_floquet_decompose_calls_the_schedule_once():
    sched = ModulatedGapQubit(omega0=1.0, amplitude=0.6, big_omega=0.45)
    calls = []

    def counting(t):
        calls.append(np.shape(t))
        return sched(t)

    n = 256
    assert _bits(floquet_decompose(counting, sched.tau, n).u_grid) == _bits(
        floquet_decompose(sched, sched.tau, n).u_grid)
    assert calls == [(2 * n,)]


class TestHarmonics:
    def test_undriven_reduces_to_static_lines(self):
        sched = ModulatedGapQubit(omega0=1.0, amplitude=0.0, big_omega=0.45)
        dec = floquet_decompose(sched, sched.tau, 256)
        chans = harmonic_decompose(dec, SX, 8, [unit_bath()])
        freqs = sorted(ch.omega for ch in chans)
        assert np.allclose(freqs, [-1.0, 1.0], atol=1e-9)

    def test_bessel_weights(self):
        sched = ModulatedGapQubit(omega0=1.0, amplitude=0.6, big_omega=0.45)
        dec = floquet_decompose(sched, sched.tau, 512)
        chans = harmonic_decompose(dec, SX, 8, [unit_bath()])
        z = sched.amplitude / sched.big_omega
        checked = 0
        for ch in chans:
            if ch.omega <= 0:
                continue
            # a positive line sits at omega0 - k Omega (lowering family) or
            # at k Omega - omega0 (raising family); pick the integer k
            k_lower = (sched.omega0 - ch.omega) / sched.big_omega
            k_raise = (sched.omega0 + ch.omega) / sched.big_omega
            if abs(k_lower - round(k_lower)) < 1e-6:
                k = round(k_lower)
            else:
                assert abs(k_raise - round(k_raise)) < 1e-6
                k = round(k_raise)
            expected = abs(scipy.special.jv(k, z))
            if expected < 1e-7:
                continue
            assert np.linalg.norm(ch.op) == pytest.approx(expected, rel=1e-6)
            checked += 1
        assert checked >= 5

    def test_circular_three_lines(self):
        # the sigma_+ part of a circularly driven qubit splits into exactly
        # three lines in the rotating frame
        sched = CircularlyDrivenQubit(omega0=1.0, eps=0.4, big_omega=1.7)
        dec = floquet_decompose(sched, sched.tau, 800)
        chans = harmonic_decompose(dec, SX, 6, [unit_bath()])
        omega_r = sched.rotating_gap()
        expected = sorted(
            [sched.big_omega - omega_r, sched.big_omega, sched.big_omega + omega_r]
        )
        positive = sorted(ch.omega for ch in chans if ch.omega > 0)
        assert np.allclose(positive, expected, atol=1e-8)

    def test_reconstruction_residual(self):
        sched = ModulatedGapQubit(omega0=1.0, amplitude=0.6, big_omega=0.45)
        dec = floquet_decompose(sched, sched.tau, 512)
        chans = harmonic_decompose(dec, SX, 12, [unit_bath()])
        assert reconstruction_residual(dec, SX, chans) <= 1e-8

    def test_insufficient_qmax_rejected_with_tail(self):
        sched = ModulatedGapQubit(omega0=1.0, amplitude=1.8, big_omega=0.45)
        dec = floquet_decompose(sched, sched.tau, 512)
        with pytest.raises(ValueError, match="weight"):
            harmonic_decompose(dec, SX, 3, [unit_bath()])


class TestGeneratorAndLaws:
    def test_zero_amplitude_matches_davies(self):
        sched, dec, channels, gen = two_bath_machine(lam=0.0)
        rep = limit_cycle_laws(gen, channels)
        h0 = Operator.hermitian(0.5 * PAULI_Z)
        cold = BathSpec(label="cold", temperature=1.2, form_factor="flat",
                        gamma=0.1, cutoff=0.7)
        hot = BathSpec(label="hot", temperature=2.0, form_factor="power",
                       exponent=2.0, gamma=0.05, cutoff=10.0)
        gd = build_davies(h0, [(SX, hot), (SX, cold)])
        jd = heat_currents(gd, stationary_state(gd))
        for k in jd:
            assert abs(rep.currents[k] - jd[k]) <= 1e-8

    def test_cp_of_propagator(self):
        _, _, channels, gen = two_bath_machine()
        for t in (0.1, 1.0, 10.0):
            ok, mineig = cp_check(matexp(gen.liouvillian(), t))
            assert ok and mineig >= -1e-9

    def test_limit_cycle_laws_at_refrigerator_point(self):
        _, _, channels, gen = two_bath_machine(t_c=1.2, t_h=2.0)
        rep = limit_cycle_laws(gen, channels)
        assert rep.currents["cold"] > 0
        assert rep.regime == "refrigerator"
        assert rep.second_law_value <= 1e-9
        assert rep.first_law_residual <= 1e-8
        assert rep.power < 0  # refrigeration consumes drive power

    def test_regime_flip_keeps_second_law(self):
        _, _, ch1, gen1 = two_bath_machine(t_c=1.2)
        _, _, ch2, gen2 = two_bath_machine(t_c=0.9)
        r1 = limit_cycle_laws(gen1, ch1)
        r2 = limit_cycle_laws(gen2, ch2)
        assert r1.currents["cold"] > 0 > r2.currents["cold"]
        assert r1.second_law_value <= 1e-9
        assert r2.second_law_value <= 1e-9

    def test_limit_cycle_reconstruction(self, rng):
        sched, dec, channels, gen = two_bath_machine(gamma_c=0.4, gamma_h=0.3)
        rho0 = stationary_state(gen)
        lmat = gen.liouvillian().mat
        rho = random_density(2, rng)
        prop = scipy.linalg.expm(lmat * 50 * dec.tau)
        out = unvec(prop @ vec(rho.mat), 2)
        h_av = dec.h_av.mat
        u = scipy.linalg.expm(-1j * h_av * 50 * dec.tau)
        final = DensityMatrix(u @ ((out + out.conj().T) / 2) @ u.conj().T)
        # at period boundaries the periodic part is the identity, so the
        # limit cycle state is the dressed stationary state itself
        assert trace_distance(final, rho0) <= 1e-6

    def test_undriven_single_bath_zero_current(self):
        sched = ModulatedGapQubit(omega0=1.0, amplitude=0.0, big_omega=0.45)
        dec = floquet_decompose(sched, sched.tau, 256)
        bath = BathSpec(label="b", temperature=1.0, form_factor="ohmic",
                        gamma=0.2, cutoff=10.0)
        chans = harmonic_decompose(dec, SX, 8, [bath])
        gen = build_floquet_generator(chans, dec.h_av, {"b": bath})
        rep = limit_cycle_laws(gen, chans)
        assert abs(rep.currents["b"]) < 1e-12
        assert abs(rep.power) < 1e-12

    def test_driven_ladder_second_law(self):
        sched = ModulatedLadder(omega1=1.0, omega2=1.55, amplitude=0.3,
                                big_omega=0.6)
        dec = floquet_decompose(sched, sched.tau, 512)
        lower = Operator.hermitian(np.array(
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex))
        upper = Operator.hermitian(np.array(
            [[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex))
        cold = BathSpec(label="cold", temperature=0.8, form_factor="ohmic",
                        gamma=0.2, cutoff=10.0)
        hot = BathSpec(label="hot", temperature=2.5, form_factor="ohmic",
                       gamma=0.2, cutoff=10.0)
        channels = harmonic_decompose(dec, lower, 6, [cold])
        channels += harmonic_decompose(dec, upper, 6, [hot])
        gen = build_floquet_generator(channels, dec.h_av,
                                      {"cold": cold, "hot": hot})
        rep = limit_cycle_laws(gen, channels)
        assert rep.second_law_value <= 1e-9
        assert rep.first_law_residual <= 1e-8

    def test_omega_av_zero_heat_current_rejected(self):
        # circular driving with a transverse coupling has dressed-diagonal
        # weight oscillating at the drive frequency: channels at
        # omega_q = q Omega with omega_av = 0, whose heat-current weight
        # is undefined
        sched = CircularlyDrivenQubit(omega0=1.0, eps=0.4, big_omega=1.7)
        dec = floquet_decompose(sched, sched.tau, 512)
        bath = unit_bath("b")
        chans = harmonic_decompose(dec, SX, 6, [bath])
        assert any(abs(c.omega_av) < 1e-12 and abs(c.omega) > 1e-12 for c in chans)
        gen = build_floquet_generator(chans, dec.h_av, {"b": bath})
        with pytest.raises(ValueError, match="omega_av = 0"):
            limit_cycle_laws(gen, chans)

    def test_limit_cycle_laws_computes_the_channel_flows_once(self, monkeypatch):
        # the heat currents and the drive power are booked from one batched
        # pass of per-channel flows
        calls = []
        original = floquet.adjoint_dissipator

        def counting(ops, h):
            calls.append(len(ops))
            return original(ops, h)

        monkeypatch.setattr(floquet, "adjoint_dissipator", counting)
        _, _, channels, gen = two_bath_machine()
        limit_cycle_laws(gen, channels)
        assert calls == [len(channels)]


@functools.cache
def ladder_machine():
    # the driven ladder seen in a fixed complex basis, so that no operator
    # of the ledger is real or diagonal
    w = random_unitary(3, np.random.default_rng(7)).mat
    sched = ModulatedLadder(omega1=1.0, omega2=1.55, amplitude=0.3, big_omega=0.6)
    dec = floquet_decompose(lambda t: w @ sched(t) @ w.conj().T, sched.tau, 256)
    lower = Operator.hermitian(w @ np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) @ w.conj().T)
    upper = Operator.hermitian(w @ np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]) @ w.conj().T)
    cold = BathSpec(label="cold", temperature=0.8, form_factor="ohmic", gamma=0.2, cutoff=10.0)
    hot = BathSpec(label="hot", temperature=2.5, form_factor="ohmic", gamma=0.2, cutoff=10.0)
    channels = harmonic_decompose(dec, lower, 6, [cold]) + harmonic_decompose(dec, upper, 6, [hot])
    return dec, channels, {"cold": cold, "hot": hot}


@functools.cache
def qubit_machine():
    _, dec, channels, gen = two_bath_machine(grid=256)
    return dec, channels, gen.baths


class TestLedgersAgainstDenseChannelSuperoperators:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from([ladder_machine, qubit_machine]),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_flows_and_power_equal_per_channel_references(self, machine, seed):
        dec, channels, baths = machine()
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.0, 2.0, size=len(channels))
        scale[rng.random(len(channels)) < 0.3] = 0.0
        chans = [dataclasses.replace(ch, rate=ch.rate * f) for ch, f in zip(channels, scale)]
        gen = build_floquet_generator(chans, dec.h_av, baths)
        rho = random_density(dec.dim, rng)
        currents = {label: 0.0 for label in gen.bath_labels}
        power = 0.0
        for ch in chans:
            if ch.rate <= 0.0:
                continue
            dl = ch.rate * dissipator_superop(ch.op).mat
            flow = float(np.real(np.trace(dec.h_av.mat @ unvec(dl @ vec(rho.mat), dec.dim))))
            currents[ch.bath_label] += (ch.omega / ch.omega_av) * flow
            if ch.harmonic != 0:
                power += ((ch.omega - ch.omega_av) / ch.omega_av) * flow
        got, got_power = _floquet_ledger(gen, chans, rho)
        assert got.keys() == currents.keys()
        for label, j in currents.items():
            assert got[label] == pytest.approx(j, abs=ALGEBRAIC)
        assert got_power == pytest.approx(power, abs=ALGEBRAIC)


@dataclasses.dataclass(frozen=True)
class _RandomDrive:
    """H(t) = H0 + cos(Omega t) H1 + sin(2 Omega t) H2, returned as a plain
    array stack: a generic non-commuting schedule."""

    h0: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    big_omega: float

    @property
    def tau(self) -> float:
        return 2.0 * math.pi / self.big_omega

    def __call__(self, t):
        w = self.big_omega * np.asarray(t, dtype=float)
        cos = per_time(math.cos, w)[..., None, None]
        sin = per_time(math.sin, 2.0 * w)[..., None, None]
        return self.h0 + cos * self.h1 + sin * self.h2


def _loop_floquet(h_of_t, tau, n):
    """Per-step reference of floquet_decompose: one Magnus exponential
    exp(Omega) = exp(-iK), K = i Omega, from the package kernel on a
    one-member stack, and one product per step; one periodic-part product
    per sample.  The schedule is called at one (0-d) time per sample."""
    c = math.sqrt(3.0) / 6.0
    times = np.linspace(0.0, tau, n + 1)
    d = h_of_t(0.0).shape[0]
    u = np.empty((n + 1, d, d), dtype=complex)
    u[0] = np.eye(d)
    for k in range(n):
        t, dt = times[k], times[k + 1] - times[k]
        m1 = np.asarray(h_of_t(t + (0.5 - c) * dt), dtype=complex)
        m2 = np.asarray(h_of_t(t + (0.5 + c) * dt), dtype=complex)
        omega = -0.5j * dt * (m1 + m2) - (math.sqrt(3.0) / 12.0) * dt * dt * (
            m2 @ m1 - m1 @ m2
        )
        u[k + 1] = unitary_exp((omega * 1j)[None])[0] @ u[k]
    tmat, z = scipy.linalg.schur(u[-1], output="complex")
    phases = np.angle(np.diag(tmat))
    quasi = -phases / tau
    h_av = (z * quasi) @ z.conj().T
    h_av = (h_av + h_av.conj().T) / 2.0
    up = np.empty_like(u)
    for k, t in enumerate(times):
        up[k] = u[k] @ (z * np.exp(1j * quasi * t)) @ z.conj().T
    return u, up, h_av, phases


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestStackedFloquetAgainstStepLoop:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(["gap", "circular", "ladder", "random"]),
           st.integers(min_value=8, max_value=300),
           st.floats(min_value=0.0, max_value=0.8), st.floats(min_value=0.3, max_value=2.0),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_grids_bitwise_equal_to_step_loop(self, kind, n, amp, big_omega, seed):
        rng = np.random.default_rng(seed)
        if kind == "gap":
            sched = ModulatedGapQubit(omega0=1.0, amplitude=amp, big_omega=big_omega)
        elif kind == "circular":
            sched = CircularlyDrivenQubit(omega0=1.0, eps=amp, big_omega=big_omega)
        elif kind == "ladder":
            # equal rungs put two level pairs on every gap
            sched = ModulatedLadder(1.0, float(rng.choice([1.0, 1.3])), amplitude=amp,
                                    big_omega=big_omega)
        else:
            d = int(rng.integers(2, 5))
            sched = _RandomDrive(*(random_hermitian(d, rng, scale).mat
                                   for scale in (1.0, amp, 0.5 * amp)), big_omega)
        u, up, h_av, phases = _loop_floquet(sched, sched.tau, n)
        # the branch-cut and reproduction checks are not under test here
        assume(np.all(np.abs(np.abs(phases) - math.pi) > 1e-6))
        dec = floquet_decompose(sched, sched.tau, n)
        assert _bits(dec.u_grid) == _bits(u)
        assert _bits(dec.up_grid) == _bits(up)
        assert _bits(dec.h_av.mat) == _bits(h_av)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=200),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_coupling_samples_bitwise_equal_to_point_loop(self, d, n, seed):
        rng = np.random.default_rng(seed)
        up = np.array([random_unitary(d, rng).mat for _ in range(n)])
        v = random_unitary(d, rng).mat
        s = random_hermitian(d, rng).mat
        loop = np.array([v.conj().T @ u.conj().T @ s @ u @ v for u in up])
        assert _bits(_coupling_samples(up, v, s)) == _bits(loop)


class TestArraySchedules:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(["gap", "circular", "ladder", "random"]),
           st.lists(st.integers(min_value=1, max_value=5), max_size=3),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_array_call_bitwise_equal_to_its_per_time_calls(self, kind, shape, seed):
        rng = np.random.default_rng(seed)
        amp, big_omega = rng.uniform(0.0, 0.8), rng.uniform(0.3, 2.0)
        if kind == "gap":
            sched = ModulatedGapQubit(omega0=rng.uniform(0.5, 1.5), amplitude=amp,
                                      big_omega=big_omega)
        elif kind == "circular":
            sched = CircularlyDrivenQubit(omega0=rng.uniform(0.5, 1.5), eps=amp,
                                          big_omega=big_omega)
        elif kind == "ladder":
            sched = ModulatedLadder(1.0, rng.uniform(0.5, 1.5), amplitude=amp,
                                    big_omega=big_omega)
        else:
            d = int(rng.integers(2, 5))
            sched = _RandomDrive(*(random_hermitian(d, rng, scale).mat
                                   for scale in (1.0, amp, 0.5 * amp)), big_omega)
        times = rng.uniform(-20.0, 20.0, size=shape)
        got = sched(times)
        samples = [sched(t) for t in times.ravel().tolist()]
        d = samples[0].shape[-1]
        assert got.shape == tuple(shape) + (d, d)
        assert _bits(got) == _bits(np.array(samples).reshape(got.shape))
        # a 0-d time gives one matrix, whether a float, a numpy scalar or
        # a 0-d array
        t0 = float(times.flat[0])
        for t in (np.float64(t0), np.array(t0)):
            assert sched(t).shape == (d, d)
            assert _bits(sched(t)) == _bits(samples[0])


def _loop_harmonic_decompose(dec, s_op, q_max, bath):
    """Block-by-block reference of harmonic_decompose: each harmonic and
    each level block in its own loop, each block filled entry by entry."""
    d = dec.dim
    n = len(dec.times) - 1
    evals, v = np.linalg.eigh(dec.h_av.mat)
    s_t = _coupling_samples(dec.up_grid[:n], v, s_op.mat)
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
    groups = loop_group_degenerate(evals)
    centers = [float(np.mean(evals[g])) for g in groups]
    spread = max(float(evals.max() - evals.min()), dec.big_omega)
    merge_tol = LEVEL_MERGE_REL * spread
    resolve_tol = LEVEL_RESOLVE_REL * spread
    raw = []
    for idx in range(n):
        q = int(q_of_index[idx])
        if abs(q) > q_max:
            continue
        c_q = coeffs[idx]
        if np.max(np.abs(c_q)) <= _AMP_FLOOR:
            continue
        for gi, g_row in enumerate(groups):
            for gj, g_col in enumerate(groups):
                block = np.zeros((d, d), dtype=complex)
                for r in g_row:
                    for cc in g_col:
                        block[r, cc] = c_q[r, cc]
                if np.max(np.abs(block)) <= _AMP_FLOOR:
                    continue
                omega_av = centers[gj] - centers[gi]
                raw.append((omega_av + q * dec.big_omega, omega_av, q, block))
    if not raw:
        return []
    ext = np.array([r[0] for r in raw])
    bins = loop_group_degenerate(ext, tol=merge_tol)
    centers_ext = [float(np.mean(ext[b])) for b in bins]
    for i in range(len(centers_ext)):
        for j in range(i + 1, len(centers_ext)):
            sep = abs(centers_ext[i] - centers_ext[j])
            if merge_tol < sep < resolve_tol:
                raise ValueError(
                    f"extended frequencies {centers_ext[i]:.12g} and "
                    f"{centers_ext[j]:.12g} are unresolved for bath {bath.label!r}"
                )
    channels = []
    for b, center in zip(bins, centers_ext):
        avs = {round(raw[k][1], 9) for k in b}
        if len(avs) > 1:
            raise ValueError(
                f"extended frequency {center:.12g} mixes averaged-Hamiltonian gaps "
                f"{sorted(avs)}; the heat-current weight is ambiguous"
            )
        op = np.zeros((d, d), dtype=complex)
        for k in b:
            op += raw[k][3]
        rate = spectral_density(center, bath)
        if rate <= 0.0:
            continue
        op = v @ op @ v.conj().T
        channels.append(FloquetChannel(bath.label, center, raw[b[0]][1], raw[b[0]][2], op, rate))
    return channels


def _outcome(fn, *args):
    """Channels as exact tuples and op bytes, or the error type and text."""
    try:
        chans = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(c.bath_label, c.omega, c.omega_av, c.harmonic, c.rate, _bits(c.op))
            for c in chans]


def _resonant_qubit(big_omega, amp, offset=0.0):
    """Gap qubit whose averaged gap is Omega / 2 (1 + offset): the lines
    omega_av and -omega_av + Omega coincide at offset 0 and sit
    offset Omega apart otherwise."""
    return ModulatedGapQubit(omega0=0.5 * big_omega * (1.0 + offset), amplitude=amp,
                             big_omega=big_omega)


class TestHarmonicsAgainstBlockLoop:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(["gap", "resonant", "circular", "ladder", "pair", "random"]),
           st.integers(min_value=16, max_value=128), st.integers(min_value=3, max_value=16),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_channels_and_errors_bitwise_equal(self, kind, n, q_max, seed):
        rng = np.random.default_rng(seed)
        amp, big_omega = rng.uniform(0.0, 0.8), rng.uniform(0.3, 2.0)
        s_op = SX
        if kind == "gap":
            sched = ModulatedGapQubit(omega0=1.0, amplitude=amp, big_omega=big_omega)
        elif kind == "resonant":
            # coinciding lines, and lines just outside and well inside the
            # unresolved band (1e-9, 1e-6) Omega
            sched = _resonant_qubit(big_omega, amp, float(rng.choice([0.0, 5e-9, 2e-7])))
        elif kind == "circular":
            sched = CircularlyDrivenQubit(omega0=1.0, eps=amp, big_omega=big_omega)
        elif kind == "ladder":
            # equal rungs put two level pairs on every gap
            sched = ModulatedLadder(1.0, float(rng.choice([1.0, 1.3])), amplitude=amp,
                                    big_omega=big_omega)
            s_op = Operator.hermitian(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
        elif kind == "pair":
            # two equal qubits: a degenerate middle level, and two level
            # pairs on every line
            z = np.kron(PAULI_Z, np.eye(2)) + np.kron(np.eye(2), PAULI_Z)
            sched = _RandomDrive(0.5 * rng.uniform(0.5, 1.5) * z, 0.5 * amp * z,
                                 np.zeros((4, 4)), big_omega)
            s_op = Operator.hermitian(np.kron(PAULI_X, np.eye(2)) + np.kron(np.eye(2), PAULI_X))
        else:
            d = int(rng.integers(2, 5))
            sched = _RandomDrive(*(random_hermitian(d, rng, scale).mat
                                   for scale in (1.0, amp, 0.5 * amp)), big_omega)
            s_op = random_hermitian(d, rng)
        try:
            dec = floquet_decompose(sched, sched.tau, n)
        except ValueError:
            assume(False)  # the branch cut is not under test here
        bath = unit_bath()
        got = _outcome(harmonic_decompose, dec, s_op, q_max, [bath])
        assert got == _outcome(_loop_harmonic_decompose, dec, s_op, q_max, bath)

    def test_mixed_averaged_gaps_rejected_as_by_loop(self):
        sched = _resonant_qubit(1.0, 0.3)
        dec = floquet_decompose(sched, sched.tau, 64)
        got = _outcome(harmonic_decompose, dec, SX, 6, [unit_bath()])
        assert got[0] is ValueError and "mixes averaged-Hamiltonian gaps" in got[1]
        assert got == _outcome(_loop_harmonic_decompose, dec, SX, 6, unit_bath())

    def test_unresolved_extended_frequencies_rejected(self):
        # the lines Omega / 2 (1 +- 2e-7) are 2e-7 Omega apart, inside the
        # band (1e-9, 1e-6) Omega
        sched = _resonant_qubit(1.0, 0.3, 2e-7)
        dec = floquet_decompose(sched, sched.tau, 64)
        with pytest.raises(ValueError, match="are unresolved for bath 'u'"):
            harmonic_decompose(dec, SX, 6, [unit_bath()])
        got = _outcome(harmonic_decompose, dec, SX, 6, [unit_bath()])
        assert got == _outcome(_loop_harmonic_decompose, dec, SX, 6, unit_bath())


def _one_bath_at_a_time(dec, s_op, q_max, baths):
    """The channels of several baths from one harmonic_decompose per bath,
    concatenated in bath order."""
    return [ch for bath in baths for ch in harmonic_decompose(dec, s_op, q_max, [bath])]


def _pole_bath(label="p"):
    # a flat bosonic bath at finite temperature rejects omega = 0
    return BathSpec(label=label, temperature=1.0, form_factor="flat", gamma=0.1,
                    cutoff=10.0)


class TestHarmonicsForManyBaths:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(["gap", "resonant", "circular", "ladder", "random"]),
           st.integers(min_value=16, max_value=128), st.integers(min_value=3, max_value=12),
           st.lists(st.sampled_from(["unit", "ohmic", "power", "pole"]), min_size=1,
                    max_size=3),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_bitwise_equal_to_one_bath_at_a_time(self, kind, n, q_max, kinds, seed):
        rng = np.random.default_rng(seed)
        amp, big_omega = rng.uniform(0.0, 0.8), rng.uniform(0.3, 2.0)
        # a diagonal part puts lines at omega = 0, the pole bath's pole
        s_op = Operator.hermitian(PAULI_X + rng.choice([0.0, 0.3]) * PAULI_Z)
        if kind == "gap":
            sched = ModulatedGapQubit(omega0=1.0, amplitude=amp, big_omega=big_omega)
        elif kind == "resonant":
            sched = _resonant_qubit(big_omega, amp, float(rng.choice([0.0, 5e-9, 2e-7])))
        elif kind == "circular":
            sched = CircularlyDrivenQubit(omega0=1.0, eps=amp, big_omega=big_omega)
        elif kind == "ladder":
            sched = ModulatedLadder(1.0, float(rng.choice([1.0, 1.3])), amplitude=amp,
                                    big_omega=big_omega)
            s_op = Operator.hermitian(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
        else:
            d = int(rng.integers(2, 5))
            sched = _RandomDrive(*(random_hermitian(d, rng, scale).mat
                                   for scale in (1.0, amp, 0.5 * amp)), big_omega)
            s_op = random_hermitian(d, rng)
        try:
            dec = floquet_decompose(sched, sched.tau, n)
        except ValueError:
            assume(False)  # the branch cut is not under test here
        make = {
            "unit": unit_bath,
            "ohmic": lambda label: BathSpec(label=label, temperature=0.7, form_factor="ohmic",
                                            gamma=0.2, cutoff=10.0),
            "power": lambda label: BathSpec(label=label, temperature=1.5, form_factor="power",
                                            exponent=2.0, gamma=0.05, cutoff=5.0),
            "pole": _pole_bath,
        }
        baths = [make[k](f"b{i}") for i, k in enumerate(kinds)]
        got = _outcome(harmonic_decompose, dec, s_op, q_max, baths)
        assert got == _outcome(_one_bath_at_a_time, dec, s_op, q_max, baths)

    def test_coupling_decomposed_once_for_all_baths(self, monkeypatch):
        sched = ModulatedGapQubit(omega0=1.0, amplitude=0.6, big_omega=0.45)
        dec = floquet_decompose(sched, sched.tau, 256)
        baths = [unit_bath("a"), unit_bath("b", gamma=0.5),
                 BathSpec(label="c", temperature=1.2, form_factor="flat", gamma=0.1,
                          cutoff=0.7)]
        calls = []
        original = floquet._coupling_samples

        def counting(up, v, s):
            calls.append(len(up))
            return original(up, v, s)

        monkeypatch.setattr(floquet, "_coupling_samples", counting)
        got = _outcome(harmonic_decompose, dec, SX, 8, baths)
        assert calls == [256]
        assert [c[0] for c in got] == sorted(c[0] for c in got)  # bath order
        assert {c[0] for c in got} == {"a", "b", "c"}
        assert got == _outcome(_one_bath_at_a_time, dec, SX, 8, baths)

    def test_two_baths_sharing_a_label_rejected_before_any_decomposition(self, monkeypatch):
        # the floquet_fridge baths, both labelled "b": merged, all 40
        # channels would be booked at the first bath's temperature
        sched = ModulatedGapQubit(omega0=1.0, amplitude=0.6, big_omega=0.45)
        dec = floquet_decompose(sched, sched.tau, 512)
        hot = BathSpec(label="b", temperature=2.0, form_factor="power", exponent=2.0,
                       gamma=0.05, cutoff=10.0)
        cold = BathSpec(label="b", temperature=1.2, form_factor="flat", gamma=0.1, cutoff=0.7)
        calls = []
        monkeypatch.setattr(floquet, "_coupling_samples", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="^two different baths share the label 'b'$"):
            harmonic_decompose(dec, SX, 8, [hot, cold])
        assert calls == []

    def test_second_bath_pole_rejected_as_by_one_bath_at_a_time(self):
        sched = ModulatedGapQubit(omega0=1.0, amplitude=0.6, big_omega=0.45)
        dec = floquet_decompose(sched, sched.tau, 256)
        s_op = Operator.hermitian(PAULI_X + 0.3 * PAULI_Z)
        baths = [unit_bath(), _pole_bath()]
        assert harmonic_decompose(dec, s_op, 8, baths[:1])  # the first bath passes
        got = _outcome(harmonic_decompose, dec, s_op, 8, baths)
        assert got[0] is ValueError
        assert got[1].startswith("bath 'p' rejects harmonic q = 0 at omega = 0: ")
        assert got == _outcome(_one_bath_at_a_time, dec, s_op, 8, baths)

    def test_no_baths_no_channels(self):
        sched = ModulatedGapQubit(omega0=1.0, amplitude=0.6, big_omega=0.45)
        dec = floquet_decompose(sched, sched.tau, 64)
        assert harmonic_decompose(dec, SX, 8, []) == []
