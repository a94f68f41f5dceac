import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo import lindblad
from qthermo.baths import BathSpec, spectral_density
from qthermo.floquet import (
    ModulatedGapQubit,
    ModulatedLadder,
    build_floquet_generator,
    floquet_decompose,
    harmonic_decompose,
)
from qthermo.lindblad import (
    BohrResolutionError,
    GKLSGenerator,
    JumpChannel,
    _bordered_fixed_point,
    _coupling_tables,
    _davies_stack,
    _stationary_stack,
    _table_channels,
    _table_heat_observables,
    adiabatic_propagate,
    build_davies,
    davies_audit,
    entropy_production_rate,
    heat_currents,
    propagate,
    stationary_state,
    trajectory,
)
from qthermo.operators import (
    PAULI_X,
    PAULI_Z,
    SIGMA_MINUS,
    DensityMatrix,
    Operator,
    cp_check,
    dissipator_superop,
    group_degenerate,
    matexp,
    random_density,
    random_hermitian,
    random_unitary,
    trace_distance,
    unvec,
    vec,
)
from qthermo.states import gibbs_state, relative_entropy
from qthermo.tolerances import ALGEBRAIC, LEVEL_MERGE_REL, LEVEL_RESOLVE_REL


def qubit_h(omega=1.0):
    return Operator.hermitian(0.5 * omega * PAULI_Z)


def ohmic_bath(label, t, gamma=0.2, cutoff=10.0):
    return BathSpec(label=label, temperature=t, form_factor="ohmic",
                    gamma=gamma, cutoff=cutoff)


def oscillator(d, omega=1.0):
    h = Operator.hermitian(omega * np.diag(np.arange(d, dtype=float)))
    a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1)
    return h, Operator.hermitian(a + a.conj().T)


class TestBuildDavies:
    def test_qubit_channels_and_stationarity(self):
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        freqs = sorted(ch.bohr_frequency for ch in gen.channels)
        assert np.allclose(freqs, [-1.0, 1.0], atol=1e-12)
        rates = {round(ch.bohr_frequency, 6): ch.rate for ch in gen.channels}
        assert rates[-1.0] / rates[1.0] == pytest.approx(math.exp(-1.0), abs=1e-12)
        rho_b = gibbs_state(qubit_h(), 1.0)
        resid = np.max(np.abs(gen.liouvillian().apply_matrix(rho_b.mat)))
        assert resid <= 1e-9
        assert stationary_state(gen).mat == pytest.approx(rho_b.mat, abs=1e-10)

    def test_zero_coupling_pure_hamiltonian(self, rng):
        bath = ohmic_bath("b", 1.0)
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), replace(bath, coupling=0.0))])
        assert gen.channels == ()
        rho = random_density(2, rng)
        out = propagate(gen, rho, 0.7)
        import scipy.linalg

        u = scipy.linalg.expm(-1j * qubit_h().mat * 0.7)
        assert np.max(np.abs(out.mat - u @ rho.mat @ u.conj().T)) < 1e-10

    def test_flat_infinite_temperature_oscillator(self):
        h, x = oscillator(10)
        bath = BathSpec(label="w", temperature=math.inf, form_factor="flat",
                        gamma=0.3, cutoff=50.0)
        gen = build_davies(h, [(x, bath)])
        ss = stationary_state(gen)
        assert np.max(np.abs(ss.mat - np.eye(10) / 10)) < 1e-10

    def test_truncated_oscillator_thermalises_to_gibbs(self):
        h, x = oscillator(10)
        gen = build_davies(h, [(x, ohmic_bath("b", 0.8))])
        ss = stationary_state(gen)
        assert trace_distance(ss, gibbs_state(h, 1 / 0.8)) < 1e-10

    def test_nonhermitian_coupling_rejected(self):
        with pytest.raises(ValueError, match="hermitian"):
            build_davies(qubit_h(), [(Operator.general(SIGMA_MINUS), ohmic_bath("b", 1.0))])

    def test_unresolved_bohr_gaps_rejected(self):
        # two gaps differing by a part in 1e7 of the spread sit inside the
        # unresolved band
        h = Operator.hermitian(np.diag([0.0, 1.0, 2.0 + 1.0e-7]))
        s = Operator.hermitian(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex))
        with pytest.raises(BohrResolutionError):
            build_davies(h, [(s, ohmic_bath("b", 1.0))])

    def test_unresolved_bohr_gaps_message(self):
        # the first unresolved pair in value order is (-1 - 1e-7, -1); the
        # band is (1e-9, 1e-6) times the spread 2 + 1e-7
        h = Operator.hermitian(np.diag([0.0, 1.0, 2.0 + 1.0e-7]))
        s = Operator.hermitian(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex))
        text = (
            "Bohr gaps -1.0000001 and -1 of coupling to bath 'b' differ by "
            "1.000e-07, inside the unresolved band (2.0e-09, 2.0e-06)"
        )
        with pytest.raises(BohrResolutionError, match=f"^{re.escape(text)}$"):
            build_davies(h, [(s, ohmic_bath("b", 1.0))])

    def test_degenerate_gaps_merged(self):
        # equally spaced ladder: one channel per signed gap value per order
        h = Operator.hermitian(np.diag([0.0, 1.0, 2.0]))
        s = Operator.hermitian(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex))
        gen = build_davies(h, [(s, ohmic_bath("b", 1.0))])
        freqs = sorted(ch.bohr_frequency for ch in gen.channels)
        assert np.allclose(freqs, [-1.0, 1.0], atol=1e-12)

    def test_uniqueness_flag(self):
        # the stationary solve raises exactly when the Liouvillian's null
        # space (the dense oracle) holds more than one state
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        assert _stationary_dimension(gen) == 1
        stationary_state(gen)
        # pure dephasing: sigma_z coupling leaves both populations stationary
        gen2 = build_davies(qubit_h(), [(Operator.hermitian(PAULI_Z), ohmic_bath("b", 1.0))])
        assert _stationary_dimension(gen2) == 2
        with pytest.raises(ValueError, match="not unique"):
            stationary_state(gen2)

    def test_davies_structural_audit(self):
        gen = build_davies(qubit_h(1.3), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 0.7))])
        audit = davies_audit(gen)
        assert audit["cp_min_eig"] >= -1e-9
        assert audit["trace_drift"] <= 1e-9
        assert audit["hamiltonian_commute"] <= 1e-9
        assert audit["pop_coherence_mix"] <= 1e-10
        assert audit["gibbs_residual"] <= 1e-9
        assert audit["detailed_balance"] <= 1e-10

    def test_audit_takes_the_worst_propagator_over_times(self):
        # the propagators at every time are checked as one stack; the audit
        # reports the lowest Choi eigenvalue and the largest drift of the
        # single-map checks, bit for bit
        h, x = oscillator(4)
        gen = build_davies(h, [(x, ohmic_bath("b", 0.9))])
        times = (0.01, 3.0, 0.4, 12.0)
        props = [matexp(gen.liouvillian(), t) for t in times]
        audit = davies_audit(gen, times)
        assert audit["cp_min_eig"] == min(cp_check(p)[1] for p in props)
        assert audit["trace_drift"] == max(p.trace_preservation_residual() for p in props)
        assert len({cp_check(p)[1] for p in props}) == len(times)
        empty = davies_audit(gen, ())
        assert (empty["cp_min_eig"], empty["trace_drift"]) == (math.inf, 0.0)


class TestLiouvillianSpectrum:
    def test_classical_decay_rate(self, rng):
        # H = 0, single jump sigma_minus at unit rate: excited population
        # decays as exp(-t)
        gen = GKLSGenerator(
            Operator.hermitian(np.zeros((2, 2))),
            [JumpChannel("b", 1.0, SIGMA_MINUS, 1.0)],
        )
        rho0 = DensityMatrix(np.diag([0.3, 0.7]))
        for t in (0.5, 1.0, 2.0):
            out = propagate(gen, rho0, t)
            assert out.mat[1, 1].real == pytest.approx(0.7 * math.exp(-t), abs=1e-10)

    def test_empty_channels_imaginary_spectrum(self):
        gen = GKLSGenerator(qubit_h(), [])
        evals = np.linalg.eigvals(gen.liouvillian().mat)
        assert np.max(np.abs(evals.real)) < 1e-12

    def test_davies_qubit_spectrum(self):
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        evals = np.linalg.eigvals(gen.liouvillian().mat)
        assert np.sum(np.abs(evals) < 1e-10) == 1
        assert np.max(evals.real) < 1e-10

    def test_no_channels_stationary_rejected(self):
        gen = GKLSGenerator(qubit_h(), [])
        with pytest.raises(ValueError, match="not unique"):
            stationary_state(gen)


class TestPropagation:
    def test_time_zero_identity(self, rng):
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        rho = random_density(2, rng)
        assert np.allclose(propagate(gen, rho, 0.0).mat, rho.mat)

    def test_negative_time_rejected(self, rng):
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        with pytest.raises(ValueError):
            propagate(gen, random_density(2, rng), -1.0)

    def test_relaxation_monotone_relative_entropy(self):
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        rho_b = gibbs_state(qubit_h(), 1.0)
        rho = DensityMatrix.pure([1.0, 0.0])  # excited state
        dists = []
        for t in np.linspace(0, 30, 100):
            dists.append(relative_entropy(propagate(gen, rho, float(t)), rho_b))
        diffs = np.diff(dists)
        assert np.all(diffs <= 1e-9)
        assert dists[-1] < 1e-5

    def test_two_bath_steady_current_direction(self):
        hot = ohmic_bath("hot", 2.0)
        cold = ohmic_bath("cold", 1.0, gamma=0.1)
        sx = Operator.hermitian(PAULI_X)
        gen = build_davies(qubit_h(), [(sx, hot), (sx, cold)])
        ss = stationary_state(gen)
        currents = heat_currents(gen, ss)
        assert currents["hot"] > 0
        assert currents["cold"] == pytest.approx(-currents["hot"], abs=1e-12)

    def test_choi_positivity_family(self):
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        for t in (0.1, 1.0, 10.0):
            ok, mineig = cp_check(matexp(gen.liouvillian(), t))
            assert ok and mineig >= -1e-9


class TestEntropyProduction:
    def test_zero_at_stationarity(self):
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        ss = stationary_state(gen)
        assert abs(entropy_production_rate(gen, ss)) < 1e-9

    def test_positive_during_relaxation(self):
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        for t in (0.0, 0.5, 1.5, 4.0):
            assert entropy_production_rate(gen, propagate(gen, rho, t)) >= -1e-9

    def test_two_bath_steady_state_identity(self):
        hot = ohmic_bath("hot", 2.0)
        cold = ohmic_bath("cold", 1.0, gamma=0.1)
        sx = Operator.hermitian(PAULI_X)
        gen = build_davies(qubit_h(), [(sx, hot), (sx, cold)])
        ss = stationary_state(gen)
        j = heat_currents(gen, ss)
        sigma = entropy_production_rate(gen, ss)
        oracle = -(j["hot"] / 2.0 + j["cold"] / 1.0)
        assert sigma == pytest.approx(oracle, abs=1e-10)
        assert sigma >= -1e-9

    def test_pure_state_boundary_regularised(self):
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        sigma = entropy_production_rate(gen, DensityMatrix.pure([1.0, 0.0]))
        assert math.isfinite(sigma) and sigma >= -1e-9

    def test_channel_without_registered_bath_rejected(self):
        hot = ohmic_bath("hot", 2.0)
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), hot)])
        stray = JumpChannel("stray", 1.0, SIGMA_MINUS, 0.1)
        bare = GKLSGenerator(gen.h, gen.channels + (stray,), baths={"hot": hot})
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        # the "hot" reference is cached before "stray" fails; a repeated
        # call must fail again
        for _ in range(2):
            with pytest.raises(ValueError, match="no bath registered under label 'stray'"):
                entropy_production_rate(bare, rho)


class TestHeatCurrentsAgainstDenseSuperoperators:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 3, 8]), st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_heat_currents_equal_trace_of_h_against_dense_dissipators(self, d, k, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(d, rng)
        labels = ["a", "b", "c"]
        chans = []
        for _ in range(k):
            op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rate = float(rng.choice([0.0, 1e-301, rng.uniform(0.0, 2.0)]))
            chans.append(JumpChannel(str(rng.choice(labels)), 0.0, op, rate))
        gen = GKLSGenerator(h, chans)
        rho = random_density(d, rng)
        currents = heat_currents(gen, rho)
        assert list(currents) == gen.bath_labels
        for label, j in currents.items():
            dense = np.zeros((d * d, d * d), dtype=complex)
            for ch in chans:
                if ch.bath_label == label and ch.rate > 1e-300:
                    dense += ch.rate * dissipator_superop(ch.op).mat
            drho = unvec(dense @ vec(rho.mat), d)
            ref = float(np.real(np.trace(h.mat @ drho)))
            assert j == pytest.approx(ref, abs=ALGEBRAIC)


class TestTrajectoryLedger:
    def test_static_ledger_columns(self):
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        grid = np.linspace(0.01, 10.0, 120)
        led = trajectory(gen, DensityMatrix.pure([1.0, 0.0]), grid)
        assert np.all(led.power == 0.0)
        assert np.all(led.entropy_production >= -1e-9)
        # energy relaxes toward the thermal value monotonically here
        assert led.energy[0] > led.energy[-1]
        csv = led.to_csv()
        head = csv.splitlines()[0]
        assert head == "t,E,P,S_vn,sigma,J_b"

    def test_first_law_static(self):
        # with constant H, dE/dt must equal the total heat current
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        grid = np.linspace(0.01, 5.0, 800)
        led = trajectory(gen, DensityMatrix(np.diag([0.9, 0.1])), grid)
        assert led.first_law_residual() <= 1e-6 * led.current_scale()


class TestAdiabaticDriving:
    def test_constant_schedule_matches_trajectory(self):
        bath = ohmic_bath("b", 1.0)
        sx = Operator.hermitian(PAULI_X)
        gen = build_davies(qubit_h(), [(sx, bath)])
        grid = np.linspace(0.0, 4.0, 40)
        rho0 = DensityMatrix(np.diag([0.8, 0.2]))
        led_static = trajectory(gen, rho0, grid[1:])
        led_adia = adiabatic_propagate(lambda t: qubit_h(), [(sx, bath)], rho0, grid)
        assert np.allclose(led_adia.energy[1:], led_static.energy, atol=1e-9)
        assert np.max(np.abs(led_adia.power)) < 1e-9

    def test_slow_ramp_tracks_gibbs(self):
        bath = ohmic_bath("b", 1.0, gamma=0.5)
        sx = Operator.hermitian(PAULI_X)

        def ramp(total):
            def h_of_t(t):
                return qubit_h(1.0 + t / total)
            return h_of_t

        dists = []
        for total in (40.0, 160.0):
            grid = np.linspace(0.0, total, 240)
            rho0 = gibbs_state(qubit_h(1.0), 1.0)
            led = adiabatic_propagate(ramp(total), [(sx, bath)], rho0, grid,
                                      keep_states=True)
            final = led.states[-1]
            dists.append(trace_distance(final, gibbs_state(qubit_h(2.0), 1.0)))
        assert dists[0] < 0.05
        assert dists[1] < dists[0] / 2  # slower ramp tracks better

    def test_isolated_ramp_pure_work(self):
        # no baths: all energy change is work, heat columns vanish
        def h_of_t(t):
            return qubit_h(1.0 + 0.1 * t)

        rho0 = DensityMatrix(np.diag([0.7, 0.3]))
        grid = np.linspace(0.0, 2.0, 400)
        led = adiabatic_propagate(h_of_t, [], rho0, grid,
                                  dh_dt=lambda t: Operator.hermitian(0.05 * PAULI_Z))
        assert led.currents == {}
        # dE = -P dt exactly (diagonal state, commuting schedule)
        de = np.gradient(led.energy, led.times)
        assert np.max(np.abs(de[1:-1] + led.power[1:-1])) < 1e-8

    def test_first_law_residual_driven(self):
        bath = ohmic_bath("b", 1.0, gamma=0.4)
        sx = Operator.hermitian(PAULI_X)

        def h_of_t(t):
            return qubit_h(1.0 + 0.02 * t)

        def dh_dt(t):
            return Operator.hermitian(0.01 * PAULI_Z)

        grid = np.linspace(0.0, 10.0, 400)
        rho0 = gibbs_state(qubit_h(1.0), 1.0)
        led = adiabatic_propagate(h_of_t, [(sx, bath)], rho0, grid, dh_dt=dh_dt,
                                  substeps=8)
        assert led.first_law_residual() <= 1e-6 * led.current_scale()
        assert np.all(led.entropy_production >= -1e-9)

    def test_instantaneous_gibbs_annihilated(self):
        bath = ohmic_bath("b", 1.0)
        sx = Operator.hermitian(PAULI_X)
        for omega in (1.0, 1.5, 2.0):
            gen = build_davies(qubit_h(omega), [(sx, bath)])
            rho_t = gibbs_state(qubit_h(omega), 1.0)
            resid = np.max(np.abs(gen.dissipator().apply_matrix(rho_t.mat)))
            assert resid <= 1e-9

    def test_coarse_grid_warns_and_refines(self):
        bath = ohmic_bath("b", 1.0)
        sx = Operator.hermitian(PAULI_X)
        grid = np.linspace(0.0, 5.0, 4)  # far coarser than the Bohr period
        with pytest.warns(UserWarning, match="refining"):
            adiabatic_propagate(lambda t: qubit_h(5.0), [(sx, bath)],
                                DensityMatrix.maximally_mixed(2), grid)


def test_generator_diagonalises_its_hamiltonian_once(monkeypatch):
    # build_davies diagonalises H in its batched eigh and hands the result
    # to the generator; the stationary solve and the audit read it from
    # there and never call eig_hermitian
    calls = []
    original = lindblad.eig_hermitian

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(lindblad, "eig_hermitian", counting)
    h = Operator.hermitian(np.diag([0.0, 1.0, 2.5]))
    a = np.diag([1.0, 1.0], k=1)
    gen = build_davies(h, [(Operator.hermitian(a + a.T), ohmic_bath("b", 1.0))])
    stationary_state(gen)
    davies_audit(gen)
    assert calls == []
    evals, v = gen.eigenbasis()
    ref_evals, ref_v = original(h)
    assert evals.tobytes() == ref_evals.tobytes() and v.mat.tobytes() == ref_v.mat.tobytes()
    assert not evals.flags.writeable and not v.mat.flags.writeable
    # a generator built from explicit channels computes it on first use,
    # once; it is solved on its whole Liouvillian, the Davies generator on
    # its sector from the tables
    direct = GKLSGenerator(h, gen.channels, baths=gen.baths)
    assert direct.eigenbasis() is direct.eigenbasis()
    assert len(calls) == 1
    assert direct.eigenbasis()[0].tobytes() == ref_evals.tobytes()
    assert np.max(np.abs(stationary_state(direct).mat - stationary_state(gen).mat)) <= ALGEBRAIC


def test_array_schedule_gives_the_ledger_of_its_operator_form():
    # the shipped Floquet schedules return arrays; adiabatic_propagate wraps
    # each sample once, so the ledger is the one of the same schedule
    # returning Operators, bit for bit
    sched = ModulatedGapQubit(1.0, 0.1, 0.05)
    bath = ohmic_bath("b", 1.0)
    rho0 = DensityMatrix(np.diag([0.8, 0.2]))
    grid = np.linspace(0.0, 1.0, 5)
    for couplings in ([], [(Operator.hermitian(PAULI_X), bath)]):
        got = adiabatic_propagate(sched, couplings, rho0, grid, keep_states=True)
        ref = adiabatic_propagate(lambda t: Operator.hermitian(sched(t)), couplings, rho0,
                                  grid, keep_states=True)
        for col in ("energy", "power", "entropy", "entropy_production"):
            assert getattr(got, col).tobytes() == getattr(ref, col).tobytes()
        assert got.currents.keys() == ref.currents.keys()
        for k in got.currents:
            assert got.currents[k].tobytes() == ref.currents[k].tobytes()
        for a, b in zip(got.states, ref.states, strict=True):
            assert a.mat.tobytes() == b.mat.tobytes()


def test_channel_pairs_are_adjoint():
    # channels of a hermitian coupling come in (omega, -omega) adjoint pairs
    gen = build_davies(qubit_h(1.3), [(Operator.hermitian(PAULI_X),
                                       ohmic_bath("b", 0.9))])
    for ch in gen.channels:
        partner = [c for c in gen.channels
                   if abs(c.bohr_frequency + ch.bohr_frequency) < 1e-12]
        assert len(partner) == 1
        assert np.max(np.abs(partner[0].op - ch.op.conj().T)) < 1e-12


def _eig_stationary(lmat, d):
    """Dense oracle: the eigenvector of the eigenvalue nearest zero,
    normalised to unit trace."""
    evals, evecs = scipy.linalg.eig(lmat)
    m = unvec(evecs[:, int(np.argmin(np.abs(evals)))], d)
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def _stationary_dimension(gen):
    """Dense oracle: the dimension of the null space of the whole d^2 x d^2
    Liouvillian, the number of linearly independent stationary states,
    counted as its singular values at or below 1e-10 of the largest."""
    svals = np.linalg.svd(gen.liouvillian().mat, compute_uv=False)
    return int(np.sum(svals <= 1e-10 * svals[0]))


def _random_davies(rng, d, n_baths, kind="generic"):
    """Davies generator of a random Hamiltonian with n_baths ohmic baths.

    kind "generic" couples through random hermitian operators; "dephasing"
    couples through operators diagonal in the eigenbasis of H; "decoupled"
    leaves a two-level factor of a 2 x (d // 2) product space unperturbed
    by every coupling."""
    if kind == "decoupled":
        m = max(d // 2, 1)
        h1 = random_hermitian(m, rng).mat
        h2 = np.diag([0.0, float(rng.uniform(0.5, 2.0))])
        h = Operator.hermitian(np.kron(h1, np.eye(2)) + np.kron(np.eye(m), h2))
    else:
        h = random_hermitian(d, rng)
    evals, v = np.linalg.eigh(h.mat)
    couplings = []
    for k in range(n_baths):
        if kind == "dephasing":
            s = v @ np.diag(rng.normal(size=h.dim)) @ v.conj().T
        elif kind == "decoupled":
            s = np.kron(random_hermitian(m, rng).mat, np.eye(2))
        else:
            s = random_hermitian(h.dim, rng).mat
        bath = ohmic_bath(f"b{k}", float(rng.uniform(0.3, 3.0)),
                          gamma=float(rng.uniform(0.05, 0.5)))
        couplings.append((Operator.hermitian((s + s.conj().T) / 2), bath))
    return build_davies(h, couplings)


class TestStationaryStateAgainstDenseEig:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_bordered_solve_matches_null_eigenvector(self, d, n_baths, seed):
        gen = _random_davies(np.random.default_rng(seed), d, n_baths)
        assert _stationary_dimension(gen) == 1
        rho = stationary_state(gen)
        oracle = _eig_stationary(gen.liouvillian().mat, d)
        assert np.max(np.abs(rho.mat - oracle)) <= ALGEBRAIC

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(["generic", "dephasing", "decoupled"]),
           st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_not_unique_iff_null_space_is_larger(self, kind, d, n_baths, seed):
        gen = _random_davies(np.random.default_rng(seed), d, n_baths, kind)
        if _stationary_dimension(gen) == 1:
            stationary_state(gen)
        else:
            with pytest.raises(ValueError, match="not unique"):
                stationary_state(gen)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
    def test_generator_scale_does_not_decide_uniqueness(self, scale):
        # scaling H and every rate by one factor scales L and keeps its
        # null space; the trace row follows the generator's scale, so a
        # uniformly slow or fast generator still gives the Gibbs state
        h, x = oscillator(5)
        gen = build_davies(h, [(x, ohmic_bath("b", 0.8))])
        scaled = GKLSGenerator(
            Operator.hermitian(scale * h.mat),
            [replace(ch, rate=scale * ch.rate) for ch in gen.channels],
        )
        rho = stationary_state(scaled)
        assert trace_distance(rho, gibbs_state(h, 1 / 0.8)) < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_channel_free_generator_is_not_unique(self, d):
        # no channel, or a bath at zero coupling: every function of H is
        # stationary, at every size
        rng = np.random.default_rng(d)
        h = random_hermitian(d, rng)
        off = replace(ohmic_bath("b", 1.0), coupling=0.0)
        for gen in (GKLSGenerator(h, []), build_davies(h, [(random_hermitian(d, rng), off)])):
            assert gen.channels == ()
            assert _stationary_dimension(gen) == d
            with pytest.raises(ValueError, match="stationary state not unique"):
                stationary_state(gen)


def _dense_bordered_stationary(gen):
    """Dense oracle: the bordered solve on the whole d^2 x d^2 Liouvillian,
    its trace row scaled to the Liouvillian's largest entry."""
    d = gen.dim
    kernel = np.array(gen.liouvillian().mat, order="F")
    border = float(np.max(np.abs(kernel)))
    m = unvec(_bordered_fixed_point(kernel, np.arange(d) * (d + 1), border, "not unique"), d)
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def _spectrum(rng, d, kind):
    """Levels with repeated values, pairs split by about 1e-4 of the
    spread (resolved), or an equally spaced ladder."""
    if kind == "degenerate":
        return np.sort(rng.integers(0, 3, size=d).astype(float))
    if kind == "near-degenerate":
        evals = np.sort(rng.normal(size=d))
        evals[1::2] = evals[0::2][: d // 2] + 1e-4 * rng.uniform(1.0, 2.0, size=d // 2)
        return evals
    return np.arange(d, dtype=float) * rng.uniform(0.5, 1.5)


def _record_sector_kernels(monkeypatch):
    """Copies of every kernel handed to the bordered solver."""
    kernels = []

    def recording(kernel, *args):
        kernels.append(np.array(kernel))
        return _bordered_fixed_point(kernel, *args)

    monkeypatch.setattr(lindblad, "_bordered_fixed_point", recording)
    return kernels


class TestSectorSolveAgainstDenseOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(["degenerate", "near-degenerate", "equal-gap"]),
           st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_davies_sector_solve_matches_dense_oracles(self, spectrum, d, n_baths, seed):
        rng = np.random.default_rng(seed)
        u = random_unitary(d, rng).mat
        h = Operator.hermitian(u @ np.diag(_spectrum(rng, d, spectrum)) @ u.conj().T)
        couplings = [(random_hermitian(d, rng), ohmic_bath(f"b{k}", float(rng.uniform(0.3, 3.0))))
                     for k in range(n_baths)]
        try:
            gen = build_davies(h, couplings)
        except BohrResolutionError:
            return
        if _stationary_dimension(gen) > 1:
            with pytest.raises(ValueError, match="not unique"):
                stationary_state(gen)
            return
        rho = stationary_state(gen)
        assert np.max(np.abs(rho.mat - _dense_bordered_stationary(gen))) <= ALGEBRAIC
        assert np.max(np.abs(rho.mat - _eig_stationary(gen.liouvillian().mat, d))) <= ALGEBRAIC

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(["degenerate", "near-degenerate", "equal-gap"]),
                    min_size=2, max_size=4),
           st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_stacked_sector_solves_match_dense_oracles(self, spectra, d, n_baths, seed):
        # one stack of generators sharing their couplings, each member held
        # to both dense oracles, or rejected exactly when its Liouvillian's
        # null space holds more than one state
        rng = np.random.default_rng(seed)
        couplings = [(random_hermitian(d, rng), ohmic_bath(f"b{k}", float(rng.uniform(0.3, 3.0))))
                     for k in range(n_baths)]
        hs = []
        for spectrum in spectra:
            u = random_unitary(d, rng).mat
            hs.append(Operator.hermitian(u @ np.diag(_spectrum(rng, d, spectrum)) @ u.conj().T))
        gens = [g for g in _davies_stack(hs, couplings) if isinstance(g, GKLSGenerator)]
        for gen, state in zip(gens, _stationary_stack(gens)):
            if _stationary_dimension(gen) > 1:
                assert isinstance(state, ValueError) and "not unique" in str(state)
                continue
            assert np.max(np.abs(state.mat - _dense_bordered_stationary(gen))) <= ALGEBRAIC
            assert np.max(np.abs(state.mat - _eig_stationary(gen.liouvillian().mat, d))) <= ALGEBRAIC

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_non_secular_closure_grows_to_every_pair(self, d, k, seed):
        rng = np.random.default_rng(seed)
        chans = [JumpChannel("b", 0.0, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
                             float(rng.uniform(0.1, 2.0))) for _ in range(k)]
        gen = GKLSGenerator(random_hermitian(d, rng), chans)
        with pytest.MonkeyPatch.context() as mp:
            kernels = _record_sector_kernels(mp)
            rho = stationary_state(gen)
        assert [kn.shape for kn in kernels] == [(d * d, d * d)]
        assert np.max(np.abs(rho.mat - _dense_bordered_stationary(gen))) <= ALGEBRAIC
        assert np.max(np.abs(rho.mat - _eig_stationary(gen.liouvillian().mat, d))) <= ALGEBRAIC

    def test_degenerate_coherence_reached_only_through(self):
        # levels 1 and 2 are degenerate and no jump creates their coherence:
        # G does, since bath a decays both into 0, one of them weakly
        gen = _degenerate_coherence_generator()
        assert _stationary_dimension(gen) == 1
        rho = stationary_state(gen)
        assert abs(rho.mat[1, 2]) > 1e-6
        assert np.max(np.abs(rho.mat - _dense_bordered_stationary(gen))) <= ALGEBRAIC

    def test_closure_follows_a_chain_of_coherences(self):
        # doublets (c, d) at 0 and (a, b) at 1 under a level e at 2: the
        # hot jump from e makes the coherence (a, b), and only the cold
        # jumps a -> c, b -> d carry it on to (c, d), a second closure step
        m = np.zeros((3, 5, 5), dtype=complex)
        m[0, 2, 4], m[0, 3, 4] = 1.0, 2.0
        m[1, 0, 2], m[1, 1, 3] = 1.0, 1.0
        m[2, 0, 3] = 0.5
        baths = [ohmic_bath("hot", 2.0), ohmic_bath("cold", 0.5), ohmic_bath("warm", 1.0)]
        h = Operator.hermitian(np.diag([0.0, 0.0, 1.0, 1.0, 2.0]))
        gen = build_davies(h, [(Operator.hermitian(s + s.T), b) for s, b in zip(m, baths)])
        assert _stationary_dimension(gen) == 1
        rho = stationary_state(gen)
        assert abs(rho.mat[0, 1]) > 1e-2
        assert np.max(np.abs(rho.mat - _dense_bordered_stationary(gen))) <= ALGEBRAIC

    def test_pure_dephasing_not_unique(self, monkeypatch):
        # the sector is the three populations and its block is roundoff;
        # every diagonal operator commutes with the channel, so the sector
        # is not certified and the whole generator is solved
        h = Operator.hermitian(np.array([[0.3, 0.4 - 0.2j, 0.1],
                                         [0.4 + 0.2j, -0.5, 0.2j],
                                         [0.1, -0.2j, 0.9]]))
        v = np.linalg.eigh(h.mat)[1]
        s = Operator.hermitian(v @ np.diag([1.3, -0.4, 0.6]) @ v.conj().T)
        gen = build_davies(h, [(s, ohmic_bath("b", 0.7))])
        assert _stationary_dimension(gen) > 1
        kernels = _record_sector_kernels(monkeypatch)
        with pytest.raises(ValueError, match="not unique"):
            stationary_state(gen)
        assert [kn.shape for kn in kernels] == [(9, 9)]

    def test_adjoint_off_by_more_than_algebraic_leaves_the_sector(self, monkeypatch):
        # the weak ladder channel's adjoint matches its mirrored channel only
        # to 4e-9 of its norm (the coupling is hermitian to 5e-13 of its
        # largest entry), so the channels are not certified to span a
        # self-adjoint set and the whole Liouvillian is solved
        s = np.zeros((4, 4), dtype=complex)
        s[0, 1] = s[1, 0] = s[1, 2] = 1e-4
        s[2, 1] = 1e-4 + 5e-13
        s[0, 3] = s[3, 0] = 1.0
        gen = build_davies(Operator.hermitian(np.diag([0.0, 1.0, 2.0, 5.0])),
                           [(Operator.hermitian(s), ohmic_bath("b", 1.0))])
        kernels = _record_sector_kernels(monkeypatch)
        rho = stationary_state(gen)
        assert [kn.shape for kn in kernels] == [(16, 16)]
        assert np.max(np.abs(rho.mat - _eig_stationary(gen.liouvillian().mat, 4))) <= ALGEBRAIC

    def test_coherence_no_population_reaches_not_unique(self, monkeypatch):
        # levels 1 and 2 are fed from 0 and swapped by sigma_x: the sector
        # (the populations) has one stationary state, 1/2 (P_1 + P_2), but
        # the coherence |1><2| + |2><1| is stationary too.  The channels are
        # not closed under adjoints, so the sector is not certified; the
        # joint commutant of the channels and their adjoints is trivial all
        # the same, which is why uniqueness is read from the null space
        def unit(i, j):
            m = np.zeros((3, 3), dtype=complex)
            m[i, j] = 1.0
            return m

        gen = GKLSGenerator(Operator.hermitian(np.diag([0.0, 1.0, 1.0])),
                            [JumpChannel("b", 1.0, unit(1, 0), 1.0),
                             JumpChannel("b", 1.0, unit(2, 0), 1.0),
                             JumpChannel("b", 0.0, unit(1, 2) + unit(2, 1), 1.0)])
        assert _stationary_dimension(gen) == 2
        kernels = _record_sector_kernels(monkeypatch)
        with pytest.raises(ValueError, match="not unique"):
            stationary_state(gen)
        assert [kn.shape for kn in kernels] == [(9, 9)]

    def test_noiseless_coherence_outside_sector_not_unique(self, monkeypatch):
        # a thermal qubit beside an idle one flipped by sigma_x: the four
        # populations have one stationary state, but 1 x sigma_x commutes
        # with every channel, so the idle qubit's coherence is free too
        sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        gen = GKLSGenerator(Operator.hermitian(np.kron(np.diag([0.0, 1.0]), np.eye(2))),
                            [JumpChannel("a", 1.0, np.kron(sm, np.eye(2)), 1.0),
                             JumpChannel("a", -1.0, np.kron(sm.T, np.eye(2)), 0.3),
                             JumpChannel("b", 0.0, np.kron(np.eye(2), PAULI_X), 0.5)])
        assert _stationary_dimension(gen) > 1
        kernels = _record_sector_kernels(monkeypatch)
        with pytest.raises(ValueError, match="not unique"):
            stationary_state(gen)
        assert [kn.shape for kn in kernels] == [(16, 16)]

    def test_interaction_picture_solved_on_its_whole_liouvillian(self, monkeypatch):
        # a Floquet generator is built from explicit channels and carries no
        # H to split its levels, so no sector is sought: the driven ladder's
        # whole 9 x 9 Liouvillian goes to the bordered solver
        sched = ModulatedLadder(omega1=1.0, omega2=1.55, amplitude=0.3, big_omega=0.6)
        dec = floquet_decompose(sched, sched.tau, 256)
        lower = Operator.hermitian(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
        upper = Operator.hermitian(np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]))
        cold, hot = ohmic_bath("cold", 0.8), ohmic_bath("hot", 2.5)
        channels = harmonic_decompose(dec, lower, 6, cold) + harmonic_decompose(dec, upper, 6, hot)
        gen = build_floquet_generator(channels, dec.h_av, {"cold": cold, "hot": hot})
        kernels = _record_sector_kernels(monkeypatch)
        sectors = []
        monkeypatch.setattr(lindblad, "_sector_states", sectors.append)
        rho = stationary_state(gen)
        assert [kn.shape for kn in kernels] == [(9, 9)] and not sectors
        assert np.max(np.abs(rho.mat - _dense_bordered_stationary(gen))) <= ALGEBRAIC

    def test_adjoint_found_among_channels_of_one_pattern(self, monkeypatch):
        # two baths couple the same ladder transitions with different
        # weights, so their channels share patterns; each adjoint is the
        # mirrored channel of its own coupling, not the other bath's
        # channel of the same pattern, and the sector stands
        h = Operator.hermitian(np.diag([0.0, 1.0, 2.0]))
        ladder = np.diag([1.0, 1.0], 1)
        weighted = np.diag([1.0, 3.0], 1)
        gen = build_davies(h, [(Operator.hermitian(ladder + ladder.T), ohmic_bath("a", 0.7)),
                               (Operator.hermitian(weighted + weighted.T), ohmic_bath("b", 1.5))])
        kernels = _record_sector_kernels(monkeypatch)
        rho = stationary_state(gen)
        assert [kn.shape for kn in kernels] == [(3, 3)]
        assert np.max(np.abs(rho.mat - _dense_bordered_stationary(gen))) <= ALGEBRAIC


def _stack_hamiltonian(rng, d, kind):
    """A random Hamiltonian of one of four kinds: "generic"; "degenerate",
    with repeated levels; "flat", a multiple of the identity, whose one
    level group no certificate accepts, so that its stationary state comes
    from the whole Liouvillian; "collision", with two Bohr gaps inside the
    unresolved band of every coupling that links levels 0, 1 and 2."""
    u = random_unitary(d, rng).mat
    if kind == "flat":
        evals = np.full(d, float(rng.uniform(-1.0, 1.0)))
    elif kind == "collision":
        evals = np.concatenate([[0.0, 1.0, 2.0 + 1e-7], 3.0 + np.arange(d - 3)])
    else:
        evals = _spectrum(rng, d, "degenerate" if kind == "degenerate" else "near-degenerate")
    return Operator.hermitian(u @ np.diag(evals) @ u.conj().T)


def _outcome(result):
    """A solve's state bits, or its error's type and message."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    return result.mat.tobytes()


class TestStackSolvesMemberByMember:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(["generic", "degenerate", "flat", "collision"]),
                    min_size=2, max_size=5),
           st.integers(min_value=3, max_value=6), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_stack_gives_the_bits_of_single_solves(self, kinds, d, n_baths, seed):
        rng = np.random.default_rng(seed)
        hs = [_stack_hamiltonian(rng, d, kind) for kind in kinds]
        couplings = [(random_hermitian(d, rng), ohmic_bath(f"b{k}", float(rng.uniform(0.3, 3.0))))
                     for k in range(n_baths)]
        gens = _davies_stack(hs, couplings)
        built = [g for g in gens if isinstance(g, GKLSGenerator)]
        states = iter(_stationary_stack(built))
        for h, gen in zip(hs, gens):
            try:
                single = build_davies(h, couplings)
            except BohrResolutionError as exc:
                assert _outcome(gen) == _outcome(exc)
                continue
            assert isinstance(gen, GKLSGenerator)
            assert [(c.bath_label, c.bohr_frequency, c.rate, c.op.tobytes()) for c in gen.channels] \
                == [(c.bath_label, c.bohr_frequency, c.rate, c.op.tobytes()) for c in single.channels]
            try:
                ref = stationary_state(single)
            except ValueError as exc:
                ref = exc
            assert _outcome(next(states)) == _outcome(ref)
        if built:
            labels, qs = _table_heat_observables(built)
            for gen, q in zip(built, qs):
                single = build_davies(gen.h, couplings)
                for label, q_l in zip(labels, q):
                    assert q_l.tobytes() == single.heat_observable(label).tobytes()

    def test_mixed_stack(self, monkeypatch):
        # a certified member, one whose certificate fails (one level group)
        # and one Bohr collision: the failed member alone goes to the whole
        # Liouvillian, and every member keeps its single-solve bits
        rng = np.random.default_rng(7)
        kinds = ["generic", "flat", "collision", "degenerate"]
        hs = [_stack_hamiltonian(rng, 4, kind) for kind in kinds]
        couplings = [(random_hermitian(4, rng), ohmic_bath(f"b{k}", 1.0 + k)) for k in range(2)]
        gens = _davies_stack(hs, couplings)
        assert isinstance(gens[2], BohrResolutionError)
        built = [gens[0], gens[1], gens[3]]
        kernels = _record_sector_kernels(monkeypatch)
        states = _stationary_stack(built)
        assert sorted(kn.shape for kn in kernels) == [(4, 4), (6, 6), (16, 16)]
        for gen, state in zip(built, states):
            assert isinstance(state, DensityMatrix)
            assert state.mat.tobytes() == stationary_state(build_davies(gen.h, couplings)).mat.tobytes()
            assert np.max(np.abs(state.mat - _dense_bordered_stationary(gen))) <= ALGEBRAIC


def _degenerate_coherence_generator():
    """Levels 0 < 1 = 2 whose coherence (1, 2) no jump creates; G does, as
    bath a decays both 1 and 2 into 0, one of them weakly."""
    def coupling(*entries):
        m = np.zeros((3, 3), dtype=complex)
        for i, j, w in entries:
            m[i, j] = m[j, i] = w
        return Operator.hermitian(m)

    h = Operator.hermitian(np.diag([0.0, 1.0, 1.0]))
    return build_davies(h, [(coupling((0, 1, 1.0), (0, 2, 1e-3)), ohmic_bath("a", 0.0)),
                            (coupling((0, 1, 1.0)), ohmic_bath("b", 1.0))])


def _coupling_channels(h_evals, basis, couplings):
    """The channels that ``build_davies`` derives from its tables, for the
    levels ``h_evals`` with the eigenvectors ``basis``."""
    d = len(h_evals)
    s_e = np.array([basis.conj().T @ s_op.mat @ basis for s_op, _ in couplings]).reshape(-1, d, d)
    return _table_channels(_coupling_tables(h_evals, s_e, couplings), basis)


def _loop_coupling_channels(h_evals, basis, s_op, bath):
    """Element-by-element block collection kept as the reference for the
    vectorised ``_coupling_channels``."""
    s_e = basis.conj().T @ s_op.mat @ basis
    groups = group_degenerate(h_evals)
    centers = [float(np.mean(h_evals[g])) for g in groups]
    spread = max(float(h_evals.max() - h_evals.min()), 1.0)
    merge_tol = LEVEL_MERGE_REL * spread
    resolve_tol = LEVEL_RESOLVE_REL * spread
    d = len(h_evals)
    raw = []
    for gi, g_from in enumerate(groups):
        for gj, g_to in enumerate(groups):
            block = np.zeros((d, d), dtype=complex)
            for m in g_from:
                for n in g_to:
                    block[n, m] = s_e[n, m]
            if np.max(np.abs(block)) <= 1e-14 * max(1.0, np.max(np.abs(s_e))):
                continue
            raw.append((centers[gi] - centers[gj], block))
    gaps = np.array([w for w, _ in raw])
    bins = group_degenerate(gaps, tol=merge_tol)
    bin_centers = [float(np.mean(gaps[b])) for b in bins]
    for i in range(len(bin_centers)):
        for j in range(i + 1, len(bin_centers)):
            if merge_tol < abs(bin_centers[i] - bin_centers[j]) < resolve_tol:
                raise BohrResolutionError("unresolved")
    channels = []
    for b, center in zip(bins, bin_centers):
        op = np.zeros((d, d), dtype=complex)
        for k in b:
            op += raw[k][1]
        rate = spectral_density(center, bath)
        if rate <= 1e-300:
            continue
        op = basis @ op @ basis.conj().T
        channels.append(JumpChannel(bath.label, center, op, rate))
    return channels


class TestCouplingChannelsAgainstLoops:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=9),
           st.sampled_from(["random", "ladder", "degenerate"]),
           st.booleans(), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_channels_bitwise_equal(self, d, spectrum, eigenbasis, n_couplings, seed):
        rng = np.random.default_rng(seed)
        if spectrum == "random":
            evals = np.sort(rng.normal(size=d))
        elif spectrum == "ladder":
            evals = np.arange(d, dtype=float) * rng.choice([0.5, 1.0])
        else:
            evals = np.sort(rng.integers(0, 3, size=d).astype(float))
        basis = (np.eye(d, dtype=complex) if eigenbasis
                 else scipy.linalg.qr(rng.normal(size=(d, d)))[0].astype(complex))
        couplings = []
        for k in range(n_couplings):
            # sparse real couplings with signed zeros, or dense complex ones
            s = -np.abs(rng.normal(size=(d, d))) * (rng.random((d, d)) < 0.5)
            s = np.where(rng.random((d, d)) < 0.3, -0.0, s)
            s = np.minimum(s, s.T).astype(complex)
            if not eigenbasis:
                s = s + random_hermitian(d, rng).mat
            bath = ohmic_bath(f"b{k}", float(rng.uniform(0.2, 3.0)))
            couplings.append((Operator.hermitian(s), bath))
        try:
            ref = [c for s_op, bath in couplings
                   for c in _loop_coupling_channels(evals, basis, s_op, bath)]
        except BohrResolutionError:
            with pytest.raises(BohrResolutionError):
                _coupling_channels(evals, basis, couplings)
            return
        got = _coupling_channels(evals, basis, couplings)
        assert [(c.bath_label, c.bohr_frequency, c.rate) for c in got] == [
            (c.bath_label, c.bohr_frequency, c.rate) for c in ref
        ]
        assert [c.op.tobytes() for c in got] == [c.op.tobytes() for c in ref]


def test_generator_channels_cannot_be_appended():
    gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
    stray = JumpChannel("b", 1.0, SIGMA_MINUS, 5.0)
    with pytest.raises(AttributeError):
        gen.channels.append(stray)
    assert isinstance(gen.channels, tuple)


def _loop_ledger(gen, rho0, grid):
    """Per-point reference of the trajectory ledger: every state checked as
    a DensityMatrix, its entropy from its spectrum, and the per-bath terms
    from dense superoperators of that bath's channels."""
    d = gen.dim
    lmat = gen.liouvillian().mat
    labels = gen.bath_labels
    dense = {
        k: dissipator_superop(np.array([ch.op for ch in gen.channels if ch.bath_label == k]),
                              [ch.rate for ch in gen.channels if ch.bath_label == k]).mat
        for k in labels
    }

    def clipped_log(m):
        # symmetrised first: a Gibbs state with weights near the clip has
        # a logarithm that resolves roundoff-level asymmetry of its input
        lam, u = np.linalg.eigh((m + m.conj().T) / 2.0)
        return (u * np.log(np.clip(lam, 1e-14, None))) @ u.conj().T

    log_ref = {k: clipped_log(gibbs_state(gen.h, gen.baths[k].beta).mat) for k in labels}
    rows, states = [], []
    v, prev = vec(rho0.mat), 0.0
    for t in grid:
        if t > prev:
            v = scipy.linalg.expm(lmat * (t - prev)) @ v
        prev = t
        m = unvec(v, d)
        rho = DensityMatrix((m + m.conj().T) / 2.0)
        lam = np.clip(np.linalg.eigvalsh(rho.mat), 0.0, None)
        entropy = -sum(x * math.log(x) for x in lam if x > 0.0)
        sigma, currents = 0.0, []
        for k in labels:
            drho = unvec(dense[k] @ vec(rho.mat), d)
            sigma -= np.real(np.trace(drho @ (clipped_log(rho.mat) - log_ref[k])))
            currents.append(np.real(np.trace(gen.h.mat @ drho)))
        rows.append([np.real(np.trace(rho.mat @ gen.h.mat)), entropy, sigma] + currents)
        states.append(rho.mat)
    return np.array(rows), np.array(states)


class TestBlockLedgerAgainstPointLoop:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3),
           st.sampled_from([1, 63, 64, 65, 200]), st.booleans(),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_block_ledger_matches_point_loop(self, d, n_baths, n, uniform, seed):
        rng = np.random.default_rng(seed)
        gen = _random_davies(rng, d, n_baths)
        rho0 = random_density(d, rng, rank=int(rng.integers(1, d + 1)))
        if uniform:
            grid = np.linspace(0.0, 0.05 * n, n)
        else:
            grid = np.cumsum(rng.uniform(0.01, 0.2, size=n))
        led = trajectory(gen, rho0, grid, keep_states=True)
        ref, ref_states = _loop_ledger(gen, rho0, grid)
        got = np.column_stack([led.energy, led.entropy, led.entropy_production]
                              + [led.currents[k] for k in gen.bath_labels])
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= ALGEBRAIC
        assert np.all(led.power == 0.0)
        assert len(led.states) == n
        assert np.max(np.abs(np.array([s.mat for s in led.states]) - ref_states)) <= ALGEBRAIC

    def test_states_kept_only_on_request(self):
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        grid = np.linspace(0.0, 5.0, 130)
        led = trajectory(gen, DensityMatrix.pure([1.0, 0.0]), grid)
        assert led.states == []
        kept = trajectory(gen, DensityMatrix.pure([1.0, 0.0]), grid, keep_states=True)
        assert all(isinstance(s, DensityMatrix) for s in kept.states)
        assert kept.to_csv() == led.to_csv()
