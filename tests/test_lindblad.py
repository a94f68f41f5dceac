import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo import cli, lindblad, operators, states
from qthermo.baths import BathSpec, spectral_density
from qthermo.floquet import (
    ModulatedGapQubit,
    build_floquet_generator,
    floquet_decompose,
    harmonic_decompose,
)
from qthermo.lindblad import (
    BohrResolutionError,
    GKLSGenerator,
    JumpChannel,
    _bordered_fixed_point,
    _davies_stack,
    _stack_tables,
    _stationary_stack,
    _table_channels,
    _table_heat_observables,
    adiabatic_propagate,
    build_davies,
    davies_audit,
    entropy_production_rate,
    heat_currents,
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
    eig_hermitian,
    matexp,
    random_density,
    random_hermitian,
    trace_distance,
    unvec,
    vec,
)
from qthermo.states import gibbs_state, relative_entropy, von_neumann_entropy
from qthermo.tolerances import ALGEBRAIC, LEVEL_MERGE_REL, LEVEL_RESOLVE_REL

from models import (
    ModulatedLadder,
    count_decompositions,
    eigh_oracle,
    loop_group_degenerate,
    random_unitary,
)


def qubit_h(omega=1.0):
    return Operator.hermitian(0.5 * omega * PAULI_Z)


def ohmic_bath(label, t, gamma=0.2, cutoff=10.0):
    return BathSpec(label=label, temperature=t, form_factor="ohmic",
                    gamma=gamma, cutoff=cutoff)


def ledger_csv(led):
    """The ledger as the evolve runner writes it."""
    header = ["t", "E", "P", "S_vn", "sigma"] + [f"J_{k}" for k in led.currents]
    return cli._csv(header, zip(led.times, led.energy, led.power, led.entropy,
                                led.entropy_production, *led.currents.values()))


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
        out = matexp(gen.liouvillian(), 0.7).apply(rho)
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
            build_davies(qubit_h(), [(Operator(SIGMA_MINUS), ohmic_bath("b", 1.0))])

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
            out = matexp(gen.liouvillian(), t).apply(rho0)
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
    def test_relaxation_monotone_relative_entropy(self):
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        rho_b = gibbs_state(qubit_h(), 1.0)
        rho = DensityMatrix.pure([1.0, 0.0])  # excited state
        dists = []
        for t in np.linspace(0, 30, 100):
            dists.append(relative_entropy(matexp(gen.liouvillian(), float(t)).apply(rho), rho_b))
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
            rho_t = matexp(gen.liouvillian(), t).apply(rho)
            assert entropy_production_rate(gen, rho_t) >= -1e-9

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
        lines = ledger_csv(led).splitlines()
        assert lines[0] == "t,E,P,S_vn,sigma,J_b"
        assert len(lines) == len(grid) + 1

    def test_first_law_static(self):
        # with constant H, dE/dt must equal the total heat current
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        grid = np.linspace(0.01, 5.0, 800)
        led = trajectory(gen, DensityMatrix(np.diag([0.9, 0.1])), grid)
        assert led.first_law_residual() <= 1e-6 * led.current_scale()


def test_liouvillian_stack_is_bitwise_each_generator_alone():
    # generators with different channel counts in one stack, among them one
    # with no coupling above the rate floor, get the bits of liouvillian()
    # the evenly spaced middle member merges its two gaps into one channel
    h = [Operator.hermitian(np.diag(levels)) for levels in
         ([0.0, 1.0, 2.5], [0.0, 1.3, 2.6], [0.0, 0.7, 1.75])]
    a = np.diag([1.0, 1.0], k=1)
    s = Operator.hermitian(a + a.T + 0.2 * np.diag([1.0, -1.0, 0.5]))
    s2 = Operator.hermitian(s.mat @ s.mat)
    assert len({len(gen.channels) for gen in _davies_stack(h, [(s, ohmic_bath("b", 1.0))])}) == 2
    for couplings in ([(s, ohmic_bath("b", 1.0))],
                      [(s, ohmic_bath("b", 1.0)), (s2, ohmic_bath("c", 0.3))],
                      [(s, replace(ohmic_bath("b", 1.0), coupling=0.0))], []):
        stacked = _davies_stack(h, couplings)
        alone = [build_davies(x, couplings) for x in h]
        lindblad._liouvillian_stack(stacked)
        for got, ref in zip(stacked, alone):
            assert got.liouvillian().mat.tobytes() == ref.liouvillian().mat.tobytes()


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

    def test_columns_are_the_per_state_ledger(self, monkeypatch):
        # each grid point is read through trajectory's stacked kernel, not
        # through the one-state functions, and gives what they give at the
        # state and the generator of that point
        def boom(*args):
            raise AssertionError("per-state ledger function called")

        for module, name in ((lindblad, "von_neumann_entropy"), (states, "von_neumann_entropy"),
                             (lindblad, "entropy_production_rate"), (lindblad, "heat_currents")):
            monkeypatch.setattr(module, name, boom, raising=False)
        couplings = [(Operator.hermitian(PAULI_X), ohmic_bath("c", 0.5, gamma=0.3)),
                     (Operator.hermitian(PAULI_X + 0.5 * PAULI_Z), ohmic_bath("h", 2.0))]

        def h_of_t(t):
            return Operator.hermitian(0.5 * (1.0 + 0.2 * t) * PAULI_Z + 0.1 * PAULI_X)

        rho0 = random_density(2, np.random.default_rng(3))
        grid = np.linspace(0.0, 3.0, 31)
        led = adiabatic_propagate(h_of_t, couplings, rho0, grid, keep_states=True)
        monkeypatch.undo()
        assert list(led.currents) == ["c", "h"]
        for i, (t, rho) in enumerate(zip(grid, led.states)):
            gen = build_davies(h_of_t(t), couplings)
            assert led.energy[i] == pytest.approx(
                float(np.real(np.trace(rho.mat @ gen.h.mat))), abs=ALGEBRAIC)
            assert led.entropy[i] == pytest.approx(von_neumann_entropy(rho), abs=ALGEBRAIC)
            assert led.entropy_production[i] == pytest.approx(
                entropy_production_rate(gen, rho), abs=ALGEBRAIC)
            for k, j in heat_currents(gen, rho).items():
                assert led.currents[k][i] == pytest.approx(j, abs=ALGEBRAIC)

    def test_each_state_is_checked_once(self, monkeypatch):
        # the ledger's density-matrix check is the one check of a recorded
        # state, and a state between two substeps is checked once: on a
        # 41-point ramp with two substeps, 41 + 40 checks
        rho0 = DensityMatrix(np.diag([0.7, 0.3]))
        checked = []
        original = operators._state_spectra

        def counting(stack, vectors=False):
            checked.append(len(stack))
            return original(stack, vectors)

        for module in (operators, lindblad):
            monkeypatch.setattr(module, "_state_spectra", counting)
        grid = np.linspace(0.0, 2.0, 41)
        led = adiabatic_propagate(lambda t: qubit_h(1.0 + 0.1 * t), [], rho0, grid,
                                  dh_dt=lambda t: Operator.hermitian(0.05 * PAULI_Z), substeps=2)
        assert sum(checked) == 41 + 40
        assert led.states == []

    def test_kept_states_are_checked_once(self, monkeypatch):
        # the ledger's check of each grid point hands out the kept state:
        # one check per point with kept states, as without (two before),
        # and the ledger's bits do not move
        couplings = [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0, gamma=0.4))]
        rho0 = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
        grid = np.linspace(0.0, 2.0, 9)
        sizes, checks = [], operators._state_checks

        def counting(stack, vectors=False):
            sizes.append(len(stack))
            return checks(stack, vectors)

        def ramp(t):
            return qubit_h(1.0 + 0.1 * t)

        monkeypatch.setattr(operators, "_state_checks", counting)
        led = adiabatic_propagate(ramp, couplings, rho0, grid)
        assert sizes == [1] * 9
        sizes.clear()
        kept = adiabatic_propagate(ramp, couplings, rho0, grid, keep_states=True)
        assert sizes == [1] * 9
        for name in ("energy", "entropy", "entropy_production", "power"):
            assert getattr(kept, name).tobytes() == getattr(led, name).tobytes()
        assert {k: v.tobytes() for k, v in kept.currents.items()} == \
            {k: v.tobytes() for k, v in led.currents.items()}
        assert len(kept.states) == 9 and led.states == []
        monkeypatch.undo()
        again = DensityMatrix.stack(np.array([s.mat for s in kept.states]))
        assert [s.mat.tobytes() for s in again] == [s.mat.tobytes() for s in kept.states]
        assert all(not s.mat.flags.writeable for s in kept.states)

    def test_each_hamiltonian_is_diagonalised_once(self, monkeypatch):
        # a 9-point ramp diagonalises its first Hamiltonian and, per step,
        # the step's midpoint and its end: 17 decompositions.  The Gibbs
        # reference of each point's bath weighs the eigenbasis its
        # Hamiltonian carries, so it adds none
        members = count_decompositions(monkeypatch)
        adiabatic_propagate(lambda t: qubit_h(1.0 + 0.1 * t),
                            [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0, gamma=0.4))],
                            DensityMatrix(np.diag([0.7, 0.3])), np.linspace(0.0, 2.0, 9),
                            dh_dt=lambda t: Operator.hermitian(0.05 * PAULI_Z))
        assert sum(members) == 17

    @pytest.mark.parametrize("temperature", [0.3, 1.0, math.inf, 0.0])
    def test_gibbs_reference_bitwise_gibbs_state(self, temperature):
        # a tabled generator's reference is the log of gibbs_state(H, beta),
        # bit for bit, from its own levels at a finite beta (T = inf is
        # beta = 0) and from gibbs_state itself at beta = inf (T = 0)
        rng = np.random.default_rng(11)
        for h in (qubit_h(1.3), random_hermitian(4, rng), oscillator(5)[0]):
            s_op = Operator.hermitian(np.diag(np.ones(h.dim - 1), k=1)
                                      + np.diag(np.ones(h.dim - 1), k=-1))
            bath = ohmic_bath("b", temperature)
            gen = build_davies(h, [(s_op, bath)])
            ref = lindblad._clipped_log(gibbs_state(h, bath.beta).mat)
            assert gen.log_gibbs_reference("b").tobytes() == ref.tobytes()

    def test_one_generator_stack_per_grid_step(self, monkeypatch):
        # each grid step builds its substep midpoints and its end as one
        # stack: a 41-point ramp with two substeps makes 40 stacks of 3
        # after the first point's stack of one, and on a coarse grid that is
        # refined a step's stack holds its n_sub midpoints and its end
        stacks = []
        original = lindblad._davies_stack

        def counting(hs, couplings):
            stacks.append(len(hs))
            return original(hs, couplings)

        monkeypatch.setattr(lindblad, "_davies_stack", counting)
        couplings = [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))]
        rho0 = DensityMatrix(np.diag([0.7, 0.3]))
        adiabatic_propagate(lambda t: qubit_h(1.0 + 0.1 * t), couplings, rho0,
                            np.linspace(0.0, 2.0, 41), substeps=2)
        assert stacks == [1] + [3] * 40
        stacks.clear()
        grid = np.linspace(0.0, 5.0, 4)  # far coarser than the Bohr period
        with pytest.warns(UserWarning, match="refining"):
            adiabatic_propagate(lambda t: qubit_h(5.0 + t), couplings, rho0, grid)
        # the Bohr frequency of qubit_h(w) is w
        n_sub = [math.ceil((b - a) / ((2 * math.pi / (5.0 + 0.5 * (a + b))) / 10.0))
                 for a, b in zip(grid, grid[1:])]
        assert min(n_sub) > 10
        assert stacks == [1] + [k + 1 for k in n_sub]

    def test_each_hamiltonian_diagonalised_once(self, monkeypatch):
        # one substep: a step's midpoint sets its Bohr cap and builds its
        # generator from one decomposition, so the generators of a 9-point
        # ramp diagonalise its first point and each step's midpoint and end
        # once: 17 Hamiltonians (trace 3, where a state's is 1), none twice,
        # counted wherever the package calls eigh or eigvalsh
        seen = []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

        def recording(fn):
            def wrapped(a, *args, **kwargs):
                if sys._getframe(1).f_globals["__name__"].startswith("qthermo."):
                    mats = np.asarray(a).reshape(-1, *np.shape(a)[-2:])
                    seen.extend(m.tobytes() for m in mats if abs(np.trace(m) - 3.0) < 1e-9)
                return fn(a, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", recording(eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", recording(eigvalsh))
        couplings = [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))]
        rho0 = DensityMatrix(np.diag([0.7, 0.3]))
        adiabatic_propagate(lambda t: Operator.hermitian(qubit_h(1.0 + t).mat + 1.5 * np.eye(2)),
                            couplings, rho0, np.linspace(0.0, 1.0, 9))
        assert len(seen) == 1 + 2 * 8
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("substeps, points", [(1, 9), (2, 41), (3, 70)])
    def test_ledger_bitwise_the_per_point_builds(self, substeps, points):
        couplings = [(Operator.hermitian(PAULI_X), ohmic_bath("c", 0.5, gamma=0.3)),
                     (Operator.hermitian(PAULI_X + 0.5 * PAULI_Z), ohmic_bath("h", 2.0))]

        def h_of_t(t):
            return Operator.hermitian(0.5 * (1.0 + 0.2 * t) * PAULI_Z + 0.1 * PAULI_X)

        rho0 = random_density(2, np.random.default_rng(5))
        grid = np.linspace(0.0, 3.0, points)
        got = adiabatic_propagate(h_of_t, couplings, rho0, grid, keep_states=True,
                                  substeps=substeps)
        ref = _per_point_ledger(h_of_t, couplings, rho0, grid, substeps)
        for col in ("energy", "power", "entropy", "entropy_production"):
            assert getattr(got, col).tobytes() == ref[col].tobytes()
        assert list(got.currents) == list(ref["currents"])
        for k, j in got.currents.items():
            assert j.tobytes() == ref["currents"][k].tobytes()
        assert [s.mat.tobytes() for s in got.states] == [r.tobytes() for r in ref["states"]]

    @pytest.mark.parametrize("substeps, member", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_a_collision_is_raised_where_the_loop_reads_it(self, monkeypatch, substeps,
                                                           member):
        # a generator of the step to the 5th grid time, a substep midpoint
        # or its end, collides: the four grid times before it are recorded
        # first, and a state check that fails at the 3rd grid time is the
        # error reported
        couplings = [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))]
        grid = np.linspace(0.0, 1.0, 9)
        rho0 = DensityMatrix(np.diag([0.7, 0.3]))
        stack, columns = lindblad._davies_stack, lindblad._ledger_columns
        recorded, built, fail_at = [], [], None

        def colliding(hs, cs):
            # stack k builds the step to grid time k, stack 0 grid time 0
            out = stack(hs, cs)
            built.append(len(hs))
            if len(built) == 1 + 4:
                out[member] = BohrResolutionError("collision before the 5th grid time")
            return out

        def checked(gen, rho, kept=None):
            recorded.append(gen)
            if len(recorded) == fail_at:
                raise ValueError("state check failed at the 3rd grid time")
            return columns(gen, rho, kept)

        monkeypatch.setattr(lindblad, "_davies_stack", colliding)
        monkeypatch.setattr(lindblad, "_ledger_columns", checked)

        def run():
            adiabatic_propagate(lambda t: qubit_h(1.0 + t), couplings, rho0, grid,
                                substeps=substeps)

        with pytest.raises(BohrResolutionError, match="5th grid time"):
            run()
        assert len(recorded) == 4 and built == [1] + [substeps + 1] * 4
        recorded.clear()
        built.clear()
        fail_at = 3
        with pytest.raises(ValueError, match="3rd grid time"):
            run()

    def test_coarse_grid_warns_and_refines(self):
        bath = ohmic_bath("b", 1.0)
        sx = Operator.hermitian(PAULI_X)
        grid = np.linspace(0.0, 5.0, 4)  # far coarser than the Bohr period
        with pytest.warns(UserWarning, match="refining"):
            adiabatic_propagate(lambda t: qubit_h(5.0), [(sx, bath)],
                                DensityMatrix.maximally_mixed(2), grid)


def test_generator_diagonalises_its_hamiltonian_once(monkeypatch):
    # build_davies diagonalises H in its batched eigh and H keeps the
    # decomposition: the stationary solve, the audit, the Gibbs reference
    # and eig_hermitian(gen.h) read it and diagonalise nothing more
    h = Operator.hermitian(np.diag([0.0, 1.0, 2.5]))
    ref_evals, ref_v = eigh_oracle(h.mat)
    calls = count_decompositions(monkeypatch)
    a = np.diag([1.0, 1.0], k=1)
    gen = build_davies(h, [(Operator.hermitian(a + a.T), ohmic_bath("b", 1.0))])
    stationary_state(gen)
    davies_audit(gen)
    gen.log_gibbs_reference("b")
    evals, v = eig_hermitian(gen.h)
    assert calls == [1]
    assert evals.tobytes() == ref_evals.tobytes() and v.mat.tobytes() == ref_v.tobytes()
    assert gen.h.eigh()[0] is evals
    assert not evals.flags.writeable and not v.mat.flags.writeable
    # a generator built from explicit channels on a fresh copy of H
    # diagonalises it on first use, once; it is solved on its whole
    # Liouvillian, the Davies generator on its sector from the tables
    direct = GKLSGenerator(Operator.hermitian(h.mat), gen.channels, baths=gen.baths)
    assert calls == [1]
    direct.log_gibbs_reference("b")
    assert direct.h.eigh() is direct.h.eigh()
    assert calls == [1, 1]
    assert direct.h.eigh()[0].tobytes() == ref_evals.tobytes()
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

    def test_one_level_group_lists_no_pairs(self, monkeypatch):
        # a flat spectrum puts the d^2 elements of a coupling in one bin, d^4
        # pairs; one level group is never certified, so none are listed and
        # the whole Liouvillian says that the state is not unique
        listed, bin_pairs = [], lindblad._bin_pairs
        monkeypatch.setattr(lindblad, "_bin_pairs",
                            lambda *tables: listed.append(bin_pairs(*tables)) or listed[-1])
        rng = np.random.default_rng(5)
        gen = build_davies(Operator.hermitian(np.eye(12)),
                           [(random_hermitian(12, rng), ohmic_bath("b", 1.0))])
        with pytest.raises(ValueError, match="not unique"):
            stationary_state(gen)
        assert [len(w) for *_, w in listed] == [0]

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
        channels = (harmonic_decompose(dec, lower, 6, [cold])
                    + harmonic_decompose(dec, upper, 6, [hot]))
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


def _dense_closure(ops):
    """Dense oracle: the index pairs reached from the diagonal ones under
    the nonzero patterns P of the channels, (x, y) feeding (a, b) when
    P[a, x] and P[b, y], grown until nothing changes."""
    mag = np.abs(ops)
    pat = (mag > lindblad._PATTERN_REL * mag.max(axis=(1, 2), keepdims=True)).astype(int)
    reach = np.eye(ops.shape[-1], dtype=bool)
    while True:
        grown = reach | (pat @ reach.astype(int) @ pat.swapaxes(-1, -2) > 0).any(axis=0)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


class TestBinPairsAgainstDenseChannelSums:
    """Every reading of the tables through ``_bin_pairs`` against sums over
    the channel operators of ``_table_ops``, member by member."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(["degenerate", "near-degenerate", "equal-gap", "flat"]),
                    min_size=1, max_size=3),
           st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=5),
           st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3),
           st.booleans(), st.integers(min_value=0, max_value=10 ** 9))
    def test_every_reading_matches_dense_sums(self, spectra, picks, d, n_baths, sparse, seed):
        # sparse: diagonal Hamiltonians and couplings with few nonzero
        # entries, whose closures take several steps through degenerate levels
        rng = np.random.default_rng(seed)
        hs = []
        for spectrum in spectra:
            u = np.eye(d) if sparse else random_unitary(d, rng).mat
            evals = np.zeros(d) if spectrum == "flat" else _spectrum(rng, d, spectrum)
            hs.append(Operator.hermitian(u @ np.diag(evals) @ u.conj().T))
        # a stack with repeated members, and couplings that may share a bath
        baths = [ohmic_bath("a", 0.7), ohmic_bath("b", 2.0)]
        couplings = []
        for _ in range(n_baths):
            c = random_hermitian(d, rng).mat
            if sparse:
                keep = np.triu(rng.random((d, d)) < 0.3, 1)
                c = np.where(keep | keep.T, c, 0.0)
            couplings.append((Operator.hermitian(c), baths[int(rng.integers(2))]))
        built = [g for g in _davies_stack([hs[i % len(hs)] for i in picks], couplings)
                 if isinstance(g, GKLSGenerator)]
        if not built:
            return
        s, bins, rates, evals, v = lindblad._stacked_tables(built)
        n = len(built)
        pairs = lindblad._bin_pairs(s, bins, rates)
        eye = np.broadcast_to(np.eye(d), (n, d, d))
        x = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
        g_e = lindblad._jump_map(pairs, eye, adjoint=True)
        readings = [g_e, lindblad._jump_map(pairs, eye), lindblad._jump_map(pairs, x),
                    lindblad._jump_map(pairs, x, adjoint=True)]
        # one level group per member: the sectors alone, no certificate
        reach, _ = lindblad._certified_sectors(s, bins, np.zeros((n, d), dtype=int), pairs, g_e)
        # the sectors, the pairs within level groups that the commutant form
        # reads, and random sets of pairs holding the diagonal
        tol = LEVEL_MERGE_REL * np.maximum(np.ptp(evals, axis=1), 1.0)[:, None, None]
        masks = [reach, np.abs(evals[:, :, None] - evals[:, None, :]) <= tol,
                 (rng.random((n, d, d)) < 0.5) | np.eye(d, dtype=bool)]
        blocks = {}
        for k, mask in enumerate(masks):
            for sel, rows, cols, jumps in lindblad._blocks(pairs, mask, np.arange(n)):
                for j, listed in zip(sel, zip(rows, cols, jumps)):
                    blocks[k, j] = listed
        labels, qs = _table_heat_observables(built)

        def close(got, ref):
            return np.max(np.abs(got - ref), initial=0.0) <= ALGEBRAIC * max(
                1.0, float(np.max(np.abs(ref), initial=0.0)))

        for j, gen in enumerate(built):
            ops, r = lindblad._table_ops(gen._tables)
            dag = ops.conj().swapaxes(-1, -2)
            ref = [np.einsum("k,kij->ij", r, dag @ ops), np.einsum("k,kij->ij", r, ops @ dag),
                   np.einsum("k,kij->ij", r, ops @ x[j] @ dag),
                   np.einsum("k,kij->ij", r, dag @ x[j] @ ops)]
            for got, want in zip(readings, ref):
                assert close(got[j], want)
            assert np.array_equal(reach[j], _dense_closure(ops))
            # the jump superoperator on column-stacked vectors
            sup = np.einsum("k,kij->ij", r, np.array([np.kron(o.conj(), o) for o in ops])
                            .reshape(-1, d * d, d * d))
            for k, mask in enumerate(masks):
                rows, cols, block = blocks[k, j]
                idx = cols * d + rows
                assert np.array_equal(idx, np.flatnonzero(mask[j].ravel(order="F")))
                assert close(block, sup[np.ix_(idx, idx)])
            ch_labels = [lb for lb, rr in zip(gen._tables.labels, gen._tables.bin_rates)
                         for _ in rr]
            e = np.diag(evals[j])
            for label, q in zip(labels, qs[j]):
                mine = np.array([lb == label for lb in ch_labels], dtype=bool)
                vk, rk = ops[mine], r[mine]
                vd = vk.conj().swapaxes(-1, -2)
                gk = np.einsum("k,kij->ij", rk, vd @ vk)
                q_e = np.einsum("k,kij->ij", rk, vd @ e @ vk) - 0.5 * (gk @ e + e @ gk)
                assert close(q, v[j] @ q_e @ v[j].conj().T)


def _tables_bits(t):
    return (t.labels, t.s_e.tobytes(), t.bins.tobytes(), t.rates.tobytes(),
            [np.array(f).tobytes() for f in t.freqs], [np.array(r).tobytes() for r in t.bin_rates])


def _recording_draws(monkeypatch):
    """Patch the rate draws of ``_stack_tables`` to record, per call, the
    bath and the bits of each frequency drawn."""
    calls = []
    original = lindblad.spectral_density

    def recording(omega, spec):
        calls.append([(spec, w.tobytes()) for w in np.atleast_1d(omega)])
        return original(omega, spec)

    monkeypatch.setattr(lindblad, "spectral_density", recording)
    return calls


class TestStackOfCarriedDecompositions:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=4),
           st.lists(st.tuples(st.integers(min_value=0, max_value=2**32 - 1),
                              st.sampled_from(["fresh", "decomposed", "in a stack", "repeated"])),
                    min_size=1, max_size=6))
    def test_mixed_members_have_the_bits_of_their_builds_alone(self, d, members):
        # members diagonalised before the stack (alone, or in a stack of
        # their own), fresh ones and a repeated object, at any positions:
        # each generator has the bits of building a fresh copy of its
        # Hamiltonian alone, and each Hamiltonian keeps the oracle's bits
        rng = np.random.default_rng(d)
        couplings = [(random_hermitian(d, rng), ohmic_bath("a", 1.0)),
                     (Operator.hermitian(np.diag(np.arange(d, dtype=float))), ohmic_bath("b", 0.4))]
        hs, batch = [], []
        for seed, made in members:
            h = hs[-1] if made == "repeated" and hs else random_hermitian(
                d, np.random.default_rng(seed))
            if made == "decomposed":
                h.eigh()
            elif made == "in a stack":
                batch.append(h)
            hs.append(h)
        if batch:
            operators._eigh_stack(batch)
        gens = _davies_stack(hs, couplings)
        for h, gen in zip(hs, gens):
            (alone,) = _davies_stack([Operator.hermitian(h.mat)], couplings)
            assert [x.tobytes() for x in h.eigh()] == [x.tobytes() for x in eigh_oracle(h.mat)]
            if isinstance(alone, BohrResolutionError):
                assert isinstance(gen, BohrResolutionError) and str(gen) == str(alone)
                continue
            assert _tables_bits(gen._tables) == _tables_bits(alone._tables)
            assert [ch.op.tobytes() for ch in gen.channels] == \
                [ch.op.tobytes() for ch in alone.channels]
            assert gen.liouvillian().mat.tobytes() == alone.liouvillian().mat.tobytes()
            assert gen.log_gibbs_reference("b").tobytes() == \
                alone.log_gibbs_reference("b").tobytes()


class TestStackTablesMemberByMember:
    def test_mixed_group_counts_and_a_collision(self, monkeypatch):
        # members with 4, 2, 4 and 1 level groups and a repeated member, with
        # a Bohr collision in the middle on the second coupling: each
        # member's tables, or its error, are those of its own stack of one,
        # and the stack draws the (bath, gap) rates those stacks draw, one
        # array per bath; the collided member draws none from its second
        # coupling on
        rng = np.random.default_rng(5)
        d = 4

        def rotated(evals):
            u = random_unitary(d, rng).mat
            return Operator.hermitian(u @ np.diag(evals) @ u.conj().T)

        generic = rotated(np.sort(rng.normal(size=d)))
        hs = [generic, rotated([0.0, 0.0, 1.3, 1.3]),
              Operator.hermitian(np.diag([0.0, 1.0, 2.0 + 1e-7, 3.0])), generic,
              Operator.hermitian(0.7 * np.eye(d))]
        edge = np.zeros((d, d))
        edge[0, 3] = edge[3, 0] = 1.0
        couplings = [(Operator.hermitian(edge), ohmic_bath("a", 1.0)),
                     (random_hermitian(d, rng), ohmic_bath("b", 2.0)),
                     (random_hermitian(d, rng), ohmic_bath("a", 1.0))]
        calls = _recording_draws(monkeypatch)
        gens = _davies_stack(hs, couplings)
        stack_calls, single_calls = list(calls), []
        for h, gen in zip(hs, gens):
            calls.clear()
            (single,) = _davies_stack([h], couplings)
            single_calls.append(sum(calls, []))
            if isinstance(single, BohrResolutionError):
                assert isinstance(gen, BohrResolutionError) and str(gen) == str(single)
                assert "coupling to bath 'b'" in str(gen)
            else:
                assert _tables_bits(gen._tables) == _tables_bits(single._tables)
        assert [type(g).__name__ for g in gens] == ["GKLSGenerator", "GKLSGenerator",
                                                    "BohrResolutionError", "GKLSGenerator",
                                                    "GKLSGenerator"]
        # one array per distinct bath, holding what the members alone draw
        assert [{spec for spec, _ in call} for call in stack_calls] == [
            {couplings[0][1]}, {couplings[1][1]}]
        assert set(sum(stack_calls, [])) == set(sum(single_calls, []))
        # alone, the colliding member draws the rates of its first coupling
        # and stops at its second
        assert single_calls[2] == [(couplings[0][1], np.float64(w).tobytes())
                                   for w in (-3.0, 3.0)]

    def test_members_with_their_own_baths(self, monkeypatch):
        # five members, each with its own baths: one label at two
        # temperatures, a bath repeated as an equal copy, a member whose
        # two couplings share a bath, and a Bohr collision.  Each member's
        # generator has the bits, the registered baths and the error of
        # building it alone, and the stack draws the (bath, gap) rates
        # those builds draw, one array per distinct bath
        rng = np.random.default_rng(11)
        d = 4
        u = random_unitary(d, rng).mat
        generic = Operator.hermitian(u @ np.diag([0.0, 0.7, 1.9, 3.2]) @ u.conj().T)
        colliding = Operator.hermitian(np.diag([0.0, 1.0, 2.0 + 1e-7, 3.0]))
        hs = [generic, generic, colliding, generic, generic]
        ops = [random_hermitian(d, rng), random_hermitian(d, rng)]
        a1, a3, b2 = ohmic_bath("a", 1.0), ohmic_bath("a", 0.3), ohmic_bath("b", 2.0)
        baths = [(a1, b2), (a3, b2), (a1, b2), (replace(a1), b2), (a1, a1)]
        calls = _recording_draws(monkeypatch)
        couplings = [(op, b2) for op in ops]  # the pairs' own baths are replaced
        gens = _davies_stack(hs, couplings, baths)
        stack_calls, single_calls = list(calls), []
        for h, member, gen in zip(hs, baths, gens):
            calls.clear()
            (single,) = _davies_stack([h], list(zip(ops, member)))
            single_calls.append(sum(calls, []))
            if isinstance(single, BohrResolutionError):
                assert isinstance(gen, BohrResolutionError) and str(gen) == str(single)
            else:
                assert _tables_bits(gen._tables) == _tables_bits(single._tables)
                assert gen.baths == single.baths == {bath.label: bath for bath in member}
                assert gen.liouvillian().mat.tobytes() == single.liouvillian().mat.tobytes()
        assert [type(g).__name__ for g in gens] == ["GKLSGenerator", "GKLSGenerator",
                                                    "BohrResolutionError", "GKLSGenerator",
                                                    "GKLSGenerator"]
        assert gens[0].baths["a"].temperature == 1.0 and gens[1].baths["a"].temperature == 0.3
        assert [{spec for spec, _ in call} for call in stack_calls] == [{a1}, {b2}, {a3}]
        assert set(sum(stack_calls, [])) == set(sum(single_calls, []))

    def test_a_pole_raises_the_error_of_the_first_bin_met(self):
        # coupling 0 has no diagonal, so no zero-frequency bin, and its flat
        # bosonic bath draws no pole; coupling 1's sub-ohmic bath is the
        # first to draw omega = 0, then coupling 2's flat bath.  The bins
        # met in (member, coupling, frequency) order raise the sub-ohmic
        # pole, though the flat bath comes first among the stack's baths
        rng = np.random.default_rng(3)
        d = 3
        u = random_unitary(d, rng).mat
        hs = [Operator.hermitian(u @ np.diag([0.0, 0.7, 1.9]) @ u.conj().T)] * 2
        edge = np.zeros((d, d))
        edge[0, 2] = edge[2, 0] = 1.0
        flat = BathSpec(label="f", temperature=1.0, form_factor="flat", gamma=0.2)
        sub = BathSpec(label="s", temperature=1.0, form_factor="power", exponent=0.5)
        diagonal = Operator.hermitian(np.diag([0.3, -0.2, 0.5]))
        for couplings, message in (
                ([(Operator.hermitian(u @ edge @ u.conj().T), flat), (diagonal, sub),
                  (diagonal, flat)], "sub-ohmic bosonic bath diverges at omega = 0"),
                ([(Operator.hermitian(u @ edge @ u.conj().T), sub), (diagonal, flat),
                  (diagonal, sub)], "flat bosonic bath diverges at omega = 0")):
            for stack in (hs[:1], hs):
                with pytest.raises(ValueError) as err:
                    _davies_stack(stack, couplings)
                assert str(err.value).startswith(message)

    def test_label_clash_checked_per_member(self):
        # one label at two temperatures in two members is two baths; in one
        # member it is a clash
        h = Operator.hermitian(np.diag([0.0, 1.0]))
        ops = [Operator.hermitian(PAULI_X), Operator.hermitian(PAULI_X)]
        a1, a3 = ohmic_bath("a", 1.0), ohmic_bath("a", 0.3)
        couplings = [(op, a1) for op in ops]
        assert len(_davies_stack([h, h], couplings, [(a1, a1), (a3, a3)])) == 2
        with pytest.raises(ValueError, match="two different baths share the label 'a'"):
            _davies_stack([h, h], couplings, [(a1, a1), (a1, a3)])
        with pytest.raises(ValueError, match="one bath per coupling"):
            _davies_stack([h, h], couplings, [(a1, a1)])


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
    (tables,) = _stack_tables(h_evals[None], s_e[None], [[bath for _, bath in couplings]])
    if isinstance(tables, BohrResolutionError):
        raise tables
    return _table_channels(tables, basis)


def _loop_coupling_channels(h_evals, basis, s_op, bath):
    """Element-by-element block collection kept as the reference for the
    vectorised ``_coupling_channels``."""
    s_e = basis.conj().T @ s_op.mat @ basis
    groups = loop_group_degenerate(h_evals)
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
    bins = loop_group_degenerate(gaps, tol=merge_tol)
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
        assert ledger_csv(kept) == ledger_csv(led)


    def test_kept_states_are_checked_once(self, monkeypatch):
        # the stacked check that hands out the kept states also hands the
        # ledger its spectra: one check per block of 64, as without states
        gen = build_davies(qubit_h(), [(Operator.hermitian(PAULI_X), ohmic_bath("b", 1.0))])
        rho0 = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
        grid = np.linspace(0.0, 5.0, 100)
        sizes, checks = [], operators._state_checks

        def counting(stack, vectors=False):
            sizes.append(len(stack))
            return checks(stack, vectors)

        monkeypatch.setattr(operators, "_state_checks", counting)
        led = trajectory(gen, rho0, grid)
        assert sizes == [64, 36]
        sizes.clear()
        kept = trajectory(gen, rho0, grid, keep_states=True)
        assert sizes == [64, 36]
        for name in ("energy", "entropy", "entropy_production", "power"):
            assert getattr(kept, name).tobytes() == getattr(led, name).tobytes()
        assert {k: v.tobytes() for k, v in kept.currents.items()} == \
            {k: v.tobytes() for k, v in led.currents.items()}
        assert len(kept.states) == 100
        assert all(not s.mat.flags.writeable and s.mat.flags.c_contiguous for s in kept.states)
        monkeypatch.undo()
        again = DensityMatrix.stack(np.array([s.mat for s in kept.states]))
        assert [s.mat.tobytes() for s in again] == [s.mat.tobytes() for s in kept.states]

def _per_point_ledger(h_of_t, couplings, rho0, grid, substeps):
    """adiabatic_propagate's ledger with one build_davies per substep and
    per grid point, on a grid that needs no refinement."""
    n = len(grid)
    cols = {k: np.zeros(n) for k in ("energy", "power", "entropy", "entropy_production")}
    currents = {bath.label: np.zeros(n) for _, bath in couplings}
    states = []
    rho = rho0.mat

    def record(i, t):
        gen = build_davies(h_of_t(t), couplings)
        row = slice(i, i + 1)
        cols["energy"][row], cols["entropy"][row], cols["entropy_production"][row], js = \
            lindblad._ledger_columns(gen, rho[None])
        for k, j in js.items():
            currents[k][row] = j
        eps = max(1e-7, 1e-7 * abs(t))
        lo, span = (h_of_t(t - eps), 2 * eps) if t - eps >= grid[0] else (h_of_t(t), eps)
        cols["power"][i] = -float(np.real(np.trace(rho @ ((h_of_t(t + eps).mat - lo.mat) / span))))
        states.append(rho)

    record(0, grid[0])
    for i in range(1, n):
        sub = np.linspace(grid[i - 1], grid[i], substeps + 1)
        for j in range(substeps):
            gen = build_davies(h_of_t(0.5 * (sub[j] + sub[j + 1])), couplings)
            m = scipy.linalg.expm(gen.liouvillian().mat * (sub[j + 1] - sub[j]))
            out = unvec(m @ vec(rho), rho0.dim)
            rho = (out + out.conj().T) / 2.0
        record(i, grid[i])
    return {**cols, "currents": currents, "states": states}


class TestWholeFixedPointBorders:
    """The trace row of a whole-space bordered solve is scaled to the
    largest of L's entries, the coherent spread and max |G| for a
    generator, and to the largest entry of U - I for a cycle map."""

    @pytest.fixture
    def borders(self, monkeypatch):
        seen = []

        def recording(kernel, diag, border, degenerate):
            seen.append(border)
            return _bordered_fixed_point(kernel, diag, border, degenerate)

        monkeypatch.setattr(lindblad, "_bordered_fixed_point", recording)
        return seen

    @staticmethod
    def _generator():
        # a projector at rate 1 and a decay at rate 0.1: max |G| = 1 is
        # above every entry of L, the largest of which is 0.55
        proj = JumpChannel("b", 0.0, np.diag([1.0, 0.0]), 1.0)
        decay = JumpChannel("b", 0.0, SIGMA_MINUS, 0.1)
        return GKLSGenerator(Operator.hermitian(np.zeros((2, 2))), [proj, decay])

    def test_generator_border_follows_g_where_it_exceeds_l(self, borders):
        gen = self._generator()
        assert np.max(np.abs(gen.liouvillian().mat)) == pytest.approx(0.55)
        rho = stationary_state(gen)
        assert borders == [1.0]
        assert np.max(np.abs(gen.liouvillian().apply_matrix(rho.mat))) < 1e-12

    def test_cycle_map_border_is_the_largest_entry_of_u_less_i(self, borders):
        from qthermo.machines import find_limit_cycle

        u = matexp(self._generator().liouvillian(), 2.0)
        find_limit_cycle(u)
        assert borders == pytest.approx([np.max(np.abs(u.mat - np.eye(4)))], rel=1e-12)
