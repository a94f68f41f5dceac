import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo.operators import (
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    Operator,
    Superoperator,
    eig_hermitian,
    expect,
    random_density,
    random_hermitian,
)
from qthermo.machines import _transfer_maps
from qthermo.states import (
    diagonal_vs_microcanonical,
    ergotropy,
    gibbs_state,
    heisenberg_chain,
    is_completely_passive,
    is_passive,
    kms_check,
    relative_entropy,
    shannon_entropy_in_basis,
    site_operator,
    two_point_correlation,
    von_neumann_entropy,
)
from qthermo.tolerances import ALGEBRAIC, LEVEL_MERGE_REL

from models import loop_group_degenerate, random_unitary


class TestEntropies:
    def test_pure_state_zero(self, rng):
        psi = DensityMatrix.pure(rng.normal(size=5) + 1j * rng.normal(size=5))
        assert von_neumann_entropy(psi) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(DensityMatrix.maximally_mixed(4)) == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_matches_eigenvalue_shannon(self, rng):
        rho = random_density(3, rng)
        lam = np.linalg.eigvalsh(rho.mat)
        oracle = -sum(x * math.log(x) for x in lam if x > 0)
        assert von_neumann_entropy(rho) == pytest.approx(oracle, abs=1e-12)

    def test_shannon_equals_vn_when_diagonal(self, rng):
        h = random_hermitian(4, rng)
        rho = gibbs_state(h, 0.7)
        assert shannon_entropy_in_basis(rho, h) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )

    def test_plus_state_in_z_basis(self):
        rho = DensityMatrix.pure([1.0, 1.0])
        assert shannon_entropy_in_basis(rho, Operator.hermitian(PAULI_Z)) == pytest.approx(
            math.log(2), abs=1e-12
        )

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_measurement_entropy_bound(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        rho = random_density(d, rng)
        a = random_hermitian(d, rng)
        assert shannon_entropy_in_basis(rho, a) >= von_neumann_entropy(rho) - 1e-9


class TestRelativeEntropy:
    def test_self_is_zero(self, rng):
        rho = random_density(4, rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_scalar_example(self):
        # direct evaluation: 0.75 ln 1.5 + 0.25 ln 0.5
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        sigma = DensityMatrix.maximally_mixed(2)
        oracle = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert oracle == pytest.approx(0.1308122, abs=1e-6)
        assert relative_entropy(rho, sigma) == pytest.approx(oracle, abs=1e-12)

    def test_disjoint_support_infinite(self):
        rho = DensityMatrix.pure([1.0, 0.0])
        sigma = DensityMatrix.pure([0.0, 1.0])
        assert relative_entropy(rho, sigma) == math.inf

    def test_nonnegative(self, rng):
        rho, sigma = random_density(3, rng), random_density(3, rng)
        assert relative_entropy(rho, sigma) >= -1e-10


class TestGibbs:
    def test_qubit_ratio_three(self):
        h = Operator.hermitian(np.diag([0.0, 1.0]))
        rho = gibbs_state(h, math.log(3.0))
        assert np.allclose(np.diag(rho.mat).real, [0.75, 0.25], atol=1e-12)

    def test_beta_zero_maximally_mixed(self, rng):
        h = random_hermitian(5, rng)
        rho = gibbs_state(h, 0.0)
        assert np.allclose(rho.mat, np.eye(5) / 5, atol=1e-12)

    def test_oscillator_partition_sum(self):
        d, beta, omega = 12, 1.0, 1.0
        h = Operator.hermitian(omega * np.diag(np.arange(d, dtype=float)))
        rho = gibbs_state(h, beta)
        z = sum(math.exp(-beta * omega * n) for n in range(d))
        expected = [math.exp(-beta * omega * n) / z for n in range(d)]
        assert np.allclose(np.diag(rho.mat).real, expected, atol=1e-12)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            gibbs_state(Operator.hermitian(PAULI_Z), -1.0)

    def test_grand_canonical_population_ratios(self, rng):
        # H and N share a random eigenbasis; in it the populations go as
        # exp(-beta (E - mu N))
        u = random_unitary(4, rng).mat
        e = np.array([0.0, 0.7, 1.1, 1.9])
        n = np.array([0.0, 1.0, 1.0, 2.0])
        h = Operator.hermitian(u @ np.diag(e) @ u.conj().T)
        num = Operator.hermitian(u @ np.diag(n) @ u.conj().T)
        beta, mu = 1.3, 0.4
        rho = gibbs_state(h, beta, mu=mu, number_op=num)
        pops = np.real(np.diag(u.conj().T @ rho.mat @ u))
        expected = np.exp(-beta * ((e - e[0]) - mu * (n - n[0])))
        assert np.allclose(pops / pops[0], expected, rtol=1e-10, atol=0.0)
        assert pops.sum() == pytest.approx(1.0, abs=1e-12)

    def test_chemical_potential_needs_number_operator(self):
        with pytest.raises(ValueError, match="number operator"):
            gibbs_state(Operator.hermitian(PAULI_Z), 1.0, mu=0.3)

    def test_noncommuting_number_operator_rejected(self):
        num = Operator.hermitian((np.eye(2) + PAULI_X) / 2.0)
        with pytest.raises(ValueError, match=r"\[H, N\] != 0"):
            gibbs_state(Operator.hermitian(PAULI_Z), 1.0, mu=0.3, number_op=num)

    def test_commutes_with_h(self, rng):
        h = random_hermitian(4, rng)
        rho = gibbs_state(h, 0.8)
        comm = rho.mat @ h.mat - h.mat @ rho.mat
        assert np.max(np.abs(comm)) < 1e-10

    def test_entropy_maximiser_at_fixed_energy(self, rng):
        # mix random states toward the maximally mixed state to match the
        # thermal energy, then compare entropies
        h = random_hermitian(3, rng)
        beta = 0.15
        rho_b = gibbs_state(h, beta)
        e_target = expect(rho_b, h)
        e_mixed = expect(DensityMatrix.maximally_mixed(3), h)
        wins = 0
        for _ in range(200):
            rho = random_density(3, rng, rank=1)
            e = expect(rho, h)
            # convex mix with I/d solves energy matching when bracketing
            denom = e - e_mixed
            if abs(denom) < 1e-12:
                continue
            lam = (e_target - e_mixed) / denom
            if not 0.0 <= lam <= 1.0:
                continue
            mixed = DensityMatrix(lam * rho.mat + (1 - lam) * np.eye(3) / 3)
            assert expect(mixed, h) == pytest.approx(e_target, abs=1e-10)
            assert von_neumann_entropy(mixed) <= von_neumann_entropy(rho_b) + 1e-9
            wins += 1
        assert wins > 40


class TestDephase:
    """The pinch onto the eigenbasis of H that ``dephase_after_adiabats``
    applies: for a nondegenerate H, the infinite-time average of the
    unitary orbit."""

    @staticmethod
    def _pinch(rho, h):
        v = np.linalg.eigh(h.mat)[1]
        return Superoperator(_transfer_maps(v, v)).apply(rho)

    def test_diagonal_state_unchanged(self, rng):
        h = random_hermitian(4, rng)
        rho = gibbs_state(h, 1.1)
        out = self._pinch(rho, h)
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-12

    def test_pure_state_diagonal_weights(self, rng):
        h = random_hermitian(4, rng)
        evals, v = np.linalg.eigh(h.mat)
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        c /= np.linalg.norm(c)
        psi = DensityMatrix.pure(v @ c)
        out = self._pinch(psi, h)
        pops = np.real(np.diag(v.conj().T @ out.mat @ v))
        assert np.allclose(pops, np.abs(c) ** 2, atol=1e-12)
        offdiag = v.conj().T @ out.mat @ v - np.diag(np.diag(v.conj().T @ out.mat @ v))
        assert np.max(np.abs(offdiag)) < 1e-12

    def test_entropy_never_decreases(self, rng):
        h = random_hermitian(5, rng)
        rho = random_density(5, rng)
        assert von_neumann_entropy(self._pinch(rho, h)) >= von_neumann_entropy(rho) - 1e-10

    def test_relative_entropy_contracts(self, rng):
        # the pinch is a CP map, so relative entropy cannot grow
        h = random_hermitian(4, rng)
        rho, sigma = random_density(4, rng), random_density(4, rng)
        before = relative_entropy(rho, sigma)
        after = relative_entropy(self._pinch(rho, h), self._pinch(sigma, h))
        assert after <= before + 1e-9


class TestPassivityErgotropy:
    def test_gibbs_is_passive_zero_ergotropy(self, rng):
        h = random_hermitian(4, rng)
        rho = gibbs_state(h, 1.3)
        assert is_passive(rho, h)
        work, _ = ergotropy(rho, h)
        assert abs(work) < 1e-10

    def test_inverted_qubit(self):
        h = Operator.hermitian(np.diag([0.0, 1.0]))
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        assert not is_passive(rho, h)
        work, passive = ergotropy(rho, h)
        assert work == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(np.diag(passive.mat).real, [0.75, 0.25])

    def test_brute_force_permutation_oracle(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 5))
            h = random_hermitian(d, rng)
            rho = random_density(d, rng)
            work, _ = ergotropy(rho, h)
            evals_h = np.linalg.eigvalsh(h.mat)
            lam = np.linalg.eigvalsh(rho.mat)
            best = min(
                float(np.dot(evals_h, perm))
                for perm in itertools.permutations(lam)
            )
            oracle = expect(rho, h) - best
            assert work == pytest.approx(oracle, abs=1e-10)
            assert work >= -1e-10

    def test_passive_iff_zero_ergotropy(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 5))
            h = random_hermitian(d, rng)
            rho = random_density(d, rng)
            work, passive = ergotropy(rho, h)
            assert is_passive(passive, h)
            assert is_passive(rho, h) == (work <= 1e-10 * max(1.0, np.max(np.abs(h.mat))))


class TestCompletePassivity:
    def test_gibbs_completely_passive(self):
        h = Operator.hermitian(np.diag([0.0, 1.0]))
        rho = gibbs_state(h, 0.8)
        assert is_completely_passive(rho, h, 3)

    def test_nongibbs_passive_fails_at_n2(self):
        # uniform mixture over the lowest two of three unevenly spaced
        # levels: passive, but E(0)+E(2) < E(1)+E(1) exposes it at n = 2
        h = Operator.hermitian(np.diag([0.0, 1.0, 1.7]))
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
        assert is_passive(rho, h)
        assert not is_completely_passive(rho, h, 3)

    def test_ground_state_always_passive(self):
        h = Operator.hermitian(np.diag([0.0, 1.0, 2.5]))
        rho = DensityMatrix.pure([1.0, 0.0, 0.0])
        assert is_completely_passive(rho, h, 3)

    def test_dimension_cap(self):
        h = Operator.hermitian(np.diag(np.arange(9.0)))
        rho = gibbs_state(h, 1.0)
        with pytest.raises(ValueError, match="feasible"):
            is_completely_passive(rho, h, 5)

    def test_brute_force_oracle_n2(self, rng):
        # sorted-spectrum criterion against explicit tensor construction
        h = Operator.hermitian(np.diag([0.0, 1.0, 1.7]))
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
        h2 = Operator.hermitian(
            np.kron(h.mat, np.eye(3)) + np.kron(np.eye(3), h.mat)
        )
        rho2 = DensityMatrix(np.kron(rho.mat, rho.mat))
        assert not is_passive(rho2, h2)


def _loop_two_point_correlation(h, beta, a, b):
    """Block-by-block reference of two_point_correlation: each level block
    summed entry by entry, and equal gaps merged line by line."""
    evals, v = eig_hermitian(h)
    v = v.mat
    rho = gibbs_state(h, beta)
    p = np.real(np.diag(v.conj().T @ rho.mat @ v))
    a_e = v.conj().T @ a.mat @ v
    b_e = v.conj().T @ b.mat @ v
    groups = loop_group_degenerate(evals)
    centers = [float(np.mean(evals[g])) for g in groups]
    lines = []
    for gi, g_row in enumerate(groups):
        for gj, g_col in enumerate(groups):
            block = 0.0 + 0.0j
            for m in g_row:
                for n in g_col:
                    block += p[m] * a_e[m, n] * b_e[n, m]
            if abs(block) > 0.0:
                lines.append((centers[gj] - centers[gi], block))
    merged = {}
    spread = max(float(evals.max() - evals.min()), 1.0)
    for w, amp in lines:
        for wm in merged:
            if abs(w - wm) <= LEVEL_MERGE_REL * spread:
                merged[wm] += amp
                break
        else:
            merged[w] = amp
    ws = np.array(sorted(merged))
    amps = np.array([merged[w] for w in ws])
    keep = np.abs(amps) > 1e-14 * max(1.0, float(np.max(np.abs(amps))))
    return ws[keep], amps[keep]


class TestCorrelations:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=5),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_degenerate_ladder_matches_block_loop(self, multiplicity, seed):
        # an equally spaced ladder with degenerate rungs, in a random basis:
        # many level pairs share one gap
        rng = np.random.default_rng(seed)
        evals = np.repeat(rng.choice([0.5, 1.0, 1.3]) * np.arange(len(multiplicity)),
                          multiplicity)
        u = random_unitary(len(evals), rng).mat
        h = Operator.hermitian(u @ np.diag(evals) @ u.conj().T)
        a = random_hermitian(len(evals), rng)
        b = a if rng.random() < 0.5 else random_hermitian(len(evals), rng)
        beta = float(rng.uniform(0.1, 3.0))
        series = two_point_correlation(h, beta, a, b)
        ws, amps = _loop_two_point_correlation(h, beta, a, b)
        assert series.omegas.shape == ws.shape
        assert np.max(np.abs(series.omegas - ws)) <= ALGEBRAIC
        assert np.max(np.abs(series.amplitudes - amps)) <= ALGEBRAIC

    def test_conserved_observable_static(self, rng):
        h = random_hermitian(3, rng)
        series = two_point_correlation(h, 1.0, h, h)
        assert len(series.omegas) == 1
        assert series.omegas[0] == pytest.approx(0.0, abs=1e-12)

    def test_qubit_amplitude_ratio(self):
        h = Operator.hermitian(np.diag([0.0, 1.0]))
        beta = 1.0
        sx = Operator.hermitian(PAULI_X)
        series = two_point_correlation(h, beta, sx, sx)
        amps = dict(zip(np.round(series.omegas, 9), np.abs(series.amplitudes)))
        assert set(amps) == {-1.0, 1.0}
        # explicit 2x2 evaluation: the +omega line carries the ground
        # population, the -omega line the excited one, ratio e^{-beta}
        assert amps[-1.0] / amps[1.0] == pytest.approx(math.exp(-beta), abs=1e-12)

    def test_kms_residual_random_system(self, rng):
        h = random_hermitian(4, rng)
        beta = 0.7
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        f_ab = two_point_correlation(h, beta, a, b)
        f_ba = two_point_correlation(h, beta, b, a)
        assert kms_check(f_ab, f_ba, beta) <= 1e-9

    def test_time_domain_evaluation(self, rng):
        # oracle: direct Heisenberg evolution at a few times
        import scipy.linalg

        h = random_hermitian(3, rng)
        beta = 1.2
        a = random_hermitian(3, rng)
        b = random_hermitian(3, rng)
        series = two_point_correlation(h, beta, a, b)
        rho = gibbs_state(h, beta)
        for t in (0.0, 0.4, 1.7):
            u = scipy.linalg.expm(1j * h.mat * t)
            a_t = u @ a.mat @ u.conj().T
            direct = complex(np.trace(rho.mat @ a_t @ b.mat))
            synth = complex(np.sum(series.amplitudes * np.exp(-1j * series.omegas * t)))
            assert synth == pytest.approx(direct, abs=1e-10)


class TestEth:
    def test_energy_observable_centres_window(self, rng):
        h = heisenberg_chain(6, rng)
        psi = np.zeros(64)
        psi[21] = 1.0  # |010101>
        diag, micro, gap = diagonal_vs_microcanonical(h, psi, h, window=0.8)
        e0 = float(psi @ h.mat.real @ psi)
        assert diag == pytest.approx(e0, abs=1e-10)
        assert abs(micro - e0) <= 0.8

    def test_identity_observable(self, rng):
        h = heisenberg_chain(5, rng)
        psi = np.zeros(32)
        psi[10] = 1.0
        eye = Operator.hermitian(np.eye(32))
        diag, micro, gap = diagonal_vs_microcanonical(h, psi, eye, window=0.5)
        assert diag == pytest.approx(1.0, abs=1e-12)
        assert micro == pytest.approx(1.0, abs=1e-12)
        assert gap < 1e-12

    def test_empty_window_rejected(self, rng):
        h = heisenberg_chain(4, rng)
        psi = np.zeros(16)
        psi[5] = 1.0
        with pytest.raises(ValueError, match="window"):
            diagonal_vs_microcanonical(h, psi, h, window=1e-12)

    def test_eight_spin_gap_small(self, rng):
        h = heisenberg_chain(8, rng)
        n = 8
        idx = 0
        for i in range(n):
            if i % 2 == 0:
                idx |= 1 << (n - 1 - i)
        psi = np.zeros(2**n)
        psi[idx] = 1.0  # Neel product state sits mid-spectrum
        a = Operator.hermitian(site_operator(n, 4, PAULI_Z))
        diag, micro, gap = diagonal_vs_microcanonical(h, psi, a, window=0.4)
        # observable spectral range is 2; the gap should be a small fraction
        assert gap <= 0.2

