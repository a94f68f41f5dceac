import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo.operators import (
    _first_nonhermitian,
    _state_spectra,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    KrausMap,
    Operator,
    Superoperator,
    adjoint_dissipator,
    cp_check,
    dissipator_superop,
    eig_hermitian,
    evolve_unitary,
    expect,
    hamiltonian_superop,
    identity_superop,
    kraus_apply,
    matexp,
    partial_trace,
    random_density,
    random_hermitian,
    random_unitary,
    sandwich_superop,
    tensor,
    to_choi,
    trace_distance,
    unitary_superop,
    unvec,
    vec,
)
from qthermo.tolerances import ALGEBRAIC


class TestOperatorTags:
    def test_hermitian_tag_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="hermitian"):
            Operator.hermitian([[0, 1], [0, 0]])

    def test_unitary_tag_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="unitary"):
            Operator.unitary([[1, 0], [0, 2]])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Operator.general([[np.nan, 0], [0, 1]])

    @pytest.mark.parametrize("bad", [complex(0.0, np.nan), complex(np.inf, 0.0),
                                     complex(-np.inf, 0.0), complex(0.0, np.inf),
                                     complex(0.0, -np.inf)])
    def test_nonfinite_part_rejected(self, bad):
        for build, d in ((Operator.general, 2), (DensityMatrix, 2), (Superoperator, 4)):
            m = np.eye(d, dtype=complex)
            m[0, 1] = bad
            with pytest.raises(ValueError, match="matrix has NaN or Inf entries"):
                build(m)

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))


class TestEigHermitian:
    def test_pauli_z_diagonal(self):
        lam, _ = eig_hermitian(Operator.hermitian(PAULI_Z))
        assert np.allclose(lam, [-1.0, 1.0])

    def test_pauli_x_closed_form(self):
        lam, v = eig_hermitian(Operator.hermitian(PAULI_X))
        assert np.allclose(lam, [-1.0, 1.0])
        # eigenvectors (1, -+1)/sqrt(2) up to phase
        for j, sign in enumerate([-1.0, 1.0]):
            col = v.mat[:, j]
            assert abs(abs(col[0]) - 1 / math.sqrt(2)) < 1e-12
            assert np.allclose(col[1], sign * col[0])

    def test_random_reconstruction(self, rng):
        a = random_hermitian(6, rng)
        lam, v = eig_hermitian(a)
        rebuilt = (v.mat * lam) @ v.mat.conj().T
        assert np.max(np.abs(rebuilt - a.mat)) <= 1e-10 * np.max(np.abs(a.mat))
        assert np.all(np.diff(lam) >= 0)

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(Operator.general([[0, 1], [0, 0]]))


class TestMatexp:
    def test_zero_gives_identity(self):
        out = matexp(Operator.general(np.zeros((3, 3))), 1.0)
        assert np.allclose(out.mat, np.eye(3))

    def test_diagonal_antihermitian(self):
        out = matexp(Operator.general(-1j * PAULI_Z), math.pi / 2)
        expected = np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)])
        assert np.max(np.abs(out.mat - expected)) < 1e-12

    def test_random_antihermitian_is_unitary(self, rng):
        h = random_hermitian(5, rng)
        u = matexp(Operator.general(-1j * h.mat), 0.7)
        resid = np.max(np.abs(u.mat.conj().T @ u.mat - np.eye(5)))
        assert resid < 1e-10
        assert u.kind == "unitary"

    def test_matches_scipy_on_nonnormal(self, rng):
        import scipy.linalg

        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        out = matexp(Operator.general(g), 0.3)
        assert np.allclose(out.mat, scipy.linalg.expm(0.3 * g), atol=1e-12)

    def test_rejects_nan(self):
        m = np.zeros((2, 2))
        m[0, 0] = np.inf
        with pytest.raises(ValueError):
            matexp(Operator.general(np.nan_to_num(m) * np.nan), 1.0)


class TestTensorPartialTrace:
    def test_tensor_identities(self):
        out = tensor(Operator.identity(2), Operator.identity(2))
        assert np.allclose(out.mat, np.eye(4))
        assert out.kind == "unitary"

    def test_partial_trace_product_state(self, rng):
        rho = random_density(2, rng)
        sigma = random_density(3, rng)
        joint = tensor(rho, sigma)
        back = partial_trace(joint, [2, 3], keep={0})
        assert np.max(np.abs(back.mat - rho.mat)) < 1e-12
        other = partial_trace(joint, [2, 3], keep={1})
        assert np.max(np.abs(other.mat - sigma.mat)) < 1e-12

    def test_partial_trace_random_state_is_state(self, rng):
        joint = random_density(6, rng)
        red = partial_trace(joint, [2, 3], keep={0})
        assert isinstance(red, DensityMatrix)  # validates positivity and trace

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="factor"):
            partial_trace(random_density(6, rng), [2, 2], keep={0})

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_marginals_recovered_property(self, seed):
        rng = np.random.default_rng(seed)
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        rho = random_density(da, rng)
        sigma = random_density(db, rng)
        joint = tensor(rho, sigma)
        assert np.max(np.abs(partial_trace(joint, [da, db], keep={0}).mat - rho.mat)) < 1e-11
        assert np.max(np.abs(partial_trace(joint, [da, db], keep={1}).mat - sigma.mat)) < 1e-11


class TestExpect:
    def test_ground_state_pauli_z(self):
        rho = DensityMatrix.pure([1.0, 0.0])
        assert expect(rho, Operator.hermitian(PAULI_Z)) == pytest.approx(1.0)

    def test_maximally_mixed_traceless(self, rng):
        rho = DensityMatrix.maximally_mixed(2)
        for a in (PAULI_X, PAULI_Y, PAULI_Z):
            assert abs(expect(rho, Operator.hermitian(a))) < 1e-14

    def test_projector_expectation_matches_overlap_sum(self, rng):
        rho = random_density(4, rng)
        v = random_unitary(4, rng).mat[:, :1]
        proj = Operator.hermitian(v @ v.conj().T)
        val = expect(rho, proj)
        lam, w = np.linalg.eigh(rho.mat)
        oracle = sum(
            lam[i] * abs(w[:, i].conj() @ v[:, 0]) ** 2 for i in range(4)
        )
        assert val == pytest.approx(oracle, abs=1e-12)
        assert -1e-10 <= val <= 1 + 1e-10

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            expect(random_density(2, rng), Operator.hermitian(np.eye(3)))


class TestEvolveUnitary:
    def test_identity_fixes_state(self, rng):
        rho = random_density(3, rng)
        out = evolve_unitary(rho, Operator.identity(3))
        assert np.allclose(out.mat, rho.mat)

    def test_purity_preserved(self, rng):
        rho = DensityMatrix.pure(rng.normal(size=4) + 1j * rng.normal(size=4))
        u = random_unitary(4, rng)
        assert evolve_unitary(rho, u).purity() == pytest.approx(1.0, abs=1e-10)

    def test_spectrum_preserved(self, rng):
        rho = random_density(5, rng)
        u = random_unitary(5, rng)
        out = evolve_unitary(rho, u)
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(out.mat)),
            np.sort(np.linalg.eigvalsh(rho.mat)),
            atol=1e-10,
        )

    def test_entropy_invariant(self, rng):
        from qthermo.states import von_neumann_entropy

        rho = random_density(4, rng)
        u = random_unitary(4, rng)
        assert abs(
            von_neumann_entropy(evolve_unitary(rho, u)) - von_neumann_entropy(rho)
        ) <= 1e-9

    def test_rejects_nonunitary(self, rng):
        with pytest.raises(ValueError, match="not unitary"):
            evolve_unitary(random_density(2, rng), Operator.general([[1, 0], [0, 2]]))


class TestKraus:
    def test_identity_map(self, rng):
        kmap = KrausMap((np.eye(2),))
        rho = random_density(2, rng)
        assert np.allclose(kraus_apply(kmap, rho).mat, rho.mat)

    def test_dephasing_zeroes_offdiagonals(self, rng):
        kmap = KrausMap((math.sqrt(0.5) * np.eye(2), math.sqrt(0.5) * PAULI_Z))
        rho = random_density(2, rng)
        out = kraus_apply(kmap, rho)
        assert abs(out.mat[0, 1]) < 1e-14
        assert out.mat[0, 0] == pytest.approx(rho.mat[0, 0].real)

    def test_unnormalised_set_rejected_with_residual(self):
        with pytest.raises(ValueError, match="not normalised"):
            KrausMap((np.eye(2) * 1.1,))

    def test_trace_preserved(self, rng):
        u1 = random_unitary(3, rng).mat
        u2 = random_unitary(3, rng).mat
        kmap = KrausMap((math.sqrt(0.3) * u1, math.sqrt(0.7) * u2))
        rho = random_density(3, rng)
        out = kraus_apply(kmap, rho)
        assert np.trace(out.mat) == pytest.approx(1.0, abs=1e-12)

    def test_relative_entropy_contraction(self, rng):
        # data-processing inequality under a random CPTP map on a qutrit
        from qthermo.states import relative_entropy

        g = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
        q, _ = np.linalg.qr(g)  # 9 x 3 isometry: sum_j B_j^dag B_j = I over 3x3 blocks
        kmap = KrausMap(tuple(q[3 * j : 3 * (j + 1), :].conj().T for j in range(3)))
        rho, sigma = random_density(3, rng), random_density(3, rng)
        before = relative_entropy(rho, sigma)
        after = relative_entropy(kraus_apply(kmap, rho), kraus_apply(kmap, sigma))
        assert after <= before + 1e-9


class TestChoiCp:
    def test_identity_superop_choi(self):
        s = identity_superop(2)
        choi = to_choi(s).mat
        omega = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                omega += np.kron(e, e)
        assert np.allclose(choi, omega)
        ok, mineig = cp_check(s)
        assert ok and mineig >= -1e-12

    def test_choi_matches_direct_construction(self, rng):
        # oracle: explicit action on the basis matrix units
        u = random_unitary(3, rng)
        s = unitary_superop(u)
        d = 3
        direct = np.zeros((9, 9), dtype=complex)
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                direct += np.kron(e, s.apply_matrix(e))
        assert np.allclose(to_choi(s).mat, direct, atol=1e-12)

    def test_transpose_map_not_cp(self):
        d = 2
        m = np.zeros((4, 4), dtype=complex)
        for i in range(d):
            for j in range(d):
                e_in = np.zeros((d, d), dtype=complex)
                e_in[i, j] = 1.0
                m += np.outer(vec(e_in.T), vec(e_in).conj())
        ok, mineig = cp_check(Superoperator(m))
        assert not ok and mineig < -0.5

    def test_vec_column_stacking_convention(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.allclose(vec(a), [1, 3, 2, 4])
        assert np.allclose(unvec(vec(a)), a)

    def test_sandwich_identity(self, rng):
        from qthermo.operators import sandwich_superop

        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(
            unvec(sandwich_superop(a, b).mat @ vec(x)), a @ x @ b, atol=1e-12
        )

    def test_hamiltonian_superop_matches_commutator(self, rng):
        h = random_hermitian(3, rng)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = unvec(hamiltonian_superop(h).mat @ vec(x))
        assert np.allclose(lhs, -1j * (h.mat @ x - x @ h.mat), atol=1e-12)

    def test_dissipator_superop_matches_lindblad_form(self, rng):
        v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = unvec(dissipator_superop(v).mat @ vec(x))
        vdv = v.conj().T @ v
        rhs = v @ x @ v.conj().T - 0.5 * (vdv @ x + x @ vdv)
        assert np.allclose(lhs, rhs, atol=1e-12)


def _kron_dissipator(v):
    """The single-channel dissipator written with three krons."""
    eye = np.eye(v.shape[0])
    vdv = v.conj().T @ v
    return np.kron(v.conj(), v) - 0.5 * (np.kron(eye, vdv) + np.kron(vdv.T, eye))


class TestStackedDissipator:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 3, 8]), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_stack_equals_rate_weighted_sum_of_single_superops(self, d, k, seed):
        rng = np.random.default_rng(seed)
        ops = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        rates = rng.uniform(0.0, 2.0, size=k)
        rates[rng.random(k) < 0.3] = 0.0
        stacked = dissipator_superop(ops, rates).mat
        single = [dissipator_superop(v).mat for v in ops]
        for v, m in zip(ops, single):
            assert np.max(np.abs(m - _kron_dissipator(v))) <= ALGEBRAIC
        dense = sum(r * m for r, m in zip(rates, single))
        assert np.max(np.abs(stacked - dense)) <= ALGEBRAIC

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 3, 8]), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_adjoint_is_the_hilbert_schmidt_dual(self, d, k, seed):
        rng = np.random.default_rng(seed)
        ops = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        terms = adjoint_dissipator(ops, x)
        assert terms.shape == (k, d, d)
        for v, t in zip(ops, terms):
            dual = unvec(_kron_dissipator(v).conj().T @ vec(x), d)
            assert np.max(np.abs(t - dual)) <= ALGEBRAIC
        assert np.max(np.abs(adjoint_dissipator(ops[0], x) - terms[0])) <= ALGEBRAIC

    def test_empty_stack_is_zero(self):
        m = dissipator_superop(np.zeros((0, 3, 3)), np.zeros(0)).mat
        assert m.shape == (9, 9) and not np.any(m)

    def test_rate_count_must_match(self):
        with pytest.raises(ValueError, match="2 rates for 3 operators"):
            dissipator_superop(np.zeros((3, 2, 2)), [1.0, 1.0])


# (d, K): a dimension and a stack of 1..d members
_dims_and_stacks = st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(min_value=1, max_value=d)))


def _with_zeros(rng, shape):
    """Complex entries, about a third of them scaled to zero so that zeros
    of either sign reach the builders."""
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    m[rng.random(shape) < 0.3] *= 0.0
    return m


def _same_bits(got, ref):
    ref = np.asarray(ref, dtype=complex)
    return got.shape == ref.shape and got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def _kron_sum(a_stack, b_stack):
    """sum_k B_k^T kron A_k with np.kron, in member order from zero."""
    d = a_stack.shape[-1]
    m = np.zeros((d * d, d * d), dtype=complex)
    for a, b in zip(a_stack, b_stack):
        m += np.kron(b.T, a)
    return m


def _kron_anticommutator_dissipator(v, rates):
    """The stacked dissipator with its anticommutator written with kron."""
    d = v.shape[-1]
    k = v.shape[0]
    flat = v.reshape(k, d * d)
    jump = (rates[:, None] * flat.conj()).T @ flat
    m = jump.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    g = v.reshape(k * d, d).conj().T @ (rates[:, None, None] * v).reshape(k * d, d)
    eye = np.eye(d)
    m -= 0.5 * (np.kron(eye, g) + np.kron(g.T, eye))
    return m


class TestSandwichKernelBitwise:
    """Every builder on sandwich_superop gives the bits of its kron form."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_dims_and_stacks, st.integers(min_value=0, max_value=10 ** 9))
    def test_sandwich_superop(self, dk, seed):
        d, k = dk
        rng = np.random.default_rng(seed)
        a, b = _with_zeros(rng, (k, d, d)), _with_zeros(rng, (k, d, d))
        assert _same_bits(sandwich_superop(a[0], b[0]).mat, np.kron(b[0].T, a[0]))
        assert _same_bits(sandwich_superop(a, b).mat, _kron_sum(a, b))
        at, bt = a.conj().swapaxes(-1, -2), b.swapaxes(-1, -2)  # strided views
        assert _same_bits(sandwich_superop(at, bt).mat, _kron_sum(at, bt))
        with pytest.raises(ValueError, match="cannot sandwich"):
            sandwich_superop(a[0], b)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_dims_and_stacks, st.integers(min_value=0, max_value=10 ** 9))
    def test_hamiltonian_superop(self, dk, seed):
        d, _ = dk
        rng = np.random.default_rng(seed)
        eye = np.eye(d)
        general = _with_zeros(rng, (d, d))
        for h in (Operator.hermitian(general + general.conj().T), general):
            hm = h.mat if isinstance(h, Operator) else h
            ref = -1j * (np.kron(eye, hm) - np.kron(hm.T, eye))
            assert _same_bits(hamiltonian_superop(h).mat, ref)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_dims_and_stacks, st.integers(min_value=0, max_value=10 ** 9))
    def test_dissipator_anticommutator(self, dk, seed):
        d, k = dk
        rng = np.random.default_rng(seed)
        v = _with_zeros(rng, (k, d, d))
        rates = rng.uniform(0.0, 2.0, size=k)
        rates[rng.random(k) < 0.3] = 0.0
        assert _same_bits(dissipator_superop(v, rates).mat,
                          _kron_anticommutator_dissipator(v, rates))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_dims_and_stacks, st.integers(min_value=0, max_value=10 ** 9))
    def test_unitary_superop(self, dk, seed):
        d, _ = dk
        u = random_unitary(d, np.random.default_rng(seed))
        ref = np.kron(u.mat.conj(), u.mat)
        assert _same_bits(unitary_superop(u).mat, ref)
        assert _same_bits(unitary_superop(u.mat).mat, ref)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_dims_and_stacks, st.integers(min_value=0, max_value=10 ** 9))
    def test_kraus_superoperator(self, dk, seed):
        d, k = dk
        rng = np.random.default_rng(seed)
        # a (K d) x d isometry: its blocks B_j give W_j = B_j^dag with
        # sum_j W_j W_j^dag = I
        q, _ = np.linalg.qr(rng.normal(size=(k * d, d)) + 1j * rng.normal(size=(k * d, d)))
        kmap = KrausMap(tuple(q[j * d:(j + 1) * d].conj().T for j in range(k)))
        ref = sum(np.kron(w.T, w.conj().T) for w in kmap.kraus_ops)
        assert _same_bits(kmap.as_superoperator().mat, ref)


def test_trace_distance_basics(rng):
    rho = DensityMatrix.pure([1, 0])
    sigma = DensityMatrix.pure([0, 1])
    assert trace_distance(rho, sigma) == pytest.approx(1.0)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-15)


class TestStackedStateChecks:
    """_state_spectra checks a stack of states with the DensityMatrix
    checks and messages; one bad member fails the whole stack."""

    @staticmethod
    def _spoil(m, fault):
        d = m.shape[0]
        if fault == "trace":
            return m * 1.001
        if fault == "negative eigenvalue":
            return np.diag([1.0 + 1e-6] + [0.0] * (d - 2) + [-1e-6]).astype(complex)
        if fault == "NaN or Inf":
            out = m.copy()
            out[d - 1, 0] = np.nan
            return out
        out = m.copy()
        out[0, d - 1] += 1e-6
        return out

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=70),
           st.data(), st.integers(min_value=0, max_value=10 ** 9))
    def test_one_bad_member_raises_density_matrix_message(self, d, n, data, seed):
        rng = np.random.default_rng(seed)
        stack = np.array([random_density(d, rng).mat for _ in range(n)])
        evals, evecs = _state_spectra(stack, vectors=True)
        assert np.all(np.abs(evals - np.linalg.eigvalsh(stack)) <= ALGEBRAIC)
        assert np.all(np.abs(stack - (evecs * evals[:, None, :]) @ evecs.conj().swapaxes(1, 2))
                      <= ALGEBRAIC)
        fault = data.draw(st.sampled_from(["trace", "negative eigenvalue", "NaN or Inf",
                                           "not hermitian"]))
        bad = data.draw(st.integers(min_value=0, max_value=n - 1))
        stack[bad] = self._spoil(stack[bad], fault)
        with pytest.raises(ValueError) as err:
            _state_spectra(stack)
        with pytest.raises(ValueError) as single:
            DensityMatrix(stack[bad])
        assert fault in str(err.value)
        assert str(err.value) == str(single.value)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=8),
           st.data(), st.integers(min_value=0, max_value=10 ** 9))
    def test_first_failing_member_decides_the_message(self, d, n, data, seed):
        # two members spoiled by different faults: the earlier one raises,
        # with the message of the first DensityMatrix check it fails, as
        # checking the states one by one would
        rng = np.random.default_rng(seed)
        stack = np.array([random_density(d, rng).mat for _ in range(n)])
        faults = ["trace", "negative eigenvalue", "NaN or Inf", "not hermitian"]
        first = data.draw(st.integers(min_value=0, max_value=n - 2))
        later = data.draw(st.integers(min_value=first + 1, max_value=n - 1))
        fault_first = data.draw(st.sampled_from(faults))
        fault_later = data.draw(st.sampled_from([f for f in faults if f != fault_first]))
        stack[first] = self._spoil(stack[first], fault_first)
        stack[later] = self._spoil(stack[later], fault_later)
        with pytest.raises(ValueError) as err:
            _state_spectra(stack, vectors=True)
        with pytest.raises(ValueError) as single:
            DensityMatrix(stack[first])
        assert str(err.value) == str(single.value)


def test_hermiticity_bound_is_floored_at_one():
    # a member's bound is STRUCTURAL max(1, |A|): a small-norm member keeps
    # the absolute floor, so its residual is not held to STRUCTURAL |A|.  The
    # large member's residual is above STRUCTURAL, so the stack takes the
    # per-member bounds rather than the fast path
    def member(norm, resid):
        m = np.array([[norm, 0.5 * norm], [0.5 * norm, -norm]], dtype=complex)
        m[0, 1] += 0.5 * resid
        m[1, 0] -= 0.5 * resid
        return m

    stack = np.array([member(1e-3, 1e-13), member(1e3, 1e-10)])
    assert _first_nonhermitian(stack) is None
    stack[0] = member(1e-3, 2e-12)
    index, resid = _first_nonhermitian(stack)
    assert index == 0
    assert resid == pytest.approx(2e-12, rel=1e-3)
