import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo.operators import (
    _bin_frequencies,
    _choi_stack,
    _cluster,
    _commutators,
    _dissipators,
    _eigh_stack,
    _first_nonhermitian,
    _sandwich,
    _state_spectra,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    Operator,
    Superoperator,
    adjoint_dissipator,
    cp_check,
    cptp_residuals,
    dissipator_superop,
    eig_hermitian,
    expect,
    group_degenerate,
    hamiltonian_superop,
    identity_superop,
    matexp,
    random_density,
    random_hermitian,
    sandwich_superop,
    trace_distance,
    unitary_exp,
    unitary_superop,
    unvec,
    vec,
)
from qthermo.tolerances import ALGEBRAIC, DYNAMICAL

from models import eigh_oracle, loop_group_degenerate, random_unitary


class TestOperatorTags:
    def test_hermitian_tag_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="hermitian"):
            Operator.hermitian([[0, 1], [0, 0]])

    def test_unitary_tag_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="unitary"):
            Operator.unitary([[1, 0], [0, 2]])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Operator([[np.nan, 0], [0, 1]])

    @pytest.mark.parametrize("bad", [complex(0.0, np.nan), complex(np.inf, 0.0),
                                     complex(-np.inf, 0.0), complex(0.0, np.inf),
                                     complex(0.0, -np.inf)])
    def test_nonfinite_part_rejected(self, bad):
        for build, d in ((Operator, 2), (DensityMatrix, 2), (Superoperator, 4)):
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
            eig_hermitian(Operator([[0, 1], [0, 0]]))

    def test_rejects_a_matrix(self):
        with pytest.raises(TypeError, match="expects an Operator"):
            eig_hermitian(PAULI_Z)

    def test_reads_the_decomposition_the_operator_keeps(self, rng):
        a = random_hermitian(5, rng)
        lam, v = eig_hermitian(a)
        assert lam is a.eigh()[0]
        assert v.kind == "unitary" and v.mat.tobytes() == a.eigh()[1].tobytes()


def _bits(eig):
    return [np.asarray(x).tobytes() for x in eig]


class TestOperatorEigh:
    """A hermitian Operator keeps its one decomposition, the oracle's bits."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(["hermitian", "general", "stack member"]))
    def test_bitwise_the_oracle_once_and_read_only(self, d, seed, made):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        # hermitian within STRUCTURAL, so that the symmetrisation shows
        m = g + g.conj().T + 1e-13 * rng.normal(size=(d, d))
        if made == "stack member":
            a = Operator.hermitian_stack([0.5 * m, m])[1]
        else:
            a = Operator(m, kind=made)
        evals, v = a.eigh()
        assert _bits((evals, v)) == _bits(eigh_oracle(m))
        again = a.eigh()
        assert again[0] is evals and again[1] is v
        for arr in (evals, v):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_rejects_a_nonhermitian_operator(self):
        a = Operator([[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="eigh needs a hermitian operator"):
            a.eigh()

    def test_a_stack_stores_each_members_rows(self, rng):
        # the members not yet diagonalised are, in one batch, and keep
        # their rows; a member that was keeps its own arrays
        hs = [random_hermitian(4, rng) for _ in range(5)]
        kept = hs[1].eigh()
        evals, v = _eigh_stack(hs)
        assert hs[1].eigh() is kept
        for h, e, vi in zip(hs, evals, v):
            assert _bits(h.eigh()) == _bits((e, vi)) == _bits(eigh_oracle(h.mat))

    def test_a_fresh_stack_returns_its_batch(self, rng):
        hs = [random_hermitian(3, rng) for _ in range(4)]
        evals, v = _eigh_stack(hs)
        assert not evals.flags.writeable and not v.flags.writeable
        for i, h in enumerate(hs):
            assert np.shares_memory(h.eigh()[0], evals) and np.shares_memory(h.eigh()[1], v)
            assert h.eigh()[1].tobytes() == v[i].tobytes()


class TestMatexp:
    def test_rejects_operator(self):
        with pytest.raises(TypeError, match="expects a Superoperator"):
            matexp(Operator.hermitian(PAULI_Z), 0.3)

    def test_rejects_nan(self):
        m = np.zeros((2, 2))
        m[0, 0] = np.inf
        with pytest.raises(ValueError):
            Operator(np.nan_to_num(m) * np.nan)


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
    def test_entropy_invariant(self, rng):
        from qthermo.states import von_neumann_entropy

        rho = random_density(4, rng)
        u = random_unitary(4, rng)
        assert abs(
            von_neumann_entropy(unitary_superop(u).apply(rho)) - von_neumann_entropy(rho)
        ) <= 1e-9


class TestKraus:
    def test_relative_entropy_contraction(self, rng):
        # data-processing inequality under a random CPTP map on a qutrit
        from qthermo.states import relative_entropy

        g = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
        q, _ = np.linalg.qr(g)  # 9 x 3 isometry: sum_j B_j^dag B_j = I over 3x3 blocks
        b = q.reshape(3, 3, 3)  # the blocks B_j; the map is rho -> sum_j B_j rho B_j^dag
        kmap = sandwich_superop(b, b.conj().swapaxes(-1, -2))
        rho, sigma = random_density(3, rng), random_density(3, rng)
        before = relative_entropy(rho, sigma)
        after = relative_entropy(kmap.apply(rho), kmap.apply(sigma))
        assert after <= before + 1e-9


class TestChoiCp:
    def test_identity_superop_choi(self):
        s = identity_superop(2)
        choi = _choi_stack(s.mat[None])[0]
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
        assert np.allclose(_choi_stack(s.mat[None])[0], direct, atol=1e-12)

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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([1, 2, 3, 8]), st.integers(min_value=0, max_value=6),
           st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10 ** 9))
    def test_stacks_are_bitwise_their_members(self, d, k, n, seed):
        # n channel stacks, n Hamiltonians and n sandwich pairs at once give
        # the bits of each member alone
        rng = np.random.default_rng(seed)
        ops = _with_zeros(rng, (n, k, d, d))
        rates = rng.uniform(0.0, 2.0, size=(n, k))
        h = _with_zeros(rng, (n, d, d))
        h = (h + h.conj().swapaxes(-1, -2)) / 2.0
        a, b = _with_zeros(rng, (n, d, d)), _with_zeros(rng, (n, d, d))
        for i, (m, c, s) in enumerate(zip(_dissipators(ops, rates), _commutators(h),
                                          _sandwich(a, b))):
            assert _same_bits(m, dissipator_superop(ops[i], rates[i]).mat)
            assert _same_bits(c, hamiltonian_superop(h[i]).mat)
            assert _same_bits(s, sandwich_superop(a[i], b[i]).mat)

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
        w = q.reshape(k, d, d).conj().swapaxes(-1, -2)
        ref = sum(np.kron(wj.T, wj.conj().T) for wj in w)
        assert _same_bits(sandwich_superop(w.conj().swapaxes(-1, -2), w).mat, ref)


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


class TestStackedConstructors:
    """DensityMatrix.stack and Operator.hermitian_stack check a stack once
    and hand out what the one-at-a-time constructors give member by
    member: the same message, or a bitwise-equal, C-ordered, read-only
    ``mat``."""

    _STATE_FAULTS = ["trace", "negative eigenvalue", "NaN or Inf", "Inf", "not hermitian"]

    @staticmethod
    def _spoil(m, fault):
        if fault == "Inf":
            out = m.copy()
            out[0, 0] = complex(np.inf, 0.0)
            return out
        return TestStackedStateChecks._spoil(m, fault)

    @staticmethod
    def _same_member(member, ref):
        assert type(member) is type(ref)
        assert member.mat.dtype == ref.mat.dtype and member.mat.shape == ref.mat.shape
        assert member.mat.tobytes() == ref.mat.tobytes()
        assert member.mat.flags.c_contiguous and not member.mat.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            member.mat[0, 0] = 0.0

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=12),
           st.data(), st.integers(min_value=0, max_value=10 ** 9))
    def test_density_stack_is_the_constructor_member_by_member(self, d, n, data, seed):
        rng = np.random.default_rng(seed)
        rank = data.draw(st.integers(min_value=1, max_value=d))
        stack = np.array([random_density(d, rng, rank=rank).mat for _ in range(n)])
        faults = data.draw(st.dictionaries(st.integers(min_value=0, max_value=n - 1),
                                           st.sampled_from(self._STATE_FAULTS), max_size=n))
        for i, fault in faults.items():
            stack[i] = self._spoil(stack[i], fault)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no arithmetic on a non-finite member
            got = DensityMatrix.stack(stack)
        assert len(got) == n
        first = None
        for i, (r, member) in enumerate(zip(stack, got)):
            if i not in faults:
                self._same_member(member, DensityMatrix(r))
                continue
            # the injected fault decides the verdict, which is the message of
            # the constructor alone
            with pytest.raises(ValueError) as err:
                DensityMatrix(r)
            assert isinstance(member, ValueError) and str(member) == str(err.value)
            assert {"Inf": "NaN or Inf"}.get(faults[i], faults[i]) in str(member)
            first = str(member) if first is None else first
        # the first failure's verdict is what the stacked check raises
        if first is None:
            _state_spectra(stack)
        else:
            with pytest.raises(ValueError) as err:
                _state_spectra(stack)
            assert str(err.value) == first

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=12),
           st.data(), st.integers(min_value=0, max_value=10 ** 9))
    def test_hermitian_stack_raises_the_first_constructor_error(self, d, n, data, seed):
        rng = np.random.default_rng(seed)
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
        stack = np.array([random_hermitian(d, rng, scale=scale).mat for _ in range(n)])
        faults = data.draw(st.dictionaries(st.integers(min_value=0, max_value=n - 1),
                                           st.sampled_from(["NaN", "Inf", "not hermitian"]),
                                           max_size=3))
        for i, fault in faults.items():
            if fault == "not hermitian":
                stack[i, 0, d - 1] += 1e-6 * max(1.0, scale)
                stack[i, d - 1, 0] += 1j * 1e-6 * max(1.0, scale)
            else:
                stack[i, d - 1, 0] = np.nan if fault == "NaN" else complex(0.0, -np.inf)
        if faults:
            i = min(faults)
            for r in stack[:i]:
                Operator.hermitian(r)
            with pytest.raises(ValueError) as alone:
                Operator.hermitian(stack[i])
            assert ("tagged hermitian" if faults[i] == "not hermitian"
                    else "NaN or Inf") in str(alone.value)
            with pytest.raises(ValueError) as err:
                Operator.hermitian_stack(stack)
            assert str(err.value) == str(alone.value)
            return
        refs = [Operator.hermitian(r) for r in stack]
        got = Operator.hermitian_stack(stack)
        assert len(got) == n
        for member, ref in zip(got, refs):
            self._same_member(member, ref)
            assert member.kind == ref.kind == "hermitian"

    def test_a_stack_of_one_is_the_constructor(self):
        # the single constructors check a stack of one with the same routine
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        (member,) = DensityMatrix.stack(rho.mat[None])
        self._same_member(member, rho)
        h = Operator.hermitian(PAULI_X)
        (op,) = Operator.hermitian_stack(PAULI_X[None])
        self._same_member(op, h)
        assert DensityMatrix.stack(np.zeros((0, 2, 2))) == []
        for build in (DensityMatrix.stack, Operator.hermitian_stack):
            with pytest.raises(ValueError, match="stack of square matrices"):
                build(np.eye(2))


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


class TestUnitaryExp:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=6),
           st.sampled_from(["generic", "degenerate", "scalar"]),
           st.floats(min_value=0.01, max_value=5.0), st.integers(min_value=0, max_value=10 ** 9))
    def test_matches_expm_member_by_member(self, d, n, spectrum, scale, seed):
        # degenerate spectra repeat integer levels; a scalar K has one level
        rng = np.random.default_rng(seed)
        ks = []
        for _ in range(n):
            if spectrum == "generic":
                lam = rng.normal(size=d)
            elif spectrum == "degenerate":
                lam = rng.integers(-2, 3, size=d).astype(float)
            else:
                lam = np.full(d, rng.normal())
            u = random_unitary(d, rng).mat
            k = scale * (u * lam) @ u.conj().T
            ks.append((k + k.conj().T) / 2.0)
        stack = np.array(ks)
        work = stack.copy()
        got = unitary_exp(work)
        assert got is work  # the result is written over the input
        for j, k in enumerate(stack):
            assert np.max(np.abs(got[j] - scipy.linalg.expm(-1j * k))) <= ALGEBRAIC
            assert np.max(np.abs(got[j].conj().T @ got[j] - np.eye(d))) <= ALGEBRAIC
            # a member alone gives the bits it gets inside the stack
            assert unitary_exp(stack[j:j + 1].copy())[0].tobytes() == got[j].tobytes()


def _random_channel(rng, d, n_kraus=3):
    """Superoperator of a random CPTP map: W_j = S^(-1/2) G_j with
    S = sum_j G_j G_j^dag, so that sum_j W_j W_j^dag = I."""
    g = rng.normal(size=(n_kraus, d, d)) + 1j * rng.normal(size=(n_kraus, d, d))
    lam, v = np.linalg.eigh(np.einsum("kij,klj->il", g, g.conj()))
    w = (v * lam ** -0.5) @ v.conj().T @ g
    return sandwich_superop(w.conj().swapaxes(-1, -2), w).mat


class TestCptpResiduals:
    @staticmethod
    def _reference(m):
        # the single-map formulas: the Choi matrix sum_ij |i><j| kron S(|i><j|),
        # symmetrised, and its lowest eigenvalue; the dual action on the identity
        d = math.isqrt(m.shape[0])
        choi = m.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
        min_eig = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)[0]
        iv = vec(np.eye(d)).conj()
        return min_eig, np.abs(iv @ m - iv).max()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_stack_agrees_bitwise_with_single_map_checks(self, d, n, seed):
        # CPTP members, and members that are neither CP nor trace preserving
        rng = np.random.default_rng(seed)
        stack = np.array([
            _random_channel(rng, d) if j % 2 == 0 else
            rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            for j in range(n)
        ])
        min_eig, drift = cptp_residuals(stack)
        assert min_eig.shape == drift.shape == (n,)
        for j, m in enumerate(stack):
            ok, me = cp_check(Superoperator(m))
            assert np.float64(me).tobytes() == min_eig[j].tobytes()
            assert ok == (me >= -DYNAMICAL)
            tp = Superoperator(m).trace_preservation_residual()
            assert np.float64(tp).tobytes() == drift[j].tobytes()
            ref_eig, ref_drift = self._reference(m)
            assert ref_eig.tobytes() == min_eig[j].tobytes()
            assert ref_drift.tobytes() == drift[j].tobytes()
            if j % 2 == 0:
                assert ok and tp <= ALGEBRAIC
            else:
                assert not ok


# one run of values for a segment with tolerance tol: a head-rule chain
# (0, 0.6 tol, 1.2 tol), exact ties, or a group of 2-12 values within tol
# of its lowest, whose centre crosses numpy's 8-value pairwise block once
# the group holds 9 or more
_runs = st.one_of(
    st.tuples(st.just("chain"), st.floats(-4.0, 4.0)),
    st.tuples(st.just("ties"), st.floats(-4.0, 4.0), st.integers(2, 5)),
    st.tuples(st.just("group"), st.floats(-4.0, 4.0),
              st.lists(st.floats(0.0, 1.0), min_size=1, max_size=11)),
)
_segments = st.lists(
    st.tuples(st.sampled_from([1e-9, 1e-6, 0.25]), st.lists(_runs, max_size=4)),
    min_size=1, max_size=5,
)


def _segment_values(tol, runs):
    vals = []
    for run in runs:
        if run[0] == "chain":
            vals += [run[1], run[1] + 0.6 * tol, run[1] + 1.2 * tol]
        elif run[0] == "ties":
            vals += [run[1]] * run[2]
        else:
            vals += [run[1]] + [run[1] + f * tol for f in run[2]]
    return np.array(vals, dtype=float)


class TestClusterAgainstLoop:
    """The segmented clustering kernel against the per-value reference
    loop (``models.loop_group_degenerate``), run segment by segment."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_segments, st.randoms(use_true_random=False))
    def test_segments_bitwise_equal_to_loop(self, segments, rnd):
        per_seg = [_segment_values(tol, runs) for tol, runs in segments]
        # empty and one-value segments, next to the generated ones
        per_seg += [np.array([]), np.array([rnd.uniform(-4.0, 4.0)])]
        tols = np.array([tol for tol, _ in segments] + [1e-9, 1e-9])
        seg = np.concatenate([np.full(len(v), k) for k, v in enumerate(per_seg)]).astype(int)
        values = np.concatenate(per_seg)
        shuffle = list(range(len(values)))
        rnd.shuffle(shuffle)
        values, seg = values[shuffle], seg[shuffle]
        resolve = 40.0 * tols
        order, start, group, centers, pairs = _bin_frequencies(values, seg, tols, resolve)
        ends = start[1:].tolist() + [len(order)]
        ref_pairs = {}
        k = 0
        for s_id in range(len(per_seg)):
            idx = np.flatnonzero(seg == s_id)
            ref = loop_group_degenerate(values[idx], tols[s_id])
            ref_centers = [np.mean(values[idx][g]) for g in ref]
            for j, g in enumerate(ref):
                assert sorted(order[start[k + j]:ends[k + j]].tolist()) == sorted(idx[g].tolist())
                assert np.all(group[idx[g]] == k + j)
                assert centers[k + j].tobytes() == ref_centers[j].tobytes()
            sep = np.abs(np.subtract.outer(ref_centers, ref_centers))
            rows, cols = np.nonzero(np.triu((sep > tols[s_id]) & (sep < resolve[s_id]), k=1))
            if rows.size:
                ref_pairs[s_id] = (k + int(rows[0]), k + int(cols[0]))
            k += len(ref)
        assert k == len(start) == len(centers)
        assert pairs == ref_pairs
        # the one-segment case is group_degenerate, index arrays and all
        for v, tol in zip(per_seg, tols):
            got = group_degenerate(v, tol)
            ref = loop_group_degenerate(v, tol)
            assert [sorted(g.tolist()) for g in got] == [sorted(g.tolist()) for g in ref]
        one = np.zeros(len(values), dtype=int)
        o1, s1, _, c1 = _cluster(values, one, tols[:1])
        assert o1.tobytes() == np.argsort(values, kind="stable").tobytes()
        ref = loop_group_degenerate(values, tols[0])
        assert c1.tobytes() == np.array([np.mean(values[g]) for g in ref]).tobytes()

    def test_head_rule_splits_a_chain_of_close_neighbours(self):
        # neighbours 0.6 tol apart that span 1.2 tol: the third value is
        # more than tol above the head, so it opens a group
        tol = 1e-6
        values = np.array([2.0 + 1.2 * tol, 2.0, 2.0 + 0.6 * tol, 5.0])
        assert [g.tolist() for g in group_degenerate(values, tol)] == [[1, 2], [0], [3]]
        _, start, group, centers = _cluster(values, np.zeros(4, dtype=int), np.array([tol]))
        assert start.tolist() == [0, 2, 3] and group.tolist() == [1, 0, 0, 2]
        assert centers[0].tobytes() == np.mean(values[[1, 2]]).tobytes()
