"""Dense complex operator algebra for small quantum systems: tagged
operators and density matrices with their checks, hermitian
eigensolvers, matrix exponentials, the superoperator builders and the
CPTP check that certifies every propagator.

Vectorization is column-stacking throughout: ``vec(A)`` stacks the columns
of ``A``, so ``vec(A B C) = (C^T kron A) vec(B)``.  Every superoperator in
this package acts on column-stacked operators; mixing conventions is the
classic source of silent sign bugs, so all conversions live here.
:func:`sandwich_superop` is the one kernel that writes rho -> A rho B in
this form; every builder uses it except the rate-weighted jump sum of
:func:`dissipator_superop`, one product over the whole channel stack.
``np.kron`` is left to the models that build tensor products of Hilbert
spaces.

Two kernels act on whole stacks in one batched LAPACK call:
:func:`unitary_exp` gives exp(-iK) for a stack of hermitian K, and
:func:`cptp_residuals` gives the smallest Choi eigenvalue and the trace
drift of a stack of superoperators.

Units are hbar = k_B = 1 everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .tolerances import ALGEBRAIC, DYNAMICAL, LEVEL_MERGE_REL, STRUCTURAL

__all__ = [
    "Operator",
    "DensityMatrix",
    "Superoperator",
    "eig_hermitian",
    "matexp",
    "unitary_exp",
    "expect",
    "cp_check",
    "cptp_residuals",
    "trace_distance",
    "vec",
    "unvec",
    "sandwich_superop",
    "hamiltonian_superop",
    "dissipator_superop",
    "adjoint_dissipator",
    "unitary_superop",
    "identity_superop",
    "group_degenerate",
    "random_hermitian",
    "random_density",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "SIGMA_MINUS",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|


def _check_finite(arr: np.ndarray) -> None:
    # a complex entry is finite iff its real and imaginary parts are
    if not np.isfinite(arr).all():
        raise ValueError("matrix has NaN or Inf entries")


def _as_square_complex(mat) -> np.ndarray:
    arr = np.array(mat, dtype=complex, copy=True, order="C")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("empty matrix")
    _check_finite(arr)
    arr.setflags(write=False)
    return arr


def _maxabs(arr: np.ndarray) -> float:
    return float(np.abs(arr).max()) if arr.size else 0.0


def _first_nonhermitian(stack: np.ndarray) -> tuple[int, float] | None:
    """Index and residual |A - A^dag| of the first member of a (n, d, d)
    stack that is not hermitian within STRUCTURAL of its largest entry, or
    None: the one hermiticity check of the package."""
    # the difference overwrites the adjoint's copy: a Floquet sample stack
    # is the largest array of its run
    adj = stack.conj().swapaxes(-1, -2)
    resid = np.abs(np.subtract(stack, adj, out=adj))
    if resid.max(initial=0.0) <= STRUCTURAL:  # within every member's bound
        return None
    herm = resid.max(axis=(-2, -1))
    bad = herm > STRUCTURAL * np.maximum(1.0, np.abs(stack).max(axis=(-2, -1)))
    if not bad.any():
        return None
    k = int(bad.argmax())
    return k, float(herm[k])


@dataclass(frozen=True)
class Operator:
    """A dense complex square matrix with a structural tag.

    ``kind`` is one of ``hermitian``, ``unitary`` or ``general``; the tag
    is verified at construction so downstream code can trust it.
    """

    mat: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        arr = _as_square_complex(self.mat)
        object.__setattr__(self, "mat", arr)
        if self.kind == "hermitian":
            bad = _first_nonhermitian(arr[None])
            if bad is not None:
                raise ValueError(
                    f"matrix tagged hermitian but |A - A^dag| = {bad[1]:.3e}"
                )
        elif self.kind == "unitary":
            d = arr.shape[0]
            resid = _maxabs(arr.conj().T @ arr - np.eye(d))
            if resid > ALGEBRAIC:
                raise ValueError(
                    f"matrix tagged unitary but |A^dag A - I| = {resid:.3e}"
                )
        elif self.kind != "general":
            raise ValueError(f"unknown operator kind {self.kind!r}")

    @classmethod
    def hermitian(cls, mat) -> "Operator":
        return cls(mat, kind="hermitian")

    @classmethod
    def unitary(cls, mat) -> "Operator":
        return cls(mat, kind="unitary")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def is_hermitian(self) -> bool:
        # the tag was verified at construction, and ``mat`` is read-only
        return self.kind == "hermitian" or _first_nonhermitian(self.mat[None]) is None


@dataclass(frozen=True)
class DensityMatrix:
    """A positive unit-trace operator: the state of the system."""

    mat: np.ndarray

    def __post_init__(self):
        arr = _as_square_complex(self.mat)
        object.__setattr__(self, "mat", arr)
        _state_spectra(arr[None])

    @classmethod
    def pure(cls, ket) -> "DensityMatrix":
        v = np.asarray(ket, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _state_spectra(stack: np.ndarray, vectors: bool = False):
    """Check that every member of a (n, d, d) stack is a density matrix and
    return the spectra of the symmetrised members.

    The checks are those of :class:`DensityMatrix`, in its order: finite
    entries, hermitian within STRUCTURAL of the member's largest entry,
    unit trace within ALGEBRAIC, and no eigenvalue below -ALGEBRAIC.  The
    first member that fails any of them raises the message that
    DensityMatrix raises for it, so a stack of consecutive states fails
    as checking them one by one would.  Each check runs only on the
    members before the first failure found so far.  Returns the (n, d)
    ascending eigenvalues and, with ``vectors``, the (n, d, d)
    eigenvectors (else None), from one batched call.
    """
    n, fail = len(stack), None
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if not finite.all():
        n, fail = int(finite.argmin()), "matrix has NaN or Inf entries"
    bad = _first_nonhermitian(stack[:n])
    if bad is not None:
        n, fail = bad[0], f"density matrix not hermitian: residual {bad[1]:.3e}"
    tr = np.trace(stack[:n], axis1=-2, axis2=-1)
    bad = np.abs(tr - 1.0) > ALGEBRAIC
    if bad.any():
        n = int(bad.argmax())
        fail = f"density matrix trace {complex(tr[n])} differs from 1"
    sym = (stack[:n] + stack[:n].conj().swapaxes(-1, -2)) / 2.0
    if vectors:
        evals, evecs = np.linalg.eigh(sym)
    else:
        evals, evecs = np.linalg.eigvalsh(sym), None
    bad = evals[:, 0] < -ALGEBRAIC
    if bad.any():
        n = int(bad.argmax())
        fail = f"density matrix has negative eigenvalue {evals[n, 0]:.3e}"
    if fail is not None:
        raise ValueError(fail)
    return evals, evecs


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    v = np.asarray(v).reshape(-1)
    if dim is None:
        dim = int(round(math.isqrt(v.size)))
        if dim * dim != v.size:
            raise ValueError(f"vector of length {v.size} is not a square vec")
    return v.reshape(dim, dim, order="F")


@dataclass(frozen=True)
class Superoperator:
    """A linear map on operators, stored as a d^2 x d^2 matrix acting on
    column-stacked operators."""

    mat: np.ndarray

    def __post_init__(self):
        arr = _as_square_complex(self.mat)
        d = int(round(math.isqrt(arr.shape[0])))
        if d * d != arr.shape[0]:
            raise ValueError(f"superoperator side {arr.shape[0]} is not a square")
        object.__setattr__(self, "mat", arr)

    @property
    def dim(self) -> int:
        return int(round(math.isqrt(self.mat.shape[0])))

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        out = unvec(self.mat @ vec(m), self.dim)
        return out

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        out = self.apply_matrix(rho.mat)
        out = (out + out.conj().T) / 2.0
        return DensityMatrix(out)

    def trace_preservation_residual(self) -> float:
        """Max deviation of the dual action on the identity: trace(S rho)
        equals trace(rho) for all rho iff vec(I)^dag S = vec(I)^dag."""
        return float(cptp_residuals(self.mat[None])[1][0])


def identity_superop(dim: int) -> Superoperator:
    return Superoperator(np.eye(dim * dim))


def sandwich_superop(a: np.ndarray, b: np.ndarray) -> Superoperator:
    """The map rho -> sum_k A_k rho B_k as a superoperator: sum_k (B_k^T kron A_k).

    ``a`` and ``b`` are both d x d or both (K, d, d) stacks; a stack is
    summed in member order, starting from zero.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"cannot sandwich between shapes {a.shape} and {b.shape}")
    d = a.shape[-1]
    if a.ndim == 3:
        m = np.zeros((d * d, d * d), dtype=complex)
        for ak, bk in zip(a, b):
            m += sandwich_superop(ak, bk).mat
        return Superoperator(m)
    # one broadcast outer product of contiguous operands, laid out as a
    # Kronecker product lays them out, so that it runs the same multiply
    # loop and gives the same bits; entry ((i, k), (j, l)) is B[j, i] A[k, l]
    b_t = np.ascontiguousarray(b.T)[:, None, :, None]
    a_c = np.ascontiguousarray(a)[None, :, None, :]
    return Superoperator((b_t * a_c).reshape(d * d, d * d))


def hamiltonian_superop(h: Operator | np.ndarray) -> Superoperator:
    """The commutator generator rho -> -i [H, rho]."""
    hm = h.mat if isinstance(h, Operator) else np.asarray(h, dtype=complex)
    eye = np.eye(hm.shape[0])
    return Superoperator(-1j * (sandwich_superop(hm, eye).mat - sandwich_superop(eye, hm).mat))


def dissipator_superop(v: np.ndarray, rates=None) -> Superoperator:
    """Lindblad dissipator rho -> sum_k r_k (V_k rho V_k^dag - (1/2){V_k^dag V_k, rho}).

    ``v`` is one d x d operator or a (K, d, d) stack; ``rates`` gives the
    K weights r_k (all 1 when omitted).  The jump terms of the whole stack
    come from one product over the flattened operators and the
    anticommutator is added once, from G = sum_k r_k V_k^dag V_k.
    """
    v = np.asarray(v, dtype=complex)
    d = v.shape[-1]
    stack = v.reshape(-1, d, d)
    k = stack.shape[0]
    r = np.ones(k) if rates is None else np.asarray(rates, dtype=float).reshape(-1)
    if r.shape != (k,):
        raise ValueError(f"{r.size} rates for {k} operators")
    flat = stack.reshape(k, d * d)
    # jump[(a, b), (i, j)] = sum_k r_k conj(V_k)[a, b] V_k[i, j]; the column-
    # stacked kron(conj(V), V) wants row (a, i) and column (b, j)
    jump = (r[:, None] * flat.conj()).T @ flat
    m = jump.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    g = stack.reshape(k * d, d).conj().T @ (r[:, None, None] * stack).reshape(k * d, d)
    eye = np.eye(d)
    m -= 0.5 * (sandwich_superop(g, eye).mat + sandwich_superop(eye, g).mat)
    return Superoperator(m)


def adjoint_dissipator(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Heisenberg-picture dissipator X -> V^dag X V - (1/2){V^dag V, X}.

    ``v`` is one d x d operator or a (K, d, d) stack; the result has the
    same shape, one d x d action per operator.  Since Tr(X D_k(rho)) =
    Tr(D_k^dag(X) rho), a ledger that reads X against D_k(rho) needs only
    the state-independent D_k^dag(X) and one trace per state.
    """
    v = np.asarray(v, dtype=complex)
    x = np.asarray(x, dtype=complex)
    vd = np.conj(np.swapaxes(v, -1, -2))
    vdv = vd @ v
    return vd @ x @ v - 0.5 * (vdv @ x + x @ vdv)


def unitary_superop(u: Operator | np.ndarray) -> Superoperator:
    """Conjugation map rho -> U rho U^dag."""
    um = u.mat if isinstance(u, Operator) else np.asarray(u, dtype=complex)
    return sandwich_superop(um, um.conj().T)


def eig_hermitian(a: Operator) -> tuple[np.ndarray, Operator]:
    """Eigendecomposition of a hermitian operator.

    Returns ascending eigenvalues and the unitary of eigenvectors V with
    A = V diag(lam) V^dag.
    """
    if not isinstance(a, Operator):
        raise TypeError("eig_hermitian expects an Operator")
    if not a.is_hermitian():
        raise ValueError("eig_hermitian: input is not hermitian")
    evals, evecs = np.linalg.eigh((a.mat + a.mat.conj().T) / 2.0)
    return evals, Operator.unitary(evecs)


def unitary_exp(k: np.ndarray) -> np.ndarray:
    """exp(-iK) for every member of a complex (n, d, d) stack of hermitian
    K, as V diag(exp(-i lam)) V^dag from one batched ``eigh``; only the
    lower triangle of each K is read.

    The result is written over ``k`` and returned, so callers pass a stack
    they no longer need: a Floquet grid's 8192 steps would otherwise hold
    one more stack of their size at the peak of the run."""
    lam, v = np.linalg.eigh(k)
    vh = v.conj().swapaxes(-1, -2)
    v *= np.exp(-1j * lam)[..., None, :]
    return np.matmul(v, vh, out=k)


def matexp(x: Superoperator, t: float = 1.0) -> Superoperator:
    """exp(X t) of a superoperator, by Pade scaling-and-squaring."""
    if not isinstance(x, Superoperator):
        raise TypeError("matexp expects a Superoperator")
    return Superoperator(scipy.linalg.expm(x.mat * t))


def expect(rho: DensityMatrix, a: Operator):
    """Tr(rho A); returns a float for hermitian observables."""
    if rho.dim != a.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, observable {a.dim}")
    val = complex(np.trace(rho.mat @ a.mat))
    if a.kind == "hermitian" or a.is_hermitian():
        return float(val.real)
    return val


def _choi_stack(stack: np.ndarray) -> np.ndarray:
    """Choi matrices of a (n, d^2, d^2) stack of superoperators."""
    n, side = stack.shape[0], stack.shape[-1]
    d = math.isqrt(side)
    return stack.reshape(n, d, d, d, d).transpose(0, 4, 2, 3, 1).reshape(n, side, side)


def cptp_residuals(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest Choi eigenvalue and trace drift of every member of a
    (n, d^2, d^2) stack of superoperators: the one CPTP check.

    The Choi matrix of a hermiticity-preserving map is hermitian; residual
    non-hermiticity is symmetrised away before the spectra are taken, all
    in one batched ``eigvalsh``.  The drift is max |vec(I)^dag S -
    vec(I)^dag|, zero iff trace(S rho) = trace(rho) for all rho.  Returns
    two (n,) arrays.
    """
    choi = _choi_stack(stack)
    herm = (choi + choi.conj().swapaxes(-1, -2)) / 2.0
    min_eig = np.linalg.eigvalsh(herm)[:, 0]
    iv = vec(np.eye(math.isqrt(stack.shape[-1]))).conj()
    drift = np.abs(iv @ stack - iv).max(axis=-1)
    return min_eig, drift


def cp_check(s: Superoperator) -> tuple[bool, float]:
    """Complete positivity via the Choi spectrum: (is_cp, min_eig), the
    single-map case of :func:`cptp_residuals`."""
    min_eig = float(cptp_residuals(s.mat[None])[0][0])
    return (min_eig >= -DYNAMICAL, min_eig)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) ||rho - sigma||_1."""
    diff = rho.mat - sigma.mat
    svals = np.linalg.svd((diff + diff.conj().T) / 2.0, compute_uv=False)
    return 0.5 * float(np.sum(svals))


def group_degenerate(values: np.ndarray, tol: float | None = None) -> list[np.ndarray]:
    """Cluster a sorted-or-not list of reals into degenerate groups.

    Values within ``tol`` of the running cluster head join that cluster.
    Default tolerance is LEVEL_MERGE_REL times the spread (or 1 for a flat
    spectrum).  Returns index arrays, ordered by cluster value.
    """
    values = np.asarray(values, dtype=float)
    if tol is None:
        spread = float(values.max() - values.min()) if values.size else 0.0
        tol = LEVEL_MERGE_REL * max(spread, 1.0)
    order = np.argsort(values)
    groups: list[list[int]] = []
    head = None
    for idx in order:
        v = values[idx]
        if head is None or v - head > tol:
            groups.append([idx])
            head = v
        else:
            groups[-1].append(idx)
    return [np.array(g, dtype=int) for g in groups]


def _group_centers(values: np.ndarray, groups: list[np.ndarray]) -> np.ndarray:
    """Mean value of each group, with the bits of ``np.mean`` of it: a
    one-member group's centre is its value, and a larger group's is
    ``np.mean``'s own sum divided by the group size, without its wrapper."""
    centers = values[[g[0] for g in groups]]
    for k in np.flatnonzero([len(g) > 1 for g in groups]):
        centers[k] = np.add.reduce(values[groups[k]]) / len(groups[k])
    return centers


def _level_blocks(evals: np.ndarray, absmat: np.ndarray, floor: float | np.ndarray):
    """Group the levels ``evals`` and find the level blocks of ``absmat``
    with an entry above ``floor``.

    Entry (r, c) of ``absmat`` lies in the block (label[r], label[c]).
    ``absmat`` is one nonnegative d x d matrix or a (n, d, d) stack of
    them; ``floor`` is one number, or for a stack one per member, shaped
    (n, 1, 1).  Returns the (d,) group label of every level, the group
    centres, and the index arrays of the kept blocks in row-major order:
    (rows, cols) for one matrix, (members, rows, cols) for a stack.
    """
    groups = group_degenerate(evals)
    label = np.empty(len(evals), dtype=int)
    for k, g in enumerate(groups):
        label[g] = k
    stack = absmat.reshape(-1, *absmat.shape[-2:])
    block_max = np.zeros((len(stack), len(groups), len(groups)))
    members = np.arange(len(stack))[:, None, None]
    np.maximum.at(block_max, (members, label[:, None], label[None, :]), stack)
    blocks = np.nonzero(block_max > floor)
    if absmat.ndim == 2:
        blocks = blocks[1:]
    return label, _group_centers(evals, groups), blocks


def _bin_frequencies(freqs: np.ndarray, merge_tol: float, resolve_tol: float):
    """Bin frequencies as :func:`group_degenerate` does with ``merge_tol``
    and find the first pair of bins that the secular approximation can
    neither merge nor resolve.

    Returns the bins (index arrays, ordered by value), their centres, and
    the first pair (i, j), i < j in row-major order, whose centres differ
    by more than ``merge_tol`` and less than ``resolve_tol``, or None.
    """
    bins = group_degenerate(freqs, tol=merge_tol)
    centers = _group_centers(freqs, bins)
    sep = np.abs(centers[:, None] - centers[None, :])
    rows, cols = np.nonzero(np.triu((sep > merge_tol) & (sep < resolve_tol), k=1))
    pair = (int(rows[0]), int(cols[0])) if rows.size else None
    return bins, centers, pair


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> Operator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator.hermitian(scale * (g + g.conj().T) / 2.0)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))
