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

A hermitian :class:`Operator` carries its one eigendecomposition
(:meth:`Operator.eigh`); :func:`_eigh_stack`, its stack form, is where
every Hamiltonian of the package is diagonalised.

Two more kernels act on whole stacks in one batched LAPACK call:
:func:`unitary_exp` gives exp(-iK) for a stack of hermitian K, and
:func:`cptp_residuals` gives the smallest Choi eigenvalue and the trace
drift of a stack of superoperators.

One clustering kernel, :func:`_cluster`, makes every secular decision:
it groups levels and bins Bohr frequencies of many segments (a stack
member, or a member and coupling) in one array pass.

Units are hbar = k_B = 1 everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _square_copy(mats, ndim: int) -> np.ndarray:
    """A read-only, C-ordered complex copy of a square matrix (``ndim``
    2) or of an (n, d, d) stack of them (``ndim`` 3); its entries are not
    checked."""
    arr = np.array(mats, dtype=complex, copy=True, order="C")
    if arr.ndim != ndim or arr.shape[-1] != arr.shape[-2]:
        what = "a square matrix" if ndim == 2 else "an (n, d, d) stack of square matrices"
        raise ValueError(f"expected {what}, got shape {arr.shape}")
    if arr.shape[-1] < 1:
        raise ValueError("empty matrix")
    arr.setflags(write=False)
    return arr


def _as_square_complex(mat) -> np.ndarray:
    arr = _square_copy(mat, 2)
    _check_finite(arr)
    return arr


def _maxabs(arr: np.ndarray) -> float:
    return float(np.abs(arr).max()) if arr.size else 0.0


def _hermitian_residuals(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The residual |A - A^dag| of every member of a (n, d, d) stack of
    finite matrices, and whether it exceeds STRUCTURAL of the member's
    largest entry (floored at 1): the one hermiticity check of the
    package.  None when no residual exceeds STRUCTURAL, which is within
    every member's bound."""
    # the difference overwrites the adjoint's copy: a Floquet sample stack
    # is the largest array of its run
    adj = stack.conj().swapaxes(-1, -2)
    resid = np.abs(np.subtract(stack, adj, out=adj))
    if resid.max(initial=0.0) <= STRUCTURAL:
        return None
    herm = resid.max(axis=(-2, -1))
    return herm, herm > STRUCTURAL * np.maximum(1.0, np.abs(stack).max(axis=(-2, -1)))


def _first_nonhermitian(stack: np.ndarray) -> tuple[int, float] | None:
    """Index and residual of the first member of a (n, d, d) stack that
    :func:`_hermitian_residuals` rejects, or None."""
    checked = _hermitian_residuals(stack)
    if checked is None or not checked[1].any():
        return None
    herm, bad = checked
    k = int(bad.argmax())
    return k, float(herm[k])


def _hermitian_failure(stack: np.ndarray) -> str | None:
    """The message that ``Operator.hermitian`` raises for the first member
    of a (n, d, d) stack that it rejects, or None."""
    n = len(stack)
    if not np.isfinite(stack).all():
        n = int(np.isfinite(stack).all(axis=(-2, -1)).argmin())
    bad = _first_nonhermitian(stack[:n])
    if bad is not None:
        return f"matrix tagged hermitian but |A - A^dag| = {bad[1]:.3e}"
    return None if n == len(stack) else "matrix has NaN or Inf entries"


@dataclass(frozen=True)
class Operator:
    """A dense complex square matrix with a structural tag.

    ``kind`` is one of ``hermitian``, ``unitary`` or ``general``; the tag
    is verified at construction so downstream code can trust it.  A
    hermitian Operator is the stack of one of :meth:`hermitian_stack`.
    """

    mat: np.ndarray
    kind: str = "general"
    _eig: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "hermitian":
            arr = _square_copy(self.mat, 2)
            fail = _hermitian_failure(arr[None])
            if fail is not None:
                raise ValueError(fail)
        else:
            arr = _as_square_complex(self.mat)
        object.__setattr__(self, "mat", arr)
        if self.kind == "unitary":
            d = arr.shape[0]
            resid = _maxabs(arr.conj().T @ arr - np.eye(d))
            if resid > ALGEBRAIC:
                raise ValueError(
                    f"matrix tagged unitary but |A^dag A - I| = {resid:.3e}"
                )
        elif self.kind not in ("general", "hermitian"):
            raise ValueError(f"unknown operator kind {self.kind!r}")

    @classmethod
    def hermitian(cls, mat) -> "Operator":
        return cls(mat, kind="hermitian")

    @classmethod
    def hermitian_stack(cls, mats) -> list["Operator"]:
        """Hermitian Operators of the members of an (n, d, d) stack, checked
        as one stack: each member's ``mat`` is bitwise the read-only copy
        that ``Operator.hermitian`` stores, and a stack with a member that
        ``Operator.hermitian`` rejects raises what it raises for the first
        such member."""
        arr = _square_copy(mats, 3)
        fail = _hermitian_failure(arr)
        if fail is not None:
            raise ValueError(fail)
        out = []
        for m in arr:
            op = object.__new__(cls)
            object.__setattr__(op, "mat", m)
            object.__setattr__(op, "kind", "hermitian")
            out.append(op)
        return out

    @classmethod
    def unitary(cls, mat) -> "Operator":
        return cls(mat, kind="unitary")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def is_hermitian(self) -> bool:
        # the tag was verified at construction, and ``mat`` is read-only
        return self.kind == "hermitian" or _first_nonhermitian(self.mat[None]) is None

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors (as columns) of a hermitian
        operator, read-only and computed once, as ``mat`` is read-only too:
        the stack of one of :func:`_eigh_stack`."""
        if self._eig is None:
            if not self.is_hermitian():
                raise ValueError("eigh needs a hermitian operator")
            _eigh_stack([self])
        return self._eig


def _eigh_stack(ops) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (n, d) and eigenvectors (n, d, d) of a list of
    hermitian Operators of one dimension.  Those not yet diagonalised are,
    in one batched ``eigh`` of their symmetrised stack, each with the bits
    of diagonalising it alone, and keep their rows (:meth:`Operator.eigh`);
    a batch of every member is returned as it is."""
    fresh = [op for op in ops if op._eig is None]
    if fresh:
        mats = np.array([op.mat for op in fresh])
        evals, v = np.linalg.eigh((mats + mats.conj().swapaxes(-1, -2)) / 2.0)
        for arr in (evals, v):
            arr.setflags(write=False)
        for op, eig in zip(fresh, zip(evals, v)):
            object.__setattr__(op, "_eig", eig)
        if len(fresh) == len(ops):
            return evals, v
    return np.array([op._eig[0] for op in ops]), np.array([op._eig[1] for op in ops])


@dataclass(frozen=True)
class DensityMatrix:
    """A positive unit-trace operator: the state of the system.  The
    constructor is the stack of one of :meth:`stack`."""

    mat: np.ndarray

    def __post_init__(self):
        arr = _square_copy(self.mat, 2)
        fails = _state_checks(arr[None])[2]
        if fails:
            raise ValueError(fails[0])
        object.__setattr__(self, "mat", arr)

    @classmethod
    def stack(cls, mats) -> list:
        """The states of an (n, d, d) stack, checked as one stack: entry i
        is a DensityMatrix whose ``mat`` is bitwise the read-only copy that
        ``DensityMatrix(mats[i])`` stores, or the ValueError that it
        raises."""
        arr = _square_copy(mats, 3)
        return cls._members(arr, _state_checks(arr)[2])

    @classmethod
    def stack_with_spectra(cls, mats):
        """The states of an (n, d, d) stack that must all pass, as
        :meth:`stack` gives them, with the ascending eigenvalues (n, d) and
        eigenvectors (n, d, d) of the symmetrised members that its one check
        computed; the first member that fails raises the message that
        ``DensityMatrix`` raises for it."""
        arr = _square_copy(mats, 3)
        evals, evecs, fails = _state_checks(arr, vectors=True)
        if fails:
            raise ValueError(next(iter(fails.values())))
        return cls._members(arr, fails), evals, evecs

    @classmethod
    def _members(cls, arr: np.ndarray, fails: dict[int, str]) -> list:
        # the members of a stack just checked, each its own row of ``arr``
        out = []
        for i, m in enumerate(arr):
            if i in fails:
                out.append(ValueError(fails[i]))
                continue
            rho = object.__new__(cls)
            object.__setattr__(rho, "mat", m)
            out.append(rho)
        return out

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


def _state_checks(stack: np.ndarray, vectors: bool = False):
    """Check every member of a (n, d, d) stack as :class:`DensityMatrix`
    checks a state, in its order: finite entries, hermitian within
    STRUCTURAL of the member's largest entry, unit trace within ALGEBRAIC,
    and no eigenvalue below -ALGEBRAIC; a member that fails a check takes
    no later one.  Returns the ascending eigenvalues of the symmetrised
    members that pass the first three checks (all n when every member
    does) and, with ``vectors``, their eigenvectors (else None), from one
    batched call; and the verdicts: for each member that fails, in
    ascending order, its index mapped to the message that DensityMatrix
    raises for it.
    """
    fails: dict[int, str] = {}
    live = np.isfinite(stack).all(axis=(-2, -1))
    for i in (~live).nonzero()[0].tolist():
        fails[i] = "matrix has NaN or Inf entries"
    live = live.nonzero()[0]
    sub = stack[live] if fails else stack
    checked = _hermitian_residuals(sub)
    bad = np.zeros(len(sub), dtype=bool) if checked is None else checked[1]
    tr = np.trace(sub, axis1=-2, axis2=-1)
    off = ~bad & (np.abs(tr - 1.0) > ALGEBRAIC)
    for j in bad.nonzero()[0].tolist():
        fails[int(live[j])] = f"density matrix not hermitian: residual {checked[0][j]:.3e}"
    for j in off.nonzero()[0].tolist():
        fails[int(live[j])] = f"density matrix trace {complex(tr[j])} differs from 1"
    keep = ~(bad | off)
    if not keep.all():
        sub, live = sub[keep], live[keep]
    sym = (sub + sub.conj().swapaxes(-1, -2)) / 2.0
    if vectors:
        evals, evecs = np.linalg.eigh(sym)
    else:
        evals, evecs = np.linalg.eigvalsh(sym), None
    for j in (evals[:, 0] < -ALGEBRAIC).nonzero()[0].tolist():
        fails[int(live[j])] = f"density matrix has negative eigenvalue {evals[j, 0]:.3e}"
    return evals, evecs, dict(sorted(fails.items()))


def _state_spectra(stack: np.ndarray, vectors: bool = False):
    """The spectra of :func:`_state_checks` for a (n, d, d) stack of
    density matrices; the first member that fails a check raises the
    message that DensityMatrix raises for it, so a stack of consecutive
    states fails as checking them one by one would."""
    evals, evecs, fails = _state_checks(stack, vectors)
    if fails:
        raise ValueError(next(iter(fails.values())))
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
    if a.ndim == 3:
        d = a.shape[-1]
        m = np.zeros((d * d, d * d), dtype=complex)
        for ak, bk in zip(a, b):
            m += _sandwich(ak, bk)
        return Superoperator(m)
    return Superoperator(_sandwich(a, b))


def _sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """B^T kron A for every pair of the (..., d, d) stacks ``a`` and ``b``,
    as a (..., d^2, d^2) array whose members have the bits of the pairs
    taken alone."""
    d = a.shape[-1]
    # one broadcast outer product of contiguous operands, laid out as a
    # Kronecker product lays them out, so that it runs the same multiply
    # loop and gives the same bits; entry ((i, k), (j, l)) is B[j, i] A[k, l]
    b_t = np.ascontiguousarray(b.swapaxes(-1, -2))[..., :, None, :, None]
    a_c = np.ascontiguousarray(a)[..., None, :, None, :]
    return (b_t * a_c).reshape(a.shape[:-2] + (d * d, d * d))


def hamiltonian_superop(h: Operator | np.ndarray) -> Superoperator:
    """The commutator generator rho -> -i [H, rho]."""
    hm = h.mat if isinstance(h, Operator) else np.asarray(h, dtype=complex)
    return Superoperator(_commutators(hm[None])[0])


def _commutators(h: np.ndarray) -> np.ndarray:
    """-i [H, .] of every member of a (n, d, d) stack, as (n, d^2, d^2)."""
    eye = np.broadcast_to(np.eye(h.shape[-1]), h.shape)
    return -1j * (_sandwich(h, eye) - _sandwich(eye, h))


def dissipator_superop(v: np.ndarray, rates=None) -> Superoperator:
    """Lindblad dissipator rho -> sum_k r_k (V_k rho V_k^dag - (1/2){V_k^dag V_k, rho}).

    ``v`` is one d x d operator or a (K, d, d) stack; ``rates`` gives the
    K weights r_k (all 1 when omitted); the stack of one of
    :func:`_dissipators`.
    """
    v = np.asarray(v, dtype=complex)
    d = v.shape[-1]
    stack = v.reshape(-1, d, d)
    k = stack.shape[0]
    r = np.ones(k) if rates is None else np.asarray(rates, dtype=float).reshape(-1)
    if r.shape != (k,):
        raise ValueError(f"{r.size} rates for {k} operators")
    return Superoperator(_dissipators(stack[None], r[None])[0])


def _dissipators(v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The dissipators of n channel stacks, V (n, K, d, d) at the rates r
    (n, K), as (n, d^2, d^2).  The jump terms of each stack come from one
    product over its flattened operators and the anticommutator is added
    once, from G = sum_k r_k V_k^dag V_k."""
    n, k, d = v.shape[:3]
    flat = v.reshape(n, k, d * d)
    # jump[(a, b), (i, j)] = sum_k r_k conj(V_k)[a, b] V_k[i, j]; the column-
    # stacked kron(conj(V), V) wants row (a, i) and column (b, j)
    jump = (r[..., None] * flat.conj()).swapaxes(-1, -2) @ flat
    m = jump.reshape(n, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(n, d * d, d * d)
    g = (v.reshape(n, k * d, d).conj().swapaxes(-1, -2)
         @ (r[..., None, None] * v).reshape(n, k * d, d))
    eye = np.broadcast_to(np.eye(d), g.shape)
    m -= 0.5 * (_sandwich(g, eye) + _sandwich(eye, g))
    return m


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

    Returns the ascending eigenvalues of :meth:`Operator.eigh`, read-only,
    and the unitary of eigenvectors V with A = V diag(lam) V^dag.
    """
    if not isinstance(a, Operator):
        raise TypeError("eig_hermitian expects an Operator")
    if not a.is_hermitian():
        raise ValueError("eig_hermitian: input is not hermitian")
    evals, evecs = a.eigh()
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


def _cluster(values: np.ndarray, seg: np.ndarray, tol: np.ndarray):
    """Group the values of each segment by the head rule: in ascending
    order, a value joins the open group of its segment if it lies within
    ``tol[segment]`` of the group's first value (its head).

    ``seg`` is the segment number of each value.  Returns the order that
    sorts the values by segment, then value (tied values in their input
    order, so that the result does not depend on the CPU's sort kernel),
    the position in it where each group starts, the group of each
    value, and the group centres with the bits of ``np.mean``: a lone
    value, or ``np.add.reduce`` over the size, summed per size on the rows
    of one array, which reduces each row as it reduces a lone one.
    """
    order = values.argsort(kind="stable")
    order = order[seg[order].argsort(kind="stable")]
    v, seg = values[order], seg[order]
    t = tol[seg]
    # a value more than tol above its neighbour is more than tol above every
    # earlier head; only a run of closer neighbours wider than tol is walked
    m = len(v)
    opens = np.empty(m + 1, dtype=bool)
    opens[0] = opens[m] = True
    np.greater(v[1:] - v[:-1], t[1:], out=opens[1:m])
    opens[1:m] |= seg[1:] != seg[:-1]
    bounds = opens.nonzero()[0]
    for j in (v[bounds[1:] - 1] - v[bounds[:-1]] > t[bounds[:-1]]).nonzero()[0].tolist():
        head, stop = int(bounds[j]), int(bounds[j + 1])
        while head < stop:
            opens[head] = True
            head += int((v[head:stop] - v[head]).searchsorted(t[head], side="right"))
    bounds = opens.nonzero()[0]
    start, size = bounds[:-1], bounds[1:] - bounds[:-1]
    group = np.empty(m, dtype=int)
    group[order] = np.arange(len(start)).repeat(size)
    centers = v[start]
    for k in (np.bincount(size)[2:].nonzero()[0] + 2).tolist():
        at = size == k
        centers[at] = np.add.reduce(v[start[at, None] + np.arange(k)], axis=1) / k
    return order, start, group, centers


def group_degenerate(values: np.ndarray, tol: float | None = None) -> list[np.ndarray]:
    """Cluster a sorted-or-not list of reals into degenerate groups, the
    one-segment case of :func:`_cluster`.

    Default tolerance is LEVEL_MERGE_REL times the spread (or 1 for a flat
    spectrum).  Returns index arrays, ordered by cluster value.
    """
    values = np.asarray(values, dtype=float)
    if tol is None:
        spread = float(values.max() - values.min()) if values.size else 0.0
        tol = LEVEL_MERGE_REL * max(spread, 1.0)
    return _group_indices(*_cluster(values, np.zeros(len(values), dtype=int), np.array([tol]))[:2])


def _group_indices(order: np.ndarray, start: np.ndarray) -> list[np.ndarray]:
    """The index arrays of the groups of :func:`_cluster`, in sorted order."""
    return [order[a:b] for a, b in zip(start.tolist(), start[1:].tolist() + [len(order)])]


def _level_blocks(evals: np.ndarray, tol: np.ndarray, absmat: np.ndarray, floor):
    """Group the (n, d) levels of n members, member i within ``tol[i]``,
    and find the level blocks with an entry above ``floor`` of the
    (n, K, d, d) nonnegative stack ``absmat``; ``floor`` is one number or
    (n, K, 1, 1).  Entry (r, c) of ``absmat[i, k]`` lies in the block
    (i, k, label[i, r], label[i, c]).  Returns the (n, d) label of each
    level within its member, the centres of all groups, member by member,
    the index of each member's first group among them, the flat index in
    an (n, K, d, d) array of the block of every entry, and the ascending
    flat indices of the kept blocks.
    """
    n, k, d = absmat.shape[:3]
    _, _, group, centers = _cluster(evals.reshape(-1), np.arange(n).repeat(d), tol)
    group = group.reshape(n, d)
    first = group[:, 0]
    label = group - first[:, None]
    block = (label[:, :, None] * d + label[:, None, :])[:, None] \
        + np.arange(0, n * k * d * d, d * d).reshape(n, k, 1, 1)
    hit = np.zeros(absmat.size, dtype=bool)
    hit[block[absmat > floor]] = True
    return label, centers, first, block, hit.nonzero()[0]


def _bin_frequencies(freqs: np.ndarray, seg: np.ndarray, merge_tol: np.ndarray,
                     resolve_tol: np.ndarray):
    """Bin the frequencies of each segment as :func:`_cluster` does with
    ``merge_tol``.  Returns what it returns and, keyed by segment, the
    first pair (i, j) of bins of the segment, i < j in row-major order,
    whose centres differ by more than ``merge_tol`` and less than
    ``resolve_tol`` (a pair the secular approximation can neither merge
    nor resolve).
    """
    order, start, group, centers = _cluster(freqs, seg, merge_tol)
    bin_seg = seg[order[start]]
    # a segment whose ascending centres lie resolve_tol apart has no pair
    near = (centers[1:] - centers[:-1] < resolve_tol[bin_seg[1:]]) & (bin_seg[1:] == bin_seg[:-1])
    pairs = {}
    for s in dict.fromkeys(bin_seg[1:][near].tolist()):
        lo, hi = bin_seg.searchsorted([s, s + 1])
        sep = np.abs(centers[lo:hi, None] - centers[None, lo:hi])
        rows, cols = np.triu((sep > merge_tol[s]) & (sep < resolve_tol[s]), k=1).nonzero()
        if rows.size:
            pairs[s] = (lo + int(rows[0]), lo + int(cols[0]))
    return order, start, group, centers, pairs


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> Operator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator.hermitian(scale * (g + g.conj().T) / 2.0)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))
