import dataclasses
import json
import math
import sys
import tracemalloc
import warnings
import zlib
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo import cli, lindblad, machines, operators, states
from qthermo.baths import BathSpec
from qthermo.lindblad import BohrResolutionError, build_davies
from qthermo.machines import (
    _PROTOCOLS,
    _adiabat_superops,
    _transfer_maps,
    _tricycle_couplings,
    _tricycle_hamiltonians,
    _tricycle_pieces,
    _walk_states,
    CycleSpec,
    OscillatorMedium,
    QubitMedium,
    StrokeSpec,
    TricycleSpec,
    compose_cycle,
    find_limit_cycle,
    fit_loglog_slope,
    optimize_power,
    quantum_friction,
    run_otto,
    sudden_limit_check,
    third_law_sweep,
    tricycle_steady,
)
from qthermo.operators import (
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    Operator,
    Superoperator,
    cp_check,
    eig_hermitian,
    identity_superop,
    matexp,
    random_hermitian,
    sandwich_superop,
    unitary_exp,
    unitary_superop,
    unvec,
    vec,
)
from qthermo.states import (
    gibbs_state,
    relative_entropy,
    shannon_entropy_in_basis,
    von_neumann_entropy,
)
from qthermo.tolerances import ALGEBRAIC, DYNAMICAL

from models import (
    count_decompositions,
    hinted_nelder_mead,
    nelder_mead,
    per_grid_sweep,
    random_unitary,
    sequential_optimize_power,
)


def ohmic(label, t, gamma=0.2):
    return BathSpec(label=label, temperature=t, form_factor="ohmic",
                    gamma=gamma, cutoff=20.0)


def engine_spec(**kw):
    defaults = dict(
        medium=QubitMedium(),
        omega_h=2.0, omega_c=1.0,
        bath_h=ohmic("hot", 2.0), bath_c=ohmic("cold", 0.5),
        tau_h=30.0, tau_c=30.0, tau_hc=1.0, tau_ch=1.0,
    )
    defaults.update(kw)
    return CycleSpec(**defaults)


def tricycle_spec(**kw):
    defaults = dict(
        omega_h=3.0, omega_c=1.0,
        bath_h=ohmic("hot", 2.0, gamma=0.1),
        bath_c=ohmic("cold", 0.5, gamma=0.1),
        bath_w=BathSpec(label="work", temperature=math.inf, form_factor="flat",
                        gamma=0.1, cutoff=50.0),
        eps=0.05,
    )
    defaults.update(kw)
    return TricycleSpec(**defaults)


class TestComposeCycle:
    def test_zero_duration_identity(self):
        spec = engine_spec(tau_h=0.0, tau_c=0.0, tau_hc=0.0, tau_ch=0.0,
                           protocol="sudden")
        u_cyc, _ = compose_cycle(spec)
        assert np.max(np.abs(u_cyc.mat - np.eye(4))) < 1e-12

    def test_standard_engine_strokes_cptp(self):
        u_cyc, ops = compose_cycle(engine_spec())
        for op in ops:
            ok, mineig = cp_check(op.superop)
            assert ok and mineig >= -1e-9
            assert op.superop.trace_preservation_residual() <= 1e-9
        ok, mineig = cp_check(u_cyc)
        assert ok and mineig >= -1e-9

    def test_noncommutation_witness_positive(self):
        # |[U_expansion, U_hot]|: with a transverse field the strokes do not
        # commute
        spec = engine_spec(medium=QubitMedium(transverse=0.4))
        _, ops = compose_cycle(spec)
        hot, expansion = ops[0].superop.mat, ops[1].superop.mat
        assert np.linalg.norm(expansion @ hot - hot @ expansion, 2) > 1e-6

    def test_swap_based_two_stroke_engine(self):
        # four-level medium: two qubit pairs thermalise in parallel against
        # hot and cold baths, then a swap exchanges the pairs; the cycle is
        # a product of the same kind of CPTP stroke propagators
        from qthermo.operators import PAULI_X

        omega_h, omega_c = 2.0, 1.0
        h = Operator.hermitian(
            np.kron(0.5 * omega_h * np.diag([1.0, -1.0]), np.eye(2))
            + np.kron(np.eye(2), 0.5 * omega_c * np.diag([1.0, -1.0]))
        )
        s_h = Operator.hermitian(np.kron(PAULI_X, np.eye(2)))
        s_c = Operator.hermitian(np.kron(np.eye(2), PAULI_X))
        gen = build_davies(h, [(s_h, ohmic("hot", 2.0)), (s_c, ohmic("cold", 0.5))])
        thermalise = matexp(gen.liouvillian(), 40.0)
        swap = np.eye(4)[:, [0, 2, 1, 3]]
        u_swap = unitary_superop(Operator.unitary(swap))
        u_cyc = Superoperator(u_swap.mat @ thermalise.mat)
        ok, mineig = cp_check(u_cyc)
        assert ok and mineig >= -1e-9
        rho_lc, conv = find_limit_cycle(u_cyc)
        assert len(conv) >= 1


class TestLimitCycle:
    def test_identity_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            find_limit_cycle(Superoperator(np.eye(4)))

    def test_non_trace_preserving_map_raises_instead_of_iterating(self):
        # a map that gains trace each cycle has no fixed state; the
        # bordered solution misses the fixed-point equation and raises
        u_cyc, _ = compose_cycle(engine_spec(tau_h=1.0, tau_c=1.0))
        with pytest.raises(ValueError, match="residual too large"):
            find_limit_cycle(Superoperator((1 + 1e-6) * u_cyc.mat))

    def test_a_stack_gives_each_member_what_solving_it_alone_gives(self):
        # a degenerate (identity) map and one that gains trace, stacked
        # between good cycle maps: each entry is the state bits, or the
        # error, of solving that member alone
        good = [compose_cycle(engine_spec(tau_h=t, tau_c=t))[0].mat for t in (1.0, 3.0)]
        maps = np.array([good[0], np.eye(4), (1 + 1e-6) * good[0], good[1]])
        stacked = machines._limit_cycle_states(maps)
        assert [type(x) for x in stacked] == [DensityMatrix, ValueError, ValueError, DensityMatrix]
        assert "degenerate" in str(stacked[1]) and "residual too large" in str(stacked[2])
        for got, m in zip(stacked, maps):
            (alone,) = machines._limit_cycle_states(m[None])
            if isinstance(alone, ValueError):
                assert str(got) == str(alone)
            else:
                assert _bits(got.mat.view(float)) == _bits(alone.mat.view(float))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=5), st.floats(min_value=0.5, max_value=6.0),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_fixed_point_matches_unit_eigenvector(self, d, t, seed):
        # a thermalising propagator followed by a random unitary is a CPTP
        # cycle map with one fixed state.  Strokes stay short: a longer one
        # makes the map nearly rank one, and then the dense eigenvector is
        # the less accurate of the two (d = 2, t = 17: fixed-point residual
        # 1.8e-10 from eig against 8.9e-16 from the bordered solve)
        rng = np.random.default_rng(seed)
        bath = ohmic("b", float(rng.uniform(0.3, 3.0)))
        gen = build_davies(random_hermitian(d, rng), [(random_hermitian(d, rng), bath)])
        u_cyc = Superoperator(
            unitary_superop(random_unitary(d, rng)).mat @ matexp(gen.liouvillian(), t).mat)
        rho_lc, conv = find_limit_cycle(u_cyc)
        evals, evecs = scipy.linalg.eig(u_cyc.mat)
        m = unvec(evecs[:, int(np.argmin(np.abs(evals - 1.0)))], d)
        m = (m + m.conj().T) / 2.0
        oracle = m / np.trace(m).real
        assert np.max(np.abs(rho_lc.mat - oracle)) <= ALGEBRAIC
        assert conv[-1] < 1e-12

    def test_full_thermalisation_converges_in_one_cycle(self):
        spec = engine_spec(tau_h=60.0, tau_c=60.0)
        u_cyc, ops = compose_cycle(spec)
        rho_lc, _ = find_limit_cycle(u_cyc)
        # the state at the start of the hot isochore is the image of the
        # cold thermal state carried through the compression
        start = gibbs_state(ops[0].h_in, spec.bath_h.beta)
        one_cycle = u_cyc.apply(start)
        from qthermo.operators import trace_distance

        assert trace_distance(one_cycle, rho_lc) < 1e-9

    def test_partial_thermalisation_monotone_convergence(self):
        spec = engine_spec(tau_h=1.0, tau_c=1.0)
        u_cyc, _ = compose_cycle(spec)
        rho_lc, conv = find_limit_cycle(u_cyc)
        finite = [c for c in conv if math.isfinite(c)]
        assert len(finite) > 3
        assert all(b <= a + 1e-9 for a, b in zip(finite, finite[1:]))


class TestFixedPointResidualGate:
    """A bordered solution that misses K vec(rho) = 0, for K a whole
    Liouvillian or a cycle map less the identity, is rejected by its
    residual instead of being returned."""

    @pytest.fixture
    def perturbed(self, monkeypatch):
        # each solution gains 1e-6 of the identity: still a positive state
        solve = lindblad._bordered_fixed_point

        def off(kernel, diag, *args):
            x = solve(kernel, diag, *args)
            x[diag] += 1e-6
            return x

        monkeypatch.setattr(lindblad, "_bordered_fixed_point", off)

    def test_floquet_stationary_state(self, perturbed):
        from qthermo import floquet

        sched = floquet.ModulatedGapQubit(omega0=1.0, amplitude=0.6, big_omega=0.45)
        dec = floquet.floquet_decompose(sched, sched.tau, 128)
        baths = {"hot": ohmic("hot", 2.0), "cold": ohmic("cold", 1.2)}
        channels = floquet.harmonic_decompose(dec, Operator.hermitian(PAULI_X), 8,
                                              tuple(baths.values()))
        gen = floquet.build_floquet_generator(channels, dec.h_av, baths)
        with pytest.raises(ValueError, match="^fixed-point residual too large: "):
            lindblad.stationary_state(gen)

    def test_limit_cycle(self, perturbed):
        u_cyc, _ = compose_cycle(engine_spec(tau_h=1.0, tau_c=1.0))
        with pytest.raises(ValueError, match="^fixed-point residual too large: "):
            find_limit_cycle(u_cyc)


class TestRunOtto:
    def test_adiabatic_efficiency_identity(self):
        rep = run_otto(engine_spec())
        assert rep.is_engine
        assert rep.efficiency == pytest.approx(0.5, abs=1e-8)
        assert rep.work > 0

    def test_carnot_bound(self):
        rep = run_otto(engine_spec())
        eta_c = 1.0 - 0.5 / 2.0
        assert rep.efficiency <= eta_c + 1e-9

    def test_cyclic_first_law(self):
        rep = run_otto(engine_spec(tau_h=5.0, tau_c=5.0))
        scale = max(abs(rep.work), abs(rep.q_h), abs(rep.q_c))
        assert abs(rep.work - rep.q_h - rep.q_c) <= 1e-8 * scale

    def test_entropy_production_nonnegative(self):
        for spec in (
            engine_spec(),
            engine_spec(tau_h=2.0, tau_c=2.0),
            engine_spec(order="refrigerator", omega_c=0.4),
            engine_spec(medium=QubitMedium(transverse=0.3), protocol="sudden"),
        ):
            rep = run_otto(spec)
            assert rep.entropy_production >= -1e-9

    def test_not_an_engine_flagged(self):
        # omega_c / omega_h below T_c / T_h: no positive work window
        rep = run_otto(engine_spec(omega_c=0.4))
        assert not rep.is_engine
        assert any("not an engine" in f for f in rep.flags)

    def test_refrigerator_window(self):
        # Q_c > 0 exactly when the post-expansion medium temperature
        # T_h omega_c / omega_h drops below T_c
        cold_window = engine_spec(order="refrigerator", omega_c=0.4)  # 0.8 < 1? T_c=0.5: 2*0.4/2=0.4 < 0.5
        rep = run_otto(cold_window)
        assert rep.q_c > 0
        assert rep.cop is not None
        t_c, t_h = 0.5, 2.0
        assert rep.cop <= t_c / (t_h - t_c) + 1e-9
        no_window = engine_spec(order="refrigerator", omega_c=0.6)  # 0.6 > 0.5
        rep2 = run_otto(no_window)
        assert rep2.q_c < 0

    def test_oscillator_medium_efficiency(self):
        spec = engine_spec(medium=OscillatorMedium(levels=10),
                           bath_h=ohmic("hot", 1.5), bath_c=ohmic("cold", 0.4))
        rep = run_otto(spec)
        assert rep.is_engine
        assert rep.efficiency == pytest.approx(0.5, abs=1e-8)

    def test_ramp_protocol_friction_lowers_efficiency(self):
        ideal = run_otto(engine_spec(medium=QubitMedium(transverse=0.5)))
        ramped = run_otto(engine_spec(medium=QubitMedium(transverse=0.5),
                                      protocol="linear-ramp",
                                      tau_hc=0.05, tau_ch=0.05))
        assert ramped.efficiency < ideal.efficiency
        assert ramped.work < ideal.work


class TestQuantumFriction:
    def test_adiabatic_protocol_frictionless(self):
        spec = engine_spec(medium=QubitMedium(transverse=0.5))
        extra, gap = quantum_friction(spec)
        assert abs(extra) <= 1e-9
        assert gap <= 1e-9

    def test_sudden_protocol_costs_work(self):
        spec = engine_spec(medium=QubitMedium(transverse=0.5), protocol="sudden")
        extra, gap = quantum_friction(spec)
        assert extra > 1e-4
        assert gap > 1e-6

    def test_friction_diagonalises_no_hamiltonian_again(self, monkeypatch):
        # the energy-basis populations are read in the walk's exit
        # eigenbasis: no eig_hermitian per adiabat, with or without the pinch
        calls = _count_calls(monkeypatch, operators.eig_hermitian)
        for dephase in (False, True):
            spec = engine_spec(medium=QubitMedium(transverse=0.5), protocol="sudden",
                               tau_h=1.0, tau_c=1.0, dephase_after_adiabats=dephase)
            _, gap = quantum_friction(spec)
            assert gap > 1e-6
        assert calls == []

    def test_commuting_medium_no_friction_even_sudden(self):
        spec = engine_spec(protocol="sudden")  # no transverse term
        extra, _ = quantum_friction(spec)
        assert abs(extra) <= 1e-9

    def test_dephasing_converts_friction_to_heat(self):
        base = engine_spec(medium=QubitMedium(transverse=0.5))
        sudden = engine_spec(medium=QubitMedium(transverse=0.5), protocol="sudden")
        dephased = replace(sudden, dephase_after_adiabats=True)
        w_ideal = run_otto(base).work
        w_deph = run_otto(dephased).work
        assert w_deph < w_ideal
        rep = run_otto(dephased)
        assert rep.entropy_production >= -1e-9


def _kron_dephase(h):
    """The eigenbasis pinch summed over projectors with np.kron."""
    _, v = eig_hermitian(h)
    d = h.dim
    m = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        p = np.outer(v.mat[:, j], v.mat[:, j].conj())
        m += np.kron(p.conj(), p)
    return m


def _kron_adiabat(medium, spec):
    """The ideal adiabat summed over transfer operators with np.kron."""
    _, v_s = eig_hermitian(medium.hamiltonian(spec.omega_start))
    _, v_e = eig_hermitian(medium.hamiltonian(spec.omega_end))
    d = medium.dim
    m = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        k = np.outer(v_e.mat[:, j], v_s.mat[:, j].conj())
        m += np.kron(k.conj(), k)
    return m


class TestStrokeSuperopsBitwise:
    """The stroke builders give the bits of the kron sums they replaced."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10 ** 9))
    def test_dephase_superop(self, d, seed):
        h = random_hermitian(d, np.random.default_rng(seed))
        for h_op in (h, OscillatorMedium(levels=max(d, 2)).hamiltonian(1.3)):
            v = eig_hermitian(h_op)[1].mat
            got = _transfer_maps(v, v)
            assert got.tobytes() == _kron_dephase(h_op).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=6),
           st.floats(min_value=0.05, max_value=2.0), st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=0.1, max_value=5.0))
    def test_adiabatic_adiabat_superop(self, levels, transverse, omega_start, omega_end):
        spec = StrokeSpec(kind="adiabat", duration=1.0, omega_start=omega_start,
                          omega_end=omega_end, protocol="adiabatic")
        for medium in (QubitMedium(transverse=transverse), OscillatorMedium(levels=levels)):
            _, v_s = eig_hermitian(medium.hamiltonian(omega_start))
            _, v_e = eig_hermitian(medium.hamiltonian(omega_end))
            got = _adiabat_superops(medium, "adiabatic", [spec], v_s.mat[None], v_e.mat[None])[0]
            assert got.tobytes() == _kron_adiabat(medium, spec).tobytes()


def test_otto_and_davies_audit_call_no_kron(monkeypatch):
    # every superoperator of an Otto cycle and of the audit comes from the
    # operators kernel; np.kron is left for Hilbert-space tensor products
    def forbidden(*args, **kwargs):
        raise AssertionError("np.kron was called")

    monkeypatch.setattr(np, "kron", forbidden)
    for protocol in ("adiabatic", "linear-ramp", "sudden"):
        rep = run_otto(engine_spec(medium=QubitMedium(transverse=0.5), protocol=protocol,
                                   dephase_after_adiabats=True))
        scale = max(abs(rep.work), abs(rep.q_h), abs(rep.q_c))
        assert abs(rep.work - rep.q_h - rep.q_c) <= 1e-8 * scale
    medium = OscillatorMedium(levels=4)
    gen = build_davies(medium.hamiltonian(1.0), [(medium.coupling(), ohmic("hot", 1.0))])
    audit = lindblad.davies_audit(gen)
    assert audit["cp_min_eig"] >= -1e-9
    assert audit["pop_coherence_mix"] <= 1e-10


def _reference_strokes(spec):
    """(superoperator, h_in, h_out, label, bath label or None) of every
    stroke, built as before the isochore generators were cached: a fresh
    build_davies and matexp per isochore, eig_hermitian at each adiabat end
    and for each pinch, one exp(-i H dt) per linear-ramp step, and fresh
    Hamiltonians for the energy bookkeeping."""
    medium = spec.medium
    out = []
    for st_ in spec.strokes():
        if st_.kind == "isochore":
            h = medium.hamiltonian(st_.omega)
            gen = build_davies(h, [(medium.coupling(), st_.bath)])
            out.append((matexp(gen.liouvillian(), st_.duration).mat, h, h, st_.label,
                        st_.bath.label))
            continue
        h_s, h_e = medium.hamiltonian(st_.omega_start), medium.hamiltonian(st_.omega_end)
        if st_.protocol == "sudden":
            sop = identity_superop(medium.dim).mat
        elif st_.protocol == "adiabatic":
            _, v_s = eig_hermitian(h_s)
            _, v_e = eig_hermitian(h_e)
            k = v_e.mat.T[:, :, None] * v_s.mat.T.conj()[:, None, :]
            sop = sandwich_superop(k, k.conj().swapaxes(-1, -2)).mat
        else:
            steps = max(64, int(math.ceil(st_.duration * 200)))
            u = np.eye(medium.dim, dtype=complex)
            for j in range(steps):
                w = st_.omega_start + (st_.omega_end - st_.omega_start) * ((j + 0.5) / steps)
                k = medium.hamiltonian(w).mat * (st_.duration / steps)
                u = unitary_exp(k[None])[0] @ u
            sop = unitary_superop(u).mat
        out.append((sop, h_s, h_e, st_.label, None))
        if spec.dephase_after_adiabats:
            _, v = eig_hermitian(h_e)
            p = v.mat.T[:, :, None] * v.mat.T.conj()[:, None, :]
            out.append((sandwich_superop(p, p.conj().swapaxes(-1, -2)).mat, h_e, h_e,
                        f"dephase-after-{st_.label}", None))
    return out


def _reference_walk(strokes, rho):
    """Work and heat, one DensityMatrix per state."""
    heat, work = {}, 0.0
    h_first = h_prev = strokes[0][1]
    for sop, h_in, h_out, _, bath in strokes:
        if np.max(np.abs(h_in.mat - h_prev.mat)) > 1e-12:
            jump = float(np.real(np.trace(rho.mat @ (h_in.mat - h_prev.mat))))
            work -= jump
        e_in = float(np.real(np.trace(rho.mat @ h_in.mat)))
        rho = Superoperator(sop).apply(rho)
        delta = float(np.real(np.trace(rho.mat @ h_out.mat))) - e_in
        if bath is not None:
            heat[bath] = heat.get(bath, 0.0) + delta
        else:
            work -= delta
        h_prev = h_out
    if np.max(np.abs(h_first.mat - h_prev.mat)) > 1e-12:
        jump = float(np.real(np.trace(rho.mat @ (h_first.mat - h_prev.mat))))
        work -= jump
    return work, heat


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


_MEDIA = st.one_of(
    st.floats(min_value=0.05, max_value=1.0).map(lambda j: QubitMedium(transverse=j)),
    st.integers(min_value=2, max_value=6).map(lambda n: OscillatorMedium(levels=n)),
)

_STACK_MEDIA = st.one_of(_MEDIA, st.just(QubitMedium()))


class TestCompiledCycleBitwise:
    """Cycles compiled from stacked generators give the bits of cycles
    built stroke by stroke from generators and decompositions of their own."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_MEDIA, st.sampled_from(_PROTOCOLS), st.sampled_from(["engine", "refrigerator"]),
           st.booleans(), st.floats(min_value=0.3, max_value=1.5),
           st.floats(min_value=1.2, max_value=3.0), st.floats(min_value=0.5, max_value=4.0),
           st.floats(min_value=0.1, max_value=1.0),
           st.lists(st.floats(min_value=0.02, max_value=1.0), min_size=4, max_size=4))
    def test_strokes_and_report_match_fresh_build(self, medium, protocol, order, dephase,
                                                  omega_c, ratio, t_h, t_c, taus):
        spec = CycleSpec(
            medium=medium, omega_h=ratio * omega_c, omega_c=omega_c,
            bath_h=ohmic("hot", t_h, gamma=1.0), bath_c=ohmic("cold", t_c, gamma=1.0),
            tau_h=8 * taus[0], tau_c=8 * taus[1], tau_hc=taus[2], tau_ch=taus[3],
            protocol=protocol, order=order, dephase_after_adiabats=dephase,
        )
        ref = _reference_strokes(spec)
        u_ref = np.eye(medium.dim ** 2, dtype=complex)
        for sop, *_ in ref:
            u_ref = sop @ u_ref
        # a cold cache, then a warm one
        for _ in range(2):
            u_cyc, ops = compose_cycle(spec)
            assert u_cyc.mat.tobytes() == u_ref.tobytes()
            assert len(ops) == len(ref)
            for op, (sop, h_in, h_out, label, _) in zip(ops, ref):
                assert op.spec.label == label
                assert op.superop.mat.tobytes() == sop.tobytes()
                assert op.h_in.mat.tobytes() == h_in.mat.tobytes()
                assert op.h_out.mat.tobytes() == h_out.mat.tobytes()

        rho_lc, trace = find_limit_cycle(u_cyc)
        conv, rho = [], DensityMatrix.maximally_mixed(medium.dim)
        for _ in range(machines._MAX_ITER):
            conv.append(relative_entropy(rho, rho_lc))
            if conv[-1] < 1e-12:
                break
            rho = Superoperator(u_ref).apply(rho)
        work, heat = _reference_walk(ref, rho_lc)
        rep = run_otto(spec)
        assert _bits(trace) == _bits(conv)
        assert _bits(rep.work) == _bits(work)
        assert _bits(rep.power) == _bits(work / spec.cycle_time())
        assert _bits([rep.q_h, rep.q_c]) == _bits([heat[spec.bath_h.label],
                                                   heat[spec.bath_c.label]])


def _count_calls(monkeypatch, fn):
    """Replace fn in every qthermo namespace with a wrapper recording the
    arguments of each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "qthermo" or name.startswith("qthermo."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def _reference_friction(spec):
    """quantum_friction stroke by stroke from the limit cycle, applying
    every stroke again with one DensityMatrix per state."""
    u_cyc, ops = compose_cycle(spec)
    rho, _ = find_limit_cycle(u_cyc)
    gens = {omega: build_davies(spec.medium.hamiltonian(omega), [(spec.medium.coupling(), bath)])
            for omega, bath in ((spec.omega_h, spec.bath_h), (spec.omega_c, spec.bath_c))}
    extra_work, entropy_gap = 0.0, 0.0
    for op in ops:
        rho_in = rho
        rho = op.superop.apply(rho)
        if op.is_isochore:
            continue
        e_in = float(np.real(np.trace(rho_in.mat @ op.h_in.mat)))
        e_actual = float(np.real(np.trace(rho.mat @ op.h_out.mat))) - e_in
        v_start = eig_hermitian(gens[op.spec.omega_start].h)[1].mat
        v_end = eig_hermitian(gens[op.spec.omega_end].h)[1].mat
        ideal = Superoperator(_adiabat_superops(spec.medium, "adiabatic", [op.spec],
                                                v_start[None], v_end[None])[0])
        e_ideal = float(np.real(np.trace(ideal.apply(rho_in).mat @ op.h_out.mat))) - e_in
        extra_work += e_actual - e_ideal
        gap = shannon_entropy_in_basis(rho, op.h_out) - von_neumann_entropy(rho)
        entropy_gap = max(entropy_gap, gap)
    return extra_work, entropy_gap


class TestOttoBathLabels:
    """The cycle's heats are booked under its own baths' labels."""

    def test_heats_read_from_the_cycles_baths(self):
        spec = engine_spec()
        relabelled = replace(spec, bath_h=replace(spec.bath_h, label="H"),
                             bath_c=replace(spec.bath_c, label="C"))
        rep, rel = run_otto(spec), run_otto(relabelled)
        assert rel.q_h > 0 > rel.q_c
        assert _bits([rel.q_h, rel.q_c, rel.work, rel.efficiency, rel.entropy_production]) \
            == _bits([rep.q_h, rep.q_c, rep.work, rep.efficiency, rep.entropy_production])

    def test_shared_label_rejected(self):
        spec = engine_spec()
        with pytest.raises(ValueError, match="share the label 'hot'"):
            replace(spec, bath_c=replace(spec.bath_c, label="hot"))


class TestOneWalkPerReport:
    """run_otto and quantum_friction solve for the limit cycle and walk it
    once; only find_limit_cycle iterates toward it."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_MEDIA, st.sampled_from(_PROTOCOLS), st.sampled_from(["engine", "refrigerator"]),
           st.booleans(), st.floats(min_value=0.3, max_value=1.5),
           st.floats(min_value=1.2, max_value=3.0),
           st.lists(st.floats(min_value=0.02, max_value=1.0), min_size=4, max_size=4))
    def test_friction_matches_stroke_by_stroke_reference(self, medium, protocol, order,
                                                         dephase, omega_c, ratio, taus):
        spec = CycleSpec(
            medium=medium, omega_h=ratio * omega_c, omega_c=omega_c,
            bath_h=ohmic("hot", 2.0, gamma=1.0), bath_c=ohmic("cold", 0.5, gamma=1.0),
            tau_h=8 * taus[0], tau_c=8 * taus[1], tau_hc=taus[2], tau_ch=taus[3],
            protocol=protocol, order=order, dephase_after_adiabats=dephase,
        )
        assert _bits(quantum_friction(spec)) == _bits(_reference_friction(spec))

    def test_reports_make_no_convergence_walk(self, monkeypatch):
        entropies = _count_calls(monkeypatch, states._relative_entropy_of_spectra)
        walks = _count_calls(monkeypatch, machines._walk_states)
        spec = engine_spec(medium=QubitMedium(transverse=0.5), protocol="sudden",
                           tau_h=1.0, tau_c=1.0)
        run_otto(spec)
        assert entropies == []
        assert len(walks) == 1
        quantum_friction(spec)
        assert entropies == []
        assert len(walks) == 2
        # the counter sees the walk of find_limit_cycle
        find_limit_cycle(compose_cycle(spec)[0])
        assert len(entropies) > 3


_POINT_BATHS = (ohmic("hot", 2.0, gamma=1.0), ohmic("hot", 0.7, gamma=1.0),
                replace(ohmic("hot", 2.0, gamma=1.0)), ohmic("cold", 0.5, gamma=1.0))


def _tables_bits(t):
    return (t.labels, t.s_e.tobytes(), t.bins.tobytes(), t.rates.tobytes(),
            [np.array(f).tobytes() for f in t.freqs], [np.array(r).tobytes() for r in t.bin_rates])


class TestIsochoreGenerators:
    def test_cycle_diagonalises_each_hamiltonian_once(self, monkeypatch):
        calls = count_decompositions(monkeypatch)
        for protocol in _PROTOCOLS:
            for dephase in (False, True):
                spec = engine_spec(medium=QubitMedium(transverse=0.5), protocol=protocol,
                                   dephase_after_adiabats=dephase)
                for evaluate in (compose_cycle, run_otto, quantum_friction):
                    calls.clear()
                    result = evaluate(spec)
                    assert calls == [2]
                # quantum_friction, the last, returns two Python floats
                assert [type(x) for x in result] == [float, float]

    def test_stroke_hamiltonians_carry_the_cycle_decompositions(self, monkeypatch):
        # the Hamiltonians that compose_cycle hands out are those its Davies
        # stack diagonalised, so reading a state in each stroke's exit
        # energy basis diagonalises nothing more
        p = cli.load_config(str(Path(__file__).resolve().parent.parent / "configs"
                                / "otto_engine.json"))["params"]
        spec = cli._otto_spec(p, "otto")
        calls = count_decompositions(monkeypatch)
        u_cyc, ops = compose_cycle(spec)
        rho, _ = find_limit_cycle(u_cyc)
        for op in ops:
            assert shannon_entropy_in_basis(rho, op.h_out) >= von_neumann_entropy(rho) - 1e-12
        assert len(ops) == 4 and calls == [2]
        for op, (w_in, w_out) in zip(ops, [(spec.omega_h,) * 2, (spec.omega_h, spec.omega_c),
                                           (spec.omega_c,) * 2, (spec.omega_c, spec.omega_h)]):
            assert op.h_in.mat.tobytes() == spec.medium.hamiltonian(w_in).mat.tobytes()
            assert op.h_out.mat.tobytes() == spec.medium.hamiltonian(w_out).mat.tobytes()

    @pytest.mark.filterwarnings("ignore:power optimisation hit its evaluation cap")
    def test_optimize_power_builds_each_point_once_per_stack(self, monkeypatch):
        stacks = _count_calls(monkeypatch, lindblad._davies_stack)
        cycles = _count_calls(monkeypatch, machines._otto_stack)
        spec = CycleSpec(
            medium=QubitMedium(), omega_h=6.0, omega_c=3.0,
            bath_h=ohmic("hot", 4.0, gamma=2.0), bath_c=ohmic("cold", 1.0, gamma=2.0),
            tau_h=2.0, tau_c=2.0, tau_hc=0.01, tau_ch=0.01,
        )
        optimize_power(spec, {"omega_c": (1.8, 5.4), "tau_h": (0.3, 6.0), "tau_c": (0.3, 6.0)},
                       restarts=2, max_evals=12)
        # one Davies stack per stack of cycles, each (H, bath) in it once,
        # and the two restarts' points share the stacks
        assert len(stacks) == len(cycles)
        for hs, _, baths in stacks:
            built = [(h.mat.tobytes(), bath) for h, (bath,) in zip(hs, baths, strict=True)]
            assert len(built) == len(set(built))
        assert max(len(specs) for (specs,) in cycles) > 1

    def test_generator_arrays_reject_writes(self):
        for medium in (QubitMedium(transverse=0.3), OscillatorMedium(levels=4)):
            (gen,) = machines._isochore_generators(medium, [(1.0, ohmic("hot", 1.0))])
            assert isinstance(gen.channels, tuple)
            evals, v = gen.h.eigh()
            arrays = [gen.h.mat, evals, v, gen.liouvillian().mat, gen.dissipator().mat]
            arrays += [ch.op for ch in gen.channels]
            for arr in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_STACK_MEDIA,
           st.lists(st.tuples(st.booleans(), st.floats(min_value=0.3, max_value=3.0),
                              st.lists(st.sampled_from(_POINT_BATHS), min_size=1, max_size=4)),
                    min_size=1, max_size=4),
           st.lists(st.integers(min_value=0, max_value=15), max_size=3))
    def test_each_point_is_its_build_alone(self, medium, drawn, repeats):
        # one label at two temperatures, an equal copy of a bath, repeated
        # points and Bohr collisions (gaps of about 1e-7) in one call: the
        # distinct points are one Davies stack, each entry has the bits of
        # building its point alone, and equal points share their entry
        points = [(1e-7 * omega if collide else omega, bath)
                  for collide, omega, baths in drawn for bath in baths]
        points += [points[i % len(points)] for i in repeats]
        with mock.patch.object(machines, "_davies_stack", wraps=lindblad._davies_stack) as stack:
            gens = machines._isochore_generators(medium, points)
        assert stack.call_count == 1
        assert len(stack.call_args.args[0]) == len(set(points))
        for (omega, bath), gen in zip(points, gens, strict=True):
            try:
                alone = build_davies(medium.hamiltonian(omega), [(medium.coupling(), bath)])
            except BohrResolutionError as exc:
                assert type(gen) is BohrResolutionError and str(gen) == str(exc)
                continue
            assert gen._liouvillian is not None
            assert _tables_bits(gen._tables) == _tables_bits(alone._tables)
            assert gen.liouvillian().mat.tobytes() == alone.liouvillian().mat.tobytes()
            assert gen.baths == alone.baths
        for p, gen in zip(points, gens):
            assert [other is gen for other in gens] == [q == p for q in points]


def _non_positive_map():
    """A qubit map with the unique fixed state diag(0.7, 0.3) that sends
    the maximally mixed state to diag(-0.3, 1.3):
    X -> Tr(X) rho_star + 5 Tr(A X) sigma_z, with Tr(A rho_star) = 0."""
    rho_star = np.diag([0.7, 0.3]).astype(complex)
    a = np.diag([0.3, -0.7]).astype(complex)
    return Superoperator(np.outer(vec(rho_star), vec(np.eye(2)))
                         + 5.0 * np.outer(vec(PAULI_Z), vec(a.T)))


def _parent_message(superops, rho):
    """The message of the first state that Superoperator.apply rejects."""
    with pytest.raises(ValueError) as err:
        for sop in superops:
            rho = sop.apply(rho)
    return str(err.value)


class TestNonPositiveStroke:
    def test_limit_cycle_iteration_raises_the_state_message(self):
        bad = _non_positive_map()
        expected = _parent_message([bad], DensityMatrix.maximally_mixed(2))
        assert "negative eigenvalue" in expected
        with pytest.raises(ValueError) as err:
            find_limit_cycle(bad)
        assert str(err.value) == expected

    def test_walks_are_checked_in_one_stack(self, monkeypatch):
        # one stacked check per call, with walks that fail: each walk's
        # error is read from the verdicts, with no second pass over it
        rho = DensityMatrix.maximally_mixed(2)
        eye, neg, big = (identity_superop(2).mat, _non_positive_map().mat, 1.5 * np.eye(4))
        walks = [[eye] * 3, [neg, eye, eye], [eye] * 3, [eye, big, neg]]
        checks = _count_calls(monkeypatch, operators._state_checks)
        spectra = _count_calls(monkeypatch, operators._state_spectra)
        _, errors = _walk_states(np.array(walks), np.array([rho.mat] * 4))
        assert len(checks) == 1 and len(checks[0][0]) == 4 * 3
        assert spectra == []
        monkeypatch.undo()
        assert errors[0] is None and errors[2] is None
        assert str(errors[1]) == _parent_message([Superoperator(m) for m in walks[1]], rho)
        assert str(errors[3]) == _parent_message([Superoperator(m) for m in walks[3]], rho)
        assert "negative eigenvalue" in str(errors[1]) and "trace" in str(errors[3])

    def test_walk_raises_the_message_of_the_first_bad_state(self):
        # the state after the bad stroke has a negative eigenvalue and the
        # one after the next has trace 1.5; the earlier fault is reported,
        # for the bad walk alone, between two good walks of one stack
        faults = [_non_positive_map(), Superoperator(1.5 * np.eye(4))]
        rho = DensityMatrix.maximally_mixed(2)
        good = [identity_superop(2).mat] * 3
        # the first bad state right after the first stroke, then after the second
        for superops in (faults + [identity_superop(2)], [identity_superop(2)] + faults):
            expected = _parent_message(superops, rho)
            assert "negative eigenvalue" in expected
            bad = [s.mat for s in superops]
            rhos, errors = _walk_states(np.array([good, bad, good]), np.array([rho.mat] * 3))
            assert errors[0] is None and errors[2] is None
            assert isinstance(errors[1], ValueError) and str(errors[1]) == expected
            alone, (error,) = _walk_states(np.array([bad]), rho.mat[None])
            assert str(error) == expected
            assert alone[0].tobytes() == rhos[1].tobytes()


def test_first_non_cptp_stroke_in_time_order_is_reported(monkeypatch):
    # the expansion (second stroke) is trace preserving but not CP, and the
    # compression (fourth) is CP but has trace 1.5: the stacked check
    # reports the expansion alone, with its own Choi eigenvalue and drift
    faulty = {"expansion": _non_positive_map(), "compression": Superoperator(1.5 * np.eye(4))}
    ideal = _adiabat_superops

    def injected(medium, kind, strokes, v_start, v_end):
        out = np.array(ideal(medium, kind, strokes, v_start, v_end))
        for j, st_ in enumerate(strokes):
            if st_.label in faulty:
                out[j] = faulty[st_.label].mat
        return out

    def message(label):
        sop = faulty[label]
        return (f"stroke {label!r} is not CPTP (choi min eig {cp_check(sop)[1]:.3e}, "
                f"trace drift {sop.trace_preservation_residual():.3e})")

    monkeypatch.setattr(machines, "_adiabat_superops", injected)
    spec = engine_spec()
    assert [st_.label for st_ in spec.strokes()][1::2] == ["expansion", "compression"]
    expected = message("expansion")
    with pytest.raises(ValueError) as err:
        compose_cycle(spec)
    assert str(err.value) == expected
    assert "compression" not in str(err.value)
    with pytest.raises(ValueError) as err:
        run_otto(spec)
    assert str(err.value) == expected
    # in a stack, each cycle reports its own first failing stroke
    fine = replace(spec, omega_h=3.0)
    monkeypatch.setattr(machines, "_adiabat_superops", lambda medium, kind, strokes, *v: np.array([
        faulty[st_.label].mat if st_.omega_start == spec.omega_h else m
        for st_, m in zip(strokes, ideal(medium, kind, strokes, *v))
    ]))
    reports = machines._otto_stack([fine, spec, fine])
    assert str(reports[1]) == expected
    assert _bits(reports[0].work) == _bits(reports[2].work) == _bits(run_otto(fine).work)
    monkeypatch.setattr(machines, "_adiabat_superops", injected)
    # with the expansion ideal again, the compression fails on its drift
    del faulty["expansion"]
    assert cp_check(faulty["compression"])[0]
    with pytest.raises(ValueError) as err:
        compose_cycle(spec)
    assert str(err.value) == message("compression")


class TestOptimizePower:
    def test_collapsed_box_returns_point(self, monkeypatch):
        # the one point is run once, with the bits of a plain run there
        runs = _count_calls(monkeypatch, machines.run_otto)
        spec = engine_spec(tau_h=4.0, tau_c=4.0)
        best, power, eta = optimize_power(spec, {"tau_h": (4.0, 4.0)})
        assert len(runs) == 1
        assert best["tau_h"] == pytest.approx(4.0)
        assert power == pytest.approx(run_otto(spec).power, rel=1e-9)
        rep = run_otto(spec)
        assert _bits([power, eta]) == _bits([rep.power, rep.efficiency])

    def test_otto_optimize_config_runs_441_cycles(self, monkeypatch):
        # the midpoint, three restarts that ask for 128, 147 and 151 points
        # (as SciPy's searches evaluate), the hints evaluated beside them
        # and the final report: the first stack holds the midpoint and the
        # three whole simplices, and the report is the 113th
        stacks = _count_calls(monkeypatch, machines._otto_stack)
        spec, free = _otto_optimize_config()
        optimize_power(spec, free, seed=11)
        sizes = [len(specs) for (specs,) in stacks]
        assert (len(sizes), sum(sizes)) == (113, 441)
        assert sizes[0] == 1 + 3 * (len(free) + 1) and sizes[-1] == 1

    def test_one_otto_optimize_run_makes_at_most_120_stacks(self, monkeypatch, tmp_path):
        # one run of the shipped config: the search with its final report,
        # and the CLI's own run at the optimum; asking for one point at a
        # time, the restarts took 153 stacks of 429 cycles
        stacks = _count_calls(monkeypatch, machines._otto_stack)
        cfg = json.loads((Path(__file__).resolve().parent.parent / "configs"
                          / "otto_optimize.json").read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "otto_optimize.json"
        path.write_text(json.dumps(cfg))
        assert cli.run(str(path)) == 0
        assert len(stacks) <= 120
        assert sum(len(specs) for (specs,) in stacks) <= 460

    @pytest.mark.parametrize("kwargs, message", [
        (dict(restarts=-1), "restarts must be >= 0, got -1"),
        (dict(max_evals=0), "max_evals must be >= 1, got 0"),
        (dict(max_evals=-3), "max_evals must be >= 1, got -3"),
    ])
    def test_no_search_is_a_value_error(self, monkeypatch, kwargs, message):
        # rather than the midpoint with a warning that every restart hit
        # its cap, when no restart ran or none could evaluate a point
        stacks = _count_calls(monkeypatch, machines._otto_stack)
        spec, free = _otto_optimize_config()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                optimize_power(spec, free, **kwargs)
        assert stacks == []

    @pytest.mark.parametrize("free, message", [
        ({}, "free must name at least one parameter to optimise"),
        ({"order": (0.0, 1.0)}, "cannot optimise over 'order'"),
        ({"tau_h": (math.nan, 2.0)}, "bounds of 'tau_h' must be finite"),
        ({"tau_c": (0.3, math.inf)}, "bounds of 'tau_c' must be finite"),
        ({"tau_c": (3.0, 1.0)}, "bounds of 'tau_c' must have lo <= hi, got [3, 1]"),
        ({"tau_h": (-1.0, 2.0)}, "bounds of 'tau_h' must be >= 0: it is a stroke duration"),
        ({"omega_c": (0.0, 2.0)}, "bounds of 'omega_c' must be > 0: it is a frequency"),
        ({"omega_c": (1.8, 7.0)}, "bounds of 'omega_c' must keep omega_h > omega_c at every "
                                  "corner, but reach omega_c = 7 with omega_h = 6"),
        ({"omega_h": (2.5, 8.0), "tau_h": (0.3, 6.0)},
         "bounds of 'omega_h' must keep omega_h > omega_c at every corner, "
         "but reach omega_c = 3 with omega_h = 2.5"),
    ], ids=["empty", "unknown-key", "nan", "infinite", "reversed", "negative-duration",
            "zero-frequency", "omega_c-above-omega_h", "omega_h-below-omega_c"])
    def test_a_box_holding_no_cycle_raises_before_any_evaluation(self, monkeypatch, free,
                                                                   message):
        stacks = _count_calls(monkeypatch, machines._otto_stack)
        spec, _ = _otto_optimize_config()
        with pytest.raises(ValueError) as err:
            optimize_power(spec, free)
        assert str(err.value) == message
        assert stacks == []

    @pytest.mark.filterwarnings("ignore:power optimisation hit its evaluation cap")
    def test_only_bohr_collisions_score_zero(self, monkeypatch):
        # a Bohr collision is a non-engine point; any other failure of a
        # cycle evaluation reaches the caller
        from qthermo.lindblad import BohrResolutionError

        spec = engine_spec()
        free = {"tau_h": (2.0, 6.0)}
        stack = machines._otto_stack
        calls = []

        def failing(error):
            def otto(cycles):
                out = stack(cycles)
                for j, cycle in enumerate(cycles):
                    calls.append(cycle)
                    if len(calls) == 2:
                        out[j] = error
                return out
            return otto

        monkeypatch.setattr(machines, "_otto_stack", failing(BohrResolutionError("collision")))
        best, power, _ = optimize_power(spec, free, restarts=1, max_evals=10)
        # the collision scored zero: the search is that of a zero there
        scored = []

        def zero_at_second(cycles):
            out = stack(cycles)
            for j, cycle in enumerate(cycles):
                scored.append(cycle)
                if len(scored) == 2:
                    out[j] = replace(out[j], work=0.0)
            return out

        monkeypatch.setattr(machines, "_otto_stack", zero_at_second)
        best_zero, power_zero, _ = optimize_power(spec, free, restarts=1, max_evals=10)
        assert _bits([*best.values(), power]) == _bits([*best_zero.values(), power_zero])
        calls.clear()
        monkeypatch.setattr(machines, "_otto_stack",
                            failing(ValueError("fixed point is not a positive state")))
        with pytest.raises(ValueError, match="not a positive state"):
            optimize_power(spec, free, restarts=1, max_evals=10)

    def test_curzon_ahlborn_reference_value(self):
        assert 1.0 - math.sqrt(1.0 / 4.0) == pytest.approx(0.5)

    def test_high_temperature_qubit_near_curzon_ahlborn(self):
        spec = CycleSpec(
            medium=QubitMedium(),
            omega_h=6.0, omega_c=3.0,
            bath_h=BathSpec(label="hot", temperature=4.0, form_factor="ohmic",
                            gamma=2.0, cutoff=30.0),
            bath_c=BathSpec(label="cold", temperature=1.0, form_factor="ohmic",
                            gamma=2.0, cutoff=30.0),
            tau_h=2.0, tau_c=2.0, tau_hc=0.01, tau_ch=0.01,
        )
        best, power, eta = optimize_power(
            spec,
            {"omega_c": (1.8, 5.4), "tau_h": (0.3, 6.0), "tau_c": (0.3, 6.0)},
            seed=11,
        )
        eta_ca = 1.0 - math.sqrt(1.0 / 4.0)
        assert power > 0
        assert abs(eta - eta_ca) / eta_ca <= 0.10


def _searches(f, x0, lo, hi, maxfev):
    """Run SciPy's bounded Nelder–Mead and `nelder_mead` on f; assert
    that they evaluate the same points and return the same bits, and
    return the evaluated points and `nelder_mead`'s result."""
    theirs, ours = [], []
    res = scipy.optimize.minimize(
        lambda x: (theirs.append(x.tobytes()), f(x))[1], x0, method="Nelder-Mead",
        bounds=list(zip(lo, hi)), options={"maxfev": maxfev, "xatol": 1e-4, "fatol": 1e-10},
    )
    result = nelder_mead(lambda x: (ours.append(x.tobytes()), f(x))[1],
                         x0, lo, hi, maxfev, 1e-4, 1e-10)
    x, fun, success = result
    assert ours == theirs
    assert x.tobytes() == res.x.tobytes()
    assert _bits(fun) == _bits(res.fun)
    assert success is bool(res.success)
    return ours, result


def _otto_optimize_config():
    p = cli.load_config(str(Path(__file__).resolve().parent.parent / "configs"
                            / "otto_optimize.json"))["params"]
    return cli._otto_spec(p, "otto-optimize"), {k: tuple(v) for k, v in p["free"].items()}


def _drawn_search(data):
    """A drawn box of 1–4 dimensions, a start in it, a cap and an
    objective (constant, smooth or stepped): (f, x0, lo, hi, maxfev)."""
    n = data.draw(st.integers(min_value=1, max_value=4))
    lo, hi, x0 = [], [], []
    for _ in range(n):
        a = data.draw(st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=3.0)))
        width = data.draw(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=4.0)))
        u = data.draw(st.one_of(st.sampled_from([0.0, 1.0]),
                                st.floats(min_value=0.0, max_value=1.0)))
        lo.append(a)
        hi.append(a + width)
        x0.append(a + u * width)
    lo, hi, x0 = np.array(lo), np.array(hi), np.array(x0)
    maxfev = data.draw(st.integers(min_value=1, max_value=300))
    kind = data.draw(st.sampled_from(["constant", "smooth", "steps"]))
    centre = np.array(data.draw(st.lists(st.floats(min_value=-4.0, max_value=4.0),
                                         min_size=n, max_size=n)))

    def f(x):
        if kind == "constant":
            return 1.0
        if kind == "smooth":
            return float(np.sum((x - centre) ** 2) + 0.1 * np.sum(np.sin(5.0 * x)))
        return float(np.round(np.sum(np.abs(x - centre)), 1))

    return f, x0, lo, hi, maxfev


class TestNelderMeadAgainstScipy:
    """`_nelder_mead_steps` is SciPy's bounded Nelder–Mead, point for point."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_same_points_and_bits(self, data):
        f, x0, lo, hi, maxfev = _drawn_search(data)
        points, _ = _searches(f, x0, lo, hi, maxfev)
        assert 0 < len(points) <= maxfev

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_hinted_points_answer_scipys_points(self, data):
        # a driver that evaluates every hint and answers the requests that
        # match one from its value: the search asks for SciPy's points,
        # point for point, returns SciPy's bits, and hints no point that
        # the cap would keep it from asking for
        f, x0, lo, hi, maxfev = _drawn_search(data)
        points, (x, fun, success) = _searches(f, x0, lo, hi, maxfev)
        result, asked, rounds = hinted_nelder_mead(f, x0, lo, hi, maxfev, 1e-4, 1e-10)
        assert asked == points
        assert result[0].tobytes() == x.tobytes() and _bits(result[1]) == _bits(fun)
        assert result[2] is success
        assert len(rounds[0][0]) == min(len(x0) + 1, maxfev)
        assert all(len(evaluated) <= maxfev - before for evaluated, before in rounds)
        assert len(rounds) <= len(asked)


    def test_cap_below_the_simplex_fails(self):
        # three vertices, two evaluations: the third vertex keeps +inf
        points, (_, _, success) = _searches(lambda x: float(x @ x), np.array([0.5, 0.5]),
                                            np.zeros(2), np.ones(2), 2)
        assert len(points) == 2 and not success

    def test_cap_inside_a_shrink_re_sorts_the_simplex(self):
        # the cap ends a shrink after a shrunk vertex has beaten the best
        # one; only the final re-sort makes that vertex the returned x
        def f(x):
            return float(np.sum((x - np.array([0.5, 2.3])) ** 2) + np.sum(np.sin(5.0 * x)))

        points, (_, _, success) = _searches(f, np.array([2.8, 3.8]), np.zeros(2),
                                            np.full(2, 4.0), 21)
        assert len(points) == 21 and not success

    def test_one_restart_of_the_otto_optimize_objective(self, monkeypatch):
        # optimize_power's own objective, compared inside the real search:
        # the points that the lockstep search has evaluated, with the values
        # it is sent, are those of SciPy's search on the same values
        spec, free = _otto_optimize_config()
        steps = machines._nelder_mead_steps
        searched = []

        def recorded(x0, lo, hi, maxfev, xatol, fatol):
            assert (maxfev, xatol, fatol) == (200, 1e-4, 1e-10)
            trace = {"start": (x0, lo, hi), "points": [], "values": {}}
            searched.append(trace)
            search, value = steps(x0, lo, hi, maxfev, xatol, fatol), None
            try:
                while True:
                    x, hints = search.send(value)
                    trace["points"].append(x.tobytes())
                    value = yield x, hints
                    trace["values"][x.tobytes()] = value
            except StopIteration as stop:
                trace["result"] = stop.value
                return stop.value

        monkeypatch.setattr(machines, "_nelder_mead_steps", recorded)
        optimize_power(spec, free, seed=11, restarts=1)
        (trace,) = searched
        points, (x, fun, success) = _searches(lambda p: trace["values"][p.tobytes()],
                                              *trace["start"], 200)
        assert points == trace["points"] and len(points) > 20
        x_ref, fun_ref, success_ref = trace["result"]
        assert x.tobytes() == x_ref.tobytes() and _bits(fun) == _bits(fun_ref)
        assert success is success_ref


def _outcome(search, *args, **kwargs):
    """The result bits, or the error message, and the warnings of a search."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            best, power, eta = search(*args, **kwargs)
            result = (list(best), _bits([*best.values(), power]),
                      None if eta is None else _bits(eta))
        except ValueError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


class TestLockstepRestarts:
    """optimize_power runs its restarts in lockstep with the outcome of
    running them one after another (`models.sequential_optimize_power`)."""

    @pytest.mark.parametrize("case", ["shipped", "capped", "one-parameter", "ramp",
                                      "oscillator-dephased", "no-restarts"])
    def test_same_bits_and_warning_as_restart_after_restart(self, case):
        spec, free = _otto_optimize_config()
        kwargs = dict(seed=11)
        if case == "capped":
            kwargs = dict(seed=3, restarts=2, max_evals=30)
        elif case == "one-parameter":
            free, kwargs = {"tau_h": (0.3, 6.0)}, dict(seed=5, restarts=4, max_evals=40)
        elif case == "ramp":
            spec = replace(spec, medium=QubitMedium(transverse=0.4), protocol="linear-ramp",
                           tau_hc=0.2, tau_ch=0.2)
            free = {"omega_c": (1.0, 5.0), "tau_hc": (0.05, 0.5)}
            kwargs = dict(seed=2, max_evals=40)
        elif case == "oscillator-dephased":
            spec = replace(spec, medium=OscillatorMedium(levels=4), dephase_after_adiabats=True,
                           order="refrigerator")
            free, kwargs = {"omega_c": (1.0, 5.0), "tau_c": (0.3, 4.0)}, dict(seed=9, max_evals=30)
        elif case == "no-restarts":
            kwargs = dict(seed=11, restarts=0)
        got = _outcome(optimize_power, spec, free, **kwargs)
        assert got == _outcome(sequential_optimize_power, spec, free, **kwargs)
        assert got[1] == ([] if case in ("shipped", "no-restarts", "one-parameter") else
                          [(UserWarning, "power optimisation hit its evaluation cap in every "
                                         "restart; returning the best point found")])

    def test_no_restart_gives_no_evaluation_cap_warning(self):
        # no restart ran, so none hit its cap: the midpoint is the answer
        spec, free = _otto_optimize_config()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            best, power, _ = optimize_power(spec, free, restarts=0)
        mid = {k: (lo + hi) / 2.0 for k, (lo, hi) in free.items()}
        assert best == mid
        assert _bits(power) == _bits(run_otto(replace(spec, **mid)).power)

    @pytest.mark.parametrize("failing", [(1, 0), (1,), (0, 2), (-1, 0), ("hinted",),
                                         ("hinted", 1)])
    def test_the_error_of_the_earliest_restart_surfaces(self, monkeypatch, failing):
        # a non-Bohr error injected at one point of each listed restart (-1
        # the midpoint): restart 1 fails at its 3rd point, before restart 0
        # fails at its 40th in lockstep order, yet restart 0's error is the
        # one that running the restarts in turn raises.  An error at the
        # first evaluated point that no restart asks for, a hint, is
        # evaluated and never surfaces.
        spec, free = _otto_optimize_config()
        names = list(free)
        trace = []
        sequential_optimize_power(spec, free, seed=11, trace=trace)
        points = {}
        for r, params in trace:
            points.setdefault(r, []).append(tuple(params.values()))
        counts = {}
        for pts in points.values():
            for p in pts:
                counts[p] = counts.get(p, 0) + 1
        stacks = _count_calls(monkeypatch, machines._otto_stack)
        optimize_power(spec, free, seed=11)
        evaluated = [tuple(getattr(cycle, k) for k in names) for (cycles,) in stacks[1:]
                     for cycle in cycles]
        points["hinted"] = [p for p in evaluated if p not in counts]
        at = {-1: 0, 0: 39, 1: 2, 2: 5, "hinted": 0}
        bad = {}
        for r in failing:
            p = points[r][at[r]]
            assert counts.get(p, 1) == 1
            bad[p] = ValueError(f"injected into restart {r}")
        stack = machines._otto_stack
        hit = set()

        def injected(cycles):
            out = stack(cycles)
            for j, cycle in enumerate(cycles):
                key = tuple(getattr(cycle, k) for k in names)
                if key in bad:
                    hit.add(key)
                    out[j] = bad[key]
            return out

        monkeypatch.setattr(machines, "_otto_stack", injected)
        got = _outcome(optimize_power, spec, free, seed=11)
        assert got == _outcome(sequential_optimize_power, spec, free, seed=11)
        asked = [r for r in failing if r != "hinted"]
        if asked:
            assert got[0] == (ValueError, f"injected into restart {min(asked)}")
        else:
            assert points["hinted"][0] in hit
            assert got[0][0] == names


class TestOttoStackMemberByMember:
    """Each member of a stack of cycles is its cycle evaluated alone."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_STACK_MEDIA, st.sampled_from(_PROTOCOLS), st.sampled_from(["engine", "refrigerator"]),
           st.booleans(),
           st.lists(st.tuples(st.sampled_from(["plain", "plain", "cold-collision",
                                               "both-collide"]),
                              st.floats(min_value=0.3, max_value=1.5),
                              st.floats(min_value=1.2, max_value=3.0),
                              st.lists(st.floats(min_value=0.02, max_value=1.0),
                                       min_size=4, max_size=4)),
                    min_size=1, max_size=5))
    def test_bitwise_the_cycle_alone(self, medium, protocol, order, dephase, points):
        specs = []
        for kind, omega_c, ratio, taus in points:
            omega_h = ratio * omega_c
            if kind != "plain":  # gaps of about 1e-7 that can be neither merged nor resolved
                omega_c = 1e-7 * omega_c
                omega_h = ratio * omega_c if kind == "both-collide" else omega_h
            specs.append(CycleSpec(
                medium=medium, omega_h=omega_h, omega_c=omega_c,
                bath_h=ohmic("hot", 2.0, gamma=1.0), bath_c=ohmic("cold", 0.5, gamma=1.0),
                tau_h=8 * taus[0], tau_c=8 * taus[1], tau_hc=taus[2], tau_ch=taus[3],
                protocol=protocol, order=order, dephase_after_adiabats=dephase,
            ))
        specs.append(specs[0])
        alone = []
        for spec in specs:
            try:
                alone.append(run_otto(spec))
            except ValueError as exc:
                alone.append(exc)
        for got, ref in zip(machines._otto_stack(specs), alone, strict=True):
            if isinstance(ref, ValueError):
                assert type(got) is type(ref) and str(got) == str(ref)
                continue
            fields = [getattr(got, f.name) for f in dataclasses.fields(got)]
            ref_fields = [getattr(ref, f.name) for f in dataclasses.fields(ref)]
            assert repr(fields) == repr(ref_fields)
            assert _bits([x for x in fields if isinstance(x, float)]) \
                == _bits([x for x in ref_fields if isinstance(x, float)])

    def test_a_stack_mixes_collisions_and_cycles(self):
        from qthermo.lindblad import BohrResolutionError

        spec = engine_spec(medium=OscillatorMedium(levels=3))
        specs = [spec, replace(spec, omega_c=1e-7), replace(spec, omega_h=3e-7, omega_c=1e-7),
                 replace(spec, tau_h=3.0)]
        reports = machines._otto_stack(specs)
        assert isinstance(reports[1], BohrResolutionError) and "'cold'" in str(reports[1])
        assert isinstance(reports[2], BohrResolutionError) and "'hot'" in str(reports[2])
        for i in (0, 3):
            assert _bits(reports[i].work) == _bits(run_otto(specs[i]).work)

    def test_a_stack_shares_its_medium_and_structure(self):
        spec = engine_spec()
        for other in (replace(spec, protocol="sudden"), replace(spec, order="refrigerator"),
                      replace(spec, dephase_after_adiabats=True),
                      replace(spec, medium=QubitMedium(transverse=0.1))):
            with pytest.raises(ValueError, match="must share their medium"):
                machines._otto_stack([spec, other])


class TestSuddenLimit:
    def test_halving_tau_cuts_error_eightfold(self):
        spec = engine_spec(medium=QubitMedium(transverse=0.4))
        rows = sudden_limit_check(spec, [0.04, 0.02])
        ratio = rows[0][1] / rows[1][1]
        assert 6.5 <= ratio <= 9.5

    def test_loglog_slope_near_three(self):
        spec = engine_spec(medium=QubitMedium(transverse=0.4))
        taus = np.geomspace(0.1, 0.005, 8)
        rows = sudden_limit_check(spec, taus)
        slope = fit_loglog_slope(rows)
        assert 2.7 <= slope <= 3.3

    def test_half_compression_is_exponentiated_once_per_tau(self, monkeypatch):
        # the split's two half steps share one expm, and the merged
        # generator gets its own: five per tau
        calls = []
        expm = scipy.linalg.expm

        def counting(a):
            calls.append(a)
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", counting)
        spec = engine_spec(medium=QubitMedium(transverse=0.4))
        sudden_limit_check(spec, [0.04, 0.02, 0.01])
        assert len(calls) == 15

    def test_commuting_generators_exact(self):
        # no transverse term: every stroke generator is diagonal in the
        # same basis, so the split is exact
        spec = engine_spec()
        rows = sudden_limit_check(spec, [0.5, 0.1, 0.02])
        assert all(err <= 1e-12 for _, err in rows)


class TestTricycle:
    def test_steady_laws(self):
        st = tricycle_steady(tricycle_spec())
        assert st.first_law_residual <= 1e-9
        assert st.second_law_value >= -1e-9

    def test_engine_window_gain_positive(self):
        # omega_c / omega_h = 0.5 above T_c / T_h = 0.25: amplifier window
        st = tricycle_steady(tricycle_spec(omega_c=1.5, bath_c=ohmic("cold", 0.5, gamma=0.1)))
        assert st.gain >= 0
        assert st.currents["cold"] < 0  # engine dumps heat into the cold bath

    def test_cooling_window_boundary_reversible(self):
        # omega_c / omega_h = T_c / T_h with an infinite-temperature work
        # bath: currents vanish with the interaction-induced splitting
        spec = tricycle_spec(omega_c=0.75, eps=1e-3)
        st = tricycle_steady(spec)
        assert abs(st.currents["cold"]) <= 1e-8

    def test_no_transport_without_interaction(self):
        st = tricycle_steady(tricycle_spec(eps=0.0))
        for v in st.currents.values():
            assert abs(v) <= 1e-12

    def test_clausius_outside_cooling_window(self):
        # hot -> cold flow when the device is parked in the engine window
        st = tricycle_steady(tricycle_spec(omega_c=1.5))
        assert st.currents["hot"] > 0
        assert st.currents["cold"] < 0

    def test_refrigeration_inside_window(self):
        spec = tricycle_spec(omega_c=0.2, bath_c=ohmic("cold", 0.5, gamma=0.1))
        st = tricycle_steady(spec)
        assert st.currents["cold"] > 0
        assert st.gain < 0
        assert st.second_law_value >= -1e-9

    def test_oscillator_representation(self):
        spec = tricycle_spec(representation="oscillators", oscillator_levels=3,
                             omega_c=1.2)
        st = tricycle_steady(spec)
        assert st.first_law_residual <= 1e-9
        assert st.second_law_value >= -1e-9

    @pytest.mark.parametrize("representation,levels", [("qubits", 3), ("oscillators", 3),
                                                        ("oscillators", 4)])
    def test_cached_pieces_equal_uncached_build(self, representation, levels):
        def uncached(spec):
            d = spec.levels
            a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1)
            num = a.conj().T @ a
            eye = np.eye(d)

            def emb(op, slot):
                mats = [eye, eye, eye]
                mats[slot] = op
                return np.kron(np.kron(mats[0], mats[1]), mats[2])

            h = (spec.omega_h * emb(num, 0) + spec.omega_c * emb(num, 1)
                 + spec.omega_w * emb(num, 2))
            inter = spec.eps * (emb(a, 0) @ emb(a.conj().T, 1) @ emb(a.conj().T, 2)
                                + emb(a.conj().T, 0) @ emb(a, 1) @ emb(a, 2))
            return h + inter, [emb(a + a.conj().T, slot) for slot in range(3)]

        # the three Hamiltonians are built as one stack, each with the bits
        # of its own uncached build
        specs = [tricycle_spec(representation=representation, oscillator_levels=levels,
                               omega_c=omega_c, eps=eps)
                 for omega_c, eps in [(1.0, 0.05), (0.37, 0.2), (2.1, 0.0)]]
        for spec, h in zip(specs, _tricycle_hamiltonians(specs)):
            assert h.kind == "hermitian" and not h.mat.flags.writeable
            couplings = [c for c, _ in _tricycle_couplings(spec)]
            h_ref, couplings_ref = uncached(spec)
            assert np.array_equal(h.mat, h_ref)
            assert len(couplings) == 3
            for c, c_ref in zip(couplings, couplings_ref):
                assert np.array_equal(c.mat, c_ref)
        nums, inter, couplings = _tricycle_pieces(spec.levels)
        for piece in (nums, inter, *(c.mat for c in couplings)):
            assert not piece.flags.writeable
        assert all(c.kind == "hermitian" for c in couplings)

    def test_steady_state_builds_no_superoperator(self, monkeypatch):
        # the stationary solve works on the zero-Bohr sector alone
        def forbidden(*args, **kwargs):
            raise AssertionError("a d^2 x d^2 superoperator was built")

        for module in (operators, lindblad):
            monkeypatch.setattr(module, "dissipator_superop", forbidden)
            monkeypatch.setattr(module, "hamiltonian_superop", forbidden)
        monkeypatch.setattr(lindblad.GKLSGenerator, "liouvillian", forbidden)
        sides = []
        solve = lindblad._bordered_fixed_point

        def recording(kernel, *args):
            sides.append(len(kernel))
            return solve(kernel, *args)

        monkeypatch.setattr(lindblad, "_bordered_fixed_point", recording)
        st = tricycle_steady(tricycle_spec(representation="oscillators",
                                           oscillator_levels=3, omega_c=0.2))
        # nondegenerate spectrum: the sector is the 27 populations, so
        # rotation roundoff has joined no coherence to it
        assert sides == [27]
        assert st.state.dim == 27
        assert st.first_law_residual <= 1e-9
        assert st.currents["cold"] > 0

    def test_five_level_tricycle_cools_on_its_sector_in_small_memory(self, monkeypatch):
        # d = 125: a kernel that loops over the 610 Bohr bins, or builds a
        # d^3 array per coupling, takes seconds and 184 MB; the pair
        # readings of the tables take under 10 MB
        config = Path(__file__).resolve().parent.parent / "configs" / "tricycle_ladder4.json"
        p = cli.load_config(str(config))["params"]
        spec = cli._tricycle_spec(dict(p, oscillator_levels=5, eps=0.3), "tricycle")
        sides = []
        solve = lindblad._bordered_fixed_point

        def recording(kernel, *args):
            sides.append(len(kernel))
            return solve(kernel, *args)

        def forbidden(gen):
            raise AssertionError("the sector was not certified")

        monkeypatch.setattr(lindblad, "_bordered_fixed_point", recording)
        monkeypatch.setattr(lindblad, "_liouvillian_state", forbidden)
        tracemalloc.start()
        try:
            st = tricycle_steady(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.state.dim == 125 and len(sides) == 1 and sides[0] < 125 ** 2
        # the machine heats its cold bath at this interaction strength
        assert -0.0062 < st.currents["cold"] < -0.0060
        assert st.first_law_residual <= DYNAMICAL
        assert peak < 32 * 2 ** 20

    def test_near_degenerate_resonance_rejected(self):
        # eps close to a bare gap spacing collides dressed and bare lines
        from qthermo.lindblad import BohrResolutionError

        spec = tricycle_spec(omega_c=1.0, eps=1.0000001)
        with pytest.raises((BohrResolutionError, ValueError)):
            tricycle_steady(spec)


class TestThirdLawSweep:
    def test_shipped_sweep_bins_once_per_grid_stack(self, monkeypatch):
        # the 8 cold temperatures of the shipped sweep solve a coarse and a
        # fine grid each, pipelined into 9 stacks, and each stack's Bohr
        # gaps are binned in one pass, not candidate by candidate
        config = Path(__file__).resolve().parent.parent / "configs" / "third_law_sweep.json"
        p = cli.load_config(str(config))["params"]
        passes = []
        original = lindblad._bin_frequencies

        def counting(*args):
            passes.append(args)
            return original(*args)

        monkeypatch.setattr(lindblad, "_bin_frequencies", counting)
        rows = third_law_sweep(cli._tricycle_spec(p, "third-law-sweep"), p["t_c_grid"])
        assert len(rows) == len(p["t_c_grid"]) == 8
        assert len(passes) == 9

    def test_shipped_sweep_stacks_build_no_member_alone(self, monkeypatch):
        # each of the 9 stacks builds its Hamiltonians as one checked stack
        # and hands its states out of one stacked check: no DensityMatrix
        # and no Operator is constructed one at a time inside a stack
        config = Path(__file__).resolve().parent.parent / "configs" / "third_law_sweep.json"
        p = cli.load_config(str(config))["params"]
        spec = cli._tricycle_spec(p, "third-law-sweep")
        _tricycle_pieces(spec.levels)  # the couplings, built once per process
        inside, alone, stacked = [False], [], []
        solve = machines._tricycle_steady_stack

        def in_stack(specs):
            inside[0] = True
            try:
                return solve(specs)
            finally:
                inside[0] = False

        for cls in (DensityMatrix, Operator):
            def counting(self, post_init=cls.__post_init__):
                if inside[0]:
                    alone.append(type(self).__name__)
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        for cls, name in ((DensityMatrix, "stack"), (Operator, "hermitian_stack")):
            def counting_stack(mats, method=getattr(cls, name), name=name):
                if inside[0]:
                    stacked.append((name, len(mats)))
                return method(mats)

            monkeypatch.setattr(cls, name, staticmethod(counting_stack))
        monkeypatch.setattr(machines, "_tricycle_steady_stack", in_stack)
        rows = third_law_sweep(spec, p["t_c_grid"])
        assert len(rows) == 8 and not any(r.unsolved for r in rows)
        assert alone == []
        # 8 grids of 20 coarse and 18 inner fine candidates, in 9 stacks
        hermitian = [n for name, n in stacked if name == "hermitian_stack"]
        assert len(hermitian) == 9 and sum(hermitian) == 8 * 38
        states = [n for name, n in stacked if name == "stack"]
        assert len(states) == 9 and sum(states) == 8 * 38

    def test_sweep_structure_and_monotonicity(self):
        spec = tricycle_spec(
            bath_c=BathSpec(label="cold", temperature=0.5, form_factor="power",
                            exponent=2.0, gamma=0.1, cutoff=20.0),
            eps=1e-3,
        )
        rows = third_law_sweep(spec, np.geomspace(0.4, 0.05, 6))
        cooling = [r for r in rows if not r.no_cooling]
        assert len(cooling) == len(rows)
        js = [r.j_c for r in cooling]
        assert all(a > b for a, b in zip(js, js[1:]))
        assert all(r.conductance > 0 for r in cooling)
        assert all(r.gain > 0 for r in cooling)

    def test_quanta_rate_scaling_with_bath_exponent(self):
        # the cooling current scales as T^(p+1): the optimal quantum is
        # proportional to T and the absorption rate to T^p
        spec = tricycle_spec(
            bath_c=BathSpec(label="cold", temperature=0.5, form_factor="power",
                            exponent=2.0, gamma=0.1, cutoff=20.0),
            eps=1e-3,
        )
        rows = third_law_sweep(spec, np.geomspace(0.4, 0.02, 8))
        x = np.log([r.t_c for r in rows])
        y = np.log([r.j_c for r in rows])
        slope = float(np.polyfit(x, y, 1)[0])
        assert slope == pytest.approx(3.0, abs=0.35)

    def test_optimal_frequency_tracks_temperature(self):
        spec = tricycle_spec(
            bath_c=BathSpec(label="cold", temperature=0.5, form_factor="power",
                            exponent=3.0, gamma=0.1, cutoff=20.0),
            eps=1e-3,
        )
        rows = third_law_sweep(spec, np.geomspace(0.4, 0.02, 6))
        ratios = [r.omega_c_star / r.t_c for r in rows if not r.no_cooling]
        cv = float(np.std(ratios) / np.mean(ratios))
        assert cv <= 0.15

    def test_grid_floor_enforced(self):
        with pytest.raises(ValueError, match="floored"):
            third_law_sweep(tricycle_spec(), [0.5, 1e-4])

    def test_each_candidate_is_solved_once(self, monkeypatch):
        # 20 coarse candidates and 18 fine ones per cold temperature, the
        # fine grid of one temperature in the stack of the next one's coarse
        # grid, ahead of it: the fine grid's two ends are coarse points,
        # whose solves are reused; the best one's gain is reported from its
        # own solve
        calls = _count_calls(monkeypatch, machines._tricycle_steady_stack)
        spec = tricycle_spec(
            bath_c=BathSpec(label="cold", temperature=0.5, form_factor="power",
                            exponent=2.0, gamma=0.1, cutoff=20.0),
            eps=1e-3,
        )
        rows = third_law_sweep(spec, [0.4, 0.1])
        assert [len(specs) for (specs,) in calls] == [20, 38, 18]
        temps = [[sp.bath_c.temperature for sp in specs] for (specs,) in calls]
        assert temps == [[0.4] * 20, [0.4] * 18 + [0.1] * 20, [0.1] * 18]
        omegas = [[sp.omega_c for sp in specs] for (specs,) in calls]
        for coarse, fine in ((omegas[0], omegas[1][:18]), (omegas[1][18:], omegas[2])):
            assert not set(coarse) & set(fine)
        for row in rows:
            assert not row.no_cooling
            best = tricycle_steady(replace(spec, omega_c=row.omega_c_star,
                                           bath_c=replace(spec.bath_c, temperature=row.t_c)))
            assert _bits(row.gain) == _bits(-best.gain)
            assert _bits(row.j_c) == _bits(best.currents["cold"])

    def test_rows_equal_candidate_by_candidate_solves(self):
        # the stacked sweep against the scan written with one tricycle_steady
        # call per candidate, 40 per cold temperature
        spec = tricycle_spec(
            bath_c=BathSpec(label="cold", temperature=0.5, form_factor="power",
                            exponent=3.0, gamma=0.1, cutoff=20.0),
            eps=1e-3,
        )
        grid_t = [0.4, 0.11, 0.031]
        rows = third_law_sweep(spec, grid_t)
        for t_c, row in zip(grid_t, rows):
            at = replace(spec, bath_c=replace(spec.bath_c, temperature=t_c))

            def solve(w):
                st = tricycle_steady(replace(at, omega_c=float(w)))
                return st.currents["cold"], st

            grid = np.linspace(0.2 * t_c, min(3.0 * t_c, 0.95 * spec.omega_h), 20)
            k = int(np.argmax([solve(w)[0] for w in grid]))
            fine = np.linspace(grid[max(0, k - 1)], grid[min(19, k + 1)], 20)
            solves = [solve(w) for w in fine]
            kk = int(np.argmax([j for j, _ in solves]))
            gain = -solves[kk][1].gain
            ref = (t_c, float(fine[kk]), solves[kk][0], solves[kk][0] / (fine[kk] * gain), gain)
            got = (row.t_c, row.omega_c_star, row.j_c, row.conductance, row.gain)
            assert [_bits(x) for x in got] == [_bits(float(x)) for x in ref]

    def test_only_bohr_collisions_are_skipped(self, monkeypatch):
        # a candidate whose build raises BohrResolutionError scores -inf and
        # the sweep goes on; a solver failure of any other kind reaches the
        # caller
        from qthermo.lindblad import BohrResolutionError

        spec = tricycle_spec(eps=1e-3)
        build, solve = machines._davies_stack, machines._stationary_stack

        def colliding(hs, couplings, baths):
            gens = build(hs, couplings, baths)
            return [BohrResolutionError("collision")] + gens[1:]

        monkeypatch.setattr(machines, "_davies_stack", colliding)
        assert len(third_law_sweep(spec, [0.4])) == 1

        def failing(gens):
            states = solve(gens)
            states[3] = ValueError("stationary state not unique: bordered-system rcond 0")
            return states

        monkeypatch.setattr(machines, "_stationary_stack", failing)
        with pytest.raises(ValueError, match="stationary state not unique"):
            third_law_sweep(spec, [0.4])

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(t_cs=st.lists(st.floats(min_value=0.02, max_value=1.5), min_size=1, max_size=5),
           cold_work=st.booleans(), collide=st.sampled_from([None, 0, 1, 2, "all"]))
    def test_rows_bitwise_the_per_grid_sweep(self, t_cs, cold_work, collide):
        # the pipelined sweep against solving each grid as its own stack:
        # rows that cool, rows that do not (a work bath at T = 0.2 against a
        # hot one at 0.3 stops the machine cooling at low T_c), and
        # candidates whose build collides, one in three or all of them
        spec = tricycle_spec(eps=1e-3)
        if cold_work:
            spec = replace(spec, bath_h=replace(spec.bath_h, temperature=0.3),
                           bath_w=replace(spec.bath_w, temperature=0.2))
        build = machines._davies_stack

        def colliding(hs, couplings, baths=None):
            gens = build(hs, couplings, baths)
            return [BohrResolutionError("injected") if collide == "all" or (
                collide is not None and zlib.crc32(h.mat.tobytes()) % 3 == collide) else gen
                for h, gen in zip(hs, gens)]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(machines, "_davies_stack", colliding)
            got = third_law_sweep(spec, t_cs)
            ref = per_grid_sweep(spec, t_cs)
        assert [(r.no_cooling, _bits(dataclasses.astuple(r)[:-1])) for r in got] \
            == [(r.no_cooling, _bits(dataclasses.astuple(r)[:-1])) for r in ref]
        if collide == "all" or (cold_work and max(t_cs) < 0.4):
            assert all(r.no_cooling for r in got)

    @staticmethod
    def _grids(spec, t_cs):
        # the (temperature, omega_c) of each grid's candidates, in the order
        # of solving the grids one after another
        calls = []
        stack = machines._tricycle_steady_stack

        def recording(specs):
            calls.append([(sp.bath_c.temperature, sp.omega_c) for sp in specs])
            return stack(specs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(machines, "_tricycle_steady_stack", recording)
            per_grid_sweep(spec, t_cs)
        return calls

    @pytest.mark.parametrize("fine_at, coarse_at", [(0, 0), (17, 0), (0, 19), (17, 19)])
    def test_fine_grid_error_raised_before_the_next_coarse_grids(self, monkeypatch, fine_at,
                                                                 coarse_at):
        # the fine grid of 0.4 shares a stack with the coarse grid of 0.1,
        # behind it: a solver error in each, and the fine grid's is raised,
        # as solving the grids one after another raises it
        spec = tricycle_spec(eps=1e-3)
        _, fine_0, coarse_1, _ = self._grids(spec, [0.4, 0.1])
        bad = {fine_0[fine_at]: "fine grid of 0.4", coarse_1[coarse_at]: "coarse grid of 0.1"}
        stack = machines._tricycle_steady_stack

        def failing(specs):
            out = stack(specs)
            for i, sp in enumerate(specs):
                if (sp.bath_c.temperature, sp.omega_c) in bad:
                    out[i] = ValueError(bad[sp.bath_c.temperature, sp.omega_c])
            return out

        monkeypatch.setattr(machines, "_tricycle_steady_stack", failing)
        for sweep in (third_law_sweep, per_grid_sweep):
            with pytest.raises(ValueError, match="^fine grid of 0.4$"):
                sweep(spec, [0.4, 0.1])
        del bad[fine_0[fine_at]]
        for sweep in (third_law_sweep, per_grid_sweep):
            with pytest.raises(ValueError, match="^coarse grid of 0.1$"):
                sweep(spec, [0.4, 0.1])

    def test_floor_checked_only_after_the_fine_grid_before_it(self, monkeypatch):
        # 1e-4 is below the 1e-3 floor: the error is raised once the fine
        # grid of 0.4 is solved, alone, and a solver error in that grid is
        # raised instead
        spec = tricycle_spec(eps=1e-3)
        _, fine_0 = self._grids(spec, [0.4])
        sizes, fail = [], []
        stack = machines._tricycle_steady_stack

        def failing(specs):
            sizes.append(len(specs))
            out = stack(specs)
            for i, sp in enumerate(specs):
                if (sp.bath_c.temperature, sp.omega_c) in fail:
                    out[i] = ValueError("stationary state not unique: bordered-system rcond 0")
            return out

        monkeypatch.setattr(machines, "_tricycle_steady_stack", failing)
        for sweep in (third_law_sweep, per_grid_sweep):
            sizes.clear()
            with pytest.raises(ValueError, match="floored"):
                sweep(spec, [0.4, 1e-4])
            assert sizes == [20, 18]
        fail.append(fine_0[5])
        for sweep in (third_law_sweep, per_grid_sweep):
            with pytest.raises(ValueError, match="not unique"):
                sweep(spec, [0.4, 1e-4])
        # a floor error on the first temperature comes before any solve
        sizes.clear()
        with pytest.raises(ValueError, match="floored"):
            third_law_sweep(spec, [1e-4, 0.4])
        assert sizes == []


def test_third_law_flat_bath_exponent_reported():
    # flat cold bath: constant form factor makes the absorption rate
    # temperature independent, so the current scales as the quantum alone
    spec = tricycle_spec(
        bath_c=BathSpec(label="cold", temperature=0.5, form_factor="flat",
                        gamma=0.1, cutoff=20.0),
        eps=1e-3,
    )
    rows = third_law_sweep(spec, np.geomspace(0.4, 0.02, 6))
    cooling = [r for r in rows if not r.no_cooling]
    assert len(cooling) == len(rows)
    assert all(r.conductance > 0 for r in cooling)
    x = np.log([r.t_c for r in cooling])
    y = np.log([r.j_c for r in cooling])
    slope = float(np.polyfit(x, y, 1)[0])
    assert slope == pytest.approx(1.0, abs=0.3)
