import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo import cli, lindblad, machines, operators, states
from qthermo.baths import BathSpec
from qthermo.lindblad import build_davies
from qthermo.machines import (
    _PROTOCOLS,
    _adiabat_superop,
    _nelder_mead,
    _transfer_superop,
    _tricycle_couplings,
    _tricycle_hamiltonian,
    _tricycle_pieces,
    _walk_cycle,
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
from qthermo.tolerances import ALGEBRAIC

from models import random_unitary


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
        for h_op in (h, OscillatorMedium(levels=d).hamiltonian(1.3)):
            v = eig_hermitian(h_op)[1].mat
            got = _transfer_superop(v, v).mat
            assert got.tobytes() == _kron_dephase(h_op).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=6),
           st.floats(min_value=0.05, max_value=2.0), st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=0.1, max_value=5.0))
    def test_adiabatic_adiabat_superop(self, levels, transverse, omega_start, omega_end):
        spec = StrokeSpec(kind="adiabat", duration=1.0, omega_start=omega_start,
                          omega_end=omega_end, protocol="adiabatic")
        for medium in (QubitMedium(transverse=transverse), OscillatorMedium(levels=levels)):
            _, v_s = eig_hermitian(medium.hamiltonian(omega_start))
            _, v_e = eig_hermitian(medium.hamiltonian(omega_end))
            got = _adiabat_superop(medium, spec, v_s.mat, v_e.mat).mat
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


class TestCompiledCycleBitwise:
    """Cycles compiled from the cached generators give the bits of cycles
    built stroke by stroke from fresh generators and decompositions."""

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
    gens = machines._cycle_generators(spec)
    extra_work, entropy_gap = 0.0, 0.0
    for op in ops:
        rho_in = rho
        rho = op.superop.apply(rho)
        if op.is_isochore:
            continue
        e_in = float(np.real(np.trace(rho_in.mat @ op.h_in.mat)))
        e_actual = float(np.real(np.trace(rho.mat @ op.h_out.mat))) - e_in
        ideal = _adiabat_superop(spec.medium, replace(op.spec, protocol="adiabatic"),
                                 gens[op.spec.omega_start].eigenbasis()[1].mat,
                                 gens[op.spec.omega_end].eigenbasis()[1].mat)
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
        walks = _count_calls(monkeypatch, machines._walk_cycle)
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


class TestIsochoreCache:
    def test_cycle_diagonalises_each_hamiltonian_once(self, monkeypatch):
        calls = _count_calls(monkeypatch, operators.eig_hermitian)
        for protocol in _PROTOCOLS:
            for dephase in (False, True):
                machines._isochore_generator.cache_clear()
                spec = engine_spec(medium=QubitMedium(transverse=0.5), protocol=protocol,
                                   dephase_after_adiabats=dephase)
                calls.clear()
                compose_cycle(spec)
                assert len(calls) <= 2
                calls.clear()
                compose_cycle(spec)
                run_otto(spec)
                assert calls == []

    @pytest.mark.filterwarnings("ignore:power optimisation hit its evaluation cap")
    def test_optimize_power_builds_each_stroke_generator_once(self, monkeypatch):
        calls = _count_calls(monkeypatch, lindblad.build_davies)
        runs = _count_calls(monkeypatch, machines.run_otto)
        spec = CycleSpec(
            medium=QubitMedium(), omega_h=6.0, omega_c=3.0,
            bath_h=ohmic("hot", 4.0, gamma=2.0), bath_c=ohmic("cold", 1.0, gamma=2.0),
            tau_h=2.0, tau_c=2.0, tau_hc=0.01, tau_ch=0.01,
        )
        optimize_power(spec, {"omega_c": (1.8, 5.4), "tau_h": (0.3, 6.0), "tau_c": (0.3, 6.0)},
                       restarts=1, max_evals=20)
        keys = {(h.mat.tobytes(), couplings[0][1]) for h, couplings in calls}
        assert len(calls) == len(keys)
        # the hot stroke is shared by every evaluation
        assert len(calls) < 2 * len(runs)
        assert len(calls) <= machines._isochore_generator.cache_info().maxsize

    def test_cached_arrays_reject_writes_and_the_cache_is_bounded(self):
        maxsize = machines._isochore_generator.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < math.inf
        for medium in (QubitMedium(transverse=0.3), OscillatorMedium(levels=4)):
            gen = machines._isochore_generator(medium, 1.0, ohmic("hot", 1.0))
            assert machines._isochore_generator(medium, 1.0, ohmic("hot", 1.0)) is gen
            assert isinstance(gen.channels, tuple)
            evals, v = gen.eigenbasis()
            arrays = [gen.h.mat, evals, v.mat, gen.liouvillian().mat, gen.dissipator().mat]
            arrays += [ch.op for ch in gen.channels]
            for arr in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0


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

    def test_walk_raises_the_message_of_the_first_bad_state(self):
        # the state after the bad stroke has a negative eigenvalue and the
        # one after the next has trace 1.5; the earlier fault is reported
        h = QubitMedium().hamiltonian(1.0)
        stroke = StrokeSpec(kind="adiabat", duration=0.0, protocol="sudden", label="injected")
        superops = [identity_superop(2), _non_positive_map(), Superoperator(1.5 * np.eye(4))]
        ops = [machines.StrokeOp(spec=stroke, superop=s, h_in=h, h_out=h) for s in superops]
        rho = DensityMatrix.maximally_mixed(2)
        expected = _parent_message(superops, rho)
        assert "negative eigenvalue" in expected
        with pytest.raises(ValueError) as err:
            _walk_cycle(ops, rho.mat)
        assert str(err.value) == expected


def test_first_non_cptp_stroke_in_time_order_is_reported(monkeypatch):
    # the expansion (second stroke) is trace preserving but not CP, and the
    # compression (fourth) is CP but has trace 1.5: the stacked check
    # reports the expansion alone, with its own Choi eigenvalue and drift
    faulty = {"expansion": _non_positive_map(), "compression": Superoperator(1.5 * np.eye(4))}
    ideal = _adiabat_superop

    def injected(medium, spec, v_start, v_end):
        if spec.label in faulty:
            return faulty[spec.label]
        return ideal(medium, spec, v_start, v_end)

    def message(label):
        sop = faulty[label]
        return (f"stroke {label!r} is not CPTP (choi min eig {cp_check(sop)[1]:.3e}, "
                f"trace drift {sop.trace_preservation_residual():.3e})")

    monkeypatch.setattr(machines, "_adiabat_superop", injected)
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

    def test_otto_optimize_config_runs_428_cycles(self, monkeypatch):
        # the midpoint, three restarts of at most 200 evaluations and the
        # final report, as many as SciPy's search made
        runs = _count_calls(monkeypatch, machines.run_otto)
        spec, free = _otto_optimize_config()
        optimize_power(spec, free, seed=11)
        assert len(runs) == 428

    @pytest.mark.filterwarnings("ignore:power optimisation hit its evaluation cap")
    def test_only_bohr_collisions_score_zero(self, monkeypatch):
        # a Bohr collision is a non-engine point; any other failure of a
        # cycle evaluation reaches the caller
        from qthermo.lindblad import BohrResolutionError

        spec = engine_spec()
        free = {"tau_h": (2.0, 6.0)}
        run = machines.run_otto
        calls = []

        def failing(error):
            def otto(cycle):
                calls.append(cycle)
                if len(calls) == 2:
                    raise error
                return run(cycle)
            return otto

        monkeypatch.setattr(machines, "run_otto", failing(BohrResolutionError("collision")))
        optimize_power(spec, free, restarts=1, max_evals=10)
        calls.clear()
        monkeypatch.setattr(machines, "run_otto",
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
    """Run SciPy's bounded Nelder–Mead and `_nelder_mead` on f; assert
    that they evaluate the same points and return the same bits, and
    return the evaluated points and `_nelder_mead`'s result."""
    theirs, ours = [], []
    res = scipy.optimize.minimize(
        lambda x: (theirs.append(x.tobytes()), f(x))[1], x0, method="Nelder-Mead",
        bounds=list(zip(lo, hi)), options={"maxfev": maxfev, "xatol": 1e-4, "fatol": 1e-10},
    )
    result = _nelder_mead(lambda x: (ours.append(x.tobytes()), f(x))[1],
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


class TestNelderMeadAgainstScipy:
    """`_nelder_mead` is SciPy's bounded Nelder–Mead, point for point."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_same_points_and_bits(self, data):
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

        points, _ = _searches(f, x0, lo, hi, maxfev)
        assert 0 < len(points) <= maxfev

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
        # optimize_power's own objective, compared inside the real search
        spec, free = _otto_optimize_config()
        searched = []

        def compared(f, x0, lo, hi, maxfev, xatol, fatol):
            assert (maxfev, xatol, fatol) == (200, 1e-4, 1e-10)
            points, result = _searches(f, x0, lo, hi, maxfev)
            searched.append(points)
            return result

        monkeypatch.setattr(machines, "_nelder_mead", compared)
        optimize_power(spec, free, seed=11, restarts=1)
        assert len(searched) == 1 and len(searched[0]) > 20


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

        for omega_c, eps in [(1.0, 0.05), (0.37, 0.2), (2.1, 0.0)]:
            spec = tricycle_spec(representation=representation, oscillator_levels=levels,
                                 omega_c=omega_c, eps=eps)
            h = _tricycle_hamiltonian(spec)
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

    def test_near_degenerate_resonance_rejected(self):
        # eps close to a bare gap spacing collides dressed and bare lines
        from qthermo.lindblad import BohrResolutionError

        spec = tricycle_spec(omega_c=1.0, eps=1.0000001)
        with pytest.raises((BohrResolutionError, ValueError)):
            tricycle_steady(spec)


class TestThirdLawSweep:
    def test_shipped_sweep_bins_once_per_grid_stack(self, monkeypatch):
        # the 8 cold temperatures of the shipped sweep solve a coarse and a
        # fine grid each, and each grid's Bohr gaps are binned in one pass
        # over its stack, not candidate by candidate
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
        assert len(passes) == 16

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
        # 20 coarse candidates and 18 fine ones per cold temperature, each
        # grid one stack: the fine grid's two ends are coarse points, whose
        # solves are reused; the best one's gain is reported from its own
        # solve
        calls = _count_calls(monkeypatch, machines._tricycle_steady_stack)
        spec = tricycle_spec(
            bath_c=BathSpec(label="cold", temperature=0.5, form_factor="power",
                            exponent=2.0, gamma=0.1, cutoff=20.0),
            eps=1e-3,
        )
        rows = third_law_sweep(spec, [0.4, 0.1])
        assert [len(omegas) for _, omegas in calls] == [20, 18, 20, 18]
        for (_, coarse), (_, fine) in zip(calls[::2], calls[1::2]):
            assert not set(np.asarray(coarse).tolist()) & set(np.asarray(fine).tolist())
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

        def colliding(hs, couplings):
            gens = build(hs, couplings)
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
